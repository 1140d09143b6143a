"""Supporting hyperplanes of the rate region at a distortion target.

For a unit direction alpha >= 0 the support value

    phi(alpha) = min { sum_i alpha_i R_i : R achievable at distortion D }

is attained at a vertex of the region of the optimal allocation r*, taken
in the decoding order pi* that sorts alpha in descending order.  Writing
the objective through that vertex and imposing the distortion equality
yields a Lagrangian whose stationarity conditions solve in closed form:

    r*_{pi*(1)} = [ (1/2) ln( 2 nu / (alpha_{pi*(1)} sigma_n2_{pi*(1)}) ) ]+

    r*_{pi*(k)} = [ (1/2) ln( (2 nu + sum_{i<k} (alpha_{pi*(i)} - alpha_{pi*(i+1)})
                       * (1/D - S_i)^{-1}) / (alpha_{pi*(k)} sigma_n2_{pi*(k)}) ) ]+

with S_i the running precision weight of the first i sorted encoders and
[x]+ = max(x, 0).  Each r*_k increases with nu and with the earlier r*'s,
so the precision of r*(nu) is nondecreasing in nu.  The multiplier is the
least float nu whose allocation reaches the target precision 1/D, found in
at most 64 halvings of the integers that order the floats.  It depends only
on the data, so scaling every variance by a power of two scales nu by the
same power and leaves the rates and phi bit-identical.

Zero-alpha encoders are free: their allocation is pushed to the cap
(infinite rate).  If the capped encoders alone already beat the target
distortion, the positive-alpha encoders need no rate and phi = 0.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass

from .errors import ArgumentError, ConvergenceError, InfeasibleDistortionError, InternalInconsistencyError
from .model import TOL_EQ, CeoInstance, R_MAX, capped_precision, d_min, exp_neg2r, precision_weight
from .polymatroid import vertex

# Bounds of the multiplier search: 2 nu stays finite.
NU_LIMIT = sys.float_info.max / 4.0


@dataclass(frozen=True)
class HyperplaneResult:
    alpha: tuple[float, ...]
    nu: float
    r_star: tuple[float, ...]
    phi: float
    contact_vertex: tuple[float, ...]
    pi_star: tuple[int, ...]
    # ``_recursion`` passes of the multiplier search, 0 when the capped
    # encoders alone meet D; not part of the serialized result.
    iterations: int = 0

    def to_dict(self) -> dict:
        return {
            "alpha": list(self.alpha),
            "nu": self.nu,
            "r_star": list(self.r_star),
            "phi": self.phi,
            "contact_vertex": list(self.contact_vertex),
            "pi_star": [i + 1 for i in self.pi_star],
        }


def _normalize_alpha(alpha) -> tuple[float, ...]:
    alpha = tuple(float(a) for a in alpha)
    if not all(0.0 <= a < math.inf for a in alpha):
        raise ArgumentError(f"alpha must be finite and componentwise >= 0, got {alpha}")
    scale = max(alpha, default=0.0)
    if scale == 0.0:
        raise ArgumentError("alpha must be nonzero")
    # Dividing by the largest entry first keeps hypot clear of overflow and
    # of subnormal norms.
    alpha = tuple(a / scale for a in alpha)
    norm = math.hypot(*alpha)
    return tuple(a / norm for a in alpha)


def _float_key(x: float) -> int:
    """Integer that orders the floats: adjacent floats have adjacent keys,
    and both zeros have key 0."""
    (bits,) = struct.unpack("<q", struct.pack("<d", x))
    return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)


def _key_float(key: int) -> float:
    """The float of a ``_float_key``."""
    (x,) = struct.unpack("<d", struct.pack("<q", abs(key)))
    return x if key >= 0 else -x


def _sort_order(alpha) -> tuple[int, ...]:
    # Descending alpha, ties broken by ascending encoder index (stable).
    return tuple(sorted(range(len(alpha)), key=lambda i: (-alpha[i], i)))


def _check_distortion(instance: CeoInstance, D: float) -> None:
    if not D > 0.0 or math.isnan(D):
        raise ArgumentError(f"D must be positive, got {D}")
    if D > instance.sigma_x2 * (1.0 + 1e-12):
        raise ArgumentError(f"D={D} exceeds the source variance {instance.sigma_x2}")
    floor = d_min(instance, instance.L)
    if D <= floor * (1.0 + 1e-12):
        raise InfeasibleDistortionError(
            f"D={D} is at or below the saturation floor {floor}"
        )


def _recursion(instance: CeoInstance, alpha, order, positive, nu: float, inv_d: float, fixed=None):
    """Sorted-order allocation r*(nu) with running clamping.

    Encoder k of the order gets its stationarity numerator 2 nu plus the
    alpha gaps so far, each over 1/D less the weights decoded before it,
    and r_k solves alpha_k sigma_n2[k] exp(2 r_k) = numerator.  ``fixed``
    replaces the solved allocation by a given one, so that the numerators
    are those the KKT check evaluates.  Returns the allocation, its
    positive encoders' total weight and the numerators in sorted order.
    """
    r = list(fixed) if fixed is not None else [0.0] * instance.L
    nums = []
    running = 0.0  # sum of precision weights of earlier sorted encoders
    correction = 0.0  # accumulated (alpha gap) / (1/D - S_i) terms
    for k, idx in enumerate(order[:positive]):
        if k > 0:
            prev = order[k - 1]
            gap = alpha[prev] - alpha[idx]
            # The floor is reached only above the root, where running
            # passes 1/D.
            correction += gap / max(inv_d - running, math.ulp(inv_d))
        num = 2.0 * nu + correction
        nums.append(num)
        if fixed is None:
            if num <= 0.0:
                rk = 0.0
            else:
                rk = 0.5 * math.log(num / (alpha[idx] * instance.sigma_n2[idx]))
                rk = min(max(rk, 0.0), R_MAX)
            r[idx] = rk
        running += precision_weight(instance.sigma_n2[idx], r[idx])
    return r, running, nums


def support_value(instance: CeoInstance, alpha, D: float) -> HyperplaneResult:
    """Support value phi(alpha) of the rate region at distortion D.

    Returns the optimal allocation, the multiplier, and the contact vertex
    in the descending-alpha decoding order.  The multiplier is the least
    float in [-NU_LIMIT, NU_LIMIT] whose allocation reaches the target
    precision, bisected over ``_float_key`` in at most 64 halvings;
    ConvergenceError is raised when its allocation misses D by more than
    TOL_EQ nats, (1/2) |ln(precision D)|.
    """
    alpha = _normalize_alpha(alpha)
    if len(alpha) != instance.L:
        raise ArgumentError(f"alpha has length {len(alpha)}, expected {instance.L}")
    _check_distortion(instance, D)
    order = _sort_order(alpha)
    positive = sum(1 for a in alpha if a > 0.0)
    capped = order[positive:]

    inv_d = 1.0 / D
    base = capped_precision(instance, capped)
    r = [0.0] * instance.L
    for i in capped:
        r[i] = R_MAX
    nu = 0.0
    passes = 0

    if base < inv_d:
        # Residual precision must come from positive-alpha encoders.  The
        # multiplier may take either sign (very uneven directions at loose
        # targets need nu < 0, with the leading allocations clamped at zero).
        p0 = 1.0 / instance.sigma_x2
        target = inv_d - (base - p0)
        lo, hi = _float_key(-NU_LIMIT), _float_key(NU_LIMIT)
        p_lo = p0
        while hi - lo > 1:
            mid = (lo + hi) // 2
            _, running, _ = _recursion(instance, alpha, order, positive, _key_float(mid), inv_d)
            passes += 1
            p_mid = p0 + running
            if p_mid >= target:
                hi = mid
            elif 0.5 * math.log(p_lo / p_mid) > TOL_EQ:
                raise InternalInconsistencyError("precision decreased along the multiplier bisection")
            else:
                lo, p_lo = mid, p_mid
        nu = _key_float(hi)
        rpos, running, _ = _recursion(instance, alpha, order, positive, nu, inv_d)
        passes += 1
        # The allocation's distortion must be D to within TOL_EQ nats, the
        # rate tolerance of membership, faces and schedules.
        gap = 0.5 * math.log((base + running) / inv_d)
        if not abs(gap) <= TOL_EQ:
            raise ConvergenceError(
                f"multiplier bisection misses the distortion target by {gap:.3e} nats "
                f"(precision {base + running!r}, 1/D {inv_d!r})"
            )
        for i in order[:positive]:
            r[i] = rpos[i]

    contact = vertex(instance, r, order)
    # Zero-alpha (capped) encoders contribute 0 times their finite capped rate.
    phi = sum(a * v for a, v in zip(alpha, contact))
    return HyperplaneResult(
        alpha=alpha,
        nu=nu,
        r_star=tuple(r),
        phi=phi,
        contact_vertex=contact,
        pi_star=order,
        iterations=passes,
    )


def kkt_residual(instance: CeoInstance, alpha, D: float, result: HyperplaneResult) -> float:
    """Max stationarity residual at the returned solution.

    For coordinates with r*_k > 0 the raw stationarity is evaluated (it must
    vanish); coordinates at zero must have a nonnegative multiplier, i.e. a
    nonpositive unclamped derivative direction.  The numerators come from
    ``_recursion`` evaluated at the returned allocation.

    When the capped (zero-alpha) encoders alone reach D, the
    multiplier is 0 and the answer is optimal iff no positive-alpha encoder
    spends rate, so the residual is the largest such rate.
    """
    alpha = _normalize_alpha(alpha)
    positive = sum(1 for a in alpha if a > 0.0)
    capped = result.pi_star[positive:]
    if capped_precision(instance, capped) >= 1.0 / D:
        return max(result.r_star[i] for i in result.pi_star[:positive])
    _, _, nums = _recursion(instance, alpha, result.pi_star, positive, result.nu, 1.0 / D, result.r_star)
    worst = 0.0
    for idx, num in zip(result.pi_star, nums):
        grad = alpha[idx] - (exp_neg2r(result.r_star[idx]) / instance.sigma_n2[idx]) * num
        if result.r_star[idx] > 0.0:
            worst = max(worst, abs(grad))
        elif grad < -1e-9:
            worst = max(worst, -grad)
    return worst
