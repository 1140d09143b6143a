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
least float nu whose allocation reaches the target precision 1/D.  The
search keeps a bracket of the integers that order the floats, one end
missing the target and one meeting it, and closes it with Newton points
(the recursion carries the precision's derivative in nu) where they fit
and with halvings otherwise: about 9 passes of the recursion on ordinary
queries, and never more than SEARCH_PASSES + 1 = 72, the 64 halvings of
[-NU_LIMIT, NU_LIMIT] and 8 more.  The precision is monotone, so every
bracket closes on the float that bisection alone reaches.  That float
depends only on the data, so scaling every variance by a power of two
scales nu by the same power and leaves the rates and phi bit-identical.

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
# Passes the multiplier search may spend before its last: 64 halvings
# take the keys of [-NU_LIMIT, NU_LIMIT] to adjacent floats, and Newton
# points may use the other 7.
SEARCH_PASSES = 71


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


NU_KEY = _float_key(NU_LIMIT)


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
    positive encoders' total weight, the numerators in sorted order and
    the total weight's derivative in nu, carried forward with the
    correction term; a weight clamped at 0 or at ``R_MAX`` adds none.
    """
    r = list(fixed) if fixed is not None else [0.0] * instance.L
    nums = []
    running = 0.0  # sum of precision weights of earlier sorted encoders
    correction = 0.0  # accumulated (alpha gap) / (1/D - S_i) terms
    d_running = d_correction = 0.0  # their derivatives in nu
    for k, idx in enumerate(order[:positive]):
        if k > 0:
            prev = order[k - 1]
            gap = alpha[prev] - alpha[idx]
            room = inv_d - running
            # The floor is reached only above the root, where running
            # passes 1/D.
            if room > math.ulp(inv_d):
                correction += gap / room
                d_correction += gap / room * (d_running / room)
            else:
                correction += gap / math.ulp(inv_d)
        num = 2.0 * nu + correction
        nums.append(num)
        if fixed is None:
            if num <= 0.0:
                rk = 0.0
            else:
                rk = 0.5 * math.log(num / (alpha[idx] * instance.sigma_n2[idx]))
                rk = min(max(rk, 0.0), R_MAX)
                if 0.0 < rk < R_MAX:
                    # The weight is 1/sigma_n2 - alpha / num here.
                    d_running += alpha[idx] / num * ((2.0 + d_correction) / num)
            r[idx] = rk
        running += precision_weight(instance.sigma_n2[idx], r[idx])
    return r, running, nums, d_running


def _least_multiplier(instance: CeoInstance, alpha, order, positive, inv_d: float, target: float):
    """The least float nu in [-NU_LIMIT, NU_LIMIT] whose allocation's
    precision reaches ``target``, with that allocation, its total weight
    and the number of ``_recursion`` passes spent.

    The bracket (lo, hi] of ``_float_key`` integers keeps lo missing the
    target and hi meeting it (the ends of the range are assumed to).  Each
    pass tries a point inside it: first the multiplier at which the
    weights would meet the target with every rate unclamped and no alpha
    gap, then the Newton point of the last pass.  Newton runs in 1/num of
    the first encoder with rate, whose weight 1/sigma_n2 - alpha/num bends
    the most: from a miss that point lands past the root.  The point is
    moved away from the side just seen by one float, or by the multiplier
    step of one rounding of the precision (doubled while that side
    repeats) if that is further, so that both ends close in.  A point may
    leave the bracket as wide as it was, so one is tried only while the
    key halvings still needed fit after it in SEARCH_PASSES; otherwise, and
    when there is no point (no rate moves with nu) or it falls outside the
    bracket, the pass halves the keys.  The search spends at most
    SEARCH_PASSES passes, and one more when no point met the target.  The
    precision is monotone in nu, so every such bracket closes on the float
    that bisection alone reaches.
    """
    p0 = 1.0 / instance.sigma_x2
    lo, hi = -NU_KEY, NU_KEY
    p_lo = p0
    allocation = running = None  # at hi, once evaluated
    excess = p0 + sum(1.0 / instance.sigma_n2[i] for i in order[:positive]) - target
    guess = sum(alpha) / (2.0 * excess) if excess > 0.0 else math.nan
    missed, margin, shift = False, 0.0, 0.0
    passes = 0
    while hi - lo > 1:
        key = (lo + hi) // 2
        if (
            passes + (hi - lo - 1).bit_length() < SEARCH_PASSES
            and math.isfinite(guess)
            and lo <= _float_key(guess) <= hi
        ):
            if missed:
                key = max(_float_key(guess) + 1, _float_key(guess + shift))
            else:
                key = min(_float_key(guess) - 1, _float_key(guess - shift))
            key = min(max(key, lo + 1), hi - 1)
        nu = _key_float(key)
        r_nu, run_nu, nums, slope = _recursion(instance, alpha, order, positive, nu, inv_d)
        passes += 1
        p_nu = p0 + run_nu
        meets = p_nu >= target
        if meets:
            hi, allocation, running = key, r_nu, run_nu
        elif 0.5 * math.log(p_lo / p_nu) > TOL_EQ:
            raise InternalInconsistencyError("precision decreased along the multiplier search")
        else:
            lo, p_lo = key, p_nu
        margin = max(2.0 * margin, 1.0) if missed != meets else 0.0
        missed = not meets
        guess = math.nan
        if slope > 0.0:
            step = (p_nu - target) / slope
            shift = margin * math.ulp(target) / slope
            # nu - t is the pole of the first weight with rate.
            t = next((num / 2.0 for i, num in zip(order, nums) if r_nu[i] > 0.0), math.inf)
            if step / t > -1.0:
                guess = nu - step / (1.0 + step / t)
    nu = _key_float(hi)
    if allocation is None:
        allocation, running, _, _ = _recursion(instance, alpha, order, positive, nu, inv_d)
        passes += 1
    return nu, allocation, running, passes


def support_value(instance: CeoInstance, alpha, D: float) -> HyperplaneResult:
    """Support value phi(alpha) of the rate region at distortion D.

    Returns the optimal allocation, the multiplier, and the contact vertex
    in the descending-alpha decoding order.  The multiplier is the least
    float in [-NU_LIMIT, NU_LIMIT] whose allocation reaches the target
    precision, found by ``_least_multiplier`` in at most SEARCH_PASSES + 1
    passes; ConvergenceError is raised when its allocation misses D by
    more than TOL_EQ nats, (1/2) |ln(precision D)|.
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
        target = inv_d - (base - 1.0 / instance.sigma_x2)
        nu, rpos, running, passes = _least_multiplier(instance, alpha, order, positive, inv_d, target)
        # The allocation's distortion must be D to within TOL_EQ nats, the
        # rate tolerance of membership, faces and schedules.
        gap = 0.5 * math.log((base + running) / inv_d)
        if not abs(gap) <= TOL_EQ:
            raise ConvergenceError(
                f"multiplier search misses the distortion target by {gap:.3e} nats "
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
    _, _, nums, _ = _recursion(instance, alpha, result.pi_star, positive, result.nu, 1.0 / D, result.r_star)
    worst = 0.0
    for idx, num in zip(result.pi_star, nums):
        grad = alpha[idx] - (exp_neg2r(result.r_star[idx]) / instance.sigma_n2[idx]) * num
        if result.r_star[idx] > 0.0:
            worst = max(worst, abs(grad))
        elif grad < -1e-9:
            worst = max(worst, -grad)
    return worst
