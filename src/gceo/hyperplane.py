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
so the precision of r*(nu) is nondecreasing in nu and the multiplier is
found by bisection against the distortion constraint.

Zero-alpha encoders are free: their allocation is pushed to the cap
(infinite rate).  If the capped encoders alone already beat the target
distortion, the positive-alpha encoders need no rate and phi = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ArgumentError, ConvergenceError, InfeasibleDistortionError, InternalInconsistencyError
from .model import TOL_EQ, CeoInstance, R_MAX, capped_precision, d_min, exp_neg2r, precision_weight
from .polymatroid import vertex

PRECISION_TOL = 1e-12


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
            denom = inv_d - running
            if denom <= 1e-300:
                denom = 1e-300
            correction += gap / denom
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
    in the descending-alpha decoding order.  The multiplier is bisected
    until the bracket's ends are adjacent floats, or sooner once the
    bracket is narrower than 1e-16 max(1, |nu|) with the precision within
    PRECISION_TOL of the target; ConvergenceError is raised when the
    allocation at its upper end misses D by more than TOL_EQ nats,
    (1/2) |ln(precision D)|.
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

    if base < inv_d - PRECISION_TOL:
        # Residual precision must come from positive-alpha encoders: bisect
        # the multiplier against the distortion equality.
        target = inv_d - (base - 1.0 / instance.sigma_x2)

        def positive_precision(nu_val: float) -> float:
            nonlocal passes
            passes += 1
            _, running, _ = _recursion(instance, alpha, order, positive, nu_val, inv_d)
            return 1.0 / instance.sigma_x2 + running

        # The multiplier of the distortion equality may take either sign
        # (very uneven directions at loose targets need nu < 0, with the
        # leading allocations clamped at zero).
        lo, hi = -1.0, 1.0
        while positive_precision(hi) < target and hi < 1e18:
            hi *= 2.0
        if positive_precision(hi) < target:
            raise InternalInconsistencyError("multiplier bracket never reached the target")
        while positive_precision(lo) > target and lo > -1e18:
            lo *= 2.0
        p_prev = positive_precision(lo)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break  # adjacent floats: the bracket cannot move
            p_mid = positive_precision(mid)
            if p_mid >= target:
                hi = mid
            else:
                if p_mid < p_prev - 1e-9:
                    raise InternalInconsistencyError(
                        "precision decreased along the multiplier bisection"
                    )
                lo = mid
                p_prev = p_mid
            if hi - lo <= 1e-16 * max(1.0, abs(hi)) and abs(p_mid - target) <= PRECISION_TOL:
                break
        nu = hi
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

    When some alpha is zero and the capped encoders alone reach D, the
    multiplier is 0 and the answer is optimal iff no positive-alpha encoder
    spends rate, so the residual is the largest such rate.
    """
    alpha = _normalize_alpha(alpha)
    positive = sum(1 for a in alpha if a > 0.0)
    capped = result.pi_star[positive:]
    if capped and capped_precision(instance, capped) >= 1.0 / D - PRECISION_TOL:
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
