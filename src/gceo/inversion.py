"""Inverse maps: minimal distortion D*(R) and its unique allocation r*(R).

For a rate tuple R the minimal achievable distortion is

    D*(R) = min { D : R achievable at distortion D },

and there is exactly one allocation r*(R) that realizes it.  It is the
precision maximizer subject to R lying in the rate region of r, and it
always satisfies two identities: the distortion constraint is tight,

    1/sigma_x2 + sum_i (1 - exp(-2 r*_i)) / sigma_n2[i] = 1/D*(R),

and the sum rate telescopes,

    sum_i R_i = (1/2) ln(sigma_x2 / D*(R)) + sum_i r*_i.

Encoders with R_i = 0 take r*_i = 0 and drop out; capped (infinite) rates
take r*_i at the cap and fold into the prior precision.

Closed forms
------------
For one encoder over a base precision p0, r* solves the scalar sum-rate
identity (1/2) ln((p0 + w(r)) / p0) + r = R, whose root is

    r = (1/2) ln(1 + a expm1(2R) / (1 + a)),   a = sigma_n2 p0.

For two, the plane splits into three parametric branches driven by the
minimum-sum-rate allocation (``tilde_params``): a water-filling level
count L_D, the unique distortion D~ matching the sum rate, and the
allocation r~.  These are closed-form roots of the level equation, a
quadratic (two levels) or linear (one level) equation in the precision
gap 1/D_min(L_D) - 1/D~, written in exp(-sum rate) so that no sum rate
overflows.  When R_1 exceeds the unconditioned single-encoder rate at
r~_1 (region Omega_1), encoder 1 is decoded first at exactly that rate,
and encoder 2 follows as one encoder over the base precision
1/sigma_x2 + w_1(r_1); symmetrically for Omega_2; otherwise r* = r~ and R
sits strictly inside the minimum-sum-rate segment (Omega_3).  Every
branch is a closed form: no root-finder is involved.  Encoders are
ordered by noise internally (sigma_n2[0] <= sigma_n2[1]); region tags
refer to that ordering.  The one ``tilde_params`` solve that picks the
branch also gives the two omega margins (``omega_margins``), which the
two-encoder answer records as ``margins``, so that a cached answer tags
its region (``omega_tag``) with no second solve.

General solver
--------------
Every other query (three or more encoders, or ``method="bisection"``) is
solved by Fujishige's decomposition algorithm for the lexicographically
optimal base of a polymatroid (Fujishige, "Lexicographically optimal base
of a polymatroid with respect to a weight vector", Math. Oper. Res. 5,
1980).  The optimum decodes its encoders in blocks.  Within a block the
allocation water-fills, K = sigma_n2[i] exp(2 r_i) being one constant per
block, and blocks decode in decreasing K.  Given the precision p of the
blocks decoded so far, the next block is the set A of remaining encoders
with the largest K_A, where K_A solves the block's group sum-rate equation

    h_A(K) = (1/2) ln(1 + w(A)/p) + sum_{i in A} r_i = R(A),

r_i = (1/2) ln(K / sigma_n2[i]) and w_i = (1 - exp(-2 r_i)) / sigma_n2[i];
ties go to the larger set.  Its precision is added to p and the search
repeats on the rest.

K is carried in log-excess coordinates: x = (1/2) ln(K / s_top), the rate
of the noisiest remaining encoder, and r_i = x + (1/2) ln(s_top /
sigma_n2[i]), a sum of two nonnegative terms.  So r_i keeps its relative
precision even where K sits just above a tiny noise, where K itself
would pin r_i only to an ulp of K.  In x, h_A is concave (the log of a
concave function of x) and increasing, so Newton's method started below
the root rises monotonically to it, with no bracket.

No subset is enumerated.  Since h_A grows with K, K_A > K iff
g(A, K) = h_A(K) - R(A) < 0, and g(., K) is a modular function plus a
concave function of the modular w(A): its minimizers are prefixes of the
remaining encoders sorted by c_i / w_i (``polymatroid._min_threshold_set``).
Every singleton has K_i > sigma_n2[i], so the answer lies above the largest
remaining noise, x > 0.  A Dinkelbach iteration finds it from x = 0: at the
current x take the set minimizing g, move x to that set's root, and stop
when no set has g < 0; x rises strictly, so the loop ends, in practice
within a few steps.

Every answer is certified.  It must lie in the region (minimum subset slack
>= -TOL_EQ) and pass a KKT check of the same optimization written as one
jointly convex program in (r, u), u = ln(1/D):

    maximize u  subject to, for every subset A of the finite encoders,
    u/2 - (1/2) ln(p0 + w(A^c)) + sum_{i in A} r_i <= R(A),

with w_i = (1 - exp(-2 r_i)) / sigma_n2[i]; the empty set's row is the
distortion constraint.  Each row is convex in (r, u), because -ln of a
positive concave function is convex (Boyd & Vandenberghe, Convex
Optimization, ch. 4).  Multipliers sit only on the suffix unions of the
decode blocks and the distortion row, at most L + 1 rows, which must all
be active: slack at most TOL_EQ plus the rounding floor of R
(``model.rate_floor``).  On these rows stationarity has one solution up
to scale, and it is nonnegative iff the slopes exp(-2 r_i) / sigma_n2[i]
(= 1/K) agree within each block and do not decrease from one block to
the next (``_chain_kkt_residual`` derives it).  Active rows and a largest
relative slope violation of at most KKT_LIMIT prove global optimality.
Otherwise ``ConvergenceError`` is raised.  The violation is reported on
the result as ``kkt_residual``.  ``method="bisection"`` is the historical
name for forcing this solver on two encoders.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import ArgumentError, ConvergenceError
from .model import TOL_EQ, CeoInstance, R_MAX, is_cap, precision_weight, rate_floor
from .polymatroid import _min_threshold_set, _scan_min_slack

RESIDUAL_LIMIT = 1e-5
OMEGA_TOL = 1e-7
# Largest relative slope violation (``_chain_kkt_residual``) a general-
# solver answer may carry.  The exact optimum measures <= 1e-14; the wrong
# block structures of the certificate tests measure >= 1e-2.
KKT_LIMIT = 1e-10


@dataclass(frozen=True)
class InversionResult:
    r_star: tuple[float, ...]
    d_star: float
    method: str
    residuals: float
    branch: str | None = None
    kkt_residual: float | None = None  # certificate of the general solver
    # Omega margins of a two-encoder closed-form answer (``omega_margins``);
    # not part of the serialized result.
    margins: tuple[float, float] | None = None

    def to_dict(self) -> dict:
        return {
            "r_star": list(self.r_star),
            "d_star": self.d_star,
            "method": self.method,
            "residuals": self.residuals,
            "branch": self.branch,
            "kkt_residual": self.kkt_residual,
        }


class OmegaTag(str, enum.Enum):
    OMEGA1 = "OMEGA1"
    OMEGA2 = "OMEGA2"
    OMEGA3 = "OMEGA3"
    BOUNDARY_12 = "BOUNDARY_12"
    BOUNDARY_13 = "BOUNDARY_13"
    BOUNDARY_23 = "BOUNDARY_23"


@dataclass(frozen=True)
class TildeParams:
    l_d: int
    d_tilde: float
    r_tilde: tuple[float, float]


def _check_rates(instance: CeoInstance, R) -> tuple[float, ...]:
    R = tuple(float(v) for v in R)
    if len(R) != instance.L:
        raise ArgumentError(f"rate vector has length {len(R)}, expected {instance.L}")
    for v in R:
        if v < 0.0 or math.isnan(v):
            raise ArgumentError(f"rates must be >= 0, got {v}")
    return R


# ----------------------------------------------------------------------
# Reduced-problem helpers.  A reduced problem is a list of encoder noise
# variances with target rates plus a base precision p0 that absorbs the
# prior and any capped encoders.
# ----------------------------------------------------------------------


def _sum_rate_identity(sn, r, p0: float) -> float:
    """(1/2) ln(precision / p0) + sum r, the dominant-face sum rate."""
    p = p0 + sum(precision_weight(s, v) for s, v in zip(sn, r))
    return 0.5 * math.log(p / p0) + sum(r)


def _solve_l1(sn: float, rate: float, p0: float) -> float:
    """Unique r with (1/2) ln((p0 + w(r)) / p0) + r = rate, in closed form:
    exp(2r) = 1 + a expm1(2 rate) / (1 + a) with a = sn p0."""
    if rate <= 0.0:
        return 0.0
    if rate >= R_MAX:
        return R_MAX
    a = sn * p0
    return 0.5 * math.log1p(a * math.expm1(2.0 * rate) / (1.0 + a))


def _reduced_min_slack(sn, R, r, p0: float) -> float:
    """Min subset-rate slack of the reduced region (conditioned on the base)."""
    w = [precision_weight(s, v) for s, v in zip(sn, r)]
    return _scan_min_slack([a - b for a, b in zip(R, r)], [0.0] * len(w), w, p0)[0]


def _block_rate(sn, R, lift, block, p: float, x: float) -> float:
    """Root x' >= x of a block's group sum-rate equation at base precision
    p, in log-excess coordinates: member i has the rate x' + lift[i].

    h(x) = (1/2) ln(1 + w(x)/p) + sum_i (x + lift[i]) is increasing and
    concave, so each Newton step from below the root lands at most on it
    and the iterates rise monotonically; they stop where a step no longer
    rises.  Returns x itself when h(x) already reaches the target.
    """
    target = sum(R[i] for i in block)
    while True:
        rates = [x + lift[i] for i in block]
        weight = sum(precision_weight(sn[i], v) for i, v in zip(block, rates))
        gap = target - 0.5 * math.log1p(weight / p) - sum(rates)
        slope = sum(math.exp(-2.0 * v) / sn[i] for i, v in zip(block, rates))
        step = gap / (len(block) + slope / (p + weight))  # gap / h'(x)
        if not x + step > x:
            return x
        x += step


# ----------------------------------------------------------------------
# General solver: Fujishige's decomposition, certified by KKT multipliers
# on the decode chain.
# ----------------------------------------------------------------------


def _top_block(sn, R, members, p: float):
    """(block, rates): the set of ``members`` with the largest water-filling
    constant K_A at base precision p, ties to the larger set, and the rates
    of its members.

    The level is x = (1/2) ln(K / s_top), s_top the largest noise among
    ``members``; at level x member i has the rate x + lift_i, lift_i =
    (1/2) ln(s_top / sigma_n2[i]).  Dinkelbach iteration from x = 0, where
    the noisiest member has weight 0: while the set minimizing g(., x) has
    g < 0, its root exceeds x and becomes the next x.  Values of g within
    the rounding floor of the members' rates (``model.rate_floor``) of the
    minimum count as ties; a step that cannot raise x ends the search.
    """
    tie = rate_floor([R[i] for i in members])
    top = max(sn[i] for i in members)
    lift = {i: 0.5 * math.log(top / sn[i]) for i in members}
    x, block = 0.0, None
    while True:
        rates = [x + lift[i] for i in members]
        low, prefix = _min_threshold_set(
            [v - R[i] for i, v in zip(members, rates)],
            [precision_weight(sn[i], v) for i, v in zip(members, rates)],
            p,
            tie,
        )
        found = [members[k] for k in prefix] or block
        if low >= -tie:
            break
        x_next = _block_rate(sn, R, lift, found, p, x)
        if not x_next > x:
            break  # x is the top level to an ulp; ``found`` ties with ``block``
        x, block = x_next, found
    if found != block:  # the first step's set, or a tie merged into the block
        x = _block_rate(sn, R, lift, found, p, 0.0)
    return found, [x + lift[i] for i in found]


def _chain_kkt_residual(sn, R, r, blocks, p0: float) -> float:
    """Largest relative violation of the KKT conditions at (r, ln precision)
    on the decode chain: the suffix unions of ``blocks`` (listed in decode
    order) and the empty set's distortion row.

    Row A has the slack c_A = R(A) - u/2 + (1/2) ln(p0 + w(A^c)) - r(A).
    Stationarity asks for lambda >= 0 with sum_A lambda_A (-grad c_A) =
    grad u in (r, u); zero multipliers on every other row complete a full
    KKT certificate.  Let rows m = 0..B have decoded the first m of the B
    blocks, with precision P_m = p0 + w(first m blocks), and let q_i =
    exp(-2 r_i) / sigma_n2[i] = (1/2) dw_i / dr_i.  The u-component reads
    sum_m lambda_m = 2, and the r_i-component of a member of block k is

        sum_{m<k} lambda_m = q_i T_k,   T_k = sum_{m>=k} lambda_m / P_m.

    So the members of a block share one slope sigma_k (= 1/K), or no
    multipliers exist.  Then the rows give B + 1 equations in the B + 1
    multipliers.  Subtracting the equations of blocks k and k + 1 gives

        lambda_k (1 + sigma_k / P_k) = (sigma_{k+1} - sigma_k) T_{k+1},

    and block 1's equation gives lambda_0 = sigma_1 T_1.  So one backward
    pass from lambda_B = 1 fixes every multiplier up to scale, T_k stays
    positive while the multipliers do, and they are all nonnegative iff
    the slopes do not decrease from one block to the next.  The returned
    residual is the larger of the worst within-block slope spread and the
    worst drop between adjacent blocks, each relative to the larger slope.

    Complementary slackness needs every chain row active: a row with
    slack above TOL_EQ plus the rounding floor of R (``model.rate_floor``)
    raises ConvergenceError.  The distortion row (every block decoded) is
    tight by construction.  The bounds r_i in [0, R_i] never bind at a
    block solution with positive rates, so they take no multiplier.
    """
    w = [precision_weight(s, v) for s, v in zip(sn, r)]
    p_all = p0 + sum(w)
    active = TOL_EQ + rate_floor(R)
    decoded = set()  # A^c: the blocks decoded before the row's set A
    residual, prev = 0.0, 0.0
    for block in blocks:
        p_out = p0 + sum(w[i] for i in decoded)
        slack = sum(R[i] - r[i] for i in range(len(sn)) if i not in decoded) - 0.5 * math.log(p_all / p_out)
        if slack > active:
            raise ConvergenceError(
                f"decomposition fails its KKT certificate: a decode-chain row is slack ({slack:.3e})"
            )
        decoded.update(block)
        slopes = [math.exp(-2.0 * r[i]) / sn[i] for i in block]
        residual = max(residual, 1.0 - min(slopes) / max(max(slopes), prev))
        prev = max(slopes)
    return residual


def _decompose(sn, R, p0: float):
    """(r, KKT residual) for a reduced problem with two or more positive rates."""
    r = [0.0] * len(sn)
    blocks = []
    members = list(range(len(sn)))
    p = p0
    while members:
        block, rates = _top_block(sn, R, members, p)
        for i, v in zip(block, rates):
            r[i] = v
        p += sum(precision_weight(sn[i], r[i]) for i in block)
        blocks.append(block)
        members = [i for i in members if i not in block]
    slack = _reduced_min_slack(sn, R, r, p0)
    if slack < -TOL_EQ:
        raise ConvergenceError(f"decomposition leaves the rate region (slack {slack:.3e})")
    residual = _chain_kkt_residual(sn, R, r, blocks, p0)
    if not residual <= KKT_LIMIT:
        raise ConvergenceError(
            f"decomposition fails its KKT certificate (residual {residual:.3e} > {KKT_LIMIT:.0e})"
        )
    return r, residual


def _assemble(
    instance: CeoInstance, R, finite, r_finite, method: str, branch=None, kkt_residual=None, margins=None
):
    L = instance.L
    r = [0.0] * L
    for i in range(L):
        if is_cap(R[i]):
            r[i] = R_MAX
    for pos, i in enumerate(finite):
        r[i] = r_finite[pos]
    d = 1.0 / (1.0 / instance.sigma_x2 + sum(precision_weight(s, v) for s, v in zip(instance.sigma_n2, r)))
    finite_sn = [instance.sigma_n2[i] for i in finite]
    finite_R = [R[i] for i in finite]
    p0 = 1.0 / instance.sigma_x2 + sum(
        1.0 / instance.sigma_n2[i] for i in range(L) if is_cap(R[i])
    )
    # Sum-rate identity over the finite coordinates (capped encoders cancel
    # from both sides; their precision sits in the base p0).
    gap = abs(sum(finite_R) - _sum_rate_identity(finite_sn, r_finite, p0))
    slack = _reduced_min_slack(finite_sn, finite_R, r_finite, p0) if finite else 0.0
    residuals = max(gap, -slack)
    result = InversionResult(
        r_star=tuple(r),
        d_star=d,
        method=method,
        residuals=residuals,
        branch=branch,
        kkt_residual=kkt_residual,
        margins=margins,
    )
    if residuals > RESIDUAL_LIMIT:
        raise ConvergenceError(
            f"inversion residual {residuals:.3e} exceeds {RESIDUAL_LIMIT:.0e} "
            f"(sum-rate gap {gap:.3e}, worst membership slack {slack:.3e})"
        )
    return result


def _split_rates(instance: CeoInstance, R):
    # Rates up to TOL_EQ nats are treated as zero; the sum-rate identity
    # then holds to well within the residual contract.
    finite = [i for i in range(instance.L) if TOL_EQ < R[i] < R_MAX]
    p0 = 1.0 / instance.sigma_x2 + sum(
        1.0 / instance.sigma_n2[i] for i in range(instance.L) if is_cap(R[i])
    )
    return finite, p0


# ----------------------------------------------------------------------
# Two-encoder closed forms.
# ----------------------------------------------------------------------


def _sorted_order(instance: CeoInstance) -> tuple[int, int]:
    if instance.sigma_n2[0] <= instance.sigma_n2[1]:
        return (0, 1)
    return (1, 0)


def tilde_params(instance: CeoInstance, sum_rate: float) -> TildeParams:
    """Minimum-sum-rate allocation for a two-encoder instance.

    With k water-filling levels and the gap g = 1/D_min(k) - 1/D~, the
    level equation (1/2) ln(sigma_x2 / D~) + sum_{i <= k} r~_i = sum_rate,
    r~_i = (1/2) ln(k / (sigma_n2[i] g)), is a polynomial in g with one
    positive root.  Written in t = exp(-sum_rate), so that nothing
    overflows at high rates:

        two levels:  g = 2 P2 t / (t + sqrt(t^2 + sn1 sn2 P2 / sx2)),
        one level:   g = sx2 P1 t^2 / (sx2 t^2 + sn1),

    with Pk = 1/D_min(k).  Both encoders are active iff the two-level
    solution has 1/D~ >= 1/D_c (up to 1e-12 relative), the precision at
    which the noisier encoder starts to describe.  Rates follow the cap
    convention of ``model``: r~ is clamped at R_MAX, and an infinite sum
    rate gives D~ = D_min(k).  The allocation r~ is returned in the
    noise-sorted encoder order.
    """
    if instance.L != 2:
        raise ArgumentError("tilde parameters are defined for two encoders")
    if sum_rate < 0.0 or math.isnan(sum_rate):
        raise ArgumentError(f"sum rate must be >= 0, got {sum_rate}")
    a, b = _sorted_order(instance)
    sn1, sn2 = instance.sigma_n2[a], instance.sigma_n2[b]
    sx2 = instance.sigma_x2
    if sum_rate == 0.0:
        return TildeParams(l_d=1, d_tilde=sx2, r_tilde=(0.0, 0.0))

    t = math.exp(-sum_rate)
    p1 = 1.0 / sx2 + 1.0 / sn1
    p2 = p1 + 1.0 / sn2
    inv_dc = p1 - 1.0 / sn2
    l_d, p_max = 2, p2
    gap = 2.0 * p2 * t / (t + math.sqrt(t * t + sn1 * sn2 * p2 / sx2))
    if p2 - gap < inv_dc * (1.0 - 1e-12):
        l_d, p_max = 1, p1
        gap = sx2 * p1 * t * t / (sx2 * t * t + sn1)

    def level_rate(sn):
        if gap == 0.0:
            return R_MAX
        return min(max(0.5 * math.log(l_d / (sn * gap)), 0.0), R_MAX)

    r2 = 0.0 if l_d == 1 else level_rate(sn2)
    return TildeParams(l_d=l_d, d_tilde=1.0 / (p_max - gap), r_tilde=(level_rate(sn1), r2))


def _axis_rate(sx2: float, sn: float, rho: float) -> float:
    """Unconditioned single-encoder rate at allocation rho (decode-first rate)."""
    return 0.5 * math.log(sx2 * (1.0 / sx2 + precision_weight(sn, rho))) + rho


def _thresholds(instance: CeoInstance, R):
    """(r~, (threshold_a, threshold_b)) of a validated rate pair from one
    ``tilde_params`` solve: the minimum-sum-rate allocation of its sum rate
    and the unconditioned single-encoder rates at r~, in the noise-sorted
    order.  The omega margins are R_a - threshold_a and R_b - threshold_b."""
    a, b = _sorted_order(instance)
    sx2 = instance.sigma_x2
    tp = tilde_params(instance, R[a] + R[b])
    th1 = _axis_rate(sx2, instance.sigma_n2[a], tp.r_tilde[0])
    th2 = _axis_rate(sx2, instance.sigma_n2[b], tp.r_tilde[1])
    return tp.r_tilde, (th1, th2)


def r_star_l2(instance: CeoInstance, R) -> InversionResult:
    """Closed-form inverse allocation for two encoders; the result carries
    the omega margins of R."""
    if instance.L != 2:
        raise ArgumentError("r_star_l2 requires exactly two encoders")
    R = _check_rates(instance, R)
    a, b = _sorted_order(instance)
    R1, R2 = R[a], R[b]
    r_tilde, (th1, th2) = _thresholds(instance, R)
    margins = (R1 - th1, R2 - th2)
    finite, p0 = _split_rates(instance, R)
    if len(finite) < 2:
        r_finite = [
            _solve_l1(instance.sigma_n2[i], R[i], p0) for i in finite
        ]
        return _assemble(instance, R, finite, r_finite, "closed_form_l2", branch="reduced", margins=margins)

    p_prior = 1.0 / instance.sigma_x2
    sn1, sn2 = instance.sigma_n2[a], instance.sigma_n2[b]
    # In Omega_1 (Omega_2) the pinned encoder is decoded first, alone; its
    # partner is then one encoder over the prior plus the pinned weight.
    if R1 >= th1 - 1e-13:
        branch = "omega1"
        r1 = _solve_l1(sn1, R1, p_prior)
        r2 = _solve_l1(sn2, R2, p_prior + precision_weight(sn1, r1))
    elif R2 >= th2 - 1e-13:
        branch = "omega2"
        r2 = _solve_l1(sn2, R2, p_prior)
        r1 = _solve_l1(sn1, R1, p_prior + precision_weight(sn2, r2))
    else:
        branch = "omega3"
        r1, r2 = r_tilde
    r = [0.0, 0.0]
    r[a], r[b] = r1, r2
    return _assemble(instance, R, [0, 1], r, "closed_form_l2", branch=branch, margins=margins)


def omega_margins(instance: CeoInstance, R) -> tuple[float, float]:
    """Signed distances of a rate pair to the two branch thresholds.

    Returns (R_a - threshold_a, R_b - threshold_b) in the noise-sorted
    encoder order; at most one can be positive.
    """
    if instance.L != 2:
        raise ArgumentError("omega classification requires exactly two encoders")
    R = _check_rates(instance, R)
    a, b = _sorted_order(instance)
    _, (th1, th2) = _thresholds(instance, R)
    return R[a] - th1, R[b] - th2


def omega_tag(margins, R, tol: float = OMEGA_TOL) -> OmegaTag:
    """Region tag of the rate pair R with omega margins ``margins``
    (``omega_margins``, or the ``margins`` of its two-encoder r* answer);
    within ``tol`` plus the rounding floor of R (``model.rate_floor``) of
    a threshold the separating BOUNDARY tag."""
    t1, t2 = margins
    band = tol + rate_floor(R)
    near1, near2 = abs(t1) <= band, abs(t2) <= band
    if near1 and near2:
        return OmegaTag.BOUNDARY_12
    if near1:
        return OmegaTag.BOUNDARY_13
    if near2:
        return OmegaTag.BOUNDARY_23
    if t1 > 0.0:
        return OmegaTag.OMEGA1
    if t2 > 0.0:
        return OmegaTag.OMEGA2
    return OmegaTag.OMEGA3


def classify_omega(instance: CeoInstance, R, tol: float = OMEGA_TOL) -> OmegaTag:
    """Region of the two-encoder rate plane that determines the r* branch.

    Tags refer to the noise-sorted encoder order: OMEGA1 pins the less
    noisy encoder's rate, OMEGA2 the noisier one's, OMEGA3 the minimum-
    sum-rate segment.  Within ``tol`` plus the rounding floor of R of a
    threshold the separating BOUNDARY tag is returned.
    """
    return omega_tag(omega_margins(instance, R), R, tol)


# ----------------------------------------------------------------------
# Public entry points.
# ----------------------------------------------------------------------


# Answers the r* LRU holds; refinement keeps as many grid-table nodes.
_R_STAR_CACHE_SIZE = 65536


@lru_cache(maxsize=_R_STAR_CACHE_SIZE)
def _r_star_cached(instance: CeoInstance, R: tuple, method: str) -> InversionResult:
    if method == "auto" and instance.L == 2:
        return r_star_l2(instance, R)
    finite, p0 = _split_rates(instance, R)
    if len(finite) <= 1:
        r_finite = [_solve_l1(instance.sigma_n2[i], R[i], p0) for i in finite]
        branch = None if instance.L == 1 else "reduced"
        return _assemble(instance, R, finite, r_finite, "closed_form_l1", branch=branch)
    sn = [instance.sigma_n2[i] for i in finite]
    rates = [R[i] for i in finite]
    r_finite, kkt = _decompose(sn, rates, p0)
    return _assemble(instance, R, finite, r_finite, "decomposition", kkt_residual=kkt)


def r_star(instance: CeoInstance, R, method: str = "auto") -> InversionResult:
    """Unique allocation achieving the minimal distortion of a rate tuple.

    ``method`` is "auto" (closed forms for one or two encoders, the
    decomposition otherwise) or "bisection", the historical name for
    forcing the decomposition.  Reduced problems with at most one finite
    positive rate are always solved in closed form.

    r* is the exact-arithmetic optimum, built from the decode blocks and
    their group sum rates, not picked by comparing distortions.  That
    matters at high rates: r_i moves D* through exp(-2 r_i) only, by less
    than any tolerance past a few nats and by less than the float
    resolution of 1/D past ~18 nats, so many allocations share the
    floating-point D*; r* is the one the block structure singles out (the
    lexicographically optimal base; see the module docstring).
    """
    if method not in ("auto", "bisection"):
        raise ArgumentError(f"unknown method {method!r}")
    R = _check_rates(instance, R)
    return _r_star_cached(instance, R, method)


def d_star(instance: CeoInstance, R, method: str = "auto") -> float:
    """Minimal distortion at which the rate tuple is achievable."""
    return r_star(instance, R, method=method).d_star


def uniqueness_probe(instance: CeoInstance, R, result: InversionResult, delta: float = 1e-3) -> bool:
    """Confirm optimality of r* under single-coordinate perturbations.

    Each coordinate is nudged by +-delta and re-projected onto the
    sum-rate identity through another coordinate; every such neighbor must
    either lose precision or leave the rate region.
    """
    R = _check_rates(instance, R)
    finite, p0 = _split_rates(instance, R)
    if len(finite) < 2:
        return True
    sn = [instance.sigma_n2[i] for i in finite]
    rates = [R[i] for i in finite]
    base_r = [result.r_star[i] for i in finite]
    base_p = p0 + sum(precision_weight(s, v) for s, v in zip(sn, base_r))
    target = sum(rates)
    for i in range(len(finite)):
        for sign in (+1.0, -1.0):
            cand = list(base_r)
            cand[i] = base_r[i] + sign * delta
            if cand[i] < 0.0:
                continue
            projected = None
            for j in range(len(finite)):
                if j == i:
                    continue
                # With every coordinate but j fixed, the sum-rate identity
                # is j's one-encoder identity over the others' precision.
                base = p0 + sum(precision_weight(s, v) for k, (s, v) in enumerate(zip(sn, cand)) if k != j)
                rate = target - 0.5 * math.log(base / p0) - sum(v for k, v in enumerate(cand) if k != j)
                if rate < 0.0:
                    continue
                projected = list(cand)
                projected[j] = _solve_l1(sn[j], rate, base)
                break
            if projected is None:
                continue  # no re-projection exists: perturbation leaves the manifold
            p = p0 + sum(precision_weight(s, v) for s, v in zip(sn, projected))
            drops = p < base_p - 1e-12
            escapes = _reduced_min_slack(sn, rates, projected, p0) < -1e-12
            if not (drops or escapes):
                return False
    return True
