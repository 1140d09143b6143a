"""Inverse maps: minimal distortion D*(R) and its unique allocation r*(R).

For a rate tuple R the minimal achievable distortion is

    D*(R) = min { D : R achievable at distortion D },

and there is exactly one allocation r*(R) that realizes it.  It is the
precision maximizer subject to R lying in the rate region of r, and it
always satisfies two identities: the distortion constraint is tight,

    1/sigma_x2 + sum_i (1 - exp(-2 r*_i)) / sigma_n2[i] = 1/D*(R),

and the sum rate telescopes,

    sum_i R_i = (1/2) ln(sigma_x2 / D*(R)) + sum_i r*_i,

the joint rate of all descriptions (``model.joint_rate`` over the prior
precision 1/sigma_x2).

Encoders with R_i = 0 take r*_i = 0 and drop out; capped (infinite) rates
take r*_i at the cap and fold into the prior precision.

Closed forms
------------
For one encoder over a base precision p0, r* solves the scalar sum-rate
identity (1/2) ln((p0 + w(r)) / p0) + r = R, the one description's
``joint_rate``, whose root (``_solve_l1``) is

    r = (1/2) ln(1 + a expm1(2R) / (1 + a)),   a = sigma_n2 p0.

For two, the plane splits into three parametric branches driven by the
minimum-sum-rate allocation (``tilde_params``): a water-filling level
count L_D, the unique distortion D~ matching the sum rate, and the
allocation r~.  It is reverse water-filling: an encoder describes iff
the water level is above its noise, so both describe iff the noisier
encoder's two-level rate is nonnegative.  With two levels r~ is the root
of the pair's quadratic in the precision gap 1/D_min(2) - 1/D~, written
in exp(-sum rate) so that no sum rate overflows; with one level r~_1 is
``_solve_l1`` of the less noisy encoder at the sum rate.  When R_1
exceeds the unconditioned single-encoder rate at r~_1 (region Omega_1),
encoder 1 is decoded first at exactly that rate, and encoder 2 follows
as one encoder over the base precision 1/sigma_x2 + w_1(r_1), both by
``_solve_l1``; symmetrically for Omega_2; otherwise r* = r~ and R sits
strictly inside the minimum-sum-rate segment (Omega_3).  Every branch is
a closed form: no root-finder is involved.  Encoders are ordered by
noise internally (sigma_n2[0] <= sigma_n2[1]); region tags refer to that
ordering.  The one ``tilde_params`` solve that picks the branch also
gives the two omega thresholds (``_thresholds``), which depend on R only
through its sum rate.  A capped coordinate (>= R_MAX) counts as
infinite there, as under the cap convention everywhere: the sum rate is
then inf and that coordinate's margin inf (``_threshold_sum``,
``_margins``), so every spelling of a capped pair takes one tag.  The
margins of R to the thresholds are what ``omega_margins`` returns and
what ``omega_tag`` reads.  A reachability grid solves the thresholds once per distinct sum
rate, and from them each node's answer (``_solve_l2``) and its tag, with
no second solve; an answer itself carries no margins.

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
repeats on the rest.  An encoder left alone is the last block, and its
rate is the one-encoder closed form over p.

K is carried in log-excess coordinates: x = (1/2) ln(K / s_top), the rate
of the noisiest remaining encoder, and r_i = x + lift_i, lift_i = (1/2)
ln(s_top / sigma_n2[i]), a sum of two nonnegative terms.  So r_i keeps its
relative precision even where K sits just above a tiny noise, where K
itself would pin r_i only to an ulp of K.  In x, h_A is concave (the log
of a concave function of x) and increasing, so Newton's method started
below the root rises monotonically to it, with no bracket.  The weight
splits as w_i = a_i + b_i m with m = 1 - exp(-2x) and constants a_i, b_i
built once per block search from the float lift_i, so a block enters a
Newton step through a few sums and each step costs one ``expm1`` and one
``log1p`` whatever the block's size.

No subset is enumerated.  Since h_A grows with K, K_A > K iff
g(A, K) = h_A(K) - R(A) < 0, and g(., K) is a modular function plus a
concave function of the modular w(A): its minimizers are prefixes of the
remaining encoders sorted by c_i / w_i, one pass over which gives g of
every prefix (``polymatroid._prefix_values``, shared with the scheduler's
face step).
Every singleton has K_i > sigma_n2[i], so the answer lies above the largest
remaining noise, x > 0.  A Dinkelbach iteration finds it from any level at
or below it: at the current x take the set minimizing g, move x to that
set's root, and stop when no set has g < 0; x rises strictly, so the loop
ends.  It starts at the best singleton.  Each member alone meets its rate
at a level given in closed form (``_solve_l1`` less its lift), and the top
block's K is the largest over all sets, so the largest of these levels is
a start from below.  Most blocks are that singleton, and one confirming
scan then decides the block with no Newton step.  A query of three to five
encoders takes ~4 Newton steps and threshold scans in all
(``InversionResult.iterations``).

Every decomposition answer carries a KKT certificate of the same
optimization written as one jointly convex program in (r, u), u = ln(1/D):

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
the result as ``kkt_residual``.  ``method="bisection"`` forces this solver
at any L; it is the cross-check of the closed forms.

Acceptance
----------
Every answer, closed form or decomposition, passes one rule before it is
returned (``_assemble``): R lies in the region of r* (minimum membership
slack >= -TOL_EQ), and the sum-rate identity over the finite rates holds
within TOL_EQ plus their rounding floor (``model.rate_floor``).  A NaN
fails both.  Otherwise ``ConvergenceError`` is raised.  The result reports
the larger of the sum-rate gap and the membership shortfall as
``residuals``.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from functools import lru_cache

from .errors import ArgumentError, ConvergenceError
from .model import (
    OMEGA_TOL, RATE_FLOOR, TOL_EQ, CeoInstance, R_MAX, _check_allocation, capped_precision,
    is_cap, joint_rate, precision_weight, rate_floor,
)
from .polymatroid import _prefix_values, _reduced_min_slack

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
    # Newton steps plus threshold scans of a decomposition answer, None for
    # a closed form; not part of the serialized result.
    iterations: int | None = None

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


# ----------------------------------------------------------------------
# Reduced-problem helpers.  A reduced problem is a list of encoder noise
# variances with target rates plus a base precision p0 that absorbs the
# prior and any capped encoders.
# ----------------------------------------------------------------------


def _solve_l1(sn: float, rate: float, p0: float) -> float:
    """Unique r with ``joint_rate((sn,), (r,), p0)`` = rate, in closed form:
    exp(2r) = 1 + a expm1(2 rate) / (1 + a) with a = sn p0.  Where a is
    subnormal or 0, the product is formed as sn expm1(2 rate) p0 instead;
    p0 >= 1/sigma_x2 > 5.6e-309 then bounds sn by ~4, so sn expm1(2 rate)
    cannot overflow.  Where a overflows, a / (1 + a) is 1 and r = rate."""
    if rate <= 0.0:
        return 0.0
    if rate >= R_MAX:
        return R_MAX
    a = sn * p0
    if a == math.inf:
        return rate
    if a < sys.float_info.min:
        return 0.5 * math.log1p(sn * math.expm1(2.0 * rate) * p0)
    return 0.5 * math.log1p(a * math.expm1(2.0 * rate) / (1.0 + a))


def _block_rate(block, R, lift, a, b, p: float, x: float):
    """(x', steps): the root x' >= x of a block's group sum-rate equation
    at base precision p, in log-excess coordinates, and the Newton steps
    taken to reach it.

    ``block`` holds positions into the per-member lists of ``_top_block``:
    target rates R, lifts and weight constants a and b.  At level x member
    k has the rate x + lift_k and the weight a_k + b_k m, m = -expm1(-2x),
    so with sums over the block and n its size,

        h(x) = (1/2) log1p((a + b m) / p) + n x + sum lift,
        h'(x) = n + b (1 - m) / (p + a + b m),

    one ``expm1`` and one ``log1p`` per step, whatever the block's size.
    h is increasing and concave, so each Newton step from below the root
    lands at most on it and the iterates rise monotonically; they stop
    where a step no longer rises.  Returns x itself when h(x) already
    reaches the target.
    """
    count = len(block)
    target = sum(R[k] for k in block)
    lifted = sum(lift[k] for k in block)
    a_sum = sum(a[k] for k in block)
    b_sum = sum(b[k] for k in block)
    steps = 0
    while True:
        steps += 1
        m = -math.expm1(-2.0 * x)
        weight = a_sum + b_sum * m
        gap = target - 0.5 * math.log1p(weight / p) - (count * x + lifted)
        step = gap / (count + b_sum * (1.0 - m) / (p + weight))  # gap / h'(x)
        if not x + step > x:
            return x, steps
        x += step


# ----------------------------------------------------------------------
# General solver: Fujishige's decomposition, certified by KKT multipliers
# on the decode chain.
# ----------------------------------------------------------------------


def _top_block(sn, R, members, p: float):
    """(block, rates, iterations): the set of ``members`` with the largest
    water-filling constant K_A at base precision p, ties to the larger set,
    the rates of its members, and the Newton steps plus threshold scans
    spent on it.

    The level is x = (1/2) ln(K / s_top), s_top the largest noise among
    ``members``; at level x member i has the rate x + lift_i, lift_i =
    (1/2) ln(s_top / sigma_n2[i]), and the weight

        w_i(x) = a_i + b_i m,   a_i = -expm1(-2 lift_i) / sigma_n2[i],
                                b_i = exp(-2 lift_i) / sigma_n2[i],
                                m = -expm1(-2x),

    a sum of two nonnegative terms, so it does not cancel.  The constants
    are built once here from the float lift_i, so every weight is the
    weight of the rate x + lift_i that is returned.

    Dinkelbach iteration from the best singleton.  Member k alone meets
    its rate at the level x_k = ``_solve_l1`` - lift_k (one ``expm1`` and
    one ``log1p``).  K of the top block is the largest over all sets, so
    the top level is at least max x_k, and the search starts there with
    that singleton as the block.  While the set minimizing g(., x) has
    g < 0, its root (``_block_rate``) exceeds x and becomes the next x.
    Each scan costs one ``expm1`` for m and the scan's own logarithms.
    The set taken is the longest prefix of ``_prefix_values`` whose g is
    within the rounding floor of the members' rates (``model.rate_floor``)
    of the minimum; a step that cannot raise x ends the search.  When the
    top block is the starting singleton, one scan confirms it and no
    Newton step runs.
    """
    rates = [R[i] for i in members]
    tie = rate_floor(rates)
    top = max(sn[i] for i in members)
    # A ratio past the float range is a difference of logarithms.
    lift = [
        0.5 * math.log(q) if (q := top / sn[i]) < math.inf else 0.5 * (math.log(top) - math.log(sn[i]))
        for i in members
    ]
    a = [-math.expm1(-2.0 * v) / sn[i] for i, v in zip(members, lift)]
    b = [math.exp(-2.0 * v) / sn[i] for i, v in zip(members, lift)]
    levels = [_solve_l1(sn[i], u, p) - v for i, u, v in zip(members, rates, lift)]
    x = max(levels)
    block, iterations = [levels.index(x)], 0
    while True:
        m = -math.expm1(-2.0 * x)
        order, values = _prefix_values(
            [x + v - u for v, u in zip(lift, rates)],
            [u + v * m for u, v in zip(a, b)],
            range(len(members)),
            p,
        )
        low = min(values)
        prefix = order[: max(k for k, v in enumerate(values) if v <= low + tie)]
        iterations += 1
        found = prefix or block
        if low >= -tie:
            break
        x_next, steps = _block_rate(found, rates, lift, a, b, p, x)
        iterations += steps
        if not x_next > x:
            break  # x is the top level to an ulp; ``found`` ties with ``block``
        x, block = x_next, found
    if found != block:  # a tie merged into the block
        x, steps = _block_rate(found, rates, lift, a, b, p, 0.0)
        iterations += steps
    return [members[k] for k in found], [x + lift[k] for k in found], iterations


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
    Where every slope compared underflows to 0, their logs -2 r_i -
    ln sigma_n2[i] are compared instead.

    Complementary slackness needs every chain row active: a row with
    slack above TOL_EQ plus the rounding floor of R (``model.rate_floor``)
    raises ConvergenceError.  The distortion row (every block decoded) is
    tight by construction.  The bounds r_i in [0, R_i] never bind at a
    block solution with positive rates, so they take no multiplier.
    """
    w = [precision_weight(s, v) for s, v in zip(sn, r)]
    p_all = p0 + sum(w)
    active = TOL_EQ + rate_floor(R)
    # Running sums over the row's set A (the blocks not yet decoded) and
    # its complement: p_out = p0 + w(A^c) and excess = R(A) - r(A).
    p_out = p0
    excess = sum(v - u for v, u in zip(R, r))
    residual, prev, last = 0.0, 0.0, []
    for block in blocks:
        slack = excess - 0.5 * math.log(p_all / p_out)
        if slack > active:
            raise ConvergenceError(
                f"decomposition fails its KKT certificate: a decode-chain row is slack ({slack:.3e})"
            )
        p_out += sum(w[i] for i in block)
        excess -= sum(R[i] - r[i] for i in block)
        slopes = [math.exp(-2.0 * r[i]) / sn[i] for i in block]
        top = max(max(slopes), prev)
        if top > 0.0:
            residual = max(residual, 1.0 - min(slopes) / top)
        else:  # this block's and the previous block's slopes all underflow: compare their logs
            logs = [-2.0 * r[i] - math.log(sn[i]) for i in block]
            top = max(logs + [-2.0 * r[i] - math.log(sn[i]) for i in last])
            residual = max(residual, -math.expm1(min(logs) - top))
        prev, last = max(slopes), block
    return residual


def _decompose(sn, R, p0: float):
    """(r, blocks, iterations) for a reduced problem with two or more
    positive rates: the allocation, its decode blocks in decode order, and
    the Newton steps and threshold scans of every ``_top_block``.  An
    encoder left alone is its own last block, solved in closed form
    (``_solve_l1``)."""
    r = [0.0] * len(sn)
    blocks = []
    members = list(range(len(sn)))
    p = p0
    iterations = 0
    while len(members) > 1:
        block, rates, spent = _top_block(sn, R, members, p)
        iterations += spent
        for i, v in zip(block, rates):
            r[i] = v
        p += sum(precision_weight(sn[i], r[i]) for i in block)
        blocks.append(block)
        members = [i for i in members if i not in block]
    if members:
        (last,) = members
        r[last] = _solve_l1(sn[last], R[last], p)
        blocks.append(members)
    return r, blocks, iterations


def _assemble(instance: CeoInstance, R, finite, r_finite, p0: float, method: str, blocks=None, **fields):
    """The ``InversionResult`` of the finite coordinates' allocation
    ``r_finite`` over the base precision p0 (``_split_rates``), once it
    meets the acceptance rule of every method: R lies in the region of the
    allocation (minimum membership slack >= -TOL_EQ) and the sum-rate
    identity over the finite rates holds within TOL_EQ plus their rounding
    floor (``model.rate_floor``).  A NaN fails both; a miss raises
    ``ConvergenceError``.  A decomposition answer, which passes its decode
    ``blocks``, must then also pass its KKT certificate
    (``_chain_kkt_residual``).  ``fields`` are the result's optional
    fields."""
    sn = instance.sigma_n2
    if len(finite) == len(sn):
        finite_sn, finite_R, r = sn, R, r_finite
    else:
        finite_sn, finite_R = [sn[i] for i in finite], [R[i] for i in finite]
        r = [R_MAX if is_cap(v) else 0.0 for v in R]
        for pos, i in enumerate(finite):
            r[i] = r_finite[pos]
    # Sum-rate identity over the finite coordinates (capped encoders cancel
    # from both sides; their precision sits in the base p0).
    gap = abs(sum(finite_R) - joint_rate(finite_sn, r_finite, p0))
    slack = _reduced_min_slack(finite_sn, finite_R, r_finite, p0) if finite else 0.0
    if not (slack >= -TOL_EQ and gap <= TOL_EQ + rate_floor(finite_R)):
        raise ConvergenceError(
            f"{method} answer fails the acceptance rule "
            f"(sum-rate gap {gap:.3e}, worst membership slack {slack:.3e})"
        )
    if blocks is not None:
        kkt = fields["kkt_residual"] = _chain_kkt_residual(finite_sn, finite_R, r_finite, blocks, p0)
        if not kkt <= KKT_LIMIT:
            raise ConvergenceError(f"decomposition fails its KKT certificate (residual {kkt:.3e} > {KKT_LIMIT:.0e})")
    d = 1.0 / (1.0 / instance.sigma_x2 + sum(map(precision_weight, sn, r)))
    return InversionResult(r_star=tuple(r), d_star=d, method=method, residuals=max(gap, -slack), **fields)


def _split_rates(instance: CeoInstance, R):
    # Rates up to TOL_EQ nats are treated as zero: each moves the sum-rate
    # identity by at most TOL_EQ.
    finite, capped = [], []
    for i, v in enumerate(R):
        if is_cap(v):
            capped.append(i)
        elif v > TOL_EQ:
            finite.append(i)
    return finite, capped_precision(instance, capped)


# ----------------------------------------------------------------------
# Two-encoder closed forms.
# ----------------------------------------------------------------------


def _sorted_order(instance: CeoInstance) -> tuple[int, int]:
    if instance.sigma_n2[0] <= instance.sigma_n2[1]:
        return (0, 1)
    return (1, 0)


def tilde_params(instance: CeoInstance, sum_rate: float) -> TildeParams:
    """Minimum-sum-rate allocation for a two-encoder instance.

    With two water-filling levels and the gap g = 1/D_min(2) - 1/D~, the
    level equation (1/2) ln(sigma_x2 / D~) + r~_1 + r~_2 = sum_rate,
    r~_i = (1/2) ln(2 / (sigma_n2[i] g)), is a quadratic in g with one
    positive root.  Written in t = exp(-sum_rate), so that nothing
    overflows at high rates,

        g = 2 P2 t / (t + sqrt(t^2 + sn1 sn2 P2 / sx2)),   P2 = 1/D_min(2).

    With one level only the less noisy encoder describes, and r~_1 is the
    one-encoder root at the sum rate over the prior, ``_solve_l1(sn1,
    sum_rate, 1/sx2)``.  This is reverse water-filling: an encoder
    describes iff the water level is above its noise, so both are active
    iff the noisier encoder's two-level rate is nonnegative, sn2 g <= 2,
    and then neither two-level rate is negative.  D~ is 1 / (1/sx2 + the
    precision weights of r~), which, unlike P2 - g, does not cancel.
    Rates follow the cap convention of ``model``: r~ is clamped at R_MAX,
    a one-level sum rate at or beyond R_MAX counts as infinite (as in
    ``_solve_l1``), and an infinite sum rate gives D~ = D_min(k).  The
    allocation r~ is returned in the noise-sorted encoder order.
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
    p2 = 1.0 / sx2 + 1.0 / sn1 + 1.0 / sn2
    # g = 0 once t underflows (a sum rate past ~745 nats, or infinite),
    # also where sn1 sn2 P2 / sx2 underflows too and the quotient reads 0/0.
    # Where that product overflows, t^2 is lost beside it and its root is a
    # product of roots.
    q = sn1 * sn2 * p2 / sx2
    root = math.sqrt(t * t + q) if q < math.inf else math.sqrt(sn1) * math.sqrt(sn2) * (math.sqrt(p2) / math.sqrt(sx2))
    gap = 2.0 * p2 * t / (t + root) if t > 0.0 else 0.0
    if sn2 * gap > 2.0:
        l_d, r1, r2 = 1, _solve_l1(sn1, sum_rate, 1.0 / sx2), 0.0
    else:  # gap = 0 only where t underflows
        l_d = 2
        r1, r2 = (R_MAX if gap == 0.0 else min(0.5 * math.log(2.0 / (sn * gap)), R_MAX) for sn in (sn1, sn2))
    d_tilde = 1.0 / (1.0 / sx2 + precision_weight(sn1, r1) + precision_weight(sn2, r2))
    return TildeParams(l_d=l_d, d_tilde=d_tilde, r_tilde=(r1, r2))


def _thresholds(instance: CeoInstance, sum_rate: float):
    """(r~, thresholds) of a sum rate from one ``tilde_params`` solve: the
    minimum-sum-rate allocation and the unconditioned single-encoder rates
    at r~, each pair in the noise-sorted order.  A rate pair enters them
    only through its sum, so a grid solves them once per distinct sum."""
    p_prior = 1.0 / instance.sigma_x2
    tp = tilde_params(instance, sum_rate)
    return tp.r_tilde, tuple(
        joint_rate((instance.sigma_n2[i],), (v,), p_prior) for i, v in zip(_sorted_order(instance), tp.r_tilde)
    )


def _threshold_sum(R) -> float:
    """The sum rate whose omega thresholds (``_thresholds``) a rate pair
    takes: R_1 + R_2, or inf when a coordinate is capped (>= R_MAX), which
    the cap convention of ``model`` counts as infinite.  ``_margins``
    writes such a coordinate as inf too, so every spelling of a capped
    rate tags alike."""
    R1, R2 = R
    return R1 + R2 if R1 < R_MAX and R2 < R_MAX else math.inf


def _margins(instance: CeoInstance, R, thresholds) -> tuple[float, float]:
    """The omega margins R_a - threshold_a and R_b - threshold_b of a rate
    pair, in the noise-sorted order; a capped coordinate's margin is inf."""
    a, b = _sorted_order(instance)
    th_a, th_b = thresholds
    return (
        R[a] - th_a if R[a] < R_MAX else math.inf,
        R[b] - th_b if R[b] < R_MAX else math.inf,
    )


def _solve_l2(instance: CeoInstance, R, r_tilde, thresholds) -> InversionResult:
    """The "auto" answer of a validated two-encoder rate pair, from the
    minimum-sum-rate allocation r~ and the omega thresholds of its sum
    rate (``_thresholds``).  At most one finite positive rate takes the
    one-encoder closed form (branch "reduced").  Otherwise, in Omega_1
    (Omega_2) the pinned encoder, the less (more) noisy one, is decoded
    first, alone, and its partner is then one encoder over the prior plus
    the pinned weight; elsewhere r* = r~ (Omega_3).  The answer is
    labelled ``closed_form_l2`` and meets the acceptance rule
    (``_assemble``).  ``_r_star_cached`` and the reachability grid table
    (``refinement``) both solve a pair here; the grid tags its nodes from
    the same thresholds (``_margins``, ``omega_tag``)."""
    finite, p0 = _split_rates(instance, R)
    sn = instance.sigma_n2
    if len(finite) <= 1:
        branch, r_finite = "reduced", [_solve_l1(sn[i], R[i], p0) for i in finite]
    else:
        a, b = _sorted_order(instance)
        branch, r_finite = "omega3", [0.0, 0.0]
        r_finite[a], r_finite[b] = r_tilde
        for name, first, second, threshold in (("omega1", a, b, thresholds[0]), ("omega2", b, a, thresholds[1])):
            if R[first] >= threshold - RATE_FLOOR:
                r_finite[first] = _solve_l1(sn[first], R[first], p0)
                r_finite[second] = _solve_l1(sn[second], R[second], p0 + precision_weight(sn[first], r_finite[first]))
                branch = name
                break
    return _assemble(instance, R, finite, r_finite, p0, "closed_form_l2", branch=branch)


def omega_margins(instance: CeoInstance, R) -> tuple[float, float]:
    """Signed distances of a rate pair to the two branch thresholds.

    Returns (R_a - threshold_a, R_b - threshold_b) in the noise-sorted
    encoder order; at most one can be positive unless both rates are
    capped.  A capped rate (>= R_MAX) counts as infinite: its margin is
    inf, and the thresholds are those of an infinite sum rate.
    """
    if instance.L != 2:
        raise ArgumentError("omega classification requires exactly two encoders")
    R = _check_allocation(instance, R, "rate vector")
    return _margins(instance, R, _thresholds(instance, _threshold_sum(R))[1])


def omega_tag(margins, R, tol: float = OMEGA_TOL) -> OmegaTag:
    """Region tag of the rate pair R with omega margins ``margins``
    (``omega_margins``, or ``_margins`` of thresholds already solved);
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


# Answers the r* LRU holds.
_R_STAR_CACHE_SIZE = 65536


@lru_cache(maxsize=_R_STAR_CACHE_SIZE)
def _r_star_cached(instance: CeoInstance, R: tuple, method: str) -> InversionResult:
    """r* of a rate tuple that ``r_star`` has validated.  "auto" at L = 2
    takes ``_solve_l2``.  Otherwise at most one finite positive rate takes
    the one-encoder closed form, and more take the decomposition."""
    if method == "auto" and instance.L == 2:
        return _solve_l2(instance, R, *_thresholds(instance, _threshold_sum(R)))
    finite, p0 = _split_rates(instance, R)
    if len(finite) <= 1:
        r_finite = [_solve_l1(instance.sigma_n2[i], R[i], p0) for i in finite]
        branch = None if instance.L == 1 else "reduced"
        return _assemble(instance, R, finite, r_finite, p0, "closed_form_l1", branch=branch)
    sn = [instance.sigma_n2[i] for i in finite]
    r_finite, blocks, iterations = _decompose(sn, [R[i] for i in finite], p0)
    return _assemble(instance, R, finite, r_finite, p0, "decomposition", blocks=blocks, iterations=iterations)


def r_star(instance: CeoInstance, R, method: str = "auto") -> InversionResult:
    """Unique allocation achieving the minimal distortion of a rate tuple.

    ``method`` is "auto" (closed forms for one or two encoders, the
    decomposition otherwise) or "bisection", which forces the
    decomposition, the cross-check of the closed forms.  Reduced problems
    with at most one finite positive rate are always solved in closed
    form.  Every answer meets the acceptance rule of the module docstring,
    or ``ConvergenceError`` is raised.

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
    R = _check_allocation(instance, R, "rate vector")
    return _r_star_cached(instance, R, method)


def d_star(instance: CeoInstance, R, method: str = "auto") -> float:
    """Minimal distortion at which the rate tuple is achievable."""
    return r_star(instance, R, method=method).d_star


def uniqueness_probe(instance: CeoInstance, R, result: InversionResult) -> bool:
    """Confirm optimality of r* under single-coordinate perturbations.

    Each coordinate is nudged by +-1e-3 nats and re-projected onto the
    sum-rate identity through another coordinate; every such neighbor must
    either lose precision or leave the rate region.
    """
    R = _check_allocation(instance, R, "rate vector")
    finite, p0 = _split_rates(instance, R)
    if len(finite) < 2:
        return True
    sn = [instance.sigma_n2[i] for i in finite]
    rates = [R[i] for i in finite]
    base_r = [result.r_star[i] for i in finite]
    base_p = p0 + sum(precision_weight(s, v) for s, v in zip(sn, base_r))
    target = sum(rates)
    for i in range(len(finite)):
        for step in (1e-3, -1e-3):
            cand = list(base_r)
            cand[i] = base_r[i] + step
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
