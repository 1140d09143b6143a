"""Exhaustive and brute-force references for the library's engines.

Each one walks what the engine it checks avoids, so it is exact (or a
bound) only at desk scale:

* ``enumerate_face``: the face of the dominant face by testing every
  subset of the active encoders for tightness (2^L), the reference for
  ``polymatroid.identify_face``'s threshold-order candidates;
* ``unconditioned_rank``, ``rank_fD``, ``supermodularity_margin`` and
  ``check_supermodular``: rank-function identities over every subset or
  subset pair (4^L);
* ``brute_force_phi``: the support value over a lattice of allocations
  (L <= 3), an upper bound on ``hyperplane.support_value``;
* ``pairwise_equivalence``: the full-chain refinement verdict against the
  AND of its adjacent-pair verdicts;
* ``enumerate_stage_slacks``: the refinement stage inequality's slack at
  every nonempty subset (2^L), the reference for the worst and full-set
  rows of ``refinement.check_refinement``;
* ``exhaustive_scan_slack``: the minimum of c(A) + (1/2) ln(m(A) / m(empty))
  over every nonempty subset, the reference for the threshold scan
  ``polymatroid._scan_min_slack`` with weights of either sign;
  ``scan_value`` is that value at one subset;
* ``forced_scan_slack``: the same minimum by forcing each encoder in once
  and sweeping the threshold sets of the others, O(L^2) (the scan's
  former engine), the reference past the reach of enumeration;
* ``in_feasible_set``: whether an allocation reaches a distortion target;
* ``block_constant`` and ``solve_blocks``: a block's water-filling
  constant K as a ``brentq`` root of its group sum-rate equation (the
  library runs Newton on the block's rate instead), and the allocation
  that water-fills a given decode-block structure, the building block of
  the inverse map's exhaustive oracles below;
* ``solve_l1_root`` and ``partner_rate_root``: the single-encoder rate and
  the Omega_1 / Omega_2 partner rate of the two-encoder inverse map as
  ``brentq`` roots of their sum-rate identities, the references for
  ``inversion``'s closed forms;
* ``precision_rate``: a Wyner-Ziv step's rate from the precisions of the
  descriptions decoded before and after it, with same-encoder descriptions
  within ``_DUP_REL`` of each other taken as one, the precision-algebra
  certificate of ``scheduler.build_schedule``'s step rates;
* ``covariance_mi`` and ``covariance_mmse``: a step's rate and the source
  MMSE by Gaussian elimination of the joint covariance of the decoded
  descriptions, the observation and the source (O((n + L)^3)), the
  references for ``scheduler.gaussian_mi`` and ``validate_schedule``'s
  closed form.  The float sweep skips a pivot within ``_PIVOT_REL`` of
  determined and loses precision past ~8 nats, where sigma_x2 swamps the
  test-channel noise; the ``Fraction`` sweep (``exact=True``) skips only
  an exactly determined pivot and is exact up to the final logarithm;
* ``exhaustive_stop``: where a piece grown in the scheduler's precision
  axis stops, over every subset (2^n), the reference for
  ``scheduler._stop``'s Dinkelbach iteration;
* ``reference_simulate``: every stage's Monte Carlo MSE from the literal
  cascade of observations and test channels, the reference for the draw
  plan of ``montecarlo._simulate``;
* ``exhaustive_slack`` and ``instance_slack``: the region slack over every
  subset, the reference for ``polymatroid.min_slack``;
* ``ordered_partitions``, ``valid_block_allocations``, ``enumerate_r_star``
  and ``greedy_r_star``: the inverse map over every ordered decode-block
  partition (largest precision wins) and by a block-by-block decomposition
  that tries every subset as the next block, the references for
  ``inversion.r_star``; neither calls the code it checks;
* ``decimal_r_star``: the same subset-by-subset decomposition in stdlib
  ``decimal`` at ``DECIMAL_DIGITS`` digits (L <= 4), the reference that
  can see a relative error on rates of 1e-8 nats;
* ``RegionProgram``: the inverse map's convex program with one row per
  subset, whose all-rows KKT residual is the reference certificate;
* ``grid_map_oracle``: the reachability grid map node by node, the full
  chain test at every node, the reference for
  ``refinement.reachable_set_l2``.
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import combinations

import numpy as np
from scipy.optimize import brentq, nnls

from gceo.errors import ArgumentError, InternalInconsistencyError
from gceo.hyperplane import _check_distortion, _normalize_alpha, _sort_order
from gceo import inversion
from gceo.model import (
    CeoInstance,
    R_MAX,
    TOL_EQ,
    _check_allocation,
    channel_noise_from_r,
    distortion,
    exp_neg2r,
    precision,
    precision_weight,
    r_from_channel_noise,
    rate_floor,
)
from gceo.polymatroid import (
    FaceDescriptor,
    full_mask,
    mask_to_indices,
    on_dominant_face,
    partial_precision,
    rank_f,
)
from gceo.refinement import FEASIBILITY_TOL, GridNode, _validate_stages, check_refinement

# Same-encoder descriptions whose noises agree to this relative tolerance
# are one variable in ``precision_rate`` (last-ulp differences between
# solvers).  The oracle keeps its own value rather than follow the library.
_DUP_REL = 1e-10
# In the float covariance sweep, a conditional variance at most this share
# of the variable's variance given X (sigma_n2 + sigma_t2) means the earlier
# variables determine it: it absorbs last-ulp differences between
# allocations recovered through different solvers.  The exact sweep's only
# rule is a conditional variance of exactly zero.
_PIVOT_REL = 1e-10
# The source X as a variable; ("Y", j) is encoder j's observation.
_SOURCE = ("X", None)


def unconditioned_rank(instance: CeoInstance, r, mask: int) -> float:
    """Joint rate of the encoders in ``mask`` decoded first, nothing else known.

    Equals rank_f(full) - rank_f(complement); tightness of a group sum-rate
    against this quantity is what cuts faces out of the dominant face.
    """
    r = _check_allocation(instance, r)
    if mask == 0:
        return 0.0
    p_mask = partial_precision(instance, r, mask)
    return 0.5 * math.log(p_mask * instance.sigma_x2) + sum(
        r[i] for i in mask_to_indices(mask)
    )


def enumerate_face(instance: CeoInstance, r, R, tol: float = TOL_EQ) -> FaceDescriptor:
    """``identify_face`` by testing every proper nonempty subset of the
    active encoders against its unconditioned rank: same checks and same
    descriptor; a non-nested family, which ``identify_face`` reports with a
    note, raises ``InternalInconsistencyError``."""
    r = _check_allocation(instance, r)
    L = instance.L
    if not on_dominant_face(instance, r, R, max(tol, TOL_EQ)):
        raise ArgumentError("rate tuple is not on the dominant face")
    band = tol + rate_floor(R)
    active = [i for i in range(L) if r[i] > 0.0]
    for i in range(L):
        if r[i] == 0.0 and abs(R[i]) > band:
            raise ArgumentError(
                f"encoder {i} has zero allocation but rate {R[i]}; not on the dominant face"
            )
    if not active:
        return FaceDescriptor(chain=(), blocks=(), dimension=0, active=())
    active_mask = 0
    for i in active:
        active_mask |= 1 << i

    tight: list[int] = []
    sub = (active_mask - 1) & active_mask
    while sub > 0:
        s = sum(R[i] for i in mask_to_indices(sub))
        if abs(s - unconditioned_rank(instance, r, sub)) <= band:
            tight.append(sub)
        sub = (sub - 1) & active_mask

    tight.sort(key=lambda m: bin(m).count("1"))
    for a, b in zip(tight, tight[1:]):
        if a & ~b:
            raise InternalInconsistencyError(
                f"tight subsets {mask_to_indices(a)} and {mask_to_indices(b)} are not nested"
            )
    blocks = []
    prev = 0
    for m in tight:
        blocks.append(mask_to_indices(m & ~prev))
        prev = m
    blocks.append(mask_to_indices(active_mask & ~prev))
    return FaceDescriptor(
        chain=tuple(mask_to_indices(m) for m in tight),
        blocks=tuple(blocks),
        dimension=len(active) - len(tight) - 1,
        active=tuple(active),
    )


def rank_fD(instance: CeoInstance, r, mask: int, D: float) -> float:
    """Distortion-targeted rank: like rank_f but with precision pinned to 1/D.
    The difference rank_f - rank_fD is (1/2) ln(precision(r) * D) for every
    subset, which ties the two families together at tight D."""
    if not D > 0.0:
        raise ArgumentError(f"D must be > 0, got {D}")
    r = _check_allocation(instance, r)
    if mask == 0:
        return 0.0
    comp = full_mask(instance.L) & ~mask
    p_comp = partial_precision(instance, r, comp)
    return (
        0.5 * math.log(1.0 / D)
        - 0.5 * math.log(p_comp)
        + sum(r[i] for i in mask_to_indices(mask))
    )


def supermodularity_margin(instance: CeoInstance, r) -> tuple[float, float]:
    """(min margin over all pairs, min margin over incomparable pairs) of
    f(S u T) + f(S n T) - f(S) - f(T)."""
    r = _check_allocation(instance, r)
    L = instance.L
    ranks = {m: rank_f(instance, r, m) for m in range(1 << L)}
    ranks[0] = 0.0
    worst = math.inf
    worst_incomp = math.inf
    for s in range(1, 1 << L):
        for t in range(1, 1 << L):
            margin = ranks[s | t] + ranks[s & t] - ranks[s] - ranks[t]
            worst = min(worst, margin)
            if s & ~t and t & ~s:
                worst_incomp = min(worst_incomp, margin)
    return worst, worst_incomp


def check_supermodular(instance: CeoInstance, r, tol: float = 1e-12) -> bool:
    """Supermodularity of the rank, strict on incomparable pairs when r > 0."""
    worst, worst_incomp = supermodularity_margin(instance, r)
    if worst < -tol:
        return False
    if all(v > 0.0 for v in r) and instance.L >= 2 and not worst_incomp > 0.0:
        return False
    return True


def brute_force_phi(
    instance: CeoInstance,
    alpha,
    D: float,
    grid_step: float = 0.005,
    r_cap: float | None = None,
) -> float:
    """Grid oracle for the support value; L <= 3 only.

    Minimizes the vertex expansion over lattice allocations with
    precision >= 1/D, additionally evaluating, for every lattice value of
    the other coordinates, the exact allocation that meets the distortion
    constraint with equality along each axis.  The result upper-bounds the
    true support value to within a small multiple of the grid step.
    """
    L = instance.L
    if L > 3:
        raise ArgumentError("grid oracle supports at most 3 encoders")
    alpha = _normalize_alpha(alpha)
    _check_distortion(instance, D)
    order = _sort_order(alpha)
    inv_d = 1.0 / D
    needed = inv_d - 1.0 / instance.sigma_x2

    # Per-axis caps: no optimal coordinate exceeds the rate at which that
    # encoder alone closes the distortion gap.
    caps = []
    for i in range(L):
        frac = instance.sigma_n2[i] * needed
        if frac < 1.0 - 1e-12:
            caps.append(-0.5 * math.log(1.0 - frac) + 2.0 * grid_step)
        else:
            caps.append(0.5 * math.log(1e12))
    if r_cap is not None:
        caps = [min(c, r_cap) for c in caps]
    axes = [np.arange(0.0, caps[i] + grid_step, grid_step) for i in range(L)]
    sn = np.array(instance.sigma_n2)
    best = math.inf
    # Chunk over the first axis to keep the lattice memory bounded.
    tail_size = int(np.prod([len(a) for a in axes[1:]])) if L > 1 else 1
    chunk_rows = max(1, (1 << 21) // max(tail_size, 1))
    for start in range(0, len(axes[0]), chunk_rows):
        chunk_axes = [axes[0][start : start + chunk_rows]] + axes[1:]
        grids = np.meshgrid(*chunk_axes, indexing="ij")
        rs = np.stack([g.ravel() for g in grids], axis=1)
        best = min(best, _masked_min(instance, alpha, order, rs, inv_d))

    # Boundary augmentation: close the distortion constraint exactly along
    # each axis for every lattice combination of the other coordinates.
    for axis in range(L):
        others = [a for a in range(L) if a != axis]
        if others:
            sub = np.meshgrid(*[axes[a] for a in others], indexing="ij")
            sub = np.stack([g.ravel() for g in sub], axis=1)
        else:
            sub = np.zeros((1, 0))
        w_others = (1.0 - np.exp(-2.0 * sub)) / sn[others][None, :]
        w_axis = needed - w_others.sum(axis=1)
        frac = sn[axis] * w_axis
        ok = (frac >= 0.0) & (frac < 1.0 - 1e-15)
        if not np.any(ok):
            continue
        r_axis = -0.5 * np.log(1.0 - frac[ok])
        pts = np.empty((int(ok.sum()), L))
        for col, a in enumerate(others):
            pts[:, a] = sub[ok, col]
        pts[:, axis] = r_axis
        best = min(best, _masked_min(instance, alpha, order, pts, inv_d))
    if not math.isfinite(best):
        raise InternalInconsistencyError("grid contains no feasible allocation")
    return best


def _masked_min(instance, alpha, order, rs: np.ndarray, inv_d: float) -> float:
    """Minimum vertex-expansion objective over feasible rows of ``rs``."""
    sn = np.array(instance.sigma_n2)
    w = (1.0 - np.exp(-2.0 * rs)) / sn[None, :]
    p_total = 1.0 / instance.sigma_x2 + w.sum(axis=1)
    feasible = p_total >= inv_d - 1e-12
    if not np.any(feasible):
        return math.inf
    rs = rs[feasible]
    w = w[feasible]
    p_total = p_total[feasible]
    suffix = p_total.copy()
    prefix_rate = np.zeros_like(p_total)
    value = np.zeros_like(p_total)
    L = instance.L
    for k, idx in enumerate(order):
        suffix = suffix - w[:, idx]
        prefix_rate = prefix_rate + rs[:, idx]
        gap = alpha[idx] - alpha[order[k + 1]] if k < L - 1 else alpha[idx]
        if gap != 0.0:
            value += gap * (0.5 * np.log(p_total / suffix) + prefix_rate)
    return float(value.min())


def pairwise_equivalence(instance: CeoInstance, stages, tol: float = FEASIBILITY_TOL) -> bool:
    """Whether the full-chain verdict equals the AND of adjacent-pair verdicts.

    This must always hold (the stage test only couples adjacent stages); it
    is checked rather than assumed.
    """
    stages = _validate_stages(instance, stages)
    full = check_refinement(instance, stages, tol).feasible
    pairs = True
    prev = None
    for stage in stages:
        pair = [stage] if prev is None else [prev, stage]
        pairs = pairs and check_refinement(instance, pair, tol).feasible
        prev = stage
    return full == pairs


def enumerate_stage_slacks(instance: CeoInstance, R_prev, R_next, r_prev, r_next, d_next) -> list:
    """(subset, slack) of the stage inequality for every nonempty subset of
    one adjacent stage pair, subsets as sorted index tuples in bitmask order."""
    L = instance.L
    w_prev = [(1.0 - exp_neg2r(v)) / instance.sigma_n2[i] for i, v in enumerate(r_prev)]
    w_next = [(1.0 - exp_neg2r(v)) / instance.sigma_n2[i] for i, v in enumerate(r_next)]
    # A rate that stays the same adds nothing, an infinite one included.
    increment = [0.0 if a == b else b - a for a, b in zip(R_prev, R_next)]
    slacks = []
    for mask in range(1, 1 << L):
        mixed = 1.0 / instance.sigma_x2
        lhs = 0.0
        bonus = 0.0
        for i in range(L):
            if mask >> i & 1:
                mixed += w_prev[i]
                lhs += increment[i]
                bonus += r_next[i] - r_prev[i]
            else:
                mixed += w_next[i]
        rhs = 0.5 * math.log(1.0 / d_next) - 0.5 * math.log(mixed) + bonus
        slacks.append((mask_to_indices(mask), lhs - rhs))
    return slacks


def scan_value(c, u, v, p0: float, subset) -> float:
    """c(A) + (1/2) ln(m(A) / m(empty)) with m(A) = p0 + u(A) + v(A^c), for
    A the index tuple ``subset``."""
    inside = set(subset)
    m = p0 + sum(u[i] if i in inside else v[i] for i in range(len(c)))
    return sum(c[i] for i in subset) + 0.5 * math.log(m / (p0 + sum(v)))


def exhaustive_scan_slack(c, u, v, p0: float) -> tuple[float, dict]:
    """min over nonempty A of c(A) + (1/2) ln(m(A) / m(empty)) with
    m(A) = p0 + u(A) + v(A^c), and the value of every subset (sorted index
    tuple -> value), by walking all 2^n - 1 subsets."""
    values = {}
    for mask in range(1, 1 << len(c)):
        values[mask_to_indices(mask)] = scan_value(c, u, v, p0, mask_to_indices(mask))
    return min(values.values()), values


def forced_scan_slack(c, u, v, p0: float) -> tuple[float, tuple[int, ...]]:
    """min over nonempty A of c(A) + (1/2) ln(m(A) / m(empty)) with
    m(A) = p0 + u(A) + v(A^c), and one minimizer as sorted indices, in
    O(n^2) after one sort.

    With encoder j forced in, some minimizer is j plus a threshold set
    {i : c_i < mu d_i} of the others (d = v - u): the d_i = 0 encoders
    with c_i < 0, and the rest split by mu.  One sweep over the order of
    c_i / d_i visits every such set, once per j.  A NaN value never wins;
    with none left the minimum is +inf and the set empty.
    """
    n = len(c)
    m_empty = p0 + sum(v)
    # (c_i / d_i, i, d_i > 0, then the c and m terms before and after the
    # threshold) of every encoder with d_i != 0.
    still, still_c, still_m = [], 0.0, p0
    moving = []
    for i in range(n):
        d = v[i] - u[i]
        if d == 0.0:
            still_m += v[i]
            if c[i] < 0.0:
                still.append(i)
                still_c += c[i]
        elif d > 0.0:
            moving.append((c[i] / d, i, True, 0.0, v[i], c[i], u[i]))
        else:
            moving.append((c[i] / d, i, False, c[i], u[i], 0.0, v[i]))
    moving.sort()
    best, best_at = math.inf, None
    for j in range(n):
        order = [e for e in moving if e[1] != j]
        if u[j] == v[j]:
            head_c, head_m = still_c + max(c[j], 0.0), still_m
        else:
            head_c, head_m = still_c + c[j], still_m + u[j]
        tails = [(0.0, 0.0)]
        tail_c = tail_m = 0.0
        for _, _, _, c_before, m_before, _, _ in reversed(order):
            tail_c += c_before
            tail_m += m_before
            tails.append((tail_c, tail_m))
        for passed, (_, _, _, _, _, c_after, m_after) in enumerate(order):
            tail_c, tail_m = tails[len(order) - passed]
            value = head_c + tail_c + 0.5 * math.log((head_m + tail_m) / m_empty)
            if value < best:
                best, best_at = value, (j, order, passed)
            head_c += c_after
            head_m += m_after
        value = head_c + 0.5 * math.log(head_m / m_empty)
        if value < best:
            best, best_at = value, (j, order, len(order))
    if best_at is None:
        return best, ()
    j, order, passed = best_at
    inside = {j, *still, *(e[1] for k, e in enumerate(order) if (k < passed) == e[2])}
    return best, tuple(sorted(inside))


def in_feasible_set(instance: CeoInstance, r, D: float, tol: float = TOL_EQ) -> bool:
    """Whether the allocation reaches distortion D: precision(r) >= 1/D - tol."""
    if not D > 0.0:
        raise ArgumentError(f"D must be > 0, got {D}")
    return precision(instance, r) >= 1.0 / D - tol


def block_constant(noises, target: float, p: float):
    """Water-filling constant K of a block with group sum rate ``target``
    decoded at base precision p, or None when the block cannot reach it.

    The root of h(K) = (1/2) ln(1 + sum (1/s - 1/K) / p) + sum (1/2) ln(K / s)
    = target by ``brentq`` over K > max noise; h grows by at least n/2 per
    unit of ln K, which brackets the root.
    """

    def g(K):
        weight = sum(1.0 / s - 1.0 / K for s in noises)
        return 0.5 * math.log1p(weight / p) + sum(0.5 * math.log(K / s) for s in noises) - target

    k_lo = max(noises) * (1.0 + 1e-13)
    g_lo = g(k_lo)
    if g_lo >= 0.0:
        return None
    k_hi = k_lo * math.exp(-2.0 * g_lo / len(noises)) * (1.0 + 1e-9)
    return brentq(g, k_lo, k_hi, xtol=1e-300, rtol=8.9e-16)


def solve_blocks(sn, R, blocks, p0: float):
    """Allocation from a decode-ordered block structure, or None.

    Within a block the allocation water-fills: sigma_n2[i] * exp(2 r_i) is
    one constant K per block, pinned by the block's group sum rate given
    everything decoded earlier (``block_constant``).  Fails (returns None)
    when a block's sum rate is too small to support its joint description.
    """
    r = [0.0] * len(sn)
    p = p0
    for block in blocks:
        noises = [sn[i] for i in block]
        K = block_constant(noises, sum(R[i] for i in block), p)
        if K is None:
            return None
        for i in block:
            r[i] = 0.5 * math.log(K / sn[i])
        p += sum(1.0 / s - 1.0 / K for s in noises)
    return r


def solve_l1_root(sn: float, rate: float, p0: float) -> float:
    """Root r in [0, rate] of (1/2) ln((p0 + w(r)) / p0) + r = rate by
    ``brentq``: one encoder of noise sn over base precision p0."""
    if rate <= 0.0:
        return 0.0
    if rate >= R_MAX:
        return R_MAX

    def g(r):
        return 0.5 * math.log((p0 + precision_weight(sn, r)) / p0) + r - rate

    return brentq(g, 0.0, rate, xtol=1e-15, rtol=8.9e-16)


def partner_rate_root(
    sigma_x2: float, sn_first: float, r_first: float, sn_other: float, sum_rate: float, rate_other: float
) -> float:
    """Root r in [0, rate_other + 1e-12] of the two-encoder sum-rate identity

        (1/2) ln(1 + sigma_x2 (w_first(r_first) + w_other(r))) + r_first + r = sum_rate

    by ``brentq``: the allocation of the encoder decoded after the pinned
    one in Omega_1 / Omega_2."""

    def g(r):
        joint = 0.5 * math.log1p(sigma_x2 * (precision_weight(sn_first, r_first) + precision_weight(sn_other, r)))
        return joint + r_first + r - sum_rate

    return brentq(g, 0.0, rate_other + 1e-12, xtol=1e-15, rtol=8.9e-16)


def _finest(descriptions) -> dict[int, float]:
    """Finest test-channel noise per encoder among the given descriptions.

    Infinite noise is vacuous and dropped.  Same-encoder descriptions within
    ``_DUP_REL`` of each other are one variable: a finer one replaces the
    current only when it is finer by more than that.
    """
    finest: dict[int, float] = {}
    for d in descriptions:
        if d.sigma_t2_total < finest.get(d.encoder, math.inf) * (1.0 - _DUP_REL):
            finest[d.encoder] = d.sigma_t2_total
    return finest


def _precision(instance: CeoInstance, finest: dict[int, float]) -> float:
    """1/Var(X | descriptions): 1/sigma_x2 plus 1/(sigma_n2 + sigma_t2) per encoder."""
    return 1.0 / instance.sigma_x2 + sum(1.0 / (instance.sigma_n2[e] + t) for e, t in finest.items())


def precision_rate(instance: CeoInstance, target, decoded) -> float:
    """I(Y_j; target | decoded) by precision algebra, j the target's encoder.

    Descriptions are independent given X and same-encoder ones are nested,
    so the rate is (1/2) ln(p(Z + W) / p(Z)) + rho(W) - rho(Z_j): p the
    source precision given a set, rho the rate given X, Z_j the finest
    decoded description of j (rho = 0 without one).  It is 0 when Z_j is
    at least as fine as the target, within ``_DUP_REL``.
    """
    j, t = target.encoder, target.sigma_t2_total
    side = _finest(decoded)
    t_side = side.get(j, math.inf)
    if t == math.inf or t_side <= t * (1.0 + _DUP_REL):
        return 0.0
    p_side = _precision(instance, side)
    side[j] = t
    return (
        0.5 * math.log(_precision(instance, side) / p_side)
        + r_from_channel_noise(instance, j, t)
        - r_from_channel_noise(instance, j, t_side)
    )


def _key(variable) -> tuple:
    """(encoder, test-channel noise) of a variable; the source has no encoder."""
    if isinstance(variable, tuple):
        return variable[1], 0.0
    return variable.encoder, variable.sigma_t2_total


def _determined(instance: CeoInstance, variable, variance, exact: bool) -> bool:
    """Whether a conditional variance leaves the variable determined by what
    it is conditioned on: exactly zero (exact), or at most ``_PIVOT_REL``
    times its variance given X (float)."""
    if exact:
        return variance == 0
    encoder, noise = _key(variable)
    return variance <= _PIVOT_REL * (instance.sigma_n2[encoder] + noise)


def _conditioned(instance: CeoInstance, variables, given: int, exact: bool) -> list[list]:
    """Covariance of ``variables[given:]`` given ``variables[:given]``, as
    the nested lists of its upper triangle (row a holds the covariances of
    variable a with variables a, a + 1, ...).

    A variable is a finite-noise Description, ("Y", encoder) for a raw
    observation or ``_SOURCE``.  Same-encoder descriptions are nested, so
    their noise covariance is the smaller total noise.  One Gaussian
    elimination conditions on the given variables in order, in floats or,
    with ``exact``, in ``Fraction``s of the exact input floats; a pivot that
    ``_determined`` calls determined is skipped.
    """
    number = Fraction if exact else float
    sx2, sn = number(instance.sigma_x2), [number(v) for v in instance.sigma_n2]
    keys = [_key(v) for v in variables]
    cov = [
        [sx2 + sn[ea] + number(min(ta, tb)) if ea == eb and ea is not None else sx2 for eb, tb in keys[a:]]
        for a, (ea, ta) in enumerate(keys)
    ]
    for variable in variables[:given]:
        head, rows = cov[0], cov[1:]
        if _determined(instance, variable, head[0], exact):
            cov = rows
            continue
        pivot, cov = head[0], []
        for a, row in enumerate(rows, 1):
            f = head[a] / pivot
            cov.append([x - f * y for x, y in zip(row, head[a:])])
    return cov


def covariance_mi(instance: CeoInstance, target, decoded=(), exact: bool = False) -> float:
    """I(Y_j; target | decoded), j the target's encoder, from the
    conditional covariance of (Y_j, target) given the decoded descriptions:
    the float sweep, or with ``exact`` the ``Fraction`` one.  A vacuous
    description (infinite noise) carries rate 0 and conditions nothing."""
    if target.sigma_t2_total == math.inf:
        return 0.0
    decoded = [d for d in decoded if d.sigma_t2_total < math.inf]
    (v_y, c), (v_w,) = _conditioned(instance, decoded + [("Y", target.encoder), target], len(decoded), exact)
    if _determined(instance, target, v_w, exact):
        return 0.0
    det = v_y * v_w - c * c
    if not det > 0:  # with v_w > 0, also v_y > 0; NaN fails too
        raise ArithmeticError("conditional covariance is not positive definite")
    return 0.5 * math.log1p(c * c / det)


def covariance_mmse(instance: CeoInstance, descriptions, exact: bool = False) -> float:
    """Var(X | descriptions) by the same sweep as ``covariance_mi``."""
    descriptions = [d for d in descriptions if d.sigma_t2_total < math.inf]
    ((v,),) = _conditioned(instance, descriptions + [_SOURCE], len(descriptions), exact)
    return float(v)


def exhaustive_stop(e, w, top: bool) -> float:
    """max (top) or min (bottom) over every nonempty subset A of
    y_A = w(A) / -expm1(-2 e(A)) (top) or w(A) / expm1(2 e(A)) (bottom)."""
    values = []
    for mask in range(1, 1 << len(e)):
        e_A = sum(e[i] for i in mask_to_indices(mask))
        w_A = sum(w[i] for i in mask_to_indices(mask))
        values.append(w_A / -math.expm1(-2.0 * e_A) if top else w_A / math.expm1(2.0 * e_A))
    return max(values) if top else min(values)


def reference_simulate(instance, chain, n, seed):
    """Monte Carlo MSE of every stage of an allocation chain, sampled
    literally: Y_i = X + N_i, the finest description W_i = Y_i + T_i, and
    each coarser stage by adding independent noise to the next finer
    description (none where the test-channel variance does not grow).
    Returns (empirical MSE, its standard error) per stage."""
    rng = np.random.default_rng(seed)
    M = len(chain)
    x = rng.normal(0.0, math.sqrt(instance.sigma_x2), n)
    xhat = [np.zeros(n) for _ in range(M)]
    for i in range(instance.L):
        desc = x + rng.normal(0.0, math.sqrt(instance.sigma_n2[i]), n)
        held = 0.0
        for j in reversed(range(M)):
            v = channel_noise_from_r(instance, i, chain[j][i])
            if v == math.inf:
                continue
            if v > held:
                desc = desc + rng.normal(0.0, math.sqrt(v - held), n)
                held = v
            xhat[j] += distortion(instance, chain[j]) / (instance.sigma_n2[i] + v) * desc
    mse, stderr = [], []
    for j in range(M):
        se = (x - xhat[j]) ** 2
        mse.append(float(se.mean()))
        stderr.append(math.sqrt(float(se.var(ddof=1)) / n))
    return mse, stderr


def exhaustive_slack(sn, R, r, p0):
    """min over nonempty A of R(A) - r(A) - (1/2) ln(p_all / p_comp(A)) in a
    region with base precision p0, by explicit numpy enumeration of all
    2^n - 1 subsets (p_comp(A) = p0 plus the weights outside A)."""
    n = len(sn)
    inside = (np.arange(1, 1 << n)[:, None] >> np.arange(n) & 1).astype(bool)
    r = np.asarray(r, dtype=float)
    e = np.where(r >= R_MAX, 0.0, np.exp(-2.0 * np.minimum(r, R_MAX)))
    w = (1.0 - e) / np.asarray(sn, dtype=float)
    p_comp = p0 + np.where(inside, 0.0, w).sum(axis=1)
    gap = np.where(inside, np.asarray(R, dtype=float) - r, 0.0).sum(axis=1)
    return float(np.min(gap - 0.5 * np.log((p0 + w.sum()) / p_comp)))


def instance_slack(instance, r, R):
    """Exhaustive min_slack oracle for an instance (base precision 1/sigma_x2)."""
    return exhaustive_slack(instance.sigma_n2, R, r, 1.0 / instance.sigma_x2)


def ordered_partitions(items):
    """Every ordered partition of ``items`` into nonempty blocks."""
    if not items:
        yield ()
        return
    for size in range(1, len(items) + 1):
        for first in combinations(items, size):
            remaining = tuple(i for i in items if i not in first)
            for tail in ordered_partitions(remaining):
                yield (first,) + tail


def valid_block_allocations(sn, R, p0):
    """(blocks, r, precision) for every decode-block structure whose exact
    block solution lies in the region of a reduced problem."""
    for blocks in ordered_partitions(tuple(range(len(sn)))):
        r = solve_blocks(sn, R, blocks, p0)
        if r is None or exhaustive_slack(sn, R, r, p0) < -1e-9:
            continue
        yield blocks, r, p0 + sum(precision_weight(s, v) for s, v in zip(sn, r))


def enumerate_r_star(sn, R, p0):
    """Exhaustive oracle for a reduced problem: the optimal allocation is the
    valid decode-block candidate of maximal precision (L <= 5)."""
    assert len(sn) <= 5, "ordered-partition enumeration is a desk-scale oracle"
    return max(valid_block_allocations(sn, R, p0), key=lambda c: c[2])[1]


def greedy_r_star(sn, R, p0):
    """Subset-enumeration oracle for a reduced problem: Fujishige's
    decomposition with every candidate block tried.  Each round solves every
    nonempty subset A of the remaining encoders as one block through
    ``solve_blocks`` and decodes the one with the largest water-filling
    constant K_A (ties within 1e-12 relative go to the larger set), then
    conditions on it.  Exact where the max-precision pick of
    ``enumerate_r_star`` cannot resolve saturated coordinates (L <= 8)."""
    assert len(sn) <= 8, "subset enumeration is a desk-scale oracle"
    r = [0.0] * len(sn)
    remaining = tuple(range(len(sn)))
    p = p0
    while remaining:
        best_K, best = 0.0, None
        for size in range(1, len(remaining) + 1):
            for A in combinations(remaining, size):
                sol = solve_blocks(sn, R, [A], p)
                if sol is None:
                    continue
                K = sn[A[0]] * math.exp(2.0 * sol[A[0]])
                if K >= best_K * (1.0 - 1e-12):
                    best_K, best = max(K, best_K), (A, sol)
        A, sol = best
        for i in A:
            r[i] = sol[i]
        p += sum(precision_weight(sn[i], sol[i]) for i in A)
        remaining = tuple(i for i in remaining if i not in A)
    return r


# Working precision of ``decimal_r_star``, in significant digits.
DECIMAL_DIGITS = 50


def _decimal_block_level(sn, target, p, block):
    """y = ln K_A of one block in ``decimal``, or None when K_A does not
    exceed the block's largest noise (some member would take a negative
    rate).  The group sum-rate equation in y,

        h(y) = (1/2) ln(1 + (sum 1/s - n e^-y) / p) + (1/2) (n y - sum ln s),

    is increasing and concave, so Newton's method from y = ln max s rises
    monotonically to the root; it stops at a step below the working
    precision."""
    n = len(block)
    inverse = sum(1 / sn[i] for i in block)
    logs = sum(sn[i].ln() for i in block)
    resolution = Decimal(10) ** (5 - DECIMAL_DIGITS)

    def h(y):
        weight = inverse - n / y.exp()
        return (1 + weight / p).ln() / 2 + (n * y - logs) / 2, weight

    y = max(sn[i] for i in block).ln()
    value, weight = h(y)
    if value >= target:
        return None
    while True:
        slope = (n + (inverse - weight) / (p + weight)) / 2
        step = (target - value) / slope
        y += step
        if abs(step) < resolution:
            return y
        value, weight = h(y)


def decimal_r_star(sn, R, p0):
    """Exact-to-float reference r* of a reduced problem (L <= 4): Fujishige's
    decomposition in stdlib ``decimal`` at ``DECIMAL_DIGITS`` digits, with
    every nonempty subset of the remaining encoders solved as the next
    block (``_decimal_block_level``) and the largest K_A decoded, ties to
    the larger set.  The float inputs convert to ``Decimal`` exactly, so
    the answer is the decomposition of the very numbers the library sees,
    rounded once to floats at the end; it shares no code with the library."""
    assert len(sn) <= 4, "subset enumeration in decimal is a desk-scale oracle"
    with localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        sn = [Decimal(v) for v in sn]
        R = [Decimal(v) for v in R]
        p = Decimal(p0)
        tie = Decimal(10) ** (10 - DECIMAL_DIGITS)
        r = [None] * len(sn)
        remaining = tuple(range(len(sn)))
        while remaining:
            levels = []  # (y, block) in increasing block size
            for size in range(1, len(remaining) + 1):
                for block in combinations(remaining, size):
                    y = _decimal_block_level(sn, sum(R[i] for i in block), p, block)
                    if y is not None:
                        levels.append((y, block))
            level = max(y for y, _ in levels)
            best = [block for y, block in levels if y >= level - tie][-1]
            for i in best:
                r[i] = (level - sn[i].ln()) / 2
            p += sum(1 / sn[i] for i in best) - len(best) / level.exp()
            remaining = tuple(i for i in remaining if i not in best)
        return [float(v) for v in r]


class RegionProgram:
    """The inverse map as one convex program with a row per subset, kept as
    the all-rows reference certificate: max u over x = (q, u),
    q_i = exp(-r_i), subject to c_A(x) >= 0 for every subset A, with

        c_A(q, u) = R(A) - u/2 + (1/2) ln(p0 + w(A^c)) + sum_{i in A} ln q_i

    and w_i = (1 - q_i^2) / sigma_n2[i]; the empty set's row is the
    distortion constraint.  Every c_A is concave, so a feasible point that
    admits KKT multipliers on its active rows is the global optimum.
    """

    def __init__(self, sn, R, p0):
        n = len(sn)
        self.p0 = p0
        self.member = (np.arange(1 << n)[:, None] >> np.arange(n) & 1).astype(float)
        self.outside = 1.0 - self.member
        self.inv_sn = 1.0 / np.asarray(sn, dtype=float)
        self.rate = self.member @ np.asarray(R, dtype=float)

    def _p_outside(self, q):
        return self.p0 + self.outside @ ((1.0 - q * q) * self.inv_sn)

    def slacks(self, x):
        q, u = x[:-1], x[-1]
        return self.rate - 0.5 * u + 0.5 * np.log(self._p_outside(q)) + self.member @ np.log(q)

    def jacobian(self, x):
        q = x[:-1]
        jac = np.empty((len(self.rate), len(q) + 1))
        jac[:, :-1] = self.member / q - self.outside * (q * self.inv_sn) / self._p_outside(q)[:, None]
        jac[:, -1] = -0.5
        return jac

    def kkt_residual(self, r):
        """Stationarity residual of the best multipliers at (r, ln precision):
        NNLS for  sum_A lambda_A (-grad c_A) = grad u  over every active row
        (slack <= 1e-9), gradients in (r, u)."""
        q = np.exp(-np.asarray(r, dtype=float))
        p = self.p0 + float(((1.0 - q * q) * self.inv_sn).sum())
        x = np.append(q, math.log(p))
        active = self.slacks(x) <= 1e-9
        jac = self.jacobian(x)[active]
        jac[:, :-1] *= -q  # dq_i/dr_i
        target = np.zeros(len(q) + 1)
        target[-1] = 1.0
        _, residual = nnls(-jac.T, target)
        return float(residual)


def grid_map_oracle(instance, R_from, grid, tol=1e-6):
    """Reachability grid map node by node: classify, invert, and run the full
    two-stage chain test ``check_refinement([R_from, target])`` at every node
    that dominates the start (within 1e-12), target being the coordinatewise
    maximum of node and start."""
    lo, hi, step = grid
    n = int(round((hi - lo) / step)) + 1
    nodes = []
    for a in range(n):
        for b in range(n):
            R = (lo + a * step, lo + b * step)
            inv = inversion.r_star(instance, R)
            reach = False
            if R[0] >= R_from[0] - 1e-12 and R[1] >= R_from[1] - 1e-12:
                target = (max(R[0], R_from[0]), max(R[1], R_from[1]))
                reach = check_refinement(instance, [R_from, target], tol).feasible
            nodes.append(GridNode(R, inversion.classify_omega(instance, R), inv.d_star, inv.r_star, reach))
    return nodes
