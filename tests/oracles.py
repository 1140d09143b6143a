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
  descriptions decoded before and after it, the precision-algebra
  certificate of ``scheduler.build_schedule``'s step rates (itself checked
  against the covariance engine ``scheduler.gaussian_mi``);
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
* ``RegionProgram``: the inverse map's convex program with one row per
  subset, whose all-rows KKT residual is the reference certificate;
* ``grid_map_oracle``: the reachability grid map node by node, the full
  chain test at every node, the reference for
  ``refinement.reachable_set_l2``.
"""

import math
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
from gceo.scheduler import _DUP_REL


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


def exhaustive_scan_slack(c, u, v, p0: float) -> tuple[float, dict]:
    """min over nonempty A of c(A) + (1/2) ln(m(A) / m(empty)) with
    m(A) = p0 + u(A) + v(A^c), and the value of every subset (sorted index
    tuple -> value), by walking all 2^n - 1 subsets."""
    n = len(c)
    m_empty = p0 + sum(v)
    values = {}
    for mask in range(1, 1 << n):
        m = p0 + sum(u[i] if mask >> i & 1 else v[i] for i in range(n))
        values[mask_to_indices(mask)] = sum(c[i] for i in mask_to_indices(mask)) + 0.5 * math.log(m / m_empty)
    return min(values.values()), values


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
    ``_DUP_REL`` of each other are one variable, as in ``gaussian_mi``: a
    finer one replaces the current only when it is finer by more than that.
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
    at least as fine as the target, within the relative rule of
    ``gaussian_mi``.
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
