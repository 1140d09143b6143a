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
* ``solve_blocks``: the allocation that water-fills a given decode-block
  structure, the building block of the inverse map's exhaustive oracles in
  ``conftest.py``;
* ``solve_l1_root`` and ``partner_rate_root``: the single-encoder rate and
  the Omega_1 / Omega_2 partner rate of the two-encoder inverse map as
  ``brentq`` roots of their sum-rate identities, the references for
  ``inversion``'s closed forms.
"""

import math

import numpy as np
from scipy.optimize import brentq

from gceo.errors import ArgumentError, InternalInconsistencyError
from gceo.hyperplane import _check_distortion, _normalize_alpha, _sort_order
from gceo.inversion import _block_constant, _weight
from gceo.model import CeoInstance, R_MAX, TOL_EQ, _check_allocation, exp_neg2r, precision
from gceo.polymatroid import (
    FACE_TOL,
    FaceDescriptor,
    full_mask,
    mask_to_indices,
    on_dominant_face,
    partial_precision,
    rank_f,
)
from gceo.refinement import FEASIBILITY_TOL, _validate_stages, check_refinement


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


def enumerate_face(instance: CeoInstance, r, R, tol: float = FACE_TOL) -> FaceDescriptor:
    """``identify_face`` by testing every proper nonempty subset of the
    active encoders against its unconditioned rank: same checks, same
    descriptor, same ``InternalInconsistencyError`` on a non-nested family."""
    r = _check_allocation(instance, r)
    L = instance.L
    if not on_dominant_face(instance, r, R, max(tol, TOL_EQ)):
        raise ArgumentError("rate tuple is not on the dominant face")
    active = [i for i in range(L) if r[i] > 0.0]
    for i in range(L):
        if r[i] == 0.0 and abs(R[i]) > tol:
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
        if abs(s - unconditioned_rank(instance, r, sub)) <= tol:
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


def solve_blocks(sn, R, blocks, p0: float):
    """Allocation from a decode-ordered block structure, or None.

    Within a block the allocation water-fills: sigma_n2[i] * exp(2 r_i) is
    one constant K per block, pinned by the block's group sum rate given
    everything decoded earlier.  Fails (returns None) when a block's sum
    rate is too small to support its joint description.
    """
    r = [0.0] * len(sn)
    p = p0
    for block in blocks:
        noises = [sn[i] for i in block]
        K = _block_constant(noises, sum(R[i] for i in block), p, max(noises) * (1.0 + 1e-13))
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
        return 0.5 * math.log((p0 + _weight(sn, r)) / p0) + r - rate

    return brentq(g, 0.0, rate, xtol=1e-15, rtol=8.9e-16)


def partner_rate_root(
    sigma_x2: float, sn_first: float, r_first: float, sn_other: float, sum_rate: float, rate_other: float
) -> float:
    """Root r in [0, rate_other + 1e-12] of the two-encoder sum-rate identity

        (1/2) ln(1 + sigma_x2 (w_first(r_first) + w_other(r))) + r_first + r = sum_rate

    by ``brentq``: the allocation of the encoder decoded after the pinned
    one in Omega_1 / Omega_2."""

    def g(r):
        joint = 0.5 * math.log1p(sigma_x2 * (_weight(sn_first, r_first) + _weight(sn_other, r)))
        return joint + r_first + r - sum_rate

    return brentq(g, 0.0, rate_other + 1e-12, xtol=1e-15, rtol=8.9e-16)
