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
* ``in_feasible_set``: whether an allocation reaches a distortion target.
"""

import math

import numpy as np

from gceo.errors import ArgumentError, InternalInconsistencyError
from gceo.hyperplane import _check_distortion, _normalize_alpha, _sort_order
from gceo.model import CeoInstance, TOL_EQ, _check_allocation, precision
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


def in_feasible_set(instance: CeoInstance, r, D: float, tol: float = TOL_EQ) -> bool:
    """Whether the allocation reaches distortion D: precision(r) >= 1/D - tol."""
    if not D > 0.0:
        raise ArgumentError(f"D must be > 0, got {D}")
    return precision(instance, r) >= 1.0 / D - tol
