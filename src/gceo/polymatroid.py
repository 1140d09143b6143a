"""Contra-polymatroid rate region of a fixed noise allocation.

For an allocation r the achievable rate tuples form

    { R : sum_{i in A} R_i >= f(A, r)  for every nonempty A },

with the supermodular rank function

    f(A, r) = (1/2) ln( precision(r) / precision restricted to A-complement )
              + sum_{i in A} r_i,

where "precision restricted to B" is 1/sigma_x2 + sum_{i in B} w_i and
w_i = (1 - exp(-2 r_i)) / sigma_n2[i].

The region has L! vertices, one per decoding order: the last-decoded
encoder pays its fully conditioned rate, the first-decoded its
unconditioned one.  The sum-rate-tight facet (dominant face) carries all
Pareto-minimal tuples, and its faces are cut out by telescopic chains of
"group sum-rate" hyperplanes  sum_{i in A} R_i = f(I, r) - f(A^c, r);
supermodularity makes the tight chain nested whenever every r_i > 0.

Region membership never enumerates subsets.  The slack of subset A,

    sum_{i in A} R_i - f(A, r) = c(A) + (1/2) ln((p0 + W - w(A)) / (p0 + W)),

with c_i = R_i - r_i, p0 = 1/sigma_x2 and W = sum w_i, is a modular
function plus a concave function of the modular w(A).  Writing the
concave term as the infimum of its tangent lines, some minimizer is a
threshold set {i : c_i < mu w_i}: a prefix of the encoders sorted by
c_i / w_i, plus every zero-weight encoder with c_i < 0 (Fujishige,
Submodular Functions and Optimization).  Forcing each encoder in once
keeps A nonempty, so the minimum costs O(L^2) after one sort
(``_scan_min_slack``; the inverse map's reduced regions use it too).  The
inverse map's block search minimizes the mirror form with the precision
p0 + w(A) inside A over the same sorted prefixes (``_min_threshold_set``).

Faces need no enumeration either.  On the dominant face the group rate
of A never exceeds its unconditioned rank f(I, r) - f(A^c, r), and A is
tight when the two are equal, i.e. when

    g(A) = r(A) - R(A) + (1/2) ln((p0 + w(A)) / p0)

vanishes.  g is modular plus concave of w(A) and >= 0 on the face, so a
tight set minimizes it and, up to ratio ties, is a prefix of the encoders
sorted by (r_i - R_i) / w_i.  Within a tolerance a tight set need only
nearly minimize g and can differ from a prefix in an encoder whose ratio
sits near the threshold; ``identify_face`` tests every prefix and every
set one encoder away from a prefix, O(L^2) sets from running sums.

Subsets are bitmasks over encoder indices 0..L-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ArgumentError, InternalInconsistencyError
from .model import CeoInstance, TOL_EQ, _check_allocation, precision_weight

FACE_TOL = 1e-7


def full_mask(L: int) -> int:
    return (1 << L) - 1


def iter_nonempty_subsets(L: int):
    return range(1, 1 << L)


def mask_to_indices(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def partial_precision(instance: CeoInstance, r, mask: int) -> float:
    """1/sigma_x2 plus the precision weights of the encoders in ``mask``."""
    total = 1.0 / instance.sigma_x2
    for i in range(instance.L):
        if mask >> i & 1:
            total += precision_weight(instance, i, r[i])
    return total


def rank_f(instance: CeoInstance, r, mask: int) -> float:
    """Rank of subset ``mask``: the joint rate needed by those encoders when
    every other description is already decoded."""
    r = _check_allocation(instance, r)
    if mask == 0:
        return 0.0
    comp = full_mask(instance.L) & ~mask
    p_all = partial_precision(instance, r, full_mask(instance.L))
    p_comp = partial_precision(instance, r, comp)
    return 0.5 * math.log(p_all / p_comp) + sum(r[i] for i in mask_to_indices(mask))


def _threshold_order(c, w):
    """Positive-weight encoders in increasing c_i / w_i.  A modular term plus
    a concave function of w(A) has a minimizer among the prefixes of this
    order (plus the zero-weight encoders with c_i < 0)."""
    return sorted((i for i in range(len(c)) if w[i] > 0.0), key=lambda i: c[i] / w[i])


def _scan_min_slack(c, w, p0: float) -> float:
    """min over nonempty A of c(A) + (1/2) ln((p0 + W - w(A)) / (p0 + W)).

    Needs w_i >= 0, p0 > 0 and no NaN in c.  With encoder j forced in, a
    minimizer over the others is {j} plus every zero-weight encoder with
    c_i < 0 plus a prefix of the positive-weight encoders in increasing
    c_i / w_i (ties in any order); every such set is scanned, O(n^2).
    """
    n = len(c)
    order = _threshold_order(c, w)
    # rest[k]: p0 plus the weights of order[k:], summed from the back so the
    # complement precision of every prefix is a sum of nonnegative terms.
    rest = [p0] * (len(order) + 1)
    for k in range(len(order) - 1, -1, -1):
        rest[k] = rest[k + 1] + w[order[k]]
    free = [w[i] == 0.0 and c[i] < 0.0 for i in range(n)]
    base = sum(c[i] for i in range(n) if free[i])
    worst = math.inf
    for j in range(n):
        acc = base if free[j] else base + c[j]
        held = w[j]  # weight of j while it still sits in the suffix
        for k in range(len(order) + 1):
            worst = min(worst, acc + 0.5 * math.log((rest[k] - held) / rest[0]))
            if k < len(order):
                if order[k] == j:
                    held = 0.0
                else:
                    acc += c[order[k]]
    return worst


def _min_threshold_set(c, w, p0: float, tie: float):
    """min over every A, the empty set included, of
    c(A) + (1/2) ln((p0 + w(A)) / p0), and the largest minimizer.

    Needs every w_i > 0.  The same tangent-line argument as in
    ``_scan_min_slack`` makes some minimizer a prefix of the encoders in
    increasing c_i / w_i, and the union of all minimizers is one too, so a
    single pass over the prefixes finds both, O(n log n).  Prefixes within
    ``tie`` of the minimum count as minimizers; the longest is returned as
    a list of indices.
    """
    order = _threshold_order(c, w)
    values = [0.0]
    acc, inner = 0.0, p0
    for i in order:
        acc += c[i]
        inner += w[i]
        values.append(acc + 0.5 * math.log(inner / p0))
    low = min(values)
    size = max(k for k, v in enumerate(values) if v <= low + tie)
    return low, order[:size]


def min_slack(instance: CeoInstance, r, R) -> float:
    """Minimum of sum_{i in A} R_i - f(A, r) over all nonempty subsets A.

    Negative and infinite rates are valid queries; NaN is rejected, as is
    an infinite rate against an infinite allocation (their slack is
    undefined).
    """
    r = _check_allocation(instance, r)
    L = instance.L
    if len(R) != L:
        raise ArgumentError(f"rate vector has length {len(R)}, expected {L}")
    c = []
    for i in range(L):
        R_i = float(R[i])
        if math.isnan(R_i):
            raise ArgumentError(f"rate entries must not be NaN, got R_{i + 1} = nan")
        if math.isnan(R_i - r[i]):
            raise ArgumentError(f"R_{i + 1} - r_{i + 1} is undefined ({R_i} - {r[i]})")
        c.append(R_i - r[i])
    w = [precision_weight(instance, i, r[i]) for i in range(L)]
    return _scan_min_slack(c, w, 1.0 / instance.sigma_x2)


def region_contains(instance: CeoInstance, r, R, tol: float = TOL_EQ) -> bool:
    """Whether R satisfies all 2^L - 1 subset-rate inequalities with slack >= -tol."""
    return min_slack(instance, r, R) >= -tol


def vertex(instance: CeoInstance, r, pi) -> tuple[float, ...]:
    """Vertex of the region for decoding order ``pi``.

    ``pi`` lists encoders so that pi[0] is decoded last and pi[-1] first;
    coordinate pi[k] is the telescoping rank difference of the prefixes
    {pi[0..k]}, i.e. the rate of encoder pi[k] given the descriptions of
    pi[k+1..] at the decoder.
    """
    r = _check_allocation(instance, r)
    L = instance.L
    if sorted(pi) != list(range(L)):
        raise ArgumentError(f"pi must be a permutation of 0..{L - 1}, got {pi}")
    R = [0.0] * L
    prev_mask = 0
    prev_rank = 0.0
    for k in range(L):
        mask = prev_mask | (1 << pi[k])
        rank = rank_f(instance, r, mask)
        R[pi[k]] = rank - prev_rank
        prev_mask, prev_rank = mask, rank
    return tuple(R)


def on_dominant_face(instance: CeoInstance, r, R, tol: float = TOL_EQ) -> bool:
    """Region membership plus sum-rate equality with the full-set rank."""
    total = rank_f(instance, r, full_mask(instance.L))
    if abs(sum(R) - total) > tol:
        return False
    return region_contains(instance, r, R, tol)


@dataclass(frozen=True)
class FaceDescriptor:
    """Face of the dominant face containing a rate tuple.

    ``chain`` holds the nested group-sum-tight subsets A_1 c A_2 c ... c A_k
    (proper, nonempty, as sorted index tuples over the active encoders), and
    ``blocks`` the successive differences plus the final remainder: blocks
    are decoded in listed order, each conditioned on all previous ones.
    ``dimension`` is len(active) - k - 1, the face dimension when the
    vertices associated with the block structure are all distinct.
    """

    chain: tuple[tuple[int, ...], ...]
    blocks: tuple[tuple[int, ...], ...]
    dimension: int
    active: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "chain": [[i + 1 for i in a] for a in self.chain],
            "blocks": [[i + 1 for i in b] for b in self.blocks],
            "dimension": self.dimension,
            "active": [i + 1 for i in self.active],
        }


def identify_face(instance: CeoInstance, r, R, tol: float = FACE_TOL) -> FaceDescriptor:
    """Locate the lowest-dimensional face of the dominant face containing R.

    Encoders with r_i = 0 contribute nothing (their constraints are implied)
    and are projected out first; on the dominant face their rates are zero.
    A proper nonempty set of active encoders is tight when its group rate is
    within ``tol`` of its unconditioned rank, i.e. |g(A)| <= tol with g as
    in the module docstring.  Candidates are the prefixes of the active
    encoders in increasing c_i / w_i, c_i = r_i - R_i (the empty and the
    full set included), and every set one encoder away from a prefix.
    Tight sets must be nested; a non-nested family signals a tolerance
    problem and raises.
    """
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

    c = [r[i] - R[i] for i in range(L)]
    w = [precision_weight(instance, i, r[i]) for i in range(L)]
    # An active encoder whose weight rounds to 0 (r_i below ~2.8e-17) adds
    # only c_i to g: its ratio is -inf when c_i < 0 and +inf otherwise.
    flat = [i for i in active if w[i] == 0.0]
    order = [i for i in flat if c[i] < 0.0] + _threshold_order(c, w) + [i for i in flat if c[i] >= 0.0]
    prefixes = [(0, 0.0, 0.0)]  # (mask, c(A), w(A)) of every prefix
    for i in order:
        mask, c_sum, w_sum = prefixes[-1]
        prefixes.append((mask | 1 << i, c_sum + c[i], w_sum + w[i]))
    active_mask = prefixes[-1][0]
    p0 = 1.0 / instance.sigma_x2

    found = set()
    for k, (mask, c_sum, w_sum) in enumerate(prefixes):
        candidates = [(mask, c_sum, w_sum)]
        for j, i in enumerate(order):
            sign = -1.0 if j < k else 1.0  # drop a member or add an outsider
            candidates.append((mask ^ 1 << i, c_sum + sign * c[i], w_sum + sign * w[i]))
        for m, c_m, w_m in candidates:
            if 0 < m < active_mask and abs(c_m + 0.5 * math.log1p(w_m / p0)) <= tol:
                found.add(m)

    tight = sorted(found, key=lambda m: (m.bit_count(), m))
    for a, b in zip(tight, tight[1:]):
        if a & ~b:
            raise InternalInconsistencyError(
                f"tight subsets {mask_to_indices(a)} and {mask_to_indices(b)} are not nested; "
                "tolerance too loose or allocation has zero coordinates"
            )
    # Equal-popcount duplicates would have tripped the nesting check above.
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
