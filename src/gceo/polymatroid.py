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
keeps A nonempty, so the minimum costs O(L^2) after one sort.

``_scan_min_slack`` is the one engine for these minima.  It takes the
precision as p0 + u(A) + v(A^c), a sum of nonnegative terms: region
membership and the inverse map's reduced regions pass u = 0 and v = w,
and a refinement stage passes the weights of the coarser and the finer
allocation, whose difference may have either sign.  The inverse map's
block search minimizes the mirror form with the precision p0 + w(A)
inside A over the same sorted prefixes (``_min_threshold_set``).

Faces need no enumeration either.  On the dominant face the group rate
of A never exceeds its unconditioned rank f(I, r) - f(A^c, r), and A is
tight when the two are equal, i.e. when

    g(A) = r(A) - R(A) + (1/2) ln((p0 + w(A)) / p0)

vanishes.  g is modular plus concave of w(A) and >= 0 on the face, so a
tight set minimizes it and, up to ratio ties, is a prefix of the encoders
sorted by (r_i - R_i) / w_i.  Within a tolerance a tight set need only
nearly minimize g and can differ from a prefix in an encoder whose ratio
sits near the threshold; ``_tight_chain`` tests every prefix and every
set one encoder away from a prefix, O(L^2) sets from running sums.  It
serves ``identify_face`` and the scheduler's face step, whose base
precision p0 is that of the descriptions decoded so far.

Subsets are bitmasks over encoder indices 0..L-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ArgumentError
from .model import CeoInstance, TOL_EQ, _check_allocation, precision_weight, rate_floor


def full_mask(L: int) -> int:
    return (1 << L) - 1


def mask_to_indices(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def partial_precision(instance: CeoInstance, r, mask: int) -> float:
    """1/sigma_x2 plus the precision weights of the encoders in ``mask``."""
    total = 1.0 / instance.sigma_x2
    for i in range(instance.L):
        if mask >> i & 1:
            total += precision_weight(instance.sigma_n2[i], r[i])
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


def _threshold_order(c, w, members):
    """``members`` in increasing c_i / w_i.  A modular term plus a concave
    function of w(A) has a minimizer among the prefixes of this order.  A
    zero-weight member adds only c_i, so its ratio counts as -inf when
    c_i < 0 and +inf otherwise."""
    return sorted(members, key=lambda i: c[i] / w[i] if w[i] > 0.0 else -math.inf if c[i] < 0.0 else math.inf)


def _scan_min_slack(c, u, v, p0: float) -> tuple[float, tuple[int, ...]]:
    """min over nonempty A of c(A) + (1/2) ln(m(A) / m(empty)), and one
    minimizer as sorted indices, where m(A) = p0 + u(A) + v(A^c).

    Needs u_i, v_i >= 0, p0 > 0 and no NaN in c.  With d = v - u,
    m(A) = m(empty) - d(A), so the log term is a concave function of the
    modular d(A).  Writing it as the infimum of its tangent lines, some
    minimizer with encoder j forced in is j plus a threshold set
    {i : c_i < mu d_i} of the others: the d_i = 0 encoders with c_i < 0,
    and the rest split by mu.  Raising mu past c_i / d_i lets an encoder
    with d_i > 0 join and one with d_i < 0 leave, so one sweep over the
    order of c_i / d_i visits every such set, O(n) per j and O(n^2) in
    all.  When every d_i >= 0 the sets are the prefixes of that order.  A
    NaN value (c holding both infinities) never wins; with none left the
    minimum is +inf and the set empty.
    """
    n = len(c)
    m_empty = p0 + sum(v)
    # An encoder with d_i = 0 adds u_i = v_i to m whatever A is.  Every
    # other one is (c_i / d_i, i, d_i > 0, then its c and m terms before
    # and after its threshold): before it, one with d_i < 0 is in A and
    # adds c_i and u_i, one with d_i > 0 is out and adds v_i; after it,
    # the reverse.
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
    moving.sort()  # by c_i / d_i, ties by index
    best, best_at = math.inf, None
    for j in range(n):
        order = [e for e in moving if e[1] != j]
        if u[j] == v[j]:
            head_c, head_m = still_c + max(c[j], 0.0), still_m
        else:
            head_c, head_m = still_c + c[j], still_m + u[j]
        # tails[k]: the c and m terms of the last k encoders of the order,
        # still before their thresholds.  Sums run from the front (head)
        # and from the back (tail), so m only ever adds terms >= 0.
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


def _min_threshold_set(c, w, p0: float, tie: float):
    """min over every A, the empty set included, of
    c(A) + (1/2) ln((p0 + w(A)) / p0), and the largest minimizer.

    Needs every w_i >= 0 (``_threshold_order`` places a zero-weight
    encoder by the sign of c_i).  The same tangent-line argument as in
    ``_scan_min_slack`` makes some minimizer a prefix of the encoders in
    increasing c_i / w_i, and the union of all minimizers is one too, so a
    single pass over the prefixes finds both, O(n log n).  Prefixes within
    ``tie`` of the minimum count as minimizers; the longest is returned as
    a list of indices.
    """
    order = _threshold_order(c, w, range(len(c)))
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
    w = [precision_weight(sn, v) for sn, v in zip(instance.sigma_n2, r)]
    return _scan_min_slack(c, [0.0] * L, w, 1.0 / instance.sigma_x2)[0]


def region_check(instance: CeoInstance, r, R, tol: float = TOL_EQ) -> tuple[bool, float]:
    """(contains, slack): the minimum subset-rate slack of R (``min_slack``)
    and whether it is >= -(tol + rate_floor(R)), the rounding floor of
    ``model`` under the caller's tolerance."""
    slack = min_slack(instance, r, R)
    return slack >= -(tol + rate_floor(R)), slack


def region_contains(instance: CeoInstance, r, R, tol: float = TOL_EQ) -> bool:
    """Whether R satisfies all 2^L - 1 subset-rate inequalities (``region_check``)."""
    return region_check(instance, r, R, tol)[0]


def vertex(instance: CeoInstance, r, pi) -> tuple[float, ...]:
    """Vertex of the region for decoding order ``pi``.

    ``pi`` lists encoders so that pi[0] is decoded last and pi[-1] first;
    coordinate pi[k] is the telescoping rank difference of the prefixes
    {pi[0..k]}, i.e. the rate of encoder pi[k] given the descriptions of
    pi[k+1..] at the decoder: (1/2) log1p(w / p) + r with w its weight and
    p the precision of the prior and of the descriptions decoded before it.
    One pass from the first-decoded encoder adds each weight to p.
    """
    r = _check_allocation(instance, r)
    L = instance.L
    if sorted(pi) != list(range(L)):
        raise ArgumentError(f"pi must be a permutation of 0..{L - 1}, got {pi}")
    R = [0.0] * L
    p = 1.0 / instance.sigma_x2
    for i in reversed(pi):
        w = precision_weight(instance.sigma_n2[i], r[i])
        R[i] = 0.5 * math.log1p(w / p) + r[i]
        p += w
    return tuple(R)


def on_dominant_face(instance: CeoInstance, r, R, tol: float = TOL_EQ) -> bool:
    """Region membership plus sum-rate equality with the full-set rank,
    both within tol over the rounding floor of R."""
    total = rank_f(instance, r, full_mask(instance.L))
    if abs(sum(R) - total) > tol + rate_floor(R):
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
    ``note`` is set when two tight sets cross within the tolerance (the
    point is that close to several faces); it names them, and the chain is
    the one ``_tight_chain`` keeps.
    """

    chain: tuple[tuple[int, ...], ...]
    blocks: tuple[tuple[int, ...], ...]
    dimension: int
    active: tuple[int, ...]
    note: str | None = None

    def to_dict(self) -> dict:
        out = {
            "chain": [[i + 1 for i in a] for a in self.chain],
            "blocks": [[i + 1 for i in b] for b in self.blocks],
            "dimension": self.dimension,
            "active": [i + 1 for i in self.active],
        }
        if self.note is not None:
            out["note"] = self.note
        return out


def _tight_chain(members, c, w, p0: float, tol: float):
    """The chain of tight sets of ``members`` at base precision p0, as blocks.

    A proper nonempty subset A is tight when |g(A)| <= tol (callers pass
    their tolerance plus the rounding floor of ``model``), with
    g(A) = c(A) + (1/2) ln(1 + w(A) / p0) as in the module docstring; ``c``
    and ``w`` are indexed by encoder.  Candidates are the prefixes of the
    members in ``_threshold_order`` (the empty and the full set included)
    and every set one member away from a prefix.

    The chain keeps the tight sets from the largest down, ties to the
    larger mask, each one inside the last one kept.  Returns its blocks
    (the first set, the successive differences and the remainder, as
    sorted index tuples in decode order) and, when some tight set does not
    fit, that set and the one it crosses as index tuples, else None.
    Exactly tight sets are nested whenever every weight is positive, so a
    crossing means a point within ``tol`` of several faces.
    """
    order = _threshold_order(c, w, members)
    prefixes = [(0, 0.0, 0.0)]  # (mask, c(A), w(A)) of every prefix
    for i in order:
        mask, c_sum, w_sum = prefixes[-1]
        prefixes.append((mask | 1 << i, c_sum + c[i], w_sum + w[i]))
    full = prefixes[-1][0]

    # Each proper prefix is one encoder away from the one before it.
    found = set()
    for k, (mask, c_sum, w_sum) in enumerate(prefixes):
        for j, i in enumerate(order):
            sign = -1.0 if j < k else 1.0  # drop a member or add an outsider
            m, c_m, w_m = mask ^ 1 << i, c_sum + sign * c[i], w_sum + sign * w[i]
            if 0 < m < full and abs(c_m + 0.5 * math.log1p(w_m / p0)) <= tol:
                found.add(m)

    chain, crossing = [full], None
    for m in sorted(found, key=lambda m: (m.bit_count(), m), reverse=True):
        if not m & ~chain[-1]:
            chain.append(m)
        elif crossing is None:
            crossing = (mask_to_indices(m), mask_to_indices(chain[-1]))
    chain.append(0)
    blocks = tuple(mask_to_indices(a & ~b) for a, b in zip(chain[-2::-1], chain[::-1]))
    return blocks, crossing


def identify_face(instance: CeoInstance, r, R, tol: float = TOL_EQ) -> FaceDescriptor:
    """Locate the lowest-dimensional face of the dominant face containing R.

    Encoders with r_i = 0 contribute nothing (their constraints are implied)
    and are projected out first; on the dominant face their rates are zero.
    A proper nonempty set of active encoders is tight when its group rate is
    within ``tol`` plus the rounding floor of R (``model.rate_floor``) of
    its unconditioned rank, i.e. |g(A)| <= tol + floor with g as in the
    module docstring, c_i = r_i - R_i and p0 = 1/sigma_x2; the candidates
    are those of ``_tight_chain``.  Exactly tight sets are nested; when two
    sets tight within that band cross, the face is the chain
    ``_tight_chain`` keeps and ``note`` names the crossing sets.
    """
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

    c = [r[i] - R[i] for i in range(L)]
    w = [precision_weight(sn, v) for sn, v in zip(instance.sigma_n2, r)]
    blocks, crossing = _tight_chain(active, c, w, 1.0 / instance.sigma_x2, band)
    note = None
    if crossing:
        dropped, kept = ([i + 1 for i in A] for A in crossing)
        note = f"tight sets {dropped} and {kept} cross within tol {tol:g}; the chain keeps {kept}"
    return FaceDescriptor(
        chain=tuple(tuple(sorted(i for b in blocks[:k] for i in b)) for k in range(1, len(blocks))),
        blocks=blocks,
        dimension=len(active) - len(blocks),
        active=tuple(active),
        note=note,
    )
