"""Contra-polymatroid rate region of a fixed noise allocation.

For an allocation r the achievable rate tuples form

    { R : sum_{i in A} R_i >= f(A, r)  for every nonempty A },

with the supermodular rank function

    f(A, r) = (1/2) ln( precision(r) / precision restricted to A-complement )
              + sum_{i in A} r_i,

where "precision restricted to B" is 1/sigma_x2 + sum_{i in B} w_i and
w_i = (1 - exp(-2 r_i)) / sigma_n2[i].  So f(A, r) = (1/2) ln(1 + w(A)/p)
+ r(A) with p the precision restricted to A's complement: the joint rate
``model.joint_rate``, through which ``rank_f`` goes, and so does the
full-set rank (the dominant face's sum rate) of ``on_dominant_face``.

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
concave term as the infimum of its tangent lines, the minimum is, over
the tangents, a constant plus the nonempty minimum of a modular
function.  That is attained at the function's set of negative terms, a
threshold set {i : c_i < mu w_i} (a prefix of the encoders sorted by
c_i / w_i, plus every zero-weight encoder with c_i < 0; Fujishige,
Submodular Functions and Optimization), or, when it has no negative
term, at a singleton.  So the minimum costs one sort and O(L) more,
O(L log L).

``_scan_min_slack`` is the one engine for these minima.  It takes the
precision as p0 + u(A) + v(A^c), a sum of nonnegative terms: region
membership and the inverse map's reduced regions pass u = 0 and v = w,
and a refinement stage passes the weights of the coarser and the finer
allocation, whose difference may have either sign.  At two members and
u = 0 its candidates are the three nonempty subsets, which
``_reduced_min_slack`` evaluates directly in the scan's arithmetic, to
the bit: the two-encoder inverse map's acceptance rule and membership
take no sort and at most three logarithms.

Faces need no enumeration either.  On the dominant face the group rate
of A never exceeds its unconditioned rank f(I, r) - f(A^c, r), and A is
tight when the two are equal, i.e. when

    g(A) = r(A) - R(A) + (1/2) ln((p0 + w(A)) / p0)

vanishes.  g is modular plus concave of w(A) and >= 0 on the face, so a
tight set minimizes it and, up to ratio ties, is a prefix of the encoders
sorted by (r_i - R_i) / w_i; with positive weights g is strictly
submodular, so every exactly tight set is one.  ``_prefix_values`` is the
one pass over those prefixes: one sort and one ``log1p`` per encoder
gives g of each.  The scheduler's face step cuts its chain from it, with
the base precision p0 of the descriptions decoded so far, and the inverse
map's block search reads its minimum off it (the same g, with the
precision p0 + w(A) inside A).  The scheduler's grow stops take the best
prefix of the same ``_threshold_order``.  Within a caller's tolerance a tight set
need only nearly minimize g and can differ from a prefix in an encoder
whose ratio sits near the threshold.  ``_tight_chain``, which serves only
``identify_face``, also tests every set one encoder away from a prefix,
O(L^2) sets from running sums, so that a face names the near-tight sets
that cross.

Within this module, bitmasks over encoder indices 0..L-1 remain only in
``rank_f`` and ``_tight_chain`` (``mask_to_indices`` also serves the
2^L oracle ``refinement.dominant_face_form``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ArgumentError, ConvergenceError
from .model import CeoInstance, TOL_EQ, _check_allocation, joint_rate, precision_weight, rate_floor


def mask_to_indices(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def rank_f(instance: CeoInstance, r, mask: int) -> float:
    """Rank of subset ``mask``: the joint rate needed by those encoders when
    every other description is already decoded (``model.joint_rate`` over
    1/sigma_x2 plus the complement's weights).  ``mask`` must be a subset
    of the L encoders, 0 <= mask < 2^L."""
    r = _check_allocation(instance, r)
    if not 0 <= mask < 1 << instance.L:
        raise ArgumentError(f"mask must be in [0, 2^{instance.L}), got {mask}")
    sn = instance.sigma_n2
    inside = mask_to_indices(mask)
    outside = [i for i in range(instance.L) if not mask >> i & 1]
    p0 = 1.0 / instance.sigma_x2 + sum(precision_weight(sn[i], r[i]) for i in outside)
    return joint_rate([sn[i] for i in inside], [r[i] for i in inside], p0)


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
    modular d(A), the minimum of its tangent lines; their slopes are -lam
    with lam > 0.  The minimum is therefore the minimum over lam of a
    constant plus the nonempty minimum of the modular function
    sum_{i in A} (c_i - lam d_i), and a modular function's nonempty
    minimum is its set of negative terms when it has one, else its
    smallest singleton.  The negative sets {i : c_i < lam d_i} are the
    d_i = 0 encoders with c_i < 0 plus the rest split by lam: raising lam
    past c_i / d_i lets an encoder with d_i > 0 join and one with d_i < 0
    leave.  So the candidates are the nonempty sets of one sweep over the
    order of c_i / d_i and the n singletons: one sort, O(n log n), and at
    most 2n + 1 logarithms.  When every d_i >= 0 the sweep's sets are the
    prefixes of that order.  A NaN value (c holding both infinities) never
    wins; with none left the minimum is +inf and the set empty.
    """
    n = len(c)
    m_empty = p0 + sum(v)
    # An encoder with d_i = 0 adds u_i = v_i to m whatever A is, so its
    # singleton's value is c_i.  Every other one is (c_i / d_i, i,
    # d_i > 0): before its threshold, one with d_i > 0 is out of A and adds
    # v_i to m, one with d_i < 0 is in and adds c_i and u_i; after it, the
    # reverse.
    still, still_c, still_m = [], 0.0, p0
    alone, alone_at = math.inf, -1
    moving = []
    for i in range(n):
        d = v[i] - u[i]
        if d == 0.0:
            still_m += v[i]
            if c[i] < 0.0:
                still.append(i)
                still_c += c[i]
            if c[i] < alone:
                alone, alone_at = c[i], -2 - i
        else:
            moving.append((c[i] / d, i, d > 0.0))
    moving.sort()  # by c_i / d_i, ties by index
    # tails[k]: for the k-th encoder from the back of the order, the c and
    # m terms of it and of the encoders after it, all before their
    # thresholds, and the v terms of those after it.  Sums run from the
    # front (head) and from the back (tail), so m only ever adds terms
    # >= 0.  ``members`` counts the encoders of the sweep's set.
    tails = [(0.0, 0.0, 0.0)]
    tail_c = tail_m = tail_v = 0.0
    members = len(still)
    for _, i, grows in reversed(moving):
        if grows:
            tails.append((tail_c, tail_m + v[i], tail_v))
            tail_m += v[i]
        else:
            tails.append((tail_c + c[i], tail_m + u[i], tail_v))
            tail_c += c[i]
            tail_m += u[i]
            members += 1
        tail_v += v[i]
    # best_at: the sweep position, or -2 - i for the singleton {i}.  The
    # sweep's sets on either side of i's threshold differ by i alone, so
    # {i} is one of them when the other is empty; it is scanned otherwise,
    # with m = (p0 + v of the encoders before i) + u_i + (v of those after).
    best, best_at = math.inf, -1
    head_c, head_m, head_v = still_c, still_m, still_m
    for passed, (_, i, grows) in enumerate(moving):
        tail_c, tail_m, after_v = tails[len(moving) - passed]
        if members:
            value = head_c + tail_c + 0.5 * math.log((head_m + tail_m) / m_empty)
            if value < best:
                best, best_at = value, passed
        if members > (not grows):
            value = c[i] + 0.5 * math.log((head_v + u[i] + after_v) / m_empty)
            if value < best:
                best, best_at = value, -2 - i
        if grows:
            head_c += c[i]
            head_m += u[i]
            members += 1
        else:
            head_m += v[i]
            members -= 1
        head_v += v[i]
    if members:
        value = head_c + 0.5 * math.log(head_m / m_empty)
        if value < best:
            best, best_at = value, len(moving)
    if alone < best:
        best, best_at = alone, alone_at
    if best_at < 0:
        return best, () if best_at == -1 else (-2 - best_at,)
    inside = still + [i for k, (_, i, grows) in enumerate(moving) if (k < best_at) == grows]
    return best, tuple(sorted(inside))


def _prefix_values(c, w, members, p0: float):
    """(order, values): ``members`` in ``_threshold_order`` and
    g(A) = c(A) + (1/2) log1p(w(A) / p0) of each prefix A of that order,
    the empty prefix first.  One sort and one ``log1p`` per member.

    Needs every w_i >= 0 and p0 > 0.  The same tangent-line argument as in
    ``_scan_min_slack`` makes some minimizer of g a prefix, and the union
    of all minimizers is one too; with positive weights g is strictly
    submodular, so every set with g = 0 is a prefix as well.  The inverse
    map's block search reads the minimum and the longest prefix within its
    tie of it off these values, and the scheduler's face step cuts the
    order at the proper prefixes with |g| within its tie.
    """
    order = _threshold_order(c, w, members)
    values = [0.0]
    acc = w_sum = 0.0
    for i in order:
        acc += c[i]
        w_sum += w[i]
        values.append(acc + 0.5 * math.log1p(w_sum / p0))
    return order, values


def _reduced_min_slack(sn, R, r, p0: float) -> float:
    """``min_slack`` of the region of noises ``sn`` and allocation ``r`` at
    base precision p0 (the prior plus any descriptions already decoded).

    At two members with weights >= 0 the scan's candidates are the three
    nonempty subsets, so they are evaluated directly, in the scan's
    arithmetic: a singleton {i} with w_i > 0 is c_i + (1/2) ln((p0 + w_j) /
    m), m = p0 + (w_0 + w_1), one with w_i = 0 is c_i itself (so a -0.0
    survives), and the full set is c_0 + c_1 + (1/2) ln(p0 / m).  The
    weighted singletons come first, then the zero-weight ones and the full
    set, and a value replaces the minimum only when it is smaller: the
    scan's ties and its -0.0, and a NaN never wins."""
    if len(r) == 2:
        (s0, s1), (R0, R1), (r0, r1) = sn, R, r
        w0, w1 = precision_weight(s0, r0), precision_weight(s1, r1)
        if w0 >= 0.0 and w1 >= 0.0:
            c0, c1 = R0 - r0, R1 - r1
            m = p0 + (w0 + w1)
            low = math.inf
            for value in (
                c0 + 0.5 * math.log((p0 + w1) / m) if w0 > 0.0 else math.inf,
                c1 + 0.5 * math.log((p0 + w0) / m) if w1 > 0.0 else math.inf,
                c0 if w0 == 0.0 else math.inf,
                c1 if w1 == 0.0 else math.inf,
                c0 + c1 + 0.5 * math.log(p0 / m),
            ):
                if value < low:
                    low = value
            return low
    w = [precision_weight(s, v) for s, v in zip(sn, r)]
    return _scan_min_slack([a - b for a, b in zip(R, r)], [0.0] * len(w), w, p0)[0]


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
    R = [float(v) for v in R]
    for i, (R_i, r_i) in enumerate(zip(R, r)):
        if math.isnan(R_i):
            raise ArgumentError(f"rate entries must not be NaN, got R_{i + 1} = nan")
        if math.isnan(R_i - r_i):
            raise ArgumentError(f"R_{i + 1} - r_{i + 1} is undefined ({R_i} - {r_i})")
    return _reduced_min_slack(instance.sigma_n2, R, r, 1.0 / instance.sigma_x2)


def region_check(instance: CeoInstance, r, R, tol: float = TOL_EQ) -> tuple[bool, float]:
    """(contains, slack): the minimum subset-rate slack of R (``min_slack``)
    and whether it is >= -(tol + rate_floor(R)), the rounding floor of
    ``model`` under the caller's tolerance.  A NaN slack raises
    ``ConvergenceError``."""
    slack = min_slack(instance, r, R)
    if slack != slack:
        raise ConvergenceError(f"region slack of R = {tuple(R)} is NaN")
    return slack >= -(tol + rate_floor(R)), slack


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
    """Region membership plus sum-rate equality with the full-set rank
    (``model.joint_rate`` at 1/sigma_x2), both within tol over the rounding
    floor of R."""
    r = _check_allocation(instance, r)
    total = joint_rate(instance.sigma_n2, r, 1.0 / instance.sigma_x2)
    if abs(sum(R) - total) > tol + rate_floor(R):
        return False
    return region_check(instance, r, R, tol)[0]


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
                f"encoder {i + 1} has zero allocation but rate {R[i]}; not on the dominant face"
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
