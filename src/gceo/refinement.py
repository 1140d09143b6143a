"""Multistage refinement feasibility for growing rate tuples.

A nondecreasing chain of rate tuples R_1 <= ... <= R_M admits an M-stage
scheme in which every stage j attains its own minimal distortion D*(R_j)
if and only if, for every stage j and every nonempty subset A of encoders,

    sum_{i in A} (R_{i,j} - R_{i,j-1})
        >= (1/2) ln(1/D*(R_j))
           - (1/2) ln( 1/sigma_x2
                       + sum_{i in A}    (1 - exp(-2 r*_i(R_{j-1}))) / sigma_n2[i]
                       + sum_{i not in A}(1 - exp(-2 r*_i(R_j)))     / sigma_n2[i] )
           + sum_{i in A} (r*_i(R_j) - r*_i(R_{j-1})),

with stage 0 the all-zero tuple.  The full-set inequality always holds with
equality (the stage sum rates are forced), and the test decomposes exactly
into its adjacent two-stage instances.

No subset is enumerated.  The slack of A is a modular term plus a concave
function of a modular weight, the form of region membership, so the
threshold scan ``polymatroid._scan_min_slack`` finds the worst subset of a
stage in O(L log L): the sets of one threshold sweep and the singletons.
``_stage_min`` is the one evaluation of a stage; a report lists, per
stage, its worst subset and the full set.

The same test has a geometric form: the stage increment must lie on the
dominant face of the conditional rate region whose descriptions are the
test channels of r*(R_j) given the coarser channels of r*(R_{j-1}).
``dominant_face_form`` evaluates that membership through the
conditional-MI engine ``scheduler.gaussian_mi``, one conditional rank
per subset, as an independent cross-check of the inequality form.

``reachable_set_l2`` runs the two-stage test from one start to every node
of a two-encoder rate grid.  What does not depend on the start (each
node's inversion, region tag and CSV row text) is a grid table, kept in a
bounded memo of at most as many nodes in all as the r* cache holds
answers.  A cold map costs one r* per node.  A warm map costs, per node
that dominates the start, its two singleton stage-2 slacks (two
logarithms), which reject most nodes exactly; only the nodes they do not
reject take the stage-2 minimum (``_stage_min``).
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

from .errors import ArgumentError
from .model import CHAIN_DROP, R_MAX, CeoInstance, channel_noise_from_r, precision_weight, rate_floor
from .polymatroid import _scan_min_slack, mask_to_indices
from .inversion import _R_STAR_CACHE_SIZE, OmegaTag, omega_tag, r_star
from .scheduler import Description, gaussian_mi

FEASIBILITY_TOL = 1e-6
# Most nodes a reachability grid may have: no Python list holds more.
MAX_GRID_NODES = sys.maxsize


@dataclass(frozen=True)
class StageSlack:
    stage: int
    subset: tuple[int, ...]
    slack: float


@dataclass(frozen=True)
class RefinementReport:
    feasible: bool
    per_stage: tuple[tuple[StageSlack, ...], ...]
    worst: StageSlack
    r_chain: tuple[tuple[float, ...], ...]
    d_chain: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "worst": {
                "stage": self.worst.stage,
                "subset": [i + 1 for i in self.worst.subset],
                "slack": self.worst.slack,
            },
            "r_chain": [list(r) for r in self.r_chain],
            "d_chain": list(self.d_chain),
            "per_stage": [
                [
                    {"subset": [i + 1 for i in s.subset], "slack": s.slack}
                    for s in stage
                ]
                for stage in self.per_stage
            ],
        }


def _validate_stages(instance: CeoInstance, stages) -> list[tuple[float, ...]]:
    out = []
    for j, stage in enumerate(stages):
        stage = tuple(float(v) for v in stage)
        if len(stage) != instance.L:
            raise ArgumentError(f"stage {j + 1} has length {len(stage)}, expected {instance.L}")
        if any(v < 0.0 or math.isnan(v) for v in stage):
            raise ArgumentError(f"stage {j + 1} has negative or NaN rates")
        if out and any(a > b + CHAIN_DROP for a, b in zip(out[-1], stage)):
            raise ArgumentError(f"stage {j + 1} decreases some rate relative to stage {j}")
        out.append(stage)
    if not out:
        raise ArgumentError("need at least one stage")
    return out


def _weights(instance: CeoInstance, r) -> list[float]:
    """The precision weights of allocation r."""
    return [precision_weight(sn, v) for sn, v in zip(instance.sigma_n2, r)]


def _stage_min(instance: CeoInstance, p0: float, prev, R, inv) -> tuple:
    """The stage inequality from chain point ``prev`` to R: its minimum
    slack over the nonempty subsets, a worst subset, c and the weights of
    r*(R).

    ``prev`` is (R_prev, r*(R_prev), its weights) and ``inv`` the
    inversion of R, or the ``GridNode`` of R, which carries the same
    ``r_star`` and ``d_star``.  The slack of A is
    c(A) + (1/2) ln(m(A) D*(R)), with c_i the rate increment minus the
    allocation increment and the mixed precision
    m(A) = p0 + w_prev(A) + w(A^c), a sum of nonnegative terms: the
    threshold scan's value plus (1/2) ln(D*(R) m(empty)).
    """
    R_prev, r_prev, w_prev = prev
    r = inv.r_star
    w = _weights(instance, r)
    # A rate that stays the same adds nothing, an infinite one included
    # (inf - inf would make the slack NaN).
    c = [(0.0 if a == b else b - a) - (y - x) for a, b, x, y in zip(R_prev, R, r_prev, r)]
    low, worst = _scan_min_slack(c, w_prev, w, p0)
    return low + 0.5 * math.log(inv.d_star * (p0 + sum(w))), worst, c, w


def check_refinement(instance: CeoInstance, stages, tol: float = FEASIBILITY_TOL) -> RefinementReport:
    """Exact feasibility test of a multistage refinement chain.

    Minimizes the stage inequality's slack over the nonempty subsets of
    every stage with the threshold scan (no subset is enumerated);
    feasible iff every minimum is >= -(tol + floor), with floor the
    rounding floor (``model.rate_floor``) of the last stage's rates, the
    largest of a nondecreasing chain (boundary cases count as feasible).
    Each stage reports its worst subset, then the full set, or the full
    set alone when it is the worst subset.
    """
    stages = _validate_stages(instance, stages)
    chain = [(0.0,) * instance.L] + stages
    inversions = [r_star(instance, R) for R in chain]
    p0 = 1.0 / instance.sigma_x2
    prev = (chain[0], inversions[0].r_star, _weights(instance, inversions[0].r_star))
    per_stage = []
    for j in range(1, len(chain)):
        R, inv = chain[j], inversions[j]
        slack, subset, c, w = _stage_min(instance, p0, prev, R, inv)
        # The full set's mixed precision holds the coarser weights alone.
        full = StageSlack(j, tuple(range(instance.L)), sum(c) + 0.5 * math.log(inv.d_star * (p0 + sum(prev[2]))))
        # The scan's minimum can read a few ulps above the full set's own
        # slack; then the full set is the worst subset and is reported
        # alone.  On a tie both rows stay, so ``worst`` keeps the scan's set.
        alone = subset == full.subset or full.slack < slack
        per_stage.append((full,) if alone else (StageSlack(j, subset, slack), full))
        prev = (R, inv.r_star, w)
    worst = min((row for rows in per_stage for row in rows), key=lambda row: row.slack)
    return RefinementReport(
        feasible=worst.slack >= -(tol + rate_floor(stages[-1])),
        per_stage=tuple(per_stage),
        worst=worst,
        r_chain=tuple(inv.r_star for inv in inversions),
        d_chain=tuple(inv.d_star for inv in inversions),
    )


def dominant_face_form(instance: CeoInstance, R_prev, R_next, tol: float = FEASIBILITY_TOL) -> bool:
    """Stage feasibility via conditional-region membership of the increment.

    Builds the fine descriptions of r*(R_next) and the nested coarse
    descriptions of r*(R_prev), computes every conditional subset rank as a
    chain of ``scheduler.gaussian_mi`` step rates, and checks that the rate
    increment sits on the dominant face.  A chain whose allocation is not nested (some r*
    coordinate decreasing) admits no such construction and returns False.
    """
    stages = _validate_stages(instance, [R_prev, R_next])
    R_prev, R_next = stages
    L = instance.L
    r_prev = r_star(instance, R_prev).r_star
    r_next = r_star(instance, R_next).r_star
    if any(b < a - 1e-9 for a, b in zip(r_prev, r_next)):
        return False
    fine = [
        Description(i, channel_noise_from_r(instance, i, r_next[i]), stage=2)
        for i in range(L)
    ]
    coarse = [
        Description(i, channel_noise_from_r(instance, i, min(r_prev[i], r_next[i])), stage=1)
        for i in range(L)
    ]

    def conditional_rank(mask: int) -> float:
        idx = mask_to_indices(mask)
        conditioning = [fine[i] for i in range(L) if not mask >> i & 1] + list(coarse)
        total = 0.0
        for pos, i in enumerate(idx):
            total += gaussian_mi(instance, fine[i], conditioning + [fine[k] for k in idx[:pos]])
        return total

    full = (1 << L) - 1
    increment = [b - a for a, b in zip(R_prev, R_next)]
    if abs(sum(increment) - conditional_rank(full)) > max(tol, 1e-7):
        return False
    for mask in range(1, full + 1):
        lhs = sum(increment[i] for i in mask_to_indices(mask))
        if lhs < conditional_rank(mask) - tol:
            return False
    return True


class GridNode(NamedTuple):
    R: tuple[float, float]
    region: OmegaTag
    d_star: float
    r_star: tuple[float, float]
    reachable: bool


_CSV_HEADER = "R1,R2,region,d_star,r1_star,r2_star,reachable\n"


def _csv_value(r: float) -> str:
    """A finite allocation entry as a CSV field: "CAP" at the cap, else at
    17 significant digits."""
    return "CAP" if r >= R_MAX else "%.17g" % r


def _csv_prefix(node: GridNode) -> str:
    """The CSV fields of a node that do not depend on the start, each
    followed by a comma.  Node coordinates and D* are finite, so "%.17g"
    writes them as the JSON output's ``_fmt`` does."""
    (R1, R2), region, d_star, (r1, r2), _ = node
    return "%.17g,%.17g,%s,%.17g,%s,%s," % (R1, R2, region.value, d_star, _csv_value(r1), _csv_value(r2))


class GridMap(list):
    """A reachability map: the ``GridNode`` of every node in row-major
    order, with the CSV row prefixes of its grid table (a tuple)."""

    def __init__(self, nodes, prefixes: tuple[str, ...]):
        super().__init__(nodes)
        self.prefixes = prefixes

    def csv_chunks(self):
        """The map as ``omega-map`` writes it, 1024 lines of text at a time
        (so no copy of the whole text is held): the header, then each
        node's kept prefix and its reach bit."""
        yield _CSV_HEADER
        lines = zip(self.prefixes, self)
        while chunk := "".join([p + ("1\n" if node.reachable else "0\n") for p, node in islice(lines, 1024)]):
            yield chunk


class _GridTable(NamedTuple):
    """The part of a reachability map that does not depend on the start.

    ``axis[k]`` is the k-th node coordinate along either axis; node (a, b)
    is entry a * n + b of ``nodes`` (its ``GridNode``, unreachable) and of
    ``prefixes`` (its ``_csv_prefix``).
    """

    axis: list[float]
    nodes: list[GridNode]
    prefixes: tuple[str, ...]


# Grid tables kept across maps, least recently used first, keyed by
# (instance, lo, step, n).  They hold at most _KEPT_NODES nodes in all, as
# many as the r* cache holds answers; a larger grid's table is not kept.
_grid_tables: OrderedDict = OrderedDict()
_KEPT_NODES = _R_STAR_CACHE_SIZE


def _grid_table(instance: CeoInstance, lo: float, step: float, n: int) -> _GridTable:
    """The table of the n x n grid from ``lo`` by ``step``: kept, or built
    by one ``r_star`` call and one ``omega_tag`` per node."""
    key = (instance, lo, step, n)
    table = _grid_tables.get(key)
    if table is not None:
        _grid_tables.move_to_end(key)
        return table
    axis, nodes = [], []
    for a in range(n):
        R1 = lo + a * step
        for b in range(n):
            R = (R1, lo + b * step)
            inv = r_star(instance, R)
            nodes.append(GridNode(R, omega_tag(inv.margins, R), inv.d_star, inv.r_star, False))
        axis.append(R1)
    table = _GridTable(axis, nodes, tuple(_csv_prefix(node) for node in nodes))
    if n * n <= _KEPT_NODES:
        kept = n * n + sum(len(t.nodes) for t in _grid_tables.values())
        while kept > _KEPT_NODES:
            kept -= len(_grid_tables.popitem(last=False)[1].nodes)
        _grid_tables[key] = table
    return table


def reachable_set_l2(instance: CeoInstance, R_from, grid, tol: float = FEASIBILITY_TOL) -> GridMap:
    """Reachability map over a rectangular rate grid (two encoders).

    ``grid`` is (min, max, step) applied to both axes: finite entries, a
    positive step, at most ``MAX_GRID_NODES`` nodes and finite node
    coordinates, checked before any node is visited.  Each node R is
    inverted, tagged with its omega region, and tested for two-stage
    refinement feasibility from ``R_from``; nodes that do not dominate
    ``R_from`` are unreachable by definition (stage rates never decrease).
    Nodes are emitted in row-major order (R1 outer, R2 inner).

    This is ``check_refinement([R_from, R])`` at every dominating node,
    evaluated in two parts.  The grid table, which does not depend on the
    start, holds every node's ``GridNode`` fields and CSV row prefix.  It
    is built once per (instance, min, step, node count): one ``r_star``
    call per node, whose two-encoder answer (cached in the r* LRU) carries
    the omega margins, so the region tag is ``omega_tag(inv.margins, R)``
    with no second ``tilde_params`` solve.  Kept tables hold at most as
    many nodes in all as the r* LRU holds answers, least recently used
    dropped first; a larger grid's table is built, used and dropped.  The
    per-start pass validates and inverts ``R_from`` and evaluates stage 1
    (0 -> R_from) once.  A node whose minimum slack, min(stage 1,
    stage 2), is at least -(tol + floor) is reachable, with floor the
    rounding floor of its stage-2 end (``model.rate_floor``): the rule
    ``check_refinement`` applies to the chain's last stage.  A node that
    undershoots ``R_from`` by at most ``CHAIN_DROP`` in some coordinate is
    tested at the coordinatewise maximum, as the chain test would see it.

    Stage 2 of a node is first tested by its two singletons alone, in
    scalar arithmetic: slack({i}) = c_i + (1/2) ln((p0 + u_i + w_j) D*),
    j the other encoder, c as ``_stage_min`` computes it, u the start's
    weights and w and D* the node's.  A singleton below
    cut = -2 (tol + F), F the rounding floor of the grid's top node,
    rejects the node, and exactly so.  The threshold scan evaluates every
    singleton, so its minimum is at most its own value of that singleton,
    which differs from the direct one only in rounding: the same c_i plus
    a few ulps of the slack and of log terms no larger than the node's
    rate sum (its precision is at most exp(2 sum R) / sigma_x2) or 745
    nats (the largest logarithm of a float).  F is RATE_FLOOR (~450 ulps)
    times the clipped rate sum of the top node: at least 1e-13, and 5e-12
    once a rate reaches R_MAX.  Floors never decrease as the rates grow,
    so the cut lies tol + F or more below the node's own threshold
    -(tol + floor): room for that rounding at every tol.  Every node the
    test does not reject, and every node tested at an off-grid target,
    takes the stage-2 minimum through ``_stage_min``, with no rows.  So a
    cold map costs one r* per node, and a warm map per dominating node its
    two precision weights and two logarithms; only a node that passes (a
    few percent of them on the test instances) adds one threshold scan (one
    sort and at most 2L + 1 logarithms) and one more logarithm.
    """
    if instance.L != 2:
        raise ArgumentError("grids are defined for two encoders")
    lo, hi, step = (float(v) for v in grid)
    if not (all(math.isfinite(v) for v in (lo, hi, step)) and step > 0.0 and hi >= lo):
        raise ArgumentError(f"bad grid spec {grid}: need finite min <= max and step > 0")
    span = (hi - lo) / step  # inf when the division overflows
    n = int(round(span)) + 1 if span < MAX_GRID_NODES else MAX_GRID_NODES
    if n * n > MAX_GRID_NODES:
        raise ArgumentError(f"grid {grid} has more than {MAX_GRID_NODES} nodes")
    top = lo + (n - 1) * step
    if not math.isfinite(top):
        raise ArgumentError(f"grid {grid} has a node past the largest float")
    (R_from,) = _validate_stages(instance, [R_from])
    zero, p0 = (0.0, 0.0), 1.0 / instance.sigma_x2
    origin = r_star(instance, zero).r_star
    inv = r_star(instance, R_from)
    stage1, _, _, w_from = _stage_min(instance, p0, (zero, origin, _weights(instance, origin)), R_from, inv)
    start = (R_from, inv.r_star, w_from)
    # The singleton test's cut: a margin of band below the largest
    # threshold of a dominating node, -band, so that it holds the rounding
    # of slacks near -tol as well as that of the log terms (see the
    # docstring).
    band = tol + rate_floor((max(top, R_from[0]), max(top, R_from[1])))
    cut = -2.0 * band
    sn1, sn2 = instance.sigma_n2
    (f1, f2), (s1, s2), (u1, u2) = start
    table = _grid_table(instance, lo, step, n)
    nodes = GridMap(table.nodes, table.prefixes)
    # Node coordinates grow with their index, so the nodes that dominate the
    # start form the rectangle a >= a0, b >= b0.
    a0 = bisect_left(table.axis, R_from[0] - CHAIN_DROP)
    b0 = bisect_left(table.axis, R_from[1] - CHAIN_DROP)
    ys = [max(y, R_from[1]) for y in table.axis[b0:]]
    for a in range(a0, n):
        x = max(table.axis[a], R_from[0])
        for k, y in zip(range(a * n + b0, (a + 1) * n), ys):
            node = nodes[k]
            target = (x, y)
            if target == node.R:
                (r1, r2), d = node.r_star, node.d_star
                w1, w2 = precision_weight(sn1, r1), precision_weight(sn2, r2)
                c1 = (0.0 if f1 == x else x - f1) - (r1 - s1)
                c2 = (0.0 if f2 == y else y - f2) - (r2 - s2)
                if c1 + 0.5 * math.log((p0 + u1 + w2) * d) < cut or c2 + 0.5 * math.log((p0 + w1 + u2) * d) < cut:
                    continue
                inv = node
            else:
                inv = r_star(instance, target)
            if min(stage1, _stage_min(instance, p0, start, target, inv)[0]) >= -(tol + rate_floor(target)):
                nodes[k] = GridNode(node.R, node.region, node.d_star, node.r_star, True)
    return nodes
