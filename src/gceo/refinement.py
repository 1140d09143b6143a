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
node's inversion, precision weights, region tag and CSV line) is a grid
table, built in one pass and kept in a bounded memo of its own.  A cold
map solves the minimum-sum-rate allocation and the omega thresholds once
per distinct sum rate, and each node by the two-encoder closed form and
acceptance rule of ``r_star``, without the r* cache, tagged by its
margins to those thresholds.  A warm map costs, per node that
dominates the start, its two singleton stage-2 slacks (two logarithms),
which reject most nodes exactly; only the nodes they do not reject take
the stage-2 minimum (``_stage_min``).
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ArgumentError, ConvergenceError
from .model import (
    CHAIN_DROP, FEASIBILITY_TOL, R_MAX, CeoInstance, _check_allocation, _check_chain, channel_noise_from_r,
    precision_weight, rate_floor,
)
from .polymatroid import _scan_min_slack, mask_to_indices
from .inversion import OmegaTag, _margins, _solve_l2, _threshold_sum, _thresholds, omega_tag, r_star
from .scheduler import Description, gaussian_mi

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
    set alone when it is the worst subset.  A NaN slack raises
    ``ConvergenceError``.
    """
    stages = _check_chain(instance, stages, "stage")
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
        if slack != slack or full.slack != full.slack:
            raise ConvergenceError(f"stage {j} has a NaN slack")
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


def dominant_face_form(instance: CeoInstance, R_prev, R_next) -> bool:
    """Stage feasibility via conditional-region membership of the increment.

    Builds the fine descriptions of r*(R_next) and the nested coarse
    descriptions of r*(R_prev), computes every conditional subset rank as a
    chain of ``scheduler.gaussian_mi`` step rates, and checks that the rate
    increment sits on the dominant face, to ``model.FEASIBILITY_TOL``.  A
    chain whose allocation is not nested (some r* coordinate decreasing)
    admits no such construction and returns False.
    """
    stages = _check_chain(instance, [R_prev, R_next], "stage")
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
    if abs(sum(increment) - conditional_rank(full)) > FEASIBILITY_TOL:
        return False
    for mask in range(1, full + 1):
        lhs = sum(increment[i] for i in mask_to_indices(mask))
        if lhs < conditional_rank(mask) - FEASIBILITY_TOL:
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


class GridMap(list):
    """A reachability map: the ``GridNode`` of every node in row-major
    order, with a list of their CSV lines."""

    def __init__(self, nodes, lines):
        super().__init__(nodes)
        self.lines = list(lines)

    def csv_chunks(self):
        """The map as ``omega-map`` writes it, 1024 lines of text at a time
        (so no copy of the whole text is held): the header, then each
        node's line."""
        yield _CSV_HEADER
        for k in range(0, len(self.lines), 1024):
            yield "".join(self.lines[k : k + 1024])


class _GridTable(NamedTuple):
    """The part of a reachability map that does not depend on the start.

    ``axis[k]`` is the k-th node coordinate along either axis; node (a, b)
    is entry a * n + b of ``nodes`` (its ``GridNode``, unreachable), of
    ``weights`` (the precision weights of its r*) and of ``lines`` (its
    CSV line, reachable bit 0).
    """

    axis: list[float]
    nodes: list[GridNode]
    weights: list[tuple[float, float]]
    lines: list[str]


# Grid tables kept across maps, least recently used first, keyed by
# (instance, lo, step, n).  They hold at most _KEPT_NODES nodes in all,
# about 570 bytes each (under 40 MB); a larger grid's table is not kept.
_grid_tables: OrderedDict = OrderedDict()
_KEPT_NODES = 65536


def _grid_table(instance: CeoInstance, lo: float, step: float, n: int) -> _GridTable:
    """The table of the n x n grid from ``lo`` by ``step``: kept, or built
    node by node in one pass.

    Node coordinates only grow from the first node (lo, lo), so its check
    (``model._check_allocation``, the one ``r_star`` makes) holds for all
    of them.  A pair enters the minimum-sum-rate allocation and the omega
    thresholds (``inversion._thresholds``) only through its sum, so they are
    solved once per distinct float sum rate; each node then takes the
    two-encoder solve that ``r_star`` runs (``inversion._solve_l2``), its
    acceptance rule included, and one ``omega_tag`` of its margins to
    those thresholds (``inversion._margins``).  The row and column
    coordinates are written once each, the columns while the first row is
    built.  Nothing is built ahead of the node that needs it.
    """
    key = (instance, lo, step, n)
    table = _grid_tables.get(key)
    if table is not None:
        _grid_tables.move_to_end(key)
        return table
    _check_allocation(instance, (lo, lo), "rate vector")
    sn1, sn2 = instance.sigma_n2
    table = _GridTable([], [], [], [])
    axis, nodes, weights, lines = table
    columns, sums = [], {}
    for a in range(n):
        R1 = lo + a * step
        row = "%.17g" % R1
        for b in range(n):
            R = (R1, lo + b * step)
            if not a:
                columns.append("%.17g" % R[1])
            total = _threshold_sum(R)
            tilde = sums.get(total)
            if tilde is None:
                tilde = sums[total] = _thresholds(instance, total)
            inv = _solve_l2(instance, R, *tilde)
            region = omega_tag(_margins(instance, R, tilde[1]), R)
            (r1, r2), d = inv.r_star, inv.d_star
            nodes.append(GridNode(R, region, d, inv.r_star, False))
            weights.append((precision_weight(sn1, r1), precision_weight(sn2, r2)))
            # Node coordinates and D* are finite, so "%.17g" writes them as
            # the JSON output's ``_fmt`` does.
            lines.append("%s,%s,%s,%.17g,%s,%s,0\n" % (row, columns[b], region.value, d, _csv_value(r1), _csv_value(r2)))
        axis.append(R1)
    if n * n <= _KEPT_NODES:
        kept = n * n + sum(len(t.nodes) for t in _grid_tables.values())
        while kept > _KEPT_NODES:
            kept -= len(_grid_tables.popitem(last=False)[1].nodes)
        _grid_tables[key] = table
    return table


def _node_or_r_star(instance: CeoInstance, table: _GridTable, R):
    """The table's ``GridNode`` at R when R is a grid node, else
    ``r_star(R)``; either carries R's ``r_star`` and ``d_star``."""
    axis = table.axis
    a, b = (bisect_left(axis, v) for v in R)
    if a < len(axis) and b < len(axis) and axis[a] == R[0] and axis[b] == R[1]:
        return table.nodes[a * len(axis) + b]
    return r_star(instance, R)


def reachable_set_l2(instance: CeoInstance, R_from, grid, tol: float = FEASIBILITY_TOL) -> GridMap:
    """Reachability map over a rectangular rate grid (two encoders).

    ``grid`` is (min, max, step) applied to both axes: finite entries, a
    positive step, at most ``MAX_GRID_NODES`` nodes, finite node
    coordinates and a first node that ``r_star`` accepts, checked before
    any node is visited.  Each node R is inverted, tagged with its omega
    region, and tested for two-stage refinement feasibility from
    ``R_from``; nodes that do not dominate ``R_from`` are unreachable by
    definition (stage rates never decrease).  Nodes are emitted in
    row-major order (R1 outer, R2 inner).

    This is ``check_refinement([R_from, R])`` at every dominating node,
    evaluated in two parts.  The grid table (``_grid_table``), which does
    not depend on the start, holds every node's ``GridNode`` fields, the
    precision weights of its r* and its CSV line.  It is built once per
    (instance, min, step, node count) in one pass: the first node's check
    stands for all nodes, the minimum-sum-rate allocation and the omega
    thresholds are solved once per distinct sum rate, and each node takes
    the two-encoder solve of ``r_star`` and the region tag of its margins
    to those thresholds.  Kept tables hold at most ``_KEPT_NODES`` nodes
    in all, least recently used dropped first; a larger grid's table is
    built, used and dropped.  The per-start pass validates ``R_from``,
    reads its answer from the table (``r_star`` where it is no grid node)
    and evaluates stage 1 (0 -> R_from) once, from the origin's zero
    allocation.  A node whose minimum slack, min(stage 1, stage 2), is at
    least -(tol + floor) is reachable, with floor the rounding floor of
    its stage-2 end (``model.rate_floor``): the rule ``check_refinement``
    applies to the chain's last stage.  A node that undershoots ``R_from`` by at most
    ``CHAIN_DROP`` in some coordinate is tested at the coordinatewise
    maximum, as the chain test would see it.

    Stage 2 of a node is first tested by its two singletons alone, in
    scalar arithmetic: slack({i}) = c_i + (1/2) ln((p0 + u_i + w_j) D*),
    j the other encoder, c as ``_stage_min`` computes it, u the start's
    weights and w (kept in the table) and D* the node's.  A singleton
    below cut = -2 (tol + F), F the rounding floor of the grid's top
    node, rejects the node, and exactly so.  The threshold scan evaluates
    every singleton, so its minimum is at most its own value of that singleton,
    which differs from the direct one only in rounding: the same c_i plus
    a few ulps of the slack and of log terms no larger than the node's
    rate sum (its precision is at most exp(2 sum R) / sigma_x2) or 745
    nats (the largest logarithm of a float).  F is RATE_FLOOR (~450 ulps)
    times the clipped rate sum of the top node: at least 1e-13, and 5e-12
    once a rate reaches R_MAX.  Floors never decrease as the rates grow,
    so the cut lies tol + F or more below the node's own threshold
    -(tol + floor): room for that rounding at every tol.  Every node the
    test does not reject, and every node tested at an off-grid target,
    takes the stage-2 minimum through ``_stage_min``, with no rows.  The
    rate increments x - R_from[0] of a row and y - R_from[1] of a column
    are formed once each, and p0 + u_1 once per map, in the order of the
    formula above; a node is its own target when both its row and its
    column are, and then no target tuple is built.  So a warm map costs
    per dominating node two logarithms and a few additions; only a node
    that passes (a few percent of them on the test instances) adds one
    threshold scan (one sort and at most 2L + 1 logarithms) and one more
    logarithm, and only its CSV line is rewritten, in its last field.
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
    (R_from,) = _check_chain(instance, [R_from], "stage")
    table = _grid_table(instance, lo, step, n)
    zero, p0 = (0.0, 0.0), 1.0 / instance.sigma_x2
    inv = _node_or_r_star(instance, table, R_from)
    # Stage 1 starts at the origin, whose r* and weights are zero.
    stage1, _, _, w_from = _stage_min(instance, p0, (zero, zero, zero), R_from, inv)
    start = (R_from, inv.r_star, w_from)
    # The singleton test's cut: a margin of band below the largest
    # threshold of a dominating node, -band, so that it holds the rounding
    # of slacks near -tol as well as that of the log terms (see the
    # docstring).
    band = tol + rate_floor((max(top, R_from[0]), max(top, R_from[1])))
    cut = -2.0 * band
    (f1, f2), (s1, s2), (u1, u2) = start
    axis, weights = table.axis, table.weights
    nodes = GridMap(table.nodes, table.lines)
    # Node coordinates grow with their index, so the nodes that dominate the
    # start form the rectangle a >= a0, b >= b0.
    a0 = bisect_left(axis, R_from[0] - CHAIN_DROP)
    b0 = bisect_left(axis, R_from[1] - CHAIN_DROP)
    # Per column: the target's R2 (the start's where it exceeds the node's),
    # whether that is the node's own, and its rate increment from the start.
    columns = []
    for v in axis[b0:]:
        y = max(v, f2)
        columns.append((y, y == v, 0.0 if f2 == y else y - f2))
    pu1 = p0 + u1
    for a in range(a0, n):
        x = max(axis[a], f1)
        on_row, dx = x == axis[a], 0.0 if f1 == x else x - f1
        for k, (y, on_column, dy) in zip(range(a * n + b0, (a + 1) * n), columns):
            if on_row and on_column:
                inv = nodes[k]
                (r1, r2), d = inv.r_star, inv.d_star
                w1, w2 = weights[k]
                c1 = dx - (r1 - s1)
                c2 = dy - (r2 - s2)
                if c1 + 0.5 * math.log((pu1 + w2) * d) < cut or c2 + 0.5 * math.log((p0 + w1 + u2) * d) < cut:
                    continue
                target = inv.R
            else:
                target = (x, y)
                inv = r_star(instance, target)
            if min(stage1, _stage_min(instance, p0, start, target, inv)[0]) >= -(tol + rate_floor(target)):
                node = nodes[k]
                nodes[k] = GridNode(node.R, node.region, node.d_star, node.r_star, True)
                nodes.lines[k] = nodes.lines[k][:-2] + "1\n"
    return nodes
