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
stage in O(L^2).  A report lists, per stage, that worst subset and the
full set.

The same test has a geometric form: the stage increment must lie on the
dominant face of the conditional rate region whose descriptions are the
test channels of r*(R_j) given the coarser channels of r*(R_{j-1}).
``dominant_face_form`` evaluates that membership through the Gaussian
covariance engine, as an independent cross-check of the inequality form.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ArgumentError
from .model import CeoInstance, exp_neg2r, channel_noise_from_r
from .polymatroid import _scan_min_slack, mask_to_indices
from .inversion import OmegaTag, omega_tag, r_star
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
        if out and any(a > b + 1e-12 for a, b in zip(out[-1], stage)):
            raise ArgumentError(f"stage {j + 1} decreases some rate relative to stage {j}")
        out.append(stage)
    if not out:
        raise ArgumentError("need at least one stage")
    return out


def _stage_end(instance: CeoInstance, R, inv) -> tuple:
    """A chain point as the stage test reads it: R, r*(R), the precision
    weights of r*(R) and D*(R), from the inversion ``inv`` of R."""
    r = inv.r_star
    return R, r, [(1.0 - exp_neg2r(v)) / instance.sigma_n2[i] for i, v in enumerate(r)], inv.d_star


def _stage_rows(p0: float, prev, nxt) -> list:
    """(subset, slack) of the worst subset and of the full set in the
    inequality of the stage between chain points ``prev`` and ``nxt``
    (``_stage_end``), the full set last (alone when it is the worst).

    The slack of A is c(A) + (1/2) ln(m(A) D*(R_j)), with c_i the rate
    increment minus the allocation increment and the mixed precision
    m(A) = p0 + w_prev(A) + w_next(A^c), a sum of nonnegative terms; the
    threshold scan minimizes it.
    """
    (R_prev, r_prev, w_prev, _), (R_next, r_next, w_next, d_next) = prev, nxt
    # A rate that stays the same adds nothing, an infinite one included
    # (inf - inf would make the slack NaN).
    c = [(0.0 if a == b else b - a) - (y - x) for a, b, x, y in zip(R_prev, R_next, r_prev, r_next)]
    low, worst = _scan_min_slack(c, w_prev, w_next, p0)
    full = (tuple(range(len(c))), sum(c) + 0.5 * math.log(d_next * (p0 + sum(w_prev))))
    if worst == full[0]:
        return [full]
    return [(worst, low + 0.5 * math.log(d_next * (p0 + sum(w_next)))), full]


def check_refinement(instance: CeoInstance, stages, tol: float = FEASIBILITY_TOL) -> RefinementReport:
    """Exact feasibility test of a multistage refinement chain.

    Minimizes the stage inequality's slack over the nonempty subsets of
    every stage with the threshold scan (no subset is enumerated);
    feasible iff every minimum is >= -tol (boundary cases count as
    feasible).  Each stage reports its worst subset, then the full set.
    """
    stages = _validate_stages(instance, stages)
    chain = [(0.0,) * instance.L] + stages
    inversions = [r_star(instance, R) for R in chain]
    ends = [_stage_end(instance, R, inv) for R, inv in zip(chain, inversions)]
    p0 = 1.0 / instance.sigma_x2
    per_stage = []
    for j in range(1, len(chain)):
        rows = _stage_rows(p0, ends[j - 1], ends[j])
        per_stage.append(tuple(StageSlack(j, subset, slack) for subset, slack in rows))
    worst = min((row for rows in per_stage for row in rows), key=lambda row: row.slack)
    return RefinementReport(
        feasible=worst.slack >= -tol,
        per_stage=tuple(per_stage),
        worst=worst,
        r_chain=tuple(inv.r_star for inv in inversions),
        d_chain=tuple(inv.d_star for inv in inversions),
    )


def dominant_face_form(instance: CeoInstance, R_prev, R_next, tol: float = FEASIBILITY_TOL) -> bool:
    """Stage feasibility via conditional-region membership of the increment.

    Builds the fine descriptions of r*(R_next) and the nested coarse
    descriptions of r*(R_prev), computes every conditional subset rank with
    the covariance engine, and checks that the rate increment sits on the
    dominant face.  A chain whose allocation is not nested (some r*
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


def reachable_set_l2(instance: CeoInstance, R_from, grid, tol: float = FEASIBILITY_TOL):
    """Reachability map over a rectangular rate grid (two encoders).

    ``grid`` is (min, max, step) applied to both axes: finite entries, a
    positive step, at most ``MAX_GRID_NODES`` nodes and finite node
    coordinates, checked before any node is visited.  Each node R is
    inverted, tagged with its omega region, and tested for two-stage
    refinement feasibility from ``R_from``; nodes that do not dominate
    ``R_from`` are unreachable by definition (stage rates never decrease).
    Nodes are emitted in row-major order (R1 outer, R2 inner).

    Every node is solved once: one ``r_star`` call, whose two-encoder
    answer (cached in the r* LRU) carries the omega margins that
    ``classify_omega`` would compute, so the region tag is
    ``omega_tag(inv.margins)`` with no second ``tilde_params`` solve.

    This is ``check_refinement([R_from, R])`` at every dominating node,
    evaluated in one pass: ``R_from`` is validated and inverted once, and
    stage 1 (0 -> R_from), the same for the whole map, is evaluated once.
    Each dominating node then adds only its stage-2 rows, from its own
    inversion, through the same ``_stage_rows``.  A node that undershoots
    ``R_from`` by at most 1e-12 in some coordinate is tested at the
    coordinatewise maximum, as the chain test would see it.
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
    if not math.isfinite(lo + (n - 1) * step):
        raise ArgumentError(f"grid {grid} has a node past the largest float")
    (R_from,) = _validate_stages(instance, [R_from])
    zero, p0 = (0.0, 0.0), 1.0 / instance.sigma_x2
    origin = _stage_end(instance, zero, r_star(instance, zero))
    start = _stage_end(instance, R_from, r_star(instance, R_from))
    stage1 = min(slack for _, slack in _stage_rows(p0, origin, start))
    nodes = []
    for a in range(n):
        R1 = lo + a * step
        for b in range(n):
            R2 = lo + b * step
            R = (R1, R2)
            inv = r_star(instance, R)
            if R1 >= R_from[0] - 1e-12 and R2 >= R_from[1] - 1e-12:
                target = (max(R1, R_from[0]), max(R2, R_from[1]))
                inv_t = inv if target == R else r_star(instance, target)
                end = _stage_end(instance, target, inv_t)
                stage2 = min(slack for _, slack in _stage_rows(p0, start, end))
                reach = min(stage1, stage2) >= -tol
            else:
                reach = False
            nodes.append(GridNode(R, omega_tag(inv.margins), inv.d_star, inv.r_star, reach))
    return nodes
