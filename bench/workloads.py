"""The three benchmark workloads: seeded inputs, operations and oracles.

Every workload yields *rounds* of operations drawn from the seed.  A round
has a fixed composition, so runs with different seeds do the same mix of
work on different inputs.  An operation's ``run`` does its timed calls
through ``Session.call`` and does its own untimed bookkeeping (parsing,
deriving the next input) between them; ``check`` compares the outcome
with an oracle independent of the timed path and returns a failure
message, or None.  Neither ``check`` nor input generation is timed or
traced.

Oracle tolerances (see also the ``why`` lines of BENCHMARK.json):

* grid-map: criterion-9 invariants on every node (header, node count,
  grid coordinates, the three regions present, reachable only when the
  node dominates the start, opposite-region nodes unreachable, the frozen
  ray inside the start's region reachable); on GRID_SAMPLES seeded nodes
  per map, the region tag consistent with ``omega_margins`` and, where
  the node dominates the start, the reachable bit equal to the
  covariance-engine ``dominant_face_form`` verdict; on a seeded 1 in
  GRID_BISECT_EVERY maps, r* within 1e-4 and d* within 1e-6 (relative) of
  ``r_star(..., method="bisection")`` at the first sampled node.
* inverse-map: boundary vertices round-trip with max |r* - r| <= 1e-5 and
  |d* - D(r)| <= 1e-6 (criterion 3); every answer has recomputed residual
  <= 1e-6; dominant-face interior points pass ``uniqueness_probe``.
* design-pipeline: ``kkt_residual`` <= 1e-8, precision of the allocation
  within 1e-9 (relative) of 1/D, region slacks within 1e-9 of a numpy
  subset oracle and exit codes matching its verdict, face structure
  identities, per-encoder schedule rate sums within 1e-7, at most 2L-1
  steps, and Monte Carlo |z| <= 6.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from itertools import permutations
from time import perf_counter
from typing import Callable

import numpy as np

from gceo import cli, inversion, polymatroid, refinement
from gceo.hyperplane import HyperplaneResult, kkt_residual
from gceo.model import CeoInstance, R_MAX, d_min

GRID_STEP = 0.1
GRID_MAX = 3.0
GRID_SAMPLES = 4
GRID_BISECT_EVERY = 16
SIM_SAMPLES = 100_000
# Large-L membership checks ride along with each design (2^L subsets).
BIG_SIZES = (8, 9, 10, 11, 12)
DESIGN_SIZES = (2, 3, 4, 5, 6)
# inverse-map round: the L=4 enumeration class holds the median, the L=5
# bisection class holds the tail.
INVERSE_MIX = ((3, 2), (4, 10), (5, 2))

# The two-encoder instances of the test suite (sym2 and ASYM_INSTANCES).
GRID_INSTANCES = (
    CeoInstance(1.0, (1.0, 1.0)),
    CeoInstance(1.0, (0.6, 1.7)),
    CeoInstance(2.0, (0.5, 2.0)),
    CeoInstance(0.8, (1.3, 0.9)),
)


class OpFailed(Exception):
    """An operation's answer or exit code contradicts its oracle."""


class Session:
    """Times the calls an operation makes into gceo.

    ``busy`` accumulates their wall time; ``cache_hits`` and
    ``cache_lookups`` accumulate r_star LRU deltas over them.  With a
    tracer, spans are recorded only inside these calls.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.busy = 0.0
        self.cache_hits = 0
        self.cache_lookups = 0

    def call(self, fn, *args):
        info = inversion._r_star_cached.cache_info
        before = info()
        if self.tracer is not None:
            self.tracer.active = True
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self.busy += perf_counter() - t0
            if self.tracer is not None:
                self.tracer.active = False
            after = info()
            self.cache_hits += after.hits - before.hits
            self.cache_lookups += after.hits + after.misses - before.hits - before.misses

    def cli(self, argv) -> tuple[int, str]:
        """Run one in-process CLI command; (exit code, stdout)."""
        buf = io.StringIO()

        def invoke():
            with contextlib.redirect_stdout(buf):
                return cli.main(argv)

        code = self.call(invoke)
        return code, buf.getvalue()


@dataclass
class Op:
    """One user-visible operation.

    ``run(session)`` returns the answer; ``check(answer)`` returns None or
    a failure message.  ``known_defect`` marks the ROADMAP item 1 repro.
    """

    kind: str
    run: Callable
    check: Callable
    known_defect: bool = False
    grid_nodes: int = 0


# ----------------------------------------------------------------------
# Shared input generators and oracles.
# ----------------------------------------------------------------------


def random_instance(rng, L) -> CeoInstance:
    return CeoInstance(
        float(rng.uniform(0.5, 2.0)),
        tuple(float(v) for v in rng.uniform(0.3, 3.0, L)),
    )


def boundary_vertex(instance, r):
    """Vertex of r's region on the distortion boundary (round-trips through r*).

    The decode order lists the water-filling constants sigma_n2[i] *
    exp(2 r_i) increasingly along pi, so the largest is decoded first.
    """
    K = [instance.sigma_n2[i] * math.exp(2.0 * r[i]) for i in range(instance.L)]
    return polymatroid.vertex(instance, r, tuple(sorted(range(instance.L), key=lambda i: K[i])))


def dominant_face_point(instance, r, rng, max_vertices=12):
    """Random convex combination of (up to ``max_vertices``) vertices of r's region."""
    L = instance.L
    orders = list(permutations(range(L)))
    if len(orders) > max_vertices:
        picks = rng.choice(len(orders), size=max_vertices, replace=False)
        orders = [orders[int(k)] for k in picks]
    vs = np.array([polymatroid.vertex(instance, r, pi) for pi in orders])
    wts = rng.dirichlet(np.ones(len(vs)))
    return tuple(float(v) for v in wts @ vs)


def _weights(instance, r) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    e = np.where(r >= R_MAX, 0.0, np.exp(-2.0 * np.minimum(r, R_MAX)))
    return (1.0 - e) / np.asarray(instance.sigma_n2)


def subset_slack(instance, r, R) -> float:
    """min over nonempty A of sum_A R - f(A, r), by explicit numpy enumeration."""
    L = instance.L
    masks = ((np.arange(1, 1 << L)[:, None] >> np.arange(L)) & 1).astype(bool)
    w = _weights(instance, r)
    p0 = 1.0 / instance.sigma_x2
    p_all = p0 + w.sum()
    p_comp = p0 + (~masks).astype(float) @ w
    rank = 0.5 * np.log(p_all / p_comp) + masks.astype(float) @ np.asarray(r, dtype=float)
    return float((masks.astype(float) @ np.asarray(R, dtype=float) - rank).min())


def inversion_residual(instance, R, r_star, d_star) -> float:
    """Recomputed residual of an (r*, D*) answer for finite positive rates.

    Max of the precision gap |1 - D* precision(r*)|, the sum-rate identity
    gap, and the region-membership violation of R under r*.
    """
    p = 1.0 / instance.sigma_x2 + float(_weights(instance, r_star).sum())
    precision_gap = abs(1.0 - d_star * p)
    sum_gap = abs(sum(R) - 0.5 * math.log(instance.sigma_x2 * p) - sum(r_star))
    return max(precision_gap, sum_gap, max(0.0, -subset_slack(instance, r_star, R)))


def _vec(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _write_instance(workdir, name, instance) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump(instance.to_dict(), fh)
    return path


# ----------------------------------------------------------------------
# grid-map: the documented reachability-map use, four instances.
# ----------------------------------------------------------------------


def _sorted_pair(instance):
    return (0, 1) if instance.sigma_n2[0] <= instance.sigma_n2[1] else (1, 0)


def _grid_start(instance, rng, want):
    """Grid node strictly inside region ``want`` with both rates positive.

    The start is also drawn so that 45-55% of the grid dominates it: a map
    tests refinement only at dominating nodes, so this keeps the work per
    map alike across seeds.
    """
    n = int(round(GRID_MAX / GRID_STEP)) + 1
    for _ in range(100_000):
        i, j = (int(v) for v in rng.integers(2, n, size=2))
        if not 0.45 <= (n - i) * (n - j) / (n * n) <= 0.55:
            continue
        s = (i * GRID_STEP, j * GRID_STEP)
        m1, m2 = inversion.omega_margins(instance, s)
        if want == "OMEGA1" and m1 > 1e-3 and m2 < -1e-3:
            return s
        if want == "OMEGA2" and m2 > 1e-3 and m1 < -1e-3:
            return s
    raise RuntimeError(f"no {want} start for {instance}")


def check_grid_map(instance, start, csv_text, samples, bisect=True) -> str | None:
    """Criterion-9 invariants on every node plus seeded sampled nodes.

    With ``bisect``, the first sampled node is also solved by the general
    solver; that solve costs about as much as two warm maps, so the
    workload asks for it on a seeded 1 in GRID_BISECT_EVERY maps.
    """
    n = int(round(GRID_MAX / GRID_STEP)) + 1
    rows = csv_text.strip().splitlines()
    if not rows or rows[0] != "R1,R2,region,d_star,r1_star,r2_star,reachable":
        return "bad CSV header"
    if len(rows) != 1 + n * n:
        return f"{len(rows) - 1} nodes, expected {n * n}"
    a, b = _sorted_pair(instance)
    tag0 = "OMEGA1" if inversion.omega_margins(instance, start)[0] > 0.0 else "OMEGA2"
    frozen = a if tag0 == "OMEGA1" else b
    opposite = "OMEGA2" if tag0 == "OMEGA1" else "OMEGA1"
    nodes = []
    seen = set()
    for k, line in enumerate(rows[1:]):
        R1s, R2s, region, ds, r1s, r2s, reach = line.split(",")
        R = (float(R1s), float(R2s))
        if R != ((k // n) * GRID_STEP, (k % n) * GRID_STEP):
            return f"node {k} at {R} is off the grid"
        if reach not in ("0", "1"):
            return f"node {R}: reachable field {reach!r}"
        reachable = reach == "1"
        dominates = R[0] >= start[0] and R[1] >= start[1]
        if reachable and not dominates:
            return f"node {R} reachable but does not dominate the start {start}"
        if reachable and region == opposite:
            return f"node {R} in {opposite} reachable from a {tag0} start"
        if region == tag0 and R[frozen] == start[frozen] and dominates and not reachable:
            return f"ray node {R} inside {tag0} not reachable"
        r_star = tuple(R_MAX if v == "CAP" else float(v) for v in (r1s, r2s))
        nodes.append((R, region, float(ds), r_star, reachable))
        seen.add(region)
    if not {"OMEGA1", "OMEGA2", "OMEGA3"} <= seen:
        return f"regions present {sorted(seen)}"
    for k in samples:
        R, region, ds, r_star, reachable = nodes[k]
        if bisect and k == samples[0]:
            ref = inversion.r_star(instance, R, method="bisection")
            gap = max(abs(x - y) for x, y in zip(r_star, ref.r_star))
            if gap > 1e-4 or abs(ds - ref.d_star) > 1e-6 * ref.d_star:
                return f"node {R}: r* {r_star} d* {ds} vs bisection {ref.r_star} {ref.d_star}"
        m1, m2 = inversion.omega_margins(instance, R)
        if m1 > 1e-7 and m2 > 1e-7:
            return f"node {R}: both omega margins positive"
        if (region == "OMEGA1" and not m1 > 0.0) or (region == "OMEGA2" and not m2 > 0.0):
            return f"node {R}: tag {region} but margins {m1:.3e}, {m2:.3e}"
        if region == "OMEGA3" and not (m1 < 0.0 and m2 < 0.0):
            return f"node {R}: tag OMEGA3 but margins {m1:.3e}, {m2:.3e}"
        if R[0] >= start[0] and R[1] >= start[1]:
            expect = refinement.dominant_face_form(instance, start, R)
            if reachable != expect:
                return f"node {R}: reachable={reachable}, dominant-face form says {expect}"
    return None


def grid_map_rounds(rng, workdir):
    """Round: one omega-map per instance, starts alternating OMEGA1/OMEGA2."""
    paths = [_write_instance(workdir, f"grid{k}.json", inst) for k, inst in enumerate(GRID_INSTANCES)]
    csv_path = os.path.join(workdir, "map.csv")
    n = int(round(GRID_MAX / GRID_STEP)) + 1
    grid = f"0,{GRID_MAX!r},{GRID_STEP!r}"
    count = 0
    while True:
        ops = []
        for inst, path in zip(GRID_INSTANCES, paths):
            want = "OMEGA1" if count % 2 == 0 else "OMEGA2"
            count += 1
            start = _grid_start(inst, rng, want)
            i0, j0 = (int(round(v / GRID_STEP)) for v in start)
            dominating = [i * n + j for i in range(i0, n) for j in range(j0, n)]
            picks = [dominating[int(k)] for k in rng.choice(len(dominating), GRID_SAMPLES - 1, replace=False)]
            samples = tuple(picks + [int(rng.integers(n * n))])
            argv = ["omega-map", "--instance", path, "--from", _vec(start), "--grid", grid, "--output", csv_path]
            bisect = int(rng.integers(GRID_BISECT_EVERY)) == 0
            check = _grid_check(inst, start, samples, bisect)
            ops.append(Op("omega-map", _grid_run(argv, csv_path), check, grid_nodes=n * n))
        yield ops


def _grid_run(argv, csv_path):
    def run(session):
        code, _ = session.cli(argv)
        if code != 0:
            raise OpFailed(f"omega-map exit {code}")
        with open(csv_path) as fh:
            return fh.read()

    return run


def _grid_check(instance, start, samples, bisect):
    return lambda csv_text: check_grid_map(instance, start, csv_text, samples, bisect)


# ----------------------------------------------------------------------
# inverse-map: distinct r_star library queries, no input reuse.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class InverseQuery:
    instance: CeoInstance
    R: tuple
    r_true: tuple | None  # set for boundary vertices, which must round-trip


def repro_l7() -> InverseQuery:
    """ROADMAP open item 1: L=7 boundary vertex that the bisection path misses."""
    rng = np.random.default_rng(3)
    L = 7
    sigma_x2 = float(rng.uniform(0.5, 2.0))
    sigma_n2 = tuple(float(v) for v in rng.uniform(0.3, 3.0, L))
    r = tuple(float(v) for v in rng.uniform(0.1, 2.0, L))
    instance = CeoInstance(sigma_x2, sigma_n2)
    return InverseQuery(instance, boundary_vertex(instance, r), r)


def check_inverse(query: InverseQuery, result) -> str | None:
    inst, R = query.instance, query.R
    if result.residuals > 1e-6:
        return f"reported residual {result.residuals:.3e}"
    residual = inversion_residual(inst, R, result.r_star, result.d_star)
    if residual > 1e-6:
        return f"recomputed residual {residual:.3e}"
    if query.r_true is not None:
        gap = max(abs(a - b) for a, b in zip(result.r_star, query.r_true))
        d_true = 1.0 / (1.0 / inst.sigma_x2 + float(_weights(inst, query.r_true).sum()))
        if gap > 1e-5 or abs(result.d_star - d_true) > 1e-6:
            return f"round trip max |r* - r| = {gap:.3e}, |d* - D(r)| = {abs(result.d_star - d_true):.3e}"
    elif not inversion.uniqueness_probe(inst, R, result):
        return "uniqueness probe found a better neighbour"
    return None


def _inverse_op(query, known_defect=False):
    def run(session):
        return session.call(inversion.r_star, query.instance, query.R)

    return Op(
        f"r_star L={query.instance.L}",
        run,
        lambda result: check_inverse(query, result),
        known_defect=known_defect,
    )


def inverse_map_rounds(rng, workdir):
    """Round: INVERSE_MIX queries, shuffled; the L=7 repro opens the first round.

    Within each size the queries alternate between boundary vertices
    (round trip) and dominant-face interior points (residual + probe).
    """
    counters = {L: 0 for L, _ in INVERSE_MIX}
    head = [_inverse_op(repro_l7(), known_defect=True)]
    while True:
        ops = []
        for L, count in INVERSE_MIX:
            for _ in range(count):
                inst = random_instance(rng, L)
                r = tuple(float(v) for v in rng.uniform(0.05, 2.5, L))
                if counters[L] % 2 == 0:
                    query = InverseQuery(inst, boundary_vertex(inst, r), r)
                else:
                    query = InverseQuery(inst, dominant_face_point(inst, r, rng), None)
                counters[L] += 1
                ops.append(_inverse_op(query))
        yield head + [ops[int(k)] for k in rng.permutation(len(ops))]
        head = []


# ----------------------------------------------------------------------
# design-pipeline: hyperplane -> region check/face -> schedule -> simulate.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Design:
    instance: CeoInstance
    path: str
    alpha: tuple
    D: float
    point_seed: int
    sim_seed: int
    big: CeoInstance
    big_path: str
    big_r: tuple
    big_R: tuple


@dataclass
class DesignOutcome:
    hyper: dict = field(default_factory=dict)
    R: tuple = ()
    check: tuple = ()
    face: dict = field(default_factory=dict)
    schedule: dict = field(default_factory=dict)
    sim: dict = field(default_factory=dict)
    big: tuple = ()


def _json_cli(session, argv, expect=0):
    code, out = session.cli(argv)
    if code != expect:
        raise OpFailed(f"{argv[0]} exit {code}, expected {expect}")
    return json.loads(out)


def run_design(design: Design, session) -> DesignOutcome:
    inst, f = design.instance, design.path
    out = DesignOutcome()
    out.hyper = _json_cli(session, ["hyperplane", "--instance", f, "--alpha", _vec(design.alpha), "--D", repr(design.D)])
    r = out.hyper["r_star"]
    out.R = dominant_face_point(inst, r, np.random.default_rng(design.point_seed))
    rs, Rs = _vec(r), _vec(out.R)
    code, text = session.cli(["region", "check", "--instance", f, "--r", rs, "--R", Rs])
    out.check = (code, json.loads(text))
    out.face = _json_cli(session, ["region", "face", "--instance", f, "--r", rs, "--R", Rs])
    out.schedule = _json_cli(session, ["schedule", "--instance", f, "--r", rs, "--R", Rs])
    out.sim = _json_cli(
        session,
        ["simulate", "--instance", f, "--r", rs, "--n", str(SIM_SAMPLES), "--seed", str(design.sim_seed)],
    )
    code, text = session.cli(
        ["region", "check", "--instance", design.big_path, "--r", _vec(design.big_r), "--R", _vec(design.big_R)]
    )
    out.big = (code, json.loads(text))
    return out


def check_design(design: Design, out: DesignOutcome) -> str | None:
    inst, L = design.instance, design.instance.L
    h = out.hyper
    r = tuple(h["r_star"])
    result = HyperplaneResult(
        alpha=tuple(h["alpha"]),
        nu=h["nu"],
        r_star=r,
        phi=h["phi"],
        contact_vertex=tuple(h["contact_vertex"]),
        pi_star=tuple(i - 1 for i in h["pi_star"]),
    )
    kkt = kkt_residual(inst, design.alpha, design.D, result)
    if kkt > 1e-8:
        return f"hyperplane KKT residual {kkt:.3e}"
    p = 1.0 / inst.sigma_x2 + float(_weights(inst, r).sum())
    if abs(p * design.D - 1.0) > 1e-9:
        return f"hyperplane allocation precision {p} vs 1/D {1.0 / design.D}"

    code, payload = out.check
    slack = subset_slack(inst, r, out.R)
    if code != 0 or payload["contains"] is not True or abs(payload["slack"] - slack) > 1e-9:
        return f"dominant-face point: exit {code}, {payload}, oracle slack {slack:.3e}"

    active = [i + 1 for i in range(L) if r[i] > 0.0]
    face = out.face
    blocks = [i for blk in face["blocks"] for i in blk]
    if sorted(blocks) != active or face["active"] != active:
        return f"face blocks {face['blocks']} do not partition active encoders {active}"
    if face["dimension"] != len(active) - len(face["chain"]) - 1:
        return f"face dimension {face['dimension']} vs chain {face['chain']}"

    steps = out.schedule["steps"]
    sums = [0.0] * L
    for step in steps:
        sums[step["encoder"] - 1] += step["rate"]
    worst = max(abs(a - b) for a, b in zip(sums, out.R))
    if worst > 1e-7:
        return f"schedule per-encoder rate sums off by {worst:.3e}"
    if out.schedule["total_steps"] != len(steps) or len(steps) > 2 * L - 1:
        return f"schedule has {len(steps)} steps (claims {out.schedule['total_steps']}), bound {2 * L - 1}"

    sim = out.sim
    z = max(abs(v) for v in sim["z_scores"])
    if z > 6.0:
        return f"Monte Carlo |z| = {z:.2f}"
    if abs(sim["analytic_d"][0] * p - 1.0) > 1e-9:
        return f"simulated analytic distortion {sim['analytic_d'][0]} vs allocation {1.0 / p}"

    code, payload = out.big
    slack = subset_slack(design.big, design.big_r, design.big_R)
    if code != (0 if slack > 0.0 else 1) or abs(payload["slack"] - slack) > 1e-9:
        return f"L={design.big.L} region check: exit {code}, slack {payload['slack']} vs oracle {slack:.6e}"
    return None


def _design(rng, workdir, L, big_L, inside, tag) -> Design:
    inst = random_instance(rng, L)
    alpha = tuple(float(v) for v in rng.uniform(0.1, 1.0, L))
    lo, hi = 1.0 / inst.sigma_x2, 1.0 / d_min(inst, L)
    D = 1.0 / (lo + float(rng.uniform(0.1, 0.8)) * (hi - lo))
    big = random_instance(rng, big_L)
    big_r = tuple(float(v) for v in rng.uniform(0.1, 2.0, big_L))
    vertex = polymatroid.vertex(big, big_r, tuple(int(v) for v in rng.permutation(big_L)))
    if inside:
        big_R = tuple(v + float(rng.uniform(0.005, 0.05)) for v in vertex)
    else:
        j = int(rng.integers(big_L))
        big_R = tuple(v - (float(rng.uniform(0.005, 0.05)) if k == j else 0.0) for k, v in enumerate(vertex))
    return Design(
        instance=inst,
        path=_write_instance(workdir, f"design{tag}.json", inst),
        alpha=alpha,
        D=D,
        point_seed=int(rng.integers(2**32)),
        sim_seed=int(rng.integers(2**32)),
        big=big,
        big_path=_write_instance(workdir, f"big{tag}.json", big),
        big_r=big_r,
        big_R=big_R,
    )


def design_pipeline_rounds(rng, workdir):
    """Round: one design at each L in DESIGN_SIZES, paired with a shuffled
    large-L membership check; inside and outside verdicts alternate."""
    count = 0
    while True:
        ops = []
        for L, big_L in zip(DESIGN_SIZES, rng.permutation(BIG_SIZES)):
            design = _design(rng, workdir, L, int(big_L), count % 2 == 0, count)
            count += 1
            ops.append(
                Op(
                    f"design L={L}",
                    lambda session, d=design: run_design(d, session),
                    lambda out, d=design: check_design(d, out),
                )
            )
        yield [ops[int(k)] for k in rng.permutation(len(ops))]


ROUNDS = {
    "grid-map": grid_map_rounds,
    "inverse-map": inverse_map_rounds,
    "design-pipeline": design_pipeline_rounds,
}
