"""Tests of the benchmark itself: statistics, tracing and oracle gates.

Run with ``python3 -m pytest -q bench/test_bench.py`` from the repository
root.
"""

import dataclasses
import json
import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from gceo import inversion  # noqa: E402


# ----------------------------------------------------------------------
# Tail-percentile rule.
# ----------------------------------------------------------------------


def test_tail_latency_leaves_ten_samples_beyond():
    samples = list(range(1, 101))
    np.random.default_rng(0).shuffle(samples)
    value, pct = run.tail_latency(samples)
    assert (value, pct) == (90, 90.0)
    assert sum(1 for s in samples if s > value) == 10


def test_tail_latency_small_counts():
    value, pct = run.tail_latency([5.0, 1.0, 3.0, 2.0, 4.0, 9.0, 8.0, 7.0, 6.0, 10.0, 11.0])
    assert value == 1.0 and pct == pytest.approx(100.0 / 11.0)
    # Ten or fewer samples: no percentile has ten beyond it; report the max.
    assert run.tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0)
    with pytest.raises(ValueError):
        run.tail_latency([])


# ----------------------------------------------------------------------
# Self-time arithmetic.
# ----------------------------------------------------------------------


def test_self_times_on_nested_tree():
    #   0 root [0, 10]
    #   1  child [1, 4]
    #   2  child [5, 9]
    #   3   grandchild [6, 7]
    #   4 second root [11, 12]
    parent = [-1, 0, 0, 2, -1]
    start = [0.0, 1.0, 5.0, 6.0, 11.0]
    end = [10.0, 4.0, 9.0, 7.0, 12.0]
    assert tracing.self_times(parent, start, end) == [3.0, 3.0, 3.0, 1.0, 1.0]


def test_self_times_merge_overlapping_children_and_clip():
    parent = [-1, 0, 0, 0]
    start = [0.0, 1.0, 3.0, 8.0]
    end = [10.0, 4.0, 6.0, 12.0]  # [1,4] and [3,6] overlap; [8,12] leaves the parent
    assert tracing.self_times(parent, start, end)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_layer_metrics_from_synthetic_spans():
    spans = [
        ("cli.main", -1, 0.0, 1.0, None),
        ("refinement.check_refinement", 0, 0.1, 0.5, None),
        ("inversion.r_star", 1, 0.2, 0.3, "cache_hit"),
        ("inversion.r_star", 1, 0.3, 0.45, "closed_form_l2"),
        ("inversion.tilde_params", 3, 0.31, 0.35, None),
    ]
    m = tracing.layer_metrics(spans, busy_s=2.0, grid_nodes=4, cache_hits=1, cache_lookups=2)
    assert m["cli.main.self_s"] == pytest.approx(0.6)
    assert m["refinement.check_refinement.self_s"] == pytest.approx(0.15)
    assert m["inversion.r_star.self_s"] == pytest.approx(0.1 + 0.11)
    assert m["inversion.r_star.closed_form_l2.p50_ms"] == pytest.approx(150.0)
    assert m["inversion.r_star.calls"] == 2
    assert m["inversion.cache_hit_ratio"] == 0.5
    assert m["inversion.tilde_params.calls_per_node"] == 0.25
    assert m["trace.unattributed_frac"] == pytest.approx(0.5)
    assert m["inversion.r_star.bisection.p50_ms"] == 0.0


# ----------------------------------------------------------------------
# Installing and restoring the tracer.
# ----------------------------------------------------------------------


def _gceo_bindings():
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "gceo" or name.startswith("gceo.")
        for attr, value in vars(module).items()
        if callable(value)
    }


def test_tracer_rebinds_imported_names_and_restores():
    from gceo import refinement
    from gceo.model import CeoInstance

    before = _gceo_bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert refinement.r_star is inversion.r_star  # both rebound to one wrapper
        assert refinement.r_star is not before["gceo.refinement", "r_star"]
        tracer.active = True
        refinement.check_refinement(CeoInstance(1.0, (1.0, 1.0)), [(0.4, 0.7)])
        tracer.active = False
    finally:
        tracer.restore()
    assert _gceo_bindings() == before
    names = [s[0] for s in tracer.spans()]
    assert names[0] == "refinement.check_refinement"
    assert names.count("inversion.r_star") == 2
    assert all(s[1] == 0 for s in tracer.spans()[1:] if s[0] == "inversion.r_star")


def test_traced_run_restores_everything_and_counts_repeat(tmp_path):
    one_round = run.ROUND_SECONDS["design-pipeline"]
    before = _gceo_bindings()
    first, _, traced_run = run.traced("design-pipeline", 7, one_round, str(tmp_path))
    assert _gceo_bindings() == before
    second, _, _ = run.traced("design-pipeline", 7, one_round, str(tmp_path))
    assert not traced_run.failures
    assert first["scheduler.gaussian_mi.calls"] == second["scheduler.gaussian_mi.calls"] > 0
    assert first["cli.main.calls"] == 6 * len(workloads.DESIGN_SIZES)
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    assert set(first) == declared


# ----------------------------------------------------------------------
# Each oracle rejects a tampered answer.
# ----------------------------------------------------------------------


def test_inverse_oracle_rejects_perturbed_r_star():
    rng = np.random.default_rng(5)
    inst = workloads.random_instance(rng, 3)
    r = (0.4, 1.1, 0.7)
    boundary = workloads.InverseQuery(inst, workloads.boundary_vertex(inst, r), r)
    interior = workloads.InverseQuery(inst, workloads.dominant_face_point(inst, r, rng), None)
    for query in (boundary, interior):
        result = inversion.r_star(query.instance, query.R)
        assert workloads.check_inverse(query, result) is None
        bent = dataclasses.replace(result, r_star=(result.r_star[0] + 1e-4,) + result.r_star[1:])
        assert workloads.check_inverse(query, bent) is not None


def test_inverse_oracle_keeps_the_l7_repro_visible():
    query = workloads.repro_l7()
    message = workloads.check_inverse(query, inversion.r_star(query.instance, query.R))
    assert message is not None and "round trip" in message


def test_design_oracle_rejects_shifted_schedule_rate(tmp_path):
    rounds = workloads.design_pipeline_rounds(np.random.default_rng(3), str(tmp_path))
    op = next(rounds)[0]
    out = op.run(workloads.Session())
    assert op.check(out) is None
    out.schedule["steps"][0]["rate"] += 1e-4
    assert "rate sums" in op.check(out)


def test_grid_oracle_rejects_flipped_reachable_bit(tmp_path):
    inst = workloads.GRID_INSTANCES[0]
    start = workloads._grid_start(inst, np.random.default_rng(0), "OMEGA2")
    path = workloads._write_instance(str(tmp_path), "sym2.json", inst)
    out = str(tmp_path / "map.csv")
    code, _ = workloads.Session().cli(
        ["omega-map", "--instance", path, "--from", workloads._vec(start), "--grid", "0,3.0,0.1", "--output", out]
    )
    assert code == 0
    with open(out) as fh:
        rows = fh.read().splitlines()
    n = 31
    i0, j0 = (int(round(v / workloads.GRID_STEP)) for v in start)
    # A dominating node that only the sampled-node gate covers (off the
    # start's ray, not in the opposite region), and one that does not dominate.
    inside = next(
        i * n + j
        for i in range(i0 + 1, n)
        for j in range(j0 + 1, n)
        if rows[1 + i * n + j].split(",")[2] != "OMEGA1"
    )
    outside = (i0 - 1) * n + j0
    assert workloads.check_grid_map(inst, start, "\n".join(rows), (inside,)) is None

    def flipped(k):
        cells = rows[1 + k].split(",")
        cells[-1] = "0" if cells[-1] == "1" else "1"
        return "\n".join(rows[: 1 + k] + [",".join(cells)] + rows[2 + k :])

    assert "dominant-face form" in workloads.check_grid_map(inst, start, flipped(inside), (inside,))
    assert "does not dominate" in workloads.check_grid_map(inst, start, flipped(outside), (inside,))
