"""Acceptance suite: one test per exit criterion, each printing a verdict
line with its runtime (visible with ``pytest -s`` or in verbose failure
output).  Tolerances are fixed here, not tuned at run time.
"""

import json
import math
import time
from itertools import permutations

import numpy as np
import pytest

from gceo import cli
from gceo.model import CeoInstance, d_min, distortion, precision
from gceo import polymatroid as pm
from gceo.hyperplane import kkt_residual, support_value
from gceo.inversion import (
    OmegaTag,
    classify_omega,
    omega_margins,
    r_star,
    uniqueness_probe,
)
from gceo.montecarlo import SimConfig, simulate_distortion, simulate_refinement
from gceo.refinement import check_refinement, dominant_face_form
from gceo.scheduler import build_schedule, validate_schedule

from conftest import (
    ASYM_INSTANCES,
    SYM2,
    boundary_vertex,
    compatible_decode_order,
    dominant_face_point,
    last_decoded_chain,
    random_alloc,
    random_instance,
    sample_omega_point,
)
from oracles import brute_force_phi, check_supermodular, pairwise_equivalence, supermodularity_margin


def _verdict(name: str, ok: bool, elapsed: float, budget: float, detail: str = ""):
    flag = "PASS" if ok else "FAIL"
    print(f"[{flag}] {name}: {elapsed:.1f}s (budget {budget:.0f}s) {detail}")
    assert ok, detail
    assert elapsed < budget, f"{name} exceeded runtime budget: {elapsed:.1f}s"


def test_criterion_1_polymatroid_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(2024_01)
    checked = 0
    for k in range(100):
        L = int(rng.integers(2, 5))
        inst = random_instance(rng, L)
        r = random_alloc(rng, L, lo=1e-6, hi=3.0)
        assert check_supermodular(inst, r)
        _, incomparable = supermodularity_margin(inst, r)
        assert incomparable > 0.0
        total = pm.rank_f(inst, r, (1 << L) - 1)
        for pi in permutations(range(L)):
            R = pm.vertex(inst, r, pi)
            assert abs(sum(R) - total) <= 1e-9
            assert pm.region_check(inst, r, R, tol=1e-9)[0]
            checked += 1
    elapsed = time.perf_counter() - start
    _verdict("criterion 1 (rank/vertex suite)", True, elapsed, 2.0, f"{checked} vertices")


def test_criterion_2_hyperplane_vs_grid():
    start = time.perf_counter()
    rng = np.random.default_rng(2024_02)
    instances = [SYM2]
    while len(instances) < 21:
        inst = random_instance(rng, 2)
        instances.append(inst)
    worst_gap = 0.0
    worst_kkt = 0.0
    evaluated = 0
    for inst in instances:
        floor = d_min(inst, 2)
        # Keep every single-encoder completion rate within the lattice
        # budget; the sampled distortions still sweep the bulk of
        # (d_min, sigma_x2).
        needed_max = (1.0 - math.exp(-2.0 * 3.3)) / max(inst.sigma_n2)
        lo_inv = 1.0 / inst.sigma_x2
        hi_inv = min(1.0 / floor, lo_inv + needed_max)
        for _ in range(10):
            alpha = tuple(float(v) for v in rng.uniform(0.02, 1.0, 2))
            u = float(rng.uniform(0.05, 0.95))
            D = 1.0 / (lo_inv + u * (hi_inv - lo_inv))
            if D >= inst.sigma_x2 * (1 - 1e-9) or D <= floor * (1 + 1e-9):
                continue
            res = support_value(inst, alpha, D)
            upper = brute_force_phi(inst, alpha, D, grid_step=0.005)
            gap = abs(upper - res.phi)
            worst_gap = max(worst_gap, gap)
            worst_kkt = max(worst_kkt, kkt_residual(inst, alpha, D, res))
            assert upper >= res.phi - 1e-9
            assert gap <= 1e-3
            assert worst_kkt <= 1e-8
            evaluated += 1
    assert evaluated >= 200
    elapsed = time.perf_counter() - start
    _verdict(
        "criterion 2 (hyperplane vs grid oracle)", True, elapsed, 30.0,
        f"{evaluated} comparisons, worst gap {worst_gap:.2e}, worst KKT residual {worst_kkt:.2e}",
    )


def test_criterion_3_inversion_round_trip():
    start = time.perf_counter()
    rng = np.random.default_rng(2024_03)
    worst_r = worst_d = worst_res = 0.0
    for k in range(200):
        L = 2 if k % 2 == 0 else 3
        inst = random_instance(rng, L)
        r = random_alloc(rng, L, lo=0.05, hi=2.5)
        # Boundary-contact decode order: the vertex of any other order is
        # achievable at strictly better distortion and cannot round-trip.
        R = boundary_vertex(inst, r)
        res = r_star(inst, R)
        worst_r = max(worst_r, max(abs(a - b) for a, b in zip(res.r_star, r)))
        worst_d = max(worst_d, abs(res.d_star - distortion(inst, r)))
        worst_res = max(worst_res, res.residuals)
        assert worst_r <= 1e-5
        assert worst_d <= 1e-6
        assert res.residuals <= 1e-6
        assert uniqueness_probe(inst, R, res)
    elapsed = time.perf_counter() - start
    _verdict(
        "criterion 3 (inversion round-trip)", True, elapsed, 60.0,
        f"worst |r gap| {worst_r:.2e}, |d gap| {worst_d:.2e}, residual {worst_res:.2e}",
    )


def test_criterion_4_l2_closed_form_vs_general():
    start = time.perf_counter()
    rng = np.random.default_rng(2024_04)
    instances = (SYM2,) + ASYM_INSTANCES
    worst = 0.0
    for inst in instances:
        for _ in range(250):
            R = tuple(float(v) for v in rng.uniform(0.01, 3.0, 2))
            closed = r_star(inst, R)
            general = r_star(inst, R, method="bisection")
            gap = max(abs(a - b) for a, b in zip(closed.r_star, general.r_star))
            worst = max(worst, gap)
            assert gap <= 1e-4
            tag = classify_omega(inst, R)
            if tag is OmegaTag.OMEGA1:
                assert closed.branch == "omega1"
            elif tag is OmegaTag.OMEGA2:
                assert closed.branch == "omega2"
            elif tag is OmegaTag.OMEGA3:
                assert closed.branch == "omega3"
    elapsed = time.perf_counter() - start
    _verdict(
        "criterion 4 (closed form vs general solver)", True, elapsed, 60.0,
        f"1000 points, worst coordinate gap {worst:.2e}",
    )


def _sample_pair_in(instance, rng, tag_from, tag_to, margin=2e-3, bump=(1e-3, 0.4)):
    """Nondecreasing pair with both stages strictly inside given regions."""
    for _ in range(600):
        s = sample_omega_point(instance, rng, tag_from, margin=margin)
        t = (
            s[0] + float(rng.uniform(*bump)),
            s[1] + float(rng.uniform(*bump)),
        )
        m1, m2 = omega_margins(instance, t)
        tag = None
        if m1 > margin and m2 < -margin:
            tag = "OMEGA1"
        elif m2 > margin and m1 < -margin:
            tag = "OMEGA2"
        elif m1 < -margin and m2 < -margin:
            tag = "OMEGA3"
        if tag == tag_to:
            return s, t
    raise RuntimeError(f"no pair {tag_from}->{tag_to}")


def test_criterion_5_claims_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(2024_05)
    instances = (SYM2,) + ASYM_INSTANCES
    margin = 2e-3

    def sorted_pair(inst):
        # (pinned-by-OMEGA1 coordinate, companion) in original indexing.
        return (0, 1) if inst.sigma_n2[0] <= inst.sigma_n2[1] else (1, 0)

    def with_coords(a_val, b_val, a, b):
        out = [0.0, 0.0]
        out[a], out[b] = a_val, b_val
        return tuple(out)

    # Both stages in the first region: feasible iff the pinned (less noisy)
    # coordinate is frozen or the start sits on its axis.
    for k in range(200):
        inst = instances[k % len(instances)]
        a, b = sorted_pair(inst)
        mode = k % 3
        if mode == 0:  # frozen pinned rate -> feasible
            for _ in range(600):
                s = sample_omega_point(inst, rng, "OMEGA1", margin=margin)
                t = with_coords(s[a], s[b] + float(rng.uniform(1e-3, 0.25)), a, b)
                m1, m2 = omega_margins(inst, t)
                if m1 > margin and m2 < -margin:
                    break
            assert check_refinement(inst, [s, t]).feasible
        elif mode == 1:  # axis start -> feasible
            for _ in range(600):
                s = with_coords(float(rng.uniform(0.3, 2.5)), 0.0, a, b)
                if omega_margins(inst, s)[0] <= margin:
                    continue
                t = with_coords(
                    s[a] + float(rng.uniform(0.0, 0.4)), float(rng.uniform(1e-3, 0.08)), a, b
                )
                m1, m2 = omega_margins(inst, t)
                if m1 > margin and m2 < -margin:
                    break
            assert check_refinement(inst, [s, t]).feasible
        else:  # pinned rate moved with positive companion -> infeasible
            for _ in range(600):
                s = sample_omega_point(inst, rng, "OMEGA1", margin=margin)
                if s[b] <= margin:
                    continue
                t = with_coords(
                    s[a] + float(rng.uniform(1e-3, 0.3)),
                    s[b] + float(rng.uniform(1e-3, 0.3)),
                    a,
                    b,
                )
                m1, m2 = omega_margins(inst, t)
                if m1 > margin and m2 < -margin:
                    break
            assert not check_refinement(inst, [s, t]).feasible

    # Mirror region: the noisier encoder's rate is the pinned one.
    for k in range(200):
        inst = instances[k % len(instances)]
        a, b = sorted_pair(inst)
        if k % 2 == 0:
            for _ in range(600):
                s = sample_omega_point(inst, rng, "OMEGA2", margin=margin)
                t = with_coords(s[a] + float(rng.uniform(1e-3, 0.25)), s[b], a, b)
                m1, m2 = omega_margins(inst, t)
                if m2 > margin and m1 < -margin:
                    break
            assert check_refinement(inst, [s, t]).feasible
        else:
            for _ in range(600):
                s = sample_omega_point(inst, rng, "OMEGA2", margin=margin)
                if s[a] <= margin:
                    continue
                t = with_coords(
                    s[a] + float(rng.uniform(1e-3, 0.3)),
                    s[b] + float(rng.uniform(1e-3, 0.3)),
                    a,
                    b,
                )
                m1, m2 = omega_margins(inst, t)
                if m2 > margin and m1 < -margin:
                    break
            assert not check_refinement(inst, [s, t]).feasible

    # Region flips with both starting rates positive: never feasible.
    for k in range(200):
        inst = instances[k % len(instances)]
        if k % 2 == 0:
            s, t = _sample_pair_in(inst, rng, "OMEGA1", "OMEGA2", bump=(1e-3, 2.5))
        else:
            s, t = _sample_pair_in(inst, rng, "OMEGA2", "OMEGA1", bump=(1e-3, 2.5))
        if min(s) <= margin:
            continue
        assert not check_refinement(inst, [s, t]).feasible

    elapsed = time.perf_counter() - start
    _verdict("criterion 5 (two-encoder refinement laws)", True, elapsed, 60.0, "600 pairs")


def test_criterion_6_refinement_consistency():
    start = time.perf_counter()
    rng = np.random.default_rng(2024_06)

    # Full-set tightness at every feasible stage.
    tight_checked = 0
    for _ in range(40):
        L = int(rng.integers(2, 4))
        inst = random_instance(rng, L)
        stages, _ = last_decoded_chain(inst, rng, 3)
        rep = check_refinement(inst, stages)
        assert rep.feasible
        full = tuple(range(L))
        for stage in rep.per_stage:
            # Rows: the worst subset, then the full set (one row if equal).
            assert len(stage) <= 2 and stage[-1].subset == full
            assert abs(stage[-1].slack) <= 1e-6
            tight_checked += 1

    # Pairwise equivalence on random chains.
    for _ in range(200):
        L = int(rng.integers(2, 4))
        inst = random_instance(rng, L)
        base = np.asarray(rng.uniform(0.05, 1.0, L))
        stages = [tuple(map(float, base))]
        for _ in range(2):
            base = base + rng.uniform(0.0, 0.5, L)
            stages.append(tuple(map(float, base)))
        assert pairwise_equivalence(inst, stages)

    # Inequality form vs conditional-region form on 500 pairs.
    agree_true = agree_false = 0
    for k in range(500):
        L = 2 if k % 2 == 0 else 3
        inst = random_instance(rng, L)
        if k % 5 == 0:
            pair, _ = last_decoded_chain(inst, rng, 2)
        else:
            a = rng.uniform(0.05, 1.2, L)
            b = a + rng.uniform(0.0, 0.7, L)
            pair = [tuple(map(float, a)), tuple(map(float, b))]
        expect = check_refinement(inst, pair).feasible
        assert dominant_face_form(inst, pair[0], pair[1]) == expect
        if expect:
            agree_true += 1
        else:
            agree_false += 1
    assert agree_true > 0 and agree_false > 0
    elapsed = time.perf_counter() - start
    _verdict(
        "criterion 6 (refinement consistency)", True, elapsed, 60.0,
        f"{tight_checked} tight stages; pair verdicts {agree_true} feasible / {agree_false} infeasible",
    )


def test_criterion_7_scheduler():
    start = time.perf_counter()
    rng = np.random.default_rng(2024_07)
    worst_rate = 0.0
    for k in range(200):
        L = 2 + k % 4
        inst = random_instance(rng, L)
        r = random_alloc(rng, L, lo=0.1, hi=2.5)
        R = dominant_face_point(inst, r, rng)
        schedule = build_schedule(inst, r, R)
        report = validate_schedule(inst, schedule, R, tol=1e-7)
        assert report.ok, report.diagnostics
        face = pm.identify_face(inst, r, R)
        assert schedule.total_steps <= 2 * L - 1
        assert schedule.total_steps <= L + face.dimension
        sums = schedule.per_encoder_rate(L)
        worst_rate = max(worst_rate, max(abs(a - b) for a, b in zip(sums, R)))
        assert worst_rate <= 1e-7

    # Edge point with three encoders: one split, exactly four steps.
    inst = CeoInstance(1.0, (0.8, 1.1, 1.4))
    r = (0.6, 0.5, 0.4)
    v1 = pm.vertex(inst, r, (0, 1, 2))
    v2 = pm.vertex(inst, r, (0, 2, 1))
    mid = tuple((a + b) / 2 for a, b in zip(v1, v2))
    assert build_schedule(inst, r, mid).total_steps == 4
    elapsed = time.perf_counter() - start
    _verdict(
        "criterion 7 (successive Wyner-Ziv scheduler)", True, elapsed, 60.0,
        f"200 points, worst per-encoder rate gap {worst_rate:.2e}",
    )


def test_criterion_8_monte_carlo():
    start = time.perf_counter()
    rng = np.random.default_rng(2024_08)
    instances = [SYM2, *ASYM_INSTANCES, CeoInstance(1.5, (0.4, 1.0, 2.2))]
    n = 1_000_000
    z_values = []
    battery = []
    for idx, inst in enumerate(instances):
        for j in range(4):
            r = random_alloc(rng, inst.L, lo=0.1, hi=2.0)
            battery.append((inst, r))
    assert len(battery) == 20
    for k, (inst, r) in enumerate(battery):
        rep = simulate_distortion(inst, r, SimConfig(n_samples=n, seed=7000 + k))
        z_values.extend(rep.z_scores)
    # Two-stage chains reusing the battery allocations as final stages.
    for k, (inst, r) in enumerate(battery[:10]):
        first = tuple(v * float(rng.uniform(0.3, 0.9)) for v in r)
        rep = simulate_refinement(inst, [first, r], SimConfig(n_samples=n, seed=8000 + k))
        z_values.extend(rep.z_scores)
    over4 = [z for z in z_values if abs(z) > 4.0]
    assert len(over4) <= 1, f"z-scores beyond 4: {over4}"
    assert all(abs(z) <= 6.0 for z in z_values)
    elapsed = time.perf_counter() - start
    _verdict(
        "criterion 8 (Monte Carlo confirmation)", True, elapsed, 120.0,
        f"{len(z_values)} z-scores, max |z| {max(abs(z) for z in z_values):.2f}",
    )


def test_criterion_9_region_map(tmp_path):
    start = time.perf_counter()
    instance_file = tmp_path / "sym2.json"
    instance_file.write_text(json.dumps(SYM2.to_dict()))
    out_file = tmp_path / "map.csv"
    s = (0.2, 0.6)
    assert classify_omega(SYM2, s) is OmegaTag.OMEGA2
    code = cli.main([
        "omega-map", "--instance", str(instance_file),
        "--from", f"{s[0]},{s[1]}", "--grid", "0,3,0.02",
        "--output", str(out_file),
    ])
    assert code == 0
    rows = out_file.read_text().strip().splitlines()
    assert rows[0] == "R1,R2,region,d_star,r1_star,r2_star,reachable"
    assert len(rows) == 1 + 151 * 151

    counts = {}
    ray = {}
    claim_violations = 0
    for line in rows[1:]:
        R1s, R2s, region, _, _, _, reach = line.split(",")
        R1, R2 = float(R1s), float(R2s)
        counts[region] = counts.get(region, 0) + 1
        # Non-boundary tags partition the plane: at most one threshold
        # margin may be positive.
        if region in ("OMEGA1", "OMEGA2", "OMEGA3"):
            m1, m2 = omega_margins(SYM2, (R1, R2))
            assert not (m1 > 1e-7 and m2 > 1e-7)
        if abs(R2 - s[1]) < 1e-9 and R1 >= s[0] - 1e-9:
            ray[R1] = (region, reach)
        if region == "OMEGA1" and reach == "1":
            claim_violations += 1
    assert counts.get("OMEGA1", 0) > 0
    assert counts.get("OMEGA2", 0) > 0
    assert counts.get("OMEGA3", 0) > 0
    # The constant-R2 ray is reachable throughout the start's region.
    in_region = [(R1, v) for R1, v in sorted(ray.items()) if v[0] == "OMEGA2"]
    assert in_region, "ray never intersects the start's region"
    for R1, (region, reach) in in_region:
        assert reach == "1", f"ray node at R1={R1} not reachable"
    # Targets in the opposite corner region are forbidden for an interior
    # start (both coordinates positive).
    assert claim_violations == 0
    elapsed = time.perf_counter() - start
    _verdict(
        "criterion 9 (region map and reachability)", True, elapsed, 120.0,
        f"regions {counts}",
    )
