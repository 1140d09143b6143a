import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gceo import cli, inversion, polymatroid, refinement
from gceo.errors import ArgumentError, ConvergenceError
from gceo.model import MAX_ENCODERS, R_MAX, CeoInstance
from gceo.inversion import OmegaTag, classify_omega, omega_margins, r_star
from gceo.refinement import (
    check_refinement,
    dominant_face_form,
    reachable_set_l2,
)

from conftest import (
    ASYM_INSTANCES,
    CountingMath,
    last_decoded_chain,
    random_instance,
    sample_omega_point,
)
from oracles import enumerate_stage_slacks, grid_map_oracle, pairwise_equivalence


class TestCheckRefinement:
    def test_nan_slack_is_no_verdict(self, sym2, monkeypatch):
        stage_min = refinement._stage_min
        monkeypatch.setattr(refinement, "_stage_min", lambda *args: (math.nan, *stage_min(*args)[1:]))
        with pytest.raises(ConvergenceError):
            check_refinement(sym2, [(0.5, 0.5), (1.0, 1.0)])

    def test_repeat_stage_is_feasible(self, sym2):
        rep = check_refinement(sym2, [(0.7, 0.9), (0.7, 0.9)])
        assert rep.feasible
        full = rep.per_stage[1][-1]
        assert full.subset == (0, 1)
        assert abs(full.slack) <= 1e-9

    def test_full_set_always_tight(self, sym2):
        rng = np.random.default_rng(51)
        for _ in range(20):
            base = rng.uniform(0.05, 1.5, 2)
            stages = [tuple(map(float, base)), tuple(map(float, base + rng.uniform(0, 1.0, 2)))]
            rep = check_refinement(sym2, stages)
            for stage in rep.per_stage:
                assert stage[-1].subset == (0, 1)
                assert abs(stage[-1].slack) <= 1e-6

    def test_last_decoded_chains_feasible(self):
        rng = np.random.default_rng(52)
        for L in (2, 3):
            for _ in range(5):
                inst = random_instance(rng, L)
                stages, allocs = last_decoded_chain(inst, rng, 3)
                rep = check_refinement(inst, stages)
                assert rep.feasible, rep.worst
                for j, alloc in enumerate(allocs):
                    assert rep.r_chain[j + 1] == pytest.approx(alloc, abs=1e-6)
                # Allocation chain is coordinatewise nondecreasing.
                for a, b in zip(rep.r_chain, rep.r_chain[1:]):
                    assert all(y >= x - 1e-9 for x, y in zip(a, b))

    def test_one_stage_and_repeat_chains_feasible_at_tol_0(self):
        # 0 -> R and R -> R are always feasible; their tight sets (the full
        # set, and sets that r*'s decode chain makes tight) compute to about
        # -1e-16, within the rounding floor that tol 0 still allows.
        rng = np.random.default_rng(58)
        for _ in range(3000):
            inst = random_instance(rng, 2)
            R = tuple(float(v) for v in rng.uniform(0.0, 4.0, 2))
            assert check_refinement(inst, [R], 0.0).feasible, (inst, R)
            assert check_refinement(inst, [R, R], 0.0).feasible, (inst, R)
        # Noises from 1e-6 to 1 at L = 3-6.  r* solved for the water-filling
        # constant K rather than for a rate left 22 of these 3000 chains
        # infeasible, the repro at -9.3e-12 (72x the floor).
        rng = np.random.default_rng(7)
        cases = [
            (
                CeoInstance(1.385665071295039, (1.040146356163845e-06, 3.0078878179198352e-05, 7.78980135411817e-06)),
                (0.6258793381740961, 0.5308328020290132, 0.13796899324252054),
            )
        ]
        for _ in range(3000):
            L = int(rng.integers(3, 7))
            inst = CeoInstance(float(rng.uniform(0.5, 2.0)), tuple(float(v) for v in 10 ** rng.uniform(-6.0, 0.0, L)))
            cases.append((inst, tuple(float(v) for v in rng.uniform(0.0, 4.0, L))))
        for inst, R in cases:
            assert check_refinement(inst, [R], 0.0).feasible, (inst, R)
            assert check_refinement(inst, [R, R], 0.0).feasible, (inst, R)

    def test_first_row_is_the_lowest(self):
        # The scan's minimum can read a few ulps above the full set's own
        # slack; the full set is then reported alone rather than under a
        # subset row that is not the worst.
        rng = np.random.default_rng(7)
        for _ in range(600):
            L = int(rng.integers(2, 9))
            inst = CeoInstance(float(rng.uniform(0.5, 2.0)), tuple(float(v) for v in rng.uniform(0.3, 3.0, L)))
            R = [float(v) for v in rng.uniform(0.0, 3.0, L)]
            (rows,) = check_refinement(inst, [R]).per_stage
            assert rows[0].slack == min(row.slack for row in rows), (inst, R, rows)

    def test_decreasing_stage_rejected(self, sym2):
        with pytest.raises(ArgumentError):
            check_refinement(sym2, [(1.0, 1.0), (0.9, 1.2)])

    def test_report_shape(self, sym2):
        # Each stage lists its worst subset, then the full set; one row
        # when the two coincide.
        rep = check_refinement(sym2, [(0.4, 0.4), (0.9, 0.6)])
        assert len(rep.per_stage) == 2
        for j, stage in enumerate(rep.per_stage, start=1):
            assert 1 <= len(stage) <= 2
            assert [row.stage for row in stage] == [j] * len(stage)
            assert stage[-1].subset == (0, 1)
            assert stage[0].slack == min(row.slack for row in stage)
        assert len(rep.per_stage[1]) == 2
        assert rep.worst.slack == min(row.slack for stage in rep.per_stage for row in stage)
        assert len(rep.r_chain) == 3
        assert rep.d_chain[0] == sym2.sigma_x2
        payload = rep.to_dict()
        assert set(payload) == {"feasible", "worst", "r_chain", "d_chain", "per_stage"}
        assert all(set(row) == {"subset", "slack"} for stage in payload["per_stage"] for row in stage)
        assert payload["per_stage"][1][-1]["subset"] == [1, 2]


@st.composite
def refinement_chains(draw):
    """(instance, stages) at L = 2-6: one to three stages that grow at
    random (often infeasible), grow with some rates frozen, or refine only
    the last-decoded encoder (feasible)."""
    L = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    inst = random_instance(rng, L)
    kind = draw(st.sampled_from(["grow", "frozen", "last_decoded"]))
    M = draw(st.integers(1, 3))
    if kind == "last_decoded":
        return inst, last_decoded_chain(inst, rng, M)[0]
    stages = [rng.uniform(0.0, 1.5, L)]
    for _ in range(M - 1):
        step = rng.uniform(0.0, 0.8, L)
        if kind == "frozen":
            step[rng.random(L) < 0.5] = 0.0
        stages.append(stages[-1] + step)
    return inst, [tuple(float(v) for v in stage) for stage in stages]


class TestStageRowsAgainstSubsetWalk:
    @settings(max_examples=150)
    @given(refinement_chains())
    def test_worst_and_full_rows_match(self, case):
        inst, stages = case
        rep = check_refinement(inst, stages)
        chain = [(0.0,) * inst.L] + [tuple(stage) for stage in stages]
        full = tuple(range(inst.L))
        lowest = math.inf
        for j, rows in enumerate(rep.per_stage, start=1):
            walk = dict(
                enumerate_stage_slacks(
                    inst, chain[j - 1], chain[j], rep.r_chain[j - 1], rep.r_chain[j], rep.d_chain[j]
                )
            )
            low = min(walk.values())
            assert rows[-1].subset == full
            assert rows[-1].slack == pytest.approx(walk[full], abs=1e-12)
            assert rows[0].slack == pytest.approx(low, abs=1e-12)
            assert walk[rows[0].subset] == pytest.approx(rows[0].slack, abs=1e-12)
            assert len(rows) == 1 or rows[0].subset != full
            lowest = min(lowest, low)
        assert rep.worst.slack == pytest.approx(lowest, abs=1e-12)
        if abs(lowest + 1e-6) > 1e-9:
            assert rep.feasible == (lowest >= -1e-6)

    def test_refine_at_max_encoders(self, tmp_path):
        # A walk over the 2^16 - 1 subsets of each stage takes seconds and
        # would print 131070 rows; the threshold scan prints at most four.
        rng = np.random.default_rng(19)
        inst = random_instance(rng, MAX_ENCODERS)
        first = rng.uniform(0.05, 1.0, MAX_ENCODERS)
        stages = [first.tolist(), (first + rng.uniform(0.0, 0.5, MAX_ENCODERS)).tolist()]
        path, stage_path, out = tmp_path / "big.json", tmp_path / "stages.json", tmp_path / "out.json"
        path.write_text(json.dumps(inst.to_dict()))
        stage_path.write_text(json.dumps(stages))
        argv = ["refine", "--instance", str(path), "--stages", str(stage_path), "--output", str(out)]
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
        payload = json.loads(out.read_text())
        assert code == (0 if payload["feasible"] else 1)
        assert [1 <= len(rows) <= 2 for rows in payload["per_stage"]] == [True, True]
        assert all(rows[-1]["subset"] == list(range(1, MAX_ENCODERS + 1)) for rows in payload["per_stage"])
        assert elapsed < 0.25


class TestClaims:
    """Two-encoder refinement laws, exercised away from their boundaries."""

    def test_omega1_frozen_pinned_rate(self, sym2):
        # Both stages in the first branch region: feasible iff the pinned
        # rate is frozen or the other rate started at zero.
        rng = np.random.default_rng(53)
        for _ in range(25):
            s = sample_omega_point(sym2, rng, "OMEGA1", margin=5e-3)
            t = (s[0], s[1] + float(rng.uniform(1e-3, 0.2)))
            if classify_omega(sym2, t) is not OmegaTag.OMEGA1:
                continue
            assert check_refinement(sym2, [s, t]).feasible

    def test_omega1_moving_pinned_rate_infeasible(self, sym2):
        rng = np.random.default_rng(54)
        for _ in range(25):
            s = sample_omega_point(sym2, rng, "OMEGA1", margin=5e-3)
            if s[1] < 1e-3:
                continue
            t = (s[0] + float(rng.uniform(1e-3, 0.3)), s[1] + float(rng.uniform(1e-3, 0.3)))
            if classify_omega(sym2, t) is not OmegaTag.OMEGA1:
                continue
            assert not check_refinement(sym2, [s, t]).feasible

    def test_omega1_axis_start_free(self, sym2):
        rng = np.random.default_rng(55)
        count = 0
        while count < 10:
            s1 = float(rng.uniform(0.3, 2.0))
            s = (s1, 0.0)
            if classify_omega(sym2, s) is not OmegaTag.OMEGA1:
                continue
            t = (s1 + float(rng.uniform(0.0, 0.5)), float(rng.uniform(1e-3, 0.1)))
            if classify_omega(sym2, t) is not OmegaTag.OMEGA1:
                continue
            assert check_refinement(sym2, [s, t]).feasible
            count += 1

    def test_omega2_mirror(self, sym2):
        rng = np.random.default_rng(56)
        for _ in range(25):
            s = sample_omega_point(sym2, rng, "OMEGA2", margin=5e-3)
            t = (s[0] + float(rng.uniform(1e-3, 0.2)), s[1])
            if classify_omega(sym2, t) is not OmegaTag.OMEGA2:
                continue
            assert check_refinement(sym2, [s, t]).feasible

    def test_region_flip_infeasible(self, sym2):
        rng = np.random.default_rng(57)
        count = 0
        while count < 10:
            s = sample_omega_point(sym2, rng, "OMEGA1", margin=5e-3, lo=0.05, hi=1.5)
            if min(s) < 1e-3:
                continue
            t = (s[0] + float(rng.uniform(0, 0.5)), s[1] + float(rng.uniform(1.0, 3.0)))
            if classify_omega(sym2, t) is not OmegaTag.OMEGA2:
                continue
            assert not check_refinement(sym2, [s, t]).feasible
            count += 1


class TestPairwiseEquivalence:
    def test_feasible_chain(self):
        rng = np.random.default_rng(58)
        inst = random_instance(rng, 3)
        stages, _ = last_decoded_chain(inst, rng, 3)
        assert pairwise_equivalence(inst, stages)

    def test_random_chains(self, sym2):
        rng = np.random.default_rng(59)
        for _ in range(20):
            base = np.asarray(rng.uniform(0.05, 1.0, 2))
            stages = [tuple(map(float, base))]
            for _ in range(2):
                base = base + rng.uniform(0.0, 0.6, 2)
                stages.append(tuple(map(float, base)))
            assert pairwise_equivalence(sym2, stages)

    def test_single_stage_vacuous(self, sym2):
        assert pairwise_equivalence(sym2, [(0.5, 0.7)])


class TestDominantFaceForm:
    def test_zero_increment(self, sym2):
        assert dominant_face_form(sym2, (0.6, 0.8), (0.6, 0.8))

    def test_agreement_random_pairs(self):
        rng = np.random.default_rng(60)
        both = {True: 0, False: 0}
        for L in (2, 3):
            for _ in range(15):
                inst = random_instance(rng, L)
                a = rng.uniform(0.05, 1.2, L)
                b = a + rng.uniform(0.0, 0.8, L)
                pair = [tuple(map(float, a)), tuple(map(float, b))]
                expect = check_refinement(inst, pair).feasible
                assert dominant_face_form(inst, pair[0], pair[1]) == expect
                both[expect] += 1
        assert both[False] > 0

    def test_agreement_feasible_pairs(self):
        rng = np.random.default_rng(61)
        for L in (2, 3):
            for _ in range(5):
                inst = random_instance(rng, L)
                stages, _ = last_decoded_chain(inst, rng, 2)
                assert check_refinement(inst, stages).feasible
                assert dominant_face_form(inst, stages[0], stages[1])


class TestReachableGrid:
    def test_structure(self, sym2):
        nodes = reachable_set_l2(sym2, (0.2, 0.6), (0.0, 1.0, 0.25))
        assert len(nodes) == 25
        origin = [n for n in nodes if n.R == (0.0, 0.0)][0]
        assert origin.d_star == sym2.sigma_x2
        assert not origin.reachable  # does not dominate the start
        start = [n for n in nodes if abs(n.R[0] - 0.25) < 1e-12 and abs(n.R[1] - 0.75) < 1e-12][0]
        assert start.region in OmegaTag

    def test_start_reachable_from_itself(self, sym2):
        nodes = reachable_set_l2(sym2, (0.5, 0.5), (0.5, 0.5, 1.0))
        assert nodes[0].reachable

    def test_requires_two_encoders(self):
        inst = CeoInstance(1.0, (1.0, 1.0, 1.0))
        with pytest.raises(ArgumentError):
            reachable_set_l2(inst, (0, 0, 0), (0, 1, 0.5))

    def test_matches_per_node_oracle(self, sym2):
        # Starts on and off the grid, with a zero coordinate, and one that
        # nodes undershoot by less than 1e-12 (tested at the start itself).
        # At tol = 0 the undershooting node's bit also depends on which
        # allocation stage 2 uses, the start's or the node's.
        grid = (0.0, 2.0, 0.25)
        starts = [(0.5, 0.75), (0.3, 1.1), (0.0, 0.8), (1.2, 0.0), (0.5 + 4e-13, 0.25 + 7e-13)]
        rng = np.random.default_rng(71)
        instances = [sym2, *ASYM_INSTANCES, *(random_instance(rng, 2) for _ in range(3))]
        for inst in instances:
            for start in starts + [tuple(float(v) for v in rng.uniform(0.0, 1.5, 2))]:
                for tol in (1e-6, 0.0):
                    got = reachable_set_l2(inst, start, grid, tol)
                    assert got == grid_map_oracle(inst, start, grid, tol), (inst, start, tol)
        # The undershooting node is tested as the repeat chain [start, start].
        nodes = reachable_set_l2(sym2, starts[-1], grid)
        assert [n.reachable for n in nodes if n.R == (0.5, 0.25)] == [True]

    @pytest.mark.parametrize("grid, off", [((0.0, 120.0, 7.5), (48.01, 24.02)), ((0.05, 2.5, 0.07), (0.33, 0.21))])
    def test_matches_per_node_oracle_past_the_cap_and_on_uneven_sums(self, sym2, grid, off):
        # The first grid has nodes past R_MAX, whose rates are capped.  On
        # the second, pairs with one exact sum R1 + R2 round to different
        # float sums (129 of them, against 71 exact ones), so the table's
        # per-sum solves are shared unevenly.  Starts on a node and off
        # the grid, each with reachable nodes on every instance.
        lo, hi, step = grid
        starts = [(lo + 2 * step, lo + step), off]
        for inst in (sym2, *ASYM_INSTANCES):
            for start in starts:
                for tol in (1e-6, 0.0):
                    got = reachable_set_l2(inst, start, grid, tol)
                    assert got == grid_map_oracle(inst, start, grid, tol), (inst, start, tol)
        if step == 7.5:
            assert any(node.r_star[0] >= R_MAX for node in got)
        else:
            assert len({R[0] + R[1] for R, *_ in got}) == 129

    def test_warm_map_solves_each_node_once(self, sym2, monkeypatch):
        # A cold map solves the minimum-sum-rate allocation once per
        # distinct sum rate and tags each node once; the origin and the
        # start are grid nodes, so their answers come from the table and
        # no r_star call is made.  A warm map solves and tags nothing.
        # Either map takes one stage minimum for stage 1 and one for each
        # node that the singleton test passes: of the 42 nodes that
        # dominate the start, only the one reachable node.
        grid, start = (0.0, 2.0, 0.25), (0.5, 0.75)
        calls = {"r_star": 0, "tilde_params": 0, "omega_tag": 0, "_stage_min": 0}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(refinement, "r_star")
        counted(refinement, "omega_tag")
        counted(inversion, "tilde_params")
        counted(refinement, "_stage_min")
        cold = reachable_set_l2(sym2, start, grid)
        dominating = sum(R[0] >= start[0] and R[1] >= start[1] for R, *_ in cold)
        passed = sum(node.reachable for node in cold)
        assert (dominating, passed) == (42, 1)
        stages = 1 + passed
        sums = len({R[0] + R[1] for R, *_ in cold})
        assert sums == 17
        assert calls == {"r_star": 0, "tilde_params": sums, "omega_tag": len(cold), "_stage_min": stages}
        calls.update(r_star=0, tilde_params=0, omega_tag=0, _stage_min=0)
        assert reachable_set_l2(sym2, start, grid) == cold
        assert calls == {"r_star": 0, "tilde_params": 0, "omega_tag": 0, "_stage_min": stages}
        # r_star runs only for points off the grid: here the start alone
        # (no node undershoots it by less than 1e-12).
        calls.update(r_star=0, tilde_params=0, omega_tag=0, _stage_min=0)
        reachable_set_l2(sym2, (0.3, 1.1), grid)
        assert (calls["r_star"], calls["omega_tag"]) == (1, 0)

    def test_warm_map_takes_two_logarithms_per_rejected_node(self, monkeypatch):
        # A warm map tests each dominating node by its two singleton slacks
        # (two logarithms); only stage 1 and the nodes that pass take a
        # threshold scan (at most 2L + 1 = 5 logarithms) and one more.
        # Scanning every dominating node, as the full engine alone does,
        # takes at least 4 per node.
        rng = np.random.default_rng(83)
        grid = (0.0, 3.0, 0.1)
        inst = ASYM_INSTANCES[0]
        start = tuple(float(v) for v in 0.1 * rng.integers(2, 16, 2))
        reachable_set_l2(inst, start, grid)
        counter = CountingMath("log")
        calls = counter.calls
        monkeypatch.setattr(refinement, "math", counter)
        monkeypatch.setattr(polymatroid, "math", counter)
        nodes = reachable_set_l2(inst, start, grid)
        dominating = sum(R[0] >= start[0] - 1e-12 and R[1] >= start[1] - 1e-12 for R, *_ in nodes)
        reachable = sum(node.reachable for node in nodes)
        # So the bound below is under 4 per dominating node.
        assert len(nodes) == 31 * 31 and dominating > 3 * (1 + reachable)
        assert len(calls) <= 2 * dominating + 6 * (1 + reachable)

    def test_warm_map_equals_cold_map(self):
        # Every start of every instance is answered from the first start's
        # table, rows and nodes alike, as a cold map would answer it.
        grid = (0.0, 3.0, 0.1)
        rng = np.random.default_rng(73)
        for inst in ASYM_INSTANCES:
            starts = [sample_omega_point(inst, rng, want) for want in ("OMEGA1", "OMEGA2", "OMEGA3")]
            warm = [reachable_set_l2(inst, start, grid, tol) for start in starts for tol in (1e-6, 0.0)]
            cold = []
            for start in starts:
                for tol in (1e-6, 0.0):
                    refinement._grid_tables.clear()
                    cold.append(reachable_set_l2(inst, start, grid, tol))
            assert ["".join(m.csv_chunks()) for m in warm] == ["".join(m.csv_chunks()) for m in cold]
            assert warm == cold

    def test_kept_tables_stay_within_the_node_budget(self, sym2, monkeypatch):
        monkeypatch.setattr(refinement, "_KEPT_NODES", 60)
        start = (0.25, 0.5)
        small = [(lo, lo + 1.0, 0.25) for lo in (0.0, 0.5, 1.0)]  # 25 nodes each
        big = (0.0, 2.0, 0.25)  # 81 nodes
        for grid in small[:2]:
            reachable_set_l2(sym2, start, grid)
        assert [key[1] for key in refinement._grid_tables] == [0.0, 0.5]
        # A third 25-node table pushes out the least recently used one.
        reachable_set_l2(sym2, start, small[0])
        reachable_set_l2(sym2, start, small[2])
        assert [key[1] for key in refinement._grid_tables] == [0.0, 1.0]
        # A grid over the budget answers as the per-node oracle does, and
        # neither it nor a displaced table is kept.
        for tol in (1e-6, 0.0):
            assert reachable_set_l2(sym2, start, big, tol) == grid_map_oracle(sym2, start, big, tol)
        assert [key[1] for key in refinement._grid_tables] == [0.0, 1.0]
        # A kept table serves only its own grid: same first node and node
        # count, another step.
        coarse = (0.0, 2.0, 0.5)
        assert reachable_set_l2(sym2, start, coarse) == grid_map_oracle(sym2, start, coarse)

    @settings(max_examples=60)
    @given(
        sigma_x2=st.floats(0.5, 2.0),
        # Noise variances alike, or log-uniform over seven decades.
        sigma_n2=st.one_of(
            st.tuples(st.floats(0.3, 3.0), st.floats(0.3, 3.0)),
            st.tuples(*[st.floats(-5.0, 2.0).map(lambda e: 10.0**e)] * 2),
        ),
        lo=st.floats(0.0, 2.0),
        step=st.floats(0.02, 0.6),
        count=st.integers(0, 14),
        kind=st.sampled_from(["node", "anywhere", "zero R1", "zero R2"]),
        at=st.tuples(st.integers(0, 14), st.integers(0, 14)),
        off=st.tuples(st.floats(0.0, 4.0), st.floats(0.0, 4.0)),
        tol=st.sampled_from([0.0, 1e-6]),
    )
    def test_matches_per_node_oracle_on_random_grids(
        self, sigma_x2, sigma_n2, lo, step, count, kind, at, off, tol
    ):
        # At most 15 x 15 nodes; the start sits on a node, anywhere, or on
        # an axis.
        inst = CeoInstance(sigma_x2, sigma_n2)
        grid = (lo, lo + count * step, step)
        start = {
            "node": tuple(lo + min(k, count) * step for k in at),
            "anywhere": off,
            "zero R1": (0.0, off[1]),
            "zero R2": (off[0], 0.0),
        }[kind]
        got = reachable_set_l2(inst, start, grid, tol)
        assert len(got) <= 15 * 15
        assert got == grid_map_oracle(inst, start, grid, tol)

    @pytest.mark.parametrize("start", [(math.nan, 0.5), (-0.5, 5.0), (0.5,)])
    def test_start_validated_up_front(self, sym2, start):
        # No node of this grid dominates (-0.5, 5), so only an up-front check
        # can reject it.
        with pytest.raises(ArgumentError):
            reachable_set_l2(sym2, start, (0.0, 1.0, 0.5))
