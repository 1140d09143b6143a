import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gceo import inversion
from gceo.errors import ArgumentError, ConvergenceError
from gceo.model import CeoInstance, MAX_ENCODERS, R_MAX, d_min, distortion, exp_neg2r, precision
from gceo.inversion import (
    OmegaTag,
    classify_omega,
    d_star,
    omega_margins,
    omega_tag,
    r_star,
    r_star_l2,
    tilde_params,
    uniqueness_probe,
)
from gceo.polymatroid import vertex
from gceo.hyperplane import support_value

from conftest import (
    ASYM_INSTANCES,
    boundary_vertex,
    compatible_decode_order,
    dominant_face_point,
    random_alloc,
    random_instance,
    roadmap_repro,
    sample_omega_point,
)
from oracles import (
    RegionProgram,
    enumerate_r_star,
    exhaustive_slack,
    greedy_r_star,
    partner_rate_root,
    solve_blocks,
    solve_l1_root,
    valid_block_allocations,
)

LN2 = math.log(2.0)


class TestTildeParams:
    def test_zero_rate_fixed_point(self, sym2):
        tp = tilde_params(sym2, 0.0)
        assert tp.d_tilde == sym2.sigma_x2
        assert tp.r_tilde == (0.0, 0.0)

    def test_symmetric_split(self, sym2):
        tp = tilde_params(sym2, 1.0)
        assert tp.l_d == 2
        assert tp.r_tilde[0] == pytest.approx(tp.r_tilde[1], abs=1e-12)

    def test_frozen_example(self, sym2):
        tp = tilde_params(sym2, 1.5 * LN2)
        assert tp.d_tilde == pytest.approx(0.5, abs=1e-12)
        assert tp.r_tilde == pytest.approx((0.5 * LN2, 0.5 * LN2), abs=1e-12)

    def test_single_level_for_lopsided_noise(self):
        # Noisy second encoder stays silent at small sum rates.
        inst = CeoInstance(1.0, (0.2, 20.0))
        tp = tilde_params(inst, 0.1)
        assert tp.l_d == 1
        assert tp.r_tilde[1] == 0.0

    def test_negative_rate_rejected(self, sym2):
        with pytest.raises(ArgumentError):
            tilde_params(sym2, -0.1)

    @settings(max_examples=300)
    @given(
        sigma_x2=st.floats(0.1, 10.0),
        sigma_n2=st.tuples(st.floats(0.05, 20.0), st.floats(0.05, 20.0)),
        sum_rate=st.floats(0.0, 45.0),
    )
    def test_certificate(self, sigma_x2, sigma_n2, sum_rate):
        # Distortion identity, sum-rate identity and water-filling, checked
        # from the returned numbers alone (r~ is in noise-sorted order).
        inst = CeoInstance(sigma_x2, sigma_n2)
        tp = tilde_params(inst, sum_rate)
        sn1, sn2 = sorted(sigma_n2)
        r1, r2 = tp.r_tilde
        weights = (1.0 - exp_neg2r(r1)) / sn1 + (1.0 - exp_neg2r(r2)) / sn2
        assert 1.0 / tp.d_tilde == pytest.approx(1.0 / sigma_x2 + weights, rel=1e-12)
        total = 0.5 * math.log(sigma_x2 / tp.d_tilde) + r1 + r2
        assert total == pytest.approx(sum_rate, abs=1e-12 * max(1.0, sum_rate))
        level1 = sn1 * math.exp(2.0 * r1)
        if tp.l_d == 2:
            assert level1 == pytest.approx(sn2 * math.exp(2.0 * r2), rel=1e-12)
        else:
            assert r2 == 0.0
            assert level1 <= sn2 * (1.0 + 1e-12)

    def test_infinite_sum_rate_caps(self, sym2):
        tp = tilde_params(sym2, math.inf)
        assert tp.r_tilde == (R_MAX, R_MAX)
        assert tp.d_tilde == pytest.approx(d_min(sym2, 2), rel=1e-15)

    def test_matches_equal_weight_hyperplane(self, sym2):
        # The minimum-sum-rate allocation at a given total is the equal-weight
        # supporting-hyperplane solution at the matching distortion.
        tp = tilde_params(sym2, 1.5 * LN2)
        res = support_value(sym2, (1.0, 1.0), tp.d_tilde)
        assert res.r_star == pytest.approx(tp.r_tilde, abs=1e-9)


class TestRStarL2:
    def test_zero_rates(self, sym2):
        res = r_star_l2(sym2, (0.0, 0.0))
        assert res.r_star == (0.0, 0.0)
        assert res.d_star == sym2.sigma_x2

    def test_axis_reduction(self, sym2):
        res = r_star_l2(sym2, (0.8, 0.0))
        assert res.r_star[1] == 0.0
        # Sum-rate identity pins the single coordinate.
        got = 0.5 * math.log(precision(sym2, res.r_star) * sym2.sigma_x2) + res.r_star[0]
        assert got == pytest.approx(0.8, abs=1e-10)

    def test_saturation(self, sym2):
        res = r_star_l2(sym2, (R_MAX, R_MAX))
        assert res.d_star == pytest.approx(d_min(sym2, 2), abs=1e-12)

    def test_branch_example(self, sym2):
        res = r_star_l2(sym2, (2.0, 0.05))
        assert res.branch == "omega1"
        assert classify_omega(sym2, (2.0, 0.05)) is OmegaTag.OMEGA1

    def test_equal_rates_take_min_sum_branch(self, sym2):
        res = r_star_l2(sym2, (0.9, 0.9))
        assert res.branch == "omega3"
        assert res.r_star[0] == pytest.approx(res.r_star[1], abs=1e-12)

    def test_identities(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            inst = random_instance(rng, 2)
            R = tuple(float(v) for v in rng.uniform(0.01, 3.0, 2))
            res = r_star_l2(inst, R)
            assert precision(inst, res.r_star) == pytest.approx(1.0 / res.d_star, rel=1e-9)
            total = 0.5 * math.log(inst.sigma_x2 / res.d_star) + sum(res.r_star)
            assert total == pytest.approx(sum(R), abs=1e-9)
            assert res.residuals <= 1e-6


def _log_uniform_rate(rng, lo=1e-9, hi=49.0):
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _root_found_r_star_l2(inst, R, branch):
    """r*(R) in the branch ``r_star_l2`` took, each rate a ``brentq`` root
    of its sum-rate identity."""
    sn, sx2 = inst.sigma_n2, inst.sigma_x2
    if branch == "reduced":
        finite, p0 = inversion._split_rates(inst, R)
        r = [R_MAX if v >= R_MAX else 0.0 for v in R]
        for i in finite:
            r[i] = solve_l1_root(sn[i], R[i], p0)
        return r
    a, b = (0, 1) if sn[0] <= sn[1] else (1, 0)
    first, other = (a, b) if branch == "omega1" else (b, a)
    r = [0.0, 0.0]
    r[first] = solve_l1_root(sn[first], R[first], 1.0 / sx2)
    r[other] = partner_rate_root(sx2, sn[first], r[first], sn[other], R[a] + R[b], R[other])
    return r


class TestClosedForms:
    """The two-encoder closed forms against the ``brentq`` roots they
    replaced, over rates from 1e-9 to 49 nats."""

    def test_single_encoder_rate(self):
        rng = np.random.default_rng(91)
        for _ in range(2000):
            sn, p0 = float(rng.uniform(0.3, 3.0)), float(rng.uniform(0.2, 6.0))
            rate = _log_uniform_rate(rng)
            assert abs(inversion._solve_l1(sn, rate, p0) - solve_l1_root(sn, rate, p0)) <= 1e-13

    def test_r_star_l2_matches_the_roots(self):
        # Every fourth node is reduced: one rate zero or capped.
        rng = np.random.default_rng(92)
        branches = set()
        for k in range(2000):
            inst = random_instance(rng, 2)
            R = [_log_uniform_rate(rng), _log_uniform_rate(rng)]
            if k % 4 == 0:
                R[int(rng.integers(2))] = float(rng.choice([0.0, R_MAX]))
            res = r_star_l2(inst, R)
            if res.branch == "omega3":
                continue  # r~ from tilde_params: no root involved
            branches.add(res.branch)
            expected = _root_found_r_star_l2(inst, R, res.branch)
            assert max(abs(x - y) for x, y in zip(res.r_star, expected)) <= 1e-13, (inst, R)
        assert branches == {"omega1", "omega2", "reduced"}

    def test_margins_recorded(self):
        # The margins an answer carries are omega_margins' exactly, reduced
        # answers included; the serialized result leaves them out.
        rng = np.random.default_rng(94)
        for k in range(300):
            inst = random_instance(rng, 2)
            R = [float(v) for v in rng.uniform(0.0, 4.0, 2)]
            if k % 3 == 0:
                R[int(rng.integers(2))] = float(rng.choice([0.0, R_MAX]))
            res = r_star(inst, R)
            assert res.margins == omega_margins(inst, R)
            assert omega_tag(res.margins, R) is classify_omega(inst, R)
            assert "margins" not in res.to_dict()
        assert r_star(inst, R, method="bisection").margins is None


class TestRoundTrips:
    def test_boundary_vertex_round_trip(self):
        rng = np.random.default_rng(42)
        for L in (2, 3):
            for _ in range(10):
                inst = random_instance(rng, L)
                r = random_alloc(rng, L, lo=0.05, hi=2.5)
                R = boundary_vertex(inst, r)
                res = r_star(inst, R)
                assert res.r_star == pytest.approx(r, abs=1e-5)
                assert res.d_star == pytest.approx(distortion(inst, r), abs=1e-6)

    def test_off_boundary_vertex_improves(self, sym2):
        # A vertex whose decode order conflicts with the water-filling
        # constants is achievable at strictly better distortion, so it does
        # not round-trip; its allocation is recovered by the branch solver.
        r = (0.7, 0.2)
        order = compatible_decode_order(sym2, r)
        wrong = tuple(reversed(order))
        R = vertex(sym2, r, wrong)
        res = r_star(sym2, R)
        assert res.d_star < distortion(sym2, r) - 1e-4
        good = vertex(sym2, r, order)
        assert r_star(sym2, good).r_star == pytest.approx(r, abs=1e-9)

    def test_uniqueness_probe(self, sym2):
        R = boundary_vertex(sym2, (0.5, 0.5))
        res = r_star(sym2, R)
        assert uniqueness_probe(sym2, R, res)

    def test_cross_method_agreement(self):
        # The two-encoder closed forms against the forced decomposition, on
        # uniform draws (mostly OMEGA1/OMEGA2) and on OMEGA3 points.
        rng = np.random.default_rng(43)
        for k in range(60):
            inst = random_instance(rng, 2)
            if k % 2:
                R = sample_omega_point(inst, rng, "OMEGA3")
            else:
                R = tuple(float(v) for v in rng.uniform(0.01, 3.0, 2))
            a = r_star_l2(inst, R)
            b = r_star(inst, R, method="bisection")
            assert b.method == "decomposition"
            assert a.r_star == pytest.approx(b.r_star, abs=1e-9)
            assert a.d_star == pytest.approx(b.d_star, rel=1e-12)

    def test_enumeration_vs_bisection_l3(self):
        # The forced general solver against the exhaustive decode-block oracle.
        rng = np.random.default_rng(44)
        for _ in range(10):
            inst = random_instance(rng, 3)
            R = tuple(float(v) for v in rng.uniform(0.02, 2.5, 3))
            a = enumerate_r_star(*_reduced(inst, R))
            b = r_star(inst, R, method="bisection")
            assert b.method == "decomposition"
            assert b.r_star == pytest.approx(a, abs=1e-12)

    def test_monotone_map(self):
        rng = np.random.default_rng(45)
        for inst in (CeoInstance(1.0, (1.0, 1.0)), CeoInstance(1.2, (0.6, 1.8))):
            for _ in range(250):
                R = rng.uniform(0.01, 2.5, 2)
                bump = rng.uniform(0.0, 0.8, 2)
                lo = r_star(inst, tuple(map(float, R))).r_star
                hi = r_star(inst, tuple(map(float, R + bump))).r_star
                assert all(h >= l - 1e-9 for l, h in zip(lo, hi))


class TestDStar:
    def test_zero_rates(self, sym2):
        assert d_star(sym2, (0.0, 0.0)) == sym2.sigma_x2

    def test_saturation(self, sym2):
        assert d_star(sym2, (R_MAX, R_MAX)) == pytest.approx(d_min(sym2, 2), abs=1e-12)

    def test_frozen_vertex_value(self, sym2):
        R = boundary_vertex(sym2, (0.5, 0.5))
        assert d_star(sym2, R) == pytest.approx(0.44164907712422996, abs=1e-9)

    def test_capped_coordinate(self, sym2):
        res = r_star(sym2, (R_MAX, 0.7))
        assert res.r_star[0] == R_MAX
        assert res.residuals <= 1e-6
        assert d_min(sym2, 2) < res.d_star < d_min(sym2, 1)


class TestOmega:
    def test_examples(self, sym2):
        assert classify_omega(sym2, (3.0, 0.01)) is OmegaTag.OMEGA1
        assert classify_omega(sym2, (0.01, 3.0)) is OmegaTag.OMEGA2
        assert classify_omega(sym2, (0.9, 0.9)) is OmegaTag.OMEGA3

    def test_margins_never_both_positive(self, sym2):
        rng = np.random.default_rng(46)
        for _ in range(200):
            R = tuple(float(v) for v in rng.uniform(0.0, 3.0, 2))
            t1, t2 = omega_margins(sym2, R)
            assert t1 + t2 <= 1e-10

    def test_boundary_tag(self, sym2):
        # Bisect along R1 (fixed R2) for the branch threshold, where the
        # boundary tag must appear.
        R = sample_omega_point(sym2, np.random.default_rng(47), "OMEGA1")
        lo, hi = 0.0, R[0]
        assert omega_margins(sym2, (lo, R[1]))[0] < 0 < omega_margins(sym2, (hi, R[1]))[0]
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if omega_margins(sym2, (mid, R[1]))[0] > 0:
                hi = mid
            else:
                lo = mid
        assert classify_omega(sym2, (0.5 * (lo + hi), R[1])) in (
            OmegaTag.BOUNDARY_13,
            OmegaTag.BOUNDARY_12,
        )

    def test_branch_agreement(self):
        rng = np.random.default_rng(48)
        for inst in (CeoInstance(1.0, (1.0, 1.0)),) + ASYM_INSTANCES:
            for _ in range(50):
                R = tuple(float(v) for v in rng.uniform(0.02, 3.0, 2))
                tag = classify_omega(inst, R)
                branch = r_star_l2(inst, R).branch
                if tag is OmegaTag.OMEGA1:
                    assert branch == "omega1"
                elif tag is OmegaTag.OMEGA2:
                    assert branch == "omega2"
                elif tag is OmegaTag.OMEGA3:
                    assert branch == "omega3"

    def test_requires_two_encoders(self):
        with pytest.raises(ArgumentError):
            classify_omega(CeoInstance(1.0, (1.0, 1.0, 1.0)), (1.0, 1.0, 1.0))


def _reduced(inst, R):
    return list(inst.sigma_n2), list(R), 1.0 / inst.sigma_x2


class TestConvexSolver:
    @pytest.mark.parametrize("seed, L", [(3, 7), (1, 8), (1, MAX_ENCODERS)])
    def test_roadmap_boundary_vertices_round_trip(self, seed, L):
        # Neighbouring feasible allocations here pass every residual check
        # and miss r by ~5e-3; only an optimality check tells them apart.
        inst, R, r = roadmap_repro(seed, L)
        res = r_star(inst, R)
        assert res.method == "decomposition"
        assert max(abs(a - b) for a, b in zip(res.r_star, r)) <= 1e-5
        assert res.d_star == pytest.approx(distortion(inst, r), abs=1e-6)
        assert res.kkt_residual <= inversion.KKT_LIMIT
        assert res.residuals <= 1e-6

    @settings(max_examples=40)
    @given(
        L=st.integers(min_value=3, max_value=5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        on_boundary=st.booleans(),
    )
    def test_matches_enumeration(self, L, seed, on_boundary):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, L)
        r = random_alloc(rng, L, lo=0.05, hi=2.5)
        R = boundary_vertex(inst, r) if on_boundary else dominant_face_point(inst, r, rng)
        res = r_star(inst, R)
        assert res.method == "decomposition"
        assert res.kkt_residual <= inversion.KKT_LIMIT
        assert res.r_star == pytest.approx(enumerate_r_star(*_reduced(inst, R)), abs=1e-9)
        if on_boundary:
            assert res.r_star == pytest.approx(r, abs=1e-5)

    def test_certificate_rejects_suboptimal_structures(self):
        # Every decode-block structure that lies in the region but is not
        # the optimum must fail the KKT certificate, both the all-rows
        # reference and the decode-chain rows of the solver; the optimum
        # passes both.
        rng = np.random.default_rng(49)
        rejected = 0
        for L in (3, 4):
            for k in range(6):
                inst = random_instance(rng, L)
                r = random_alloc(rng, L, lo=0.05, hi=2.5)
                R = boundary_vertex(inst, r) if k % 2 == 0 else dominant_face_point(inst, r, rng)
                sn, rates, p0 = _reduced(inst, R)
                program = RegionProgram(sn, rates, p0)
                candidates = list(valid_block_allocations(sn, rates, p0))
                best_blocks, best, _ = max(candidates, key=lambda c: c[2])
                assert program.kkt_residual(best) <= inversion.KKT_LIMIT
                assert inversion._chain_kkt_residual(sn, rates, best, best_blocks, p0) <= inversion.KKT_LIMIT
                for blocks, cand, _ in candidates:
                    if max(abs(a - b) for a, b in zip(cand, best)) > 1e-9:
                        assert program.kkt_residual(cand) > 1e3 * inversion.KKT_LIMIT
                        chain = inversion._chain_kkt_residual(sn, rates, cand, blocks, p0)
                        assert chain > 1e3 * inversion.KKT_LIMIT
                        rejected += 1
        assert rejected >= 20

    def test_certificate_rejects_wrong_l7_structure(self):
        # Swap two adjacent decode blocks of the L=7 optimum: where the
        # result is still in the region, both certificates must reject it.
        inst, R, r = roadmap_repro(3, 7)
        sn, rates, p0 = _reduced(inst, R)
        program = RegionProgram(sn, rates, p0)
        order = sorted(range(7), key=lambda i: -sn[i] * math.exp(2.0 * r[i]))
        best = solve_blocks(sn, rates, [[i] for i in order], p0)
        assert program.kkt_residual(best) <= inversion.KKT_LIMIT
        assert inversion._chain_kkt_residual(sn, rates, best, [[i] for i in order], p0) <= inversion.KKT_LIMIT
        checked = 0
        for k in range(6):
            swapped = order[:k] + [order[k + 1], order[k]] + order[k + 2:]
            blocks = [[i] for i in swapped]
            cand = solve_blocks(sn, rates, blocks, p0)
            if cand is None or exhaustive_slack(sn, rates, cand, p0) < -1e-9:
                continue
            assert program.kkt_residual(cand) > inversion.KKT_LIMIT
            assert inversion._chain_kkt_residual(sn, rates, cand, blocks, p0) > inversion.KKT_LIMIT
            checked += 1
        assert checked >= 1

    @settings(max_examples=40)
    @given(
        L=st.integers(min_value=6, max_value=8),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        kind=st.sampled_from(["boundary", "two_vertices", "uniform"]),
    )
    def test_matches_subset_greedy(self, L, seed, kind):
        # Past the reach of the partition oracle: the decomposition against
        # the same construction with every subset tried as the next block.
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, L)
        r = random_alloc(rng, L, lo=0.05, hi=2.5)
        if kind == "boundary":
            R = boundary_vertex(inst, r)
        elif kind == "two_vertices":
            lam = float(rng.uniform())
            a, b = (vertex(inst, r, tuple(int(i) for i in rng.permutation(L))) for _ in range(2))
            R = tuple(lam * x + (1.0 - lam) * y for x, y in zip(a, b))
        else:
            R = tuple(float(v) for v in rng.uniform(0.02, 3.0, L))
        res = r_star(inst, R)
        assert res.kkt_residual <= inversion.KKT_LIMIT
        assert res.r_star == pytest.approx(greedy_r_star(*_reduced(inst, R)), abs=1e-12)
        if kind == "boundary":
            assert res.r_star == pytest.approx(r, abs=1e-5)

    def test_saturated_rates(self):
        # Rates of 10-45 nats.  exp(-2 r_i) then hides part of the
        # allocation in D, so the partition oracle's largest-precision pick
        # is ambiguous there; it still pins D*, and the subset greedy pins r*.
        rng = np.random.default_rng(50)
        for k in range(80):
            L = 2 + k % 4
            inst = random_instance(rng, L)
            R = tuple(float(v) for v in rng.uniform(10.0, 45.0, L))
            sn, rates, p0 = _reduced(inst, R)
            res = r_star(inst, R, method="bisection")
            assert res.kkt_residual <= inversion.KKT_LIMIT
            assert res.d_star == pytest.approx(1.0 / precision(inst, enumerate_r_star(sn, rates, p0)), rel=1e-12)
            assert res.r_star == pytest.approx(greedy_r_star(sn, rates, p0), abs=1e-12)

    def test_uncertified_answer_raises(self, monkeypatch):
        monkeypatch.setattr(inversion, "KKT_LIMIT", -1.0)
        inst = CeoInstance(1.3, (0.7, 1.1, 2.9))
        with pytest.raises(ConvergenceError, match="KKT certificate"):
            r_star(inst, (0.9, 1.3, 0.4))

    def test_reports_how_it_was_computed(self, sym2):
        general = r_star(CeoInstance(1.0, (0.5, 1.0, 2.0)), (0.8, 0.6, 0.7)).to_dict()
        assert general["method"] == "decomposition"
        assert general["branch"] is None
        assert 0.0 <= general["kkt_residual"] <= inversion.KKT_LIMIT
        closed = r_star(sym2, (2.0, 0.05)).to_dict()
        assert (closed["method"], closed["branch"], closed["kkt_residual"]) == ("closed_form_l2", "omega1", None)
        reduced = r_star(CeoInstance(1.0, (0.5, 1.0, 2.0)), (0.0, 0.6, 0.0)).to_dict()
        assert (reduced["method"], reduced["branch"]) == ("closed_form_l1", "reduced")


TINY_NOISE_RATES = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 49.0)
TINY_NOISE_GRID = [(a, b) for a in TINY_NOISE_RATES for b in TINY_NOISE_RATES]


def test_decomposition_at_tiny_noise_matches_the_closed_form():
    # Block weights of order 1e12, and r_1 down to ~1e-12 nats.  Solved for
    # K, the decomposition raised at 25 of these 49 points (one ulp of K
    # moved w_1 by ~1e-5 relative) and was off by up to 1.24e-9 relative
    # in d* at others; rates in log-excess coordinates answer every point.
    inst = CeoInstance(1.0, (1e-12, 1.0))
    for R in TINY_NOISE_GRID:
        a = r_star_l2(inst, R)
        b = r_star(inst, R, method="bisection")
        assert a.r_star == pytest.approx(b.r_star, abs=1e-9)
        assert a.d_star == pytest.approx(b.d_star, rel=1e-12)


def test_decomposition_at_tiny_rates_and_noises():
    # Every block root below 5e-14 nats: the threshold scan used to start
    # just above the largest noise, above every root, and found no block
    # (TypeError).  From rate 0 the scan's first step always finds one.
    inst = CeoInstance(2.0, (1e-6, 1e-6, 2e-6))
    for R in [(1e-8, 1e-8, 1e-8), (2e-9, 3e-9, 1e-8)]:
        res = r_star(inst, R)
        assert res.method == "decomposition"
        assert res.kkt_residual <= inversion.KKT_LIMIT
        assert res.residuals <= 1e-15
        assert all(0.0 < v < 1e-13 for v in res.r_star)
