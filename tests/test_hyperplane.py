import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gceo import hyperplane, inversion
from gceo.errors import ArgumentError, ConvergenceError, InfeasibleDistortionError, InternalInconsistencyError
from gceo.model import TOL_EQ, CeoInstance, R_MAX, d_min, precision, precision_weight
from gceo.hyperplane import kkt_residual, support_value
from gceo.polymatroid import vertex

from conftest import random_alloc, random_instance
from oracles import bisected_multiplier, brute_force_phi

INV_SQRT2 = 1.0 / math.sqrt(2.0)
PHI_SYM = 0.7351936076014103  # (3/2) ln 2 / sqrt(2)


class TestSupportValue:
    def test_symmetric_example(self, sym2):
        res = support_value(sym2, (INV_SQRT2, INV_SQRT2), 0.5)
        assert res.r_star == pytest.approx((0.5 * math.log(2),) * 2, abs=1e-10)
        assert res.phi == pytest.approx(PHI_SYM, abs=1e-10)
        assert precision(sym2, res.r_star) == pytest.approx(2.0, abs=1e-9)

    def test_zero_direction_component(self, sym2):
        # The capped encoder alone already beats 1/0.6, so no rate is needed.
        res = support_value(sym2, (0.0, 1.0), 0.6)
        assert res.phi == 0.0
        assert res.r_star[0] == R_MAX
        assert res.r_star[1] == 0.0

    def test_zero_direction_component_active(self, sym2):
        # At a target below the capped encoder's reach, the positive-weight
        # encoder must supply the remainder.
        res = support_value(sym2, (0.0, 1.0), 0.4)
        assert res.r_star[0] == R_MAX
        assert res.r_star[1] > 0.0
        cap_prec = 1.0 + 1.0  # prior plus capped encoder
        want = 1.0 / 0.4 - cap_prec
        got = (1.0 - math.exp(-2.0 * res.r_star[1])) / sym2.sigma_n2[1]
        assert got == pytest.approx(want, abs=1e-9)

    def test_trivial_distortion(self, sym2):
        res = support_value(sym2, (0.6, 0.8), sym2.sigma_x2)
        assert res.phi == 0.0
        assert res.r_star == (0.0, 0.0)

    def test_bad_inputs(self, sym2):
        with pytest.raises(ArgumentError):
            support_value(sym2, (0.0, 0.0), 0.5)
        with pytest.raises(ArgumentError):
            support_value(sym2, (-0.1, 1.0), 0.5)
        with pytest.raises(ArgumentError):
            support_value(sym2, (1.0, 1.0), 1.5)
        with pytest.raises(InfeasibleDistortionError):
            support_value(sym2, (1.0, 1.0), 0.3)

    def test_distortion_equality(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            inst = random_instance(rng, 3)
            alpha = rng.uniform(0.05, 1.0, 3)
            floor = d_min(inst, 3)
            D = float(rng.uniform(floor * 1.05, inst.sigma_x2 * 0.98))
            res = support_value(inst, alpha, D)
            if res.phi > 0.0:
                assert precision(inst, res.r_star) == pytest.approx(1.0 / D, abs=1e-9)

    def test_bisection_stops_at_adjacent_floats(self, sym2, monkeypatch):
        # The search closes a bracket of the integers that order the floats
        # in [-NU_LIMIT, NU_LIMIT], fewer than 2^64 of them: 64 halvings and
        # the Newton points that fit beside them make at most
        # SEARCH_PASSES passes, and one more when no point met the target,
        # whatever the scale of nu (~0.63 here).
        calls = []
        recursion = hyperplane._recursion

        def counted(*args, **kwargs):
            calls.append(args[4])  # the multiplier tried
            return recursion(*args, **kwargs)

        monkeypatch.setattr(hyperplane, "_recursion", counted)
        res = support_value(sym2, (1.0, 0.5), 0.5)
        assert res.nu >= 0.5 and len(calls) < 70
        assert precision(sym2, res.r_star) == pytest.approx(2.0, rel=1e-14)

    def test_records_its_iterations(self, sym2, monkeypatch):
        # An answer counts the ``_recursion`` passes of its multiplier
        # search.  None runs when the capped encoder alone meets D or D is
        # the source variance, and the count stays out of the JSON.
        calls = []
        recursion = hyperplane._recursion

        def counted(*args, **kwargs):
            calls.append(args[4])
            return recursion(*args, **kwargs)

        monkeypatch.setattr(hyperplane, "_recursion", counted)
        res = support_value(sym2, (1.0, 0.5), 0.5)
        assert res.iterations == len(calls) > 0
        assert "iterations" not in res.to_dict()
        for alpha, D in (((0.0, 1.0), 0.6), ((0.6, 0.8), sym2.sigma_x2)):
            calls.clear()
            assert support_value(sym2, alpha, D).iterations == len(calls) == 0

    def test_decreasing_precision_raises(self, sym2, monkeypatch):
        # The search's bracket rests on precision rising with nu.  A
        # recursion whose precision falls instead is caught at the first
        # miss below an earlier one, not bisected into a wrong answer.
        recursion = hyperplane._recursion

        def falling(*args, **kwargs):
            r, _, nums, slope = recursion(*args, **kwargs)
            return r, 1.0 / (1.0 + abs(args[4])), nums, slope

        monkeypatch.setattr(hyperplane, "_recursion", falling)
        with pytest.raises(InternalInconsistencyError, match="precision decreased"):
            support_value(sym2, (1.0, 0.5), 0.5)

    @pytest.mark.parametrize("factor", [0.0, -1.0, 1e-12, 1e12, math.inf, math.nan])
    def test_a_wrong_slope_costs_passes_not_the_answer(self, factor, monkeypatch):
        # The slope only places the Newton points inside the bracket: with
        # it scaled, negated, zeroed or lost, the search still closes on the
        # bisected float within its pass bound.
        recursion = hyperplane._recursion

        def skewed(*args, **kwargs):
            r, running, nums, slope = recursion(*args, **kwargs)
            return r, running, nums, slope * factor

        monkeypatch.setattr(hyperplane, "_recursion", skewed)
        rng = np.random.default_rng(35)
        for _ in range(5):
            inst, alpha, D = _ordinary_query(rng)
            res = support_value(inst, alpha, D)
            assert res.nu == bisected_multiplier(inst, alpha, D)[0]
            assert res.iterations <= hyperplane.SEARCH_PASSES + 1

    def test_search_takes_few_passes(self):
        # Newton points close the bracket in ~9 passes on average where
        # halving the float keys took 65, on the same floats.
        rng = np.random.default_rng(4)
        passes = []
        for _ in range(300):
            inst, alpha, D = _ordinary_query(rng)
            res = support_value(inst, alpha, D)
            assert res.nu == bisected_multiplier(inst, alpha, D)[0], (inst, alpha, D)
            passes.append(res.iterations)
        assert sum(passes) / len(passes) <= 16.0
        assert max(passes) <= hyperplane.SEARCH_PASSES + 1

    def test_missed_distortion_raises(self):
        # At tiny noise the weight of a tiny rate, (num - alpha sigma_n2) /
        # (num sigma_n2) with num = 2 nu + the alpha gaps, cancels: one ulp of
        # nu moves the precision by ~1e-6 relative, so the allocation at the
        # least multiplier that reaches D overshoots it by ~2e-7 nats.  It is
        # refused, not printed.
        with pytest.raises(ConvergenceError, match="misses the distortion target"):
            support_value(CeoInstance(1.0, (1e-5, 1e-5)), (1.0, 0.5), 0.99)

    def test_kkt_residuals(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            inst = random_instance(rng, 2)
            alpha = rng.uniform(0.05, 1.0, 2)
            floor = d_min(inst, 2)
            D = float(rng.uniform(floor * 1.05, inst.sigma_x2 * 0.98))
            res = support_value(inst, alpha, D)
            assert kkt_residual(inst, alpha, D, res) <= 1e-8

    def test_kkt_when_capped_encoders_alone_meet_the_target(self):
        # The zero-alpha encoder alone beats D, so nu = 0 and every
        # positive-alpha encoder stays at r = 0; the stationarity numerators
        # used to read a residual of 6.26 on this right answer.
        inst = CeoInstance(1.2661, (1.0938, 0.8999, 0.1355, 1.7774, 1.3860, 2.1049))
        alpha = (0.185, 0.0, 0.0198, 0.196, 0.642, 0.134)
        D = 0.97197
        res = support_value(inst, alpha, D)
        assert res.phi == 0.0
        assert kkt_residual(inst, alpha, D, res) <= 1e-12
        # Rate on a positive-alpha encoder is wasted there, and reads as such.
        wasted = tuple(0.1 if i == 4 else v for i, v in enumerate(res.r_star))
        assert kkt_residual(inst, alpha, D, dataclasses.replace(res, r_star=wasted)) == 0.1

    def test_support_property(self, sym2):
        # The hyperplane really supports: alpha-weighted rates of boundary
        # vertices of feasible allocations never fall below phi.
        rng = np.random.default_rng(33)
        alpha = (0.8, 0.6)
        D = 0.5
        res = support_value(sym2, alpha, D)
        norm = math.hypot(*alpha)
        alpha_n = tuple(a / norm for a in alpha)
        order = res.pi_star
        for _ in range(1000):
            r = random_alloc(rng, 2, lo=0.0, hi=3.0)
            if precision(sym2, r) < 1.0 / D:
                continue
            value = sum(a * v for a, v in zip(alpha_n, vertex(sym2, r, order)))
            assert value >= res.phi - 1e-9

    def test_tied_directions_share_phi(self):
        # With tied weights every tie-breaking order gives the same support
        # value; checked rather than assumed.
        inst = CeoInstance(1.0, (0.7, 1.9, 0.7))
        res = support_value(inst, (0.6, 0.3, 0.6), 0.55)
        swapped = support_value(inst, (0.6, 0.3, 0.6 + 1e-13), 0.55)
        assert res.phi == pytest.approx(swapped.phi, abs=1e-9)
        assert res.pi_star != swapped.pi_star

    def test_contact_vertex_realizes_phi(self, sym2):
        alpha = (0.9, 0.3)
        res = support_value(sym2, alpha, 0.5)
        norm = math.hypot(*alpha)
        dotted = sum(a / norm * x for a, x in zip(alpha, res.contact_vertex))
        assert dotted == pytest.approx(res.phi, abs=1e-10)
        assert res.contact_vertex == pytest.approx(
            vertex(sym2, res.r_star, res.pi_star), abs=1e-12
        )


def _ordinary_query(rng):
    """A query of the design recipe: variances near 1, alpha in [0.1, 1]
    and D between the source variance and the saturation floor."""
    L = int(rng.integers(2, 9))
    inst = CeoInstance(float(rng.uniform(0.5, 2.0)), tuple(float(v) for v in rng.uniform(0.3, 3.0, L)))
    alpha = tuple(float(v) for v in rng.uniform(0.1, 1.0, L))
    lo, hi = 1.0 / inst.sigma_x2, 1.0 / d_min(inst, L)
    return inst, alpha, 1.0 / (lo + float(rng.uniform(0.1, 0.8)) * (hi - lo))


@st.composite
def _multiplier_queries(draw):
    """Queries for the multiplier search: the design recipe, noise down to
    1e-5, alpha spread down to 1e-4, one dominant alpha at loose targets
    (negative multipliers), zero-alpha (capped) encoders, and every
    variance and D scaled by a power of two."""
    L = draw(st.integers(1, 8))
    recipe = draw(st.sampled_from(["design", "tiny noise", "spread", "dominant", "capped"]))
    sigma_x2 = 1.0 if recipe == "tiny noise" else draw(st.floats(0.5, 2.0))
    if recipe == "tiny noise":
        noise = [10.0 ** e for e in draw(st.lists(st.floats(-5.0, 2.0), min_size=L, max_size=L))]
    else:
        noise = draw(st.lists(st.floats(0.3, 3.0), min_size=L, max_size=L))
    if recipe == "spread":
        alpha = [10.0 ** e for e in draw(st.lists(st.floats(-4.0, 0.0), min_size=L, max_size=L))]
    elif recipe == "dominant":
        alpha = [1.0] + draw(st.lists(st.floats(0.01, 0.3), min_size=L - 1, max_size=L - 1))
    elif recipe == "capped":
        alpha = [1.0] + draw(st.lists(st.sampled_from([0.0, 0.2, 0.7]), min_size=L - 1, max_size=L - 1))
    else:
        alpha = draw(st.lists(st.floats(0.05, 1.0), min_size=L, max_size=L))
    inst = CeoInstance(sigma_x2, tuple(noise))
    lo, hi = 1.0 / sigma_x2, 1.0 / d_min(inst, L)
    if recipe == "tiny noise":
        # D uniform between the floor and sigma_x2, as in the pinned
        # tiny-noise test: most of these multipliers are negative.
        D = 1.0 / hi + draw(st.floats(0.001, 0.999)) * (sigma_x2 - 1.0 / hi)
    else:
        depth = draw(st.floats(0.001, 0.1) if recipe == "dominant" else st.floats(0.001, 0.999))
        D = 1.0 / (lo + depth * (hi - lo))
    c = math.ldexp(1.0, draw(st.integers(-40, 40)))
    return CeoInstance(sigma_x2 * c, tuple(v * c for v in noise)), tuple(alpha), D * c


@settings(max_examples=300, deadline=None)
@given(query=_multiplier_queries())
def test_multiplier_is_the_bisected_float(query):
    """The Newton-guarded search returns the float that halving the float
    keys of [-NU_LIMIT, NU_LIMIT] returns, bit for bit, and so the same
    allocation: an answer that misses D is refused with that allocation's
    precision."""
    inst, alpha, D = query
    want, p_want = bisected_multiplier(inst, alpha, D)
    try:
        res = support_value(inst, alpha, D)
    except ConvergenceError as exc:
        assert f"precision {p_want!r}," in str(exc)
        assert 0.5 * abs(math.log(p_want * D)) > TOL_EQ
    else:
        assert repr(res.nu) == repr(want), (res.nu, want)
        assert res.iterations <= hyperplane.SEARCH_PASSES + 1


def _tangent_moves(instance, r, step):
    """Allocations that move r_i by +-step and r_j to keep the precision,
    for every ordered pair i != j with both rates staying nonnegative."""
    sn = instance.sigma_n2
    for i, j in itertools.permutations(range(instance.L), 2):
        for ri in (r[i] + step, r[i] - step):
            wj = precision_weight(sn[j], r[j]) + precision_weight(sn[i], r[i]) - precision_weight(sn[i], ri)
            if ri >= 0.0 and 0.0 <= wj * sn[j] < 1.0:
                moved = list(r)
                moved[i], moved[j] = ri, -0.5 * math.log1p(-sn[j] * wj)
                yield moved


@settings(max_examples=200)
@given(data=st.data(), L=st.integers(2, 8), sigma_x2=st.floats(0.5, 2.0), depth=st.floats(1e-6, 1.0))
def test_hyperplane_answer_round_trips_and_is_stationary(data, L, sigma_x2, depth):
    """Two checks that share no code with ``_recursion``, which
    ``kkt_residual`` re-evaluates.  The inverse map sends the contact
    vertex back to the hyperplane's allocation and distortion; it does so
    for the vertex of any allocation, so it cannot see a wrong one.  No
    move along the distortion constraint lowers phi, which checks that the
    allocation is optimal."""
    inst = CeoInstance(sigma_x2, tuple(data.draw(st.lists(st.floats(0.2, 3.0), min_size=L, max_size=L))))
    alpha = data.draw(st.lists(st.floats(0.05, 1.0), min_size=L, max_size=L))
    floor = d_min(inst, L)
    D = floor + depth * (sigma_x2 - floor)
    res = support_value(inst, alpha, D)
    back = inversion.r_star(inst, res.contact_vertex)
    for got, want in zip(back.r_star, res.r_star):
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0), (back.r_star, res.r_star)
    assert math.isclose(back.d_star, D, rel_tol=1e-12, abs_tol=0.0), (back.d_star, D)
    # A step of 1e-5 nats leaves second-order gains near 1e-10; rounding
    # and the bisection's precision tolerance stay below 1e-11.
    for moved in _tangent_moves(inst, res.r_star, 1e-5):
        phi = sum(a * v for a, v in zip(res.alpha, vertex(inst, moved, res.pi_star)))
        assert phi >= res.phi - 1e-9, (moved, phi, res)



@pytest.mark.xfail(strict=True, raises=ConvergenceError, reason="multiplier search misses D at tiny noise")
def test_hyperplane_meets_the_target_at_tiny_noise():
    """At noise variances down to 1e-5 every answer's precision is within
    TOL_EQ nats of 1/D.  A tiny rate's weight is a difference of O(1)
    terms in the multiplier, so one ulp of it can move the precision past
    that tolerance and ``support_value`` raises instead (41 of these 200
    queries, the first at query 1)."""
    rng = np.random.default_rng(9)
    for _ in range(200):
        L = int(rng.integers(2, 9))
        inst = CeoInstance(1.0, tuple(float(v) for v in 10.0 ** rng.uniform(-5.0, 2.0, L)))
        alpha = tuple(float(v) for v in rng.uniform(0.05, 1.0, L))
        D = float(rng.uniform(d_min(inst, L), 1.0))
        res = support_value(inst, alpha, D)
        gap = 0.5 * abs(math.log(precision(inst, res.r_star) * D))
        assert gap <= TOL_EQ, (inst, alpha, D, gap)

class TestGridOracle:
    def test_symmetric_agreement(self, sym2):
        phi = support_value(sym2, (INV_SQRT2, INV_SQRT2), 0.5).phi
        upper = brute_force_phi(sym2, (INV_SQRT2, INV_SQRT2), 0.5, grid_step=0.005)
        assert upper >= phi - 1e-9
        assert abs(upper - phi) <= 1e-3

    def test_trivial_distortion(self, sym2):
        assert brute_force_phi(sym2, (1.0, 1.0), sym2.sigma_x2) == pytest.approx(0.0, abs=1e-12)

    def test_single_encoder_limit(self):
        # With all weight on one encoder and the other's noise huge, the
        # optimum reduces to the single-encoder remote rate-distortion point.
        inst = CeoInstance(1.0, (1.0, 4000.0))
        D = 0.6
        res = support_value(inst, (1.0, 0.0), D)
        one = CeoInstance(1.0, (1.0,))
        res_one = support_value(one, (1.0,), D)
        assert res.phi == pytest.approx(res_one.phi, abs=2e-3)
        upper = brute_force_phi(inst, (1.0, 0.0), D, grid_step=0.005)
        assert abs(upper - res.phi) <= 1e-3

    def test_rejects_large_instances(self):
        inst = CeoInstance(1.0, (1.0,) * 4)
        with pytest.raises(ArgumentError):
            brute_force_phi(inst, (1.0, 1.0, 1.0, 1.0), 0.5)

    def test_random_instances(self):
        rng = np.random.default_rng(34)
        for _ in range(3):
            inst = random_instance(rng, 2)
            alpha = tuple(rng.uniform(0.1, 1.0, 2))
            floor = d_min(inst, 2)
            D = float(rng.uniform(floor + 0.25 * (inst.sigma_x2 - floor), inst.sigma_x2 * 0.95))
            res = support_value(inst, alpha, D)
            upper = brute_force_phi(inst, alpha, D, grid_step=0.005)
            assert upper >= res.phi - 1e-9
            assert abs(upper - res.phi) <= 1e-3
