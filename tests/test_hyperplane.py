import math

import numpy as np
import pytest

from gceo.errors import ArgumentError, InfeasibleDistortionError
from gceo.model import CeoInstance, R_MAX, d_min, precision
from gceo.hyperplane import (
    kkt_residual,
    phi_expansion,
    support_value,
)
from gceo.polymatroid import vertex

from conftest import random_alloc, random_instance
from oracles import brute_force_phi

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

    def test_kkt_residuals(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            inst = random_instance(rng, 2)
            alpha = rng.uniform(0.05, 1.0, 2)
            floor = d_min(inst, 2)
            D = float(rng.uniform(floor * 1.05, inst.sigma_x2 * 0.98))
            res = support_value(inst, alpha, D)
            assert kkt_residual(inst, alpha, D, res) <= 1e-8

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
            value = phi_expansion(sym2, alpha_n, r, order)
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
