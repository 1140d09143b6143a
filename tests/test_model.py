import json
import math

import numpy as np
import pytest

from gceo.errors import ArgumentError
from gceo.model import (
    CeoInstance,
    R_MAX,
    channel_noise_from_r,
    d_min,
    distortion,
    precision,
    r_from_channel_noise,
)

from conftest import random_alloc, random_instance
from oracles import in_feasible_set

HALF_LN2 = 0.34657359027997264


class TestInstance:
    def test_validation(self):
        with pytest.raises(ArgumentError):
            CeoInstance(0.0, (1.0,))
        with pytest.raises(ArgumentError):
            CeoInstance(1.0, (1.0, -2.0))
        with pytest.raises(ArgumentError):
            CeoInstance(1.0, ())
        with pytest.raises(ArgumentError):
            CeoInstance(1.0, (1.0,) * 17)

    def test_json_round_trip(self, sym2):
        text = json.dumps(sym2.to_dict())
        assert CeoInstance.from_json(text) == sym2
        with pytest.raises(ArgumentError):
            CeoInstance.from_dict({"sigma_x2": 1.0})


class TestRateNoiseBijection:
    def test_infinite_noise_carries_nothing(self, sym2):
        assert r_from_channel_noise(sym2, 0, math.inf) == 0.0

    def test_zero_noise_is_capped(self, sym2):
        assert r_from_channel_noise(sym2, 0, 0.0) == R_MAX

    def test_unit_noise(self, sym2):
        assert r_from_channel_noise(sym2, 0, 1.0) == pytest.approx(HALF_LN2, abs=1e-15)

    def test_inverse_values(self, sym2):
        assert channel_noise_from_r(sym2, 0, 0.0) == math.inf
        assert channel_noise_from_r(sym2, 0, HALF_LN2) == pytest.approx(1.0, rel=1e-14)
        inst = CeoInstance(1.0, (2.0, 1.0))
        assert channel_noise_from_r(inst, 0, R_MAX) == 0.0

    def test_round_trip(self):
        rng = np.random.default_rng(101)
        inst = random_instance(rng, 3)
        for r in np.concatenate([[1e-6, 49.0], rng.uniform(1e-4, 10.0, 50)]):
            for i in range(3):
                back = r_from_channel_noise(inst, i, channel_noise_from_r(inst, i, float(r)))
                assert back == pytest.approx(float(r), rel=1e-12)

    def test_round_trip_down_to_tiny_rates(self):
        # exp(-2r) rounds to 1 below ~1e-16 nats; the map must neither
        # divide by zero nor lose the rate there.
        inst = CeoInstance(1.0, (0.3, 2.5))
        for r in np.concatenate([[1e-300, 1e-17, 1e-9], np.logspace(-300, math.log10(40.0), 200)]):
            for i in range(2):
                noise = channel_noise_from_r(inst, i, float(r))
                assert math.isfinite(noise) and noise > 0.0
                back = r_from_channel_noise(inst, i, noise)
                assert back == pytest.approx(float(r), rel=1e-12)


class TestPrecisionDistortion:
    def test_zero_rates_give_prior(self, sym2):
        assert precision(sym2, (0.0, 0.0)) == 1.0
        assert distortion(sym2, (0.0, 0.0)) == 1.0

    def test_saturation(self, sym2):
        assert precision(sym2, (R_MAX, R_MAX)) == 3.0
        assert distortion(sym2, (R_MAX, R_MAX)) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_frozen_value(self, sym2):
        assert precision(sym2, (0.5, 0.5)) == pytest.approx(2.2642411176571153, abs=1e-15)
        assert distortion(sym2, (0.5, 0.5)) == pytest.approx(0.44164907712422996, abs=1e-15)

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            inst = random_instance(rng, 3)
            r = list(random_alloc(rng, 3))
            base = distortion(inst, r)
            assert d_min(inst, 3) - 1e-15 <= base <= inst.sigma_x2 + 1e-15
            for i in range(3):
                bumped = list(r)
                bumped[i] += 1e-4
                assert distortion(inst, bumped) < base


class TestDmin:
    def test_symmetric(self, sym2):
        assert d_min(sym2, 2) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert d_min(sym2, 1) == pytest.approx(0.5, abs=1e-15)

    def test_asymmetric_sorted_internally(self):
        inst = CeoInstance(2.0, (2.0, 0.5))
        assert d_min(inst, 2) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert d_min(inst, 1) == pytest.approx(1.0 / 2.5, abs=1e-15)

    def test_range_check(self, sym2):
        with pytest.raises(ArgumentError):
            d_min(sym2, 0)
        with pytest.raises(ArgumentError):
            d_min(sym2, 3)


class TestFeasibleSet:
    def test_examples(self, sym2):
        assert in_feasible_set(sym2, (0.5, 0.5), 0.45)
        assert not in_feasible_set(sym2, (0.0, 0.0), 0.5)
        assert in_feasible_set(sym2, (0.0, 0.0), 1.0)
