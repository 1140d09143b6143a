import io
import json
import math
from contextlib import redirect_stdout
from decimal import Decimal

import numpy as np
import pytest

from gceo import cli
from gceo.errors import ArgumentError
from gceo.model import (
    CeoInstance,
    R_MAX,
    channel_noise_from_r,
    d_min,
    distortion,
    joint_rate,
    precision,
    precision_weight,
    r_from_channel_noise,
)
from gceo.polymatroid import rank_f

from conftest import random_alloc, random_instance
from oracles import decimal_joint_rate, in_feasible_set

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


class TestPrecisionWeight:
    @pytest.mark.parametrize("r", [1e-6, 1e-9, 1e-12])
    def test_exact_at_small_rates(self, r):
        # The weight of a description is 1/(sigma_n2 + sigma_t2) for the
        # noise channel_noise_from_r builds; 1 - exp(-2r) cancels here.
        inst = CeoInstance(1.0, (1.0, 0.37))
        for i, sn in enumerate(inst.sigma_n2):
            exact = 1.0 / (sn + channel_noise_from_r(inst, i, r))
            assert precision_weight(sn, r) == pytest.approx(exact, rel=1e-15)

    def test_cap_is_exact(self):
        assert precision_weight(0.37, R_MAX) == 1.0 / 0.37
        assert precision_weight(0.37, 0.0) == 0.0


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


class TestJointRateAccuracy:
    """The joint rate (1/2) ln(1 + w(A)/p) + r(A) to 1e-15 relative against a
    50-digit reference, from rates of 1e-15 nats up to 40: through
    ``joint_rate``, ``rank_f`` on the full set and a proper subset, and the
    ``rank_total`` of ``region vertices``."""

    # Weights of rates near 1e-12 change only the last digits of the
    # precision p, so ln(p / p0) would keep few of them (1.3e-5 relative
    # on this full set); log1p(w / p0) keeps them all.
    TINY = (CeoInstance(1.0, (0.7, 1.3, 2.0)), (1e-12, 2e-12, 3e-13))

    @staticmethod
    def _cases():
        rng = np.random.default_rng(28)
        yield TestJointRateAccuracy.TINY
        for _ in range(150):
            L = int(rng.integers(2, 7))
            noise = tuple(float(v) for v in 10 ** rng.uniform(-3, 1.5, L))
            instance = CeoInstance(float(10 ** rng.uniform(-1, 1)), noise)
            kinds = rng.integers(0, 3, L)
            tiny, mid = 10 ** rng.uniform(-15, -3, L), rng.uniform(0.05, 3.0, L)
            r = tuple(float(tiny[i]) if k == 0 else float(mid[i]) if k == 1 else 40.0 for i, k in enumerate(kinds))
            yield instance, r

    @staticmethod
    def _rel(got: float, exact: Decimal) -> float:
        return float(abs(Decimal(got) - exact) / exact)

    def test_joint_rate_and_rank_f(self):
        rng = np.random.default_rng(29)
        for instance, r in self._cases():
            L = instance.L
            everyone = decimal_joint_rate(instance, r, range(L))
            assert self._rel(joint_rate(instance.sigma_n2, r, 1.0 / instance.sigma_x2), everyone) <= 1e-15
            assert self._rel(rank_f(instance, r, (1 << L) - 1), everyone) <= 1e-15
            mask = int(rng.integers(1, (1 << L) - 1))
            inside = [i for i in range(L) if mask >> i & 1]
            assert self._rel(rank_f(instance, r, mask), decimal_joint_rate(instance, r, inside)) <= 1e-15

    def test_region_vertices_rank_total(self, tmp_path):
        path = tmp_path / "instance.json"
        for k, (instance, r) in enumerate(self._cases()):
            if k % 5 or instance.L > 4:
                continue
            path.write_text(json.dumps(instance.to_dict()))
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli.main(["region", "vertices", "--instance", str(path), "--r", ",".join(map(repr, r))])
            assert code == 0
            got = json.loads(buf.getvalue())["rank_total"]
            assert self._rel(got, decimal_joint_rate(instance, r, range(instance.L))) <= 1e-15
