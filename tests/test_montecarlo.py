import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from gceo import montecarlo
from gceo.errors import ArgumentError
from gceo.model import CeoInstance, R_MAX, distortion
from gceo.montecarlo import (
    SHARD_SIZE,
    SimConfig,
    SimReport,
    _draw_map,
    _error_map,
    _simulate,
    simulate_distortion,
    simulate_refinement,
)

from conftest import SYM2, random_alloc, random_instance
from oracles import reference_simulate

N_FAST = 200_000


class TestSingleStage:
    def test_zero_allocation_gives_prior_variance(self, sym2):
        rep = simulate_distortion(sym2, (0.0, 0.0), SimConfig(n_samples=N_FAST, seed=1))
        assert rep.analytic_d[0] == sym2.sigma_x2
        assert abs(rep.z_scores[0]) <= 5.0

    def test_frozen_example(self, sym2):
        rep = simulate_distortion(sym2, (0.5, 0.5), SimConfig(n_samples=N_FAST, seed=2))
        assert rep.analytic_d[0] == pytest.approx(0.44164907712422996, abs=1e-15)
        assert abs(rep.empirical_mse[0] - rep.analytic_d[0]) <= 4.0 * rep.stderr[0]

    def test_capped_rate_observes_directly(self):
        inst = CeoInstance(1.0, (0.7,))
        rep = simulate_distortion(inst, (R_MAX,), SimConfig(n_samples=N_FAST, seed=3))
        expect = 1.0 * 0.7 / 1.7
        assert rep.analytic_d[0] == pytest.approx(expect, rel=1e-12)
        assert abs(rep.z_scores[0]) <= 5.0

    def test_determinism(self, sym2):
        cfg = SimConfig(n_samples=77_777, seed=99)
        a = simulate_distortion(sym2, (0.4, 0.8), cfg)
        b = simulate_distortion(sym2, (0.4, 0.8), cfg)
        assert a == b

    def test_seed_sensitivity(self, sym2):
        a = simulate_distortion(sym2, (0.4, 0.8), SimConfig(n_samples=10_000, seed=1))
        b = simulate_distortion(sym2, (0.4, 0.8), SimConfig(n_samples=10_000, seed=2))
        assert a.empirical_mse != b.empirical_mse


class TestRefinementChain:
    def test_single_stage_reduction(self, sym2):
        cfg = SimConfig(n_samples=50_000, seed=7)
        a = simulate_distortion(sym2, (0.5, 0.5), cfg)
        b = simulate_refinement(sym2, [(0.5, 0.5)], cfg)
        assert a == b

    def test_two_stage_chain(self, sym2):
        cfg = SimConfig(n_samples=N_FAST, seed=8)
        rep = simulate_refinement(sym2, [(0.3, 0.3), (0.5, 0.5)], cfg)
        for j in range(2):
            assert rep.analytic_d[j] == pytest.approx(
                distortion(sym2, [(0.3, 0.3), (0.5, 0.5)][j]), abs=1e-15
            )
            assert abs(rep.z_scores[j]) <= 5.0
        assert rep.analytic_d[0] > rep.analytic_d[1]

    def test_equal_stages_share_description(self, sym2):
        cfg = SimConfig(n_samples=50_000, seed=9)
        rep = simulate_refinement(sym2, [(0.5, 0.5), (0.5, 0.5)], cfg)
        assert rep.empirical_mse[0] == rep.empirical_mse[1]

    def test_equal_stages_inside_a_longer_chain(self, sym2):
        cfg = SimConfig(n_samples=50_000, seed=12)
        rep = simulate_refinement(sym2, [(0.3, 0.2), (0.5, 0.5), (0.5, 0.5), (0.9, 0.5)], cfg)
        assert rep.empirical_mse[1] == rep.empirical_mse[2]
        assert rep.stderr[1] == rep.stderr[2]
        assert rep.empirical_mse[0] != rep.empirical_mse[1]

    def test_non_monotone_chain_rejected(self, sym2):
        with pytest.raises(ArgumentError):
            simulate_refinement(sym2, [(0.5, 0.5), (0.4, 0.6)], SimConfig(10_000, 1))

    def test_silent_encoder_stage(self, sym2):
        # First stage hears only encoder 1; second stage both.
        cfg = SimConfig(n_samples=N_FAST, seed=10)
        rep = simulate_refinement(sym2, [(0.0, 0.4), (0.6, 0.8)], cfg)
        assert abs(rep.z_scores[0]) <= 5.0
        assert abs(rep.z_scores[1]) <= 5.0


class TestEstimatorOptimality:
    def test_scaled_coefficients_increase_mse(self, sym2):
        # The estimator with its coefficients scaled by s has the error map
        # G(s)[:, 0] = sx - s (sx - G[:, 0]), G(s)[:, 1:] = s G[:, 1:]; its
        # exact MSE, the row's sum of squares, exceeds D on either side of 1.
        G, analytic = _error_map(sym2, [(0.5, 0.7)])
        sx = math.sqrt(sym2.sigma_x2)
        for s in (0.99, 1.01):
            scaled = np.concatenate([sx - s * (sx - G[:, :1]), s * G[:, 1:]], axis=1)
            assert float((scaled[0] ** 2).sum()) > analytic[0]


def _calibration_battery():
    rng = np.random.default_rng(63)
    return [(random_instance(rng, 2), random_alloc(rng, 2)) for _ in range(8)]


def test_z_scores_calibrated():
    # A battery of random allocations should produce small z-scores.
    worst = 0.0
    for k, (inst, r) in enumerate(_calibration_battery()):
        rep = simulate_distortion(inst, r, SimConfig(n_samples=N_FAST, seed=1000 + k))
        worst = max(worst, abs(rep.z_scores[0]))
    assert worst <= 5.0


def _random_chain(rng, L):
    """Nondecreasing chain of 1-4 stages (plus maybe a repeated stage) with
    encoders silent at coarse stages and capped at fine ones."""
    M = int(rng.integers(1, 5))
    rates = np.sort(rng.uniform(0.0, 1.0, (M, L)), axis=0) * rng.uniform(0.05, 3.0, L)
    for i in range(L):
        if rng.random() < 0.4:
            rates[: int(rng.integers(0, M + 1)), i] = 0.0
        if rng.random() < 0.3:
            rates[int(rng.integers(0, M)):, i] = R_MAX
    chain = [tuple(float(v) for v in row) for row in rates]
    if rng.random() < 0.4:
        j = int(rng.integers(0, M))
        chain.insert(j, chain[j])
    return chain


def _draw_count(chain, L):
    """X, one row per heard encoder, one per strict rate drop toward coarser
    stages among the stages where it is heard."""
    count = 1
    for i in range(L):
        heard = [min(stage[i], R_MAX) for stage in reversed(chain) if stage[i] > 0.0]
        if heard:
            count += 1 + sum(b < a for a, b in zip(heard, heard[1:]))
    return count


def _error_map_cases():
    rng = np.random.default_rng(77)
    cases = [(random_instance(rng, L), _random_chain(rng, L)) for L in rng.integers(1, 7, 300)]
    # Heard at a coarse stage only, within the chain tolerance.
    cases.append((SYM2, [(1e-12, 0.5), (0.0, 0.7)]))
    return cases


def test_error_map_certifies_every_stage_distortion():
    """With unscaled coefficients the squared entries of G's row j sum to
    stage j's predicted distortion, and G has one column per planned draw."""
    for inst, chain in _error_map_cases():
        L = inst.L
        G, analytic = _error_map(inst, chain)
        assert G.shape == (len(chain), _draw_count(chain, L)), chain
        for j, stage in enumerate(chain):
            assert analytic[j] == distortion(inst, stage)
            assert float((G[j] ** 2).sum()) == pytest.approx(analytic[j], rel=1e-12, abs=0.0), (inst, chain, j)
        for j in range(1, len(chain)):
            if chain[j] == chain[j - 1]:
                assert np.array_equal(G[j], G[j - 1])


def test_draw_map_keeps_the_law_of_the_error_map():
    """The stage errors drawn through the reduced map have G's covariance
    G G^T, entry by entry, with one normal per distinct stage at most."""
    for inst, chain in _error_map_cases():
        G = _error_map(inst, chain)[0]
        draw, stage_row = _draw_map(G)
        assert draw.shape[1] == min(G.shape[1], len(set(chain))), chain
        want = G @ G.T
        scale = np.sqrt(np.outer(np.diag(want), np.diag(want)))
        got = draw[stage_row] @ draw[stage_row].T
        assert np.all(np.abs(got - want) <= 1e-12 * scale), (inst, chain)


def _wide_oracle_configs():
    """A single-stage and a two-stage chain at each of L = 4, 5, 6, where
    the reduced draw map departs most from one draw per noise source."""
    rng = np.random.default_rng(26)
    configs = []
    for L in (4, 5, 6):
        inst = random_instance(rng, L)
        chain = _random_chain(rng, L)
        while len(chain) < 2 or chain[-2] == chain[-1]:
            chain = _random_chain(rng, L)
        configs += [(inst, chain[-1:]), (inst, chain[-2:])]
    return configs


_ORACLE_CONFIGS = [
    (SYM2, [(0.0, 0.0)]),
    (SYM2, [(0.5, 0.5)]),
    (CeoInstance(1.0, (0.7,)), [(R_MAX,)]),
    (SYM2, [(0.3, 0.3), (0.5, 0.5)]),
    (SYM2, [(0.5, 0.5), (0.5, 0.5)]),
    (SYM2, [(0.0, 0.4), (0.6, 0.8)]),
    *((inst, [r]) for inst, r in _calibration_battery()),
    *_wide_oracle_configs(),
]


@pytest.mark.parametrize("k", range(len(_ORACLE_CONFIGS)))
def test_kernel_agrees_with_the_literal_cascade(k):
    inst, chain = _ORACLE_CONFIGS[k]
    rep = simulate_refinement(inst, chain, SimConfig(n_samples=N_FAST, seed=2000 + k))
    mse, stderr = reference_simulate(inst, chain, N_FAST, seed=3000 + k)
    for j in range(len(chain)):
        gap = abs(rep.empirical_mse[j] - mse[j])
        assert gap <= 5.0 * math.hypot(rep.stderr[j], stderr[j]), (j, rep, mse, stderr)


def test_config_validation():
    with pytest.raises(ArgumentError):
        SimConfig(n_samples=0, seed=1)
    with pytest.raises(ArgumentError, match="at least 2"):
        SimConfig(n_samples=1, seed=1)  # one sample has no standard error
    with pytest.raises(ArgumentError):
        SimConfig(n_samples=10, seed=-1)


def _sequential(instance, chain, n, seed):
    """(MSE, standard error) per stage from one SFC64 stream seeded by
    ``seed``, drawn chunk after chunk through ``_draw_map`` and summed in
    chunk order."""
    G, row = _draw_map(_error_map(instance, chain)[0])
    rng = np.random.Generator(np.random.SFC64(seed))
    sum_se, sum_se2 = np.zeros(len(G)), np.zeros(len(G))
    for start in range(0, n, SHARD_SIZE):
        se = G @ rng.standard_normal((G.shape[1], min(SHARD_SIZE, n - start)))
        se *= se
        sum_se += se.sum(axis=1)
        sum_se2 += (se * se).sum(axis=1)
    mse, stderr = [], []
    for j in row.tolist():
        mse.append(float(sum_se[j]) / n)
        var = (float(sum_se2[j]) - n * mse[-1] ** 2) / (n - 1)
        stderr.append(math.sqrt(max(var, 0.0) / n))
    return tuple(mse), tuple(stderr)


_SEQUENTIAL_CHAINS = [
    (SYM2, [(0.5, 0.7)]),
    (SYM2, [(0.3, 0.2), (0.5, 0.5), (0.5, 0.5), (0.9, 0.5)]),
    (CeoInstance(2.0, (0.5, 1.0, 3.0)), [(0.0, 0.4, 0.1), (0.6, 0.8, R_MAX)]),
]


@pytest.fixture(params=[1, 3], ids=["inline", "pooled"])
def callers(request):
    """Simulate from the test thread alone, or from three pool threads at
    once: each call draws from its own stream in its caller's thread and
    the module keeps no state between calls, so concurrent callers get the
    same answers."""
    return request.param


def _in_callers(callers, fn):
    """The outcome of ``fn()`` in each caller: its value, or the exception
    it raised.  A barrier starts the pooled callers together, each in a
    thread of its own."""
    start = threading.Barrier(callers)

    def outcome():
        start.wait(timeout=10.0)
        try:
            return fn()
        except Exception as exc:
            return exc

    if callers == 1:
        return [outcome()]
    with ThreadPoolExecutor(callers) as pool:
        return list(pool.map(lambda _: outcome(), range(callers)))


@pytest.mark.parametrize("n", [1, 2, SHARD_SIZE, SHARD_SIZE + 1, 7 * SHARD_SIZE + 5])
@pytest.mark.parametrize("k", range(len(_SEQUENTIAL_CHAINS)))
def test_pooled_shards_equal_the_sequential_loop(callers, n, k):
    """Every caller's report equals the one-stream chunk loop.  One
    sample has no standard error, so every caller refuses it."""
    inst, chain = _SEQUENTIAL_CHAINS[k]
    reps = _in_callers(callers, lambda: _simulate(inst, chain, SimConfig(n, seed=40 + k)))
    if n == 1:
        assert all(isinstance(rep, ArgumentError) for rep in reps), reps
        return
    expected = _sequential(inst, chain, n, seed=40 + k)
    assert [(rep.empirical_mse, rep.stderr) for rep in reps] == [expected] * callers


def test_failing_chunk_stops_every_caller(callers, monkeypatch):
    """A failing chunk stops the simulation promptly, even at n = 2^62,
    and in every caller no chunk after it has started.  Each call draws
    every chunk from one generator of its own."""
    k = 5
    calls = {}
    lock = threading.Lock()

    def failing_sums(G, rng, m):
        with lock:
            rngs = calls.setdefault(threading.get_ident(), [])
            rngs.append(rng)
        if len(rngs) == k + 1:
            raise RuntimeError("chunk failed")
        return np.zeros(len(G)), np.zeros(len(G))

    monkeypatch.setattr(montecarlo, "_shard_sums", failing_sums)
    start = time.perf_counter()
    outcomes = _in_callers(callers, lambda: simulate_distortion(SYM2, (0.5, 0.5), SimConfig(2**62, seed=1)))
    assert time.perf_counter() - start < 10.0
    assert all(isinstance(o, RuntimeError) and str(o) == "chunk failed" for o in outcomes), outcomes
    assert sorted(len(rngs) for rngs in calls.values()) == [k + 1] * callers, calls
    assert all(rng is rngs[0] for rngs in calls.values() for rng in rngs)
    assert len({id(rngs[0]) for rngs in calls.values()}) == callers
