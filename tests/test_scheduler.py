import io
import json
import math
import time
from collections import Counter
from contextlib import redirect_stdout
from itertools import combinations, permutations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gceo import cli, polymatroid, scheduler
from gceo.errors import ArgumentError, InternalInconsistencyError
from gceo.model import MAX_ENCODERS, CeoInstance, R_MAX, distortion
from gceo.polymatroid import identify_face, rank_f, vertex
from gceo.scheduler import (
    Description,
    Schedule,
    WzStep,
    _stop,
    build_schedule,
    fine_description,
    gaussian_mi,
    validate_schedule,
)

from conftest import (
    CountingMath,
    boundary_vertex,
    dominant_face_point,
    random_alloc,
    random_instance,
)
from oracles import covariance_mi, covariance_mmse, exhaustive_stop

HALF_LN3 = 0.5493061443340549


class TestGaussianMi:
    def test_unconditioned(self, sym2):
        w = Description(0, 1.0)
        assert gaussian_mi(sym2, w) == pytest.approx(HALF_LN3, abs=1e-14)

    def test_vacuous_side_information(self, sym2):
        w = Description(0, 1.0)
        coarse = Description(0, math.inf, stage=1)
        assert gaussian_mi(sym2, w, [coarse]) == pytest.approx(
            gaussian_mi(sym2, w), abs=1e-15
        )

    def test_closed_form_distinct_encoders(self):
        # With side info from the other encoders only, the rate reduces to
        # (1/2) ln((D_S + sigma_n2 + v) / v) with D_S the source MMSE given
        # the side descriptions.
        rng = np.random.default_rng(21)
        inst = random_instance(rng, 3)
        r = random_alloc(rng, 3, lo=0.2)
        fines = [fine_description(inst, r, i) for i in range(3)]
        d_s = covariance_mmse(inst, [fines[1], fines[2]])
        v = fines[0].sigma_t2_total
        expect = 0.5 * math.log((d_s + inst.sigma_n2[0] + v) / v)
        assert gaussian_mi(inst, fines[0], [fines[1], fines[2]]) == pytest.approx(
            expect, abs=1e-12
        )

    def test_nested_same_encoder(self, sym2):
        fine = Description(0, 0.5, stage=2)
        coarse = Description(0, 2.0, stage=1)
        # Chain rule: rate(coarse) + rate(fine | coarse) = rate(fine).
        total = gaussian_mi(sym2, coarse) + gaussian_mi(sym2, fine, [coarse])
        assert total == pytest.approx(gaussian_mi(sym2, fine), abs=1e-12)

    def test_finer_side_description_pins_target(self, sym2):
        fine = Description(0, 0.5, stage=2)
        coarse = Description(0, 2.0, stage=1)
        assert gaussian_mi(sym2, coarse, [fine]) == 0.0
        assert gaussian_mi(sym2, fine, [fine]) == 0.0


class TestBuildSchedule:
    def test_single_encoder(self):
        inst = CeoInstance(1.0, (1.0,))
        r = (0.6,)
        R = vertex(inst, r, (0,))
        schedule = build_schedule(inst, r, R)
        assert schedule.total_steps == 1
        assert schedule.steps[0].side_info == ()

    def test_vertex_gives_plain_pipeline(self, sym2):
        r = (0.5, 0.5)
        for pi in permutations(range(2)):
            R = vertex(sym2, r, pi)
            schedule = build_schedule(sym2, r, R)
            assert schedule.total_steps == 2
            # Decode order is pi reversed: pi[-1] first, pi[0] last.
            decode = tuple(s.description.encoder for s in schedule.steps)
            assert decode == tuple(reversed(pi))

    def test_midpoint_splits_once(self, sym2):
        r = (0.5, 0.5)
        a = vertex(sym2, r, (0, 1))
        b = vertex(sym2, r, (1, 0))
        mid = tuple((x + y) / 2 for x, y in zip(a, b))
        schedule = build_schedule(sym2, r, mid)
        assert schedule.total_steps == 3
        stages = [s.description.stage for s in schedule.steps]
        assert stages.count(1) == 1
        report = validate_schedule(sym2, schedule, mid)
        assert report.ok, report.diagnostics

    def test_all_vertices_l3(self):
        rng = np.random.default_rng(22)
        inst = random_instance(rng, 3)
        r = random_alloc(rng, 3, lo=0.1)
        for pi in permutations(range(3)):
            R = vertex(inst, r, pi)
            schedule = build_schedule(inst, r, R)
            assert schedule.total_steps == 3
            assert validate_schedule(inst, schedule, R).ok

    def test_interior_points(self):
        rng = np.random.default_rng(23)
        for L in (2, 3, 4):
            inst = random_instance(rng, L)
            r = random_alloc(rng, L, lo=0.1)
            R = dominant_face_point(inst, r, rng)
            schedule = build_schedule(inst, r, R)
            assert schedule.total_steps <= 2 * L - 1
            report = validate_schedule(inst, schedule, R)
            assert report.ok, report.diagnostics

    def test_rejects_off_face_points(self, sym2):
        with pytest.raises(ArgumentError):
            build_schedule(sym2, (0.5, 0.5), (10.0, 10.0))

    def test_zero_allocation_encoder_skipped(self):
        inst = CeoInstance(1.0, (1.0, 1.0, 1.0))
        r = (0.5, 0.4, 0.0)
        R = vertex(inst, r, (0, 1, 2))
        schedule = build_schedule(inst, r, R)
        assert schedule.total_steps == 2
        assert all(s.description.encoder != 2 for s in schedule.steps)


class TestValidateSchedule:
    def test_tamper_detection(self, sym2):
        r = (0.5, 0.5)
        R = vertex(sym2, r, (0, 1))
        schedule = build_schedule(sym2, r, R)
        from dataclasses import replace

        bad_step = replace(schedule.steps[0], rate=schedule.steps[0].rate + 1e-6)
        from gceo.scheduler import Schedule

        tampered = Schedule((bad_step,) + schedule.steps[1:])
        report = validate_schedule(sym2, tampered, R, tol=1e-7)
        assert not report.ok
        assert any("step 0" in d for d in report.diagnostics)

    def test_stage_order_diagnostics(self, sym2):
        # The midpoint schedule decodes one encoder coarse, then the other,
        # then the first one fine.
        r = (0.5, 0.5)
        mid = tuple((x + y) / 2 for x, y in zip(vertex(sym2, r, (0, 1)), vertex(sym2, r, (1, 0))))
        coarse, other, fine = build_schedule(sym2, r, mid).steps
        enc = fine.description.encoder + 1  # messages number encoders from 1
        cases = {
            (fine, other, coarse): f"encoder {enc}: coarse stage decoded after fine stage",
            (coarse, other, WzStep(Description(enc - 1, coarse.description.sigma_t2_total), fine.rate)):
                f"encoder {enc}: fine stage is not strictly finer than coarse stage",
            (coarse, other, fine, fine): f"encoder {enc}: stage 2 scheduled twice",
        }
        for steps, diagnostic in cases.items():
            assert diagnostic in validate_schedule(sym2, Schedule(steps), mid).diagnostics
        assert "4 steps exceeds bound 3" in validate_schedule(sym2, Schedule((coarse, other, fine, fine)), mid).diagnostics

    @pytest.mark.parametrize("check", ["step", "sum", "mmse"])
    def test_nan_fails_each_check(self, sym2, check, monkeypatch):
        r = (0.5, 0.5)
        R = vertex(sym2, r, (0, 1))
        schedule = build_schedule(sym2, r, R)
        if check == "step":
            first = schedule.steps[0]
            schedule = Schedule((WzStep(first.description, math.nan, first.side_info),) + schedule.steps[1:])
        elif check == "sum":
            R = (R[0], math.nan)
        else:
            monkeypatch.setattr(scheduler, "distortion", lambda *args: math.nan)
        assert not validate_schedule(sym2, schedule, R).ok

    def test_rate_sum_mismatch_detected(self, sym2):
        r = (0.5, 0.5)
        R = vertex(sym2, r, (0, 1))
        schedule = build_schedule(sym2, r, R)
        wrong = (R[0] + 0.1, R[1])
        assert not validate_schedule(sym2, schedule, wrong).ok

    def test_rate_conservation(self):
        rng = np.random.default_rng(24)
        inst = random_instance(rng, 3)
        r = random_alloc(rng, 3, lo=0.1)
        R = dominant_face_point(inst, r, rng)
        schedule = build_schedule(inst, r, R)
        total = sum(s.rate for s in schedule.steps)
        assert total == pytest.approx(rank_f(inst, r, 0b111), abs=1e-7)


class TestScheduleForFace:
    """build_schedule on points of lower-dimensional faces: L + d steps."""

    def test_vertex_needs_l_steps(self):
        rng = np.random.default_rng(25)
        inst = random_instance(rng, 3)
        r = random_alloc(rng, 3, lo=0.1)
        R = boundary_vertex(inst, r)
        assert build_schedule(inst, r, R).total_steps == 3

    def test_edge_point_needs_four_steps(self):
        # Three encoders, rate point on the edge between the vertices of the
        # two orders that decode encoder 0 last: one split, four steps.
        inst = CeoInstance(1.0, (0.8, 1.1, 1.4))
        r = (0.6, 0.5, 0.4)
        v1 = vertex(inst, r, (0, 1, 2))
        v2 = vertex(inst, r, (0, 2, 1))
        mid = tuple((a + b) / 2 for a, b in zip(v1, v2))
        schedule = build_schedule(inst, r, mid)
        assert schedule.total_steps == 4
        assert validate_schedule(inst, schedule, mid).ok

    def test_interior_point_bound(self):
        rng = np.random.default_rng(26)
        inst = random_instance(rng, 3)
        r = random_alloc(rng, 3, lo=0.1)
        R = dominant_face_point(inst, r, rng)
        face = identify_face(inst, r, R)
        schedule = build_schedule(inst, r, R)
        assert schedule.total_steps <= 3 + face.dimension


class TestFaceStep:
    """A tight set with two or more encoders on each side: neither a lone
    encoder at its unconditioned rate nor one at its fully conditioned
    rate, so only the face step finds it."""

    # Midpoint of the vertices of orders (0, 2, 3, 1) and (2, 0, 1, 3): a
    # 2-face whose blocks are {1, 3} then {0, 2}.
    INST = CeoInstance(1.94, (0.18, 2.58, 1.98, 2.95))
    ALLOC = (0.99, 3.0, 0.27, 1.66)

    def _point(self):
        a = vertex(self.INST, self.ALLOC, (0, 2, 3, 1))
        b = vertex(self.INST, self.ALLOC, (2, 0, 1, 3))
        return tuple((x + y) / 2 for x, y in zip(a, b))

    def test_two_face_point(self):
        R = self._point()
        assert identify_face(self.INST, self.ALLOC, R).blocks == ((1, 3), (0, 2))
        schedule = build_schedule(self.INST, self.ALLOC, R)
        assert schedule.total_steps == 6
        assert {s.description.encoder for s in schedule.steps[:3]} == {1, 3}
        report = validate_schedule(self.INST, schedule, R)
        assert report.ok, report.diagnostics

    def test_two_face_point_through_the_cli(self, tmp_path):
        R = self._point()
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(self.INST.to_dict()))
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main([
                "schedule", "--instance", str(path),
                "--r", ",".join(repr(v) for v in self.ALLOC), "--R", ",".join(repr(v) for v in R),
            ])
        assert code == 0
        payload = json.loads(out.getvalue())
        assert payload["total_steps"] == 6
        schedule = Schedule(tuple(
            WzStep(Description(s["encoder"] - 1, s["sigma_t2"], s["stage"]), s["rate"])
            for s in payload["steps"]
        ))
        report = validate_schedule(self.INST, schedule, R)
        assert report.ok, report.diagnostics

    def test_crossing_tight_sets_still_schedule(self):
        # At 1e-6 nats the descriptions are independent to within the
        # tolerance, so near-tight sets cross; the face step keeps the
        # prefixes of the threshold order within the rounding floor.
        inst = CeoInstance(1.0, (1.0, 1.0, 2.0))
        r = (1e-6, 1e-6, 1e-6)
        for pi in permutations(range(3)):
            R = vertex(inst, r, pi)
            schedule = build_schedule(inst, r, R)
            assert schedule.total_steps == 3
            report = validate_schedule(inst, schedule, R)
            assert report.ok, report.diagnostics


def _partition_mixture(rng, inst, r, vertices):
    """A random mixture of ``vertices`` vertices whose decode orders keep
    one random ordered partition of the encoders into blocks of any size:
    a point of the face that partition cuts out."""
    L = inst.L
    perm = [int(i) for i in rng.permutation(L)]
    blocks = []
    while perm:
        size = int(rng.integers(1, len(perm) + 1))
        blocks.append(perm[:size])
        perm = perm[size:]
    orders = [tuple(int(i) for b in blocks for i in rng.permutation(b)) for _ in range(vertices)]
    weights = rng.dirichlet(np.ones(vertices))
    vs = [vertex(inst, r, pi) for pi in orders]
    return tuple(float(sum(w * v[j] for w, v in zip(weights, vs))) for j in range(L))


@settings(max_examples=150)
@given(
    L=st.integers(min_value=4, max_value=6),
    vertices=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_partition_mixtures_take_l_plus_d_steps(L, vertices, seed):
    """Mixtures of vertices whose decode orders keep a random ordered
    partition into blocks of any size validate within L + d steps on
    their d-face."""
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, L)
    r = random_alloc(rng, L)
    R = _partition_mixture(rng, inst, r, vertices)
    schedule = build_schedule(inst, r, R)
    report = validate_schedule(inst, schedule, R)
    assert report.ok, report.diagnostics
    assert schedule.total_steps <= L + identify_face(inst, r, R).dimension


def _face_steps(L, rates, seed):
    """(instance, R, schedule, calls): a schedule built at a random face
    point (allocations log-uniform in ``rates``), with every face step the
    builder took as (members, lo, e, w, tie, blocks), e and w copied at
    the call."""
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, L)
    r = tuple(float(v) for v in np.exp(rng.uniform(math.log(rates[0]), math.log(rates[1]), L)))
    R = _partition_mixture(rng, inst, r, int(rng.integers(1, 5)))
    calls = []
    real = scheduler._tight_blocks

    def recording(members, lo, e, w, tie):
        blocks = real(members, lo, e, w, tie)
        calls.append((list(members), lo, dict(e), dict(w), tie, blocks))
        return blocks

    with mock.patch.object(scheduler, "_tight_blocks", recording):
        schedule = build_schedule(inst, r, R)
    return inst, R, schedule, calls


@settings(max_examples=150)
@given(L=st.integers(min_value=2, max_value=16), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_face_step_prefixes_match_the_one_away_scan(L, seed):
    """At the builder's tie (the rounding floor), the chain cut from the
    prefixes of the threshold order is the chain of ``_tight_chain``,
    which also tests every set one encoder away from a prefix."""
    _, _, _, calls = _face_steps(L, (1e-4, 45.0), seed)
    assert calls
    for members, lo, e, w, tie, blocks in calls:
        assert blocks == polymatroid._tight_chain(members, {j: -e[j] for j in members}, w, lo, tie)[0]


@settings(max_examples=100)
# A face step here cuts a different chain from the one-away scan's: at
# 1e-7..1e-4 nats g is nearly modular and sets tie within the floor.
@example(L=4, seed=107)
@given(L=st.integers(min_value=2, max_value=16), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_tiny_allocation_schedules_validate(L, seed):
    inst, R, schedule, _ = _face_steps(L, (1e-7, 1e-4), seed)
    report = validate_schedule(inst, schedule, R)
    assert report.ok, report.diagnostics


def test_face_step_logarithm_count_is_linear():
    # One pass over the prefixes takes one log1p per member; the one-away
    # scan took one per candidate set, ~L^2.
    rng = np.random.default_rng(41)
    L = 256
    members = list(range(L))
    w = [float(x) for x in rng.uniform(0.1, 2.0, L)]
    # Excesses of a mixture of two decode orders inside each of three
    # blocks: the blocks' unions are tight at the bottom lo = 1.
    cuts = (0, 80, 170, L)
    e, lo = [0.0] * L, 1.0
    for a, b in zip(cuts, cuts[1:]):
        block = members[a:b]
        t = float(rng.uniform(0.2, 0.8))
        for order, share in ((block, t), (block[::-1], 1.0 - t)):
            p = lo
            for i in order:
                e[i] += share * 0.5 * math.log1p(w[i] / p)
                p += w[i]
        lo = p
    counter = CountingMath("log1p")
    tie = 1e-10
    with mock.patch.object(polymatroid, "math", counter):
        blocks = scheduler._tight_blocks(members, 1.0, e, w, tie)
    assert 0 < len(counter.calls) <= L
    assert blocks == tuple(tuple(members[a:b]) for a, b in zip(cuts, cuts[1:]))


def _mixture(rng, inst, r, kind):
    """A dominant-face point: two random vertices mixed uniformly
    ("two-vertex") or with one weight in [1e-6, 1e-2] ("near-face"), or a
    Dirichlet mixture of four ("dirichlet")."""
    L = inst.L
    vs = [vertex(inst, r, tuple(int(i) for i in rng.permutation(L))) for _ in range(4 if kind == "dirichlet" else 2)]
    if kind == "dirichlet":
        weights = rng.dirichlet(np.ones(4))
    else:
        t = float(rng.uniform()) if kind == "two-vertex" else float(10.0 ** rng.uniform(-6.0, -2.0))
        weights = (t, 1.0 - t)
    return tuple(float(sum(a * v[j] for a, v in zip(weights, vs))) for j in range(L))


@settings(max_examples=200)
# Coarse step rates taken from the weight rather than from the emitted
# noise were 1.3e-12 to 1.7e-12 off at these draws.
@example(L=7, kind="near-face", rates=(3.0, 7.0), seed=525564610)
@example(L=8, kind="near-face", rates=(3.0, 7.0), seed=3101882965)
@example(L=8, kind="near-face", rates=(1e-6, 7.0), seed=3297492489)
@given(
    L=st.integers(min_value=3, max_value=8),
    kind=st.sampled_from(["two-vertex", "dirichlet", "near-face"]),
    rates=st.sampled_from([(1e-6, 1e-3), (0.05, 3.0), (3.0, 7.0), (1e-6, 7.0), (8.0, 45.0)]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_axis_tiling_reaches_every_point(L, kind, rates, seed):
    """Every point builds (no exit 3) within L + d steps, with at most two
    descriptions per encoder, no empty piece, step rates that the exact
    covariance sweep of the decoded descriptions reproduces, and exact rate
    sums.  Allocations are log-uniform in the drawn range."""
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, L)
    r = tuple(float(v) for v in np.exp(rng.uniform(math.log(rates[0]), math.log(rates[1]), L)))
    R = _mixture(rng, inst, r, kind)
    schedule = build_schedule(inst, r, R)
    # The builder's face step ties at the rounding floor of the rates, as
    # identify_face does at tol 0, so d is the dimension of that face.
    try:
        d = identify_face(inst, r, R, 0.0).dimension
    except InternalInconsistencyError:  # tight sets cross: no face to compare with
        d = L - 1
    assert schedule.total_steps <= L + d
    assert max(Counter(s.description.encoder for s in schedule.steps).values()) <= 2
    decoded = []
    for step in schedule.steps:
        desc, scale = step.description, max(1.0, R[step.description.encoder])
        assert step.rate > 0.0
        assert desc.stage == 2 or fine_description(inst, r, desc.encoder).sigma_t2_total < desc.sigma_t2_total < math.inf
        assert abs(step.rate - covariance_mi(inst, desc, decoded, exact=True)) <= 1e-12 * scale
        decoded.append(desc)
    sums = schedule.per_encoder_rate(L)
    for i in range(L):
        assert abs(sums[i] - R[i]) <= 1e-12 * max(1.0, R[i])


def test_final_distortion_matches(sym2):
    r = (0.5, 0.5)
    R = vertex(sym2, r, (0, 1))
    schedule = build_schedule(sym2, r, R)
    finest = [s.description for s in schedule.steps if s.description.stage == 2]
    assert covariance_mmse(sym2, finest) == pytest.approx(distortion(sym2, r), abs=1e-12)


def _random_side_set(rng, fines):
    """Side information mixing nested coarse stages, near-duplicates (within
    1e-10 relative), vacuous descriptions and fine stages, in random order."""
    side = []
    for fine in fines:
        enc, t = fine.encoder, fine.sigma_t2_total
        for _ in range(int(rng.integers(0, 4))):
            kind = int(rng.integers(0, 4))
            if kind == 0:
                side.append(fine)
            elif kind == 1:
                side.append(Description(enc, t * float(rng.uniform(1.01, 20.0)), stage=1))
            elif kind == 2:
                side.append(Description(enc, t * (1.0 + float(rng.uniform(-5e-11, 5e-11)))))
            else:
                side.append(Description(enc, math.inf, stage=1))
    rng.shuffle(side)
    return side


def _rate_draws(seed, lo, hi, count=600):
    """(instance, target, side) triples: allocations uniform in [lo, hi],
    side sets from ``_random_side_set`` (near-duplicates included), and for
    each a fine, a coarse and a vacuous target."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        L = int(rng.integers(1, 6))
        inst = random_instance(rng, L)
        r = random_alloc(rng, L, lo=lo, hi=hi)
        fines = [fine_description(inst, r, i) for i in range(L)]
        side = _random_side_set(rng, fines)
        j = int(rng.integers(0, L))
        t = fines[j].sigma_t2_total
        for target in (
            fines[j],
            Description(j, t * float(rng.uniform(1.01, 20.0)), stage=1),
            Description(j, math.inf, stage=1),
        ):
            yield inst, target, side


class TestScalarRate:
    """The closed-form rate engine and the float covariance sweep against
    the exact (``Fraction``) covariance sweep."""

    @staticmethod
    def _worst_engine_error(seed, lo, hi):
        return max(
            abs(gaussian_mi(inst, target, side) - covariance_mi(inst, target, side, exact=True))
            for inst, target, side in _rate_draws(seed, lo, hi)
        )

    def test_matches_gaussian_mi(self):
        assert self._worst_engine_error(31, 0.05, 3.0) <= 1e-12

    def test_matches_gaussian_mi_at_high_rates(self):
        # Where the float sweep cancels: sigma_x2 + sigma_n2 + t swamps t.
        assert self._worst_engine_error(35, 8.0, 45.0) <= 1e-12

    def test_float_sweep_matches_the_exact_sweep(self):
        # Up to 3 nats the float sweep loses ~1e-13.  Its pivot rule takes a
        # description within _PIVOT_REL of an earlier one of its encoder as
        # determined, so a near-duplicate adds nothing where its exact rate
        # is ~1e-11.
        clean = near = 0.0
        for inst, target, side in _rate_draws(31, 0.05, 3.0):
            err = abs(covariance_mi(inst, target, side) - covariance_mi(inst, target, side, exact=True))
            pairs = combinations([d for d in side + [target] if d.sigma_t2_total < math.inf], 2)
            if any(a.encoder == b.encoder and 0.0 < abs(a.sigma_t2_total / b.sigma_t2_total - 1.0) < 1e-9 for a, b in pairs):
                near = max(near, err)
            else:
                clean = max(clean, err)
        assert clean <= 1e-12
        assert near <= 1e-10

    def test_grow_stop_matches_every_subset(self):
        # The best prefix of one threshold order against the best y_A over
        # all subsets, for arbitrary positive excesses and weights.  The
        # second range passes ~18.72 nats, where -expm1(-2 e) rounds to 1
        # and a base precision y - w(all) keeps no digit.
        worst = 0.0
        for seed, most in ((32, 7.0), (33, 40.0)):
            rng = np.random.default_rng(seed)
            for _ in range(300):
                n = int(rng.integers(1, 8))
                e = [float(v) for v in np.exp(rng.uniform(math.log(1e-6), math.log(most), n))]
                w = [float(v) for v in np.exp(rng.uniform(math.log(1e-6), math.log(3.0), n))]
                for top in (True, False):
                    want = exhaustive_stop(e, w, top)
                    worst = max(worst, abs(_stop(e, w, top) - want) / want)
        assert worst <= 1e-12

    def test_a_choice_rule_miss_names_encoders_from_one(self, sym2, monkeypatch):
        # With no proper set ever tight, no growth leaves a block: every
        # (k, side) misses, and the message counts encoders from 1.
        monkeypatch.setattr(scheduler, "_tight_blocks", lambda members, *args: (tuple(members),))
        r = (0.5, 0.5)
        mid = tuple((x + y) / 2 for x, y in zip(vertex(sym2, r, (0, 1)), vertex(sym2, r, (1, 0))))
        with pytest.raises(InternalInconsistencyError, match=r"no member of \[1, 2\] can grow a piece"):
            build_schedule(sym2, r, mid)


def test_mixed_high_rate_midpoint_builds():
    # Midpoint of two reversed vertices with rates up to ~8.5 nats: every
    # split candidate used to fail here.
    inst = CeoInstance(3.0, (0.44, 3.19, 0.14, 4.26))
    r = (4.5, 7.6, 7.5, 3.7)
    a = vertex(inst, r, (0, 1, 2, 3))
    b = vertex(inst, r, (3, 2, 1, 0))
    R = tuple((x + y) / 2 for x, y in zip(a, b))
    schedule = build_schedule(inst, r, R)
    assert schedule.total_steps <= 7
    assert validate_schedule(inst, schedule, R).ok


def test_roadmap_repro_through_the_cli(tmp_path):
    # A 3-face point that no nested coarse [rest] fine pattern reaches: the
    # axis tiling decodes 1, 3, 0, 3, 1, 2, 0 in 7 steps.
    inst = CeoInstance(1.57, (0.41, 3.84, 2.83, 0.23))
    r = (0.2, 0.43, 1.1, 2.59)
    a = vertex(inst, r, (0, 3, 1, 2))
    b = vertex(inst, r, (2, 0, 1, 3))
    R = tuple(0.01 * x + 0.99 * y for x, y in zip(a, b))
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst.to_dict()))
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main([
            "schedule", "--instance", str(path),
            "--r", ",".join(repr(v) for v in r), "--R", ",".join(repr(v) for v in R),
        ])
    assert code == 0
    payload = json.loads(out.getvalue())
    assert payload["total_steps"] == 7
    assert [s["encoder"] - 1 for s in payload["steps"]] == [1, 3, 0, 3, 1, 2, 0]


def test_midpoint_at_a_noise_ratio_of_1e_minus_20_schedules(tmp_path):
    # The midpoint of the two vertices: the first encoder's piece from the
    # top stops at y* = w / -expm1(-2 e) for the second, whose excess is
    # e = 22.8 nats; a base precision y - w cancels to 0 there ("math
    # domain error").
    R = (1.155770315099916, 23.79737388590611)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"sigma_x2": 1, "sigma_n2": [1, 1e-20]}))
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["schedule", "--instance", str(path), "--r", "1,1", "--R", ",".join(map(repr, R))])
    assert code == 0
    sums = [0.0, 0.0]
    for step in json.loads(out.getvalue())["steps"]:
        sums[step["encoder"] - 1] += step["rate"]
    assert all(abs(s - t) <= 1e-12 * t for s, t in zip(sums, R))


@pytest.mark.xfail(strict=True, raises=InternalInconsistencyError, reason="ROADMAP item 2: no (k, side) satisfies the choice rule")
def test_choice_rule_miss_at_a_moderate_six_encoder_point():
    # The second grow's interval holds encoders 1, 2, 3, 5 and 6, and
    # encoder 1, which has a piece, is fourth of five in their
    # excess-per-weight order: neither case that the stop lemma settles.
    inst = CeoInstance(1.0, (
        3.2122668975464807e-10, 0.002071962324812211, 0.0015855967248555587,
        1.1971649263762263e-07, 1.6781842090067107e-06, 1.594243906860654e-10,
    ))
    r = (0.11467512839420381, 1.8586149480602303, 1.8104091623957639, 0.10664138658340311, 1.9756200384851537, 1.6004234524273668)
    R = (4.31352319005155, 3.2087474594847833, 3.7071141640804113, 0.10676190595617865, 3.34321106814668, 4.096517114404458)
    assert validate_schedule(inst, build_schedule(inst, r, R), R).ok


def test_two_vertex_point_at_max_encoders():
    # The split search this construction replaced spent minutes in its
    # candidate handover on some L = 12 points; the tiling cuts one piece
    # per grow, O(L^3) scan work each.
    rng = np.random.default_rng(33)
    inst = random_instance(rng, MAX_ENCODERS)
    r = random_alloc(rng, MAX_ENCODERS)
    R = _mixture(rng, inst, r, "two-vertex")
    start = time.perf_counter()
    schedule = build_schedule(inst, r, R)
    elapsed = time.perf_counter() - start
    assert schedule.total_steps <= 2 * MAX_ENCODERS - 1
    assert elapsed < 0.25


def test_high_rate_vertex_pipelines_validate():
    rng = np.random.default_rng(34)
    for _ in range(20):
        L = int(rng.integers(2, 5))
        inst = random_instance(rng, L)
        r = random_alloc(rng, L, lo=8.0, hi=12.0)
        R = vertex(inst, r, tuple(int(i) for i in rng.permutation(L)))
        assert build_schedule(inst, r, R).total_steps == L


_ALLOCATION_ENTRY = st.one_of(
    st.just(0.0), st.floats(min_value=0.05, max_value=6.0), st.floats(min_value=8.0, max_value=45.0)
)


@settings(max_examples=120)
@given(
    L=st.integers(min_value=2, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.data(),
)
def test_dominant_face_schedules(L, seed, data):
    """Every dominant-face point validates, stays within 2 * (active
    encoders) - 1 steps and sums to R per encoder."""
    rng = np.random.default_rng(seed)
    inst = random_instance(rng, L)
    r = tuple(data.draw(st.lists(_ALLOCATION_ENTRY, min_size=L, max_size=L)))
    R = dominant_face_point(inst, r, rng)
    active = sum(1 for v in r if v > 0.0)
    schedule = build_schedule(inst, r, R)
    assert validate_schedule(inst, schedule, R).ok
    assert schedule.total_steps <= max(0, 2 * active - 1)
    sums = schedule.per_encoder_rate(L)
    for i in range(L):
        assert abs(sums[i] - R[i]) <= 1e-12 * max(1.0, R[i])


@pytest.mark.parametrize("lo, hi", [(0.05, 3.0), (8.0, 12.0), (20.0, 45.0)])
def test_validator_rejects_a_step_moved_by_1e_9(lo, hi):
    """At tol 1e-12 every built two-vertex schedule validates, and moving
    one step's rate by 1e-9 nats is rejected, at low and high rates alike.
    The step rates agree with the exact covariance sweep to 1e-12, and with
    the float sweep at low rates."""
    from dataclasses import replace

    rng = np.random.default_rng(36)
    for _ in range(40):
        L = int(rng.integers(2, 6))
        inst = random_instance(rng, L)
        r = random_alloc(rng, L, lo=lo, hi=hi)
        R = _mixture(rng, inst, r, "two-vertex")
        schedule = build_schedule(inst, r, R)
        report = validate_schedule(inst, schedule, R, tol=1e-12)
        assert report.ok, report.diagnostics
        decoded = []
        for step in schedule.steps:
            assert abs(step.rate - covariance_mi(inst, step.description, decoded, exact=True)) <= 1e-12
            if hi <= 3.0:
                assert abs(step.rate - covariance_mi(inst, step.description, decoded)) <= 1e-12
            decoded.append(step.description)
        k = int(rng.integers(0, schedule.total_steps))
        moved = replace(schedule.steps[k], rate=schedule.steps[k].rate + float(rng.choice([-1e-9, 1e-9])))
        tampered = Schedule(schedule.steps[:k] + (moved,) + schedule.steps[k + 1 :])
        report = validate_schedule(inst, tampered, R, tol=1e-12)
        assert not report.ok
        assert any(d.startswith(f"step {k} ") for d in report.diagnostics)
