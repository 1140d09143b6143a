import io
import json
import math
import time
from contextlib import redirect_stdout
from itertools import permutations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gceo import cli, polymatroid
from gceo.errors import ArgumentError, ConvergenceError, InternalInconsistencyError
from gceo.model import MAX_ENCODERS, R_MAX, CeoInstance, precision, precision_weight, rate_floor
from gceo.polymatroid import (
    _scan_min_slack,
    identify_face,
    min_slack,
    on_dominant_face,
    rank_f,
    region_check,
    vertex,
)
from gceo import scheduler

from conftest import (
    CountingMath,
    dominant_face_point,
    random_alloc,
    random_instance,
)
from oracles import (
    check_supermodular,
    enumerate_face,
    exhaustive_scan_slack,
    exhaustive_slack,
    forced_scan_slack,
    instance_slack,
    rank_fD,
    scan_value,
    supermodularity_margin,
    unconditioned_rank,
)

FULL2 = 0b11


class TestRankFunctions:
    def test_zero_allocation_zero_rank(self, sym2):
        assert rank_f(sym2, (0.0, 0.0), FULL2) == 0.0

    def test_frozen_full_rank(self, sym2):
        assert rank_f(sym2, (0.5, 0.5), FULL2) == pytest.approx(1.4086198277010387, abs=1e-15)

    def test_empty_set(self, sym2):
        assert rank_f(sym2, (0.7, 0.2), 0) == 0.0
        assert rank_fD(sym2, (0.7, 0.2), 0, 0.5) == 0.0

    @pytest.mark.parametrize("mask", [-1, 4, 5])
    def test_mask_outside_the_encoders_is_rejected(self, sym2, mask):
        with pytest.raises(ArgumentError):
            rank_f(sym2, (0.5, 0.5), mask)

    def test_nonnegative_nondecreasing(self):
        rng = np.random.default_rng(11)
        inst = random_instance(rng, 3)
        r = random_alloc(rng, 3)
        ranks = {m: rank_f(inst, r, m) for m in range(8)}
        for m in range(8):
            assert ranks[m] >= 0.0
            for i in range(3):
                if not m >> i & 1:
                    assert ranks[m | 1 << i] >= ranks[m] - 1e-12

    def test_distortion_rank_identity(self, sym2):
        # rank_f - rank_fD equals half the log of precision * D for every subset.
        r = (0.5, 0.5)
        D = 0.5
        shift = 0.5 * math.log(precision(sym2, r) * D)
        for mask in (1, 2, 3):
            assert rank_f(sym2, r, mask) - rank_fD(sym2, r, mask, D) == pytest.approx(
                shift, abs=1e-12
            )

    def test_tight_distortion_collapses(self, sym2):
        r = (0.5, 0.5)
        D = 1.0 / precision(sym2, r)
        for mask in (1, 2, 3):
            assert rank_fD(sym2, r, mask, D) == pytest.approx(rank_f(sym2, r, mask), abs=1e-12)
        assert rank_fD(sym2, (0.0, 0.0), FULL2, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_frozen_fD_value(self, sym2):
        got = rank_fD(sym2, (0.5, 0.5), 0b10, 0.5)
        expect = rank_f(sym2, (0.5, 0.5), 0b10) - 0.5 * math.log(1.1321205588285577)
        assert got == pytest.approx(expect, abs=1e-14)
        assert got == pytest.approx(0.6016335274575977, abs=1e-12)


class TestMembership:
    def test_origin_in_zero_region(self, sym2):
        assert region_check(sym2, (0.0, 0.0), (0.0, 0.0))[0]

    def test_positive_sum_rate_excludes_origin(self, sym2):
        assert not region_check(sym2, (0.5, 0.5), (0.0, 0.0))[0]

    def test_vertices_inside(self, sym2):
        for pi in permutations(range(2)):
            assert region_check(sym2, (0.5, 0.5), vertex(sym2, (0.5, 0.5), pi), tol=1e-9)[0]

    def test_nan_slack_is_no_verdict(self, sym2, monkeypatch):
        monkeypatch.setattr(polymatroid, "min_slack", lambda *args: math.nan)
        with pytest.raises(ConvergenceError):
            polymatroid.region_check(sym2, (0.5, 0.5), (1.0, 1.0))


class TestVertices:
    def test_degenerate(self, sym2):
        assert vertex(sym2, (0.0, 0.0), (0, 1)) == (0.0, 0.0)

    def test_frozen_example(self, sym2):
        R = vertex(sym2, (0.5, 0.5), (0, 1))
        assert R[1] == pytest.approx(0.744940062822375, abs=1e-14)
        assert R[0] == pytest.approx(0.6636797648786636, abs=1e-14)

    def test_symmetry_reflection(self, sym2):
        a = vertex(sym2, (0.5, 0.5), (0, 1))
        b = vertex(sym2, (0.5, 0.5), (1, 0))
        assert a == pytest.approx((b[1], b[0]), abs=1e-14)

    def test_sum_identity_and_membership(self):
        rng = np.random.default_rng(12)
        for L in (2, 3, 4):
            inst = random_instance(rng, L)
            r = random_alloc(rng, L)
            total = rank_f(inst, r, (1 << L) - 1)
            for pi in permutations(range(L)):
                R = vertex(inst, r, pi)
                assert sum(R) == pytest.approx(total, abs=1e-9)
                assert region_check(inst, r, R, tol=1e-9)[0]

    def test_matches_covariance_engine(self):
        # Vertex coordinates are conditional mutual informations; recompute
        # them with the scheduler's conditional-MI engine.
        rng = np.random.default_rng(13)
        inst = random_instance(rng, 3)
        r = random_alloc(rng, 3, lo=0.1, hi=2.0)
        fines = [scheduler.fine_description(inst, r, i) for i in range(3)]
        for pi in permutations(range(3)):
            R = vertex(inst, r, pi)
            for k, enc in enumerate(pi):
                side = [fines[j] for j in pi[k + 1 :]]
                mi = scheduler.gaussian_mi(inst, fines[enc], side)
                assert R[enc] == pytest.approx(mi, abs=1e-10)

    @settings(max_examples=200)
    @given(
        L=st.integers(min_value=1, max_value=8),
        rates=st.sampled_from([(1e-6, 1e-3), (0.05, 3.0), (3.0, 12.0)]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_one_pass_matches_rank_differences(self, L, rates, seed):
        # Coordinate pi[k] is rank(pi[0..k]) - rank(pi[0..k-1]); some
        # encoders sit at zero rate or at the cap.
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, L)
        r = [float(v) for v in np.exp(rng.uniform(math.log(rates[0]), math.log(rates[1]), L))]
        for i in range(L):
            r[i] = [0.0, R_MAX, r[i], r[i]][int(rng.integers(4))]
        pi = tuple(int(i) for i in rng.permutation(L))
        R = vertex(inst, r, pi)
        mask, prev = 0, 0.0
        for i in pi:
            mask |= 1 << i
            rank = rank_f(inst, r, mask)
            assert abs(R[i] - (rank - prev)) <= 1e-13 * max(1.0, rank)
            prev = rank

    def test_bad_permutation(self, sym2):
        with pytest.raises(ArgumentError):
            vertex(sym2, (0.5, 0.5), (0, 0))


class TestDominantFace:
    def test_vertices_on_face(self, sym2):
        for pi in permutations(range(2)):
            assert on_dominant_face(sym2, (0.5, 0.5), vertex(sym2, (0.5, 0.5), pi))

    def test_midpoint_on_face(self, sym2):
        a = vertex(sym2, (0.5, 0.5), (0, 1))
        b = vertex(sym2, (0.5, 0.5), (1, 0))
        mid = tuple((x + y) / 2 for x, y in zip(a, b))
        assert on_dominant_face(sym2, (0.5, 0.5), mid)

    def test_perturbed_vertex_off_face(self, sym2):
        R = list(vertex(sym2, (0.5, 0.5), (0, 1)))
        R[0] += 1e-6
        assert not on_dominant_face(sym2, (0.5, 0.5), R)


def _vertex_mixture(inst, r, rng, blocks, k):
    """Random convex combination of k vertices whose decode orders keep the
    given blocks in order (each shuffled inside): a point of the face whose
    chain is the blocks' prefix unions, in general position within it."""
    orders = [tuple(int(i) for b in blocks for i in rng.permutation(b)) for _ in range(k)]
    weights = rng.dirichlet(np.ones(k))
    vs = [vertex(inst, r, pi) for pi in orders]
    return tuple(float(sum(w * v[j] for w, v in zip(weights, vs))) for j in range(inst.L))


@st.composite
def face_cases(draw):
    """(instance, r, R, tol) with R on the dominant face of r.

    Hypothesis picks the structure; a drawn seed fills in the values.
    Allocations mix zero, tiny (~1e-3 nats) and regular entries with
    1e-17 nats, whose precision weight rounds to 0 while the encoder stays
    active.  A symmetric instance with equal allocations and R the mean of
    the vertices of every cyclic shift of one decode order ties every
    ratio c_i / w_i.  Otherwise R mixes 1-4 vertices whose orders keep a
    drawn block structure, so faces of every dimension appear; some points
    are then pulled to within a share of 1e-6 to 1e-1 of one such vertex,
    close to a lower-dimensional face.
    """
    L = draw(st.integers(2, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tol = draw(st.sampled_from([1e-9, 1e-7, 1e-4, 1e-2, 0.2]))
    kinds = draw(st.lists(st.sampled_from(["zero", "tiny", "flat", "regular", "regular"]), min_size=L, max_size=L))
    if draw(st.booleans()):
        inst = CeoInstance(1.0, (1.0,) * L)
        level = float(rng.uniform(0.1, 2.0))
        r = tuple({"zero": 0.0, "tiny": 1e-3, "flat": 1e-17}.get(k, level) for k in kinds)
        if draw(st.booleans()):
            order = rng.permutation(L)
            vs = [vertex(inst, r, tuple(int(i) for i in np.roll(order, s))) for s in range(L)]
            return inst, r, tuple(float(sum(v[j] for v in vs) / L) for j in range(L)), tol
    else:
        inst = random_instance(rng, L)
        r = tuple(
            {"zero": 0.0, "tiny": float(rng.uniform(1e-3, 3e-3)), "flat": 1e-17}.get(k, float(rng.uniform(0.05, 3.0)))
            for k in kinds
        )
    cuts = draw(st.sets(st.integers(1, L - 1)))
    blocks = np.split(rng.permutation(L), sorted(cuts))
    k = draw(st.integers(1, 4))
    R = _vertex_mixture(inst, r, rng, blocks, k)
    if k > 1 and draw(st.booleans()):
        # Mostly one vertex: a point near a lower-dimensional face.
        near = vertex(inst, r, tuple(int(i) for b in blocks for i in rng.permutation(b)))
        share = float(10.0 ** rng.uniform(-6.0, -1.0))
        R = tuple((1.0 - share) * a + share * b for a, b in zip(near, R))
    return inst, r, R, tol


def _face_or_crossing(find, inst, r, R, tol):
    """The face, or "not nested" where the oracle raises and
    ``identify_face`` notes crossing tight sets."""
    try:
        face = find(inst, r, R, tol)
    except InternalInconsistencyError:
        return "not nested"
    return "not nested" if face.note else face


class TestFaceIdentification:
    def test_vertex_is_zero_face(self):
        rng = np.random.default_rng(14)
        inst = random_instance(rng, 3)
        r = random_alloc(rng, 3, lo=0.1)
        face = identify_face(inst, r, vertex(inst, r, (2, 0, 1)))
        assert face.dimension == 0
        assert len(face.chain) == 2

    def test_interior_point_is_top_face(self):
        rng = np.random.default_rng(15)
        inst = random_instance(rng, 3)
        r = random_alloc(rng, 3, lo=0.1)
        R = dominant_face_point(inst, r, rng)
        face = identify_face(inst, r, R)
        assert face.chain == ()
        assert face.dimension == 2

    def test_edge_chain(self):
        # Edge between the vertices of two orders sharing the last-decoded
        # encoder: the tight group is the complementary pair.
        inst = CeoInstance(1.0, (0.8, 1.1, 1.4))
        r = (0.6, 0.5, 0.4)
        v1 = vertex(inst, r, (0, 1, 2))
        v2 = vertex(inst, r, (0, 2, 1))
        mid = tuple((a + b) / 2 for a, b in zip(v1, v2))
        face = identify_face(inst, r, mid)
        assert face.chain == ((1, 2),)
        assert face.dimension == 1
        assert face.blocks == ((1, 2), (0,))

    def test_zero_allocation_projected(self, sym2):
        inst = CeoInstance(1.0, (1.0, 1.0, 1.0))
        r = (0.5, 0.5, 0.0)
        R = vertex(inst, r, (0, 1, 2))
        assert R[2] == pytest.approx(0.0, abs=1e-15)
        face = identify_face(inst, r, R)
        assert face.active == (0, 1)
        assert face.dimension == 0

    def test_zero_allocation_rate_between_the_floor_and_tol_eq(self):
        # R_3 = 5e-10 passes the face check, which allows at least TOL_EQ;
        # only tol decides whether a zero-allocation encoder's rate is zero.
        inst = CeoInstance(1.0, (1.0, 1.0, 1.0))
        r = (0.5, 0.5, 0.0)
        R = vertex(inst, r, (0, 1, 2))[:2] + (5e-10,)
        assert identify_face(inst, r, R, 1e-9).dimension == 0
        with pytest.raises(ArgumentError, match="encoder 3 has zero allocation but rate 5e-10"):
            identify_face(inst, r, R, 0.0)

    def test_requires_dominant_face(self, sym2):
        with pytest.raises(ArgumentError):
            identify_face(sym2, (0.5, 0.5), (5.0, 5.0))

    @settings(max_examples=300)
    @given(face_cases())
    def test_matches_subset_enumeration(self, case):
        inst, r, R, tol = case
        assert _face_or_crossing(identify_face, inst, r, R, tol) == _face_or_crossing(enumerate_face, inst, r, R, tol)

    def test_region_face_at_max_encoders(self, tmp_path):
        # The 2^16 - 1 subset walk took ~1 s per query; the threshold-order
        # candidates take about a millisecond, so a return to it fails the budget.
        rng = np.random.default_rng(18)
        L = MAX_ENCODERS
        inst = random_instance(rng, L)
        r = random_alloc(rng, L, lo=0.1, hi=2.0)
        blocks = np.split(rng.permutation(L), [3, 4, 9, 12])
        R = _vertex_mixture(inst, r, rng, blocks, 3)
        path = tmp_path / "big.json"
        path.write_text(json.dumps(inst.to_dict()))
        out = tmp_path / "out.json"
        argv = [
            "region", "face", "--instance", str(path), "--output", str(out),
            "--r", ",".join(repr(v) for v in r), "--R", ",".join(repr(v) for v in R),
        ]
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
        payload = json.loads(out.read_text())
        assert code == 0
        assert {k: v for k, v in payload.items() if k != "units"} == enumerate_face(inst, r, R, 1e-9).to_dict()
        assert payload["dimension"] == L - 5
        assert elapsed < 0.25


class TestRoundingFloor:
    """At ``tol = 0`` comparisons allow only the rounding floor of the rates
    (``model.rate_floor``).  Vertices and edges of the dominant face are
    tight by construction, so they must read as such at that floor."""

    @staticmethod
    def _point(L, seed):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, L)
        r = random_alloc(rng, L, lo=0.05, hi=3.0)
        return inst, r, tuple(int(i) for i in rng.permutation(L))

    @settings(max_examples=150)
    @given(L=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
    def test_region_check_at_tol_0_accepts_every_vertex(self, tmp_path_factory, L, seed):
        inst, r, pi = self._point(L, seed)
        R = vertex(inst, r, pi)
        path = tmp_path_factory.getbasetemp() / f"vertex{L}.json"
        path.write_text(json.dumps(inst.to_dict()))
        out = io.StringIO()
        argv = [
            "region", "check", "--instance", str(path), "--tol", "0",
            "--r", ",".join(repr(v) for v in r), "--R", ",".join(repr(v) for v in R),
        ]
        with redirect_stdout(out):
            code = cli.main(argv)
        assert (code, json.loads(out.getvalue())["contains"]) == (0, True)

    @settings(max_examples=150)
    @given(L=st.integers(2, 8), seed=st.integers(0, 2**32 - 1), k=st.integers(0, 6))
    def test_identify_face_at_tol_0_finds_vertices_and_edges(self, L, seed, k):
        # The midpoint of the vertices of two decode orders that differ by
        # one adjacent swap lies on an edge: every prefix set of the order
        # but the one the swap breaks stays tight.
        inst, r, pi = self._point(L, seed)
        k %= L - 1
        swapped = pi[:k] + (pi[k + 1], pi[k]) + pi[k + 2:]
        a, b = vertex(inst, r, pi), vertex(inst, r, swapped)
        assert identify_face(inst, r, a, 0.0).dimension == 0
        mid = tuple(0.5 * (x + y) for x, y in zip(a, b))
        assert identify_face(inst, r, mid, 0.0).dimension == 1

    @pytest.mark.parametrize("big", [math.inf, 1e300, R_MAX])
    def test_capped_rate_does_not_widen_the_floor(self, tmp_path, big):
        # With encoder 1 at an infinite, huge or capped rate, only the set {2}
        # binds.  R_2 sits 1e-10 below its rank: outside at --tol 0,
        # because the floor clips each rate at R_MAX (5e-12 here).
        inst = CeoInstance(1.0, (1.0, 1.0))
        r = (0.5, 0.5)
        R = (big, rank_f(inst, r, 0b10) - 1e-10)
        assert rate_floor(R) == rate_floor((R_MAX, R[1])) < 1e-11
        path = tmp_path / "sym2.json"
        path.write_text(json.dumps(inst.to_dict()))
        out = io.StringIO()
        argv = ["region", "check", "--instance", str(path), "--tol", "0", "--r", "0.5,0.5", "--R", f"{big!r},{R[1]!r}"]
        with redirect_stdout(out):
            code = cli.main(argv)
        payload = json.loads(out.getvalue())
        assert (code, payload["contains"]) == (1, False)
        assert payload["slack"] == pytest.approx(-1e-10, rel=1e-5)
        assert not region_check(inst, r, R, 0.0)[0]
        assert region_check(inst, r, R, 2e-10)[0]


class TestSupermodularity:
    def test_strict_on_incomparable(self):
        rng = np.random.default_rng(16)
        for _ in range(5):
            inst = random_instance(rng, 3)
            r = random_alloc(rng, 3, lo=0.05)
            assert check_supermodular(inst, r)
            _, incomparable = supermodularity_margin(inst, r)
            assert incomparable > 0.0

    def test_zero_allocation_degenerates(self, sym2):
        worst, incomparable = supermodularity_margin(sym2, (0.0, 0.0))
        assert worst == pytest.approx(0.0, abs=1e-15)
        assert incomparable == pytest.approx(0.0, abs=1e-15)

    def test_nested_pairs_tight(self, sym2):
        r = (0.5, 0.7)
        # S inside T collapses union/intersection to T and S.
        assert rank_f(sym2, r, 0b01) + rank_f(sym2, r, 0b11) == pytest.approx(
            rank_f(sym2, r, 0b11) + rank_f(sym2, r, 0b01)
        )


def test_min_slack_matches_region(sym2):
    r = (0.5, 0.5)
    R = vertex(sym2, r, (0, 1))
    assert min_slack(sym2, r, R) == pytest.approx(0.0, abs=1e-12)


def test_unconditioned_rank_complement_identity(sym2):
    r = (0.4, 0.9)
    full = rank_f(sym2, r, FULL2)
    for mask, comp in ((0b01, 0b10), (0b10, 0b01)):
        assert unconditioned_rank(sym2, r, mask) == pytest.approx(
            full - rank_f(sym2, r, comp), abs=1e-12
        )


def _weights(sn, r):
    return [(1.0 - (0.0 if v >= R_MAX else math.exp(-2.0 * v))) / s for s, v in zip(sn, r)]


@st.composite
def slack_cases(draw):
    """(sigma_n2, r, R, base precision, mode) of a region-slack query.

    Hypothesis picks the structure; a drawn seed fills in generic values,
    so weights and rate gaps are all distinct unless a mode ties them.
    Allocations mix zero (zero-weight encoders), the R_MAX cap and interior
    values; the rate gaps c = R - r are free, tied in their ratio c_i / w_i,
    negative on zero-weight encoders, or positive and large enough that the
    minimum is a singleton.
    """
    n = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Weights spread over three decades and gaps on the scale of the log
    # term, so that sorting by c_i / w_i (not c_i or w_i) decides the minimum.
    sn = [float(v) for v in 10.0 ** rng.uniform(-1.0, 1.0, n)]
    kinds = draw(st.lists(st.sampled_from(["zero", "cap", "interior", "interior"]), min_size=n, max_size=n))
    r = [{"zero": 0.0, "cap": R_MAX}.get(k, float(10.0 ** rng.uniform(-2.3, 0.5))) for k in kinds]
    p0 = float(10.0 ** rng.uniform(-0.7, 0.7))
    w = _weights(sn, r)
    c = [float(v) for v in rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-2.0, 0.3)]
    mode = draw(st.sampled_from(["free", "tied", "zero_weight", "singleton"]))
    if mode == "tied":
        ratio = float(rng.uniform(-1.0, 1.0))
        tied = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        c = [ratio * wi if t else ci for ci, wi, t in zip(c, w, tied)]
    elif mode == "zero_weight":
        r = [0.0 if k % 2 == 0 else v for k, v in enumerate(r)]
        c = [-abs(ci) - 0.01 if k % 2 == 0 else ci for k, ci in enumerate(c)]
    elif mode == "singleton":
        floor = 0.5 * math.log((p0 + sum(w)) / p0)
        c = [floor + abs(ci) for ci in c]
    return sn, r, [ci + ri for ci, ri in zip(c, r)], p0, mode


@st.composite
def signed_scan_cases(draw, min_n=1, max_n=7):
    """(c, u, v, p0) of a threshold-scan query with min_n to max_n encoders
    whose weights d = v - u take either sign.

    Each encoder's pair (u_i, v_i) is drawn zero, equal (d_i = 0), growing
    (d_i > 0, a nested refinement stage) or shrinking (d_i < 0); the gaps c
    are free, tied in their ratio c_i / d_i across signs, hold a +inf, or
    are positive and at least the largest drop of the log term, so that
    the minimum is often a singleton.
    """
    n = draw(st.integers(min_n, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u, v = [], []
    for kind in draw(st.lists(st.sampled_from(["zero", "equal", "grow", "shrink"]), min_size=n, max_size=n)):
        a, b = sorted(float(x) for x in 10.0 ** rng.uniform(-2.0, 1.0, 2))
        u.append({"zero": 0.0, "equal": b, "grow": a, "shrink": b}[kind])
        v.append({"zero": 0.0, "equal": b, "grow": b, "shrink": a}[kind])
    p0 = float(10.0 ** rng.uniform(-1.0, 1.0))
    c = [float(x) for x in rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-2.0, 0.3)]
    mode = draw(st.sampled_from(["free", "tied", "infinite", "singleton"]))
    if mode == "tied":
        ratio = float(rng.uniform(-1.0, 1.0))
        c = [ratio * (b - a) if draw(st.booleans()) else ci for ci, a, b in zip(c, u, v)]
    elif mode == "infinite":
        c[draw(st.integers(0, n - 1))] = math.inf
    elif mode == "singleton":
        # No set lowers the log term by more than this floor.
        floor = 0.5 * math.log((p0 + sum(v)) / p0)
        c = [floor + abs(ci) for ci in c]
    return c, u, v, p0


@st.composite
def two_member_cases(draw):
    """(sigma_n2, R, r, p0) of a two-member reduced region: noises and
    base precision over 60 decades, allocations of 0, the cap, inf, tiny
    or interior, and rates of 0, -0.0, +-inf, tiny, interior or the
    allocation itself (a gap of zero).  A rate and an allocation both inf
    have no slack."""
    free = st.one_of(st.floats(1e-300, 1e-6), st.floats(0.0, 60.0))
    sn, R, r = [], [], []
    for _ in range(2):
        sn.append(10.0 ** draw(st.floats(-30.0, 30.0)))
        r.append(draw(st.sampled_from([0.0, R_MAX, math.inf]) | free))
        R.append(draw(st.sampled_from([0.0, -0.0, math.inf, -math.inf, r[-1]]) | free))
    assume(not any(math.isnan(a - b) for a, b in zip(R, r)))
    return sn, R, r, 10.0 ** draw(st.floats(-30.0, 30.0))


class TestThresholdScan:
    """The O(L log L) scan (one threshold sweep plus the singletons)
    against explicit enumeration of every subset and, past its reach,
    against the O(L^2) forced-encoder sweep."""

    @settings(max_examples=400)
    @given(signed_scan_cases())
    def test_signed_weights_match_exhaustive(self, case):
        c, u, v, p0 = case
        low, subset = _scan_min_slack(c, u, v, p0)
        expect, values = exhaustive_scan_slack(c, u, v, p0)
        if math.isinf(expect):
            assert low == expect
        else:
            assert low == pytest.approx(expect, abs=1e-12)
            assert values[subset] == pytest.approx(low, abs=1e-12)

    @settings(max_examples=100)
    @given(signed_scan_cases(13, 64))
    def test_signed_weights_match_forced_sweep(self, case):
        c, u, v, p0 = case
        low, subset = _scan_min_slack(c, u, v, p0)
        expect, _ = forced_scan_slack(c, u, v, p0)
        if math.isinf(expect):
            assert low == expect
        else:
            assert low == pytest.approx(expect, abs=1e-12)
            assert scan_value(c, u, v, p0, subset) == pytest.approx(low, abs=1e-12)

    @settings(max_examples=500)
    @given(two_member_cases())
    # A zero-weight singleton of gap -0.0 is the minimum (a log term added
    # to it would print 0.0); the full set's gap inf - inf is NaN.
    @example(([1.0, 1.0], [-0.0, 5.0], [0.0, 0.5], 1.0))
    @example(([1.0, 2.0], [math.inf, -math.inf], [0.5, 0.5], 1.0))
    def test_two_members_take_the_scans_value(self, case):
        # The direct two-member form is the scan's value bit for bit.
        sn, R, r, p0 = case
        c = [a - b for a, b in zip(R, r)]
        w = [precision_weight(s, v) for s, v in zip(sn, r)]
        assert repr(polymatroid._reduced_min_slack(sn, R, r, p0)) == repr(_scan_min_slack(c, [0, 0], w, p0)[0])

    def test_logarithm_count_is_linear(self, monkeypatch):
        # One sweep plus the singletons takes at most 2L + 1 logarithms;
        # forcing each encoder in, as the O(L^2) sweep does, takes ~L^2.
        rng = np.random.default_rng(29)
        L = 256
        counter = CountingMath("log")
        calls = counter.calls
        monkeypatch.setattr(polymatroid, "math", counter)
        for kind in ("grow", "signed", "mixed"):
            u = [float(x) for x in rng.uniform(0.0, 2.0, L)]
            v = {
                "grow": [x + float(y) for x, y in zip(u, rng.uniform(0.1, 1.0, L))],
                "signed": [float(x) for x in rng.uniform(0.0, 2.0, L)],
                "mixed": [x if k % 3 == 0 else float(y) for k, (x, y) in enumerate(zip(u, rng.uniform(0.0, 2.0, L)))],
            }[kind]
            c = [float(x) for x in rng.uniform(-0.05, 0.05, L)]
            calls.clear()
            low, subset = _scan_min_slack(c, u, v, 0.5)
            assert 0 < len(calls) <= 2 * L + 1, kind
            assert low == pytest.approx(forced_scan_slack(c, u, v, 0.5)[0], abs=1e-12)

    @settings(max_examples=300)
    @given(slack_cases())
    def test_matches_exhaustive(self, case):
        sn, r, R, p0, mode = case
        expect = exhaustive_slack(sn, R, r, p0)
        # A reduced region: the base also holds two capped encoders.
        base = p0 + 1.0 / 0.7 + 1.0 / 2.3
        assert polymatroid._reduced_min_slack(sn, R, r, base) == pytest.approx(
            exhaustive_slack(sn, R, r, base), abs=1e-12
        )
        assert min_slack(CeoInstance(1.0 / p0, sn), r, R) == pytest.approx(expect, abs=1e-12)
        if mode == "singleton":
            w = _weights(sn, r)
            total = p0 + sum(w)
            singles = min(R[i] - r[i] + 0.5 * math.log((total - w[i]) / total) for i in range(len(sn)))
            assert expect == pytest.approx(singles, abs=1e-12)

    @pytest.mark.parametrize("sigma_x2", [1e6, 1e8, 1e13, 1e14])
    def test_flat_prior_does_not_cancel(self, sigma_x2):
        # The full set leaves only the prior precision 1/sigma_x2 in m(A).
        # Subtracting a weight of ~1 from a sum that holds it leaves an
        # absolute error of ~1e-16, a large part of 1/sigma_x2.
        inst = CeoInstance(sigma_x2, (1.0, 1e4))
        r, R = (30.0, 1e-3), (31.0, 0.0)
        assert min_slack(inst, r, R) == pytest.approx(instance_slack(inst, r, R), abs=1e-12)

    def test_infinite_rates_are_queries(self, sym2):
        assert min_slack(sym2, (0.5, 0.5), (-math.inf, 1.0)) == -math.inf
        one = min_slack(sym2, (0.5, 0.5), (math.inf, 1.0))
        assert one == pytest.approx(instance_slack(sym2, (0.5, 0.5), (1e300, 1.0)), abs=1e-12)

    @pytest.mark.parametrize("R", [(math.nan, math.nan), (0.7, math.nan)])
    def test_nan_rates_rejected(self, sym2, R):
        with pytest.raises(ArgumentError, match="NaN"):
            min_slack(sym2, (0.5, 0.5), R)
        with pytest.raises(ArgumentError, match="NaN"):
            region_check(sym2, (0.5, 0.5), R)
        with pytest.raises(ArgumentError, match="NaN"):
            on_dominant_face(sym2, (0.5, 0.5), R)

    def test_infinite_rate_against_infinite_allocation_rejected(self, sym2):
        with pytest.raises(ArgumentError, match="undefined"):
            min_slack(sym2, (math.inf, 0.5), (math.inf, 1.0))

    @pytest.mark.parametrize("inside", [True, False])
    def test_region_check_at_max_encoders(self, tmp_path, inside):
        # 2^16 - 1 subsets took seconds per query; the scan takes under a
        # millisecond, so a return to enumeration fails the budget.
        rng = np.random.default_rng(17)
        L = MAX_ENCODERS
        inst = random_instance(rng, L)
        r = random_alloc(rng, L, lo=0.1, hi=2.0)
        R = list(vertex(inst, r, tuple(int(v) for v in rng.permutation(L))))
        if inside:
            R = [v + 0.01 for v in R]
        else:
            R[3] -= 0.01
        path = tmp_path / "big.json"
        path.write_text(json.dumps(inst.to_dict()))
        out = tmp_path / "out.json"
        argv = [
            "region", "check", "--instance", str(path), "--output", str(out),
            "--r", ",".join(repr(v) for v in r), "--R", ",".join(repr(v) for v in R),
        ]
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
        expect = instance_slack(inst, r, R)
        assert (code == 0) == inside == (expect > 0.0)
        assert json.loads(out.read_text())["slack"] == pytest.approx(expect, abs=1e-12)
        assert elapsed < 1.0
