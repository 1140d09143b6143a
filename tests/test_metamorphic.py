"""Metamorphic properties: the exact symmetries of the CEO problem.

Scaling every variance by c leaves every rate unchanged and multiplies
every distortion by c.  When c = 2^k, float arithmetic keeps that
symmetry exactly (no product or quotient of variances rounds differently),
unless some code compares a variance or a precision against an absolute
bound.  So under power-of-two scaling the rates, slacks, verdicts, step
rates, support values and contact vertices must be bit-identical, and the
distortions, multipliers and test-channel noises must scale by exactly
2^k.  Permuting the encoders permutes the answer, and an encoder added
with zero rate takes no rate and moves nothing else; both hold to
rounding, 1e-15 relative.

``simulate`` takes its sums in power-of-two units, so scaling every
variance by 4^k (which scales its draw map by exactly 2^k) leaves its
z-scores bit-identical and scales its MSEs and standard errors by exactly
4^k, over the whole float range.

The same properties hold through ``cli.main`` for ``omega``, ``region
face`` and ``omega-map``: under power-of-two scaling their printed tags,
chains, blocks, r* columns and reach bits are byte-identical and the
printed d_star scales by exactly 2^k, and permuting the encoders permutes
the blocks of ``region face``.
"""

import io
import json
import math
import os
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from gceo import cli, inversion, refinement, scheduler
from gceo.hyperplane import support_value
from gceo.model import CeoInstance, d_min
from gceo.montecarlo import SimConfig, simulate_refinement
from gceo.polymatroid import region_check, vertex

REL = 1e-15

_L = st.integers(min_value=2, max_value=8)
_K = st.integers(min_value=-60, max_value=60)
_SIGMA_X2 = st.floats(min_value=-1.0, max_value=1.0).map(lambda u: 10.0**u)
_SIGMA_N2 = st.floats(min_value=-2.0, max_value=1.5).map(lambda u: 10.0**u)
_RATE = st.floats(min_value=0.0, max_value=3.0)
_ALLOC = st.floats(min_value=0.05, max_value=3.0)


def _draw_instance(data, L):
    sigma_x2 = data.draw(_SIGMA_X2)
    return CeoInstance(sigma_x2, tuple(data.draw(st.lists(_SIGMA_N2, min_size=L, max_size=L))))


def _vec(data, L, elements):
    return tuple(data.draw(st.lists(elements, min_size=L, max_size=L)))


def _scaled(instance, c):
    return CeoInstance(instance.sigma_x2 * c, tuple(v * c for v in instance.sigma_n2))


def _close(got, want):
    return math.isclose(got, want, rel_tol=REL, abs_tol=0.0)


def _face_point(data, instance, r):
    """A random mixture of up to three vertices of r: a point of its
    dominant face."""
    orders = data.draw(st.lists(st.permutations(range(instance.L)), min_size=1, max_size=3))
    weights = data.draw(st.lists(st.floats(0.1, 1.0), min_size=len(orders), max_size=len(orders)))
    vertices = [vertex(instance, r, pi) for pi in orders]
    total = sum(weights)
    return tuple(sum(w / total * v[i] for w, v in zip(weights, vertices)) for i in range(instance.L))


def _target(data, instance):
    floor = d_min(instance, instance.L)
    return floor + data.draw(st.floats(0.02, 0.98)) * (instance.sigma_x2 - floor)


# ----------------------------------------------------------------------
# Power-of-two scaling: bit-identical rates, exactly scaled distortions.
# ----------------------------------------------------------------------


@settings(max_examples=150)
@given(data=st.data(), L=_L, k=_K)
def test_r_star_is_scale_equivariant(data, L, k):
    inst, c = _draw_instance(data, L), 2.0**k
    R = _vec(data, L, _RATE)
    res, res_c = inversion.r_star(inst, R), inversion.r_star(_scaled(inst, c), R)
    assert res_c.d_star == res.d_star * c
    assert {**res_c.to_dict(), "d_star": None} == {**res.to_dict(), "d_star": None}


@settings(max_examples=150)
@given(data=st.data(), L=_L, k=_K)
def test_region_check_is_scale_invariant(data, L, k):
    inst, c = _draw_instance(data, L), 2.0**k
    r, R = _vec(data, L, _RATE), _vec(data, L, _RATE)
    assert region_check(_scaled(inst, c), r, R) == region_check(inst, r, R)


@settings(max_examples=100)
@given(data=st.data(), L=_L, k=_K)
def test_check_refinement_is_scale_equivariant(data, L, k):
    inst, c = _draw_instance(data, L), 2.0**k
    R1, step = _vec(data, L, _RATE), _vec(data, L, _RATE)
    stages = [R1, tuple(a + b for a, b in zip(R1, step))]
    rep = refinement.check_refinement(inst, stages).to_dict()
    rep_c = refinement.check_refinement(_scaled(inst, c), stages).to_dict()
    assert rep_c["d_chain"] == [d * c for d in rep["d_chain"]]
    assert {**rep_c, "d_chain": None} == {**rep, "d_chain": None}


@settings(max_examples=100)
@given(data=st.data(), L=_L, k=_K)
def test_build_schedule_is_scale_equivariant(data, L, k):
    inst, c = _draw_instance(data, L), 2.0**k
    r = _vec(data, L, _ALLOC)
    R = _face_point(data, inst, r)
    steps = scheduler.build_schedule(inst, r, R).steps
    steps_c = scheduler.build_schedule(_scaled(inst, c), r, R).steps
    assert [s.rate for s in steps_c] == [s.rate for s in steps]
    assert [s.description.sigma_t2_total for s in steps_c] == [s.description.sigma_t2_total * c for s in steps]
    assert [(s.description.encoder, s.description.stage) for s in steps_c] == [
        (s.description.encoder, s.description.stage) for s in steps
    ]


@settings(max_examples=150)
@given(data=st.data(), L=_L, k=_K)
def test_support_value_is_scale_equivariant(data, L, k):
    inst, c = _draw_instance(data, L), 2.0**k
    alpha = _vec(data, L, st.floats(0.05, 1.0))
    D = _target(data, inst)
    res, res_c = support_value(inst, alpha, D), support_value(_scaled(inst, c), alpha, D * c)
    assert res_c.nu == res.nu * c
    assert (res_c.r_star, res_c.phi, res_c.contact_vertex, res_c.pi_star) == (
        res.r_star, res.phi, res.contact_vertex, res.pi_star
    )


@settings(max_examples=60)
@given(
    data=st.data(),
    L=st.integers(min_value=1, max_value=5),
    k=st.one_of(st.sampled_from([-480, -300, 300, 480]), st.integers(min_value=-480, max_value=480)),
)
def test_simulate_is_exact_under_scaling_by_powers_of_four(data, L, k):
    inst, c = _draw_instance(data, L), 4.0**k
    chain = [_vec(data, L, _RATE)]
    for _ in range(data.draw(st.integers(min_value=0, max_value=2))):
        chain.append(tuple(a + b for a, b in zip(chain[-1], _vec(data, L, _RATE))))
    config = SimConfig(n_samples=data.draw(st.integers(min_value=2, max_value=3000)), seed=data.draw(st.integers(0, 99)))
    rep, rep_c = simulate_refinement(inst, chain, config), simulate_refinement(_scaled(inst, c), chain, config)
    assert rep_c.z_scores == rep.z_scores
    for field in ("empirical_mse", "stderr", "analytic_d"):
        assert getattr(rep_c, field) == tuple(v * c for v in getattr(rep, field)), field


# ----------------------------------------------------------------------
# Permutation and a zero-rate encoder: the same answer to rounding.
# ----------------------------------------------------------------------


@settings(max_examples=100)
@given(data=st.data(), L=_L)
def test_permuting_encoders_permutes_the_answer(data, L):
    inst = _draw_instance(data, L)
    perm = data.draw(st.permutations(range(L)))
    permuted = CeoInstance(inst.sigma_x2, tuple(inst.sigma_n2[p] for p in perm))
    R = _vec(data, L, _RATE)
    res = inversion.r_star(inst, R)
    res_p = inversion.r_star(permuted, tuple(R[p] for p in perm))
    assert _close(res_p.d_star, res.d_star)
    assert all(_close(res_p.r_star[j], res.r_star[p]) for j, p in enumerate(perm)), (res_p.r_star, res.r_star)

    alpha = _vec(data, L, st.floats(0.05, 1.0))
    D = _target(data, inst)
    hyp = support_value(inst, alpha, D)
    hyp_p = support_value(permuted, tuple(alpha[p] for p in perm), D)
    assert _close(hyp_p.phi, hyp.phi), (hyp_p.phi, hyp.phi)


@settings(max_examples=100)
@given(data=st.data(), L=_L)
def test_a_zero_rate_encoder_changes_nothing(data, L):
    inst = _draw_instance(data, L)
    at = data.draw(st.integers(min_value=0, max_value=L))
    grown = list(inst.sigma_n2)
    grown.insert(at, data.draw(_SIGMA_N2))
    grown = CeoInstance(inst.sigma_x2, tuple(grown))

    def insert_zero(v):
        return v[:at] + (0.0,) + v[at:]

    R = _vec(data, L, _RATE)
    res, res_z = inversion.r_star(inst, R), inversion.r_star(grown, insert_zero(R))
    assert res_z.r_star[at] == 0.0
    rest = res_z.r_star[:at] + res_z.r_star[at + 1:]
    assert all(_close(a, b) for a, b in zip(rest, res.r_star)), (res_z.r_star, res.r_star)
    assert _close(res_z.d_star, res.d_star)

    stages = [R, tuple(a + b for a, b in zip(R, _vec(data, L, _RATE)))]
    rep = refinement.check_refinement(inst, stages)
    rep_z = refinement.check_refinement(grown, [insert_zero(s) for s in stages])
    assert rep_z.feasible == rep.feasible
    assert all(_close(a, b) for a, b in zip(rep_z.d_chain, rep.d_chain))


# ----------------------------------------------------------------------
# The same properties through the command line.
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("metamorphic")


def _cli(workdir, instance, argv):
    """(exit code, stdout) of ``cli.main`` on ``instance`` written as JSON."""
    path = os.path.join(workdir, "instance.json")
    with open(path, "w") as fh:
        json.dump({"sigma_x2": instance.sigma_x2, "sigma_n2": list(instance.sigma_n2)}, fh)
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv + ["--instance", path])
    return code, out.getvalue()


def _csv(values):
    return ",".join(repr(v) for v in values)


@settings(max_examples=150)
@given(data=st.data(), k=_K)
def test_omega_prints_the_same_tag_under_scaling(workdir, data, k):
    inst, c = _draw_instance(data, 2), 2.0**k
    argv = ["omega", f"--R={_csv(_vec(data, 2, _RATE))}"]
    assert _cli(workdir, _scaled(inst, c), argv) == _cli(workdir, inst, argv)


@settings(max_examples=100)
@given(data=st.data(), L=st.integers(min_value=2, max_value=6), k=_K)
def test_region_face_prints_the_same_face_under_scaling(workdir, data, L, k):
    inst, c = _draw_instance(data, L), 2.0**k
    r = _vec(data, L, _ALLOC)
    argv = ["region", "face", f"--r={_csv(r)}", f"--R={_csv(_face_point(data, inst, r))}"]
    code, out = _cli(workdir, inst, argv)
    assert code == 0
    assert _cli(workdir, _scaled(inst, c), argv) == (code, out)


@settings(max_examples=100)
@given(data=st.data(), L=st.integers(min_value=2, max_value=6))
def test_region_face_permutes_its_blocks_with_the_encoders(workdir, data, L):
    inst = _draw_instance(data, L)
    perm = data.draw(st.permutations(range(L)))
    permuted = CeoInstance(inst.sigma_x2, tuple(inst.sigma_n2[p] for p in perm))
    r = _vec(data, L, _ALLOC)
    R = _face_point(data, inst, r)
    code, out = _cli(workdir, inst, ["region", "face", f"--r={_csv(r)}", f"--R={_csv(R)}"])
    code_p, out_p = _cli(
        workdir, permuted,
        ["region", "face", f"--r={_csv(r[p] for p in perm)}", f"--R={_csv(R[p] for p in perm)}"],
    )
    assert (code, code_p) == (0, 0)
    # Encoder j of the permuted instance is encoder perm[j] of the original.
    blocks_p = [sorted(perm[j - 1] + 1 for j in block) for block in json.loads(out_p)["blocks"]]
    assert blocks_p == [sorted(block) for block in json.loads(out)["blocks"]]


@settings(max_examples=40)
@given(data=st.data(), k=_K)
def test_omega_map_is_scale_equivariant(workdir, data, k):
    inst, c = _draw_instance(data, 2), 2.0**k
    argv = ["omega-map", f"--from={_csv(_vec(data, 2, _RATE))}", "--grid=0,3,0.5"]
    code, out = _cli(workdir, inst, argv)
    code_c, out_c = _cli(workdir, _scaled(inst, c), argv)
    assert (code, code_c) == (0, 0)
    rows, rows_c = out.splitlines(), out_c.splitlines()
    assert len(rows_c) == len(rows) == 50
    assert rows_c[0] == rows[0] == "R1,R2,region,d_star,r1_star,r2_star,reachable"
    for row, row_c in zip(rows[1:], rows_c[1:]):
        *head, d, r1, r2, reach = row.split(",")
        *head_c, d_c, r1_c, r2_c, reach_c = row_c.split(",")
        assert (head_c, r1_c, r2_c, reach_c) == (head, r1, r2, reach)
        assert float(d_c) == float(d) * c
