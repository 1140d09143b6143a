import hashlib
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from gceo import cli, refinement
from gceo.model import FEASIBILITY_TOL, OMEGA_TOL, R_MAX, TOL_EQ, CeoInstance, precision
from gceo.polymatroid import vertex


@pytest.fixture
def sym2_file(tmp_path):
    path = tmp_path / "sym2.json"
    path.write_text(json.dumps({"sigma_x2": 1.0, "sigma_n2": [1.0, 1.0]}))
    return str(path)


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class TestRegion:
    def test_check_false_exits_one(self, sym2_file):
        code, out = run(["region", "check", "--instance", sym2_file, "--r", "0.5,0.5", "--R", "0,0"])
        assert code == 1
        payload = json.loads(out)
        assert payload["contains"] is False
        assert payload["units"] == "nats"

    def test_check_true(self, sym2_file):
        code, out = run(["region", "check", "--instance", sym2_file, "--r", "0.5,0.5", "--R", "1,1"])
        assert code == 0
        assert json.loads(out)["contains"] is True

    def test_vertices(self, sym2_file):
        code, out = run(["region", "vertices", "--instance", sym2_file, "--r", "0.5,0.5"])
        assert code == 0
        payload = json.loads(out)
        assert len(payload["vertices"]) == 2
        total = payload["rank_total"]
        for v in payload["vertices"]:
            assert sum(v["R"]) == pytest.approx(total, abs=1e-9)

    def test_face(self, sym2_file):
        code, out = run([
            "region", "face", "--instance", sym2_file,
            "--r", "0.5,0.5", "--R", "0.6636797648786638,0.7449400628223749",
        ])
        assert code == 0
        payload = json.loads(out)
        assert payload["dimension"] == 0
        assert "note" not in payload

    def test_face_of_a_tiny_allocation_names_the_crossing_sets(self, tmp_path):
        # At r ~ 1e-6 the sets {1, 3} and {2, 3} are both tight within the
        # tolerance at this vertex; the face reports the chain it keeps.
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"sigma_x2": 1, "sigma_n2": [1, 1, 2]}))
        R = vertex(CeoInstance(1.0, (1.0, 1.0, 2.0)), (1e-6,) * 3, (0, 1, 2))
        argv = ["--instance", str(path), "--r", "1e-6,1e-6,1e-6", "--R", ",".join(map(repr, R))]
        code, out = run(["region", "face", *argv])
        assert code == 0
        payload = json.loads(out)
        assert payload["blocks"] == [[3], [2], [1]]
        assert payload["note"] == "tight sets [1, 3] and [2, 3] cross within tol 1e-09; the chain keeps [2, 3]"
        assert run(["schedule", *argv])[0] == 0


def test_too_many_encoders_exit_two(tmp_path):
    path = tmp_path / "seventeen.json"
    path.write_text(json.dumps({"sigma_x2": 1.0, "sigma_n2": [1.0] * 17}))
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run(["invert", "--instance", str(path), "--R", ",".join(["0.5"] * 17)])
    assert (code, out) == (2, "")
    assert err.getvalue() == (
        "error: at most 16 encoders supported (a desk-scale cap: face identification and the inverse map grow as L^2), got 17\n"
    )


def test_region_vertices_past_eight_encoders_exits_two(tmp_path):
    path = tmp_path / "nine.json"
    path.write_text(json.dumps({"sigma_x2": 1.0, "sigma_n2": [1.0] * 9}))
    err = io.StringIO()
    with redirect_stderr(err):
        assert run(["region", "vertices", "--instance", str(path), "--r", ",".join(["0.5"] * 9)]) == (2, "")
    assert err.getvalue() == "error: vertex enumeration limited to 8 encoders\n"


def test_schedule_of_an_encoder_below_its_allocation_exits_two(sym2_file):
    # R_2 = 0 < r_2: no point of the region has R_i < r_i, yet R is within
    # the face tolerance.  Growing a piece divided by expm1(0) and exited 3.
    argv = ["schedule", "--r=1.0602043697052657e-11,4.482934367491191e-227", "--R=1.0602043697052657e-11,0.0"]
    err = io.StringIO()
    with redirect_stderr(err):
        assert run(argv + ["--instance", sym2_file]) == (2, "")
    assert "R_2 = 0.0 is below the allocation r_2 = 4.482934367491191e-227" in err.getvalue()


def test_schedule_of_an_encoder_without_excess_exits_two(sym2_file):
    # R_1 = r_1 exactly: the point is within the face tolerance, but no
    # piece of positive length fits encoder 1.  This exited 3 as a failed
    # choice rule.
    argv = ["schedule", "--r=1.0602043697052657e-11,0.5", "--R=1.0602043697052657e-11,0.7449400628288708"]
    err = io.StringIO()
    with redirect_stderr(err):
        assert run(argv + ["--instance", sym2_file]) == (2, "")
    assert err.getvalue() == "error: encoder 1 has no rate left above its allocation for a piece of the schedule\n"


def _readme_cli_lines():
    readme = open(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")).read()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split()[1:] for line in block.splitlines() if line.startswith("gceo ")]


@pytest.mark.parametrize("argv", _readme_cli_lines(), ids=lambda argv: " ".join(argv[:2]).split(" --")[0])
def test_every_readme_cli_line_exits_zero(tmp_path, monkeypatch, argv):
    # The block's relative paths (sym2.json, stages.json, map.csv) resolve
    # in tmp_path.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sym2.json").write_text(json.dumps({"sigma_x2": 1.0, "sigma_n2": [1.0, 1.0]}))
    (tmp_path / "stages.json").write_text(json.dumps([[0.7, 0.8]]))
    code, out = run(argv)
    assert code == 0
    assert out or "--output" in argv


class TestNanRates:
    """A NaN rate is a usage error (exit 2), never an answer or a
    numerical failure."""

    @pytest.mark.parametrize("argv", [["region", "check"], ["region", "face"], ["schedule"]])
    def test_nan_rates_exit_two(self, sym2_file, argv):
        code, out = run(argv + ["--instance", sym2_file, "--r", "0.5,0.5", "--R", "nan,nan"])
        assert (code, out) == (2, "")

    def test_region_check_without_rates_exits_two(self, sym2_file):
        code, out = run(["region", "check", "--instance", sym2_file, "--r", "0.5,0.5"])
        assert (code, out) == (2, "")


class TestInvertAndOmega:
    def test_invert(self, sym2_file):
        code, out = run(["invert", "--instance", sym2_file, "--R", "2,0.05"])
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "closed_form_l2"
        assert payload["residuals"] <= 1e-6

    def test_invert_negative_rate_exits_two(self, sym2_file):
        code, out = run(["invert", "--instance", sym2_file, "--R=-1,0.5"])
        assert (code, out) == (2, "")

    def test_omega(self, sym2_file):
        code, out = run(["omega", "--instance", sym2_file, "--R", "3,0.01"])
        assert code == 0
        assert json.loads(out)["tag"] == "OMEGA1"

    def test_hyperplane(self, sym2_file):
        code, out = run(["hyperplane", "--instance", sym2_file, "--alpha", "1,1", "--D", "0.5"])
        assert code == 0
        payload = json.loads(out)
        assert payload["phi"] == pytest.approx(0.7351936076014103, abs=1e-9)

    def test_bits_display(self, sym2_file):
        code, out = run(["invert", "--instance", sym2_file, "--R", "1,1", "--bits"])
        payload = json.loads(out)
        assert payload["units"] == "nats"
        nats = payload["r_star"]
        bits = payload["display_bits"]["r_star"]
        for a, b in zip(nats, bits):
            assert b == pytest.approx(a / math.log(2.0), rel=1e-12)
        # Canonical fields are identical with and without the flag.
        _, plain = run(["invert", "--instance", sym2_file, "--R", "1,1"])
        assert json.loads(plain)["r_star"] == nats


class TestRefineAndSimulate:
    def test_refine_feasible(self, sym2_file, tmp_path):
        stages = tmp_path / "stages.json"
        stages.write_text(json.dumps({"stages": [[0.5, 0.5], [0.5, 0.5]]}))
        code, out = run(["refine", "--instance", sym2_file, "--stages", str(stages)])
        assert code == 0
        assert json.loads(out)["feasible"] is True

    def test_refine_infeasible_exits_one(self, sym2_file, tmp_path):
        stages = tmp_path / "stages.json"
        stages.write_text(json.dumps([[0.9, 0.4], [1.3, 0.8]]))
        code, out = run(["refine", "--instance", sym2_file, "--stages", str(stages)])
        payload = json.loads(out)
        assert code == (0 if payload["feasible"] else 1)

    def test_refine_repeated_infinite_rate(self, sym2_file, tmp_path):
        # inf - inf used to make the stage-2 slacks NaN; an infinite rate
        # kept between stages adds nothing, as a huge finite one does.
        def stage_two(rate):
            stages = tmp_path / "stages.json"
            stages.write_text(json.dumps([[rate, 1.0], [rate, 2.0]]))
            code, out = run(["refine", "--instance", sym2_file, "--stages", str(stages)])
            assert code == 0
            return json.loads(out)["per_stage"][1]

        assert stage_two(math.inf) == stage_two(1e308)

    def test_refine_bits_scales_every_rate_field(self, sym2_file, tmp_path):
        # The nested rate lists (per_stage rows, r_chain stages) are scaled
        # like the flat ones; the canonical fields stay in nats.
        stages = tmp_path / "stages.json"
        stages.write_text(json.dumps([[0.5, 0.5], [0.7, 0.9]]))
        argv = ["refine", "--instance", sym2_file, "--stages", str(stages)]
        code, out = run(argv + ["--bits"])
        payload = json.loads(out)
        bits = payload.pop("display_bits")
        assert code == 1
        assert json.loads(run(argv)[1]) == payload
        assert bits["worst"] == {**payload["worst"], "slack": payload["worst"]["slack"] / math.log(2.0)}
        assert bits["d_chain"] == payload["d_chain"]
        assert bits["r_chain"] == [[v / math.log(2.0) for v in stage] for stage in payload["r_chain"]]
        assert bits["per_stage"] == [
            [{**row, "slack": row["slack"] / math.log(2.0)} for row in stage] for stage in payload["per_stage"]
        ]

    def test_simulate(self, sym2_file):
        code, out = run([
            "simulate", "--instance", sym2_file, "--r", "0.5,0.5",
            "--n", "20000", "--seed", "42",
        ])
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["z_scores"][0]) < 6.0

    def test_schedule(self, sym2_file):
        code, out = run([
            "schedule", "--instance", sym2_file, "--r", "0.5,0.5",
            "--R", "0.6636797648786638,0.7449400628223749",
        ])
        assert code == 0
        payload = json.loads(out)
        assert payload["total_steps"] == 2
        assert payload["steps"][0]["encoder"] == 2


class TestHighRates:
    """Sum rates past ~36 nats, capped and infinite rates are answers
    (exit 0), not numerical failures."""

    def test_invert_high_equal_rates(self, sym2_file):
        code, out = run(["invert", "--instance", sym2_file, "--R", "18,18"])
        assert code == 0
        payload = json.loads(out)
        assert payload["r_star"] == pytest.approx([18.0 - math.log(3.0) / 4.0] * 2, abs=1e-12)
        assert payload["d_star"] == pytest.approx(1.0 / 3.0, rel=1e-12)

    @pytest.mark.parametrize("method", ["auto", "bisection"])
    def test_invert_at_a_precision_past_1e12(self, tmp_path, method):
        # One ulp of a precision of 1e12 is ~1e-4; the residual must not
        # count it (the sum-rate gap and the region slack are ~1e-15 here).
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"sigma_x2": 1.0, "sigma_n2": [1e-12, 1.0]}))
        code, out = run(["invert", "--instance", str(path), "--R", "49,5", "--method", method])
        assert code == 0
        assert json.loads(out)["residuals"] <= 1e-13

    def test_omega_high_equal_rates(self, sym2_file):
        code, out = run(["omega", "--instance", sym2_file, "--R", "18,18"])
        assert (code, json.loads(out)["tag"]) == (0, "OMEGA3")

    @pytest.mark.parametrize("rates", ["60,0.5", "1e6,1", "inf,1"])
    def test_omega_capped_rate(self, sym2_file, rates):
        code, out = run(["omega", "--instance", sym2_file, "--R", rates])
        assert (code, json.loads(out)["tag"]) == (0, "OMEGA1")

    def test_omega_map_to_25_nats(self, sym2_file, tmp_path):
        out_path = tmp_path / "map.csv"
        code, _ = run([
            "omega-map", "--instance", sym2_file, "--from", "0.2,0.6",
            "--grid", "0,25,1", "--output", str(out_path),
        ])
        assert code == 0
        assert len(out_path.read_text().strip().splitlines()) == 1 + 26 * 26


# SHA-256 of `omega-map --grid 0,3,0.1` output on the two-encoder instances
# of the benchmark's grid-map workload, from one OMEGA1 and one OMEGA2
# start each (1.63,0.12 off the grid, 1.1,0.7 an ulp below a node), at
# the default tolerance and at --tol 0: (instance, start, tol, digest).
# At --tol 0 every slack is compared at the rounding floor of the rates
# (``model.rate_floor``, ROADMAP item 13), so a set that is tight by
# construction, such as the full set, whose slack is 0 by identity but
# computes as about -1e-16, no longer reads infeasible: each --tol 0 map
# here equals its default-tol map.
GOLDEN_MAPS = [
    ((1.0, [1.0, 1.0]), "1.1,0.7", [], "b30ba0045b8ce23809c97abcf5568a28b84fb4df449073ca81ef048c96678cc5"),
    ((1.0, [1.0, 1.0]), "1.1,0.7", ["--tol", "0"], "b30ba0045b8ce23809c97abcf5568a28b84fb4df449073ca81ef048c96678cc5"),
    ((1.0, [1.0, 1.0]), "0.1,1.5", [], "c4e302cdb902dbfc27c428bedd8e3cc30b15d4268ce92bc1669f09cc0a406344"),
    ((1.0, [1.0, 1.0]), "0.1,1.5", ["--tol", "0"], "c4e302cdb902dbfc27c428bedd8e3cc30b15d4268ce92bc1669f09cc0a406344"),
    ((1.0, [0.6, 1.7]), "1.5,0.1", [], "f07d4ecfe50d0540fb8ca404794db49b68aaf6d49ab85b13aba3f7784b5c58d1"),
    ((1.0, [0.6, 1.7]), "1.5,0.1", ["--tol", "0"], "f07d4ecfe50d0540fb8ca404794db49b68aaf6d49ab85b13aba3f7784b5c58d1"),
    ((1.0, [0.6, 1.7]), "0.1,1.5", [], "7f824ec2a8f1b7bcb1dcd07b9dff4774ccfaa72d8be973735fc33ed1f585aa87"),
    ((1.0, [0.6, 1.7]), "0.1,1.5", ["--tol", "0"], "7f824ec2a8f1b7bcb1dcd07b9dff4774ccfaa72d8be973735fc33ed1f585aa87"),
    ((2.0, [0.5, 2.0]), "1.63,0.12", [], "5c538f87b94f2d618462069f677194d8cd8319a5e8a9dfc09ba163d3d2b4281f"),
    ((2.0, [0.5, 2.0]), "1.63,0.12", ["--tol", "0"], "5c538f87b94f2d618462069f677194d8cd8319a5e8a9dfc09ba163d3d2b4281f"),
    ((2.0, [0.5, 2.0]), "0.1,1.5", [], "14e1386dc3479313eed18d063f393b88947bc5e0b563787c61fd95d00195d97d"),
    ((2.0, [0.5, 2.0]), "0.1,1.5", ["--tol", "0"], "14e1386dc3479313eed18d063f393b88947bc5e0b563787c61fd95d00195d97d"),
    ((0.8, [1.3, 0.9]), "0.1,1.5", [], "0507bfab21b183a1535947a7c176dcddf1fa24c7724a67a1b9fc887c0d85055e"),
    ((0.8, [1.3, 0.9]), "0.1,1.5", ["--tol", "0"], "0507bfab21b183a1535947a7c176dcddf1fa24c7724a67a1b9fc887c0d85055e"),
    ((0.8, [1.3, 0.9]), "1.1,0.7", [], "dc28248385e7dd1600b1d91d2407fcf93d7ab95b5dafcaa0d72c3c593c94fd9b"),
    ((0.8, [1.3, 0.9]), "1.1,0.7", ["--tol", "0"], "dc28248385e7dd1600b1d91d2407fcf93d7ab95b5dafcaa0d72c3c593c94fd9b"),
]


class TestOmegaMap:
    def test_csv_shape(self, sym2_file, tmp_path):
        out_path = tmp_path / "map.csv"
        code, _ = run([
            "omega-map", "--instance", sym2_file, "--from", "0.2,0.6",
            "--grid", "0,1,0.5", "--output", str(out_path),
        ])
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "R1,R2,region,d_star,r1_star,r2_star,reachable"
        assert len(lines) == 1 + 9
        fields = lines[1].split(",")
        assert fields[6] in ("0", "1")

    @pytest.mark.parametrize("start", ["--from=nan,0.5", "--from=-0.5,5"])
    def test_bad_start_exits_two(self, sym2_file, start):
        # No node of this grid dominates (-0.5, 5): the start is rejected
        # before any node is visited.
        code, out = run(["omega-map", "--instance", sym2_file, start, "--grid", "0,1,0.5"])
        assert (code, out) == (2, "")

    @pytest.mark.parametrize("sigma_n2", [[1.0, 1.0], [0.6, 1.7], [1e-30, 1.0], [1.0, 1e-30]])
    def test_capped_nodes_tag_as_their_infinite_spelling(self, tmp_path, sigma_n2):
        # Nodes from 52.5 on have capped coordinates (>= R_MAX), which the
        # cap convention counts as infinite.  On the 1e-30 instances the
        # literal coordinates would give 82 of the 289 nodes another tag.
        from gceo.inversion import classify_omega

        instance = CeoInstance(1.0, tuple(sigma_n2))
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(instance.to_dict()))
        code, out = run(["omega-map", "--instance", str(path), "--from", "0.5,0.7", "--grid", "0,120,7.5"])
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert code == 0 and len(rows) == 17 * 17
        for R1, R2, tag, *_ in rows:
            spelled = tuple(math.inf if float(v) >= R_MAX else float(v) for v in (R1, R2))
            assert tag == classify_omega(instance, spelled).value, (R1, R2)

    def test_rows_as_fmt_writes_them(self, sym2_file, tmp_path):
        self.check_rows(sym2_file, tmp_path, "0,60,7.5")

    def test_rows_past_one_chunk(self, sym2_file, tmp_path):
        # 33 x 33 nodes: more than the 1024 rows written at a time.
        self.check_rows(sym2_file, tmp_path, "0,64,2")

    @staticmethod
    def check_rows(sym2_file, tmp_path, grid):
        # Rates past R_MAX are capped, so r* entries read CAP there.
        out_path = tmp_path / "map.csv"
        code, _ = run([
            "omega-map", "--instance", sym2_file, "--from", "0.2,0.6",
            "--grid", grid, "--output", str(out_path),
        ])
        assert code == 0
        lo, hi, step = map(float, grid.split(","))
        nodes = refinement.reachable_set_l2(CeoInstance(1.0, (1.0, 1.0)), (0.2, 0.6), (lo, hi, step))

        def entry(r):
            return "CAP" if r >= R_MAX else cli._fmt(r)

        expected = [
            ",".join([cli._fmt(n.R[0]), cli._fmt(n.R[1]), n.region.value, cli._fmt(n.d_star),
                      entry(n.r_star[0]), entry(n.r_star[1]), "1" if n.reachable else "0"])
            for n in nodes
        ]
        assert out_path.read_text().splitlines()[1:] == expected
        assert "CAP" in out_path.read_text()

    @pytest.mark.parametrize("case", range(len(GOLDEN_MAPS)))
    def test_maps_match_their_recorded_hashes(self, tmp_path, case):
        # Each map twice: the first builds the grid table, the second is
        # answered from it and must write the same bytes.
        (sigma_x2, sigma_n2), start, tol, digest = GOLDEN_MAPS[case]
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({"sigma_x2": sigma_x2, "sigma_n2": sigma_n2}))
        argv = ["omega-map", "--instance", str(path), "--from", start, "--grid", "0,3,0.1", *tol]
        cold, warm = run(argv), run(argv)
        assert cold[0] == 0
        assert warm == cold
        assert hashlib.sha256(cold[1].encode()).hexdigest() == digest

    @pytest.mark.parametrize("case", range(0, len(GOLDEN_MAPS), 2))
    def test_tol_0_map_is_a_nonempty_part_of_the_default_map(self, case):
        # [R] and [R, R] are feasible by construction; at tol 0 they must
        # read so up to the rounding floor.
        (sigma_x2, sigma_n2), start, _, _ = GOLDEN_MAPS[case]
        inst = CeoInstance(sigma_x2, tuple(sigma_n2))
        R = tuple(float(v) for v in start.split(","))
        assert refinement.check_refinement(inst, [R], 0.0).feasible
        assert refinement.check_refinement(inst, [R, R], 0.0).feasible
        exact, default = (
            {node.R for node in refinement.reachable_set_l2(inst, R, (0.0, 3.0, 0.1), *tol) if node.reachable}
            for tol in ([0.0], [])
        )
        assert exact and exact <= default

    def test_node_past_the_largest_float_exits_two(self, sym2_file):
        # Two nodes per axis, the second at 2e308: an infinite rate is no
        # grid node.
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run(["omega-map", "--instance", sym2_file, "--from=0.2,0.6", "--grid=1e308,1.6e308,1e308"])
        assert (code, out) == (2, "")
        assert "largest float" in err.getvalue()

    def test_negative_grid_exits_two_at_its_first_node(self, sym2_file):
        # Nodes only grow from the first, so its check stands for all of
        # them and reads as r_star's check of a negative rate.
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run(["omega-map", "--instance", sym2_file, "--from=0.2,0.6", "--grid=-1,1,0.5"])
        assert (code, out) == (2, "")
        assert err.getvalue() == "error: rate vector entries must be >= 0, got -1.0\n"

    @pytest.fixture
    def no_node_visits(self, monkeypatch):
        """Make visiting a grid node raise, so that a grid the checks let
        through stops at its first node instead of running.  The region tag
        is the one call the map makes per node and only per node: the
        two-encoder solve also answers the origin and the start."""

        class NodeVisited(Exception):
            pass

        def visit(*args, **kwargs):
            raise NodeVisited

        monkeypatch.setattr(refinement, "omega_tag", visit)
        return NodeVisited

    @pytest.mark.parametrize("grid", ["nan,1,0.5", "0,inf,1", "-inf,1,1", "0,1,inf", "-inf,inf,1"])
    def test_non_finite_grid_exits_two(self, sym2_file, no_node_visits, grid):
        code, out = run(["omega-map", "--instance", sym2_file, "--from=0.2,0.6", f"--grid={grid}"])
        assert (code, out) == (2, "")

    @pytest.mark.parametrize("grid", ["abc,1,0.5", "0,1,", "0,1", "0,1,0.5,2"])
    def test_malformed_grid_exits_two(self, sym2_file, grid):
        # A non-numeric entry used to escape as a ValueError.
        code, out = run(["omega-map", "--instance", sym2_file, "--from=0.2,0.6", f"--grid={grid}"])
        assert (code, out) == (2, "")

    @pytest.mark.parametrize("grid", ["0,1e308,1e-308", "0,1,1e-300", "0,1,5e-324", "-1e308,1e308,1", "0,3037000499,1"])
    def test_oversized_grid_exits_two(self, sym2_file, no_node_visits, grid):
        # (hi - lo) / step overflows to inf in the first, third and fourth;
        # the second needs ~1e600 nodes and the last 3037000500^2, one axis
        # step past the bound.
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run(["omega-map", "--instance", sym2_file, "--from=0.2,0.6", f"--grid={grid}"])
        assert (code, out) == (2, "")
        assert str(refinement.MAX_GRID_NODES) in err.getvalue()

    def test_largest_grid_passes_the_count_check(self, sym2_file, no_node_visits):
        # 3037000499^2 nodes fit under the bound: the map starts (and the
        # fixture stops it at its first node).
        assert 3037000499**2 <= refinement.MAX_GRID_NODES < 3037000500**2
        with pytest.raises(no_node_visits):
            run(["omega-map", "--instance", sym2_file, "--from=0.2,0.6", "--grid=0,3037000498,1"])


def test_region_check_loads_no_numpy_or_scipy(sym2_file, tmp_path):
    # Each command imports only its own solver module, no module of the
    # library imports scipy, and only montecarlo imports numpy, inside the
    # functions that draw.  So no command but simulate starts numpy or
    # scipy.  No command loads concurrent.futures or leaves a thread
    # running: simulate draws its chunks (here 7 full ones and 5 samples)
    # in the calling thread.
    l4_file = tmp_path / "l4.json"
    l4_file.write_text(json.dumps({"sigma_x2": 1.3, "sigma_n2": [0.7, 1.1, 2.9, 0.4]}))
    stages = tmp_path / "stages.json"
    stages.write_text(json.dumps([[0.5, 0.5], [0.5, 0.5]]))
    vertex = "--R=0.6636797648786638,0.7449400628223749"
    commands = [
        (["region", "check", "--instance", sym2_file, "--r", "0.5,0.5", "--R", "0.7,0.8"], []),
        (["invert", "--instance", sym2_file, "--R", "0.7,0.8"], []),
        (["invert", "--instance", str(l4_file), "--R", "0.9,1.3,0.4,0.6"], []),
        (["omega", "--instance", sym2_file, "--R", "0.7,0.8"], []),
        (["omega-map", "--instance", sym2_file, "--from=0.2,0.6", "--grid=0,1,0.5"], []),
        (["refine", "--instance", sym2_file, "--stages", str(stages)], []),
        (["schedule", "--instance", sym2_file, "--r=0.5,0.5", vertex], []),
        (["hyperplane", "--instance", sym2_file, "--alpha", "1,2", "--D", "0.5"], []),
        (["simulate", "--instance", sym2_file, "--r", "0.5,0.5", "--n", "114693"], ["numpy"]),
    ]
    for argv, loaded in commands:
        code = (
            "import sys, threading\n"
            "from gceo import cli\n"
            f"status = cli.main({argv + ['--output', os.devnull]!r})\n"
            "print(status, sorted(m for m in ('numpy', 'scipy', 'concurrent.futures') if m in sys.modules),"
            " threading.active_count())\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))},
        )
        assert (proc.returncode, proc.stdout) == (0, f"0 {loaded} 1\n"), (argv, proc.stderr)


class TestTolerance:
    """--tol must be finite and >= 0 (exit 2).  A NaN, infinite or negative
    tolerance used to give answers that contradict the reported slack.
    ``schedule`` reads no --tol, so there any --tol is an unknown option
    (exit 2 as well)."""

    @pytest.fixture
    def commands(self, sym2_file, tmp_path):
        stages = tmp_path / "stages.json"
        stages.write_text(json.dumps([[0.5, 0.5], [0.7, 0.9]]))
        vertex = "--R=0.6636797648786638,0.7449400628223749"
        return {
            "region check": ["region", "check", "--r=0.5,0.5", "--R=0.5,0.5"],
            "region face": ["region", "face", "--r=0.5,0.5", vertex],
            "schedule": ["schedule", "--r=0.5,0.5", vertex],
            "refine": ["refine", "--stages", str(stages)],
            "omega": ["omega", "--R=3,0.01"],
            "omega-map": ["omega-map", "--from=0.2,0.6", "--grid=0,1,0.5"],
        }

    @pytest.mark.parametrize("command", ["region check", "region face", "schedule", "refine", "omega", "omega-map"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "-1e-300"])
    def test_bad_tol_exits_two(self, sym2_file, commands, command, tol):
        code, out = run(commands[command] + ["--instance", sym2_file, f"--tol={tol}"])
        assert (code, out) == (2, "")

    def test_zero_tol_is_accepted(self, sym2_file):
        code, out = run(["region", "check", "--instance", sym2_file, "--r=0.5,0.5", "--R=1,1", "--tol=0"])
        assert (code, json.loads(out)["contains"]) == (0, True)

    def test_zero_tol_schedules_a_vertex(self, sym2_file, commands):
        # The builder has fixed tolerances (schedule takes no --tol); they
        # must accept the few ulps by which a vertex and its own rate
        # formula differ.
        code, out = run(commands["schedule"] + ["--instance", sym2_file])
        assert (code, json.loads(out)["total_steps"]) == (0, 2)


class TestDeterminismAndErrors:
    def test_byte_identical_reruns(self, sym2_file):
        argv = ["invert", "--instance", sym2_file, "--R", "1.25,0.75"]
        assert run(argv) == run(argv)

    def test_usage_error(self, sym2_file):
        code, _ = run(["region", "check", "--instance", sym2_file, "--r", "0.5", "--R", "0,0"])
        assert code == 2

    def test_unknown_flag(self, sym2_file):
        code, _ = run(["invert", "--instance", sym2_file, "--R", "1,1", "--wat"])
        assert code == 2

    def test_missing_instance(self):
        code, _ = run(["invert", "--instance", "/nonexistent.json", "--R", "1,1"])
        assert code == 2

    def test_shared_parser_leaks_no_option(self, sym2_file):
        """The parser is built once per process; options given to one
        command must not become defaults of the next."""
        check = ["region", "check", "--instance", sym2_file, "--r", "0.5,0.5", "--R", "0.6,0.7"]
        code, _ = run(check + ["--bits", "--tol", "1e-3"])
        assert code == 1
        shared = run(check)
        fresh = subprocess.run(
            [sys.executable, "-m", "gceo.cli", *check], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))},
        )
        assert shared == (fresh.returncode, fresh.stdout)
        assert "display_bits" not in shared[1]

    def test_seventeen_digit_floats(self, sym2_file):
        _, out = run(["invert", "--instance", sym2_file, "--R", "1,1"])
        value = json.loads(out)["d_star"]
        assert f"{value:.17g}" in out


class TestCommandPath:
    """``main`` reads the instance, runs the command's handler and writes
    its payload; each command's parser holds only the options it reads."""

    VERTEX = "--R=0.6636797648786638,0.7449400628223749"
    # 5e-10 nats below the vertex: inside at the default TOL_EQ, outside
    # at --tol 0.
    NEAR_VERTEX = "--R=0.6636797643786638,0.7449400628223749"

    @pytest.fixture
    def stages(self, tmp_path):
        path = tmp_path / "stages.json"
        path.write_text(json.dumps([[0.5, 0.5], [0.7, 0.9]]))
        return str(path)

    @pytest.mark.parametrize("argv, setting", [
        (["hyperplane", "--alpha=1,2", "--D=0.5"], "--tol=1e-3"),
        (["invert", "--R=1,1"], "--tol=1e-3"),
        (["schedule", "--r=0.5,0.5", VERTEX], "--tol=1e-3"),
        (["simulate", "--r=0.5,0.5", "--n=10"], "--tol=1e-3"),
        (["omega", "--R=1,1"], "--bits"),
        (["omega-map", "--from=0.2,0.6", "--grid=0,1,0.5"], "--bits"),
        (["simulate", "--r=0.5,0.5", "--n=10"], "--bits"),
        (["region", "vertices", "--r=0.5,0.5"], "--R=9,9"),
        (["region", "vertices", "--r=0.5,0.5"], "--tol=5"),
        (["region", "face", "--r=0.5,0.5", VERTEX], "--bits"),
    ], ids=lambda v: " ".join(w for w in v[:2] if not w.startswith("-")) if isinstance(v, list) else v.split("=")[0])
    def test_a_setting_the_command_does_not_read_exits_two(self, sym2_file, argv, setting):
        argv = argv + ["--instance", sym2_file]
        assert run(argv)[0] == 0
        assert run(argv + [setting]) == (2, "")

    def test_simulate_takes_r_or_chain_not_both(self, sym2_file, tmp_path):
        chain = tmp_path / "chain.json"
        chain.write_text(json.dumps([[0.5, 0.5], [0.7, 0.9]]))
        argv = ["simulate", "--instance", sym2_file, "--n=10"]
        assert run(argv + [f"--chain={chain}"])[0] == 0
        assert run(argv + ["--r=0.5,0.5"])[0] == 0
        assert run(argv + [f"--chain={chain}", "--r=0.5,0.5"]) == (2, "")
        assert run(argv) == (2, "")

    @pytest.mark.parametrize("source", ["--r=0.5,0.5", "--chain={chain}"], ids=["r", "chain"])
    def test_simulate_one_sample_exits_two(self, sym2_file, tmp_path, source):
        # One sample has no standard error: it printed "stderr": [0] and
        # "z_scores": [Infinity] with exit 0.
        chain = tmp_path / "chain.json"
        chain.write_text(json.dumps([[0.5, 0.5], [0.7, 0.9]]))
        argv = ["simulate", "--instance", sym2_file, source.format(chain=chain)]
        assert run(argv + ["--n=2"])[0] == 0
        err = io.StringIO()
        with redirect_stderr(err):
            assert run(argv + ["--n=1"]) == (2, "")
        assert err.getvalue() == "error: n_samples must be at least 2 and fit in 64 bits, got 1\n"

    @pytest.mark.parametrize("argv, default", [
        pytest.param(["region", "check", "--r=0.5,0.5", NEAR_VERTEX], TOL_EQ, id="region check"),
        pytest.param(["region", "face", "--r=0.5,0.5", VERTEX], TOL_EQ, id="region face"),
        pytest.param(["omega", "--R=3,0.01"], OMEGA_TOL, id="omega"),
        pytest.param(["omega-map", "--from=0.2,0.6", "--grid=0,1,0.5"], FEASIBILITY_TOL, id="omega-map"),
        pytest.param(["refine", "--stages={stages}"], FEASIBILITY_TOL, id="refine"),
    ])
    def test_default_tol_is_the_library_default(self, sym2_file, stages, argv, default):
        argv = [part.format(stages=stages) for part in argv] + ["--instance", sym2_file]
        assert run(argv) == run(argv + [f"--tol={default!r}"])

    def test_default_tol_decides_a_region_check(self, sym2_file):
        argv = ["region", "check", "--instance", sym2_file, "--r=0.5,0.5", self.NEAR_VERTEX]
        assert run(argv)[0] == 0
        assert run(argv + ["--tol=0"])[0] == 1

    @pytest.mark.parametrize("argv", [
        ["region", "check", "--r=0.5,0.5", "--R=1,1"],
        ["omega-map", "--from=0.2,0.6", "--grid=0,1,0.5"],
    ], ids=lambda v: v[0])
    def test_unwritable_output_exits_two(self, sym2_file, tmp_path, argv):
        output = str(tmp_path / "no such dir" / "out")
        err = io.StringIO()
        with redirect_stderr(err):
            assert run(argv + ["--instance", sym2_file, "--output", output]) == (2, "")
        assert "cannot write output file" in err.getvalue()

    @pytest.mark.parametrize("error", [ValueError, OverflowError, ZeroDivisionError])
    def test_arithmetic_or_domain_error_is_a_numerical_failure(self, sym2_file, monkeypatch, error):
        def fail(*args):
            raise error

        monkeypatch.setattr(cli.polymatroid, "region_check", fail)
        assert run(["region", "check", "--instance", sym2_file, "--r=0.5,0.5", "--R=1,1"]) == (3, "")


class TestNegativeVectorValues:
    """A vector value with a negative first entry is read as a value, the
    same as the --opt=value form, whatever the answer is."""

    @pytest.mark.parametrize("argv", [
        ["region", "check", "--r", "0.5,0.5", "--R", "-0.5,3"],
        ["region", "check", "--R", "1,1", "--r", "-0.5,0.5"],
        ["hyperplane", "--D", "0.5", "--alpha", "-1,1"],
        ["omega-map", "--grid", "0,1,0.5", "--from", "-0.5,5"],
    ])
    def test_separate_value_matches_attached(self, sym2_file, argv):
        attached = argv[:-2] + [f"{argv[-2]}={argv[-1]}"]

        def outcome(args):
            err = io.StringIO()
            with redirect_stderr(err):
                code, out = run(args + ["--instance", sym2_file])
            return code, out, err.getvalue()

        assert outcome(argv) == outcome(attached)

    def test_negative_rate_is_a_region_miss(self, sym2_file):
        code, out = run(["region", "check", "--instance", sym2_file, "--r", "0.5,0.5", "--R", "-0.5,3"])
        assert code == 1
        assert json.loads(out)["contains"] is False


class TestMalformedInputFiles:
    """Malformed instance, --stages and --chain files are usage errors
    (exit 2), never a traceback (which would exit 1, the "answer false"
    code)."""

    @pytest.mark.parametrize("sigma_n2", [["a", 1], {"a": 1}], ids=["string-entry", "object"])
    @pytest.mark.parametrize("argv", [
        ["invert", "--R", "1,1"],
        ["region", "check", "--r", "0.5,0.5", "--R", "1,1"],
        ["simulate", "--r", "0.5,0.5", "--n", "10"],
    ], ids=["invert", "region", "simulate"])
    def test_instance_non_numeric_entry(self, tmp_path, sigma_n2, argv):
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({"sigma_x2": 1, "sigma_n2": sigma_n2}))
        code, out = run(argv + ["--instance", str(path)])
        assert (code, out) == (2, "")

    def test_files_that_are_not_utf8_exit_two(self, sym2_file, tmp_path):
        # A UnicodeDecodeError is a ValueError, which main reads as a
        # numerical failure unless the loaders name it a usage error.
        path = tmp_path / "latin1.json"
        path.write_bytes(b'\xff{"sigma_x2": 1}')
        assert run(["invert", "--instance", str(path), "--R", "1,1"]) == (2, "")
        assert run(["refine", "--instance", sym2_file, "--stages", str(path)]) == (2, "")

    def _run_with(self, sym2_file, tmp_path, command, flag, text):
        path = tmp_path / "input.json"
        path.write_text(text)
        argv = [command, "--instance", sym2_file, flag, str(path)]
        if command == "simulate":
            argv += ["--n", "1000"]
        return run(argv)

    def test_stages_object_without_key(self, sym2_file, tmp_path):
        code, out = self._run_with(sym2_file, tmp_path, "refine", "--stages", '{"foo": 1}')
        assert (code, out) == (2, "")

    def test_missing_stages_file_exits_two(self, sym2_file, tmp_path):
        err = io.StringIO()
        with redirect_stderr(err):
            assert run(["refine", "--instance", sym2_file, "--stages", str(tmp_path / "none.json")]) == (2, "")
        assert err.getvalue().startswith("error: cannot read stages file:")

    def test_stages_non_numeric_entry(self, sym2_file, tmp_path):
        code, out = self._run_with(sym2_file, tmp_path, "refine", "--stages", '{"stages": [["a", 1]]}')
        assert (code, out) == (2, "")

    def test_chain_object_without_key(self, sym2_file, tmp_path):
        code, out = self._run_with(sym2_file, tmp_path, "simulate", "--chain", '{"foo": 1}')
        assert (code, out) == (2, "")

    def test_chain_not_json(self, sym2_file, tmp_path):
        code, out = self._run_with(sym2_file, tmp_path, "simulate", "--chain", "not json")
        assert (code, out) == (2, "")

    # One chain contract for both chain commands: nonempty, one entry >= 0
    # per encoder, and no entry dropping by more than model.CHAIN_DROP.
    @pytest.mark.parametrize("command, flag", [("refine", "--stages"), ("simulate", "--chain")])
    @pytest.mark.parametrize(
        "chain",
        [[], [[0.2, 0.3, 0.4]], [[0.2, -0.3]], [[0.2, math.nan]], [[0.2, 0.3], [0.2 - 1e-6, 0.4]]],
        ids=["empty", "wrong-length", "negative", "nan", "drop"],
    )
    def test_chain_contract(self, sym2_file, tmp_path, command, flag, chain):
        code, out = self._run_with(sym2_file, tmp_path, command, flag, json.dumps(chain))
        assert (code, out) == (2, "")

    def test_stages_with_a_rate_drop_within_tolerance_run(self, sym2_file, tmp_path):
        code, out = self._run_with(
            sym2_file, tmp_path, "refine", "--stages", json.dumps([[0.2 + 5e-13, 0.3], [0.2, 0.4]])
        )
        assert code in (0, 1)
        assert len(json.loads(out)["per_stage"]) == 2

    def test_well_formed_chain_still_runs(self, sym2_file, tmp_path):
        code, out = self._run_with(sym2_file, tmp_path, "simulate", "--chain", '{"chain": [[0.2, 0.3], [0.4, 0.5]]}')
        assert code == 0
        assert len(json.loads(out)["z_scores"]) == 2

    def test_chain_with_a_rate_drop_within_tolerance_runs(self, sym2_file, tmp_path):
        # The stage-1 rate exceeds stage 2's by 5e-13 nats, inside the
        # chain check's 1e-12; its noise gap is ~-2.5e-7 and used to exit 2.
        code, out = self._run_with(
            sym2_file, tmp_path, "simulate", "--chain", json.dumps([[0.001 + 5e-13, 0.5], [0.001, 0.5]])
        )
        assert code == 0
        assert all(abs(z) <= 5.0 for z in json.loads(out)["z_scores"])


class TestExtremeInputs:
    """Infinite and out-of-range-scaled directions, rates near zero and
    extreme variances keep the exit-code contract: a variance whose
    precision overflows is a usage error, a tiny but representable noise
    is answered."""

    def test_infinite_alpha_entry_exits_two(self, sym2_file):
        code, out = run(["hyperplane", "--instance", sym2_file, "--alpha", "1,inf", "--D", "0.5"])
        assert (code, out) == (2, "")

    @pytest.mark.parametrize("alpha", ["1e200,1e200", "1e-300,1e-300", "5e-324,5e-324"])
    def test_scaled_alpha_gives_the_unit_answer(self, sym2_file, alpha):
        def answer(a):
            code, out = run(["hyperplane", "--instance", sym2_file, "--alpha", a, "--D", "0.5"])
            assert code == 0
            return json.loads(out)

        unit, scaled = answer("1,1"), answer(alpha)
        for key in ("alpha", "r_star", "contact_vertex", "phi", "nu"):
            assert scaled[key] == pytest.approx(unit[key], abs=1e-12)

    def test_simulate_tiny_rate(self, sym2_file):
        code, out = run(["simulate", "--instance", sym2_file, "--r=1e-17,0.7", "--n", "10"])
        assert code == 0
        assert "NaN" not in out

    def test_schedule_mixed_high_rates(self, tmp_path):
        # Midpoint of the vertices of orders (0,1,2,3) and (3,2,1,0); every
        # split candidate used to fail here (exit 3).
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"sigma_x2": 3.0, "sigma_n2": [0.44, 3.19, 0.14, 4.26]}))
        code, out = run([
            "schedule", "--instance", str(path), "--r", "4.5,7.6,7.5,3.7",
            "--R", "5.076424721689904,7.638361989240483,8.461455434159205,3.8389763548837488",
        ])
        assert code == 0
        assert json.loads(out)["total_steps"] <= 7

    @pytest.mark.parametrize("instance, argv", [
        ({"sigma_x2": 1, "sigma_n2": [1, 1e-320]}, ["invert", "--R", "1,1"]),
        ({"sigma_x2": 1, "sigma_n2": [1, 1e-320]}, ["refine", "--stages", "{stages}"]),
        ({"sigma_x2": 1, "sigma_n2": [1, 1e-320]}, ["omega", "--R", "1,1"]),
        ({"sigma_x2": 1, "sigma_n2": [1, 1e-320]}, ["simulate", "--r", "0.5,0.5", "--n", "10"]),
        ({"sigma_x2": 1, "sigma_n2": [1, 1e-320]}, ["region", "check", "--r", "0.5,0.5", "--R", "1,1"]),
        ({"sigma_x2": 1e-320, "sigma_n2": [1, 1]}, ["region", "check", "--r", "0.5,0.5", "--R", "1,1"]),
    ], ids=["invert", "refine", "omega", "simulate", "region", "region-prior"])
    def test_overflowing_precision_exits_two(self, tmp_path, instance, argv):
        path, stages = tmp_path / "instance.json", tmp_path / "stages.json"
        path.write_text(json.dumps(instance))
        stages.write_text("[[0.5, 0.5], [1, 1]]")
        code, out = run([a.format(stages=stages) for a in argv] + ["--instance", str(path)])
        assert (code, out) == (2, "")

    def test_two_encoders_at_a_noise_of_1e_18(self, tmp_path):
        # 1/D~ = P1 - g cancelled to 0 here and divided by zero.
        path, stages = tmp_path / "instance.json", tmp_path / "stages.json"
        path.write_text(json.dumps({"sigma_x2": 1, "sigma_n2": [1, 1e-18]}))
        stages.write_text("[[0.5, 0.5], [1, 1]]")
        argv = ["--instance", str(path)]
        answers = []
        for method in ("auto", "bisection"):
            code, out = run(["invert", "--R", "1,1", "--method", method] + argv)
            assert code == 0
            answers.append(json.loads(out))
        closed, bisection = answers
        assert closed["method"] == "closed_form_l2"
        assert closed["d_star"] == pytest.approx(bisection["d_star"], rel=1e-12)
        assert closed["r_star"] == pytest.approx(bisection["r_star"], rel=1e-12, abs=1e-30)
        assert run(["omega", "--R", "1,1"] + argv)[0] == 0
        assert run(["refine", "--stages", str(stages)] + argv)[0] in (0, 1)
        assert run(["omega-map", "--from", "0,0", "--grid", "0,1,0.5"] + argv)[0] == 0


@pytest.fixture(scope="module")
def scale_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("scales")


_VARIANCE = st.floats(min_value=-12.0, max_value=12.0).map(lambda u: 10.0**u)
_WIDE_VARIANCE = st.floats(min_value=-300.0, max_value=300.0).map(lambda u: 10.0**u)
_RATE = st.floats(min_value=0.0, max_value=3.0)


def _keeps_the_exit_code_contract(scale_dir, data, L, variance):
    """Every command exits 0-3 without raising, and no answer (exit 0 or
    1) holds NaN.  A ``hyperplane`` answer at exit 0 also meets D: the
    precision of its printed allocation is within TOL_EQ nats of 1/D.  A
    ``simulate`` answer has a positive standard error and a finite z.  A
    ``schedule`` runs at a mixture of two vertices of r (none where a vertex
    raises), and its steps sum to R per encoder within the validator's
    1e-7 nats."""
    sigma_x2 = data.draw(variance)
    sigma_n2 = data.draw(st.lists(variance, min_size=L, max_size=L))
    r, R, step, alpha = (data.draw(st.lists(_RATE, min_size=L, max_size=L)) for _ in range(4))
    # A target between the finest distortion and sigma_x2, geometrically.
    f = data.draw(st.floats(min_value=0.01, max_value=0.99))
    D = (1.0 / sigma_x2 + sum(1.0 / v for v in sigma_n2)) ** -f * sigma_x2 ** (1.0 - f)
    instance, stages = scale_dir / "instance.json", scale_dir / "stages.json"
    instance.write_text(json.dumps({"sigma_x2": sigma_x2, "sigma_n2": sigma_n2}))
    stages.write_text(json.dumps([R, [a + b for a, b in zip(R, step)]]))
    vec = lambda v: ",".join(map(repr, v))
    commands = [
        ["invert", f"--R={vec(R)}"],
        ["region", "check", f"--r={vec(r)}", f"--R={vec(R)}"],
        ["refine", "--stages", str(stages)],
        ["hyperplane", f"--alpha={vec([a + 0.05 for a in alpha])}", f"--D={D!r}"],
        ["simulate", f"--r={vec(r)}", "--n", "200"],
    ]
    if L == 2:
        commands.append(["omega", f"--R={vec(R)}"])
    orders = [data.draw(st.permutations(range(L))) for _ in range(2)]
    lam = data.draw(st.floats(min_value=0.0, max_value=1.0))
    try:
        a, b = (vertex(CeoInstance(sigma_x2, tuple(sigma_n2)), r, pi) for pi in orders)
    except (ArithmeticError, ValueError):
        pass
    else:
        R_face = [lam * x + (1.0 - lam) * y for x, y in zip(a, b)]
        commands.append(["schedule", f"--r={vec(r)}", f"--R={vec(R_face)}"])
    for argv in commands:
        argv = argv + ["--instance", str(instance)]
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run(argv)
        assert code in (0, 1, 2, 3), (argv, err.getvalue())
        if code in (0, 1):
            assert "NaN" not in out, (argv, out)
        if code == 0 and argv[0] == "hyperplane":
            r_star = json.loads(out)["r_star"]
            gap = 0.5 * abs(math.log(precision(CeoInstance(sigma_x2, tuple(sigma_n2)), r_star) * D))
            assert gap <= TOL_EQ, (argv, out, gap)
        if code == 0 and argv[0] == "simulate":
            report = json.loads(out)
            assert report["stderr"][0] > 0.0 and math.isfinite(report["z_scores"][0]), (argv, out)
        if code == 0 and argv[0] == "schedule":
            sums = [0.0] * L
            for step in json.loads(out)["steps"]:
                sums[step["encoder"] - 1] += step["rate"]
            assert all(abs(s - t) <= 1e-7 for s, t in zip(sums, R_face)), (argv, out)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), L=st.integers(min_value=2, max_value=4))
def test_variances_across_24_decades_keep_the_exit_code_contract(scale_dir, data, L):
    """Over sigma_x2 and sigma_n2 drawn from 10^U[-12, 12]."""
    _keeps_the_exit_code_contract(scale_dir, data, L, _VARIANCE)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), L=st.integers(min_value=2, max_value=4))
def test_variances_across_600_decades_keep_the_exit_code_contract(scale_dir, data, L):
    """Over sigma_x2 and sigma_n2 drawn from 10^U[-300, 300].  Logarithms
    of ratios that underflow and overflows in the solvers end as exit 3,
    and ``simulate`` sums in power-of-two units, so its answers stay
    finite."""
    _keeps_the_exit_code_contract(scale_dir, data, L, _WIDE_VARIANCE)


class TestExtremeRatioRepros:
    """Inputs of the 10^U[-300, 300] sweep that raised past ``main``."""

    def test_log_of_an_underflowing_ratio_exits_three(self, tmp_path):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"sigma_x2": 1e200, "sigma_n2": [1e-200, 1]}))
        err = io.StringIO()
        with redirect_stderr(err):
            assert run(["region", "check", "--instance", str(path), "--r", "0.5,0.5", "--R", "1,1"]) == (3, "")
        assert err.getvalue() == "numerical failure: math domain error\n"

    def test_a_subnormal_closed_form_answer_exits_three(self, tmp_path):
        # The one-encoder closed form's r* is subnormal here (4.47e-318,
        # ~1e-6 relative precision), so it misses the sum rate by 2.7e-7
        # nats; a 1e-5 bound for closed forms printed it.
        path = tmp_path / "subnormal.json"
        path.write_text(json.dumps({"sigma_x2": 4.7129584987925615e73, "sigma_n2": [2.2910680002970525e-246]}))
        err = io.StringIO()
        with redirect_stderr(err):
            assert run(["invert", "--instance", str(path), "--R", "2.6095244276438327"]) == (3, "")
        assert "closed_form_l1 answer fails the acceptance rule (sum-rate gap 2.748e-07" in err.getvalue()

    def test_tilde_params_past_an_underflowing_t_squared_answers(self, tmp_path):
        # The one-level root divided by (sn1 + sx2) exp(-2 S), which
        # underflows to 0 at this sum rate S = 79.8; it is _solve_l1 now.
        # R_1 is capped, so the tag takes the thresholds of an infinite sum
        # rate, where sn1 sn2 P2 / sx2 underflows too: g is 0 there, not 0/0.
        from gceo.inversion import tilde_params

        instance = {"sigma_x2": 3.508705806646719e-270, "sigma_n2": [2.7702450534652542e-241, 6.381637675161741e-268]}
        tiny = CeoInstance.from_dict(instance)
        assert tilde_params(tiny, 54.65745318684737 + 25.185893369371996).r_tilde == (R_MAX, 0.0)
        assert tilde_params(tiny, math.inf).r_tilde == (R_MAX, R_MAX)
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(instance))
        argv = ["--instance", str(path), "--R", "54.65745318684737,25.185893369371996"]
        code, out = run(["invert"] + argv)
        answer = json.loads(out)
        assert code == 0
        assert (answer["r_star"], answer["method"], answer["branch"]) == ([50, 25.183151835349776], "closed_form_l2", "reduced")
        code, out = run(["omega"] + argv)
        assert (code, json.loads(out)["tag"]) == (0, "OMEGA2")

    def test_two_encoder_closed_form_past_an_overflowing_root_answers(self, tmp_path):
        # sn1 sn2 P2 / sx2 overflows here, so the root of t^2 plus it read
        # inf, g read 0 and r~ = (R_MAX, R_MAX) at a sum rate of 3.2: the
        # closed form failed its acceptance rule by 96.8 nats.
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"sigma_x2": 9.06e-61, "sigma_n2": [1.04e228, 1.37e155]}))
        argv = ["--instance", str(path), "--R", "1.6,1.6"]
        code, out = run(["invert"] + argv)
        answer = json.loads(out)
        assert (code, answer["method"], answer["branch"]) == (0, "closed_form_l2", "omega2")
        code, out = run(["invert", "--method=bisection"] + argv)
        bisection = json.loads(out)
        assert code == 0
        assert (answer["r_star"], answer["d_star"]) == (bisection["r_star"], bisection["d_star"])

    def test_block_search_past_an_overflowing_noise_ratio_answers(self, tmp_path):
        # The largest over the smallest noise is ~2e428, past the float
        # range: a member's lift, half the log of that ratio, read inf and
        # the prefix scan raised "math domain error".  The noisiest
        # member's one-encoder root also meets sn p0 = inf.
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(
            {"sigma_x2": 7.915928936805347e-216, "sigma_n2": [5.115174127696542e-264, 1.342249240191722e-144, 1.0391118581701353e165]}
        ))
        argv = ["--instance", str(path), "--R", "0.6245338496678718,2.590420521218605,0.12078305189790961"]
        code, out = run(["invert"] + argv)
        assert (code, json.loads(out)["method"]) == (0, "decomposition")
        assert run(["invert", "--method=bisection"] + argv) == (code, out)

    def test_two_encoder_closed_form_at_a_noise_ratio_of_1e_minus_430_answers(self, tmp_path):
        # The noisier encoder's rate here is 0.09 nats, so it describes, but
        # a level rule with a relative slack on a precision of size 1/sn1
        # read the sum rate's water level as two-level there, clamped a
        # negative rate at 0 and raised "math domain error".
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"sigma_x2": 8.394974948008668e132, "sigma_n2": [1.808559337741882e-163, 1.4535076851165435e267]}))
        argv = ["--instance", str(path), "--R", "2.7042823728344505,0.09176994910066061"]
        code, out = run(["invert"] + argv)
        answer = json.loads(out)
        assert (code, answer["method"], answer["branch"]) == (0, "closed_form_l2", "omega2")
        code, out = run(["invert", "--method=bisection"] + argv)
        bisection = json.loads(out)
        assert code == 0
        assert (answer["r_star"], answer["d_star"]) == (bisection["r_star"], bisection["d_star"])
        code, out = run(["omega"] + argv)
        assert (code, json.loads(out)["tag"]) == (0, "OMEGA2")

    @pytest.mark.parametrize("swap", [False, True], ids=["less-noisy-first", "less-noisy-second"])
    def test_one_level_axis_tags_boundary_12_at_a_noise_ratio_of_1e_minus_30(self, tmp_path, swap):
        # On the less noisy encoder's axis only that encoder describes, so
        # R sits on both thresholds: every node below the cap tags
        # BOUNDARY_12, as on moderate instances.  A level rule with a
        # relative slack on 1/sn1 tagged the nodes at 30, 37.5 and 45 nats
        # BOUNDARY_23, from a one-level r~ read as two levels.
        sigma_n2 = [1e-30, 1.0]
        path = tmp_path / "ratio.json"
        path.write_text(json.dumps({"sigma_x2": 1.0, "sigma_n2": sigma_n2[::-1] if swap else sigma_n2}))
        code, out = run(["omega-map", "--instance", str(path), "--from=0,0", "--grid=0,120,7.5"])
        assert code == 0
        axis = {}
        for line in out.splitlines()[1:]:
            R1, R2, region = line.split(",")[:3]
            rate, other = (float(R2), float(R1)) if swap else (float(R1), float(R2))
            if other == 0.0 and rate < R_MAX:
                axis[rate] = region
        assert {30.0, 37.5, 45.0} <= set(axis)
        assert set(axis.values()) == {"BOUNDARY_12"}

    def test_kkt_certificate_of_underflowing_slopes_answers(self, tmp_path):
        # Both blocks' slopes exp(-2 r_i) / sigma_n2[i] underflow to 0, so
        # the certificate compares their logs (-762.9, then -570.5: no drop)
        # instead of dividing 0 by 0.
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({
            "sigma_x2": 2.7488768668921903e252,
            "sigma_n2": [5.76950590906642e247, 2.649263541023996e242, 7.005334631100889e298],
        }))
        code, out = run(["invert", "--instance", str(path), "--R", "3.6080051447412753,0.0,37.397037205311406"])
        answer = json.loads(out)
        assert code == 0
        assert (answer["method"], answer["kkt_residual"]) == ("decomposition", 0)

    def test_simulate_past_a_mse_of_1e154_answers(self, tmp_path):
        # mse ** 2 overflowed once a stage MSE passed ~1e154.  The sums
        # are now in power-of-two units; z = 10.4 shows the cancellation
        # of the float estimator at this ratio, not an overflow.
        path = tmp_path / "big.json"
        path.write_text(json.dumps({
            "sigma_x2": 4.473122682078453e243,
            "sigma_n2": [1.913304941363993e-279, 3.2437994909828574e-264, 2.3682154996852834e204],
        }))
        argv = ["simulate", "--instance", str(path), "--r", "0.1284443497668345,0.820770795214035,0.35231015307850944"]
        code, out = run(argv + ["--n", "200"])
        report = json.loads(out)
        assert code == 0
        assert all(math.isfinite(v) and v > 0.0 for v in report["empirical_mse"] + report["stderr"])
        assert report["z_scores"][0] == pytest.approx(10.4, abs=0.05)


class TestScaledRepros:
    """Power-of-two scalings of small instances answer as the small ones
    do: the same rates and support value, with distortions, multipliers and
    test-channel noises scaled by the same power of two."""

    @staticmethod
    def answer(tmp_path, sigma_x2, sigma_n2, argv):
        path = tmp_path / f"{sigma_x2!r}.json"
        path.write_text(json.dumps({"sigma_x2": sigma_x2, "sigma_n2": sigma_n2}))
        code, out = run(argv + ["--instance", str(path)])
        assert code == 0
        return json.loads(out)

    def test_hyperplane_at_variance_1e12(self, tmp_path):
        # 1/D - 1/sigma_x2 is 1.1e-13 here: an absolute test on the capped
        # encoders' precision read it as met and printed phi 0, r [0, 0].
        c = 2.0**40
        big = self.answer(tmp_path, 1e12, [1e12, 1e12], ["hyperplane", "--alpha=1,1", "--D=0.9e12"])
        unit = self.answer(tmp_path, 1e12 / c, [1e12 / c] * 2, ["hyperplane", "--alpha=1,1", f"--D={0.9e12 / c!r}"])
        assert big["phi"] == 0.07766766957357488
        assert big["r_star"] == [0.02857920691997431] * 2
        assert big["nu"] == unit["nu"] * c
        assert {**big, "nu": None} == {**unit, "nu": None}

    def test_hyperplane_at_variance_2_to_the_minus_200(self, tmp_path):
        # A multiplier bracket of fixed width [-1, 1] missed D by 0.14 nats.
        c = 2.0**-200
        assert c == 6.223015277861142e-61
        tiny = self.answer(tmp_path, c, [c, c], ["hyperplane", "--alpha=1,1", "--D=3.111507638930571e-61"])
        sym2 = self.answer(tmp_path, 1.0, [1.0, 1.0], ["hyperplane", "--alpha=1,1", "--D=0.5"])
        assert tiny["nu"] == sym2["nu"] * c
        assert {**tiny, "nu": None} == {**sym2, "nu": None}

    def test_schedule_at_variance_1e10(self, tmp_path):
        # The final MMSE matched the allocation's distortion to one ulp
        # (~5e-7 here) and failed an absolute 1e-7 test.
        c = 2.0**34
        argv = ["schedule", "--r=0.5,0.8,0.3", "--R=0.6864236757254651,0.8704732484222093,0.558007736255467"]
        big = self.answer(tmp_path, 1e10, [1e10, 3e10, 5e9], argv)["steps"]
        unit = self.answer(tmp_path, 1e10 / c, [1e10 / c, 3e10 / c, 5e9 / c], argv)["steps"]
        assert len(big) == 5
        assert [s["sigma_t2"] for s in big] == [s["sigma_t2"] * c for s in unit]
        assert [{**s, "sigma_t2": None} for s in big] == [{**s, "sigma_t2": None} for s in unit]


_FUZZ_ENTRY = st.one_of(
    st.sampled_from([
        "nan", "-nan", "inf", "-inf", "0", "-0", "5e-324", "-5e-324", "2.2e-308",
        "1e308", "-1e308", "1.7976931348623157e308", "abc", "", "1e",
    ]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(min_value=0.0, max_value=1.0).map(repr),
    st.floats(min_value=0.0, max_value=8.0).map(repr),
)
# Two entries, as sym2 needs: wrong lengths are plain usage errors.
_FUZZ_VECTOR = st.lists(_FUZZ_ENTRY, min_size=2, max_size=2).map(",".join)
# Integer options (--n, --seed): zero, negative, at or past 2^64 and
# non-integer values are usage errors; the valid ones stay <= 10 so a
# success is a 10-sample run.
_FUZZ_COUNT = st.one_of(
    st.sampled_from(["0", "-0", "-1", "+3", str(2**64), str(2**64 + 1), "1.5", "1e3", "0x10", "abc", ""]),
    st.integers(max_value=0).map(str),
    st.integers(min_value=2**64).map(str),
    st.integers(min_value=1, max_value=10).map(str),
)


def _stages_json(rows):
    """A stages file: each entry a JSON number where it parses as a float
    (NaN and Infinity included), the raw string otherwise."""

    def entry(text):
        try:
            return float(text)
        except ValueError:
            return text

    return json.dumps([[entry(v) for v in row] for row in rows])


def _fuzz_stages(L):
    """One to three stages of L fuzzed entries each."""
    return st.lists(st.lists(_FUZZ_ENTRY, min_size=L, max_size=L), min_size=1, max_size=3).map(_stages_json)


def _bounded_grid(lo, step, count):
    """min,max,step text with at most 20 nodes per axis: max = min + count
    step where min and step parse and (max - min) / step <= 19, else max =
    min (one node, or the usage error the raw entries make)."""
    try:
        lo_f, step_f = float(lo), float(step)
        hi = lo_f + count * step_f
        span = (hi - lo_f) / step_f
    except (ValueError, ZeroDivisionError):
        return f"{lo},{lo},{step}"
    return f"{lo},{hi!r},{step}" if span <= 19.0 else f"{lo},{lo},{step}"


_FUZZ_GRID = st.builds(_bounded_grid, _FUZZ_ENTRY, _FUZZ_ENTRY, st.integers(min_value=0, max_value=19))

# "s" stages fit sym2; "t" stages fit the three-encoder instance.
_FUZZ_FIELDS = {
    "v": _FUZZ_VECTOR, "x": _FUZZ_ENTRY, "n": _FUZZ_COUNT, "g": _FUZZ_GRID,
    "s": _fuzz_stages(2), "t": _fuzz_stages(3),
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "sym2.json").write_text(json.dumps({"sigma_x2": 1.0, "sigma_n2": [1.0, 1.0]}))
    (path / "three.json").write_text(json.dumps({"sigma_x2": 1.3, "sigma_n2": [0.5, 1.0, 2.0]}))
    return path


_FUZZ_COMMANDS = (
    ("hyperplane", "--alpha={v}", "--D={x}"),
    ("schedule", "--r={v}", "--R={v}"),
    ("region", "check", "--r={v}", "--R={v}"),
    ("region", "face", "--r={v}", "--R={v}"),
    ("invert", "--R={v}"),
    ("invert", "--method=bisection", "--R={v}"),
    ("omega", "--R={v}"),
    ("simulate", "--r={v}", "--n", "10"),
    ("simulate", "--r=0.5,0.5", "--n={n}"),
    ("simulate", "--r=0.5,0.5", "--n", "10", "--seed={n}"),
    # The grid stays fixed and small: a fuzzed grid could ask for ~1e18 nodes.
    ("omega-map", "--from={v}", "--grid=0,1,0.5"),
    # A fuzzed grid of at most 20 x 20 nodes.
    ("omega-map", "--from={v}", "--grid={g}"),
    ("refine", "--stages={s}"),
    ("region", "check", "--r=0.5,0.5", "--R=1,1", "--tol={x}"),
    ("region", "face", "--r=0.5,0.5", "--R=0.6636797648786638,0.7449400628223749", "--tol={x}"),
    ("omega-map", "--from=0.2,0.6", "--grid=0,1,0.5", "--tol={x}"),
    ("refine", "--stages={s}", "--tol={x}"),
    # Three encoders, so the stage threshold scan sweeps more than a pair.
    ("refine", "--stages={t}", "--instance={dir}/three.json"),
    ("omega", "--R=3,0.01", "--tol={x}"),
)


@settings(max_examples=480)
@given(command=st.sampled_from(_FUZZ_COMMANDS), data=st.data())
def test_fuzzed_numbers_keep_the_exit_code_contract(fuzz_dir, command, data):
    """Huge, subnormal, signed-zero, non-finite and non-numeric entries
    never escape as exceptions, and a success never prints NaN."""
    argv = []
    for part in command:
        fields = {k: data.draw(s) for k, s in _FUZZ_FIELDS.items() if f"{{{k}}}" in part}
        for key in {"s", "t"} & set(fields):
            stages = fuzz_dir / "stages.json"
            stages.write_text(fields[key])
            fields[key] = str(stages)
        argv.append(part.format(dir=fuzz_dir, **fields))
    if not any(part.startswith("--instance") for part in argv):
        argv += ["--instance", str(fuzz_dir / "sym2.json")]
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run(argv)
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    if code == 0:
        assert "NaN" not in out, argv
