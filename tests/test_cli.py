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
from gceo.model import R_MAX, CeoInstance
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
        "error: at most 16 encoders supported (a desk-scale cap: the schedule builder is cubic in L), got 17\n"
    )


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

    @pytest.fixture
    def no_node_visits(self, monkeypatch):
        """Make visiting a grid node raise, so that a grid the checks let
        through stops at its first node instead of running.  The region tag
        is the one call the map makes per node and only per node: r_star
        also runs for the origin and the start before any node is visited."""

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
    # scipy.  No command loads the thread pool's concurrent.futures, which
    # only a simulation with several shards uses.
    l4_file = tmp_path / "l4.json"
    l4_file.write_text(json.dumps({"sigma_x2": 1.3, "sigma_n2": [0.7, 1.1, 2.9, 0.4]}))
    stages = tmp_path / "stages.json"
    stages.write_text(json.dumps([[0.5, 0.5], [0.5, 0.5]]))
    vertex = "--R=0.6636797648786638,0.7449400628223749"
    commands = [
        ["region", "check", "--instance", sym2_file, "--r", "0.5,0.5", "--R", "0.7,0.8"],
        ["invert", "--instance", sym2_file, "--R", "0.7,0.8"],
        ["invert", "--instance", str(l4_file), "--R", "0.9,1.3,0.4,0.6"],
        ["omega", "--instance", sym2_file, "--R", "0.7,0.8"],
        ["omega-map", "--instance", sym2_file, "--from=0.2,0.6", "--grid=0,1,0.5"],
        ["refine", "--instance", sym2_file, "--stages", str(stages)],
        ["schedule", "--instance", sym2_file, "--r=0.5,0.5", vertex],
        ["hyperplane", "--instance", sym2_file, "--alpha", "1,2", "--D", "0.5"],
    ]
    for argv in commands:
        code = (
            "import sys\n"
            "from gceo import cli\n"
            f"status = cli.main({argv + ['--output', os.devnull]!r})\n"
            "print(status, sorted(m for m in ('numpy', 'scipy', 'concurrent.futures') if m in sys.modules))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))},
        )
        assert (proc.returncode, proc.stdout) == (0, "0 []\n"), (argv, proc.stderr)


class TestTolerance:
    """--tol must be finite and >= 0 (exit 2).  A NaN, infinite or negative
    tolerance used to give answers that contradict the reported slack."""

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
        # At tol = 0 the builder must still accept the few ulps by which a
        # vertex and its own rate formula differ.
        code, out = run(commands["schedule"] + ["--instance", sym2_file, "--tol=0"])
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
        code, _ = run(["simulate", "--instance", sym2_file, "--r", "0.5,0.5", "--n", "10", "--bits", "--tol", "1e-3"])
        assert code == 0
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
    """Malformed --stages / --chain files are usage errors (exit 2), never
    a traceback (which would exit 1, the "answer false" code)."""

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

    def test_stages_non_numeric_entry(self, sym2_file, tmp_path):
        code, out = self._run_with(sym2_file, tmp_path, "refine", "--stages", '{"stages": [["a", 1]]}')
        assert (code, out) == (2, "")

    def test_chain_object_without_key(self, sym2_file, tmp_path):
        code, out = self._run_with(sym2_file, tmp_path, "simulate", "--chain", '{"foo": 1}')
        assert (code, out) == (2, "")

    def test_chain_not_json(self, sym2_file, tmp_path):
        code, out = self._run_with(sym2_file, tmp_path, "simulate", "--chain", "not json")
        assert (code, out) == (2, "")

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
    """Infinite and out-of-range-scaled directions and rates near zero keep
    the exit-code contract."""

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
    ("schedule", "--r=0.5,0.5", "--R=0.6636797648786638,0.7449400628223749", "--tol={x}"),
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
