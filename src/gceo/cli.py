"""Command-line front end.

Commands consume an instance JSON file ({"sigma_x2": ..., "sigma_n2":
[...]}) and emit JSON (canonical, rates always in nats, 17 significant
digits) or CSV for grid maps.  Exit codes: 0 success / domain answer true,
1 domain answer false (e.g. infeasible refinement, region miss), 2 usage
error (an unreadable instance or an unwritable output file included), 3
numerical failure (a solver's ``GceoError``, or an arithmetic or domain
error such as an overflow or the logarithm of a ratio that underflows).

One command path.  ``main`` parses the arguments, reads ``--instance``,
calls the command's handler as ``handler(args, instance)``, which returns
``(exit code, payload)``, and writes the payload to ``--output``: a dict
as JSON with "units" first, otherwise its strings in order (the CSV of
``omega-map``).  Each command's parser holds only the options the command
reads, with their defaults (each ``region`` action has its own parser):
``--tol`` on ``region check`` and ``region face`` (``model.TOL_EQ``),
``omega`` (``model.OMEGA_TOL``), and ``omega-map`` and ``refine``
(``model.FEASIBILITY_TOL``); ``--bits`` on the commands whose payload has
rate fields (``region vertices``, ``region check``, ``hyperplane``,
``invert``, ``refine``, ``schedule``).  Any other option is a usage error.
``--bits`` never changes the canonical payload; it adds a "display_bits"
section with the rate-valued fields divided by ln 2.

No module of the library imports scipy, and only ``montecarlo`` imports
numpy, inside the functions that draw.  The solver modules
``hyperplane``, ``montecarlo`` and ``polymatroid`` load with this
module, so that importing it loads them as well;
``bench/tracing.py`` wraps the functions of the solver modules loaded
when it is installed.  Each command that runs another solver module
imports it itself: ``invert`` and ``omega`` load ``inversion``;
``omega-map``, ``refine`` and ``schedule`` load ``scheduler`` (directly or
through ``refinement``), whose schedule validator is a pure-Python closed
form.  The parser takes its defaults from ``model``, so building it loads
none of these.  So only ``simulate`` loads numpy.  It draws from one
seeded stream in the calling thread and starts no other (see
``montecarlo``).

``omega-map`` writes the CSV lines that ``refinement.reachable_set_l2``
returns with its nodes; that function's docstring and the ``refinement``
module docstring describe the grid table, the per-start pass and their
costs.  One command runs one map, which is always cold; only a process
that runs several maps of one grid (``main`` or ``reachable_set_l2``
called in a loop) gets warm maps.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from itertools import permutations

from .errors import ArgumentError, GceoError
from .model import FEASIBILITY_TOL, OMEGA_TOL, TOL_EQ, CeoInstance, joint_rate
from . import hyperplane, montecarlo, polymatroid

LN2 = math.log(2.0)


# ----------------------------------------------------------------------
# Serialization: floats at 17 significant digits, deterministic layout.
# ----------------------------------------------------------------------


def _fmt(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return format(x, ".17g")


def _to_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(k))}: {_to_json(v, indent + 1)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        flat = all(not isinstance(v, (dict, list, tuple)) for v in obj)
        if flat:
            return "[" + ", ".join(_to_json(v) for v in obj) + "]"
        items = [f"{pad}  {_to_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, int):
        return str(obj)
    if obj is None:
        return "null"
    return json.dumps(str(obj))


_RATE_KEYS = {"R", "r_star", "r_chain", "rate", "phi", "contact_vertex", "rank_total", "slack"}


def _scale_rates(obj, rate: bool = False):
    """Copy of obj with the numbers under rate-valued fields, at any depth,
    divided by ln 2 (display only)."""
    if isinstance(obj, dict):
        return {k: _scale_rates(v, k in _RATE_KEYS) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_scale_rates(v, rate) for v in obj]
    return obj / LN2 if rate and isinstance(obj, (int, float)) else obj


def _write(args, payload) -> None:
    """Write a command's payload to ``--output`` ("-": stdout): a dict as
    canonical JSON, "units" first and, under ``--bits``, a "display_bits"
    section last; anything else as its strings in order."""
    if isinstance(payload, dict):
        canonical = {"units": "nats", **payload}
        if getattr(args, "bits", False):
            canonical["display_bits"] = _scale_rates(payload)
        payload = [_to_json(canonical) + "\n"]
    if args.output == "-":
        sys.stdout.writelines(payload)
        return
    try:
        fh = open(args.output, "w")
    except OSError as exc:
        raise ArgumentError(f"cannot write output file: {exc}") from exc
    with fh:
        fh.writelines(payload)


def _load_instance(path: str) -> CeoInstance:
    try:
        with open(path) as fh:
            return CeoInstance.from_json(fh.read())
    except OSError as exc:
        raise ArgumentError(f"cannot read instance file: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, TypeError) as exc:
        raise ArgumentError(f"malformed instance JSON: {exc}") from exc


def _parse_vector(text: str, L: int, name: str) -> tuple[float, ...]:
    try:
        values = tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise ArgumentError(f"--{name} must be comma-separated floats: {exc}") from exc
    if len(values) != L:
        raise ArgumentError(f"--{name} needs {L} entries, got {len(values)}")
    return values


def _load_vectors(path: str, key: str) -> list[tuple[float, ...]]:
    """Rate or allocation vectors from a JSON file holding a list of numeric
    lists, either bare or under ``key`` in an object."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ArgumentError(f"cannot read {key} file: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ArgumentError(f"malformed {key} JSON: {exc}") from exc
    if isinstance(data, dict):
        if key not in data:
            raise ArgumentError(f"{key} JSON object has no {key!r} key")
        data = data[key]
    try:
        return [tuple(float(v) for v in row) for row in data]
    except (TypeError, ValueError) as exc:
        raise ArgumentError(f"{key} must be a list of numeric lists: {exc}") from exc


# ----------------------------------------------------------------------
# Command handlers: (args, instance) -> (exit code, payload).
# ----------------------------------------------------------------------


def _cmd_vertices(args, instance):
    r = _parse_vector(args.r, instance.L, "r")
    if instance.L > 8:
        raise ArgumentError("vertex enumeration limited to 8 encoders")
    vertices = [
        {"pi": [i + 1 for i in pi], "R": list(polymatroid.vertex(instance, r, pi))}
        for pi in permutations(range(instance.L))
    ]
    rank_total = joint_rate(instance.sigma_n2, r, 1.0 / instance.sigma_x2)
    return 0, {"rank_total": rank_total, "vertices": vertices}


def _cmd_check(args, instance):
    r, R = _parse_vector(args.r, instance.L, "r"), _parse_vector(args.R, instance.L, "R")
    contains, slack = polymatroid.region_check(instance, r, R, args.tol)
    return (0 if contains else 1), {"contains": contains, "slack": slack}


def _cmd_face(args, instance):
    r, R = _parse_vector(args.r, instance.L, "r"), _parse_vector(args.R, instance.L, "R")
    return 0, polymatroid.identify_face(instance, r, R, args.tol).to_dict()


def _cmd_hyperplane(args, instance):
    alpha = _parse_vector(args.alpha, instance.L, "alpha")
    return 0, hyperplane.support_value(instance, alpha, args.D).to_dict()


def _cmd_invert(args, instance):
    from . import inversion

    R = _parse_vector(args.R, instance.L, "R")
    return 0, inversion.r_star(instance, R, method=args.method).to_dict()


def _cmd_omega(args, instance):
    from . import inversion

    R = _parse_vector(args.R, instance.L, "R")
    return 0, {"tag": inversion.classify_omega(instance, R, tol=args.tol).value}


def _cmd_omega_map(args, instance):
    from . import refinement

    R_from = _parse_vector(getattr(args, "from"), instance.L, "from")
    grid = _parse_vector(args.grid, 3, "grid")
    return 0, refinement.reachable_set_l2(instance, R_from, grid, tol=args.tol).csv_chunks()


def _cmd_refine(args, instance):
    from . import refinement

    stages = _load_vectors(args.stages, "stages")
    report = refinement.check_refinement(instance, stages, tol=args.tol)
    return (0 if report.feasible else 1), report.to_dict()


def _cmd_schedule(args, instance):
    from . import scheduler

    r = _parse_vector(args.r, instance.L, "r")
    R = _parse_vector(args.R, instance.L, "R")
    schedule = scheduler.build_schedule(instance, r, R)
    return 0, {"total_steps": schedule.total_steps, "steps": schedule.to_list()}


def _cmd_simulate(args, instance):
    config = montecarlo.SimConfig(n_samples=args.n, seed=args.seed)
    if args.chain:
        chain = _load_vectors(args.chain, "chain")
        return 0, montecarlo.simulate_refinement(instance, chain, config).to_dict()
    r = _parse_vector(args.r, instance.L, "r")
    return 0, montecarlo.simulate_distortion(instance, r, config).to_dict()


# ----------------------------------------------------------------------
# Parser.
# ----------------------------------------------------------------------


def _tolerance(text: str) -> float:
    tol = float(text)
    if not 0.0 <= tol < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {tol}")
    return tol


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every
    later ``main`` call in the process: ``parse_args`` fills a new
    namespace each time and leaves the parser unchanged."""
    parser = argparse.ArgumentParser(
        prog="gceo",
        description="Rate-distortion geometry of the quadratic Gaussian CEO problem",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--instance", required=True, help="instance JSON file")
    common.add_argument("--output", default="-", help="output path or - for stdout")
    rates = argparse.ArgumentParser(add_help=False, parents=[common])
    rates.add_argument("--bits", action="store_true", help="add a bits display section")

    def add_tol(p, default):
        p.add_argument(
            "--tol", type=_tolerance, default=default,
            help="tolerance in nats on top of the rounding floor of the rates involved, "
            "so 0 means exact up to that floor (default: %(default)s)",
        )

    sub = parser.add_subparsers(dest="command", required=True)

    actions = sub.add_parser("region", help="rate-region queries").add_subparsers(dest="action", required=True)
    for action, parent, handler in (
        ("vertices", rates, _cmd_vertices), ("check", rates, _cmd_check), ("face", common, _cmd_face),
    ):
        p = actions.add_parser(action, parents=[parent])
        p.add_argument("--r", required=True, help="allocation, comma separated (nats)")
        if action != "vertices":
            p.add_argument("--R", required=True, help="rate tuple, comma separated (nats)")
            add_tol(p, TOL_EQ)
        p.set_defaults(handler=handler)

    p = sub.add_parser("hyperplane", parents=[rates], help="supporting hyperplane")
    p.add_argument("--alpha", required=True, help="direction, comma separated")
    p.add_argument("--D", type=float, required=True, help="distortion target")
    p.set_defaults(handler=_cmd_hyperplane)

    p = sub.add_parser("invert", parents=[rates], help="minimal distortion and its allocation")
    p.add_argument("--R", required=True)
    p.add_argument("--method", choices=["auto", "bisection"], default="auto")
    p.set_defaults(handler=_cmd_invert)

    p = sub.add_parser("omega", parents=[common], help="two-encoder branch region of a rate pair")
    p.add_argument("--R", required=True)
    add_tol(p, OMEGA_TOL)
    p.set_defaults(handler=_cmd_omega)

    p = sub.add_parser("omega-map", parents=[common], help="region / reachability grid (CSV)")
    p.add_argument("--from", required=True, help="starting rate pair r1,r2")
    p.add_argument("--grid", required=True, help="min,max,step for both axes")
    add_tol(p, FEASIBILITY_TOL)
    p.set_defaults(handler=_cmd_omega_map)

    p = sub.add_parser("refine", parents=[rates], help="multistage refinement feasibility")
    p.add_argument("--stages", required=True, help="stages JSON file")
    add_tol(p, FEASIBILITY_TOL)
    p.set_defaults(handler=_cmd_refine)

    p = sub.add_parser("schedule", parents=[rates], help="successive Wyner-Ziv schedule (fixed tolerances)")
    p.add_argument("--r", required=True)
    p.add_argument("--R", required=True)
    p.set_defaults(handler=_cmd_schedule)

    p = sub.add_parser("simulate", parents=[common], help="Monte Carlo distortion check")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--r", help="single-stage allocation")
    source.add_argument("--chain", help="JSON file with an allocation chain")
    p.add_argument("--n", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(handler=_cmd_simulate)
    return parser


# Comma-separated vector options.  argparse reads a value such as
# "-0.5,3" as an option string, so a separate value with a leading minus
# is attached to its option ("--R -0.5,3" -> "--R=-0.5,3") before parsing.
_VECTOR_OPTIONS = frozenset({"--R", "--r", "--alpha", "--from", "--grid"})


def _attach_negative_vectors(argv: list[str]) -> list[str]:
    out: list[str] = []
    for token in argv:
        if out and out[-1] in _VECTOR_OPTIONS and token.startswith("-") and not token.startswith("--"):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_attach_negative_vectors(argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code, payload = args.handler(args, _load_instance(args.instance))
        _write(args, payload)
        return code
    except ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GceoError, ArithmeticError, ValueError) as exc:
        # A solver's own failure, or an overflow or domain error of float
        # arithmetic at the extremes of the input range.
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
