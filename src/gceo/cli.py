"""Command-line front end.

Commands consume an instance JSON file ({"sigma_x2": ..., "sigma_n2":
[...]}) and emit JSON (canonical, rates always in nats, 17 significant
digits) or CSV for grid maps.  Exit codes: 0 success / domain answer true,
1 domain answer false (e.g. infeasible refinement, region miss), 2 usage
error, 3 numerical failure.

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
form.  So only ``simulate`` loads numpy.  It draws from one seeded
stream in the calling thread and starts no other (see ``montecarlo``).
Cold starts on a 2-vCPU VM (min of 7 spawns): ``omega-map`` on a 31 x 31
grid ~160 ms, ``refine`` ~125 ms, ``schedule`` ~100 ms.

``omega-map`` writes the CSV text that ``refinement.reachable_set_l2``
returns with its nodes.  A grid's start-independent part (inversions,
region tags, row text) is kept across maps in a memo of at most as many
nodes as the r* cache holds answers, so a cold map costs one r* per node.
A warm map tests each node that dominates ``--from`` by its two
singleton stage-2 slacks (two precision weights and two logarithms),
which reject most nodes exactly; only the nodes they do not reject take
the stage-2 minimum: one threshold scan (one sort and at most 2L + 1
logarithms) and one more logarithm, with no rows built.  One
command runs one map, which is always cold; only a process that runs
several maps of one grid (``main`` or ``reachable_set_l2`` called in a
loop) gets warm maps.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from itertools import permutations

from .errors import ArgumentError, GceoError
from .model import TOL_EQ, CeoInstance, joint_rate
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


def _scale_rates(obj, keys: set):
    """Copy of obj with rate-valued fields divided by ln 2 (display only)."""
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            if k in keys and isinstance(v, (int, float)):
                out[k] = v / LN2
            elif k in keys and isinstance(v, (list, tuple)):
                out[k] = [x / LN2 if isinstance(x, (int, float)) else x for x in v]
            else:
                out[k] = _scale_rates(v, keys)
        return out
    if isinstance(obj, (list, tuple)):
        return [_scale_rates(v, keys) for v in obj]
    return obj


_RATE_KEYS = {"R", "r_star", "r_chain", "rate", "phi", "contact_vertex", "rank_total", "slack"}


def _emit(args, payload: dict, rate_keys=_RATE_KEYS) -> None:
    payload = {"units": "nats", **payload}
    if args.bits:
        payload["display_bits"] = _scale_rates(
            {k: v for k, v in payload.items() if k != "units"}, rate_keys
        )
    text = _to_json(payload) + "\n"
    _write(args.output, [text])


def _write(output: str, chunks) -> None:
    """Write the strings ``chunks`` in order to ``output`` ("-": stdout)."""
    if output == "-":
        sys.stdout.writelines(chunks)
    else:
        with open(output, "w") as fh:
            fh.writelines(chunks)


def _load_instance(path: str) -> CeoInstance:
    try:
        with open(path) as fh:
            return CeoInstance.from_json(fh.read())
    except OSError as exc:
        raise ArgumentError(f"cannot read instance file: {exc}") from exc
    except (json.JSONDecodeError, TypeError) as exc:
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
    except json.JSONDecodeError as exc:
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
# Command handlers (return process exit code).
# ----------------------------------------------------------------------


def _cmd_region(args) -> int:
    instance = _load_instance(args.instance)
    r = _parse_vector(args.r, instance.L, "r")
    if args.action == "vertices":
        if instance.L > 8:
            raise ArgumentError("vertex enumeration limited to 8 encoders")
        vertices = [
            {"pi": [i + 1 for i in pi], "R": list(polymatroid.vertex(instance, r, pi))}
            for pi in permutations(range(instance.L))
        ]
        _emit(args, {
            "rank_total": joint_rate(instance.sigma_n2, r, 1.0 / instance.sigma_x2),
            "vertices": vertices,
        })
        return 0
    if args.R is None:
        raise ArgumentError(f"region {args.action} needs --R")
    R = _parse_vector(args.R, instance.L, "R")
    if args.action == "check":
        contains, slack = polymatroid.region_check(instance, r, R, args.tol)
        _emit(args, {"contains": contains, "slack": slack})
        return 0 if contains else 1
    if args.action == "face":
        face = polymatroid.identify_face(instance, r, R, args.tol)
        _emit(args, face.to_dict())
        return 0
    raise ArgumentError(f"unknown region action {args.action!r}")


def _cmd_hyperplane(args) -> int:
    instance = _load_instance(args.instance)
    alpha = _parse_vector(args.alpha, instance.L, "alpha")
    result = hyperplane.support_value(instance, alpha, args.D)
    _emit(args, result.to_dict())
    return 0


def _cmd_invert(args) -> int:
    from . import inversion

    instance = _load_instance(args.instance)
    R = _parse_vector(args.R, instance.L, "R")
    result = inversion.r_star(instance, R, method=args.method)
    _emit(args, result.to_dict())
    return 0


def _cmd_omega(args) -> int:
    from . import inversion

    instance = _load_instance(args.instance)
    R = _parse_vector(args.R, instance.L, "R")
    tag = inversion.classify_omega(instance, R, tol=args.tol)
    _emit(args, {"tag": tag.value})
    return 0


def _cmd_omega_map(args) -> int:
    from . import refinement

    instance = _load_instance(args.instance)
    R_from = _parse_vector(getattr(args, "from"), instance.L, "from")
    grid = _parse_vector(args.grid, 3, "grid")
    nodes = refinement.reachable_set_l2(instance, R_from, grid, tol=args.tol)
    _write(args.output, nodes.csv_chunks())
    return 0


def _cmd_refine(args) -> int:
    from . import refinement

    instance = _load_instance(args.instance)
    stages = _load_vectors(args.stages, "stages")
    report = refinement.check_refinement(instance, stages, tol=args.tol)
    _emit(args, report.to_dict())
    return 0 if report.feasible else 1


def _cmd_schedule(args) -> int:
    from . import scheduler

    instance = _load_instance(args.instance)
    r = _parse_vector(args.r, instance.L, "r")
    R = _parse_vector(args.R, instance.L, "R")
    schedule = scheduler.build_schedule(instance, r, R)
    _emit(args, {"total_steps": schedule.total_steps, "steps": schedule.to_list()})
    return 0


def _cmd_simulate(args) -> int:
    instance = _load_instance(args.instance)
    config = montecarlo.SimConfig(n_samples=args.n, seed=args.seed)
    if args.chain:
        chain = _load_vectors(args.chain, "chain")
        report = montecarlo.simulate_refinement(instance, chain, config)
    else:
        if not args.r:
            raise ArgumentError("simulate needs --r or --chain")
        r = _parse_vector(args.r, instance.L, "r")
        report = montecarlo.simulate_distortion(instance, r, config)
    _emit(args, report.to_dict(), rate_keys=set())
    return 0


# ----------------------------------------------------------------------
# Parser.
# ----------------------------------------------------------------------


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
    common.add_argument("--bits", action="store_true", help="add a bits display section")
    common.add_argument(
        "--tol", type=float, default=None,
        help="tolerance in nats on top of the rounding floor of the rates involved, so 0 means "
        "exact up to that floor (default: model.TOL_EQ = 1e-9 for region; inversion.OMEGA_TOL = 1e-7 "
        "for omega; refinement.FEASIBILITY_TOL = 1e-6 for refine and omega-map; "
        "schedule ignores it and uses fixed tolerances)",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("region", parents=[common], help="rate-region queries")
    p.add_argument("action", choices=["vertices", "check", "face"])
    p.add_argument("--r", required=True, help="allocation, comma separated (nats)")
    p.add_argument("--R", help="rate tuple, comma separated (nats)")
    p.set_defaults(handler=_cmd_region)

    p = sub.add_parser("hyperplane", parents=[common], help="supporting hyperplane")
    p.add_argument("--alpha", required=True, help="direction, comma separated")
    p.add_argument("--D", type=float, required=True, help="distortion target")
    p.set_defaults(handler=_cmd_hyperplane)

    p = sub.add_parser("invert", parents=[common], help="minimal distortion and its allocation")
    p.add_argument("--R", required=True)
    p.add_argument("--method", choices=["auto", "bisection"], default="auto")
    p.set_defaults(handler=_cmd_invert)

    p = sub.add_parser("omega", parents=[common], help="two-encoder branch region of a rate pair")
    p.add_argument("--R", required=True)
    p.set_defaults(handler=_cmd_omega)

    p = sub.add_parser("omega-map", parents=[common], help="region / reachability grid (CSV)")
    p.add_argument("--from", required=True, help="starting rate pair r1,r2")
    p.add_argument("--grid", required=True, help="min,max,step for both axes")
    p.set_defaults(handler=_cmd_omega_map)

    p = sub.add_parser("refine", parents=[common], help="multistage refinement feasibility")
    p.add_argument("--stages", required=True, help="stages JSON file")
    p.set_defaults(handler=_cmd_refine)

    p = sub.add_parser("schedule", parents=[common], help="successive Wyner-Ziv schedule")
    p.add_argument("--r", required=True)
    p.add_argument("--R", required=True)
    p.set_defaults(handler=_cmd_schedule)

    p = sub.add_parser("simulate", parents=[common], help="Monte Carlo distortion check")
    p.add_argument("--r", help="single-stage allocation")
    p.add_argument("--chain", help="JSON file with an allocation chain")
    p.add_argument("--n", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(handler=_cmd_simulate)
    return parser


def _resolve_defaults(args) -> None:
    if args.tol is None:
        if args.command == "omega":
            from .inversion import OMEGA_TOL

            args.tol = OMEGA_TOL
        elif args.command in ("omega-map", "refine"):
            from .refinement import FEASIBILITY_TOL

            args.tol = FEASIBILITY_TOL
        else:
            args.tol = TOL_EQ
    elif not 0.0 <= args.tol < math.inf:
        raise ArgumentError(f"--tol must be finite and >= 0, got {args.tol}")


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
        _resolve_defaults(args)
        return args.handler(args)
    except ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GceoError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
