"""Command-line front end for `.gps` model files.

Commands: parse, spec, pspec, max, radical, variety, topology, rho, check.
Results go to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 check failure, 2 input error, 3 an exact answer was required but no
strategy could provide one (including refused infinite enumerations),
4 internal error (an internal invariant failed, or a check raised).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import harness, maps, topology
from .algebra import (
    DEFAULT_ENUM_BOUND,
    AlgebraError,
    EnumerationBoundError,
    InfiniteEnumerationError,
    InvariantError,
)
from .dsl import (
    Model,
    ParseError,
    check_report_json,
    check_text,
    map_json,
    map_text,
    model_json,
    model_text,
    parse_model,
    radical_json,
    read_int,
    report_json,
    space_dot,
    spectrum_json,
    submodules_text,
    to_json_text,
    topology_text,
    variety_json,
)
from .spectra import UnknownResultError, graded_radical, spectrum_points

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_UNKNOWN = 3
EXIT_INTERNAL_ERROR = 4


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gps",
        description="exact primary/prime spectrum computations on .gps models",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, space_flag=False, dot=False):
        sp.add_argument("input", help="model file (.gps)")
        if space_flag:
            sp.add_argument(
                "--space", choices=["spec", "pspec"], default="pspec",
                help="which spectrum to work on (default pspec)",
            )
        sp.add_argument(
            "--format", choices=["text", "json", "dot"] if dot else ["text", "json"],
            default="text",
        )
        sp.add_argument(
            "--enum-bound",
            help="largest module size to enumerate, an integer >= 1 that wins over "
            f"GPS_ENUM_BOUND (default: that, else {DEFAULT_ENUM_BOUND}); a bad value exits 2",
        )

    common(sub.add_parser("parse", help="validate and echo the canonical form"))
    common(sub.add_parser("spec", help="list the prime spectrum"))
    common(sub.add_parser("pspec", help="list the primary spectrum"))
    common(sub.add_parser("max", help="list the maximal spectrum"))

    sp = sub.add_parser("radical", help="graded radical of a named submodule")
    common(sp)
    sp.add_argument("--submodule", required=True, metavar="NAME")

    sp = sub.add_parser("variety", help="variety of a named submodule")
    common(sp, space_flag=True)
    sp.add_argument("--submodule", required=True, metavar="NAME")
    sp.add_argument("--star", action="store_true",
                    help="use radical containment instead of colon containment")

    common(sub.add_parser("topology", help="space, closed sets and analysis"),
           space_flag=True, dot=True)

    common(sub.add_parser("rho", help="analysis of the natural map"),
           space_flag=True)

    sp = sub.add_parser("check", help="run the theorem catalog")
    common(sp)
    sp.add_argument("--seed", default="0")
    sp.add_argument("--theorem", action="append", metavar="ID", default=None,
                    help="check id to run (repeatable; default: the whole catalog)")
    return p


def _load_model(path: str) -> tuple[Model, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(None, None, f"cannot read {path}: {exc.strerror or exc}")
    return parse_model(text), Path(path).stem


SPECTRA = {"spec": "prime", "pspec": "primary", "max": "maximal"}


def run(argv=None, stdout=None, stderr=None) -> int:
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    args = _build_parser().parse_args(argv)
    json_out = args.format == "json"
    try:  # the integers taken from argv and the environment
        bound = _enum_bound(args)
        seed = read_int(args.seed, "--seed") if args.command == "check" else 0
    except ValueError as exc:
        print("error: {}, got {!r}".format(*exc.args), file=stderr)
        return EXIT_INPUT_ERROR

    try:
        model, stem = _load_model(args.input)
        code = EXIT_OK

        if args.command == "parse":
            out = model_json(model) if json_out else model_text(model)

        elif args.command in SPECTRA:
            kind = SPECTRA[args.command]
            points = spectrum_points(model.module, kind, bound)
            out = spectrum_json(kind, points) if json_out else submodules_text(points)

        elif args.command == "radical":
            res = graded_radical(_named(model, args.submodule), bound)
            if res.status == "unknown":
                raise UnknownResultError(res.reason)
            out = radical_json(res.submodule) if json_out else submodules_text([res.submodule])

        elif args.command == "variety":
            N = _named(model, args.submodule)
            space = topology.build_space(model.module, SPECTRA[args.space], bound)
            mask = topology.variety(space, N, star=args.star)
            out = (variety_json(space, mask, args.star) if json_out
                   else submodules_text(space.members(mask)))

        elif args.command == "topology":
            space = topology.build_space(model.module, SPECTRA[args.space], bound)
            rep = topology.analyze_space(space)
            if json_out:
                out = report_json(space, rep)
            else:
                out = space_dot(space) if args.format == "dot" else topology_text(space, rep)

        elif args.command == "rho":
            res = maps.analyze_natural_map(model.module, SPECTRA[args.space], bound)
            out = map_json(res) if json_out else map_text(res)

        else:  # check
            results = harness.run_checks(model, args.theorem or "all", stem, bound, seed)
            out = check_report_json(results) if json_out else check_text(results, stem)
            statuses = {r.status for r in results}
            if "error" in statuses:
                code = EXIT_INTERNAL_ERROR
            elif "fail" in statuses:
                code = EXIT_CHECK_FAILED

        stdout.write(to_json_text(out) if json_out else out)
        return code

    except (UnknownResultError, InfiniteEnumerationError, EnumerationBoundError) as exc:
        print(f"error: {exc}", file=stderr)
        return EXIT_UNKNOWN
    except InvariantError as exc:
        print(f"internal error: {exc}", file=stderr)
        return EXIT_INTERNAL_ERROR
    except (ParseError, AlgebraError) as exc:
        print(f"error: {exc}", file=stderr)
        return EXIT_INPUT_ERROR


def _enum_bound(args) -> int:
    """--enum-bound, else the GPS_ENUM_BOUND environment variable, else the
    library default; a bound given either way is at least 1."""
    if args.enum_bound is not None:
        return read_int(args.enum_bound, "--enum-bound", 1)
    raw = os.environ.get("GPS_ENUM_BOUND")
    return DEFAULT_ENUM_BOUND if raw is None else read_int(raw, "GPS_ENUM_BOUND", 1)


def _named(model: Model, name: str):
    if name not in model.named_submodules:
        raise ParseError(None, None, f"no submodule named {name!r} in the model")
    return model.named_submodules[name]


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
