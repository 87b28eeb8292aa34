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
from collections import Counter
from pathlib import Path

from . import harness, maps, topology
from .algebra import (
    DEFAULT_ENUM_BOUND,
    AlgebraError,
    EnumerationBoundError,
    InfiniteEnumerationError,
    InvariantError,
    LazyRingError,
    UnknownCheckError,
)
from .dsl import (
    Model,
    ParseError,
    check_report_json,
    map_json,
    model_text,
    parse_model,
    render,
    report_json,
    to_json_text,
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
            "--enum-bound", type=int,
            help="largest module size that will be enumerated "
            f"(default: GPS_ENUM_BOUND, else {DEFAULT_ENUM_BOUND})",
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
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--theorem", action="append", metavar="ID", default=None,
                    help="check id to run (repeatable; default: the whole catalog)")
    return p


def _load_model(path: str) -> tuple[Model, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(0, 0, f"cannot read {path}: {exc.strerror or exc}")
    return parse_model(text), Path(path).stem


def _emit(out, text: str) -> None:
    out.write(text)
    if not text.endswith("\n"):
        out.write("\n")


def _point_lines(points) -> str:
    return "\n".join(p.text() for p in points)


def _topology_text(space, rep) -> str:
    lines = [f"points ({len(space.points)}):"]
    for i, p in enumerate(space.points):
        lines.append(f"  [{i}] {p.text()}")
    lines.append(f"closed sets ({len(space.closed_masks)}):")
    for m in space.closed_masks:
        idx = space.point_set(m).indices()
        lines.append("  {" + ", ".join(map(str, idx)) + "}")
    lines.append("base:")
    for r, m in space.base:
        idx = space.point_set(m).indices()
        lines.append(f"  S_{r} = {{" + ", ".join(map(str, idx)) + "}")
    lines.append("components:")
    for m in rep.components:
        idx = space.point_set(m).indices()
        lines.append("  {" + ", ".join(map(str, idx)) + "}")
    if rep.generic_points:
        lines.append("generic points:")
        for m, pts in rep.generic_points:
            idx = space.point_set(m).indices()
            lines.append(
                "  {" + ", ".join(map(str, idx)) + "} <- "
                + (", ".join(map(str, pts)) if pts else "(none)")
            )
    lines.append(
        "flags: "
        + ", ".join(
            f"{k}={v}"
            for k, v in (
                ("connected", rep.connected),
                ("irreducible", rep.irreducible),
                ("t0", rep.t0),
                ("t1", rep.t1),
                ("sober", rep.sober),
                ("quasi_compact", rep.quasi_compact),
                ("spectral", rep.spectral),
                ("trivial_topology", rep.trivial_topology),
            )
        )
    )
    return "\n".join(lines)


def _map_text(res) -> str:
    lines = [
        f"map: {res.kind}",
        f"reduced ring: {res.reduced.ring.text()}",
        f"injective: {res.injective.label}",
        f"surjective: {res.surjective.label}",
        f"continuous: {str(res.continuity_ok).lower()}",
        f"open_closed: {res.open_closed.label}",
        f"homeomorphism: {res.homeomorphism.label}",
        "fibers:",
    ]
    for p, mask in res.fibers:
        members = ", ".join(q.text() for q in res.space.point_set(mask).members())
        lines.append(f"  {p.text()}: {{{members}}}")
    return "\n".join(lines)


def run(argv=None, stdout=None, stderr=None) -> int:
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    parser = _build_parser()
    args = parser.parse_args(argv)

    try:
        bound = _enum_bound(args)
        model, stem = _load_model(args.input)

        if args.command == "parse":
            if args.format == "json":
                _emit(stdout, render(model, "json"))
            else:
                _emit(stdout, model_text(model))
            return EXIT_OK

        if args.command in ("spec", "pspec", "max"):
            kind = {"spec": "prime", "pspec": "primary", "max": "maximal"}[args.command]
            points = spectrum_points(model.module, kind, bound)
            if args.format == "json":
                payload = {
                    "schema": 1,
                    "kind": f"{kind}_spectrum",
                    "points": [
                        {"generators": [list(v) for v in p.generator_vectors()],
                         "text": p.text()}
                        for p in points
                    ],
                }
                _emit(stdout, to_json_text(payload))
            else:
                _emit(stdout, _point_lines(points) if points else "(empty)")
            return EXIT_OK

        if args.command == "radical":
            N = _named(model, args.submodule)
            res = graded_radical(N, bound)
            if res.status == "unknown":
                raise UnknownResultError(res.reason)
            text = res.submodule.text()
            if args.format == "json":
                payload = {
                    "schema": 1,
                    "kind": "radical",
                    "top": False,
                    "generators": [list(v) for v in res.submodule.generator_vectors()],
                    "text": text,
                }
                _emit(stdout, to_json_text(payload))
            else:
                _emit(stdout, text)
            return EXIT_OK

        if args.command == "variety":
            N = _named(model, args.submodule)
            space = topology.build_space(model.module, args.space, bound)
            pts = topology.variety(space, N, star=args.star)
            if args.format == "json":
                payload = {
                    "schema": 1,
                    "kind": "variety",
                    "star": args.star,
                    "members": pts.indices(),
                    "points": [p.text() for p in space.points],
                }
                _emit(stdout, to_json_text(payload))
            else:
                _emit(stdout, _point_lines(pts.members()) if pts.size() else "(empty)")
            return EXIT_OK

        if args.command == "topology":
            space = topology.build_space(model.module, args.space, bound)
            rep = topology.analyze_space(space)
            if args.format == "json":
                _emit(stdout, to_json_text(report_json(space, rep)))
            elif args.format == "dot":
                _emit(stdout, render(space, "dot"))
            else:
                _emit(stdout, _topology_text(space, rep))
            return EXIT_OK

        if args.command == "rho":
            res = maps.analyze_natural_map(
                model.module, "primary" if args.space == "pspec" else "prime", bound
            )
            if args.format == "json":
                _emit(stdout, to_json_text(map_json(res)))
            else:
                _emit(stdout, _map_text(res))
            return EXIT_OK

        if args.command == "check":
            selection = args.theorem if args.theorem else "all"
            results = harness.run_checks(model, selection, stem, bound, args.seed)
            n = Counter(r.status for r in results)
            if args.format == "json":
                _emit(stdout, to_json_text(check_report_json(results)))
            else:
                for r in results:
                    extra = " (vacuous)" if r.status == "pass" and r.vacuous else ""
                    _emit(stdout, f"{r.status.upper()}{extra} {r.check_id}: {r.detail}")
                errored = f", {n['error']} errored" if n["error"] else ""
                _emit(stdout, f"{n['pass']} passed, {n['fail']} failed, "
                      f"{n['skip']} skipped{errored} on {stem}")
            if n["error"]:
                return EXIT_INTERNAL_ERROR
            return EXIT_CHECK_FAILED if n["fail"] else EXIT_OK

        raise AlgebraError(f"unhandled command {args.command!r}")

    except ParseError as exc:
        print(f"error: {exc}", file=stderr)
        return EXIT_INPUT_ERROR
    except UnknownCheckError as exc:
        print(f"error: {exc}", file=stderr)
        return EXIT_INPUT_ERROR
    except (UnknownResultError, InfiniteEnumerationError, EnumerationBoundError,
            LazyRingError) as exc:
        print(f"error: {exc}", file=stderr)
        return EXIT_UNKNOWN
    except InvariantError as exc:
        print(f"internal error: {exc}", file=stderr)
        return EXIT_INTERNAL_ERROR
    except AlgebraError as exc:
        print(f"error: {exc}", file=stderr)
        return EXIT_INPUT_ERROR


def _enum_bound(args) -> int:
    """--enum-bound, else the GPS_ENUM_BOUND environment variable, else the
    library default."""
    if args.enum_bound is not None:
        return args.enum_bound
    raw = os.environ.get("GPS_ENUM_BOUND")
    if raw is None:
        return DEFAULT_ENUM_BOUND
    try:
        return int(raw)
    except ValueError:
        raise AlgebraError(f"GPS_ENUM_BOUND must be an integer, got {raw!r}") from None


def _named(model: Model, name: str):
    if name not in model.named_submodules:
        raise ParseError(0, 0, f"no submodule named {name!r} in the model")
    return model.named_submodules[name]


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
