"""Benchmark launcher for the `gps` CLI: one fresh interpreter per call.

    python3 perfbench/launch.py [--trace-out PATH] GPS-ARGS...
    python3 perfbench/launch.py --setup MODEL-FILE...

The first form runs `gpspec.cli.run(GPS-ARGS)` and exits with its code;
with `--trace-out` it installs the layer wrappers first and writes their
counts and self times to PATH.  The second form imports `gpspec.cli` and
parses the model files, which is the set-up every CLI invocation pays.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv) -> int:
    if argv[:1] == ["--setup"]:
        import gpspec.cli  # noqa: F401
        from gpspec.dsl import parse_model

        for path in argv[1:]:
            parse_model(Path(path).read_text(encoding="utf-8"))
        return 0
    if argv[:1] == ["--trace-out"]:
        import spans

        tracer = spans.install()
        import gpspec.cli

        try:
            return gpspec.cli.run(argv[2:])
        finally:
            spans.dump(tracer, argv[1])
    from gpspec.cli import run

    return run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
