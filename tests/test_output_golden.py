"""Byte-identity gate for every `gps` command on models/.

For each model the calls cover parse, spec, pspec and max, radical and
variety of every named submodule (a model that names none asks for `N`,
which exits 2), variety with and without --star on both spaces, topology
and rho on both spaces, and check, each in text and JSON, plus topology
in DOT, the refusals of bounds below 1 and of integers past the
interpreter's digit limit, and a missing model file and submodule name.
A call may start with NAME=value settings of the environment, as in a
shell.  Each call is replayed in-process and must give the recorded exit
code and the recorded sha256 of its stdout and of its stderr.

The references live in output_golden.json next to this file.  To record
them again, after a change that is meant to alter the output, run

    PYTHONPATH=src python tests/test_output_golden.py
"""

import hashlib
import io
import json
import os
import sys
from itertools import takewhile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCES = Path(__file__).with_name("output_golden.json")


def calls() -> list[list[str]]:
    from gpspec.dsl import parse_model

    out = []
    for path in sorted((ROOT / "models").glob("*.gps")):
        model = f"models/{path.name}"
        names = list(parse_model(path.read_text(encoding="utf-8")).named_submodules) or ["N"]
        for fmt in ("text", "json"):
            for command in ("parse", "spec", "pspec", "max", "check"):
                out.append([command, model, "--format", fmt])
            for name in names:
                out.append(["radical", model, "--submodule", name, "--format", fmt])
                for space in ("pspec", "spec"):
                    variety = ["variety", model, "--submodule", name, "--space", space]
                    out.append([*variety, "--format", fmt])
                    out.append([*variety, "--star", "--format", fmt])
            for space in ("pspec", "spec"):
                out.append(["topology", model, "--space", space, "--format", fmt])
                out.append(["rho", model, "--space", space, "--format", fmt])
        for space in ("pspec", "spec"):
            out.append(["topology", model, "--space", space, "--format", "dot"])
    huge = "9" * 5000
    out += [
        ["radical", "models/z12.gps", "--submodule", "N", "--enum-bound", "0"],
        ["pspec", "models/z6.gps", "--enum-bound", "-5"],
        ["GPS_ENUM_BOUND=0", "pspec", "models/z6.gps"],
        ["GPS_ENUM_BOUND=-5", "pspec", "models/z6.gps"],
        ["pspec", "models/z6.gps", "--enum-bound", huge],
        ["check", "models/z6.gps", "--seed", huge],
    ]
    out.append(["check", "models/z6.gps", "--theorem", "T2.1", "--theorem", "P4.1"])
    out.append(["check", "models/z6.gps", "--theorem", "T9.9"])
    out.append(["pspec", "models/nope.gps"])
    out.append(["radical", "models/z6.gps", "--submodule", "Q"])
    return out


def outcome(argv: list[str]) -> dict:
    from gpspec.cli import run

    env = dict(a.split("=", 1) for a in takewhile(lambda a: "=" in a, argv))
    os.environ.update(env)
    out, err = io.StringIO(), io.StringIO()
    try:
        code = run(argv[len(env):], stdout=out, stderr=err)
    finally:
        for name in env:
            del os.environ[name]
    return {
        "exit": code,
        "stdout": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(),
        "stderr": hashlib.sha256(err.getvalue().encode("utf-8")).hexdigest(),
    }


def test_every_command_output_matches_recorded_references(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("GPS_ENUM_BOUND", raising=False)
    references = json.loads(REFERENCES.read_text(encoding="utf-8"))
    argvs = calls()
    assert sorted(" ".join(argv) for argv in argvs) == sorted(references)
    mismatches = [" ".join(argv) for argv in argvs
                  if outcome(argv) != references[" ".join(argv)]]
    assert mismatches == []


if __name__ == "__main__":
    os.chdir(ROOT)
    os.environ.pop("GPS_ENUM_BOUND", None)
    sys.path.insert(0, str(ROOT / "src"))
    lines = [f'{json.dumps(" ".join(argv))}: {json.dumps(outcome(argv))}' for argv in calls()]
    REFERENCES.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"recorded {len(lines)} calls to {REFERENCES.name}")
