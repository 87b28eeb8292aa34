"""Byte-identity gate for the benchmark's generated instances.

`perfbench/workloads.py` generates the model files of three instances
beyond `models/` (two catalog-heavy ones and the largest ladder rung), and
`perfbench/references.json` records the exit code and the sha256 of the
stdout of each `gps` call the cli-corpus workload makes on them.  This test
writes each model under a temporary directory with the same file stem,
replays those calls in-process and compares.  It reads `perfbench/` and
writes nothing there: the workload module runs from its source.
"""

import hashlib
import io
import json
import runpy
from pathlib import Path

from gpspec.cli import run

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"


def test_generated_instances_match_the_benchmark_references(tmp_path, monkeypatch):
    monkeypatch.delenv("GPS_ENUM_BOUND", raising=False)
    workloads = runpy.run_path(str(BENCH / "workloads.py"))
    references = json.loads((BENCH / "references.json").read_text(encoding="utf-8"))
    generated = workloads["generated_files"]()
    for rel, text in generated.items():
        (tmp_path / Path(rel).name).write_text(text, encoding="utf-8")
    ops = [op for op in workloads["cli_corpus_ops"](0) if op["argv"][1] in generated]
    assert len(ops) == sum(len(commands) for *_, commands in workloads["HEAVY"].values())
    mismatches = []
    for op in sorted(ops, key=lambda op: op["key"]):
        argv = [tmp_path / Path(a).name if a in generated else a for a in op["argv"]]
        out = io.StringIO()
        code = run([str(a) for a in argv], stdout=out, stderr=io.StringIO())
        digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
        ref = references[op["key"]]
        if (code, digest) != (ref["exit"], ref["sha256"]):
            mismatches.append(op["key"])
    assert mismatches == []
