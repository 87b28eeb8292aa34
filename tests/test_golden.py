"""Byte-identity gate for the `gps` CLI: every call on models/ recorded in
perfbench/references.json is replayed in-process and must give the recorded
exit code and the recorded sha256 of its stdout.

Only the calls whose input lies under models/ are replayed; the generated
instances under perfbench/.work/ are left to the benchmark.
"""

import hashlib
import io
import json
from pathlib import Path

from gpspec.cli import run

ROOT = Path(__file__).resolve().parent.parent
REFERENCES = ROOT / "perfbench" / "references.json"


def recorded_model_calls() -> dict[str, dict]:
    refs = json.loads(REFERENCES.read_text(encoding="utf-8"))
    return {
        key: ref
        for key, ref in refs.items()
        if len(key.split()) > 1 and key.split()[1].startswith("models/")
    }


def test_cli_output_matches_recorded_references(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("GPS_ENUM_BOUND", raising=False)
    calls = recorded_model_calls()
    assert len(calls) == 96
    mismatches = []
    for key, ref in calls.items():
        out, err = io.StringIO(), io.StringIO()
        code = run(key.split(), stdout=out, stderr=err)
        digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
        if (code, digest) != (ref["exit"], ref["sha256"]):
            mismatches.append(f"{key}: exit {code}, stderr {err.getvalue()!r}")
    assert mismatches == []
