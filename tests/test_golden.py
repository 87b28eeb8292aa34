"""Byte-identity gate for the answers recorded in perfbench/references.json.

Every `gps` call of the benchmark is replayed in-process and must give the
recorded exit code and the recorded sha256 of its stdout: the calls on
models/, and the calls on the instances the benchmark generates under
perfbench/.work/ (written here to a temporary directory).  Every pointwise
query must give the recorded answer text.  The benchmark's own modules
supply the inputs and the query answering; they are only read.  The whole
pointwise pool, answered in one fresh interpreter, must leave nothing for
the cyclic collector: a count, so the gate is deterministic.  The pool's
work is pinned by counts too: the Smith invariants, eliminations and
factorizations its answers cost, and the module and submodule hashes they
never need.
"""

import hashlib
import importlib.util
import io
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

from gpspec import intlinalg, numtheory
from gpspec.algebra import GradedModule, GradedSubmodule
from gpspec.cli import run

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
REFERENCES = json.loads((PERFBENCH / "references.json").read_text(encoding="utf-8"))


def perfbench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = perfbench_module("workloads")


def replay(keys) -> list[str]:
    """Run each recorded `gps` call; describe every one whose exit code or
    stdout differs from its reference."""
    mismatches = []
    for key in keys:
        ref = REFERENCES[key]
        out, err = io.StringIO(), io.StringIO()
        code = run(key.split(), stdout=out, stderr=err)
        digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
        if (code, digest) != (ref["exit"], ref["sha256"]):
            mismatches.append(f"{key}: exit {code}, stderr {err.getvalue()!r}")
    return mismatches


def test_cli_output_matches_recorded_references(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("GPS_ENUM_BOUND", raising=False)
    keys = [k for k in REFERENCES if len(k.split()) > 1 and k.split()[1].startswith("models/")]
    assert len(keys) == 96
    assert replay(keys) == []


def test_generated_instance_output_matches_recorded_references(monkeypatch, tmp_path):
    for rel, text in workloads.generated_files().items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("GPS_ENUM_BOUND", raising=False)
    ops = [op for op in workloads.cli_corpus_ops(0) if "/.work/" in op["key"]]
    assert len(ops) == 9
    for op in ops:
        assert REFERENCES[op["key"]]["spec"] == workloads.spec_digest(op), op["key"]
    assert replay(op["key"] for op in ops) == []


def test_pointwise_answers_match_recorded_references():
    worker = perfbench_module("worker")
    pool = workloads.query_pool()
    assert len(pool) == 360
    mismatches = []
    for q in pool:
        ref = REFERENCES[q["key"]]
        assert ref["spec"] == workloads.spec_digest(q), q["key"]
        got = worker.answer(q)
        if got != ref["answer"]:
            mismatches.append(f"{q['key']}: {got!r}, recorded {ref['answer']!r}")
    assert mismatches == []


def test_pointwise_pool_work_is_pinned(monkeypatch):
    # each query builds its own module, so each pays one quotient-invariant
    # computation per degree of its submodule and nothing past that
    pool, worker, built = workloads.query_pool(), perfbench_module("worker"), []
    degrees = sum(len(worker.build(q).module.degrees) for q in pool)
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, name in ((intlinalg, "quotient_invariants_of"), (intlinalg, "smith_normal_form"),
                         (numtheory, "factorize")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    monkeypatch.setattr(intlinalg._Echelon, "__init__",
                        counted("_Echelon", intlinalg._Echelon.__init__))
    for cls in (GradedModule, GradedSubmodule):
        monkeypatch.setattr(cls, "__hash__", counted(f"{cls.__name__}.__hash__", cls.__hash__))
    build = worker.build

    def recording_build(q):
        built.append(build(q))
        return built[-1]

    monkeypatch.setattr(worker, "build", recording_build)
    assert len([worker.answer(q) for q in pool]) == 360
    # hashes wait for first use, and no query asks for one
    assert len(built) == 360
    assert all(N._hash is None and N.module._hash is None for N in built)
    assert counts["quotient_invariants_of"] == degrees == 500
    assert dict(counts) == {
        "quotient_invariants_of": 500, "_Echelon": 20, "smith_normal_form": 20, "factorize": 29,
    }


COLLECTOR_COUNT = """
import gc, importlib.util, json, sys
from pathlib import Path

def load(name):
    spec = importlib.util.spec_from_file_location(name, Path(sys.argv[1]) / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

workloads, worker = load("workloads"), load("worker")
pool = workloads.query_pool()
gc.collect()
stops = []
gc.callbacks.append(lambda phase, info: phase == "stop" and stops.append(info["collected"]))
answers = [worker.answer(q) for q in pool]
gc.collect()
print(json.dumps({"queries": len(answers), "collected": sum(stops)}))
"""


def test_pointwise_pool_leaves_no_cyclic_garbage():
    # every query's module is freed by reference counting as soon as the
    # answer is in, so neither the collections the pool triggers nor a full
    # one after it find anything
    proc = subprocess.run(
        [sys.executable, "-c", COLLECTOR_COUNT, str(PERFBENCH)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert json.loads(proc.stdout) == {"queries": 360, "collected": 0}
