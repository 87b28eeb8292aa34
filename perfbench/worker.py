"""Pointwise worker: one warm interpreter answering queries one at a time.

    python3 perfbench/worker.py [--trace]     # serve JSON lines on stdin
    python3 perfbench/worker.py --setup FILE  # import, then build FILE's inputs

Each request line is a query (see workloads.query_pool) or {"stats": true}.
Each reply line carries the query's canonical answer and the seconds the
library took to produce it, measured around building the submodule and
answering.  With --trace the layer wrappers are installed before the first
query (calls go through module attributes, so they reach the wrappers) and
the stats request returns their counts and self times.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gpspec import spectra  # noqa: E402
from gpspec.algebra import AlgebraError, BaseRing, GradedModule, GradingGroup  # noqa: E402


def build(q):
    spec = q["module"]
    group = GradingGroup(tuple(spec["group"]))
    M = GradedModule(BaseRing(spec["ring"]), group, [(o, tuple(d)) for o, d in spec["factors"]])
    return M.submodule([tuple(v) for v in q["gens"]])


def answer(q) -> str:
    """Canonical text of one query's answer; a refusal is the class name of
    the error gpspec raised."""
    try:
        N = build(q)
        op = q["op"]
        if op == "colon":
            return N.colon().text()
        if op == "graded_radical":
            res = spectra.graded_radical(N)
            if res.status == "unknown":
                return "unknown"
            return f"{res.status}:{res.submodule.text()}"
        return "true" if getattr(spectra, op)(N) else "false"
    except AlgebraError as exc:
        return type(exc).__name__


def main(argv) -> int:
    if argv[:1] == ["--setup"]:
        for line in Path(argv[1]).read_text(encoding="utf-8").splitlines():
            build(json.loads(line))
        return 0
    tracer = None
    if argv[:1] == ["--trace"]:
        import spans

        tracer = spans.install()
    for line in sys.stdin:
        req = json.loads(line)
        if "stats" in req:
            reply = tracer.snapshot() if tracer else {}
        else:
            start = time.perf_counter()
            text = answer(req)
            reply = {"answer": text, "elapsed": time.perf_counter() - start}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
