"""Record references.json: the answer gpspec gives to every operation of
every workload.

    python3 perfbench/record.py

For a `gps` call the reference is its exit code and the sha256 of its
stdout; for a pointwise query it is the canonical answer text.  Every entry
also stores a digest of the operation's inputs, so a changed generator is
reported as a missing reference instead of a wrong answer.  Re-record only
when an output is meant to change, and say so with the change.
"""

import json
import sys

import run
import workloads


def record_cli(ops, refs) -> None:
    for op in ops:
        got = run.call_gps(op["argv"], 300)
        if got is None or got[2]:
            raise SystemExit(f"{op['key']}: timed out or raised a traceback")
        code, digest, _, _ = got
        refs[op["key"]] = {"spec": workloads.spec_digest(op), "exit": code, "sha256": digest}
        print(f"{op['key']}: exit {code}", flush=True)


def record_queries(ops, refs) -> None:
    worker = run.Worker(False)
    for op in ops:
        reply = worker.ask(run.query_request(op), 300)
        if reply is None:
            raise SystemExit(f"{op['key']}: no answer")
        refs[op["key"]] = {"spec": workloads.spec_digest(op), "answer": reply["answer"]}
    worker.close()
    print(f"{len(ops)} pointwise queries recorded")


def main() -> int:
    workloads.write_inputs()
    refs = {}
    record_cli(workloads.cli_corpus_ops(0), refs)
    record_queries(workloads.query_pool(), refs)
    path = run.HERE / "references.json"
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(refs)} references to {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
