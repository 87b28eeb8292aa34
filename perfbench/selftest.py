"""Self-tests of the benchmark's tracing.

    python3 perfbench/selftest.py

For each workload it makes two traced runs on the same seed and requires
identical call counts, count metrics and hit ratios.  Each traced run
also makes an untraced pass over the same operations and requires
identical answers from both (the `correct` flag), and reports the
tracing overhead, traced minus untraced wall time.  Exits 1 on any
difference.
"""

import sys

import run

SEED = 0


def counts(result: dict) -> dict:
    return {
        name: m["value"]
        for name, m in result["metrics"].items()
        if m["unit"] in ("count", "ratio")
    }


def main() -> int:
    ok = True
    for workload in run.WORKLOADS:
        first, _ = run.benchmark(workload, SEED, 0, 1)
        second, _ = run.benchmark(workload, SEED, 0, 1)
        a, b = counts(first), counts(second)
        diff = sorted(name for name in a if a[name] != b.get(name))
        correct = first["correct"] and second["correct"]
        overhead = [r["metrics"]["bench.trace_overhead_s"]["value"] for r in (first, second)]
        print(f"{workload}: {len(a)} count metrics, {len(diff)} differ; "
              f"traced answers match untraced: {correct}; "
              f"tracing overhead {overhead[0]:.2f} s, {overhead[1]:.2f} s")
        for name in diff:
            print(f"  {name}: {a[name]} vs {b.get(name)}")
        ok = ok and correct and not diff
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
