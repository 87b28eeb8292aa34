"""One-command benchmark of gpspec: time to answer on two workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (rationale in perfbench/README.md):
  cli-corpus  fresh `gps` processes over models/ and three larger instances
  pointwise   one warm interpreter per pass answering queries in seeded order

It runs one worker process at a time, in a closed loop with one client.
It makes a fixed number of whole passes over the seed's operation list
(S divided by the workload's nominal pass length), times set-up between
them, checks every answer against references.json, and prints each metric
by name with its unit.  Timings are reported in seconds at a reference
machine speed: a fixed calibration loop is timed between operations and
every timing is scaled by how fast the loop ran around it (see Speed).
The last stdout line is the JSON result.  With --trace 1 it runs one
untraced and one traced pass and reports the per-layer metrics named in
BENCHMARK.json instead.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import resource
import select
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("cli-corpus", "pointwise")
HARD_STOP_S = 150       # after this, remaining operations count as failed
CLI_DEADLINE_S = 60     # per `gps` call; the slowest reference call takes ~7 s
QUERY_DEADLINE_S = 10   # per pointwise query; the slowest reference takes ~0.3 s
PROBE_DEADLINE_S = 1.0
SETUP_SAMPLES = 12      # spread over the gaps before, between and after passes
TAIL_BEYOND = 10
# Nominal seconds of one pass, measured when the benchmark was defined.  The
# pass count comes from --seconds and these constants only, never from the
# measured speed, so every commit is measured with the same estimator.
PASS_SECONDS = {"cli-corpus": 25.0, "pointwise": 6.0}
CALIBRATE_EVERY_S = 0.5
CALIBRATION_ITERATIONS = 6000
# Seconds of one calibration loop at the reference speed: its typical time
# on the machine where the benchmark was defined (see README.md).
REFERENCE_CALIBRATION_S = 0.0019
# gpspec's work slows less than the calibration loop when the machine slows:
# over two minutes of drift, log latency against log calibration time had
# slope 0.69 for a `gps` call and 0.75 for a batch of pointwise queries.
SPEED_EXPONENT = 0.7


class BenchError(Exception):
    """The benchmark cannot run here (missing program or references)."""


@dataclass
class Pass:
    start: float = 0.0
    end: float = 0.0
    wall: float = 0.0
    cpu: float = 0.0
    latencies: list = field(default_factory=list)
    stamps: list = field(default_factory=list)  # when each operation started
    answers: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)


def cpu_seconds() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def calibration_loop() -> int:
    """A fixed piece of pure-Python work: integer arithmetic, tuples and a
    dict, the kind of work gpspec's own inner loops do."""
    acc, table = 1, {}
    for i in range(CALIBRATION_ITERATIONS):
        key = (i % 97, i % 89)
        acc = (acc * 1000003 + i) % 1000000007
        table[key] = table.get(key, 0) + acc
    return acc + len(table)


class Speed:
    """How fast the machine runs Python during a run, sampled between
    operations.  On a shared host other tenants slow every process by up
    to half, in phases of seconds to minutes, longer than a run; timings
    scaled by REFERENCE_CALIBRATION_S over the calibration time measured
    around them (to SPEED_EXPONENT) stay comparable from run to run."""

    def __init__(self):
        # (start, end, seconds of one calibration loop, CPU seconds spent)
        self.samples = []
        self.ends = []

    def tick(self, force=False) -> None:
        """Time the calibration loop if CALIBRATE_EVERY_S have passed since
        the last sample (always when forced): one warm-up, best of three."""
        start, cpu = time.perf_counter(), time.process_time()
        if not force and self.ends and start - self.ends[-1] < CALIBRATE_EVERY_S:
            return
        calibration_loop()
        best = float("inf")
        for _ in range(3):
            t = time.perf_counter()
            calibration_loop()
            best = min(best, time.perf_counter() - t)
        self.samples.append((start, time.perf_counter(), best, time.process_time() - cpu))
        self.ends.append(self.samples[-1][1])

    def factor(self, t: float) -> float:
        """Reference over measured speed at moment t, from the median of the
        two calibrations before t and the two after it, to SPEED_EXPONENT."""
        i = bisect.bisect_right(self.ends, t)
        near = [sample[2] for sample in self.samples[max(0, i - 2): i + 2]]
        return (REFERENCE_CALIBRATION_S / statistics.median(near)) ** SPEED_EXPONENT

    def scaled(self, a: float, b: float) -> tuple[float, float]:
        """The interval [a, b] without the calibrations inside it, as
        (seconds at reference speed, seconds as measured)."""
        scaled = measured = 0.0
        for before, after in zip(self.samples, self.samples[1:]):
            lo, hi = max(a, before[1]), min(b, after[0])
            if hi > lo:
                scaled += (hi - lo) * self.factor(lo)
                measured += hi - lo
        return scaled, measured

    def cpu_within(self, a: float, b: float) -> float:
        """CPU seconds the calibrations inside [a, b] spent."""
        return sum(cpu for start, end, _, cpu in self.samples if a <= start and end <= b)


def load_references() -> dict:
    path = HERE / "references.json"
    if not path.exists():
        raise BenchError(f"missing {path.relative_to(ROOT)}; run perfbench/record.py")
    return json.loads(path.read_text(encoding="utf-8"))


def require_reference(refs: dict, op: dict) -> dict:
    ref = refs.get(op["key"])
    if ref is None or ref["spec"] != workloads.spec_digest(op):
        raise BenchError(f"no reference for operation {op['key']!r}")
    return ref


# -- CLI operations --------------------------------------------------------


def call_gps(argv, deadline, trace_path=None):
    """Run one `gps` call in a fresh interpreter through the launcher.
    Returns (exit code, stdout sha256, traceback seen, seconds), or None
    when it missed the deadline."""
    cmd = [sys.executable, str(HERE / "launch.py")]
    if trace_path:
        cmd += ["--trace-out", trace_path]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd + argv, cwd=ROOT, capture_output=True, timeout=deadline)
    except subprocess.TimeoutExpired:
        return None
    return (
        proc.returncode,
        hashlib.sha256(proc.stdout).hexdigest(),
        b"Traceback (most recent call last)" in proc.stderr,
        time.perf_counter() - start,
    )


def cli_pass(ops, refs, hard_stop, traced=False, speed=None) -> Pass:
    out = Pass()
    out.start, cpu0 = time.perf_counter(), cpu_seconds()
    with tempfile.TemporaryDirectory(dir=workloads.WORK) as tmp:
        for i, op in enumerate(ops):
            if speed:
                speed.tick()
            out.stamps.append(time.perf_counter())
            left = hard_stop - time.perf_counter()
            if left <= 0:
                _fail(out, op, "hard stop", CLI_DEADLINE_S)
                continue
            trace_path = os.path.join(tmp, f"{i}.json") if traced else None
            got = call_gps(op["argv"], min(CLI_DEADLINE_S, left), trace_path)
            if got is None:
                _fail(out, op, "deadline", CLI_DEADLINE_S)
                continue
            code, digest, traceback, secs = got
            ref = refs[op["key"]]
            out.latencies.append(secs)
            out.answers.append(f"{code}:{digest}")
            if traceback or (code, digest) != (ref["exit"], ref["sha256"]):
                out.failures.append(f"{op['key']}: exit {code}, traceback {traceback}")
            if trace_path and os.path.exists(trace_path):
                with open(trace_path, encoding="utf-8") as fh:
                    spans.merge(out.stats, json.load(fh))
    out.end, out.cpu = time.perf_counter(), cpu_seconds() - cpu0
    out.wall = out.end - out.start
    return out


def _fail(out: Pass, op, reason, secs) -> None:
    out.latencies.append(secs)
    out.answers.append(reason)
    out.failures.append(f"{op['key']}: {reason}")


# -- pointwise operations --------------------------------------------------


class Worker:
    """A fresh worker interpreter, asked one query at a time."""

    def __init__(self, traced: bool):
        argv = [sys.executable, str(HERE / "worker.py")] + (["--trace"] if traced else [])
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def ask(self, request: dict, deadline: float):
        """The reply, or None when the worker missed the deadline or died."""
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        ready, _, _ = select.select([self.proc.stdout], [], [], deadline)
        line = self.proc.stdout.readline() if ready else ""
        return json.loads(line) if line else None

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.kill()
        self.proc.stdout.close()

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def query_request(op) -> dict:
    return {k: op[k] for k in ("op", "module", "gens")}


def pointwise_pass(ops, refs, hard_stop, traced=False, speed=None) -> Pass:
    """All queries in one fresh worker; a missed deadline abandons the worker
    and the remaining queries go to a new one."""
    out = Pass()
    out.start, cpu0 = time.perf_counter(), cpu_seconds()
    worker = Worker(traced)
    for op in ops:
        if speed:
            speed.tick()
        out.stamps.append(time.perf_counter())
        left = hard_stop - time.perf_counter()
        if left <= 0:
            _fail(out, op, "hard stop", QUERY_DEADLINE_S)
            continue
        reply = worker.ask(query_request(op), min(QUERY_DEADLINE_S, left))
        if reply is None:
            worker.kill()
            worker = Worker(traced)
            _fail(out, op, "deadline", QUERY_DEADLINE_S)
            continue
        out.latencies.append(reply["elapsed"])
        out.answers.append(reply["answer"])
        if reply["answer"] != refs[op["key"]]["answer"]:
            out.failures.append(f"{op['key']}: {reply['answer']}")
    stats = worker.ask({"stats": True}, QUERY_DEADLINE_S) if traced else None
    if stats:
        spans.merge(out.stats, stats)
    worker.close()
    out.end, out.cpu = time.perf_counter(), cpu_seconds() - cpu0
    out.wall = out.end - out.start
    return out


def run_probe() -> tuple[int, int]:
    """Queries with a 31-digit prime factor, each in its own worker: an exact
    answer or gpspec's UnknownResultError refusal passes; anything else,
    including a missed deadline, is a miss.  Returns (missed, attempted)."""
    missed = 0
    probes = workloads.probe_ops()
    for op in probes:
        worker = Worker(False)
        reply = worker.ask(query_request(op), PROBE_DEADLINE_S)
        if reply is None:
            worker.kill()
            missed += 1
            continue
        worker.close()
        if reply["answer"] not in (op["expect"], "UnknownResultError"):
            missed += 1
    return missed, len(probes)


# -- set-up ----------------------------------------------------------------


def setup_command(workload: str, ops) -> list[str]:
    if workload == "pointwise":
        path = workloads.WORK / "setup_queries.jsonl"
        lines = "".join(json.dumps(query_request(op)) + "\n" for op in ops)
        path.write_text(lines, encoding="utf-8")
        return [sys.executable, str(HERE / "worker.py"), "--setup", str(path)]
    return [sys.executable, str(HERE / "launch.py"), "--setup", *workloads.setup_files()]


def setup_times(cmd, repeats: int, speed=None) -> list[tuple[float, float]]:
    """(start, wall time) of a fresh interpreter importing gpspec and
    reading the workload's inputs, each sample between two calibrations."""
    times = []
    for _ in range(repeats):
        if speed:
            speed.tick(force=True)
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError("set-up failed: " + proc.stderr.decode(errors="replace")[-400:])
        times.append((start, time.perf_counter() - start))
    return times


# -- metrics ---------------------------------------------------------------


def tail(latencies) -> float:
    """Latency at the highest percentile with TAIL_BEYOND operations beyond
    it: the (TAIL_BEYOND + 1)-th largest."""
    ordered = sorted(latencies, reverse=True)
    return ordered[min(TAIL_BEYOND, len(ordered) - 1)]


def end_to_end(passes, setups, speed, units) -> tuple[dict, list[str]]:
    """Every timing is scaled to the reference speed by the calibrations
    around it; each metric is then a median.  `wall_s` and `cpu_s` are the
    medians over the passes; the latency metrics are taken over each
    operation's median latency across the passes; `setup_s` is the median
    of its samples.  (The fastest pass or latency, as timeit keeps, is the
    wrong pick once timings are scaled: it selects the calibrations that
    erred low.)"""
    walls, cpus, slowdowns = [], [], []
    for p in passes:
        scaled, measured = speed.scaled(p.start, p.end)
        walls.append(scaled)
        cpus.append((p.cpu - speed.cpu_within(p.start, p.end)) * scaled / measured)
        slowdowns.append(measured / scaled)
    typical = [
        statistics.median(p.latencies[j] * speed.factor(p.stamps[j]) for p in passes)
        for j in range(len(passes[0].latencies))
    ]
    setup = statistics.median(secs * speed.factor(t) for t, secs in setups)
    values = {
        "setup_s": setup,
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "op_p50_s": statistics.median(typical),
        "op_tail_s": tail(typical),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    n = len(typical)
    notes = [
        f"passes: {len(passes)}, operations per pass: {n}, "
        f"pass walls as measured: {', '.join(f'{p.wall:.3f}' for p in passes)} s",
        f"measured over scaled wall time per pass: "
        f"{', '.join(f'{x:.3f}' for x in slowdowns)}",
        f"op_tail_s is the p{100 * (1 - TAIL_BEYOND / n):.1f} of the operations' median "
        f"latencies ({TAIL_BEYOND} of {n} operations beyond it)",
    ]
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}, notes


def per_layer(stats: dict, extra: dict, units: dict) -> dict:
    """Each per-layer metric named in BENCHMARK.json, from the merged spans."""
    calls, counts = stats.get("calls", {}), stats.get("counts", {})
    out = {}
    for name, unit in units.items():
        prefix, _, stat = name.rpartition(".")
        if name in extra:
            value = extra[name]
        elif stat == "calls":
            value = calls.get(prefix, 0)
        elif stat in ("self_s", "total_s"):
            value = stats.get(stat, {}).get(prefix, 0.0)
        elif stat == "hit_ratio":
            n = calls.get(prefix, 0)
            value = counts.get(f"{prefix}.hits", 0) / n if n else 0.0
        else:
            value = counts.get(name, 0)
        out[name] = {"value": value, "unit": unit}
    return out


# -- runs ------------------------------------------------------------------


def operations(workload: str, seed: int):
    if workload == "cli-corpus":
        return workloads.cli_corpus_ops(seed), cli_pass
    return workloads.pointwise_ops(seed), pointwise_pass


def check_checkout() -> None:
    for rel in ("src/gpspec/cli.py", "models", "BENCHMARK.json"):
        if not (ROOT / rel).exists():
            raise BenchError(f"{rel} not found under {ROOT}: run from a gpspec checkout")


def traced_run(workload, ops, refs, run_pass, hard_stop, names):
    """One untraced and one traced pass; the per-layer metrics."""
    plain = run_pass(ops, refs, hard_stop)
    traced = run_pass(ops, refs, hard_stop, traced=True)
    extra = {"bench.trace_overhead_s": traced.wall - plain.wall}
    if workload == "pointwise":
        extra["bench.bigprime_probe_missed"] = run_probe()[0]
    agree = plain.answers == traced.answers
    notes = [f"traced and untraced answers identical: {agree}"]
    if traced.stats.get("missing"):
        notes.append("layers not found: " + ", ".join(traced.stats["missing"]))
    return [plain, traced], per_layer(traced.stats, extra, names), agree, notes


def measured_run(workload, ops, refs, run_pass, hard_stop, seconds, names):
    """A fixed number of whole passes for about `seconds`, with set-up
    sampled in every gap around them; the end-to-end metrics."""
    cmd = setup_command(workload, ops)
    setup_times(cmd, 1)  # warm-up: compiles bytecode, fills the page cache
    n_passes = max(1, round(seconds / PASS_SECONDS[workload]))
    per_gap = -(-SETUP_SAMPLES // (n_passes + 1))
    speed = Speed()
    setups = setup_times(cmd, per_gap, speed)
    passes = []
    for _ in range(n_passes):
        passes.append(run_pass(ops, refs, hard_stop, speed=speed))
        setups += setup_times(cmd, per_gap, speed)
    speed.tick(force=True)
    metrics, notes = end_to_end(passes, setups, speed, names)
    if workload == "pointwise":
        missed, tried = run_probe()
        notes.append(
            f"known defect probe: {missed} of {tried} queries with a 31-digit prime "
            f"factor missed the {PROBE_DEADLINE_S} s deadline or answered wrongly"
        )
    return passes, metrics, notes


def benchmark(workload, seed, seconds, trace) -> tuple[dict, list[str]]:
    hard_stop = time.perf_counter() + HARD_STOP_S
    check_checkout()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    refs = load_references()
    workloads.write_inputs()
    ops, run_pass = operations(workload, seed)
    refs = {op["key"]: require_reference(refs, op) for op in ops}
    notes = [f"workload {workload}, seed {seed}, trace {trace}"]
    if trace:
        names = {m["name"]: m["unit"] for m in spec["per_layer"]}
        passes, metrics, agree, more = traced_run(workload, ops, refs, run_pass, hard_stop, names)
    else:
        names = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        passes, metrics, more = measured_run(
            workload, ops, refs, run_pass, hard_stop, seconds, names
        )
        agree = True
    notes += more

    attempted = sum(len(p.latencies) for p in passes)
    failures = [f for p in passes for f in p.failures]
    notes.append(f"failed_frac: {len(failures) / attempted:.6f} ratio "
                 f"({len(failures)} of {attempted} operations)")
    notes += [f"failed: {f}" for f in failures[:20]]
    for name, m in metrics.items():
        notes.append(f"{name}: {m['value']:.6g} {m['unit']}")
    result = {
        "correct": not failures and agree,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return result, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result, notes = benchmark(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in notes:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
