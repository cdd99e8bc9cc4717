"""moduli-atlas benchmark: end-to-end and per-layer figures for three workloads.

    python3 bench/run.py --workload query_mix --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the package from `src/` there
and fails (exit 2) when that is missing.  Workloads, metrics and the layer
predictions are described in bench/DESIGN.md.

The program is driven in-process through `moduli_atlas.cli.main(argv)` with
stdout captured, one op at a time on one thread (a closed loop).  A run
repeats whole passes over the seeded plan until `--seconds` have elapsed, then
re-runs every op once to check its output against the oracle; a timed op
fails on an exception, a nonzero exit code, output that differs from the
checked run, or a failed check.

The timing metrics use each op's fastest times over the run's passes: its
best time for the throughputs and the median, its few best times for the
tail (see tail_k).  On a shared host whose speed drifts over seconds to
minutes this keeps the figures steady; bench/DESIGN.md has the measurements
behind that choice.

`--trace 0` prints the end-to-end metrics.  `--trace 1` instead runs one
untraced and two traced passes and prints the per-layer metrics; the exact
counts of the two traced passes must agree.  The last stdout line is the JSON
result; details go to `.bench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"
SETUP_SAMPLES = 16  # set-up probes per run, spread over the timed phase
SETUP_BLOCKS = 4  # setup_s: median of the best probe of each of this many interleaved blocks
TAIL_BEYOND = 10  # op_ms_tail: highest percentile with at least this many samples beyond it
TAIL_SAMPLES = 96  # op_ms_tail: each op's fastest times, as many per op as make this many samples,
TAIL_K_MAX = 4  # but at most this many per op; also the fewest passes a run makes
CONFIG_ENV = "MODULI_ATLAS_CONFIG"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_units(root: str, section: str) -> dict[str, str]:
    """Name -> unit of the metrics one section of BENCHMARK.json declares."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


class SetupProbes:
    """Set-up samples, each from a fresh interpreter (see probe.py)."""

    def __init__(self, src: str, work: str, workload: str, seed: int) -> None:
        self.argv = [sys.executable, os.path.join(BENCH_DIR, "probe.py"), src, workload, str(seed)]
        self.work = work
        self.env = {k: v for k, v in os.environ.items() if k not in (CONFIG_ENV, "PYTHONPATH")}
        self.samples: list[dict] = []

    def run(self) -> None:
        cwd = os.path.join(self.work, f"probe-{len(self.samples)}")
        os.mkdir(cwd)
        proc = subprocess.run(self.argv, cwd=cwd, env=self.env, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        self.samples.append(json.loads(proc.stdout))

    def fill(self) -> None:
        while len(self.samples) < SETUP_SAMPLES:
            self.run()

    def due(self, elapsed: float, seconds: float) -> bool:
        """Whether the next probe is due, with the probes spread evenly over `seconds`."""
        return len(self.samples) < SETUP_SAMPLES and elapsed >= len(self.samples) * seconds / SETUP_SAMPLES

    def setup_s(self) -> float:
        """Median of the best set-up time in each block; block b holds probes
        b, b + SETUP_BLOCKS, b + 2 * SETUP_BLOCKS, ..."""
        totals = [s["import_s"] + s["generate_s"] + s["warmup_s"] for s in self.samples]
        return statistics.median(min(totals[b::SETUP_BLOCKS]) for b in range(SETUP_BLOCKS))


def execute(op) -> tuple:
    """Run one op; return (exit code or None, stdout, stderr, error)."""
    try:
        code, out, err = workloads.run_op(op.argv)
    except Exception as exc:  # an op that raises counts as failed, the run goes on
        return None, "", "", repr(exc)
    return code, out, err, None


def written_files(op) -> dict[str, bytes]:
    """The file an op wrote with --out, if any."""
    if op.out is None or not os.path.exists(op.out):
        return {}
    with open(op.out, "rb") as handle:
        return {op.out: handle.read()}


def output_bytes(out: str, files: dict) -> bytes:
    return out.encode("utf-8") + b"".join(files[k] for k in sorted(files))


def digest(code, out, err, error, files) -> str:
    h = hashlib.sha256(repr((code, err, error)).encode("utf-8"))
    h.update(output_bytes(out, files))
    return h.hexdigest()


class Pass:
    """Latencies and output digests of ops run in a timed loop."""

    def __init__(self) -> None:
        self.latency_ns: list[int] = []
        self.op_index: list[int] = []
        self.digests: list[str] = []

    def run(self, plan) -> int:
        """One pass over the plan; returns its busy time in ns."""
        busy = 0
        clock = time.perf_counter_ns
        for i, op in enumerate(plan):
            t0 = clock()
            result = execute(op)
            elapsed = clock() - t0
            busy += elapsed
            self.latency_ns.append(elapsed)
            self.op_index.append(i)
            self.digests.append(digest(*result, written_files(op)))
        return busy


def verify_plan(plan) -> tuple[list[int], list[list[str]], list[str], str]:
    """Run and check every op once: items, problems, digest per op, and the
    sha256 of the workload's output bytes in plan order."""
    import checks

    items, problems, digests = [], [], []
    whole = hashlib.sha256()
    for op in plan:
        code, out, err, error = execute(op)
        files = written_files(op)
        if error is not None:
            count, found = 0, [f"exception: {error}"]
        else:
            count, found = checks.check_op(op, code, out, err, files)
        items.append(count)
        problems.append(found)
        digests.append(digest(code, out, err, error, files))
        whole.update(output_bytes(out, files))
    return items, problems, digests, whole.hexdigest()


def failures(timed: Pass, problems, digests) -> list[int]:
    """Indices of the timed ops that failed."""
    return [
        k for k, (i, d) in enumerate(zip(timed.op_index, timed.digests))
        if problems[i] or d != digests[i]
    ]


def tail_k(ops: int) -> int:
    """How many of each op's fastest times op_ms_tail draws on.  Fewer are
    steadier, since a slow spell of the host must then hit every pass."""
    return min(TAIL_K_MAX, -(-TAIL_SAMPLES // ops))


def fastest(latency_ns: list[int], ops: int, k: int) -> list[list[int]]:
    """The k fastest times of each op of the plan, over all passes."""
    return [sorted(latency_ns[i::ops])[:k] for i in range(ops)]


def tail(latency_ms: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latency_ms)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def metric_block(values: dict, units: dict) -> dict:
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


@contextlib.contextmanager
def cpu_turns():
    """Yields a function that pins the process to its allowed CPUs in turn, one
    per call; all of them are allowed again on exit.  A shared host slows its
    CPUs independently of each other, so passes that take turns find a fast
    one more often than passes left wherever the scheduler put them."""
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    turn = itertools.count()

    def next_cpu() -> None:
        if cpus:
            os.sched_setaffinity(0, {cpus[next(turn) % len(cpus)]})

    try:
        yield next_cpu
    finally:
        if cpus:
            os.sched_setaffinity(0, cpus)


def end_to_end(args, plan, probes) -> tuple[dict, dict]:
    timed = Pass()
    started = time.perf_counter()
    busy = 0
    passes = 0
    with cpu_turns() as next_cpu:
        while passes < TAIL_K_MAX or time.perf_counter() - started < args.seconds:
            next_cpu()
            busy += timed.run(plan)
            passes += 1
            # set-up probes run between passes, outside the op clocks, so that
            # they sample the host's speed over the whole timed phase
            while probes.due(time.perf_counter() - started, args.seconds):
                probes.run()
    probes.fill()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    items, problems, digests, sha = verify_plan(plan)
    failed = failures(timed, problems, digests)

    best = fastest(timed.latency_ns, len(plan), tail_k(len(plan)))
    best_ms = [times[0] / 1e6 for times in best]
    tail_ms, tail_pct = tail([ns / 1e6 for times in best for ns in times])
    best_seconds = sum(best_ms) / 1e3
    values = {
        "setup_s": probes.setup_s(),
        "ops_per_s": len(plan) / best_seconds,
        "items_per_s": sum(items) / best_seconds,
        "op_ms_p50": statistics.median(best_ms),
        "op_ms_tail": tail_ms,
        "peak_rss_mb": peak_rss_mb,
        "error_rate": len(failed) / len(timed.latency_ns),
    }
    details = {
        "passes": passes,
        "ops_per_pass": len(plan),
        "attempted": len(timed.latency_ns),
        "failed": len(failed),
        "tail_samples": len(plan) * tail_k(len(plan)),
        "op_ms_tail_percentile": tail_pct,
        # the plain timed-phase rate, every op counted, for comparison with ops_per_s
        "all_ops_per_s": len(timed.latency_ns) / (busy / 1e9),
        "output_sha256": sha,
        "problems": _problem_list(plan, problems),
    }
    return values, details


def per_layer(args, plan, probes) -> tuple[dict, dict]:
    import tracing

    probes.fill()

    untraced = Pass()
    untraced_ns = untraced.run(plan)
    tracers, traced_ns = [], []
    traced = Pass()
    for _ in range(2):
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            traced_ns.append(traced.run(plan))
        tracers.append(tracer)
    items, problems, digests, sha = verify_plan(plan)
    failed = failures(untraced, problems, digests) + failures(traced, problems, digests)

    first, second = (tracing.layer_metrics(t) for t in tracers)
    drift = {name: (first[name], second[name]) for name in first
             if tracing.is_count(name) and first[name] != second[name]}
    values = dict(first)
    values["cli.import_ms"] = statistics.median(s["import_s"] for s in probes.samples) * 1e3
    values["trace.overhead_ratio"] = traced_ns[0] / untraced_ns
    spans_path = os.path.join(args.out_dir, f"spans-{args.workload}-seed{args.seed}.tsv")
    tracers[0].write(spans_path)
    details = {
        "attempted": len(untraced.latency_ns) + len(traced.latency_ns),
        "failed": len(failed),
        "count_drift": drift,
        "spans_file": spans_path,
        "spans": len(tracers[0].start),
        "output_sha256": sha,
        "problems": _problem_list(plan, problems),
    }
    return values, details


def _problem_list(plan, problems) -> list[str]:
    return [f"{' '.join(op.argv)}: {p}" for op, found in zip(plan, problems) for p in found]


def summarize(args, plan, details, units, values) -> None:
    mix = workloads.mix_summary(plan)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{mix['ops']} ops per pass: "
          + ", ".join(f"{k} {v}" for k, v in mix["by_command"].items()))
    for name, unit in units.items():
        note = ""
        if name == "op_ms_tail":
            k = tail_k(details["ops_per_pass"])
            each = "each op's best time" if k == 1 else f"each op's {k} best times"
            note = (f"  (p{details['op_ms_tail_percentile']:.2f}, {TAIL_BEYOND} of "
                    f"{details['tail_samples']} samples beyond; samples: {each})")
        elif name == "error_rate":
            note = f"  ({details['failed']} failed of {details['attempted']} attempted)"
        value = values[name]
        shown = f"{value:>14}" if isinstance(value, int) else f"{value:>14.6g}"
        print(f"  {name:<40} {shown} {unit}{note}")
    print(f"  output sha256 {details['output_sha256']}")
    for line in details["problems"][:20]:
        print(f"  FAILED {line}", file=sys.stderr)
    for name, (a, b) in sorted(details.get("count_drift", {}).items()):
        print(f"  COUNT DRIFT {name}: {a} then {b} on the same seed", file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "moduli_atlas", "cli.py")):
        print("error: src/moduli_atlas not found; run from the root of a moduli-atlas checkout",
              file=sys.stderr)
        return 2
    os.environ.pop(CONFIG_ENV, None)
    sys.path.insert(0, src)
    import moduli_atlas.cli

    if not moduli_atlas.cli.__file__.startswith(src + os.sep):
        print(f"error: imported moduli_atlas from {moduli_atlas.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    units = declared_units(root, "per_layer" if args.trace else "end_to_end")
    args.out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(args.out_dir, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.out_dir)
    try:
        probes = SetupProbes(src, work, args.workload, args.seed)
        plan = workloads.make_plan(args.workload, args.seed)
        os.chdir(work)  # ops write their --out files here
        code, _, err, error = execute(workloads.Op("warmup", workloads.WARMUP[args.workload], (), ()))
        measure = per_layer if args.trace else end_to_end
        values, details = measure(args, plan, probes)
        codes = {s["warmup_code"] for s in probes.samples} | {code}
        if codes != {0}:
            details["problems"].append(f"warm-up op exited with {sorted(codes, key=str)}: {error or err.strip()}")
    finally:
        os.chdir(root)
        shutil.rmtree(work, ignore_errors=True)

    # error_rate is a ratio that is 0 on a correct program, so it is printed
    # here and carried by "failed" / "attempted" rather than declared
    shown = dict(units)
    if not args.trace:
        shown["error_rate"] = "ratio"
    summarize(args, plan, details, shown, values)
    correct = details["failed"] == 0 and not details["problems"] and not details.get("count_drift")
    result = {
        "correct": correct,
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": metric_block(values, units),
    }
    with open(os.path.join(args.out_dir, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump({"args": vars(args), "mix": workloads.mix_summary(plan), "setup": probes.samples,
                   "values": values, **details, "result": result}, handle, indent=2, sort_keys=True)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
