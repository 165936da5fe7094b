#!/usr/bin/env python3
"""idak benchmark: one closed-loop workload per run, end to end or traced.

    python3 bench/run.py --workload sessions-k128 --seed 1 --seconds 20 --trace 0

With --trace 0 the run sets the workload up and runs its fixed operation
sequence REPEATS times, untraced, and prints the end-to-end metrics.  With
--trace 1 it times the layer probes, runs the sequence once untraced and
once traced, and prints the per-layer metrics, the modeled-versus-traced
cost table and the tracing overhead.

--seconds sizes the fixed sequence: it holds `seconds * rate / REPEATS`
operations, where a workload's rate is about what the baseline completed per
second on a 2-core x86-64 machine, so an end-to-end run takes about
--seconds there.  A faster commit finishes the same sequence sooner.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 only when every
correctness check passed.  The benchmark uses the package under src/ of the
checkout it sits in, writes its temporary files under .bench_work/ and its
span dumps under .bench_out/, both at the checkout root.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("sessions-k128", "amplify-k16", "world-k16", "cli-k32")
REPEATS = 5
SETUPS_PER_REPEAT = 3

# (metric name, unit), in the order BENCHMARK.json lists them.
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)

# What one operation is on each workload, and the name each end-to-end
# metric goes by there.
OPERATION_NAMES = {
    "sessions-k128": ("sessions_per_s", "session_ms_p50", "session_ms_p90"),
    "amplify-k16": ("instances_per_s", "instance_ms_p50", "instance_ms_p90"),
    "world-k16": ("queries_per_s", "query_ms_p50", "query_ms_p90"),
    "cli-k32": ("exchanges_per_s", "exchange_ms_p50", "exchange_ms_p90"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="sizes the fixed operation sequence")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def percentile(values, share):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


def git_commit():
    """The checkout's commit read from .git, without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def run_pass(workload, seed, count, tracer=None, state=None):
    """Plan and run the fixed sequence once; returns the loop and nominal times."""
    from workloads import Loop

    state = workload.build(seed) if state is None else state
    steps = workload.plan(state, seed, count)
    loop = Loop(tracer)
    if tracer is not None:
        tracer.install()
    try:
        notes = workload.run(state, steps, loop)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return loop, loop.nominal_times(), notes


def end_to_end(workload, args, count, record):
    """Set up and run the sequence REPEATS times; keep each operation's median.

    Times are nominal (see speed.py).  The sequence is deterministic, so an
    operation does the same work in every repetition, and the median over
    repetitions leaves out what normalising missed.  Set-up is timed
    SETUPS_PER_REPEAT times before each repetition, spreading its samples
    over the run.
    """
    from speed import SpeedMeter

    meter, setups, passes = SpeedMeter(), [], []
    for _ in range(REPEATS):
        state = None
        gc.collect()  # the previous repetition's state must not count in peak RSS
        for _ in range(SETUPS_PER_REPEAT):
            meter.sample()
            start = time.perf_counter()
            state = workload.build(args.seed)
            end = time.perf_counter()
            meter.sample()
            setups.append((end - start) * meter.scale(start, end))
        passes.append(run_pass(workload, args.seed, count, state=state)[:2])
    if len({len(times) for _, times in passes}) != 1:
        raise RuntimeError("repetitions of one fixed sequence ran different operation counts")
    op_ms = [statistics.median(times) * 1000 for times in zip(*(t for _, t in passes))]
    metrics = {
        "ops_per_s": len(op_ms) * 1000 / sum(op_ms),
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_p90": percentile(op_ms, 0.9),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": peak_rss_mib(),
    }
    raw_ms = [(end - begin) * 1000 for begin, end in passes[0][0].intervals]
    record["samples"] = {
        "operations": len(op_ms), "repeats": REPEATS,
        "op_ms_p90_beyond": len(op_ms) - math.ceil(len(op_ms) * 0.9),
        "setup_s": len(setups),
    }
    record["raw_first_repeat"] = {
        "op_ms_p50": statistics.median(raw_ms), "ops_per_s": len(raw_ms) * 1000 / sum(raw_ms),
    }
    names = dict(zip(("ops_per_s", "op_ms_p50", "op_ms_p90"), OPERATION_NAMES[args.workload]))
    for name, unit in END_TO_END:
        print(f"{args.workload}  {names.get(name, name):<16} {metrics[name]:12.4f} {unit}"
              f"  ({name})")
    return [loop for loop, _ in passes], metrics


def traced(workload, args, count, record):
    import layers
    import probes
    from tracer import SpanIndex, Tracer

    probe_metrics = probes.run(args.seed)
    plain, plain_times, _ = run_pass(workload, args.seed, count)
    tracer = Tracer()
    loop, traced_times, notes = run_pass(workload, args.seed, count, tracer)
    index = SpanIndex(tracer.spans, loop.meter.scale)
    plain_s, traced_s = sum(plain_times), sum(traced_times)

    metrics = layers.per_layer(index, tracer, notes)
    metrics["failed_ratio"] = (plain.failed + loop.failed) / (plain.attempted + loop.attempted)
    metrics["trace.overhead_ratio"] = (traced_s - plain_s) / plain_s
    metrics.update(probe_metrics)

    for line in layers.format_cost_table(layers.cost_table(index, tracer)):
        print(line)
    useful, rounds = layers.vote_counts(index)
    print(f"selfreduction.vote_useful_ratio base: {useful}/{rounds} rounds")
    for fn, feeds in probes.FEEDS.items():
        values = "  ".join(f"k{k}={metrics[f'probe.{fn}.k{k}.us_p50']:.1f}us" for k in probes.KS)
        print(f"probe {fn:<16} {values}  feeds: {feeds}")
    for name, unit in layers.PER_LAYER:
        if not name.startswith("probe."):
            print(f"{args.workload}  {name:<40} {metrics[name]:14.4f} {unit}")
    record["tracing_overhead"] = {
        "untraced_nominal_s": plain_s, "traced_nominal_s": traced_s,
        "traced_minus_untraced_s": traced_s - plain_s, "spans": len(tracer.spans),
    }
    derive_samples = {label: sum(1 for s in index.by_name("protocol.derive") if s[6][0] == label)
                      for label in layers.STRATEGY_LABELS}
    record["samples"] = {f"protocol.derive.{k}.ms_p50": v for k, v in derive_samples.items()}
    record["samples"]["probe.*.us_p50"] = probes.REPS
    dump = ROOT / ".bench_out" / f"spans-{args.workload}.csv.gz"
    tracer.write(str(dump))
    record["spans_file"] = str(dump.relative_to(ROOT))
    return [plain, loop], metrics


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "idak" / "__init__.py").is_file():
        print(f"error: no idak package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import idak

    if Path(idak.__file__).resolve().parent != SRC / "idak":
        print(f"error: imported idak from {idak.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    work_dir = ROOT / ".bench_work" / str(os.getpid())
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.make(args.workload, work_dir)
        count = max(1, round(args.seconds * workload.rate / REPEATS))
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "operation": workload.op, "operations": count,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu_model(), "commit": git_commit(),
        }
        if args.trace:
            import layers

            listed = layers.PER_LAYER
            loops, metrics = traced(workload, args, count, record)
        else:
            listed = END_TO_END
            loops, metrics = end_to_end(workload, args, count, record)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    print(f"{args.workload}  failed_ratio = {failed}/{attempted} = {failed / attempted:.6f}")
    for loop in loops:
        for failure in loop.failures:
            print(f"check failed: {failure}")
    print("run-record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in listed},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
