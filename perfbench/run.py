"""Benchmark of the aql library and CLI.

    python3 perfbench/run.py --workload {lift,atlas,cli} --seed N --seconds S --trace {0,1} [--smoke]

Run from the root of a source checkout; the library is imported from its
``src`` directory.  With ``--trace 0`` the run measures the end-to-end
metrics of BENCHMARK.json for S seconds; times and rates are given in
reference seconds, which take the host's momentary slowdown out (see
hostspeed.py).  So is ``setup_s``, although its unit reads ``s``; the
wall-clock set-up times are in the record line.  With ``--trace 1`` it runs a fixed amount of the
workload's work once untraced and once traced and reports the per-layer
metrics in wall-clock seconds.  ``--smoke`` shrinks every input to a few
items so the harness itself can be checked in seconds.

The last line of standard output is the result: a JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The line
before it, starting with ``record``, describes the run: commit, source
hash and line count, Python, CPUs, seed, item counts and failures.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 7
SETUP_REFERENCE_LOOPS = 5


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("lift", "atlas", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_probe(args) -> tuple:
    """Import aql and build the workload's inputs in this fresh process.
    Returns the wall-clock seconds and the host's slowdown around them,
    from reference loops run just before and after."""
    import hostspeed

    loops = []

    def reference_loops():
        loops.extend(hostspeed.timed_reference_work() for _ in range(SETUP_REFERENCE_LOOPS))

    reference_loops()
    t0 = time.perf_counter()
    workloads = importlib.import_module("workloads")
    workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    elapsed = time.perf_counter() - t0
    reference_loops()
    return elapsed, statistics.fmean(loops) * 1e3 / hostspeed.REFERENCE_MS


def setup_seconds(args) -> list:
    """Set-up time in reference seconds of SETUP_PROBES fresh processes,
    one after another, each as (reference seconds, wall seconds)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        elapsed, slowdown = json.loads(proc.stdout.splitlines()[-1])
        samples.append((elapsed / slowdown, elapsed))
    return samples


def nearest_rank(sorted_values: list, p: float) -> float:
    return sorted_values[max(0, -(-len(sorted_values) * p // 100) - 1)]


def tail(values: list):
    """The highest of p99 and p90 with at least ten samples beyond it; the
    maximum when neither has.  Returns (value, label, samples beyond)."""
    ordered = sorted(values)
    for p in (99, 90):
        v = nearest_rank(ordered, p)
        beyond = sum(1 for x in ordered if x > v)
        if beyond >= 10:
            return v, f"p{p}", beyond
    return ordered[-1], "max", 0


def commit() -> str:
    """The checked-out commit, when the checkout is a git work tree."""
    if not (ROOT / ".git").exists():
        return "unknown"
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_record() -> dict:
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((SRC / "aql").glob("*.py")):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_sha256": digest.hexdigest(), "src_lines": lines}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "aql" / "__init__.py").is_file():
        sys.stderr.write(f"error: no aql sources under {SRC}; run from a source checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    # The work must not depend on the caller's environment.
    os.environ.pop("AQL_BOUND", None)
    if args.setup_probe:
        print(json.dumps(setup_probe(args)))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup = [] if args.trace else setup_seconds(args)
    workloads = importlib.import_module("workloads")
    import aql
    import tracing

    if Path(aql.__file__).resolve().parent != SRC / "aql":
        sys.stderr.write(f"error: imported aql from {aql.__file__}, not {SRC}\n")
        return 2
    tracer = tracing.Tracer() if args.trace else None
    # Building the inputs is traced too, as item -1.
    with tracer.active() if tracer else contextlib.nullcontext():
        workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "commit": commit(),
        **source_record(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
    }

    if tracer is not None:
        out = workload.trace(tracer)
        layers = out.layers
        kept = layers.get("partitions.enumerate_compatible.kept", 0)
        candidates = layers.get("partitions.is_compatible.calls", 0)
        layers["partitions.enumerate_compatible.yield_ratio"] = kept / candidates if candidates else 0.0
        spans_path = workloads.OUT / f"{args.workload}.spans.tsv"
        tracer.write(spans_path)
        record.update(spans=str(spans_path.relative_to(ROOT)), spans_count=len(tracer.spans),
                      trace_overhead_ratio=layers["trace.overhead_ratio"],
                      not_found=tracer.missing)
        wanted = spec["per_layer"]
        unknown = [m["name"] for m in wanted if m["name"] not in layers]
        if unknown:
            record["reported_as_zero"] = unknown
        metrics = {m["name"]: {"value": layers.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    else:
        out = workload.measure(args.seconds)
        # rates and latencies are in reference seconds, see hostspeed.py
        values = {
            "setup_s": statistics.median(ref for ref, _ in setup),
            "items_per_s": out.rate,
            "item_p50_ms": statistics.median(out.latencies_ms),
            "peak_rss_mb": out.peak_rss_kb * 1024 / 1e6,
        }
        values["item_tail_ms"], label, beyond = tail(out.latencies_ms)
        record.update(setup_wall_clock_s=[wall for _, wall in setup],
                      tail_percentile=label, tail_beyond=beyond,
                      latency_samples=len(out.latencies_ms), host_slowdown=out.slowdown)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    record.update(out.notes, items=out.items, attempted=out.attempted, failed=out.failed,
                  failed_ratio=out.failed / out.attempted if out.attempted else 1.0,
                  errors=out.errors)
    print("record " + json.dumps(record))
    summary = [f"{name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    summary.append(f"failed_ratio {record['failed_ratio']:.6g} ({out.failed}/{out.attempted})")
    sys.stderr.write(f"{args.workload}: " + ", ".join(summary) + "\n")
    result = {
        "correct": out.failed == 0 and out.attempted > 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
