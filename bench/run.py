"""The orbitsieve benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
src/ directory. Every pass over the workload runs in a process of its own
(passes.py), so that peak RSS is that pass's own.

--trace 0 starts passes until S seconds have gone, at least one, and reports
the end-to-end metrics: medians over passes, latency percentiles over every
op of every pass. op_tail_ms is the highest of p99, p95, p90 and p75 that
leaves at least ten ops of one pass beyond it (p99 on survey), or the median
when a pass has too few ops for any of them. The first pass also checks every result independently
(checks.py); later passes must reproduce its outputs byte for byte.

--trace 1 runs one checked untraced pass, one traced pass and the memory
probe, and reports the per-layer metrics. The tracing overhead is the traced
solve_s minus the untraced one.

The metric names and units are read from BENCHMARK.json. The last line of
standard output is {"correct", "attempted", "failed", "metrics"}; the line
before it holds the run's metadata, which is also written, with the traced
pass's spans, under .bench_results/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = ROOT / ".bench_results"

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402

# Set-up time is the median of at least this many processes' set-up.
SETUP_SAMPLES = 5
# A run must end within 180 s; no pass may run past this many seconds.
RUN_LIMIT_S = 170
STARTED = time.monotonic()


class BenchError(RuntimeError):
    pass


def child(workload: str, seed: int, mode: str, *extra: str) -> dict:
    cmd = [
        sys.executable, str(BENCH / "passes.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode, *extra,
    ]
    left = RUN_LIMIT_S - (time.monotonic() - STARTED)
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(left, 0.001)
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"the run would take longer than {RUN_LIMIT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"{mode} pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# Candidate percentiles for op_tail_ms, highest first.
TAIL_PERCENTILES = (99, 95, 90, 75)


def tail_percentile(ops_per_pass: int) -> int:
    """The highest candidate percentile with ten ops of a pass beyond it, else 50."""
    return next(
        (q for q in TAIL_PERCENTILES if ops_per_pass * (100 - q) >= 1000), 50
    )


def _quantile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _failures(passes: list[dict]) -> dict[tuple[int, int], str]:
    """(pass, op) -> reason, for failed ops and outputs that differ from pass 0."""
    out = {}
    first = passes[0]["digests"]
    for n, p in enumerate(passes):
        for i, (a, b) in enumerate(zip(p["digests"], first)):
            if a != b:
                out[n, i] = "output differs from pass 0"
        for i, reason in p["failures"]:
            out[n, i] = reason
    return out


def _setup_samples(workload: str, seed: int, passes: list[dict]) -> list[float]:
    samples = [p["setup_s"] for p in passes if "setup_s" in p]
    while len(samples) < SETUP_SAMPLES:
        samples.append(child(workload, seed, "setup")["setup_s"])
    return samples


def end_to_end(workload: str, seed: int, seconds: int) -> tuple[dict, dict, list[dict]]:
    start = time.monotonic()
    passes = [child(workload, seed, "timed", "--check")]
    while time.monotonic() - start < seconds:
        passes.append(child(workload, seed, "timed"))
    ops = [t for p in passes for t in p["op_ms"]]
    tail = tail_percentile(passes[0]["attempted"])
    metrics = {
        "solve_s": statistics.median(p["solve_s"] for p in passes),
        "verify_s": statistics.median(p["verify_s"] for p in passes),
        "op_p50_ms": _quantile(ops, 50),
        "op_tail_ms": _quantile(ops, tail),
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
        "setup_s": statistics.median(_setup_samples(workload, seed, passes)),
    }
    meta = {
        "passes": len(passes),
        "pass_solve_s": [p["solve_s"] for p in passes],
        "pass_raw_solve_s": [p["raw_solve_s"] for p in passes],
        "pass_speed_factor": [p["speed_factor"] for p in passes],
        "pass_verify_s": [p["verify_s"] for p in passes],
        "op_samples": len(ops),
        "op_tail_percentile": tail,
    }
    return metrics, meta, passes


def per_layer(workload: str, seed: int) -> tuple[dict, dict, list[dict]]:
    RESULTS.mkdir(exist_ok=True)
    spans = RESULTS / f"{workload}-seed{seed}-spans.jsonl.gz"
    plain = child(workload, seed, "timed", "--check")
    traced = child(workload, seed, "traced", "--spans", str(spans))
    probe = child(workload, seed, "probe")
    metrics = dict(traced["layers"], **{"orbit.bytes_per_step": probe["bytes_per_step"]})
    meta = {
        "untraced_solve_s": plain["solve_s"],
        "traced_solve_s": traced["solve_s"],
        "trace_overhead_s": traced["solve_s"] - plain["solve_s"],
        "speed_factor": traced["speed_factor"],
        "spans_file": str(spans.relative_to(ROOT)),
    }
    # A leaked wrapper or a rejection under tracing fails the pass's first op.
    if not traced["restored"]:
        traced["failures"].append((0, "a traced name was not restored"))
    if not traced["verified"]:
        traced["failures"].append((0, "a result was rejected under tracing"))
    return metrics, meta, [plain, traced]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="orbitsieve benchmark")
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "orbitsieve" / "__init__.py").is_file() or not spec_path.is_file():
        print("run from the root of a source checkout: src/orbitsieve or BENCHMARK.json is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    try:
        if args.trace:
            values, meta, passes = per_layer(args.workload, args.seed)
        else:
            values, meta, passes = end_to_end(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"benchmark failed: no value for {missing}", file=sys.stderr)
        return 1

    failures = _failures(passes)
    attempted = sum(p["attempted"] for p in passes)
    meta.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        python=platform.python_version(),
        nproc=os.cpu_count(),
        budgets=workloads.budgets(args.workload),
        outcomes=passes[0]["outcomes"],
        decided_share=passes[0]["decided"] / passes[0]["attempted"],
        failed_share=len(failures) / attempted,
        failures=[f"pass {n} op {i}: {r}" for (n, i), r in sorted(failures.items())[:20]],
    )
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"meta": meta, "result": result}, indent=2) + "\n")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
