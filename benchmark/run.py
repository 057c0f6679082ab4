"""Benchmark of the rtwt-planner package.

Run from the repository root, which must hold the package sources in src/:

    python3 benchmark/run.py --workload optimize_grid --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py): cli_cold, optimize_grid, simulate_long.  The
seed makes the inputs; the planner sees only them.

--trace 0 times the workload untraced for --seconds and reports the
end-to-end metrics.  --trace 1 replays the same calls with a span around
every call into a layer and reports the per-layer metrics, span self
times, the tracing overhead and how a fresh CLI call splits into start-up,
import, `main` and teardown.  baseline.py measures the hot paths of the
seed commit once and pools the untraced records into its baseline.

The gated timings, setup_s among them, are scaled by a reference work timed
beside them (reference.py), because the speed of the benchmark machine's
cores drifts with its neighbours' load; the wall times are recorded beside
them.

Stdout gets a readable summary, then as its last line one JSON object with
the keys correct, attempted, failed and metrics.  The full record of the
run (environment, a SHA-256 of every output, tail percentiles, sample
counts, spans) goes to .bench_results/.  The exit code is 0 when the run
completed, whether or not every output check passed, and non-zero without
a result when there is no package to benchmark.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
import traceback

import harness
import layers
import reference
import workloads
from harness import RESULTS_DIR, WORK_DIR, Ledger

SETUP_SAMPLES = 5  # this process and four fresh interpreters
END_TO_END_UNITS = {"primary_s": "s", "secondary_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: time one set-up in this fresh interpreter and print it
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def timed_setup(workload: workloads.Workload) -> float:
    """Import the package and make the workload's first call."""
    start = time.perf_counter()
    workload.setup()
    return time.perf_counter() - start


def setup_in_child(args) -> float:
    proc = subprocess.run(
        [sys.executable, __file__, "--setup-probe", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds)],
        env=harness.child_env(), capture_output=True, text=True,
        timeout=layers.PROCESS_TIMEOUT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def run_untraced(workload, args, ledger: Ledger) -> dict:
    """Each set-up, mostly imports in a fresh interpreter, is scaled by the
    fresh-interpreter reference timed right after it, as the CLI calls are."""
    setups, references = [], []
    for index in range(SETUP_SAMPLES):
        setups.append(timed_setup(workload) if index == 0 else setup_in_child(args))
        references.append(reference.process_s())
    workload.measure(ledger, args.seconds)
    values = workload.end_to_end(ledger)
    values["setup_s"] = statistics.median(
        seconds * reference.PROCESS_S / ref for seconds, ref in zip(setups, references))
    values["peak_rss_mb"] = harness.peak_rss_mb(children=workload.rss_of_children)
    workload.final_checks(ledger)
    return {"values": values, "units": END_TO_END_UNITS, "setup_samples": setups,
            "setup_references": references}


def run_traced(workload, args, ledger: Ledger) -> dict:
    setup_s = timed_setup(workload)
    ctx = layers.TraceContext()
    workloads.trace_common(ctx, ledger, args.seed)
    workload.trace(ctx, ledger, args.seconds)
    workloads.fill_gaps(ctx, ledger, args.seed)
    values = ctx.layer_metrics()
    for name, value in values.items():
        if value is None:
            ledger.record(name, None, None, "no samples")
    spans_path = RESULTS_DIR / f"SPANS_{args.workload}_seed{args.seed}.json"
    spans_path.write_text(json.dumps(ctx.tracer.spans))
    return {
        "values": values,
        "units": dict(layers.PER_LAYER),
        "setup_samples": [setup_s],
        "self_times": ctx.self_times(),
        "cli_phases": {phase: statistics.median(v) for phase, v in ctx.cli_phases.items()},
        "spans_file": str(spans_path.relative_to(harness.ROOT)),
        "span_count": len(ctx.tracer.spans),
    }


def print_summary(workload, args, ledger, outcome, record) -> None:
    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"  why: {workload.why}")
    if not args.trace:
        print(f"  primary_s   = {workload.primary}")
        print(f"  secondary_s = {workload.secondary}")
        if workload.scale_by is not None:
            nominal, timer = workload.scale_by
            print(f"  both scaled by `reference.{timer.__name__}`, nominal {nominal} s")
    for name, value in outcome["values"].items():
        print(f"  {name:34s} {value!r} {outcome['units'][name]}")
    for name, info in record.get("named", {}).items():
        tail = "" if info["tail"] is None else f", p{info['tail_percentile']:g} {info['tail']:.6g}"
        print(f"  {name:34s} median {info['median']:.6g} {info['unit']}{tail}, "
              f"{info['samples']} samples")
    for name, value in outcome.get("self_times", {}).items():
        print(f"  self {name:29s} {value:.6g} s")
    for phase, value in outcome.get("cli_phases", {}).items():
        print(f"  cli phase {phase:24s} {value:.6g} s")
    print(f"  error_rate = {record['error_rate']!r} ({ledger.failed} of {ledger.attempted} failed)")
    for failure in ledger.failures[:20]:
        print(f"  FAILED {failure}")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        harness.use_checkout_sources()
    except harness.CheckoutError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        print(json.dumps({"setup_s": timed_setup(workload)}))
        return 0

    WORK_DIR.mkdir(exist_ok=True)
    RESULTS_DIR.mkdir(exist_ok=True)
    ledger = Ledger()
    try:
        outcome = (run_traced if args.trace else run_untraced)(workload, args, ledger)
    except Exception:
        traceback.print_exc()
        return 1
    named = {}
    if not args.trace:
        walls = {f"{name}_wall_s": (ledger.passes[f"{name}_wall"], "s")
                 for name in ("primary", "secondary")}
        if ledger.passes["reference"]:
            walls["reference_s"] = (ledger.passes["reference"], "s")
        for name, (values, unit) in {**workload.named(ledger), **walls}.items():
            named[name] = {**harness.summary(values), "unit": unit}
    error_rate = ledger.failed / ledger.attempted
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": harness.environment(),
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "error_rate": error_rate,
        "failures": ledger.failures,
        "metrics": {
            name: {"value": value, "unit": outcome["units"][name]}
            for name, value in outcome["values"].items()
        },
        "named": named,
        **{k: v for k, v in outcome.items() if k not in ("values", "units")},
        "digests": ledger.digests,
    }
    path = RESULTS_DIR / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print_summary(workload, args, ledger, outcome, record)
    print(f"  record: {path.relative_to(harness.ROOT)}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
