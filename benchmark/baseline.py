"""Seed-commit baseline of the hot paths, set beside the ROADMAP's figures.

Run from the repository root after the benchmark's own runs:

    python3 benchmark/baseline.py

It measures, once, the figures the first hot-path changes are expected to
move: how a fresh CLI `model` call splits into start-up, import, `main` and
teardown; the residual check against the cycle solve inside `stationary`;
the distinct (cycle, sp) pairs of the default grid; and the full route
against the cycle route at K=200.  It adds the end-to-end medians and
spreads of the untraced runs found in .bench_results/ (those of the length
BENCHMARK.json sets), and writes everything to
benchmark/BENCH_seed_baseline.json.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import harness
import layers
import workloads
from harness import RESULTS_DIR, ROOT, WORK_DIR

OUT = Path(__file__).resolve().parent / "BENCH_seed_baseline.json"

# Figures ROADMAP.md (open item 1) recorded for the seed commit before this
# benchmark existed.
ROADMAP_FIGURES = {
    "cli_import_share": "import 1.2-2.0 s against about 10 ms of compute for `model`",
    "residual_vs_solve": "residual check 0.56 ms of a 0.77 ms cycle-route solve; evaluate 1.18 ms",
    "unique_schedule_ratio": "19 of 156 points per window are duplicates: 137/156 = 0.878",
    "k200_full_vs_cycle": "K=200, T=16 ms: cycle route 14.8 ms, full route 395 ms (26.7x)",
}


def _median_time(call, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def hot_paths() -> dict:
    """The residual check and the cycle solve are private helpers of the model
    module; when a later version renames or reshapes them, those figures read None.
    """
    from rtwt_planner import model, optimizer, params

    traffic = params.TrafficSpec(rate=1 / 16e-3, slot_time=workloads.SLOT_TIME)
    link = params.LinkSpec(error_prob=0.1, retry_limit=3)
    rtwt = params.RtwtSpec(period=10e-3, sp_slots=3)
    out = {}

    ctx = layers.TraceContext()
    cli = workloads.CliCold(1)
    layers.probe_cli_import(ctx, cli.argv("model", cli.draw("model", random.Random(1))))
    wall = statistics.median(ctx.cli_phases["wall"])
    out["cli_model_wall_s"] = wall
    for phase in layers.CLI_PHASES:
        out[f"cli_{phase}_s"] = statistics.median(ctx.cli_phases[phase])
        out[f"cli_{phase}_share"] = out[f"cli_{phase}_s"] / wall

    slotted = params.slotify(traffic, rtwt, 20)
    chain = model.build_chain(slotted, params.batch_distribution(traffic, link))
    out["stationary_cycle_s"] = _median_time(lambda: model.stationary(chain), 30)
    out["evaluate_default_s"] = _median_time(lambda: model.evaluate(traffic, link, rtwt, 20), 30)
    out["cycle_solve_s"] = out["residual_check_s"] = None
    solve = getattr(model, "_stationary_cycle", None)
    residual = getattr(model, "_balance_residual", None)
    if solve is not None and residual is not None:
        try:
            probs = solve(chain)
            out["cycle_solve_s"] = _median_time(lambda: solve(chain), 30)
            out["residual_check_s"] = _median_time(lambda: residual(chain, probs), 30)
        except (TypeError, ValueError, AttributeError):
            out["cycle_solve_s"] = out["residual_check_s"] = None

    layers.grid_points(ctx, traffic, link, 20, optimizer.SearchGrid())
    out["unique_schedule_ratio_default_grid"] = ctx.samples["optimizer.unique_schedule_ratio"][0]

    big = params.RtwtSpec(period=16e-3, sp_slots=3)
    cycle = _median_time(lambda: model.evaluate(traffic, link, big, 200), 5)
    full = _median_time(lambda: model.evaluate(traffic, link, big, 200, method="full"), 5)
    out["k200_cycle_s"] = cycle
    out["k200_full_s"] = full
    out["k200_full_over_cycle"] = full / cycle
    return out


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def runs(seconds: int) -> dict:
    """End-to-end medians and spreads of the untraced runs of `seconds` length."""
    records = defaultdict(list)
    for path in sorted(RESULTS_DIR.glob("BENCH_*_trace0.json")):
        record = json.loads(path.read_text())
        if record["seconds"] == seconds:
            records[record["workload"]].append(record)
    out = {}
    for workload, found in sorted(records.items()):
        entry = {"seeds": sorted(r["seed"] for r in found),
                 "failed": sum(r["failed"] for r in found)}
        for name in found[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in found]
            entry[name] = {"median": statistics.median(values),
                           "spread": spread(values) if len(values) >= 2 else None}
        entry["named_medians"] = {
            name: statistics.median(r["named"][name]["median"] for r in found)
            for name in found[0]["named"]
        }
        out[workload] = entry
    return out


def main() -> int:
    try:
        harness.use_checkout_sources()
    except harness.CheckoutError as exc:
        print(f"baseline: {exc}", file=sys.stderr)
        return 2
    WORK_DIR.mkdir(exist_ok=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = {
        "about": ("Seed-commit figures from benchmark/baseline.py: hot paths measured once; "
                  "end_to_end pools the untraced runs of run_seconds length, median and "
                  "(Q3-Q1)/median over them."),
        "environment": harness.environment(),
        "hot_paths": hot_paths(),
        "end_to_end": runs(spec["run_seconds"]),
    }
    OUT.write_text(json.dumps(record, indent=1) + "\n")
    for name, value in record["hot_paths"].items():
        print(f"{name:36s} {value!r}")
    for name, text in ROADMAP_FIGURES.items():
        print(f"ROADMAP {name:28s} {text}")
    print(f"wrote {OUT.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
