"""Traced runs: spans around the public calls into each layer of the planner.

The spans live in the benchmark, around calls the package already makes
public: `evaluate` is replayed as slotify -> batch_distribution ->
build_chain -> stationary -> delay_pmf -> overflow_probability -> metrics,
and `optimize` as evaluate_grid -> select_optimum.  Every replay is checked
against the package's own composite call on the same inputs, and the time
the two take apart is the tracing overhead.

Layers a workload does not reach itself are measured by small fixed probes,
so every traced run reports every per-layer metric.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from collections import defaultdict

from harness import WORK_DIR, Tracer, captured_stdout, child_env

# Per-layer metrics of the traced run.  Times are medians per call, counts
# are medians per chain, per grid or per simulator call.
PER_LAYER = (
    ("cli.import_s", "s"),
    ("cli.import.scipy_stats_s", "s"),
    ("cli.import.scipy_sparse_s", "s"),
    ("cli.import.jsonschema_s", "s"),
    ("cli.import.yaml_s", "s"),
    ("cli.main.model_s", "s"),
    ("cli.main.optimize_s", "s"),
    ("cli.main.simulate_s", "s"),
    ("config.load_config_s", "s"),
    ("emit.load_schema_s", "s"),
    ("emit.json_bytes_s", "s"),
    ("emit.json_bytes_validated_s", "s"),
    ("emit.csv_bytes_s", "s"),
    ("params.slotify_s", "s"),
    ("params.batch_distribution_s", "s"),
    ("model.build_chain_s", "s"),
    ("model.stationary_cycle_s", "s"),
    ("model.stationary_full_s", "s"),
    ("model.delay_pmf_s", "s"),
    ("model.overflow_probability_s", "s"),
    ("model.metrics_s", "s"),
    ("model.states", "count"),
    ("model.cycle_slots", "count"),
    ("model.pmf_support", "count"),
    ("optimizer.evaluate_grid_s", "s"),
    ("optimizer.select_optimum_s", "s"),
    ("optimizer.points", "count"),
    ("optimizer.failed_points", "count"),
    ("optimizer.unique_schedule_ratio", "ratio"),
    ("simulator.simulate_s", "s"),
    ("simulator.replicate_s", "s"),
    ("simulator.light.offered", "count"),
    ("simulator.light.delivered", "count"),
    ("simulator.light.lost_overflow", "count"),
    ("simulator.light.lost_retry", "count"),
    ("simulator.overload.offered", "count"),
    ("simulator.overload.delivered", "count"),
    ("simulator.overload.lost_overflow", "count"),
    ("simulator.overload.lost_retry", "count"),
    ("trace.overhead_ratio", "ratio"),
)

# Fresh-interpreter `model` call that reports, on its last stderr line, the
# clock when it starts importing rtwt_planner.cli, when `main` starts and when
# `main` returns.  perf_counter reads the system-wide monotonic clock on
# Linux, so the parent can also split off interpreter start-up and teardown.
CLI_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import rtwt_planner.cli as cli\n"
    "t1 = time.perf_counter()\n"
    "rc = cli.main(sys.argv[1:])\n"
    "t2 = time.perf_counter()\n"
    "sys.stderr.write('\\nBENCH %r %r %r\\n' % (t0, t1, t2))\n"
    "sys.exit(rc)\n"
)
CLI_PHASES = ("startup", "import", "main", "teardown")
CLI_PROBE_RUNS = 3
IMPORTTIME_MODULES = {
    "scipy.stats": "cli.import.scipy_stats_s",
    "scipy.sparse": "cli.import.scipy_sparse_s",
    "jsonschema": "cli.import.jsonschema_s",
    "yaml": "cli.import.yaml_s",
}
# In-process calls per subcommand, and config loads and encodings, per traced run.
CLI_MAIN_RUNS = 3
CONFIG_EMIT_RUNS = 20
PROCESS_TIMEOUT = 120


class ReplayMismatch(RuntimeError):
    """A replay through the layers disagrees with the package's composite call."""


class TraceContext:
    """Spans, per-layer samples and overhead ratios of one traced run."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.span = self.tracer.span
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.cli_phases: dict[str, list[float]] = defaultdict(list)
        self.direct_first = False

    def traced_and_direct(self, traced, direct):
        """Run a traced replay and the untraced call on the same inputs.

        Which of the two runs first alternates from one call to the next, so
        neither always finds the caches the other warmed.  Their time apart
        is one sample of the tracing overhead.
        """
        self.direct_first = not self.direct_first
        order = (direct, traced) if self.direct_first else (traced, direct)
        results, times = [], []
        for call in order:
            start = time.perf_counter()
            results.append(call())
            times.append(time.perf_counter() - start)
        if self.direct_first:
            results.reverse()
            times.reverse()
        self.samples["trace.overhead_ratio"].append((times[0] - times[1]) / times[1])
        return results

    def layer_metrics(self) -> dict[str, float | None]:
        merged = defaultdict(list, {k: list(v) for k, v in self.samples.items()})
        for name, values in self.tracer.durations().items():
            merged[f"{name}_s"].extend(values)
        return {
            name: statistics.median(merged[name]) if merged[name] else None
            for name, _ in PER_LAYER
        }

    def self_times(self) -> dict[str, float]:
        return {name: statistics.median(v) for name, v in sorted(self.tracer.self_times().items())}


def replay_evaluate(ctx: TraceContext, traffic, link, rtwt, buffer_packets, quantile,
                    allow_coarse: bool, method: str):
    """`evaluate` as the chain of its public stages, one span per stage."""
    from rtwt_planner import model, params

    with ctx.span("model.evaluate"):
        with ctx.span("params.slotify"):
            slotted = params.slotify(traffic, rtwt, buffer_packets, allow_coarse=allow_coarse)
        with ctx.span("params.batch_distribution"):
            batches = params.batch_distribution(traffic, link)
        with ctx.span("model.build_chain"):
            chain = model.build_chain(slotted, batches)
        with ctx.span(f"model.stationary_{method}"):
            stat = model.stationary(chain, method=method)
        with ctx.span("model.delay_pmf"):
            pmf = model.delay_pmf(stat, batches, slotted)
        with ctx.span("model.overflow_probability"):
            overflow = model.overflow_probability(stat, batches)
        with ctx.span("model.metrics"):
            report = model.metrics(
                pmf, link, traffic, rtwt, quantile=quantile, overflow_prob=overflow,
            )
    ctx.samples["model.states"].append((slotted.buffer_packets + 1) * slotted.cycle_slots)
    ctx.samples["model.cycle_slots"].append(slotted.cycle_slots)
    ctx.samples["model.pmf_support"].append(pmf.mass.size)
    return report


def checked_evaluate(ctx: TraceContext, traffic, link, rtwt, buffer_packets, quantile=0.999,
                     method="cycle") -> bytes:
    """Replay one evaluation beside the untraced call, and require equal outputs."""
    import numpy as np
    from rtwt_planner import emit, model

    replayed, direct = ctx.traced_and_direct(
        lambda: replay_evaluate(ctx, traffic, link, rtwt, buffer_packets, quantile, False,
                                method),
        lambda: model.evaluate(traffic, link, rtwt, buffer_packets, quantile=quantile,
                               method=method),
    )
    out = emit.json_bytes(replayed.to_dict())
    if out != emit.json_bytes(direct.to_dict()) or not np.array_equal(
        replayed.pmf.mass, direct.pmf.mass
    ):
        raise ReplayMismatch(f"replayed {method} evaluation differs from evaluate()")
    return out


def grid_points(ctx: TraceContext, traffic, link, buffer_packets, grid) -> None:
    """Count grid points and the distinct slotted (cycle, sp) pairs behind them."""
    from rtwt_planner import params

    pairs = set()
    points = 0
    for period in grid.period_values():
        for sp_slots in grid.sp_slots_values():
            points += 1
            try:
                slotted = params.slotify(
                    traffic, params.RtwtSpec(period=period, sp_slots=sp_slots),
                    buffer_packets, allow_coarse=True,
                )
            except ValueError:
                continue
            pairs.add((slotted.cycle_slots, sp_slots))
    ctx.samples["optimizer.unique_schedule_ratio"].append(len(pairs) / points)


def traced_optimize(ctx: TraceContext, traffic, link, buffer_packets, constraint, grid,
                    replay: bool) -> bytes:
    """`optimize` as evaluate_grid -> select_optimum.

    With `replay`, every grid point is first replayed through the model
    stages as `evaluate_grid` would evaluate it, and the replayed metrics
    must equal those evaluate_grid returns.
    """
    from rtwt_planner import emit, model, optimizer, params

    def replay_grid():
        replayed = []
        with ctx.span("optimizer.replay"):
            for period in grid.period_values():
                for sp_slots in grid.sp_slots_values():
                    rtwt = params.RtwtSpec(period=period, sp_slots=sp_slots)
                    try:
                        report = replay_evaluate(ctx, traffic, link, rtwt, buffer_packets,
                                                 constraint.quantile, True, "cycle")
                    except (ValueError, model.ModelError) as exc:
                        replayed.append((period, sp_slots, None, str(exc)))
                    else:
                        replayed.append((period, sp_slots, emit.json_bytes(report.to_dict()), None))
        return replayed

    def evaluate_grid():
        with ctx.span("optimizer.evaluate_grid"):
            return optimizer.evaluate_grid(traffic, link, buffer_packets, grid,
                                           quantile=constraint.quantile)

    if replay:
        replayed, points = ctx.traced_and_direct(replay_grid, evaluate_grid)
    else:
        points = evaluate_grid()
    with ctx.span("optimizer.select_optimum"):
        choice = optimizer.select_optimum(points, constraint)
    ctx.samples["optimizer.points"].append(len(points))
    ctx.samples["optimizer.failed_points"].append(sum(p.report is None for p in points))
    grid_points(ctx, traffic, link, buffer_packets, grid)
    if replay:
        expected = [
            (p.period, p.sp_slots, emit.json_bytes(p.report.to_dict()) if p.report else None,
             p.error)
            for p in points
        ]
        if replayed != expected:
            raise ReplayMismatch("replayed grid metrics differ from evaluate_grid()")
    return emit.json_bytes(choice.to_dict())


def traced_simulator(ctx: TraceContext, call: str, schedule: str, *args) -> bytes:
    """One `simulate` or `replicate` call; its packet counts go under `schedule`."""
    from rtwt_planner import emit, simulator

    with ctx.span(f"simulator.{call}"):
        report = getattr(simulator, call)(*args)
    for field in ("offered", "delivered", "lost_overflow", "lost_retry"):
        ctx.samples[f"simulator.{schedule}.{field}"].append(getattr(report, field))
    return emit.json_bytes(report.to_dict())


def clock_marks(stderr: str) -> tuple[float, float, float] | None:
    """The three clock readings CLI_PROBE writes last, or None."""
    lines = stderr.splitlines()
    if not lines or not lines[-1].startswith("BENCH "):
        return None
    t0, t1, t2 = (float(word) for word in lines[-1].split()[1:4])
    return t0, t1, t2


def probe_cli_import(ctx: TraceContext, argv: list[str]) -> None:
    """Fresh-interpreter `model` calls under `-X importtime`."""
    for _ in range(CLI_PROBE_RUNS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", CLI_PROBE, *argv],
            cwd=WORK_DIR, env=child_env(), capture_output=True, text=True,
            timeout=PROCESS_TIMEOUT,
        )
        end = time.perf_counter()
        marks = clock_marks(proc.stderr)
        if proc.returncode != 0 or marks is None:
            raise RuntimeError(f"CLI import probe exited {proc.returncode}: {proc.stderr[-300:]}")
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
        for module, metric in IMPORTTIME_MODULES.items():
            # a module the CLI no longer imports costs it nothing
            ctx.samples[metric].append(cumulative.get(module, 0.0))
        t0, t1, t2 = marks
        for phase, seconds in zip(CLI_PHASES, (t0 - start, t1 - t0, t2 - t1, end - t2)):
            ctx.cli_phases[phase].append(seconds)
        ctx.cli_phases["wall"].append(end - start)
        ctx.samples["cli.import_s"].append(t1 - t0)


def probe_cli_main(ctx: TraceContext, argvs: dict[str, list[str]]) -> None:
    """Warm, in-process `main` calls for each subcommand."""
    import rtwt_planner.cli as cli

    for kind, argv in argvs.items():
        for _ in range(CLI_MAIN_RUNS):
            with captured_stdout() as out, ctx.span(f"cli.main.{kind}"):
                code = cli.main(argv)
            if code != 0 or not out.getvalue():
                raise RuntimeError(f"in-process `{kind}` exited {code}")


def probe_config_emit(ctx: TraceContext, overrides: list[str]) -> None:
    """Config as the CLI loads it (defaults plus --set overrides) and output encoding."""
    from rtwt_planner import config, emit, model

    for _ in range(CONFIG_EMIT_RUNS):
        with ctx.span("config.load_config"):
            cfg = config.load_config(None, overrides)
    report = model.evaluate(cfg.traffic, cfg.link, cfg.rtwt, cfg.buffer_packets,
                            quantile=cfg.percentile_q)
    payload = report.to_dict()
    slot = cfg.traffic.slot_time
    rows = [[d, d * slot, p] for d, p in enumerate(report.pmf.mass.tolist())]
    for _ in range(CONFIG_EMIT_RUNS):
        with ctx.span("emit.load_schema"):
            emit.load_schema("model_report")
        with ctx.span("emit.json_bytes"):
            emit.json_bytes(payload)
        with ctx.span("emit.json_bytes_validated"):
            emit.json_bytes(payload, "model_report")
        with ctx.span("emit.csv_bytes"):
            emit.csv_bytes(["delay_slots", "delay_s", "probability"], rows)
