"""The benchmark's workloads.

All load comes from one process, one call at a time: a closed loop with one
client, since the benchmark machine has two cores.  Library workloads are
timed warm, after the import and a first untimed call; the CLI workload is
timed cold, because a CLI user pays the import on every call.

Every workload reports the same end-to-end metrics, so that each can be
compared across commits workload by workload:

    primary_s    median time of the workload's main call
    secondary_s  median time of its second kind of call, or for the CLI
                 the import every call pays
    setup_s      import plus the untimed first call, in a fresh interpreter,
                 scaled by the fresh-interpreter reference (see run.py)
    peak_rss_mb  highest resident memory of the process running the calls

What the two timings cover is set per workload below (`primary`,
`secondary`).  Where a workload times a set of calls of mixed size, a pass
over the whole set is one sample: the time its calls took divided by their
number.  Each sample is scaled by a reference work of the same kind timed
right after it (`scale_by`, see reference.py): fresh interpreters for
cli_cold, pure-Python work in this process for optimize_grid and
simulate_long.  The wall-time medians are recorded beside the gated ones.

A workload timing `evaluate` on buffers of 50-200 by both solver routes was
tried and left out: its time goes to sparse solves in compiled code, which
slow down with the machine's neighbours in phases that neither reference
follows, and its ten-seed spread exceeded the 0.25 bound.  Both routes are
still checked against each other on such buffers in every optimize_grid run
(`check_routes`), untimed.
"""

from __future__ import annotations

import csv
import json
import math
import random
import statistics
import subprocess
import sys
import time

import layers
from harness import WORK_DIR, Ledger, captured_stdout, child_env, describe
import reference

SLOT_TIME = 114.4e-6
BUFFER = 20
CLI_SCHEMAS = {"model": "model_report", "optimize": "optimal_choice", "simulate": "sim_report"}
# Cycle-vs-full agreement and balance residual, as the acceptance test A6 sets them.
ROUTE_GAP_LIMIT = 1e-9
RESIDUAL_LIMIT = 1e-10
# Rounds of the small probes that fill in layers a traced workload did not reach.
GAP_PROBE_RUNS = 3


def _traffic(interarrival_s: float):
    from rtwt_planner.params import TrafficSpec

    return TrafficSpec(rate=1.0 / interarrival_s, slot_time=SLOT_TIME)


def _link():
    from rtwt_planner.params import LinkSpec

    return LinkSpec(error_prob=0.1, retry_limit=3)


class Workload:
    name = ""
    why = ""
    # what primary_s and secondary_s time on this workload
    primary = ""
    secondary = ""
    # peak_rss_mb counts the children that run the calls, not this process
    rss_of_children = False
    # (nominal seconds, timer) of the reference work that scales primary_s
    # and secondary_s, or None for wall time
    scale_by = None

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(seed)

    def setup(self) -> None:
        """Import the package and make the first, untimed calls.

        They take every code path the timed calls take, so that lazy work
        lands in set-up time, and are shortened where a timed call is long.
        """
        raise NotImplementedError

    def measure(self, ledger: Ledger, seconds: float) -> None:
        """Time the workload's calls for `seconds`, checking every output."""
        raise NotImplementedError

    def trace(self, ctx: layers.TraceContext, ledger: Ledger, seconds: float) -> None:
        """Replay the workload's calls through spans for `seconds`."""
        raise NotImplementedError

    def named(self, ledger: Ledger) -> dict[str, tuple[list[float], str]]:
        """Timings under the names a reader of the planner knows them by."""
        raise NotImplementedError

    def final_checks(self, ledger: Ledger) -> None:
        """Untimed output checks made after peak memory is read, since they use more."""

    def add_pass(self, ledger: Ledger, primary: float, secondary: float) -> None:
        """One sample of each timing, in wall seconds."""
        scale = 1.0
        if self.scale_by is not None:
            nominal, timer = self.scale_by
            ledger.passes["reference"].append(timer())
            scale = nominal / ledger.passes["reference"][-1]
        for name, seconds in (("primary", primary), ("secondary", secondary)):
            ledger.passes[f"{name}_wall"].append(seconds)
            ledger.passes[name].append(seconds * scale)

    def end_to_end(self, ledger: Ledger) -> dict[str, float]:
        return {
            "primary_s": statistics.median(ledger.passes["primary"]),
            "secondary_s": statistics.median(ledger.passes["secondary"]),
        }


def _timed(ledger: Ledger, kind: str, call, check=None):
    """Run one operation, record its wall time, output digest and any failure."""
    start = time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # an operation that raises is a failed operation
        ledger.record(kind, time.perf_counter() - start, None, describe(exc))
        return None, None
    elapsed = time.perf_counter() - start
    try:
        output, problem = check(result) if check else (None, None)
    except Exception as exc:
        output, problem = None, describe(exc)
    ledger.record(kind, elapsed, output, problem)
    return result, elapsed


def _guarded(ledger: Ledger, kind: str, call) -> None:
    """Run one untimed checked operation (a replay or a repeat)."""
    try:
        output = call()
    except Exception as exc:
        ledger.record(kind, None, None, describe(exc))
    else:
        ledger.record(kind, None, output)


# --------------------------------------------------------------------- CLI


class CliCold(Workload):
    name = "cli_cold"
    why = "fresh-interpreter CLI calls: imports dominate and compute is small"
    primary = ("one fresh-process CLI call, the mean of a round of `model --pmf`, "
               "`optimize` on a 16x5 grid and `simulate` of 20k packets")
    secondary = "the `import rtwt_planner.cli` inside each call, the mean over the same round"
    ORDER = ("model", "optimize", "simulate")
    rss_of_children = True
    scale_by = (reference.PROCESS_S, reference.process_s)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.pmf_path = WORK_DIR / f"delay_pmf_{seed}.csv"

    def draw(self, kind: str, rng: random.Random) -> list[str]:
        """Overrides for one call; the CLI turns them into the library inputs."""
        sets = [f"traffic.interarrival={round(rng.uniform(8, 16), 3)} ms"]
        if kind == "model":
            # 6 ms and up keeps every period within 1% of a whole number of slots
            sets += [f"rtwt.period={rng.randrange(60, 161) / 10} ms",
                     f"rtwt.sp_slots={rng.randint(1, 5)}"]
        elif kind == "optimize":
            sets += ["grid.period_step=1 ms",
                     f"constraint.target={round(rng.uniform(4, 12), 3)} ms"]
        else:
            sets += ["sim.measured_packets=20000", f"sim.seed={rng.randrange(1, 2**31)}"]
        return sets

    def argv(self, kind: str, sets: list[str]) -> list[str]:
        head = ["model", "--pmf", str(self.pmf_path)] if kind == "model" else [kind]
        return head + [item for value in sets for item in ("--set", value)]

    def check(self, kind: str, proc) -> tuple[bytes | None, str | None]:
        import jsonschema
        from rtwt_planner import emit

        if proc.returncode != 0:
            tail = proc.stderr.decode(errors="replace").strip()[-300:]
            return None, f"exit {proc.returncode}: {tail}"
        if layers.clock_marks(proc.stderr.decode()) is None:
            return None, "no clock marks on stderr"
        jsonschema.validate(json.loads(proc.stdout), emit.load_schema(CLI_SCHEMAS[kind]))
        if kind == "model":
            with open(self.pmf_path, newline="") as handle:
                rows = list(csv.reader(handle))
            self.pmf_path.unlink()
            if rows[0] != ["delay_slots", "delay_s", "probability"]:
                return proc.stdout, f"unexpected PMF header {rows[0]}"
            total = math.fsum(float(row[2]) for row in rows[1:])
            if abs(total - 1.0) > 1e-9:
                return proc.stdout, f"PMF sums to {total!r}"
        return proc.stdout, None

    def setup(self) -> None:
        import rtwt_planner.cli as cli

        argv = self.argv("model", self.draw("model", random.Random(self.seed)))
        with captured_stdout() as out:
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"first `model` call exited {code}")
        json.loads(out.getvalue())

    def measure(self, ledger: Ledger, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        while True:
            walls, imports = [], []
            for kind in self.ORDER:
                argv = self.argv(kind, self.draw(kind, self.rng))
                proc, elapsed = _timed(
                    ledger, f"cli.{kind}",
                    lambda: subprocess.run(
                        [sys.executable, "-c", layers.CLI_PROBE, *argv], cwd=WORK_DIR,
                        env=child_env(), capture_output=True, timeout=layers.PROCESS_TIMEOUT,
                    ),
                    lambda proc, kind=kind: self.check(kind, proc),
                )
                marks = layers.clock_marks(proc.stderr.decode()) if proc is not None else None
                if elapsed is not None and marks is not None:
                    walls.append(elapsed)
                    imports.append(marks[1] - marks[0])
            ledger.calls["cli.import_in_call"].extend(imports)
            if len(walls) == len(self.ORDER):
                self.add_pass(ledger, statistics.fmean(walls), statistics.fmean(imports))
            if time.perf_counter() >= deadline:
                break

    def trace(self, ctx, ledger, seconds) -> None:
        from rtwt_planner import config

        deadline = time.perf_counter() + seconds
        calls = 0
        while calls < len(self.ORDER) or time.perf_counter() < deadline:
            kind = self.ORDER[calls % len(self.ORDER)]
            calls += 1
            sets = self.draw(kind, self.rng)
            if kind == "simulate":
                continue  # one layer call, nothing to replay: the probe times it
            with ctx.span("config.load_config"):
                cfg = config.load_config(None, sets)
            if kind == "model":
                for method in ("cycle", "full"):
                    _guarded(ledger, f"replay.{method}", lambda: layers.checked_evaluate(
                        ctx, cfg.traffic, cfg.link, cfg.rtwt, cfg.buffer_packets,
                        cfg.percentile_q, method=method))
            else:
                _guarded(ledger, "replay.optimize", lambda: layers.traced_optimize(
                    ctx, cfg.traffic, cfg.link, cfg.buffer_packets, cfg.constraint, cfg.grid,
                    replay=True))

    def named(self, ledger):
        named = {f"cli_{kind}_s": (ledger.calls[f"cli.{kind}"], "s") for kind in CLI_SCHEMAS}
        named["cli_import_in_call_s"] = (ledger.calls["cli.import_in_call"], "s")
        return named


# --------------------------------------------------------------- optimizer


class OptimizeGrid(Workload):
    name = "optimize_grid"
    why = "optimize on the default 780-point grid: many small chains, per-call overhead"
    primary = "one `optimize` call on the default 780-point grid"
    secondary = "one `evaluate` call at K=20 on the 1-16 ms, 1-5 slot lattice (pass mean)"
    scale_by = (reference.INTERPRETER_S, reference.interpreter_s)

    def draw(self, rng: random.Random):
        from rtwt_planner.optimizer import QosConstraint

        traffic = _traffic(rng.uniform(8e-3, 16e-3))
        return traffic, QosConstraint("percentile", rng.uniform(4e-3, 12e-3))

    def optimize(self, traffic, constraint, grid=None):
        from rtwt_planner.optimizer import SearchGrid, optimize

        return optimize(traffic, _link(), BUFFER, constraint, grid or SearchGrid())

    def check_choice(self, choice, constraint):
        from rtwt_planner import emit

        out = emit.json_bytes(choice.to_dict(), "optimal_choice")
        if choice.evaluated_points != 780:
            return out, f"evaluated {choice.evaluated_points} points, expected 780"
        if choice.feasible and not choice.achieved <= constraint.target:
            return out, (f"feasible choice misses its target: "
                         f"{choice.achieved} > {constraint.target}")
        return out, None

    def setup(self) -> None:
        from rtwt_planner.optimizer import SearchGrid

        self.optimize(*self.draw(random.Random(self.seed)), SearchGrid(period_step=1e-3))

    def measure(self, ledger, seconds) -> None:
        from rtwt_planner import emit
        from rtwt_planner.model import evaluate
        from rtwt_planner.params import RtwtSpec

        deadline = time.perf_counter() + seconds
        link = _link()
        lattice = [RtwtSpec(ms * 1e-3, sp) for ms in range(1, 17) for sp in range(1, 6)]
        while True:
            traffic, constraint = self.draw(self.rng)
            _, optimized = _timed(ledger, "optimize", lambda: self.optimize(traffic, constraint),
                                  lambda choice: self.check_choice(choice, constraint))
            spent = []
            for rtwt in lattice:
                _, elapsed = _timed(
                    ledger, "evaluate",
                    lambda: evaluate(traffic, link, rtwt, BUFFER, allow_coarse=True),
                    lambda report: (emit.json_bytes(report.to_dict()), _pmf_problem(report)),
                )
                spent.append(elapsed)
            if optimized is not None and None not in spent:
                self.add_pass(ledger, optimized, statistics.fmean(spent))
            if time.perf_counter() >= deadline:
                break

    def final_checks(self, ledger) -> None:
        _guarded(ledger, "route_check", lambda: check_routes(route_schedules(self.rng)))

    def trace(self, ctx, ledger, seconds) -> None:
        from rtwt_planner.optimizer import SearchGrid

        deadline = time.perf_counter() + seconds
        while True:
            traffic, constraint = self.draw(self.rng)
            _guarded(ledger, "replay.optimize", lambda: layers.traced_optimize(
                ctx, traffic, _link(), BUFFER, constraint, SearchGrid(), replay=True))
            if time.perf_counter() >= deadline:
                break

    def named(self, ledger):
        return {"optimize_s": (ledger.calls["optimize"], "s"),
                "evaluate_k20_s": (ledger.calls["evaluate"], "s")}


def _pmf_problem(report) -> str | None:
    total = math.fsum(report.pmf.mass.tolist())
    return None if abs(total - 1.0) <= 1e-9 else f"delay PMF sums to {total!r}"


# ------------------------------------------------------------------- model


def route_schedules(rng: random.Random) -> list[tuple]:
    """Schedules on which both solver routes are checked: (interarrival,
    period, sp_slots, buffer), with buffers of 50-200, periods of 1-16 ms and
    1-5 slots, and always the K=200, T=16 ms scale probe."""
    schedules = [(16e-3, 16e-3, 3, 200)]
    for buffer_packets in (50, 100, 200):
        for _ in range(4):
            slots = round(rng.uniform(1e-3, 16e-3) / SLOT_TIME)
            schedules.append((rng.uniform(8e-3, 16e-3), slots * SLOT_TIME, rng.randint(1, 5),
                              buffer_packets))
    return schedules


def check_routes(schedules: list[tuple]) -> bytes:
    """Stationary solutions of both routes agree and balance, as in A6."""
    import numpy as np
    from rtwt_planner import model, params

    for interarrival, period, sp_slots, buffer_packets in schedules:
        traffic, link = _traffic(interarrival), _link()
        rtwt = params.RtwtSpec(period, sp_slots)
        slotted = params.slotify(traffic, rtwt, buffer_packets)
        chain = model.build_chain(slotted, params.batch_distribution(traffic, link))
        cycle = model.stationary(chain, method="cycle")
        full = model.stationary(chain, method="full")
        gap = float(np.abs(cycle.probs - full.probs).max())
        residual = max(cycle.residual, full.residual)
        if gap > ROUTE_GAP_LIMIT or residual > RESIDUAL_LIMIT:
            raise RuntimeError(f"K={buffer_packets}, T={period * 1e3:.2f} ms, {sp_slots} slots: "
                               f"route gap {gap:.2e}, residual {residual:.2e}")
    return f"{len(schedules)} schedules: routes agree".encode()


# --------------------------------------------------------------- simulator


class SimulateLong(Workload):
    name = "simulate_long"
    why = "long simulations on the delivery and the overflow path: the per-packet loop"
    primary = "one `replicate` call, 4 runs x 60k delivered on the light schedule"
    secondary = "one `simulate` call, 50k delivered on the overload schedule"
    scale_by = (reference.INTERPRETER_S, reference.interpreter_s)
    LIGHT = (16e-3, 10e-3, 3)  # interarrival, period, service slots
    OVERLOAD = (5e-3, 10e-3, 1)
    RUNS = 4
    # Delivered packets per run: short enough calls that one run of the
    # benchmark holds about twenty of each.
    REPLICATE_PACKETS = 60_000
    SIMULATE_PACKETS = 50_000

    def inputs(self, schedule, seed: int, measured: int):
        from rtwt_planner.params import RtwtSpec
        from rtwt_planner.simulator import SimConfig

        interarrival, period, sp_slots = schedule
        return (_traffic(interarrival), _link(), RtwtSpec(period, sp_slots), BUFFER,
                SimConfig(seed=seed, measured_packets=measured))

    def replicate(self, seed: int, measured: int = REPLICATE_PACKETS):
        from rtwt_planner.simulator import replicate

        return replicate(*self.inputs(self.LIGHT, seed, measured), self.RUNS)

    def simulate(self, seed: int, measured: int = SIMULATE_PACKETS):
        from rtwt_planner.simulator import simulate

        return simulate(*self.inputs(self.OVERLOAD, seed, measured))

    def setup(self) -> None:
        seed = random.Random(self.seed).randrange(1, 2**31)
        self.replicate(seed, measured=10_000)
        self.simulate(seed, measured=10_000)

    @staticmethod
    def check(report, delivered: int, runs: int, overflow: bool):
        from rtwt_planner import emit

        out = emit.json_bytes(report.to_dict(), "sim_report")
        if report.delivered != delivered or report.runs != runs:
            return out, f"delivered {report.delivered} in {report.runs} runs"
        if not math.isfinite(report.mean_delay_s) or not math.isfinite(report.percentile_s):
            return out, "non-finite delay statistics"
        if overflow and report.lost_overflow == 0:
            return out, "overload schedule dropped nothing"
        return out, None

    def measure(self, ledger, seconds) -> None:
        deadline = time.perf_counter() + seconds
        first = None
        while True:
            seed = self.rng.randrange(1, 2**31)
            report, replicated = _timed(ledger, "replicate", lambda: self.replicate(seed),
                                        lambda r: self.check(r, self.RUNS * self.REPLICATE_PACKETS,
                                                            self.RUNS, False))
            if replicated is not None:
                ledger.calls["replicate_packets_per_s"].append(report.offered / replicated)
            seed = self.rng.randrange(1, 2**31)
            report, simulated = _timed(ledger, "simulate", lambda: self.simulate(seed),
                                       lambda r: self.check(r, self.SIMULATE_PACKETS, 1, True))
            if simulated is not None:
                ledger.calls["simulate_packets_per_s"].append(report.offered / simulated)
                first = first or (seed, ledger.digests[-1]["sha256"])
            if replicated is not None and simulated is not None:
                self.add_pass(ledger, replicated, simulated)
            if time.perf_counter() >= deadline:
                break
        if first is not None:
            self.check_repeat(ledger, *first)

    def check_repeat(self, ledger: Ledger, seed: int, digest: str) -> None:
        """A second call with the same seed gives byte-identical JSON."""
        from harness import sha256
        from rtwt_planner import emit

        def repeat():
            out = emit.json_bytes(self.simulate(seed).to_dict(), "sim_report")
            if sha256(out) != digest:
                raise RuntimeError(f"seed {seed} gave different JSON on a second call")
            return out

        _guarded(ledger, "simulate.repeat", repeat)

    def trace(self, ctx, ledger, seconds) -> None:
        deadline = time.perf_counter() + seconds
        while True:
            light = self.inputs(self.LIGHT, self.rng.randrange(1, 2**31), self.REPLICATE_PACKETS)
            _guarded(ledger, "traced.replicate", lambda: layers.traced_simulator(
                ctx, "replicate", "light", *light, self.RUNS))
            overload = self.inputs(self.OVERLOAD, self.rng.randrange(1, 2**31),
                                   self.SIMULATE_PACKETS)
            _guarded(ledger, "traced.simulate", lambda: layers.traced_simulator(
                ctx, "simulate", "overload", *overload))
            if time.perf_counter() >= deadline:
                break

    def named(self, ledger):
        return {
            "replicate_packets_per_s": (ledger.calls["replicate_packets_per_s"], "1/s"),
            "simulate_packets_per_s": (ledger.calls["simulate_packets_per_s"], "1/s"),
            "replicate_s": (ledger.calls["replicate"], "s"),
            "simulate_s": (ledger.calls["simulate"], "s"),
        }


WORKLOADS = {cls.name: cls for cls in (CliCold, OptimizeGrid, SimulateLong)}


# ------------------------------------------------------- traced-run probes


def trace_common(ctx: layers.TraceContext, ledger: Ledger, seed: int) -> None:
    """Layers every traced run reports: CLI import and entry, config, output."""
    cli = CliCold(seed)
    rng = random.Random(seed)
    sets = {kind: cli.draw(kind, rng) for kind in CLI_SCHEMAS}
    argvs = {kind: cli.argv(kind, value) for kind, value in sets.items()}
    _guarded(ledger, "probe.cli_import", lambda: layers.probe_cli_import(ctx, argvs["model"]))
    _guarded(ledger, "probe.cli_main", lambda: layers.probe_cli_main(ctx, argvs))
    _guarded(ledger, "probe.config_emit", lambda: layers.probe_config_emit(ctx, sets["model"]))


def fill_gaps(ctx: layers.TraceContext, ledger: Ledger, seed: int) -> None:
    """Small fixed probes for the layers the workload's own calls did not reach."""
    from rtwt_planner.optimizer import QosConstraint, SearchGrid
    from rtwt_planner.params import RtwtSpec

    reached = ctx.tracer.durations()
    sim = SimulateLong(seed)
    for _ in range(GAP_PROBE_RUNS):
        for method in ("cycle", "full"):
            if f"model.stationary_{method}" not in reached:
                _guarded(ledger, f"probe.{method}", lambda: layers.checked_evaluate(
                    ctx, _traffic(16e-3), _link(), RtwtSpec(10e-3, 3), BUFFER, method=method))
        if "optimizer.evaluate_grid" not in reached:
            _guarded(ledger, "probe.optimize", lambda: layers.traced_optimize(
                ctx, _traffic(16e-3), _link(), BUFFER, QosConstraint("percentile", 6e-3),
                SearchGrid(period_step=1e-3), replay=False))
        if "simulator.replicate" not in reached:
            _guarded(ledger, "probe.replicate", lambda: layers.traced_simulator(
                ctx, "replicate", "light",
                *sim.inputs(sim.LIGHT, sim.rng.randrange(1, 2**31), 10_000), 2))
        if "simulator.simulate" not in reached:
            _guarded(ledger, "probe.simulate", lambda: layers.traced_simulator(
                ctx, "simulate", "overload",
                *sim.inputs(sim.OVERLOAD, sim.rng.randrange(1, 2**31), 20_000)))
