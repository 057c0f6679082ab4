"""Canned experiment presets and the model-vs-simulator comparison table.

Each preset regenerates one published data table as CSV: delay metrics
across window periods (fig2), across window sizes (fig3), across offered
load (fig4), and the capacity frontier the optimizer traces across QoS
targets (fig5).  The fig* names are the stable CLI identifiers.
"""

from __future__ import annotations

import dataclasses
import numbers
from dataclasses import dataclass

from .config import EXPERIMENTS, SWEEP_AXES, ConfigError, RunConfig
from .model import evaluate
from .optimizer import evaluate_grid, select_optimum
from .params import INDICATORS, ModelError, QosConstraint, RtwtSpec, TrafficSpec, inclusive_range
from .simulator import replicate

VALIDATION_HEADER = [
    "axis",
    "mean_ana", "mean_sim", "mean_sim_ci",
    "jitter_ana", "jitter_sim",
    "loss_ana", "loss_sim",
    "pctl_ana", "pctl_sim", "err_pctl_abs",
    "error",
]

FRONTIER_HEADER = [
    "indicator", "target_ms", "period_ms", "sp_slots",
    "capacity", "capacity_floor", "achieved_ms", "feasible",
]


@dataclass(frozen=True, eq=False)
class ExperimentFile:
    """One CSV worth of experiment output."""

    stem: str
    header: list[str]
    rows: list[list]


def sweep_point(
    axis: str, value, traffic: TrafficSpec, rtwt: RtwtSpec
) -> tuple[TrafficSpec, RtwtSpec]:
    """Apply one axis value onto the base (traffic, schedule) pair."""
    if axis == "period":
        return traffic, RtwtSpec(period=float(value), sp_slots=rtwt.sp_slots)
    if axis == "sp_slots":
        if not isinstance(value, numbers.Integral):
            raise ValueError(f"sp_slots must be an integer, got {value!r}")
        return traffic, RtwtSpec(period=rtwt.period, sp_slots=int(value))
    if axis == "interarrival":
        if not value > 0:
            raise ValueError(f"interarrival must be > 0, got {value}")
        return TrafficSpec(rate=1.0 / float(value), slot_time=traffic.slot_time), rtwt
    raise ValueError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")


def validation_rows(cfg: RunConfig, axis: str, values, progress=None) -> list[list]:
    """Model and simulator metrics side by side along one axis.

    Per-value failures, an axis value no schedule or traffic accepts
    included, land in the trailing error column instead of aborting the
    sweep; the time-cap is the exception since a stalled simulation means
    every later row would stall the same way.  An unknown axis is rejected
    before any row runs.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
    rows = []
    for value in values:
        if progress is not None:
            progress(f"{axis}={value!r}")
        ana = sim = None
        errors = []
        try:
            row_traffic, row_rtwt = sweep_point(axis, value, cfg.traffic, cfg.rtwt)
        except ValueError as exc:
            errors.append(str(exc))
        else:
            try:
                ana = evaluate(
                    row_traffic, cfg.link, row_rtwt, cfg.buffer_packets,
                    quantile=cfg.percentile_q, allow_coarse=True,
                )
            except (ValueError, ModelError) as exc:
                errors.append(f"model: {exc}")
            try:
                sim = replicate(
                    row_traffic, cfg.link, row_rtwt, cfg.buffer_packets,
                    cfg.sim, cfg.sim_runs, quantile=cfg.percentile_q,
                )
            except ValueError as exc:
                errors.append(f"sim: {exc}")
        rows.append([
            float(value),
            ana.mean_delay_s if ana else None,
            sim.mean_delay_s if sim else None,
            sim.mean_ci_s if sim else None,
            ana.jitter_s if ana else None,
            sim.jitter_s if sim else None,
            ana.loss_prob if ana else None,
            sim.loss_ratio if sim else None,
            ana.percentile_s if ana else None,
            sim.percentile_s if sim else None,
            abs(ana.percentile_s - sim.percentile_s) if ana and sim else None,
            "; ".join(errors) or None,
        ])
    return rows


def frontier_rows(cfg: RunConfig, targets: list[float], progress=None) -> list[list]:
    """Optimizer selections across QoS targets, one grid pass for all."""
    grid, quantile = cfg.grid, cfg.percentile_q
    if progress is not None:
        progress(f"grid: {len(grid.period_values()) * len(grid.sp_slots_values())} points")
    points = evaluate_grid(cfg.traffic, cfg.link, cfg.buffer_packets, grid, quantile=quantile)
    rows = []
    for indicator in INDICATORS:
        for target in targets:
            choice = select_optimum(
                points, QosConstraint(indicator=indicator, target=target, quantile=quantile)
            )
            rows.append([
                indicator,
                target * 1e3,
                choice.period * 1e3 if choice.period is not None else None,
                choice.sp_slots,
                choice.capacity,
                choice.capacity_floor,
                choice.achieved * 1e3 if choice.achieved is not None else None,
                choice.feasible,
            ])
    return rows


def sweep_periods(period_step: float | None = None) -> list[float]:
    """The periods of the window-period sweep: 1 to 16 ms in `period_step` steps.

    The step defaults to 1 ms.  One that is not > 0, or too small to count
    the range, raises `ConfigError` before any period is built.
    """
    if period_step is None:
        period_step = 1e-3
    elif not period_step > 0:
        raise ConfigError(f"period step must be > 0, got {period_step!r} s")
    try:
        return inclusive_range(1e-3, 16e-3, period_step)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def run_experiment(
    name: str, cfg: RunConfig, period_step: float | None = None, progress=None
) -> list[ExperimentFile]:
    """Produce the CSV bundle for one preset.

    Presets pin their swept and contrasted parameters; slot time, error
    probability, buffer size, percentile level, and simulation settings
    follow the run configuration.
    """
    if name not in EXPERIMENTS:
        raise ValueError(f"experiment must be one of {EXPERIMENTS}, got {name!r}")
    if name == "fig5":
        targets = inclusive_range(1e-3, 30e-3, 1e-3)
        return [ExperimentFile(name, FRONTIER_HEADER, frontier_rows(cfg, targets, progress))]
    periods = sweep_periods(period_step)
    base = RtwtSpec(period=10e-3, sp_slots=3)
    # per preset: swept axis and values, then one (file suffix, retry
    # limit, schedule) per contrasted variant
    presets = {
        "fig2": ("period", periods,
                 [(f"retry{retry}", retry, base) for retry in (1, 3)]),
        "fig3": ("sp_slots", list(range(1, 11)),
                 [(f"retry{retry}", retry, base) for retry in (1, 3)]),
        "fig4": ("interarrival", inclusive_range(5e-3, 16e-3, 1e-3),
                 [(f"sp{sp}", 3, RtwtSpec(period=10e-3, sp_slots=sp)) for sp in (3, 5)]),
    }
    axis, values, variants = presets[name]
    files = []
    for suffix, retry, rtwt in variants:
        variant = dataclasses.replace(
            cfg, link=dataclasses.replace(cfg.link, retry_limit=retry), rtwt=rtwt
        )
        rows = validation_rows(variant, axis, values, progress)
        files.append(ExperimentFile(f"{name}_{suffix}", VALIDATION_HEADER, rows))
    return files
