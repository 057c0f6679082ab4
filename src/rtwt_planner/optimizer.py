"""Schedule search: densest feasible allocation under a delay-quality bound.

A schedule serving one flow in `sp_slots` slots every `period` seconds
admits as many interleaved flows as its window fits into the period
(`system_capacity`).  The optimizer keeps the capacity-densest point of a
(period, sp_slots) grid whose chosen quality indicator stays below the
target, breaking ties toward the shorter period and then the smaller
window.  Capacity is known before the model is solved, so `optimize` solves
the points in that order and stops at the first feasible one.  For the
percentile and the mean delay it builds no slot rows and no delay PMF for
a point whose `DelayFloor`, where the proof is stated, read off its
checked slot-0 distribution, already exceeds the target.  A target no
point meets re-solves in full only the screened points whose floor could
still beat the best miss, for the nearest miss.  `evaluate_grid` solves
every point, for callers that need them all.  The
search's specs, `QosConstraint` and `SearchGrid`, with `INDICATORS`,
`RANGE_LIMIT` and `inclusive_range`, are defined in `params`, which reads a
run configuration without numpy, and imported back here.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass, replace

from .model import DelayFloor, MetricsReport, ScheduleEvaluator
from .params import (
    INDICATORS,
    RANGE_LIMIT,
    LinkSpec,
    QosConstraint,
    RtwtSpec,
    SearchGrid,
    TrafficSpec,
    inclusive_range,
    system_capacity,
)

# Most grid specs whose schedules are solved together, one stacked product
# per slot step: a larger block steps more schedules at once and pays the
# floors' fixed cost per block for more of them, but solves more past the
# first feasible point.  Against 32, in batches of 20-30 alternating
# in-process rounds of 4-8 drawn default-grid optimizes on a 2-core x86 box,
# 64 took a median 1.03-1.08 of its time at K=1, 0.87 at K=5, 0.89 at K=10
# and 0.93-0.94 at K=20, but 1.16 at K=40 and 1.26 at K=60; at K=40, 16, 24
# and 48 took 1.05-1.16, and at K=60, 4, 8 and 16 took 1.80, 1.12 and 1.06.
# A cell budget over S^2 (S = `chain_states(K, R)`) that gives 64 at K=20
# gives 16 at K=40 and 7 at K=60, so no such budget beats 32 at every buffer.
# `_outcomes` grows its blocks up to this.
_BLOCK = 32


@dataclass(frozen=True, eq=False)
class GridPoint:
    """One evaluated (period, sp_slots) candidate."""

    period: float
    sp_slots: int
    report: MetricsReport | None  # None when evaluation failed
    error: str | None = None


@dataclass(frozen=True)
class OptimalChoice:
    """Search outcome: the densest feasible point, or the nearest miss."""

    feasible: bool
    period: float | None
    sp_slots: int | None
    capacity: float | None
    capacity_floor: int | None  # whole flows; capacity reported both ways
    achieved: float | None  # indicator value at the chosen point, seconds
    indicator: str
    target: float
    quantile: float
    evaluated_points: int  # grid points in the search, failed ones included

    def to_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "period_s": self.period,
            "sp_slots": self.sp_slots,
            "capacity": self.capacity,
            "capacity_floor": self.capacity_floor,
            "achieved_s": self.achieved,
            "indicator": self.indicator,
            "target_s": self.target,
            "quantile": self.quantile,
            "evaluated_points": self.evaluated_points,
        }


def indicator_value(report: MetricsReport | DelayFloor, indicator: str) -> float:
    """The indicator's value in seconds: a report's, or a floor's lower bound on it."""
    if indicator == "percentile":
        return report.percentile_s
    if indicator == "mean_delay":
        return report.mean_delay_s
    if indicator == "jitter":
        return report.jitter_s
    raise ValueError(f"indicator must be one of {INDICATORS}, got {indicator!r}")


def evaluate_grid(
    traffic: TrafficSpec,
    link: LinkSpec,
    buffer_packets: int,
    grid: SearchGrid,
    quantile: float = 0.999,
) -> list[GridPoint]:
    """Model evaluation of every grid point; failures land in the point record.

    Points whose period lies far from a whole number of slots are still
    evaluated, as the mixed cycle pattern of `slotify` (the opt-in is
    implied by a grid search).  Points that slot to the same schedule
    (window length and cycle pattern) share one evaluation: each gets its
    own report, since capacity depends on the period, but their reports may
    hold one and the same `DelayPmf` object, and a failing schedule gives
    each of its points the same error.  Each run of points, in grid order,
    is one `ScheduleEvaluator.reports` call, which solves the run's distinct
    schedules as one block (runs of 1, 2, 4, ... up to `_BLOCK` points);
    every report and error is the one `evaluate` gives for the point alone.
    """
    evaluator = ScheduleEvaluator(traffic, link, buffer_packets, quantile, allow_coarse=True)
    return [_point(rtwt, outcome) for rtwt, outcome in _outcomes(evaluator, _grid_specs(grid))]


def _grid_specs(grid: SearchGrid) -> tuple[RtwtSpec, ...]:
    """The grid's points, period by period."""
    return tuple(
        RtwtSpec(period=period, sp_slots=sp_slots)
        for period in grid.period_values()
        for sp_slots in grid.sp_slots_values()
    )


# the last grid's order is kept: about 110 B per point, at most RANGE_LIMIT points
@functools.lru_cache(maxsize=1)
def _densest_first(grid: SearchGrid, slot_time: float) -> tuple[RtwtSpec, ...]:
    """The grid's points in the order `optimize` solves them, densest first
    (`_density_key`); made once per grid and slot time."""
    # capacity as metrics() reports it, so ties break as select_optimum breaks them
    traffic = TrafficSpec(rate=0.0, slot_time=slot_time)
    return tuple(sorted(
        _grid_specs(grid),
        key=lambda r: _density_key(system_capacity(r, traffic), r.period, r.sp_slots),
        reverse=True,
    ))


def _outcomes(
    evaluator: ScheduleEvaluator, specs: list[RtwtSpec]
) -> Iterator[tuple[RtwtSpec, MetricsReport | DelayFloor | Exception]]:
    """Each spec with its `ScheduleEvaluator.reports` outcome, solved a block of specs ahead.

    The evaluator's own `allow_coarse` and `screen` apply.  Blocks grow 1,
    2, 4, ... specs up to `_BLOCK`, so a caller that stops reading early has
    had at most as many specs solved past its stop as it read.
    """
    start, size = 0, 1
    while start < len(specs):
        block = specs[start : start + size]
        yield from zip(block, evaluator.reports(block))
        start, size = start + size, min(2 * size, _BLOCK)


def _point(rtwt: RtwtSpec, outcome: MetricsReport | Exception) -> GridPoint:
    if isinstance(outcome, Exception):
        return GridPoint(rtwt.period, rtwt.sp_slots, None, str(outcome))
    return GridPoint(rtwt.period, rtwt.sp_slots, outcome)


def _density_key(capacity: float, period: float, sp_slots: int) -> tuple:
    """How feasible points rank, densest last: capacity, shorter period, smaller window."""
    return (capacity, -period, -sp_slots)


def _miss_key(achieved: float, target: float, period: float, sp_slots: int) -> tuple:
    """How misses rank, nearest first: distance to target, shorter period, smaller window."""
    return (abs(achieved - target), period, sp_slots)


def select_optimum(points: list[GridPoint], constraint: QosConstraint) -> OptimalChoice:
    """Pick the densest feasible point (`_density_key`), whatever the order of
    `points`.  With no feasible point the choice reports feasible=False and
    carries the nearest miss (`_miss_key`).
    """
    scored = [  # (period, sp_slots, achieved, capacity)
        (pt.period, pt.sp_slots, indicator_value(pt.report, constraint.indicator),
         pt.report.capacity)
        for pt in points
        if pt.report is not None
    ]
    feasible = [s for s in scored if s[2] <= constraint.target]
    if feasible:
        chosen = max(feasible, key=lambda s: _density_key(s[3], s[0], s[1]))
    elif scored:
        chosen = min(scored, key=lambda s: _miss_key(s[2], constraint.target, s[0], s[1]))
    else:
        chosen = (None, None, None, None)
    period, sp_slots, achieved, cap = chosen
    return OptimalChoice(
        feasible=bool(feasible), period=period, sp_slots=sp_slots, capacity=cap,
        capacity_floor=None if cap is None else int(math.floor(cap)), achieved=achieved,
        indicator=constraint.indicator, target=constraint.target,
        quantile=constraint.quantile, evaluated_points=len(points),
    )


def optimize(
    traffic: TrafficSpec,
    link: LinkSpec,
    buffer_packets: int,
    constraint: QosConstraint,
    grid: SearchGrid = SearchGrid(),
) -> OptimalChoice:
    """The densest grid schedule meeting the constraint, or the nearest miss.

    Points are solved densest first, in the order `select_optimum` ranks
    feasible points (`_density_key`), so the first feasible point is the
    choice and the search stops there.  The choice is `select_optimum` over
    the points solved, which is the choice over the whole grid;
    `evaluated_points` counts the whole grid.
    The schedules of each run of points in that order are solved as one
    block, runs of 1, 2, 4, ... up to `_BLOCK` points, so the points solved
    past the choice and left unread never outnumber the points read, nor
    reach `_BLOCK`; the choice is the one a point-by-point search makes.

    For the percentile and the mean delay, a point whose `DelayFloor` (the
    least value the indicator can take there, in seconds, read off its
    slot-0 distribution) exceeds the target misses and builds no slot rows
    and no delay PMF.  That distribution is checked first, for balance
    against its own cycle pattern, mass and sign; one that fails is solved
    in full, and the point gets its error there.  Jitter has no floor: every point
    is solved in full for it.  A target no point meets takes its nearest
    miss from the points solved in full and from screened points re-solved
    in full by the same evaluator, its screen lifted, in the order of their
    floors, while one could still rank ahead of the best miss found.
    """
    indicator, target = constraint.indicator, constraint.target
    screen = None if indicator == "jitter" else (
        lambda floor: indicator_value(floor, indicator) > target
    )
    evaluator = ScheduleEvaluator(
        traffic, link, buffer_packets, constraint.quantile, allow_coarse=True, screen=screen
    )
    specs = _densest_first(grid, traffic.slot_time)
    solved, screened = [], []
    for rtwt, outcome in _outcomes(evaluator, specs):
        if isinstance(outcome, DelayFloor):
            screened.append((rtwt, outcome))
            continue
        point = _point(rtwt, outcome)
        solved.append(point)
        if point.report is not None and indicator_value(point.report, indicator) <= target:
            break
    else:
        solved += _nearest_misses(evaluator, screened, solved, constraint)
    return replace(select_optimum(solved, constraint), evaluated_points=len(specs))


def _nearest_misses(
    evaluator: ScheduleEvaluator,
    screened: list[tuple[RtwtSpec, DelayFloor]],
    solved: list[GridPoint],
    constraint: QosConstraint,
) -> list[GridPoint]:
    """The screened points that could be the nearest miss, solved in full.

    `evaluator` kept each screened point's floor as its outcome; with its
    screen lifted here, it solves them in full with the search's chain and
    powers.  With no feasible point, `select_optimum` takes the least
    `_miss_key`, whose distance to the target never falls as the value
    grows past it.  A screened point's key is at least the key of its
    floor, so the points are re-solved in that order while that key does
    not exceed the best key of a miss solved in full.
    """
    def key(rtwt: RtwtSpec | GridPoint, outcome: MetricsReport | DelayFloor) -> tuple:
        value = indicator_value(outcome, constraint.indicator)
        return _miss_key(value, constraint.target, rtwt.period, rtwt.sp_slots)

    best = min((key(p, p.report) for p in solved if p.report is not None), default=None)
    lows = sorted(key(rtwt, floor) for rtwt, floor in screened)
    lows = [low for low in lows if best is None or low <= best]
    specs = [RtwtSpec(period, sp_slots) for _, period, sp_slots in lows]
    evaluator.screen = None
    resolved = []
    for low, (rtwt, outcome) in zip(lows, _outcomes(evaluator, specs)):
        if best is not None and low > best:
            break
        point = _point(rtwt, outcome)
        resolved.append(point)
        if point.report is not None:
            exact = key(point, point.report)
            best = exact if best is None else min(best, exact)
    return resolved
