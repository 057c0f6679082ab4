"""Grid search for the densest feasible schedule, and parameter sweeps."""

import dataclasses
import functools
import gc
import random

import numpy as np
import pytest

from rtwt_planner import (
    LinkSpec,
    ModelError,
    QosConstraint,
    RtwtSpec,
    SearchGrid,
    TrafficSpec,
    evaluate,
    load_config,
    optimize,
)
from rtwt_planner import emit, model, optimizer
from rtwt_planner.experiments import (
    VALIDATION_HEADER,
    run_experiment,
    sweep_point,
    validation_rows,
)
from rtwt_planner.optimizer import (
    INDICATORS,
    RANGE_LIMIT,
    evaluate_grid,
    inclusive_range,
    indicator_value,
    select_optimum,
)
from rtwt_planner.params import slotify, system_capacity

SLOT = 114.4e-6
TABLE_TRAFFIC = TrafficSpec(rate=1.0 / 16e-3, slot_time=SLOT)
TABLE_LINK = LinkSpec(error_prob=0.1, retry_limit=3)

# validation rows run the simulator too; its statistics are tested elsewhere
SMALL_SIM_CFG = load_config(None, ["sim.warmup_packets=100", "sim.measured_packets=2000"])

COARSE = SearchGrid(
    period_min=2e-3, period_max=4e-3, period_step=2e-3, sp_slots_min=1, sp_slots_max=2
)


@functools.cache
def _evaluated(rtwt: RtwtSpec):
    """`evaluate`'s report for one point at the table's mix, a buffer of 20."""
    return evaluate(TABLE_TRAFFIC, TABLE_LINK, rtwt, 20, allow_coarse=True)


class TestGrid:
    def test_default_period_values(self):
        values = SearchGrid().period_values()
        assert len(values) == 156
        assert values[0] == 0.5e-3
        assert values[-1] == pytest.approx(16e-3, rel=1e-12)
        steps = [b - a for a, b in zip(values, values[1:])]
        assert all(s == pytest.approx(0.1e-3, rel=1e-9) for s in steps)

    def test_no_drift_past_maximum(self):
        values = SearchGrid(period_min=1e-3, period_max=2e-3, period_step=0.3e-3).period_values()
        assert values == pytest.approx([1e-3, 1.3e-3, 1.6e-3, 1.9e-3])

    @pytest.mark.parametrize(
        "kw",
        [
            dict(period_min=0.0),
            dict(period_min=5e-3, period_max=4e-3),
            dict(period_step=0.0),
            dict(sp_slots_min=0),
            dict(sp_slots_min=4, sp_slots_max=2),
            dict(period_step=1e-12),
            dict(sp_slots_max=2.5),
            dict(sp_slots_min=1.0),
        ],
    )
    def test_bad_grids_rejected(self, kw):
        with pytest.raises(ValueError):
            SearchGrid(**kw)

    def test_point_limit(self):
        # the points are built before any is solved: a grid of 2**20 periods x
        # windows is refused before it allocates them
        one_period = dict(period_min=1e-3, period_max=1e-3)
        assert SearchGrid(**one_period, sp_slots_max=RANGE_LIMIT - 1).sp_slots_max == RANGE_LIMIT - 1
        with pytest.raises(ValueError, match="fewer than"):
            SearchGrid(**one_period, sp_slots_max=RANGE_LIMIT)
        with pytest.raises(ValueError, match="156 periods x 100000000 window lengths"):
            SearchGrid(sp_slots_max=10**8)

    def test_range_limit(self):
        assert len(inclusive_range(0.0, RANGE_LIMIT - 1.0, 1.0)) == RANGE_LIMIT
        with pytest.raises(ValueError, match="too small"):
            inclusive_range(0.0, float(RANGE_LIMIT), 1.0)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(indicator="p99"),
            dict(target=0.0),
            dict(target=-1e-3),
            dict(quantile=1.0),
        ],
    )
    def test_bad_constraints_rejected(self, kw):
        base = dict(indicator="percentile", target=6e-3)
        with pytest.raises(ValueError):
            QosConstraint(**{**base, **kw})


class TestSelect:
    def test_matches_brute_force_enumeration(self):
        constraint = QosConstraint(indicator="percentile", target=20e-3)
        choice = optimize(TABLE_TRAFFIC, TABLE_LINK, 20, constraint, COARSE)

        candidates = []
        for period in (2e-3, 4e-3):
            for sp_slots in (1, 2):
                report = evaluate(
                    TABLE_TRAFFIC, TABLE_LINK, RtwtSpec(period=period, sp_slots=sp_slots),
                    20, allow_coarse=True,
                )
                if report.percentile_s <= constraint.target:
                    candidates.append((report.capacity, period, sp_slots))
        best_cap, best_period, best_slots = max(candidates, key=lambda c: (c[0], -c[1], -c[2]))
        assert choice.feasible
        assert (choice.period, choice.sp_slots) == (best_period, best_slots)
        assert choice.capacity == best_cap
        assert choice.capacity_floor == int(best_cap)
        assert choice.evaluated_points == 4

    def test_order_independence(self):
        points = evaluate_grid(TABLE_TRAFFIC, TABLE_LINK, 20, COARSE)
        constraint = QosConstraint(indicator="percentile", target=20e-3)
        baseline = select_optimum(points, constraint)
        for seed in range(5):
            shuffled = points.copy()
            random.Random(seed).shuffle(shuffled)
            assert select_optimum(shuffled, constraint) == baseline

    def test_capacity_tie_prefers_shorter_period(self):
        points = evaluate_grid(TABLE_TRAFFIC, TABLE_LINK, 20, COARSE)
        # keep only the two points with identical capacity: 2 ms / 1 slot
        # and 4 ms / 2 slots
        tied = [
            p for p in points
            if (p.period, p.sp_slots) in ((2e-3, 1), (4e-3, 2))
        ]
        assert tied[0].report.capacity == tied[1].report.capacity
        choice = select_optimum(tied, QosConstraint(indicator="percentile", target=30e-3))
        assert choice.feasible
        assert (choice.period, choice.sp_slots) == (2e-3, 1)

    def test_feasible_set_monotone_in_target(self):
        points = evaluate_grid(TABLE_TRAFFIC, TABLE_LINK, 20, COARSE)
        targets = [4e-3, 8e-3, 16e-3, 32e-3]
        choices = [
            select_optimum(points, QosConstraint(indicator="percentile", target=t))
            for t in targets
        ]
        for tight, loose in zip(choices, choices[1:]):
            if tight.feasible:
                assert loose.feasible
                assert loose.capacity >= tight.capacity

    def test_subslot_target_infeasible(self):
        constraint = QosConstraint(indicator="percentile", target=SLOT / 2)
        choice = optimize(TABLE_TRAFFIC, TABLE_LINK, 20, constraint, COARSE)
        assert not choice.feasible
        assert choice.achieved > constraint.target

    def test_infeasible_reports_nearest_point(self):
        constraint = QosConstraint(indicator="percentile", target=SLOT / 2)
        points = evaluate_grid(TABLE_TRAFFIC, TABLE_LINK, 20, COARSE)
        choice = select_optimum(points, constraint)
        best_gap = min(
            abs(indicator_value(p.report, "percentile") - constraint.target) for p in points
        )
        assert not choice.feasible
        assert abs(choice.achieved - constraint.target) == best_gap

    def test_failing_points_not_fatal(self):
        # the 0.05 ms period holds no whole slot and fails to evaluate
        grid = SearchGrid(
            period_min=0.05e-3, period_max=2e-3, period_step=0.65e-3,
            sp_slots_min=1, sp_slots_max=1,
        )
        points = evaluate_grid(TABLE_TRAFFIC, TABLE_LINK, 20, grid)
        assert points[0].report is None
        assert points[0].error
        assert all(p.report is not None for p in points[1:])
        choice = select_optimum(points, QosConstraint(indicator="percentile", target=30e-3))
        assert choice.feasible
        assert choice.evaluated_points == len(points)

    def test_oversized_points_carry_the_message(self, monkeypatch):
        # a 2000-packet buffer needs (2001)^2 cells per transition matrix:
        # every point fails at the size guard, before any chain is built
        def no_chain(*args):
            raise AssertionError("build_chain called for an oversized model")

        monkeypatch.setattr(model, "build_chain", no_chain)
        points = evaluate_grid(TABLE_TRAFFIC, TABLE_LINK, 2000, COARSE)
        assert [(p.period, p.sp_slots) for p in points] == [
            (2e-3, 1), (2e-3, 2), (4e-3, 1), (4e-3, 2)
        ]
        for point in points:
            assert point.report is None
            assert point.error == (
                "model too large: buffer_packets 2000, 35 slot(s) per hyperperiod and "
                "retry limit 3 need 4004001 cells, more than the 1048576 allowed"
            )

    @pytest.mark.parametrize(
        "grid,failed,mixed",
        [
            # 0.05 ms steps against 0.1144 ms slots: neighbouring periods slot
            # to one schedule and periods between slots run as mixed patterns;
            # slotify rejects 0.5 ms (4 slots) and 0.55 ms (a 4-slot cycle)
            # for a 5-slot window
            (SearchGrid(period_min=0.5e-3, period_max=3e-3, period_step=0.05e-3), 2, True),
            # about 16,650 slots: every schedule fails at the size guard
            (SearchGrid(period_min=1.905, period_max=1.9051, period_step=0.02e-3,
                        sp_slots_max=2), 12, False),
        ],
    )
    def test_points_equal_evaluate(self, grid, failed, mixed):
        points = evaluate_grid(TABLE_TRAFFIC, TABLE_LINK, 20, grid, quantile=0.99)
        assert sum(p.report is None for p in points) == failed
        schedules = []
        for point in points:
            rtwt = RtwtSpec(period=point.period, sp_slots=point.sp_slots)
            try:
                direct = evaluate(TABLE_TRAFFIC, TABLE_LINK, rtwt, 20, quantile=0.99,
                                  allow_coarse=True)
            except (ValueError, ModelError) as exc:
                assert point.report is None
                assert point.error == str(exc)
            else:
                assert point.error is None
                assert emit.json_bytes(point.report.to_dict()) == emit.json_bytes(
                    direct.to_dict()
                )
                assert np.array_equal(point.report.pmf.mass, direct.pmf.mass)
            try:
                slotted = slotify(TABLE_TRAFFIC, rtwt, 20, allow_coarse=True)
            except ValueError:
                continue
            schedules.append((slotted.sp_slots, slotted.cycle_pattern))
        assert len(set(schedules)) < len(schedules)  # repeats share one evaluation
        assert any(len(pattern) > 1 for _, pattern in schedules) == mixed

    def test_empty_report_set(self):
        grid = SearchGrid(
            period_min=0.05e-3, period_max=0.05e-3, period_step=1e-3,
            sp_slots_min=1, sp_slots_max=1,
        )
        points = evaluate_grid(TABLE_TRAFFIC, TABLE_LINK, 20, grid)
        choice = select_optimum(points, QosConstraint(indicator="percentile", target=30e-3))
        assert not choice.feasible
        assert choice.period is None
        assert choice.capacity is None

    @pytest.mark.parametrize("indicator", ["mean_delay", "jitter"])
    def test_other_indicators(self, indicator):
        constraint = QosConstraint(indicator=indicator, target=5e-3)
        choice = optimize(TABLE_TRAFFIC, TABLE_LINK, 20, constraint, COARSE)
        assert choice.feasible
        report = evaluate(
            TABLE_TRAFFIC, TABLE_LINK,
            RtwtSpec(period=choice.period, sp_slots=choice.sp_slots), 20, allow_coarse=True,
        )
        assert choice.achieved == indicator_value(report, indicator)
        assert choice.achieved <= constraint.target

    def test_indicator_value_rejects_unknown(self):
        report = evaluate(TABLE_TRAFFIC, TABLE_LINK, RtwtSpec(period=10e-3, sp_slots=3), 20)
        with pytest.raises(ValueError, match="indicator"):
            indicator_value(report, "loss")


def search_targets(points, indicator):
    """Targets below every achieved value, just below the median one, and at each one."""
    achieved = sorted(
        {indicator_value(p.report, indicator) for p in points if p.report is not None}
    )
    median = achieved[len(achieved) // 2]
    return [achieved[0] / 2, float(np.nextafter(median, 0.0)), *achieved]


def failing_delay_pmf(delay_pmf):
    """`delay_pmf` that raises for 1-slot schedules of cycles longer than 30 slots."""

    def failing(stat, batches, slotted):
        if slotted.sp_slots == 1 and slotted.cycle_pattern[0] > 30:
            raise ModelError("injected failure")
        return delay_pmf(stat, batches, slotted)

    return failing


class TestCapacityOrderedSearch:
    """`optimize` stops at the first feasible point in capacity order and still
    returns the choice of `select_optimum` over the whole grid."""

    # periods 1..8 ms against windows 1..4 slots: exact capacity ties such as
    # 2 ms / 1 slot against 4 ms / 2 slots
    TIED = SearchGrid(period_min=1e-3, period_max=8e-3, period_step=1e-3, sp_slots_max=4)
    # the 0.05 ms period holds no whole slot, so its three points fail
    FAILING = SearchGrid(period_min=0.05e-3, period_max=6.55e-3, period_step=0.65e-3,
                         sp_slots_max=3)

    def assert_search_matches_full_pass(self, traffic, link, grid, quantile=0.999):
        points = evaluate_grid(traffic, link, 20, grid, quantile=quantile)
        outcomes = set()
        for indicator in INDICATORS:
            for target in search_targets(points, indicator):
                constraint = QosConstraint(indicator, target, quantile)
                full = select_optimum(points, constraint)
                choice = optimize(traffic, link, 20, constraint, grid)
                assert choice.to_dict() == full.to_dict(), constraint
                outcomes.add(choice.feasible)
        assert outcomes == {True, False}  # chosen points and nearest misses
        return points

    @pytest.mark.parametrize(
        "traffic,link,quantile",
        [
            (TABLE_TRAFFIC, TABLE_LINK, 0.999),
            (TrafficSpec(rate=1.0 / 8e-3, slot_time=SLOT), LinkSpec(0.2, 1), 0.99),
            (TABLE_TRAFFIC, LinkSpec(0.5, 2), 0.9),
            (TrafficSpec(rate=1.0 / 3e-3, slot_time=SLOT), LinkSpec(0.05, 5), 0.9999),
            (TrafficSpec(rate=1.0 / 5e-3, slot_time=SLOT), TABLE_LINK, 0.999),
        ],
    )
    def test_choice_equals_full_pass_with_capacity_ties(self, traffic, link, quantile):
        points = self.assert_search_matches_full_pass(traffic, link, self.TIED, quantile)
        by_point = {(p.period, p.sp_slots): p.report.capacity for p in points}
        assert by_point[(2e-3, 1)] == by_point[(4e-3, 2)]

    @pytest.mark.parametrize("interarrival", [16e-3, 5e-3])
    def test_choice_equals_full_pass_on_the_default_grid(self, interarrival):
        # the targets where slot-0 floors settle the most points: a mean
        # delay target, and an unreachable target of each screened indicator
        traffic = TrafficSpec(rate=1.0 / interarrival, slot_time=SLOT)
        points = evaluate_grid(traffic, TABLE_LINK, 20, SearchGrid())
        for constraint in (
            QosConstraint("mean_delay", 3e-3),
            QosConstraint("percentile", 6e-3),
            QosConstraint("percentile", 0.1e-3),
            QosConstraint("mean_delay", 0.1e-3),
        ):
            choice = optimize(traffic, TABLE_LINK, 20, constraint)
            assert choice.to_dict() == select_optimum(points, constraint).to_dict(), constraint
            assert choice.feasible is (constraint.target > 1e-3)

    def test_choice_equals_full_pass_with_failing_points(self, monkeypatch):
        # long 1-slot schedules, the densest of the grid, fail with a ModelError
        # raised inside a block whose other schedules succeed
        monkeypatch.setattr(model, "delay_pmf", failing_delay_pmf(model.delay_pmf))
        points = self.assert_search_matches_full_pass(TABLE_TRAFFIC, TABLE_LINK, self.FAILING)
        errors = [p.error for p in points if p.report is None]
        assert "injected failure" in errors
        assert any(e.startswith("period 5e-05 s holds 0 slot(s)") for e in errors)

    def test_failing_points_leave_no_reference_cycle(self, monkeypatch):
        # errors are kept without their tracebacks, whose frames would hold
        # the evaluator or the outcome lists in a cycle only the collector frees
        monkeypatch.setattr(model, "delay_pmf", failing_delay_pmf(model.delay_pmf))
        gc.collect()
        gc.disable()
        try:
            points = evaluate_grid(TABLE_TRAFFIC, TABLE_LINK, 20, self.FAILING)
            choice = optimize(
                TABLE_TRAFFIC, TABLE_LINK, 20, QosConstraint("percentile", SLOT / 2), self.FAILING
            )
            errors = {p.error for p in points if p.report is None}
            del points
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert "injected failure" in errors
        assert any(e.startswith("period 5e-05 s holds 0 slot(s)") for e in errors)
        assert not choice.feasible

    def test_bad_quantile_fails_every_solved_point(self):
        # `metrics` rejects the quantile: each point that slots records that
        # error, as a point-by-point evaluation does, and the others their own
        points = evaluate_grid(TABLE_TRAFFIC, TABLE_LINK, 20, self.FAILING, quantile=1.5)
        assert all(p.report is None for p in points)
        for p in points:
            with pytest.raises(ValueError) as alone:
                evaluate(TABLE_TRAFFIC, TABLE_LINK, RtwtSpec(p.period, p.sp_slots), 20,
                         quantile=1.5, allow_coarse=True)
            assert p.error == str(alone.value)
        assert {p.error for p in points if p.period > 0.05e-3} == {
            "quantile must be in (0, 1), got 1.5"
        }

    def test_all_points_failing(self, monkeypatch):
        # every point fails at the size guard, before any chain is built,
        # for a reachable target and for an unreachable one of each screened
        # indicator alike
        def no_chain(*args):
            raise AssertionError("build_chain called for an oversized model")

        monkeypatch.setattr(model, "build_chain", no_chain)
        points = evaluate_grid(TABLE_TRAFFIC, TABLE_LINK, 2000, COARSE)
        for constraint in (
            QosConstraint("percentile", 30e-3),
            QosConstraint("percentile", SLOT / 2),
            QosConstraint("mean_delay", SLOT / 2),
        ):
            choice = optimize(TABLE_TRAFFIC, TABLE_LINK, 2000, constraint, COARSE)
            assert choice.to_dict() == select_optimum(points, constraint).to_dict()
            assert not choice.feasible and choice.period is None
            assert choice.evaluated_points == 4

    @pytest.mark.parametrize("buffer_packets", [2.5, 20.0, 0])
    def test_non_integer_buffer_fails_every_point(self, buffer_packets):
        message = f"buffer_packets must be an integer >= 1, got {buffer_packets}"
        points = evaluate_grid(TABLE_TRAFFIC, TABLE_LINK, buffer_packets, COARSE)
        assert {p.error for p in points} == {message}
        choice = optimize(TABLE_TRAFFIC, TABLE_LINK, buffer_packets,
                          QosConstraint("percentile", 30e-3), COARSE)
        assert not choice.feasible and choice.period is None and choice.evaluated_points == 4

    @pytest.mark.parametrize("indicator", INDICATORS)
    @pytest.mark.parametrize("target", [SLOT / 2, 30e-3])
    def test_lost_link_screens_nothing(self, indicator, target, monkeypatch):
        # every batch is lost: no point has a delay to bound or to report
        floors = []
        reports = model.ScheduleEvaluator.reports

        def spied(self, rtwts):
            outcomes = reports(self, rtwts)
            floors.extend(o for o in outcomes if isinstance(o, model.DelayFloor))
            return outcomes

        monkeypatch.setattr(model.ScheduleEvaluator, "reports", spied)
        link = LinkSpec(1.0, 3)
        constraint = QosConstraint(indicator, target)
        choice = optimize(TABLE_TRAFFIC, link, 20, constraint, self.FAILING)
        points = evaluate_grid(TABLE_TRAFFIC, link, 20, self.FAILING)
        assert choice.to_dict() == select_optimum(points, constraint).to_dict()
        assert not choice.feasible and choice.period is None
        assert floors == []
        assert {p.error for p in points if p.period > 0.05e-3} == {
            "no successful delivery has positive probability"
        }

    @staticmethod
    def spy_floor_forms(monkeypatch):
        """Every floor either form (`model._coarse_floors`,
        `model._checkpoint_floors`) makes, in the order it makes them."""
        made = []

        def spy(form):
            def spied(*args):
                floors = form(*args)
                made.extend(floor for floor in floors if floor is not None)
                return floors
            return spied

        for name in ("_coarse_floors", "_checkpoint_floors"):
            monkeypatch.setattr(model, name, spy(getattr(model, name)))
        return made

    @staticmethod
    def spy_passes(monkeypatch):
        """Each `_outcomes` pass `optimize` reads, as a list of (spec, outcome)."""
        passes = []
        outcomes = optimizer._outcomes

        def spied(evaluator, specs):
            read = []
            passes.append(read)
            for rtwt, outcome in outcomes(evaluator, specs):
                read.append((rtwt, outcome))
                yield rtwt, outcome

        monkeypatch.setattr(optimizer, "_outcomes", spied)
        return passes

    def test_stops_at_the_first_feasible_point(self, monkeypatch):
        passes = self.spy_passes(monkeypatch)
        reachable = optimize(TABLE_TRAFFIC, TABLE_LINK, 20, QosConstraint("percentile", 10e-3))
        assert reachable.feasible
        assert reachable.evaluated_points == 780
        (read,) = passes
        attempted = [rtwt for rtwt, _ in read]
        assert len(attempted) < 780
        assert attempted[-1] == RtwtSpec(reachable.period, reachable.sp_slots)
        capacities = [system_capacity(rtwt, TABLE_TRAFFIC) for rtwt in attempted]
        assert capacities == sorted(capacities, reverse=True)
        # some points ahead of the choice were screened off their stationary states
        assert any(isinstance(outcome, model.DelayFloor) for _, outcome in read)

        passes.clear()
        unreachable = optimize(
            TABLE_TRAFFIC, TABLE_LINK, 20, QosConstraint("percentile", SLOT / 2)
        )
        assert not unreachable.feasible
        assert unreachable.evaluated_points == 780
        # the search reads the whole grid once, in capacity order; the nearest
        # miss re-solves only screened points, each once and fewer than were screened
        search, misses = passes
        attempted = [rtwt for rtwt, _ in search]
        assert len(attempted) == len(set(attempted)) == 780
        capacities = [system_capacity(rtwt, TABLE_TRAFFIC) for rtwt in attempted]
        assert capacities == sorted(capacities, reverse=True)
        screened = {rtwt for rtwt, outcome in search if isinstance(outcome, model.DelayFloor)}
        resolved = [rtwt for rtwt, _ in misses]
        assert len(resolved) == len(set(resolved)) < len(screened)
        assert set(resolved) <= screened
        assert RtwtSpec(unreachable.period, unreachable.sp_slots) in resolved
        assert not any(isinstance(outcome, model.DelayFloor) for _, outcome in misses)

    def test_slotifies_each_spec_once(self, monkeypatch):
        slotified, handed = [], []
        slotify_spec = model.slotify
        reports = model.ScheduleEvaluator.reports

        def counted_slotify(traffic, rtwt, *args, **kwargs):
            slotified.append(rtwt)
            return slotify_spec(traffic, rtwt, *args, **kwargs)

        def counted_reports(self, rtwts):
            handed.extend(rtwts)
            return reports(self, rtwts)

        monkeypatch.setattr(model, "slotify", counted_slotify)
        monkeypatch.setattr(model.ScheduleEvaluator, "reports", counted_reports)
        for target, feasible in ((6e-3, True), (SLOT / 2, False)):
            slotified.clear()
            handed.clear()
            choice = optimize(TABLE_TRAFFIC, TABLE_LINK, 20, QosConstraint("percentile", target))
            assert choice.feasible is feasible
            assert slotified == handed
        # the search hands each grid spec once; the nearest miss hands again
        # only some of them, each once
        search, misses = handed[:780], handed[780:]
        assert len(set(search)) == 780
        assert 0 < len(misses) == len(set(misses)) < 780

    @pytest.mark.parametrize("seed", [1, 2])
    def test_makes_each_power_once(self, seed, monkeypatch):
        # drawn as the benchmark draws its default-grid searches: every
        # block asks its powers of the evaluator's kept `_Powers`, and each
        # distinct vacation length is multiplied out once in the search
        made = []
        product = model._Powers._product

        def counted(self, n):
            made.append((id(self), n))
            return product(self, n)

        monkeypatch.setattr(model._Powers, "_product", counted)
        rng = random.Random(seed)
        traffic = TrafficSpec(rate=1.0 / rng.uniform(8e-3, 16e-3), slot_time=SLOT)
        optimize(traffic, TABLE_LINK, 20, QosConstraint("percentile", rng.uniform(4e-3, 12e-3)))
        assert len(made) > 100
        assert len(made) == len(set(made))

    def test_nearest_miss_reuses_the_search_evaluator(self, monkeypatch):
        # a target no point meets re-solves screened points in full with the
        # search's own evaluator, its screen lifted: one chain and one pair
        # of kept powers serve the whole search
        chains, powers = [], []
        build = model.build_chain

        def counted_build(slotted, batches):
            chains.append(slotted)
            return build(slotted, batches)

        class CountedPowers(model._Powers):
            def __init__(self, matrix):
                powers.append(matrix)
                super().__init__(matrix)

        monkeypatch.setattr(model, "build_chain", counted_build)
        monkeypatch.setattr(model, "_Powers", CountedPowers)
        passes = self.spy_passes(monkeypatch)
        choice = optimize(TABLE_TRAFFIC, TABLE_LINK, 20, QosConstraint("percentile", 0.1e-3))
        assert not choice.feasible
        search, misses = passes
        assert any(isinstance(outcome, model.DelayFloor) for _, outcome in search)
        assert misses and not any(isinstance(outcome, model.DelayFloor) for _, outcome in misses)
        assert len(chains) == 1
        assert len(powers) == 2

    @pytest.mark.parametrize(
        "constraint",
        [
            QosConstraint("percentile", 1.0),
            QosConstraint("jitter", 1.0),
            QosConstraint("mean_delay", 12e-3),
            QosConstraint("percentile", 10e-3),
        ],
    )
    def test_solves_past_the_stop_fewer_than_it_read(self, constraint, monkeypatch):
        blocks, solved = [], []
        reports = model.ScheduleEvaluator.reports
        pmf = model.delay_pmf

        def spied_reports(self, rtwts):
            blocks.append(len(rtwts))
            return reports(self, rtwts)

        def spied_pmf(stat, batches, slotted):
            solved.append(slotted)
            return pmf(stat, batches, slotted)

        monkeypatch.setattr(model.ScheduleEvaluator, "reports", spied_reports)
        passes = self.spy_passes(monkeypatch)
        monkeypatch.setattr(model, "delay_pmf", spied_pmf)
        choice = optimize(TABLE_TRAFFIC, TABLE_LINK, 20, constraint)
        assert choice.feasible
        (read,) = passes
        assert blocks == [min(2**i, optimizer._BLOCK) for i in range(len(blocks))]
        past = sum(blocks) - len(read)
        assert past < optimizer._BLOCK and past <= len(read) - 1
        assert len(solved) <= 2 * len(read) - 1
        if constraint.target == 1.0:  # the densest point already meets it
            assert len(read) == len(solved) == 1

    def test_default_grid_builds_few_pmfs(self, monkeypatch):
        # the points ahead of the choice are screened off their stationary
        # states: 511 PMFs without the screen, 4 with it
        built = []
        pmf = model.delay_pmf

        def spied_pmf(stat, batches, slotted):
            built.append(slotted)
            return pmf(stat, batches, slotted)

        monkeypatch.setattr(model, "delay_pmf", spied_pmf)
        choice = optimize(TABLE_TRAFFIC, TABLE_LINK, 20, QosConstraint("percentile", 6e-3))
        assert choice.feasible
        assert len(built) <= 10

    @pytest.mark.parametrize("interarrival,most", [(16e-3, 10), (5e-3, 20)])
    def test_default_grid_builds_few_slot_rows(self, interarrival, most, monkeypatch):
        # the points ahead of the choice are settled off their slot-0 rows:
        # 511 schedules get slot rows at 16 ms without the floor, and 4 and
        # 14 with it at 16 and 5 ms
        propagated = []
        propagate = model._propagate

        def spied(chains, phi0):
            propagated.extend(chains)
            return propagate(chains, phi0)

        monkeypatch.setattr(model, "_propagate", spied)
        traffic = TrafficSpec(rate=1.0 / interarrival, slot_time=SLOT)
        choice = optimize(traffic, TABLE_LINK, 20, QosConstraint("percentile", 6e-3))
        assert choice.feasible
        assert len(propagated) <= most

    @pytest.mark.parametrize(
        "constraint",
        [
            QosConstraint("percentile", 6e-3),
            QosConstraint("percentile", SLOT / 2),
            QosConstraint("mean_delay", 3e-3),
            QosConstraint("mean_delay", SLOT / 2),
        ],
    )
    def test_floors_stay_below_what_evaluate_reports(self, constraint, monkeypatch):
        # every floor a default optimize reads, for a feasible and for an
        # unreachable target, was read off the slot-0 row and is at most the
        # point's own evaluation
        passes = self.spy_passes(monkeypatch)
        made = self.spy_floor_forms(monkeypatch)
        optimize(TABLE_TRAFFIC, TABLE_LINK, 20, constraint)
        kinds = {id(floor): "slot 0" for floor in made}
        floors = [
            (rtwt, outcome) for read in passes for rtwt, outcome in read
            if isinstance(outcome, model.DelayFloor)
        ]
        assert floors
        assert {kinds[id(floor)] for _, floor in floors} == {"slot 0"}
        for rtwt, floor in floors:
            report = _evaluated(rtwt)
            assert floor.percentile_s <= report.percentile_s
            assert floor.mean_delay_s <= report.mean_delay_s

    def test_screen_reads_each_floor_once(self, monkeypatch):
        # the default search at 16 ms and a 6 ms percentile makes 601 floors
        # and screens each one once, in the order the forms make them: the
        # coarse form's, then the full form's for the schedules the screen
        # turned down
        made = self.spy_floor_forms(monkeypatch)
        screened = []
        evaluator = optimizer.ScheduleEvaluator

        def counting(*args, screen, **kwargs):
            def counted(floor):
                screened.append(floor)
                return screen(floor)
            return evaluator(*args, screen=counted, **kwargs)

        monkeypatch.setattr(optimizer, "ScheduleEvaluator", counting)
        choice = optimize(TABLE_TRAFFIC, TABLE_LINK, 20, QosConstraint("percentile", 6e-3))
        assert choice.feasible and made
        assert [id(floor) for floor in screened] == [id(floor) for floor in made]


class TestBlockInvariance:
    """Grid schedules solved `optimizer._BLOCK` specs at a time give the bytes
    that solving them one spec at a time gives, failures included."""

    # 0.05 ms holds no whole slot and 0.4 ms holds 3, too few for a 4- or
    # 5-slot window (a slotify ValueError each); 0.4-6 ms in 0.35 ms steps
    # mixes one-cycle and multi-cycle patterns
    GRID = SearchGrid(period_min=0.05e-3, period_max=6e-3, period_step=0.35e-3, sp_slots_max=5)
    # reachable and unreachable targets of each indicator, at quantiles 0.9-0.9999
    CONSTRAINTS = [
        QosConstraint("percentile", SLOT / 2),
        QosConstraint("percentile", 4e-3),
        QosConstraint("percentile", 8e-3, 0.99),
        QosConstraint("percentile", SLOT / 2, 0.9999),
        QosConstraint("mean_delay", 2e-3),
        QosConstraint("mean_delay", SLOT / 2, 0.9),
        QosConstraint("jitter", 1e-3, 0.9999),
        QosConstraint("jitter", SLOT / 4),
    ]

    def outputs(self, link, buffer_packets):
        """Point rows and choices; a choice at the points' quantile is the full pass's."""
        points = evaluate_grid(TABLE_TRAFFIC, link, buffer_packets, self.GRID)
        rows = [
            (p.period, p.sp_slots, p.error) if p.report is None else
            (p.period, p.sp_slots, emit.json_bytes(p.report.to_dict()),
             p.report.pmf.mass.tobytes())
            for p in points
        ]
        choices = []
        for c in self.CONSTRAINTS:
            choice = optimize(TABLE_TRAFFIC, link, buffer_packets, c, self.GRID).to_dict()
            if c.quantile == 0.999:
                assert choice == select_optimum(points, c).to_dict(), c
            choices.append(emit.json_bytes(choice))
        return rows, choices

    def assert_block_invariant(self, monkeypatch, link, buffer_packets):
        """Outputs at the default block and at a block of one; returns the errors."""
        sizes = []
        solve = model._stationary_cycles

        def spied(chains, powers=None, settle=None):
            sizes.append(len(chains))
            return solve(chains, powers, settle)

        monkeypatch.setattr(model, "_stationary_cycles", spied)
        blocked = self.outputs(link, buffer_packets)
        assert max(sizes) > 1
        sizes.clear()
        monkeypatch.setattr(optimizer, "_BLOCK", 1)
        assert self.outputs(link, buffer_packets) == blocked
        assert set(sizes) == {1}
        rows = blocked[0]
        assert any(len(row) == 4 for row in rows)  # some point is solved
        return [row[2] for row in rows if len(row) == 3]

    @pytest.mark.parametrize("buffer_packets,retry_limit", [(20, 3), (1, 3), (20, 5)])
    def test_slotify_failures(self, buffer_packets, retry_limit, monkeypatch):
        errors = self.assert_block_invariant(
            monkeypatch, LinkSpec(0.1, retry_limit), buffer_packets
        )
        assert len(errors) == 7
        assert all("fewer than" in e for e in errors)
        cycles = {
            len(slotify(TABLE_TRAFFIC, RtwtSpec(period, 1), 20, True).cycle_pattern)
            for period in self.GRID.period_values()[1:]
        }
        assert {1, 2, 3} <= cycles

    def test_size_guard(self, monkeypatch):
        # 3000 cells pass hyperperiods of up to 47 slots at K=20, R=3, and
        # cap a block at 3000 / (21 x its longest hyperperiod) schedules
        monkeypatch.setattr(model, "MODEL_CELL_LIMIT", 3000)
        errors = self.assert_block_invariant(monkeypatch, TABLE_LINK, 20)
        assert any(e.startswith("model too large: buffer_packets 20, 52 slot(s)") for e in errors)

    def test_error_injected_mid_block(self, monkeypatch):
        monkeypatch.setattr(model, "delay_pmf", failing_delay_pmf(model.delay_pmf))
        errors = self.assert_block_invariant(monkeypatch, TABLE_LINK, 20)
        assert "injected failure" in errors

    @staticmethod
    def swap_chains(monkeypatch):
        # identity windows and swapping vacations: a pattern with an even
        # total of vacation slots folds to the identity, a singular system
        build = model.build_chain
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])

        def swapping(slotted, batches):
            chain = build(slotted, batches)
            return dataclasses.replace(chain, sp_matrix=np.eye(2), vacation_matrix=swap)

        monkeypatch.setattr(model, "build_chain", swapping)

    def test_singular_solve(self, monkeypatch):
        self.swap_chains(monkeypatch)
        errors = self.assert_block_invariant(monkeypatch, LinkSpec(0.0, 1), 1)
        assert "stationary solve failed: Singular matrix" in errors

    def test_singular_solve_leaves_no_reference_cycle(self, monkeypatch):
        # the solve's LinAlgError is kept as the cause without its traceback,
        # whose frames would hold the evaluator in a cycle only the collector frees
        self.swap_chains(monkeypatch)
        link = LinkSpec(0.0, 1)
        gc.collect()
        gc.disable()
        try:
            points = evaluate_grid(TABLE_TRAFFIC, link, 1, self.GRID)
            choices = [optimize(TABLE_TRAFFIC, link, 1, c, self.GRID) for c in self.CONSTRAINTS]
            errors = {p.error for p in points if p.report is None}
            del points
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert "stationary solve failed: Singular matrix" in errors
        assert {c.feasible for c in choices} == {True, False}


class TestSweep:
    """One axis value applied by `sweep_point`, rows built by `validation_rows`."""

    BASE = RtwtSpec(period=10e-3, sp_slots=3)

    def rows(self, axis, values, rtwt=BASE, buffer_packets=20, progress=None):
        cfg = dataclasses.replace(
            SMALL_SIM_CFG, traffic=TABLE_TRAFFIC, link=TABLE_LINK, rtwt=rtwt,
            buffer_packets=buffer_packets,
        )
        return validation_rows(cfg, axis, values, progress)

    def test_single_value_equals_evaluate(self):
        base = RtwtSpec(period=5e-3, sp_slots=3)
        assert sweep_point("period", 10e-3, TABLE_TRAFFIC, base) == (TABLE_TRAFFIC, self.BASE)
        direct = evaluate(TABLE_TRAFFIC, TABLE_LINK, self.BASE, 20, allow_coarse=True)
        (row,) = self.rows("period", [10e-3], base)
        assert row[VALIDATION_HEADER.index("error")] is None
        assert row[VALIDATION_HEADER.index("mean_ana")] == direct.mean_delay_s
        assert row[VALIDATION_HEADER.index("jitter_ana")] == direct.jitter_s
        assert row[VALIDATION_HEADER.index("pctl_ana")] == direct.percentile_s

    def test_rows_keep_axis_order(self):
        values = [12e-3, 4e-3, 8e-3]
        rows = self.rows("period", values)
        assert [r[0] for r in rows] == values
        assert all(len(r) == len(VALIDATION_HEADER) for r in rows)

    def test_bad_value_recorded_in_row(self):
        rows = self.rows("sp_slots", [3, 200])
        assert rows[0][-1] is None
        assert rows[1][VALIDATION_HEADER.index("mean_ana")] is None
        assert "fewer than" in rows[1][-1]

    def test_oversized_model_recorded_in_row(self):
        (row,) = self.rows("period", [10e-3], buffer_packets=2000)
        assert row[VALIDATION_HEADER.index("mean_ana")] is None
        assert row[VALIDATION_HEADER.index("mean_sim")] is not None
        assert row[-1].startswith("model: model too large")

    def test_interarrival_axis(self):
        reports = []
        for interarrival in (8e-3, 16e-3):
            traffic, rtwt = sweep_point("interarrival", interarrival, TABLE_TRAFFIC, self.BASE)
            assert traffic.rate == 1.0 / interarrival and rtwt == self.BASE
            reports.append(evaluate(traffic, TABLE_LINK, rtwt, 20, allow_coarse=True))
        # lighter load must not lengthen delays
        assert reports[0].mean_delay_s >= reports[1].mean_delay_s

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="axis"):
            sweep_point("load", 1.0, TABLE_TRAFFIC, self.BASE)
        started = []
        with pytest.raises(ValueError, match="axis"):
            self.rows("load", [1.0], progress=started.append)
        assert started == []  # rejected before the first row

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError, match=r"^experiment must be one of .*, got 'fig9'$"):
            run_experiment("fig9", SMALL_SIM_CFG)

    def test_window_size_must_be_an_integer(self):
        # a whole number of slots, as a Python or a numpy integer; a fraction
        # is refused rather than truncated, and the refusal lands in its row
        for value in (2, np.int64(2)):
            _, rtwt = sweep_point("sp_slots", value, TABLE_TRAFFIC, self.BASE)
            assert rtwt == RtwtSpec(self.BASE.period, 2) and type(rtwt.sp_slots) is int
        for value in (2.7, 2.0, np.float64(2.0)):
            with pytest.raises(ValueError) as caught:
                sweep_point("sp_slots", value, TABLE_TRAFFIC, self.BASE)
            assert str(caught.value) == f"sp_slots must be an integer, got {value!r}"
        (row,) = self.rows("sp_slots", [2.7])
        assert row[0] == 2.7
        assert row[VALIDATION_HEADER.index("mean_ana")] is None
        assert row[VALIDATION_HEADER.index("mean_sim")] is None
        assert row[-1] == "sp_slots must be an integer, got 2.7"
