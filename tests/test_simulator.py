"""Event-driven simulator: determinism, conservation, trace invariants."""

import csv
import dataclasses
import math
from collections import deque

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rtwt_planner import (
    LinkSpec,
    RtwtSpec,
    SimConfig,
    SimTimeLimitError,
    TrafficSpec,
    evaluate,
    replicate,
    simulate,
)
from rtwt_planner import simulator
from rtwt_planner.simulator import SpSchedule, _t_critical_975

import sim_oracle

SLOT = 114.4e-6
TABLE_TRAFFIC = TrafficSpec(rate=1.0 / 16e-3, slot_time=SLOT)
TABLE_LINK = LinkSpec(error_prob=0.1, retry_limit=3)
TABLE_RTWT = RtwtSpec(period=10e-3, sp_slots=3)


def small_sim(seed=7, warmup=500, measured=20_000, **kw):
    return SimConfig(seed=seed, warmup_packets=warmup, measured_packets=measured, **kw)


def separate_runs(cfg, n_runs):
    """The runs `replicate` pools, each simulated on its own."""
    return [
        simulate(
            TABLE_TRAFFIC, TABLE_LINK, TABLE_RTWT, 20, dataclasses.replace(cfg, seed=cfg.seed + i)
        )
        for i in range(n_runs)
    ]


# (period, sp_slots): whole, single-slot, off-grid, window = period, long windows
SHAPES = [(10e-3, 3), (1e-3, 1), (0.73e-3, 2), (2 * SLOT, 2), (16e-3, 5)]
# where in window w a time sits, nominally: first the places whose attempt
# fits, then the late ones; "ulp" steps one float up or down
FITTING = ["start", "start+ulp", "inside", "last_fit-ulp", "last_fit", "last_fit+ulp"]
LATE = ["vacation", "end-ulp", "start-ulp"]


def place(schedule, window, kind, share):
    """A time of the given kind in window `window`; `share` places it inside a span."""
    start = window * schedule.period
    end = start + schedule.sp_len
    last_fit = end - SLOT
    return {
        "start": start,
        "start+ulp": math.nextafter(start, math.inf),
        "inside": start + share * (schedule.sp_len - SLOT),
        "last_fit-ulp": math.nextafter(last_fit, -math.inf),
        "last_fit": last_fit,
        "last_fit+ulp": math.nextafter(last_fit, math.inf),
        # strictly between the last fitting instant and the next window
        "vacation": last_fit + (0.01 + 0.98 * share) * (schedule.period - schedule.sp_len + SLOT),
        "end-ulp": math.nextafter(end, -math.inf),
        "start-ulp": math.nextafter(start, -math.inf),
    }[kind]


def read_trace(path):
    with open(path) as handle:
        rows = list(csv.DictReader(handle))
    return [(float(r["time_s"]), r["event"], int(r["queue_len"])) for r in rows]


class TestDeterminism:
    def test_same_seed_identical(self):
        first = simulate(TABLE_TRAFFIC, TABLE_LINK, TABLE_RTWT, 20, small_sim())
        second = simulate(TABLE_TRAFFIC, TABLE_LINK, TABLE_RTWT, 20, small_sim())
        assert first.to_dict() == second.to_dict()

    def test_same_seed_identical_samples(self):
        cfg = small_sim(measured=5_000, keep_samples=True)
        first = simulate(TABLE_TRAFFIC, TABLE_LINK, TABLE_RTWT, 20, cfg)
        second = simulate(TABLE_TRAFFIC, TABLE_LINK, TABLE_RTWT, 20, cfg)
        assert np.array_equal(first.samples, second.samples)

    def test_different_seeds_differ(self):
        first = simulate(TABLE_TRAFFIC, TABLE_LINK, TABLE_RTWT, 20, small_sim(seed=1))
        second = simulate(TABLE_TRAFFIC, TABLE_LINK, TABLE_RTWT, 20, small_sim(seed=2))
        assert first.mean_delay_s != second.mean_delay_s

    def test_replicate_single_run_degenerates(self):
        alone = simulate(TABLE_TRAFFIC, TABLE_LINK, TABLE_RTWT, 20, small_sim())
        wrapped = replicate(TABLE_TRAFFIC, TABLE_LINK, TABLE_RTWT, 20, small_sim(), n_runs=1)
        assert alone.to_dict() == wrapped.to_dict()

    def test_replicate_aggregates(self):
        cfg = small_sim(measured=10_000)
        pooled = replicate(TABLE_TRAFFIC, TABLE_LINK, TABLE_RTWT, 20, cfg, n_runs=3)
        parts = separate_runs(cfg, 3)
        assert pooled.runs == 3
        assert pooled.delivered == sum(p.delivered for p in parts)
        assert pooled.lost_retry == sum(p.lost_retry for p in parts)
        assert pooled.mean_delay_s == pytest.approx(
            np.mean([p.mean_delay_s for p in parts]), rel=1e-12
        )
        means = np.array([p.mean_delay_s for p in parts])
        crit = float(scipy.stats.t.ppf(0.975, 2))
        assert pooled.mean_ci_s == float(crit * means.std(ddof=1) / math.sqrt(3))

    def test_one_delivery_has_no_spread(self):
        report = simulate(
            TABLE_TRAFFIC, TABLE_LINK, TABLE_RTWT, 20, small_sim(measured=1, keep_samples=True)
        )
        (delay,) = report.samples
        assert report.mean_delay_s == report.percentile_s == delay
        for spread in ("mean_ci_s", "jitter_s", "jitter_ci_s", "percentile_ci_s"):
            assert math.isnan(getattr(report, spread)), spread

    def test_replicate_keeps_undefined_statistics_nan(self):
        # one delivery per run: the means pool, each run's jitter is NaN
        cfg = small_sim(measured=1)
        pooled = replicate(TABLE_TRAFFIC, TABLE_LINK, TABLE_RTWT, 20, cfg, n_runs=3)
        means = np.array([p.mean_delay_s for p in separate_runs(cfg, 3)])
        assert pooled.mean_delay_s == float(means.mean())
        assert math.isnan(pooled.jitter_s) and math.isnan(pooled.jitter_ci_s)

    def test_replicate_joins_samples_in_run_order(self):
        cfg = small_sim(measured=2_000, keep_samples=True)
        pooled = replicate(TABLE_TRAFFIC, TABLE_LINK, TABLE_RTWT, 20, cfg, n_runs=3)
        parts = separate_runs(cfg, 3)
        assert np.array_equal(pooled.samples, np.concatenate([p.samples for p in parts]))

    def test_t_critical_matches_scipy_stats(self):
        # scipy.stats is the oracle here only; the package avoids importing
        # it.  df 1-63 read the table, 64 and up call stdtrit.
        for df in [*range(1, 64), 64, 65, 200]:
            assert _t_critical_975(df) == float(scipy.stats.t.ppf(0.975, df)), df

    def test_t_critical_table_does_not_wrap(self):
        # a df of 0 has no finite quantile; a negative index would read the table
        assert math.isnan(_t_critical_975(0))

    def test_disjoint_seed_ranges_statistically_consistent(self):
        cfg = dict(warmup_packets=2_000, measured_packets=100_000)
        low = replicate(
            TABLE_TRAFFIC, TABLE_LINK, TABLE_RTWT, 20, SimConfig(seed=100, **cfg), n_runs=2
        )
        high = replicate(
            TABLE_TRAFFIC, TABLE_LINK, TABLE_RTWT, 20, SimConfig(seed=900, **cfg), n_runs=2
        )
        assert abs(low.mean_delay_s - high.mean_delay_s) <= low.mean_ci_s + high.mean_ci_s


class TestDegenerateChannels:
    def test_zero_rate(self):
        silent = TrafficSpec(rate=0.0, slot_time=SLOT)
        report = simulate(silent, TABLE_LINK, TABLE_RTWT, 20, small_sim())
        assert report.offered == 0
        assert report.delivered == 0
        assert math.isnan(report.mean_delay_s)

    def test_never_succeeding_channel(self):
        hopeless = LinkSpec(error_prob=1.0, retry_limit=2)
        cfg = SimConfig(seed=3, warmup_packets=0, measured_packets=10, max_sim_time=30.0)
        report = simulate(TABLE_TRAFFIC, hopeless, TABLE_RTWT, 20, cfg)
        assert report.delivered == 0
        assert report.lost_retry == report.offered > 0

    def test_time_budget_exhaustion_raises(self):
        cfg = SimConfig(seed=3, warmup_packets=0, measured_packets=10**6, max_sim_time=2.0)
        with pytest.raises(SimTimeLimitError, match="time cap"):
            simulate(TABLE_TRAFFIC, TABLE_LINK, TABLE_RTWT, 20, cfg)

    def test_error_free_channel_single_attempts(self):
        clean = LinkSpec(error_prob=0.0, retry_limit=3)
        report = simulate(TABLE_TRAFFIC, clean, TABLE_RTWT, 20, small_sim(measured=2_000))
        assert report.lost_retry == 0
        assert report.delivered == 2_000


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    path = tmp_path_factory.mktemp("trace") / "events.csv"
    cfg = SimConfig(seed=11, warmup_packets=0, measured_packets=3_000)
    report = simulate(TABLE_TRAFFIC, TABLE_LINK, TABLE_RTWT, 4, cfg, trace_path=path)
    return report, read_trace(path)


class TestTraceInvariants:
    def test_attempts_stay_inside_windows(self, traced):
        _, rows = traced
        period, sp_len = TABLE_RTWT.period, TABLE_RTWT.sp_slots * SLOT
        seen = 0
        for t, event, _ in rows:
            if event != "attempt_start":
                continue
            seen += 1
            position = math.fmod(t, period)
            if position > period - 1e-9:  # boundary noise wraps to ~period
                position = 0.0
            assert position <= sp_len - SLOT + 1e-9
        assert seen > 3_000

    def test_attempt_budget_respected(self, traced):
        _, rows = traced
        pending = 0
        for _, event, _ in rows:
            if event == "attempt_start":
                pending += 1
            elif event == "attempt_ok":
                assert 1 <= pending <= TABLE_LINK.retry_limit
                pending = 0
            elif event == "drop_retry":
                assert pending == TABLE_LINK.retry_limit
                pending = 0
        assert pending == 0

    def test_packet_conservation(self, traced):
        report, rows = traced
        kinds = [event for _, event, _ in rows]
        arrivals = kinds.count("arrival")
        assert arrivals == report.offered
        assert kinds.count("attempt_ok") == report.delivered
        assert kinds.count("drop_retry") == report.lost_retry
        assert kinds.count("drop_overflow") == report.lost_overflow
        assert report.offered == report.delivered + report.lost_retry + report.lost_overflow

    def test_queue_length_never_negative_or_overfull(self, traced):
        _, rows = traced
        occupancy = [q for _, _, q in rows]
        assert min(occupancy) >= 0
        assert max(occupancy) <= 4

    def test_window_markers_periodic(self, traced):
        _, rows = traced
        starts = [t for t, event, _ in rows if event == "sp_start"]
        ends = [t for t, event, _ in rows if event == "sp_end"]
        assert len(starts) == len(ends)
        gaps = np.diff(starts)
        assert np.allclose(gaps, TABLE_RTWT.period, atol=1e-9)
        assert np.allclose(
            np.array(ends) - np.array(starts), TABLE_RTWT.sp_slots * SLOT, atol=1e-9
        )

    def test_events_time_ordered(self, traced):
        _, rows = traced
        times = [t for t, _, _ in rows]
        assert times == sorted(times)

    def test_trace_needs_single_run(self, tmp_path):
        with pytest.raises(ValueError, match="n_runs = 1"):
            replicate(
                TABLE_TRAFFIC, TABLE_LINK, TABLE_RTWT, 20, small_sim(),
                n_runs=2, trace_path=tmp_path / "t.csv",
            )


class TestStatisticalAgreement:
    def test_loss_ratio_matches_channel(self):
        report = simulate(
            TABLE_TRAFFIC, TABLE_LINK, TABLE_RTWT, 20,
            SimConfig(seed=12345, warmup_packets=10_000, measured_packets=200_000),
        )
        expected = 0.1**3
        spread = math.sqrt(expected * (1 - expected) / (report.delivered + report.lost_retry))
        assert abs(report.loss_ratio - expected) <= 3 * spread

    def test_huge_buffer_never_overflows(self):
        report = simulate(
            TABLE_TRAFFIC, TABLE_LINK, TABLE_RTWT, 1_000, small_sim(measured=100_000)
        )
        assert report.lost_overflow == 0

    def test_mean_close_to_analytic_model(self):
        report = simulate(TABLE_TRAFFIC, TABLE_LINK, TABLE_RTWT, 20, small_sim(measured=200_000))
        model = evaluate(TABLE_TRAFFIC, TABLE_LINK, TABLE_RTWT, 20)
        assert report.mean_delay_s == pytest.approx(model.mean_delay_s, rel=0.05)


class TestSpSchedule:
    def chained_times(self, schedule, count=400):
        """Follow back-to-back services; boundary-exact times show up fast."""
        completion = schedule.scalar_completion()
        t, out = 0.0, []
        for i in range(count):
            t = completion(t, 1 + i % 3)
            out.append(t)
        return np.array(out)

    @pytest.mark.parametrize(
        "period,sp_slots",
        [(10e-3, 3), (1e-3, 1), (2 * SLOT, 2)],
    )
    def test_window_start_brackets_time(self, period, sp_slots):
        schedule = SpSchedule(RtwtSpec(period=period, sp_slots=sp_slots), SLOT)
        times = self.chained_times(schedule)
        starts, following = schedule.window_start(times)
        assert following.tobytes() == (starts + period).tobytes()
        assert np.all(starts <= times)
        assert np.all(times < starts + period)
        cycles = np.round(starts / period)
        assert starts == pytest.approx(cycles * period, abs=1e-12)

    @pytest.mark.parametrize(
        "period,sp_slots",
        [(10e-3, 3), (1e-3, 1), (16e-3, 5)],
    )
    def test_completion_never_skips_windows(self, period, sp_slots):
        # a single attempt is never more than one vacation away; the historic
        # failure mode here was a 29-period jump from one-ulp window drift
        schedule = SpSchedule(RtwtSpec(period=period, sp_slots=sp_slots), SLOT)
        completion = schedule.scalar_completion()
        t = [0.0]
        for _ in range(1_000):
            t.append(completion(t[-1], 1))
        t = np.array(t)
        fit, _ = schedule._fit(t[:-1])
        done = schedule.completion(t[:-1], np.ones(t.size - 1, dtype=np.int64))
        assert np.array_equal(done, t[1:])
        assert done == pytest.approx(fit + SLOT, abs=1e-12)
        assert np.all(done - t[:-1] <= period + SLOT + 1e-9)

    @settings(max_examples=200, deadline=None)
    @given(
        windows=st.integers(0, 500),
        within=st.floats(0.0, 1.0),
        attempts=st.integers(1, 9),
    )
    def test_completion_spans_expected_windows(self, windows, within, attempts):
        schedule = SpSchedule(TABLE_RTWT, SLOT)
        t = windows * schedule.period + within * schedule.period
        done = schedule.completion(np.array([t]), np.array([attempts]))[0]
        assert done >= t + attempts * SLOT - 1e-9
        # attempts slots of service plus at most one vacation per window the
        # batch can spill into
        spills = (attempts - 1) // schedule.slots + 1
        assert done <= t + spills * schedule.period + attempts * SLOT + 1e-9

    @settings(max_examples=300, deadline=None)
    @given(
        shape=st.sampled_from([(10e-3, 3), (1e-3, 1), (0.73e-3, 2), (2 * SLOT, 2), (16e-3, 5)]),
        window=st.integers(0, 10**7),
        attempts=st.integers(1, 12),
    )
    def test_array_and_scalar_completion_agree_at_boundaries(self, shape, window, attempts):
        """Bit for bit, on each edge of a window and of its last fitting
        attempt, and one ulp to either side of it."""
        period, sp_slots = shape
        schedule = SpSchedule(RtwtSpec(period=period, sp_slots=sp_slots), SLOT)
        start = window * period
        edges = np.array([start, start + schedule.sp_len - SLOT, start + schedule.sp_len])
        times = np.concatenate([np.nextafter(edges, -np.inf), edges, np.nextafter(edges, np.inf)])
        times = times[times >= 0.0]
        counts = np.full(times.size, attempts)
        scalar = schedule.scalar_completion()
        expected = np.array([scalar(t, attempts) for t in times.tolist()])
        assert np.array_equal(schedule.completion(times, counts), expected)
        loop = sim_oracle.ScalarSchedule(RtwtSpec(period=period, sp_slots=sp_slots), SLOT)
        assert np.array_equal([loop.completion(t, attempts) for t in times.tolist()], expected)

    @settings(max_examples=150, deadline=None)
    @given(
        shape=st.sampled_from(SHAPES),
        late=st.sampled_from(["none", "some", "all"]),
        spill=st.sampled_from(["none", "some"]),
        data=st.data(),
    )
    def test_array_completion_branches(self, shape, late, spill, data):
        """Bit for bit against the scalar closure, on arrays where no time,
        some or every time is late for its window and no packet or only some
        spill past it."""
        rtwt = RtwtSpec(*shape)
        schedule = SpSchedule(rtwt, SLOT)
        loop = sim_oracle.ScalarSchedule(rtwt, SLOT)
        kinds = {"none": FITTING, "some": FITTING + LATE, "all": LATE}[late]
        least = 2 if "some" in (late, spill) else 0
        cases = data.draw(st.lists(
            st.tuples(st.integers(1, 10**7), st.sampled_from(kinds), st.floats(0.0, 1.0),
                      st.integers(1, 12)),
            min_size=least, max_size=200,
        ))
        times = np.array([place(schedule, *case[:3]) for case in cases], dtype=float)
        counts = np.array([case[3] for case in cases], dtype=np.int64)
        # which times are late, and how many attempts fit, per the scalar loop:
        # far out, float window starts leave an edge one ulp off its kind
        moved, fits = [], []
        for t in times.tolist():
            begin, window = loop.fit(t)
            moved.append(begin != t)
            fits.append(math.floor((window + loop.sp_len - begin) / SLOT + 1e-6))
        moved, fits = np.array(moved, dtype=bool), np.array(fits, dtype=np.int64)
        keep = {"none": ~moved, "some": np.ones_like(moved), "all": moved}[late]
        times, counts, moved, fits = times[keep], counts[keep], moved[keep], fits[keep]
        assume(times.size >= least)
        if late == "some":
            assume(moved.any() and not moved.all())
        if spill == "none":
            counts = np.minimum(counts, fits)
        else:  # the first packet fits, the last spills
            counts[0], counts[-1] = 1, max(counts[-1], fits[-1] + 1)
        spills = counts > fits
        assert not spills.any() if spill == "none" else spills.any() and not spills.all()
        scalar = schedule.scalar_completion()
        expected = np.array([scalar(t, c) for t, c in zip(times.tolist(), counts.tolist())],
                            dtype=float)
        given_times = times.copy()
        start, following = schedule.window_start(times)
        assert following.tobytes() == (start + schedule.period).tobytes()
        done = schedule.completion(times, counts)
        assert done.tobytes() == expected.tobytes()
        assert times.tobytes() == given_times.tobytes()  # the input is left as it was

    def test_window_must_hold_one_attempt(self):
        with pytest.raises(ValueError, match="does not fit"):
            SpSchedule(RtwtSpec(period=SLOT / 2, sp_slots=1), SLOT)


def burst(at, count, attempts):
    """`count` packets a microsecond apart from `at`, each taking `attempts`."""
    return at + 1e-6 * np.arange(count), np.full(count, attempts, dtype=np.int64)


def chain_at_the_end(buffer_packets):
    """Ten packets the server is idle for, then a busy chain that runs to the last."""
    idle, used = TABLE_RTWT.period * np.arange(10) + 5e-3, np.ones(10, dtype=np.int64)
    tail, more = burst(10 * TABLE_RTWT.period + 5e-3, 5, 2)
    return np.concatenate((idle, tail)), np.concatenate((used, more)), np.empty(0)


def all_waiting(buffer_packets):
    """A burst in a vacation: every packet after the first finds the server busy."""
    return (*burst(5e-3, 12, 2), np.empty(0))


def carried_queue(buffer_packets):
    """A burst whose first four packets, or as many as the buffer holds, are
    still in the system when the rest arrive."""
    arrivals, attempts = burst(5e-3, 12, 3)
    in_flight = deque()
    simulator._stepper(SpSchedule(TABLE_RTWT, SLOT), buffer_packets)(
        arrivals[:4].tolist(), attempts[:4].tolist(), in_flight, 4)
    return arrivals[4:], attempts[4:], np.array(in_flight)


def arrival_at_a_departure(buffer_packets):
    """Three packets in the system, then two arrivals at the instant the first
    leaves: a departure at an arrival's instant comes first."""
    arrivals, _ = burst(5e-3, 3, 1)
    first_leave = SpSchedule(TABLE_RTWT, SLOT).scalar_completion()(float(arrivals[0]), 1)
    return np.append(arrivals, [first_leave] * 2), np.ones(5, dtype=np.int64), np.empty(0)


class TestSettle:
    """`_settle` against the per-packet stepper on the same packets: the leave
    times of its exact prefix, and where that prefix ends."""

    @staticmethod
    def stepped(arrivals, attempts, carried, buffer_packets):
        """Every packet's leave time, nan for a drop, and the first drop."""
        step = simulator._stepper(SpSchedule(TABLE_RTWT, SLOT), buffer_packets)
        leave = np.array(step(arrivals.tolist(), attempts.tolist(), deque(carried.tolist()),
                              arrivals.size))
        drops = np.flatnonzero(np.isnan(leave))
        return leave, int(drops[0]) if drops.size else arrivals.size

    @pytest.mark.parametrize(
        "case", [chain_at_the_end, all_waiting, carried_queue, arrival_at_a_departure])
    @pytest.mark.parametrize("buffer_packets", [20, 3])
    def test_matches_the_stepper(self, case, buffer_packets, monkeypatch):
        arrivals, attempts, carried = case(buffer_packets)
        expected, first_drop = self.stepped(arrivals, attempts, carried, buffer_packets)
        # the case is what its name says: which packets find the server busy
        unbounded, _ = self.stepped(arrivals, attempts, carried, 10**6)
        ahead = np.concatenate((carried[-1:] if carried.size else [-np.inf], unbounded[:-1]))
        behind = ahead > arrivals
        assert behind[-1]  # the run's last packet waits
        if case is all_waiting:
            assert behind[1:].all()
        if case is carried_queue:
            assert carried.size and behind[0]
        completion = SpSchedule(TABLE_RTWT, SLOT).completion
        for work in (simulator._WORK, arrivals.size):  # as shipped, and enough to settle
            monkeypatch.setattr(simulator, "_WORK", work)
            leave, exact = simulator._settle(completion, arrivals, attempts, carried,
                                             buffer_packets)
            assert leave[:exact].tobytes() == expected[:exact].tobytes()
            assert exact <= first_drop
        assert exact == first_drop
        assert first_drop < arrivals.size if buffer_packets == 3 else first_drop == arrivals.size
        if case is arrival_at_a_departure and buffer_packets == 3:
            assert first_drop == 4  # the first of the two finds a place


class TestSimConfigValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(warmup_packets=-1),
            dict(measured_packets=0),
            dict(max_sim_time=0.0),
            dict(max_sim_time=math.inf),
            dict(seed=-1),
        ],
    )
    def test_bad_values_rejected(self, kw):
        with pytest.raises(ValueError):
            SimConfig(**{"seed": 1, **kw})

    @pytest.mark.parametrize(
        "field,value",
        [("seed", 1.5), ("warmup_packets", 10.5), ("measured_packets", 2.5),
         ("measured_packets", 100.0)],
    )
    def test_non_integer_counts_rejected(self, field, value):
        # a float count would reach numpy's random draws and fail there
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
            SimConfig(**{"seed": 1, field: value})

    def test_bad_run_counts_rejected(self):
        for n_runs in (0, 2.0):
            with pytest.raises(ValueError, match=f"^n_runs must be an integer >= 1, got {n_runs}$"):
                replicate(TABLE_TRAFFIC, TABLE_LINK, TABLE_RTWT, 20, small_sim(), n_runs=n_runs)

    def test_bad_buffer_rejected(self):
        # a float buffer would reach the loop's slices and fail there
        for buffer_packets in (0, 2.5, 20.0):
            message = f"^buffer_packets must be an integer >= 1, got {buffer_packets}$"
            with pytest.raises(ValueError, match=message):
                simulate(TABLE_TRAFFIC, TABLE_LINK, TABLE_RTWT, buffer_packets, small_sim())
            with pytest.raises(ValueError, match=message):
                replicate(TABLE_TRAFFIC, TABLE_LINK, TABLE_RTWT, buffer_packets, small_sim(),
                          n_runs=2)

    def test_bad_quantile_rejected(self):
        with pytest.raises(ValueError, match="quantile"):
            simulate(TABLE_TRAFFIC, TABLE_LINK, TABLE_RTWT, 20, small_sim(), quantile=1.5)
