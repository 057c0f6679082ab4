"""Parameter groups, slot quantization, and per-slot batch probabilities."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtwt_planner import LinkSpec, RtwtSpec, TrafficSpec
from rtwt_planner.params import (
    batch_distribution,
    packet_loss_probability,
    slotify,
    system_capacity,
)

import params_oracle

SLOT = 114.4e-6


def table_traffic(interarrival=16e-3):
    return TrafficSpec(rate=1.0 / interarrival, slot_time=SLOT)


# slot times: the table's, ordinary ones, and subnormal and near-subnormal
# ones whose periods hold too many slots to count
SLOT_TIMES = st.one_of(
    st.sampled_from([SLOT, 5e-324, 1e-310, 2.2e-308]),
    st.floats(1e-9, 1e-2),
    st.floats(5e-324, 1e-300, allow_subnormal=True),
)
# (period, slot time, allow_coarse, sp_slots, buffer_packets); a period
# drawn near a few slots long, so that most calls slot
CALLS = SLOT_TIMES.flatmap(
    lambda slot_time: st.tuples(
        st.one_of(
            st.floats(0.3, 60.0).map(lambda slots: slots * slot_time).filter(
                lambda period: 0.0 < period < math.inf
            ),
            st.floats(1e-7, 0.05),
            st.floats(5e-324, 1e-300, allow_subnormal=True),
        ),
        st.just(slot_time),
        st.booleans(),
        st.integers(1, 8),
        st.integers(1, 40),
    )
)


def _outcome(slotify_fn, *args):
    """What a call gives: its `SlottedConfig`, or its error's type and message."""
    try:
        return slotify_fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


class TestSlotify:
    def test_ten_ms_period(self):
        slotted = slotify(table_traffic(), RtwtSpec(period=10e-3, sp_slots=3), 20)
        assert slotted.cycle_slots == 87
        assert slotted.cycle_pattern == (87,)
        assert slotted.vacations == (84,)
        # residue of rounding 10 ms onto the 114.4 us grid, about 0.47%
        expected = abs(10e-3 - 87 * SLOT) / 10e-3
        assert slotted.pattern_error == pytest.approx(expected, rel=1e-12)
        assert slotted.pattern_error == pytest.approx(4.72e-3, abs=1e-5)

    def test_sixteen_ms_period(self):
        slotted = slotify(table_traffic(), RtwtSpec(period=16e-3, sp_slots=3), 20)
        assert slotted.cycle_slots == 140
        assert slotted.vacations == (137,)

    def test_exact_multiple_has_zero_error(self):
        slotted = slotify(table_traffic(), RtwtSpec(period=8 * SLOT, sp_slots=3), 20)
        assert slotted.vacations == (5,)
        assert slotted.pattern_error == 0.0

    @given(total=st.integers(1, 500), sp=st.integers(1, 500))
    def test_idempotent_on_exact_grid(self, total, sp):
        if sp > total:
            total, sp = sp, total
        traffic = table_traffic()
        first = slotify(traffic, RtwtSpec(period=total * SLOT, sp_slots=sp), 20)
        again = slotify(traffic, RtwtSpec(period=first.cycle_slots * SLOT, sp_slots=sp), 20)
        assert again == first
        assert first.vacations == (total - sp,)

    def test_rejects_period_shorter_than_window(self):
        with pytest.raises(ValueError, match="fewer than"):
            slotify(table_traffic(), RtwtSpec(period=2 * SLOT, sp_slots=3), 20)

    def test_coarse_rounding_needs_optin(self):
        rtwt = RtwtSpec(period=0.73e-3, sp_slots=3)
        with pytest.raises(ValueError, match="allow_coarse"):
            slotify(table_traffic(), rtwt, 20)
        slotted = slotify(table_traffic(), rtwt, 20, allow_coarse=True)
        # the first cycle is the rounded period, about 6% off
        assert slotted.cycle_slots == 6
        assert abs(0.73e-3 - slotted.cycle_slots * SLOT) / 0.73e-3 > 0.01
        assert slotted.cycle_pattern == (6, 7, 6)

    @pytest.mark.parametrize(
        "period,cycles,slots_per_cycle",
        [(1e-3, (9, 8, 9), 26 / 3), (2e-3, (17, 18), 35 / 2), (0.73e-3, (6, 7, 6), 19 / 3)],
    )
    def test_coarse_period_runs_mixed_cycles(self, period, cycles, slots_per_cycle):
        # windows open at slot round(j * period / SLOT); the shortest run of
        # cycles whose mean lies within 1% of the period is evaluated
        slotted = slotify(table_traffic(), RtwtSpec(period=period, sp_slots=3), 20, True)
        assert slotted.cycle_pattern == cycles
        assert slotted.hyperperiod_slots == sum(cycles)
        expected = abs(period - slots_per_cycle * SLOT) / period
        assert slotted.pattern_error == pytest.approx(expected, rel=1e-9)
        single_cycle_error = abs(period - slotted.cycle_slots * SLOT) / period
        assert slotted.pattern_error <= 0.01 < single_cycle_error

    def test_fine_period_keeps_single_cycle(self):
        slotted = slotify(table_traffic(), RtwtSpec(period=10e-3, sp_slots=3), 20)
        assert slotted.cycle_pattern == (87,)
        assert slotted.pattern_error == abs(10e-3 - 87 * SLOT) / 10e-3

    def test_rejects_pattern_cycle_shorter_than_window(self):
        # 2.6 slots round to 3, but the pattern needs cycles of 2 slots
        rtwt = RtwtSpec(period=2.6 * SLOT, sp_slots=3)
        with pytest.raises(ValueError, match="fewer than"):
            slotify(table_traffic(), rtwt, 20, allow_coarse=True)

    def test_buffer_carried_through(self):
        slotted = slotify(table_traffic(), RtwtSpec(period=10e-3, sp_slots=3), 7)
        assert slotted.buffer_packets == 7

    @settings(max_examples=200)
    @given(calls=st.lists(CALLS, min_size=1, max_size=12), data=st.data())
    def test_equals_the_oracle_in_any_call_order(self, calls, data):
        # each period's work is kept per (period, slot time, allow_coarse):
        # a call, at any point of any sequence, sees what the oracle makes
        # afresh.  The drawn keys come again in a drawn order with other
        # windows and buffers, so kept work meets other uses of its key.
        again = data.draw(st.lists(
            st.tuples(st.sampled_from(calls), st.integers(1, 8), st.integers(1, 40)), max_size=12
        ))
        calls += [(*call[:3], sp_slots, buffer_packets) for call, sp_slots, buffer_packets in again]
        for period, slot_time, allow_coarse, sp_slots, buffer_packets in calls:
            traffic = TrafficSpec(rate=1.0, slot_time=slot_time)
            rtwt = RtwtSpec(period=period, sp_slots=sp_slots)
            assert _outcome(slotify, traffic, rtwt, buffer_packets, allow_coarse) == _outcome(
                params_oracle.slotify, traffic, rtwt, buffer_packets, allow_coarse
            )


class TestBatchDistribution:
    def test_table_values(self):
        batches = batch_distribution(table_traffic(), LinkSpec(error_prob=0.1, retry_limit=3))
        load = SLOT / 16e-3
        assert load == pytest.approx(0.00715, rel=1e-12)
        oracle_b = 1.0 - math.exp(-load)
        assert batches.p_batch == pytest.approx(oracle_b, rel=1e-12)
        assert batches.p_batch == pytest.approx(7.1245e-3, rel=1e-4)
        assert batches.p_success[0] == pytest.approx(6.4121e-3, rel=1e-4)
        assert batches.p_fail == pytest.approx(7.1245e-6, rel=1e-4)

    def test_zero_rate(self):
        batches = batch_distribution(
            TrafficSpec(rate=0.0, slot_time=SLOT), LinkSpec(error_prob=0.1, retry_limit=3)
        )
        assert batches.p_no_batch == 1.0
        assert batches.p_batch == 0.0
        assert batches.p_success == (0.0, 0.0, 0.0)
        assert batches.p_fail == 0.0

    def test_error_free_channel(self):
        batches = batch_distribution(table_traffic(), LinkSpec(error_prob=0.0, retry_limit=3))
        assert batches.p_success == (batches.p_batch, 0.0, 0.0)
        assert batches.p_fail == 0.0

    @settings(max_examples=200)
    @given(
        interarrival=st.floats(1e-4, 10.0),
        error_prob=st.floats(0.0, 1.0),
        retry_limit=st.integers(1, 8),
    )
    def test_probability_closure(self, interarrival, error_prob, retry_limit):
        batches = batch_distribution(
            table_traffic(interarrival), LinkSpec(error_prob=error_prob, retry_limit=retry_limit)
        )
        assert batches.p_no_batch + sum(batches.p_size) == pytest.approx(1.0, abs=1e-12)
        assert sum(batches.p_success) + batches.p_fail == pytest.approx(
            batches.p_batch, abs=1e-12
        )
        assert all(p >= 0.0 for p in batches.p_size)

    def test_retry_limit_property(self):
        batches = batch_distribution(table_traffic(), LinkSpec(error_prob=0.1, retry_limit=5))
        assert batches.retry_limit == 5


class TestPacketLoss:
    def test_three_retries(self):
        assert packet_loss_probability(LinkSpec(error_prob=0.1, retry_limit=3)) == 0.1**3

    def test_single_attempt(self):
        assert packet_loss_probability(LinkSpec(error_prob=0.1, retry_limit=1)) == 0.1

    def test_perfect_channel(self):
        assert packet_loss_probability(LinkSpec(error_prob=0.0, retry_limit=3)) == 0.0

    @given(error_prob=st.floats(0.0, 1.0), retry_limit=st.integers(1, 7))
    def test_monotone_in_retries(self, error_prob, retry_limit):
        link = LinkSpec(error_prob=error_prob, retry_limit=retry_limit)
        more = LinkSpec(error_prob=error_prob, retry_limit=retry_limit + 1)
        assert packet_loss_probability(more) <= packet_loss_probability(link)

    @given(
        lo=st.floats(0.0, 1.0),
        hi=st.floats(0.0, 1.0),
        retry_limit=st.integers(1, 7),
    )
    def test_monotone_in_error_prob(self, lo, hi, retry_limit):
        if lo > hi:
            lo, hi = hi, lo
        assert packet_loss_probability(
            LinkSpec(error_prob=lo, retry_limit=retry_limit)
        ) <= packet_loss_probability(LinkSpec(error_prob=hi, retry_limit=retry_limit))


class TestSystemCapacity:
    def test_four_ms_single_slot(self):
        cap = system_capacity(RtwtSpec(period=4e-3, sp_slots=1), table_traffic())
        assert cap == pytest.approx(4e-3 / SLOT, rel=1e-12)
        assert cap == pytest.approx(34.97, rel=1e-3)

    def test_window_fills_period(self):
        assert system_capacity(RtwtSpec(period=3 * SLOT, sp_slots=3), table_traffic()) == 1.0

    def test_ten_ms_five_slots(self):
        cap = system_capacity(RtwtSpec(period=10e-3, sp_slots=5), table_traffic())
        assert cap == pytest.approx(17.48, rel=1e-3)


class TestValidation:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: TrafficSpec(rate=-1.0, slot_time=SLOT),
            lambda: TrafficSpec(rate=math.inf, slot_time=SLOT),
            lambda: TrafficSpec(rate=62.5, slot_time=0.0),
            lambda: TrafficSpec(rate=62.5, slot_time=-1e-6),
            lambda: LinkSpec(error_prob=-0.1, retry_limit=3),
            lambda: LinkSpec(error_prob=1.5, retry_limit=3),
            lambda: LinkSpec(error_prob=0.1, retry_limit=0),
            lambda: LinkSpec(error_prob=0.1, retry_limit=2.5),
            lambda: RtwtSpec(period=0.0, sp_slots=3),
            lambda: RtwtSpec(period=10e-3, sp_slots=0),
            lambda: RtwtSpec(period=10e-3, sp_slots=3.0),
            lambda: RtwtSpec(period=math.inf, sp_slots=3),
        ],
    )
    def test_bad_specs_rejected(self, make):
        with pytest.raises(ValueError):
            make()

    def test_load_per_slot(self):
        traffic = table_traffic()
        assert traffic.load_per_slot == pytest.approx(0.00715, rel=1e-12)
        assert traffic.slotting_ok

    def test_heavy_load_flagged(self):
        heavy = TrafficSpec(rate=1.0 / (2 * SLOT), slot_time=SLOT)
        assert not heavy.slotting_ok
