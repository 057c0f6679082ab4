"""Queue chain construction, stationary solution, and delay distribution."""

import dataclasses
import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rtwt_planner import LinkSpec, ModelError, RtwtSpec, TrafficSpec, evaluate
from rtwt_planner import emit, model
from rtwt_planner.model import (
    ChainModel,
    DelayPmf,
    MetricsReport,
    StationaryDistribution,
    build_chain,
    delay_pmf,
    metrics,
    overflow_probability,
    stationary,
)
from rtwt_planner.params import SlottedConfig, batch_distribution, slotify

import model_oracle

SLOT = 114.4e-6


def table_traffic(interarrival=16e-3):
    return TrafficSpec(rate=1.0 / interarrival, slot_time=SLOT)


def table_chain(period=10e-3, sp_slots=3, buffer_packets=20, retry_limit=3):
    traffic = table_traffic()
    slotted = slotify(
        traffic, RtwtSpec(period=period, sp_slots=sp_slots), buffer_packets, allow_coarse=True
    )
    batches = batch_distribution(traffic, LinkSpec(error_prob=0.1, retry_limit=retry_limit))
    return build_chain(slotted, batches), slotted, batches


def service_mask(cycles, sp_slots):
    """Per slot of the hyperperiod: True in the window that opens each cycle."""
    return [i < sp_slots for cycle in cycles for i in range(cycle)]


def point_mass_delay(k, n, slotted, carry_full_vacation=True):
    """`delay_pmf` of a stationary point mass at (k, n), one attempt per packet.

    The distribution collapses onto the single delay of a k + 1 backlog
    that starts at slot n; that delay is returned.  The literal reading
    (`carry_full_vacation=False`) is read off `model_oracle.masked_delay_pmf`.
    """
    batches = batch_distribution(table_traffic(), LinkSpec(error_prob=0.0, retry_limit=1))
    chain = build_chain(slotted, batches)
    probs = np.zeros((chain.states, slotted.hyperperiod_slots))
    probs[k, n] = 1.0
    stat = StationaryDistribution(chain=chain, probs=probs, residual=0.0)
    if carry_full_vacation:
        mass = delay_pmf(stat, batches, slotted).mass
    else:
        literal = model_oracle.masked_delay_pmf(stat, batches, slotted, carry_full_vacation=False)
        mass = literal.mass
    assert mass[-1] == 1.0, (k, n)
    return mass.size - 1


def drain_slots(total, n, service, carry_full_vacation=True):
    """Slot-by-slot replay over a periodic service mask.

    Serves one packet per service slot until the queue is empty.  The
    literal reading counts a vacation entered from a window that closed on
    the backlog as one slot; the vacation an arrival lands in counts in full.
    """
    size = len(service)
    t, queue, elapsed = n, total, 0
    while True:
        elapsed += 1
        if service[t % size]:
            queue -= 1
            if queue == 0:
                return elapsed
            t += 1
        elif carry_full_vacation or t == n or not service[(t - 1) % size]:
            t += 1
        else:
            while not service[t % size]:
                t += 1


def scalar_chain(cap, batches):
    """Both transition matrices, one queue length k at a time."""
    size = batches.p_size
    limit = len(size)
    vac = np.zeros((cap + 1, cap + 1))
    sp = np.zeros_like(vac)
    for k in range(cap + 1):
        no_fit = batches.p_no_batch + sum(size[r - 1] for r in range(cap - k + 1, limit + 1))
        vac[k, k] += no_fit
        sp[k, max(k - 1, 0)] += no_fit
        for r in range(1, min(cap - k, limit) + 1):
            vac[k, k + r] += size[r - 1]
            sp[k, k + r - 1] += size[r - 1]
    return sp, vac


def scalar_overflow(cap, stat, batches):
    """Overflow probability summed over every queue length.

    Each queue length's dropped sizes are summed as `scalar_chain` sums them.
    """
    size = batches.p_size
    limit = len(size)
    queue_marginal = stat.probs.sum(axis=1)
    return float(
        sum(
            queue_marginal[k] * sum(size[r - 1] for r in range(cap - k + 1, limit + 1))
            for k in range(cap + 1)
        )
    )


def slot_matrix(chain, n):
    """Transition matrix the chain applies between slot n and slot n + 1."""
    return chain.sp_matrix if chain.service[n] else chain.vacation_matrix


def scalar_residual(chain, probs):
    """Balance residual, one slot step at a time."""
    cycle = len(chain.service)
    residual = abs(probs.sum() - 1.0)
    for n in range(cycle):
        step = probs[:, n] @ slot_matrix(chain, n)
        residual = max(residual, np.abs(step - probs[:, (n + 1) % cycle]).max())
    return float(residual)


def scalar_propagate(chain, phi0):
    """The slot-0 distribution carried through the hyperperiod by `slot_matrix`."""
    cycle = len(chain.service)
    phis = np.empty((cycle, phi0.shape[0]))
    phis[0] = phi0
    for n in range(cycle - 1):
        phis[n + 1] = phis[n] @ slot_matrix(chain, n)
    return phis.T / cycle


def schedule_probs(chains, rows):
    """Each schedule's (S, H) view of a block's slot rows, laid end to end."""
    ends = np.cumsum([chain.service.size for chain in chains])
    return [part.T for part in np.split(rows, ends[:-1])]


class TestBuildChain:
    @settings(max_examples=150, deadline=None)
    @given(
        buffer_packets=st.integers(1, 25),
        retry_limit=st.integers(1, 12),
        error_prob=st.floats(0.0, 1.0),
        interarrival=st.floats(2e-4, 1.0),
    )
    # summing the dropped sizes of the full-buffer row largest first moves
    # its last bit here
    @example(buffer_packets=4, retry_limit=3, error_prob=0.34, interarrival=0.0676)
    # from 8 dropped sizes up, numpy's pairwise sum of a row's dropped sizes
    # differs from the chain's in-order sum in the last bit here
    @example(buffer_packets=6, retry_limit=8, error_prob=0.5, interarrival=0.002)
    def test_matches_scalar_oracle(self, buffer_packets, retry_limit, error_prob, interarrival):
        # buffers below the retry limit included: there every row drops some size
        traffic = table_traffic(interarrival)
        slotted = slotify(traffic, RtwtSpec(period=8 * SLOT, sp_slots=3), buffer_packets)
        batches = batch_distribution(traffic, LinkSpec(error_prob, retry_limit))
        chain = build_chain(slotted, batches)
        sp, vac = scalar_chain(buffer_packets, batches)
        assert np.array_equal(chain.sp_matrix, sp)
        assert np.array_equal(chain.vacation_matrix, vac)
        stat = stationary(chain)
        overflow = overflow_probability(stat, batches)
        assert overflow == scalar_overflow(buffer_packets, stat, batches)

    @settings(max_examples=60, deadline=None)
    @given(
        buffer_packets=st.integers(1, 25),
        retry_limit=st.integers(1, 5),
        error_prob=st.floats(0.0, 1.0),
        interarrival=st.floats(2e-4, 1.0),
    )
    def test_rows_stochastic(self, buffer_packets, retry_limit, error_prob, interarrival):
        traffic = table_traffic(interarrival)
        slotted = slotify(traffic, RtwtSpec(period=8 * SLOT, sp_slots=3), buffer_packets)
        batches = batch_distribution(traffic, LinkSpec(error_prob, retry_limit))
        chain = build_chain(slotted, batches)
        for mat in (chain.sp_matrix, chain.vacation_matrix):
            assert np.allclose(mat.sum(axis=1), 1.0, atol=1e-12)
            assert (mat >= 0.0).all()

    def test_no_arrivals(self):
        traffic = TrafficSpec(rate=0.0, slot_time=SLOT)
        slotted = slotify(traffic, RtwtSpec(period=8 * SLOT, sp_slots=3), 4)
        chain = build_chain(slotted, batch_distribution(traffic, LinkSpec(0.1, 3)))
        assert np.array_equal(chain.vacation_matrix, np.eye(5))
        shift = np.zeros((5, 5))
        for k in range(5):
            shift[k, max(k - 1, 0)] = 1.0
        assert np.array_equal(chain.sp_matrix, shift)

    def test_small_buffer_vacation_row(self):
        # K = 2, queue holds 1: only a size-1 batch still fits
        traffic = table_traffic()
        slotted = slotify(traffic, RtwtSpec(period=8 * SLOT, sp_slots=3), 2)
        batches = batch_distribution(traffic, LinkSpec(0.1, 3))
        chain = build_chain(slotted, batches)
        row = chain.vacation_matrix[1]
        stay = batches.p_no_batch + batches.p_size[1] + batches.p_size[2]
        assert row[1] == pytest.approx(stay, abs=1e-15)
        assert row[2] == pytest.approx(batches.p_size[0], abs=1e-15)
        assert row[0] == 0.0

    def test_service_row_shifts_down(self):
        chain, _, batches = table_chain()
        row = chain.sp_matrix[5]
        assert row[4] == pytest.approx(batches.p_no_batch, abs=1e-15)
        assert row[5] == pytest.approx(batches.p_size[0], abs=1e-15)

    def test_slot_matrix_follows_cycle_pattern(self):
        # 1 ms runs as cycles of 9, 8 and 9 slots, each opening with 3 service slots
        chain, slotted, _ = table_chain(period=1e-3, sp_slots=3)
        assert slotted.cycle_pattern == (9, 8, 9)
        assert len(chain.service) == 26
        served = [n for n, serve in enumerate(chain.service) if serve]
        assert served == [0, 1, 2, 9, 10, 11, 17, 18, 19]
        for mat in (chain.sp_matrix, chain.vacation_matrix):
            assert np.allclose(mat.sum(axis=1), 1.0, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(period_slots=st.floats(1.0, 200.0), sp_slots=st.integers(1, 6))
    @example(1e-3 / SLOT, 3)  # the 9 + 8 + 9 pattern of 1 ms
    def test_service_matches_slot_oracle(self, period_slots, sp_slots):
        traffic = table_traffic()
        try:
            slotted = slotify(traffic, RtwtSpec(period_slots * SLOT, sp_slots), 20, True)
        except ValueError:
            assume(False)
        chain = build_chain(slotted, batch_distribution(traffic, LinkSpec(0.1, 3)))
        assert chain.service.tolist() == list(model_oracle.service_flags(slotted))


class TestStationary:
    def test_empty_cycle(self):
        traffic = TrafficSpec(rate=0.0, slot_time=SLOT)
        slotted = slotify(traffic, RtwtSpec(period=8 * SLOT, sp_slots=3), 20)
        chain = build_chain(slotted, batch_distribution(traffic, LinkSpec(0.1, 3)))
        stat = stationary(chain)
        expected = np.zeros((21, 8))
        expected[0, :] = 1.0 / 8.0
        assert np.allclose(stat.probs, expected, atol=1e-12)

    def test_four_state_hand_oracle(self):
        # K = 1, one service slot, one vacation slot, perfect single-attempt
        # channel, load ln 2 so a batch arrives with probability one half
        traffic = TrafficSpec(rate=math.log(2.0), slot_time=1.0)
        slotted = slotify(traffic, RtwtSpec(period=2.0, sp_slots=1), 1)
        batches = batch_distribution(traffic, LinkSpec(error_prob=0.0, retry_limit=1))
        chain = build_chain(slotted, batches)

        b = batches.p_batch
        b0 = batches.p_no_batch
        # states (k, n): 0=(0,0) 1=(1,0) 2=(0,1) 3=(1,1); service slot always
        # empties the queue (an arriving batch is served same slot or dropped),
        # the vacation slot admits a size-1 batch only into an empty queue
        full = np.zeros((4, 4))
        full[0, 2] = 1.0
        full[1, 2] = 1.0
        full[2, 0] = b0
        full[2, 1] = b
        full[3, 1] = 1.0
        system = full.T - np.eye(4)
        system[-1, :] = 1.0
        pi = np.linalg.solve(system, np.array([0.0, 0.0, 0.0, 1.0]))
        oracle = np.array([[pi[0], pi[2]], [pi[1], pi[3]]])

        for method in ("cycle", "full"):
            stat = stationary(chain, method=method)
            assert np.allclose(stat.probs, oracle, atol=1e-12)
        assert np.allclose(oracle.ravel(), [b0 / 2, 0.5, b / 2, 0.0], atol=1e-12)

    @pytest.mark.parametrize(
        "period,sp_slots,retry_limit",
        [(10e-3, 3, 3), (1e-3, 1, 1), (16e-3, 5, 3), (2.5e-3, 2, 3), (0.73e-3, 3, 3)],
    )
    def test_cycle_and_full_routes_agree(self, period, sp_slots, retry_limit):
        chain, slotted, _ = table_chain(period, sp_slots, retry_limit=retry_limit)
        by_cycle = stationary(chain, method="cycle")
        by_full = stationary(chain, method="full")
        assert np.abs(by_cycle.probs - by_full.probs).max() <= 1e-9
        for stat in (by_cycle, by_full):
            assert stat.residual <= 1e-10
            assert stat.probs.sum() == pytest.approx(1.0, abs=1e-10)
            marginals = stat.probs.sum(axis=0)
            assert np.allclose(marginals, 1.0 / slotted.hyperperiod_slots, atol=1e-10)
            assert stat.probs.min() >= 0.0

    @pytest.mark.parametrize("period", [10e-3, 1e-3])
    def test_state_count_is_the_chains(self, period):
        # a 10-state chain on a schedule that names a 4-packet buffer: the
        # solver routes, the residual check and the overflow read the state
        # count off the chain, never off `buffer_packets`
        traffic = table_traffic(2.5e-3)
        batches = batch_distribution(traffic, LinkSpec(error_prob=0.1, retry_limit=3))
        rtwt = RtwtSpec(period=period, sp_slots=3)
        built = build_chain(slotify(traffic, rtwt, 9, allow_coarse=True), batches)
        slotted = slotify(traffic, rtwt, 4, allow_coarse=True)
        chain = ChainModel(
            slotted=slotted,
            sp_matrix=built.sp_matrix,
            vacation_matrix=built.vacation_matrix,
            dropped=built.dropped,
            delivered=built.delivered,
            backlog=built.backlog,
        )
        assert chain.states == 10 != slotted.buffer_packets + 1
        by_cycle = stationary(chain, method="cycle")
        by_full = stationary(chain, method="full")
        assert by_full.probs.shape == (10, slotted.hyperperiod_slots)
        assert np.abs(by_cycle.probs - by_full.probs).max() <= 1e-9
        for stat in (by_cycle, by_full):
            assert stat.residual == pytest.approx(scalar_residual(chain, stat.probs), abs=1e-15)
        reference = stationary(built)
        assert np.array_equal(by_cycle.probs, reference.probs)
        overflow = overflow_probability(by_cycle, batches)
        assert overflow > 0.0
        assert overflow == overflow_probability(reference, batches)
        assert overflow == scalar_overflow(9, by_cycle, batches)

    def test_unknown_method_rejected(self):
        chain, _, _ = table_chain()
        with pytest.raises(ValueError, match="method"):
            stationary(chain, method="power")
        with pytest.raises(ValueError, match="method"):
            evaluate(table_traffic(), LinkSpec(0.1, 3), RtwtSpec(10e-3, 3), 20, method="power")

    def test_full_route_failure_stays_with_its_schedule(self, monkeypatch):
        # the sparse route returns its error as a value, as the cycle route
        # does: one failing schedule leaves the others of the same solve
        solve = model._stationary_full
        failure = ModelError("stationary solve failed: injected")

        def failing(chain):
            return failure if chain.slotted.sp_slots == 2 else solve(chain)

        monkeypatch.setattr(model, "_stationary_full", failing)
        traffic, link = table_traffic(), LinkSpec(0.1, 3)
        rtwts = [RtwtSpec(10e-3, sp_slots) for sp_slots in (1, 2, 3)]
        with pytest.raises(ModelError) as caught:
            evaluate(traffic, link, rtwts[1], 20, method="full")
        assert caught.value is failure
        evaluator = model.ScheduleEvaluator(traffic, link, 20, method="full")
        outcomes = evaluator.reports(rtwts)
        assert [o for o in outcomes if isinstance(o, ModelError)] == [failure]
        assert str(outcomes[1]) == "stationary solve failed: injected"
        for rtwt, ours in ((rtwts[0], outcomes[0]), (rtwts[2], outcomes[2])):
            alone = evaluate(traffic, link, rtwt, 20, method="full")
            assert emit.json_bytes(ours.to_dict()) == emit.json_bytes(alone.to_dict())

    @pytest.mark.parametrize(
        "period,sp_slots,cycles",
        [(10e-3, 3, (87,)), (8 * SLOT, 3, (8,)), (1e-3, 3, (9, 8, 9)), (0.73e-3, 3, (6, 7, 6))],
    )
    @pytest.mark.parametrize("method", ["cycle", "full"])
    def test_residual_matches_per_slot_oracle(self, period, sp_slots, cycles, method):
        chain, slotted, _ = table_chain(period, sp_slots)
        assert slotted.cycle_pattern == cycles
        stat = stationary(chain, method=method)
        assert stat.residual == pytest.approx(scalar_residual(chain, stat.probs), abs=1e-15)

    # service slots 0 and 2, vacation slot 13, and the last slot, whose
    # step wraps round to slot 0
    @pytest.mark.parametrize("slot", [0, 2, 13, 25])
    def test_residual_catches_one_bad_slot(self, slot, monkeypatch):
        chain, slotted, _ = table_chain(period=1e-3)
        assert slotted.cycle_pattern == (9, 8, 9)
        solve = model._stationary_cycles

        def shifted(chains, powers=None, settle=None):
            # move 1e-6 of mass between queue lengths at one slot; the total
            # stays one, so only the balance steps into and out of that slot
            # can catch it
            ((block, rows),) = solve(chains, powers, settle)
            rows[slot, 0] -= 1e-6
            rows[slot, 1] += 1e-6
            return [(block, rows)]

        monkeypatch.setattr(model, "_stationary_cycles", shifted)
        with pytest.raises(ModelError, match="violates balance"):
            stationary(chain)

    def test_negative_mass_is_an_error(self, monkeypatch):
        # one cell of -1e-12 keeps every balance step within RESIDUAL_LIMIT;
        # only the mass check can catch it, and `evaluate` raises its error
        solve = model._stationary_cycles

        def negative(chains, powers=None, settle=None):
            ((block, rows),) = solve(chains, powers, settle)
            rows[0, -1] = -1e-12  # a full buffer, about 3e-16 before
            return [(block, rows)]

        monkeypatch.setattr(model, "_stationary_cycles", negative)
        message = r"^stationary solution has negative mass -1\.000e-12$"
        with pytest.raises(ModelError, match=message):
            evaluate(table_traffic(), LinkSpec(0.1, 3), RtwtSpec(10e-3, 3), 20)

    def test_residual_catches_lost_mass(self, monkeypatch):
        # every slot step still balances when all mass shrinks by 1e-6; only
        # the total-mass term can catch it
        solve = model._stationary_cycles
        monkeypatch.setattr(
            model, "_stationary_cycles",
            lambda chains, powers=None, settle=None: [
                (block, rows * (1 - 1e-6)) for block, rows in solve(chains, powers, settle)
            ],
        )
        with pytest.raises(ModelError, match="violates balance"):
            stationary(table_chain(period=1e-3)[0])

    @pytest.mark.parametrize("cells", ["all", "one"])
    def test_nan_solution_is_an_error(self, cells, monkeypatch):
        # every comparison with NaN is False, so the checks must be written
        # to fail it rather than to pass it
        solve = model._stationary_cycles

        def poisoned(chains, powers=None, settle=None):
            ((block, rows),) = solve(chains, powers, settle)
            if cells == "all":
                rows[:] = np.nan
            else:
                rows[2, 1] = np.nan
            return [(block, rows)]

        monkeypatch.setattr(model, "_stationary_cycles", poisoned)
        with pytest.raises(ModelError, match="violates balance"):
            stationary(table_chain(period=1e-3)[0])
        with pytest.raises(ModelError, match="violates balance"):
            evaluate(table_traffic(), LinkSpec(0.1, 3), RtwtSpec(period=10e-3, sp_slots=3), 20)

    @pytest.mark.parametrize("period", [10e-3, 1e-3])
    def test_propagation_matches_slot_matrix_steps(self, period, monkeypatch):
        chain, _, _ = table_chain(period)
        probs = stationary(chain).probs
        monkeypatch.setattr(
            model, "_propagate",
            lambda chains, phi0: np.concatenate(
                [scalar_propagate(c, phi).T for c, phi in zip(chains, phi0)]
            ),
        )
        assert np.array_equal(probs, stationary(chain).probs)


class TestStackedPremise:
    """The stacked numpy forms the block solve rests on round as the per-schedule ones.

    A numpy or BLAS build that breaks one of these breaks the block solve's
    bit-identity; each test names the form that broke.
    """

    SIZES = [2, 21, 61, 201]

    @staticmethod
    def stochastic(rng, *shape):
        mats = rng.random(shape)
        return mats / mats.sum(axis=-1, keepdims=True)

    @pytest.mark.parametrize("states", SIZES)
    def test_stacked_row_step_equals_dot(self, states):
        rng = np.random.default_rng(states)
        matrix = self.stochastic(rng, states, states)
        rows = self.stochastic(rng, 5, states)
        stacked = np.empty((5, 1, states))
        np.matmul(rows[:, None, :], matrix, out=stacked)
        for row, step in zip(rows, stacked):
            assert np.array_equal(step[0], np.dot(row, matrix)), "(B, 1, S) @ (S, S) != np.dot"

    @pytest.mark.parametrize("states", SIZES)
    def test_stacked_product_equals_per_matrix(self, states):
        rng = np.random.default_rng(states)
        left = self.stochastic(rng, 4, states, states)
        right = self.stochastic(rng, 4, states, states)
        for b, product in enumerate(np.matmul(left, right)):
            assert np.array_equal(product, left[b] @ right[b]), "stacked @ != per-matrix @"

    @pytest.mark.parametrize("states", SIZES)
    def test_stacked_solve_equals_per_matrix(self, states):
        rng = np.random.default_rng(states)
        systems = self.stochastic(rng, 4, states, states).transpose(0, 2, 1) - np.eye(states)
        systems[:, -1, :] = 1.0
        rhs = np.zeros(states)
        rhs[-1] = 1.0
        stacked = np.linalg.solve(systems, np.broadcast_to(rhs[:, None], (4, states, 1)))
        for b, solution in enumerate(stacked[..., 0]):
            assert np.array_equal(solution, np.linalg.solve(systems[b], rhs)), (
                "stacked np.linalg.solve != per-matrix solve"
            )


    @pytest.mark.parametrize("states", SIZES)
    def test_sums_of_a_slot_row_view_equal_a_fresh_copy(self, states):
        # `_propagate` hands each schedule its (S, H) view of one slot-major
        # block, where each used to get a fresh F-ordered copy; the mass
        # term's total and `overflow_probability`'s per-state sums must not
        # tell them apart
        rng = np.random.default_rng(states)
        lengths = [87, 1, 26, 140, 19]
        rows = self.stochastic(rng, sum(lengths), states)
        weights = rng.random(states)
        end = 0
        for length in lengths:
            view = rows[end : end + length].T
            fresh = view.copy(order="F")
            end += length
            assert view.sum().tobytes() == fresh.sum().tobytes(), "total of a view != of a copy"
            assert view.sum(axis=1).tobytes() == fresh.sum(axis=1).tobytes(), (
                "per-state sums of a view != of a copy"
            )
            assert sum(view.sum(axis=1) * weights) == sum(fresh.sum(axis=1) * weights)


class TestFloorPremise:
    """The premises of `DelayFloor` on `build_chain` (its docstring states the proof).

    A rewrite of `build_chain` that breaks one of them fails here, by name,
    before it can move an optimizer choice.
    """

    # buffers 1, 20 and 200; retry limits 1 and 3; a clean and a lossy link;
    # light traffic, 5 ms interarrival and overload at 0.2 ms
    CHAINS = list(itertools.product([1, 20, 200], [1, 3], [0.0, 0.1], [16e-3, 5e-3, 0.2e-3]))
    # one cycle, the 9 + 8 + 9 pattern of 1 ms, 6 + 7 + 6 at 0.73 ms, and a
    # 1-slot window on a long cycle
    SCHEDULES = [(10e-3, 3), (1e-3, 3), (0.73e-3, 2), (16e-3, 1)]

    @staticmethod
    def chain(buffer_packets, retry_limit, error_prob, interarrival, period=10e-3, sp_slots=3):
        traffic = table_traffic(interarrival)
        slotted = slotify(traffic, RtwtSpec(period, sp_slots), buffer_packets, allow_coarse=True)
        return build_chain(slotted, batch_distribution(traffic, LinkSpec(error_prob, retry_limit)))

    @pytest.mark.parametrize("buffer_packets,retry_limit,error_prob,interarrival", CHAINS)
    def test_vacation_matrix_is_upper_triangular_and_stochastic(
        self, buffer_packets, retry_limit, error_prob, interarrival
    ):
        vacation = self.chain(buffer_packets, retry_limit, error_prob, interarrival).vacation_matrix
        assert np.array_equal(np.triu(vacation), vacation), "a vacation slot shortens the queue"
        assert (vacation >= 0.0).all()
        # within one rounding per state, which FLOOR_MARGIN covers
        sums = vacation.sum(axis=1)
        assert np.abs(sums - 1.0).max() <= vacation.shape[0] * 2.0**-53, "rows do not sum to 1"

    @pytest.mark.parametrize("buffer_packets,retry_limit,error_prob,interarrival", CHAINS)
    def test_delivered_weight_does_not_rise_with_the_queue(
        self, buffer_packets, retry_limit, error_prob, interarrival
    ):
        delivered = self.chain(buffer_packets, retry_limit, error_prob, interarrival).delivered
        assert np.all(np.diff(delivered, axis=0) <= 0.0), "a cell's delivered weight rises with k"

    @pytest.mark.parametrize("buffer_packets,retry_limit,error_prob,interarrival", CHAINS)
    def test_backlog_does_not_fall_with_the_queue(
        self, buffer_packets, retry_limit, error_prob, interarrival
    ):
        backlog = self.chain(buffer_packets, retry_limit, error_prob, interarrival).backlog
        assert np.all(np.diff(backlog, axis=0) >= 0), "a cell's backlog index falls with k"

    @pytest.mark.parametrize("buffer_packets,retry_limit,error_prob,interarrival", CHAINS)
    def test_delivered_weight_does_not_rise_along_a_vacation_run(
        self, buffer_packets, retry_limit, error_prob, interarrival
    ):
        for period, sp_slots in self.SCHEDULES:
            chain = self.chain(
                buffer_packets, retry_limit, error_prob, interarrival, period, sp_slots
            )
            rows = stationary(chain).probs.T
            delta = chain.delivered.sum(axis=1)
            # each vacation slot's row against its step, the last slot's step
            # wrapping round to the next hyperperiod
            vacation = np.flatnonzero(~chain.service)
            before = rows[vacation] @ delta
            after = (rows[vacation] @ chain.vacation_matrix) @ delta
            # rises at rounding level only, which FLOOR_MARGIN covers
            assert np.all(after <= before * (1.0 + 1e-12)), (
                f"delivered weight rises in a vacation of {chain.slotted.cycle_pattern}"
            )


def block_chains(traffic, link, periods, sp_slots, buffer_packets=20):
    """Chains of one traffic mix and link, one per (period, window), sharing one matrix pair."""
    batches = batch_distribution(traffic, link)
    chain = None
    chains = []
    for period, window in zip(periods, sp_slots):
        slotted = slotify(traffic, RtwtSpec(period, window), buffer_packets, allow_coarse=True)
        chain = chain or build_chain(slotted, batches)
        chains.append(dataclasses.replace(chain, slotted=slotted))
    return chains, batches


def floor_tables(chain):
    """The powers of `chain`'s vacation matrix, whose squarings `model._early_floors` reads."""
    return model._Powers(chain.vacation_matrix)


FORMS = ("coarse", "full")


def form_floors(form, block, phi0, starts, sleep, quantile):
    """The floors of a solved block in one form of the proof: `model._coarse_floors`
    or `model._checkpoint_floors`, each called directly, `sleep` the powers
    of the block's vacation matrix (`floor_tables`)."""
    if form == "coarse":
        return model._coarse_floors(block, phi0, starts, quantile, SLOT)
    return model._checkpoint_floors(block, phi0, starts, sleep, quantile, SLOT)


def block_early_floors(chains, quantile):
    """{form: the floor of each schedule of a block} for both `FORMS`, every
    schedule left to its rows."""
    floors = {form: [] for form in FORMS}
    sleep = floor_tables(chains[0])

    def record(block, phi0, starts):
        for form, found in floors.items():
            found.extend(form_floors(form, block, phi0, starts, sleep, quantile))
        return [False] * len(block)

    model._stationary_cycles(chains, settle=record)
    return floors


def assert_floors_bound(floors, report):
    """Each form's floor, where it has one, at most what `report` says."""
    for form, floor in floors.items():
        if floor is None:
            continue
        assert floor.percentile_s <= report.percentile_s, form
        assert floor.mean_delay_s <= report.mean_delay_s, form


class TestBlockSolve:
    """The cycle route over a block of schedules, against the same schedules one by one."""

    # one cycle, mixed patterns of three and two cycles, a 1-slot hyperperiod
    # and a long one: hyperperiods of 87, 26, 19, 35, 1 and 140 slots
    PERIODS = [10e-3, 1e-3, 0.73e-3, 2e-3, SLOT, 16e-3]
    WINDOWS = [3, 3, 2, 2, 1, 5]

    @pytest.mark.parametrize(
        "buffer_packets,retry_limit", [(20, 3), (1, 3), (20, 5), (60, 1)]
    )
    def test_block_equals_one_by_one(self, buffer_packets, retry_limit):
        chains, _ = block_chains(
            table_traffic(2.5e-3), LinkSpec(0.1, retry_limit), self.PERIODS, self.WINDOWS,
            buffer_packets,
        )
        assert [len(c.slotted.cycle_pattern) for c in chains] == [1, 3, 3, 2, 1, 1]
        ((block, rows),) = model._stationary_cycles(chains)
        assert block == chains
        for chain, stat in zip(chains, model._checked(block, rows)):
            ((_, rows_alone),) = model._stationary_cycles([chain])
            (alone,) = model._checked([chain], rows_alone)
            assert stat.probs.tobytes() == alone.probs.tobytes()
            assert stat.probs.strides == alone.probs.strides

    def test_blocks_count_the_full_floor(self, monkeypatch):
        # at K = 1 and R = 60 the full floor's arrays, J x 3 x (S + 1) x C
        # cells, outgrow the solve's B x S x max(S, H): with 4000 cells the
        # solve alone would take all 20 schedules in one block, and
        # `_blocks` cuts it by the floor's count instead
        periods = [slots * SLOT for slots in range(4, 24)]
        chains, _ = block_chains(
            table_traffic(), LinkSpec(0.1, 60), periods, [1] * len(periods), buffer_packets=1
        )
        monkeypatch.setattr(model, "MODEL_CELL_LIMIT", 4000)
        assert len(chains) * 2 * max(c.slotted.hyperperiod_slots for c in chains) <= 4000
        blocks = list(model._blocks(chains))
        assert [chain for block in blocks for chain in block] == chains
        assert [len(block) for block in blocks] == [7, 7, 6]
        for block in blocks:
            cycles = sum(len(chain.slotted.cycle_pattern) for chain in block)
            assert cycles * model._CHECKPOINTS * (2 + 1) * 60 <= 4000

    def test_checked_probs_view_the_block_rows(self):
        chains, _ = block_chains(table_traffic(), LinkSpec(0.1, 3), self.PERIODS, self.WINDOWS)
        ((block, rows),) = model._stationary_cycles(chains)
        assert all(np.shares_memory(stat.probs, rows) for stat in model._checked(block, rows))

    def test_failed_check_stays_with_its_schedule(self, monkeypatch):
        # in a block of six, mass shifted at the last slot of the 1 ms
        # schedule fails its balance, and one cell of -1e-12 in the 1-slot
        # hyperperiod its mass check; each fails with the error it gets
        # alone, and its neighbours in the block keep their lone reports
        traffic, link = table_traffic(), LinkSpec(0.1, 3)
        rtwts = [RtwtSpec(period, window) for period, window in zip(self.PERIODS, self.WINDOWS)]
        shifted, negative = (1e-3, 3), (SLOT, 1)
        solve = model._stationary_cycles

        def corrupted(chains, powers=None, settle=None):
            outcomes = list(solve(chains, powers, settle))
            for block, rows in outcomes:
                for chain, probs in zip(block, schedule_probs(block, rows)):
                    schedule = (chain.slotted.cycle_pattern, chain.slotted.sp_slots)
                    if schedule == ((9, 8, 9), 3):
                        probs[0, -1] -= 1e-6
                        probs[1, -1] += 1e-6
                    elif schedule == ((1,), 1):
                        probs[-1, 0] = -1e-12
            return outcomes

        monkeypatch.setattr(model, "_stationary_cycles", corrupted)
        evaluator = model.ScheduleEvaluator(traffic, link, 20, allow_coarse=True)
        outcomes = evaluator.reports(rtwts)
        for rtwt, outcome in zip(rtwts, outcomes):
            if (rtwt.period, rtwt.sp_slots) in (shifted, negative):
                with pytest.raises(ModelError) as alone:
                    evaluate(traffic, link, rtwt, 20, allow_coarse=True)
                assert isinstance(outcome, ModelError) and str(outcome) == str(alone.value)
            else:
                alone = evaluate(traffic, link, rtwt, 20, allow_coarse=True)
                assert emit.json_bytes(outcome.to_dict()) == emit.json_bytes(alone.to_dict())
                assert outcome.pmf.mass.tobytes() == alone.pmf.mass.tobytes()
        assert str(outcomes[1]).startswith("stationary solution violates balance by ")
        assert str(outcomes[4]) == "stationary solution has negative mass -1.000e-12"

        chains, _ = block_chains(traffic, link, self.PERIODS, self.WINDOWS)
        ((block, rows),) = corrupted(chains)
        probs = schedule_probs(block, rows)
        checked = model._checked(block, rows)
        for chain, p, stat in zip(chains, probs, checked):
            if isinstance(stat, ModelError):
                continue
            assert stat.residual == pytest.approx(scalar_residual(chain, p), abs=1e-15)
        assert str(checked[1]) == (
            f"stationary solution violates balance by {scalar_residual(chains[1], probs[1]):.3e}"
        )

    def test_tolerated_negative_cell_is_cleared_in_the_rows(self, monkeypatch):
        # a cell of -1e-15 passes the mass check, which rejects only below
        # -1e-14; `_checked` sets it to zero in the block's rows themselves,
        # which `delay_pmf` reads
        traffic, link = table_traffic(), LinkSpec(0.1, 3)
        rtwts = [RtwtSpec(period, window) for period, window in zip(self.PERIODS, self.WINDOWS)]
        solve = model._stationary_cycles

        def negative(chains, powers=None, settle=None):
            outcomes = list(solve(chains, powers, settle))
            for block, rows in outcomes:
                for chain, probs in zip(block, schedule_probs(block, rows)):
                    if chain.slotted.cycle_pattern == (9, 8, 9):
                        probs[-1, 0] = -1e-15  # a full buffer at slot 0
            return outcomes

        monkeypatch.setattr(model, "_stationary_cycles", negative)
        chains, _ = block_chains(traffic, link, self.PERIODS, self.WINDOWS)
        ((block, rows),) = model._stationary_cycles(chains)
        assert rows.min() == -1e-15
        stat = model._checked(block, rows)[1]
        assert isinstance(stat, StationaryDistribution)
        assert stat.probs.min() >= 0.0 and rows.min() >= 0.0
        outcomes = model.ScheduleEvaluator(traffic, link, 20, allow_coarse=True).reports(rtwts)
        for rtwt, outcome in zip(rtwts, outcomes):
            alone = evaluate(traffic, link, rtwt, 20, allow_coarse=True)
            assert emit.json_bytes(outcome.to_dict()) == emit.json_bytes(alone.to_dict())
            assert outcome.pmf.mass.tobytes() == alone.pmf.mass.tobytes()

    @pytest.mark.parametrize("states", [2, 21, 61, 201])
    def test_shared_squarings_equal_matrix_power(self, states):
        # in increasing exponents and in a shuffled order: squarings and
        # powers kept from earlier calls never change a later power, and a
        # repeat hands back the kept power while the memo has room for it
        matrix = table_chain(buffer_packets=states - 1)[0].vacation_matrix
        expected = [
            hashlib.sha256(np.linalg.matrix_power(matrix, n).tobytes()).digest()
            for n in range(301)
        ]
        room = model.MODEL_CELL_LIMIT // matrix.size
        for order in (range(301), np.random.default_rng(states).permutation(301).tolist()):
            power = model._Powers(matrix)
            made = [power(n) for n in order]
            for n, first in zip(order, made):
                assert hashlib.sha256(first.tobytes()).digest() == expected[n], n
            for n, first in list(zip(order, made))[:room]:
                assert power(n) is first, n

    def test_kept_powers_stay_within_the_cell_limit(self):
        # S = 201: 40401 cells a power, so 25 fit in MODEL_CELL_LIMIT
        matrix = table_chain(buffer_packets=200)[0].vacation_matrix
        power = model._Powers(matrix)
        made = {n: power(n) for n in range(60)}
        assert sum(kept.size for kept in power._kept.values()) <= model.MODEL_CELL_LIMIT
        assert list(power._kept) == list(range(model.MODEL_CELL_LIMIT // matrix.size))
        for n in (0, 24, 25, 59):  # past the limit a power is made anew, equal
            assert np.array_equal(power(n), made[n])
            assert (power(n) is made[n]) == (n < 25)

    def test_shared_arrays_are_read_only(self):
        # every power and squaring an evaluator's blocks share, and the chain
        # matrices and delay layout its schedules' chains share
        chain = table_chain()[0]
        power = model._Powers(chain.vacation_matrix)
        assert chain.vacation_matrix.flags.writeable  # the caller's matrix stays its own
        for array in (power(0), power(1), power(3), power(12), power.square(2)):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1.0
        evaluator = model.ScheduleEvaluator(table_traffic(), LinkSpec(0.1, 3), 20)
        evaluator.reports([RtwtSpec(10e-3, 3)])
        shared = evaluator._chain
        for array in (shared.sp_matrix, shared.vacation_matrix, shared.dropped,
                      shared.delivered, shared.backlog):
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = 0

    def test_mixed_block_propagation_equals_scalar_steps(self):
        chains, _ = block_chains(table_traffic(), LinkSpec(0.1, 3), self.PERIODS, self.WINDOWS)
        rng = np.random.default_rng(3)
        phi0 = rng.random((len(chains), chains[0].states))
        phi0 /= phi0.sum(axis=1, keepdims=True)
        probs = schedule_probs(chains, model._propagate(chains, phi0))
        for b, (chain, p) in enumerate(zip(chains, probs)):
            assert np.array_equal(p, scalar_propagate(chain, phi0[b])), chain.slotted

    def test_singular_schedule_fails_alone(self):
        # identity windows and swapping vacations: an even vacation folds the
        # pattern to the identity, whose fixed-point system is singular
        chains, _ = block_chains(
            table_traffic(), LinkSpec(0.0, 1), [4 * SLOT, 5 * SLOT, 6 * SLOT], [1, 1, 1], 1
        )
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        chains = [
            dataclasses.replace(c, sp_matrix=np.eye(2), vacation_matrix=swap) for c in chains
        ]
        outcomes = list(model._stationary_cycles(chains))
        assert [block for block, _ in outcomes] == [[chain] for chain in chains]
        odd, even, odd_too = [rows for _, rows in outcomes]
        assert isinstance(even, ModelError)
        assert str(even) == "stationary solve failed: Singular matrix"
        with pytest.raises(ModelError, match="^stationary solve failed: Singular matrix$"):
            stationary(chains[1])
        for chain, rows in ((chains[0], odd), (chains[2], odd_too)):
            slots = chain.service.size
            probs = rows.T
            assert np.array_equal(probs, np.full((2, slots), 0.5 / slots))
            assert np.array_equal(probs, stationary(chain).probs)

    def test_first_failure_is_raised_itself(self, monkeypatch):
        # a singular solve's error carries the LinAlgError as its cause; the
        # evaluator keeps the error itself and returns it for every repeat
        build = model.build_chain
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])

        def swapping(slotted, batches):
            chain = build(slotted, batches)
            return dataclasses.replace(chain, sp_matrix=np.eye(2), vacation_matrix=swap)

        monkeypatch.setattr(model, "build_chain", swapping)
        singular = RtwtSpec(5 * SLOT, 1)  # a 4-slot vacation folds to the identity
        evaluator = model.ScheduleEvaluator(table_traffic(), LinkSpec(0.0, 1), 1)
        (first,) = evaluator.reports([singular])
        assert isinstance(first, ModelError)
        assert str(first).startswith("stationary solve failed: Singular")
        assert isinstance(first.__cause__, np.linalg.LinAlgError)
        (again,) = evaluator.reports([RtwtSpec(5 * SLOT, 1)])
        assert str(again) == str(first)
        batches = batch_distribution(table_traffic(), LinkSpec(0.0, 1))
        chain = swapping(slotify(table_traffic(), singular, 1), batches)
        with pytest.raises(ModelError) as direct:
            stationary(chain)
        assert isinstance(direct.value.__cause__, np.linalg.LinAlgError)

        injected = ModelError("injected failure")

        def failing(stat, batches, slotted):
            raise injected

        monkeypatch.setattr(model, "delay_pmf", failing)
        (first,) = evaluator.reports([RtwtSpec(4 * SLOT, 1)])
        assert first is injected

    def test_mixed_reports_keep_spec_order(self, monkeypatch):
        # 3000 cells pass hyperperiods of up to 47 slots at K=20, R=3
        monkeypatch.setattr(model, "MODEL_CELL_LIMIT", 3000)
        pmf = model.delay_pmf

        def failing(stat, batches, slotted):
            if slotted.sp_slots == 2:
                raise ModelError("injected failure")
            return pmf(stat, batches, slotted)

        monkeypatch.setattr(model, "delay_pmf", failing)
        traffic, link = table_traffic(), LinkSpec(0.1, 3)
        rtwts = [
            RtwtSpec(0.05e-3, 1),  # holds no whole slot
            RtwtSpec(10e-3, 3),  # 87 slots, 5481 cells
            RtwtSpec(20 * SLOT, 2),
            RtwtSpec(20 * SLOT, 1),
            RtwtSpec(20.02 * SLOT, 1),  # the same schedule at another period
        ]
        outcomes = model.ScheduleEvaluator(traffic, link, 20).reports(rtwts)
        kinds = [type(outcome) for outcome in outcomes]
        assert kinds == [ValueError, ModelError, ModelError, MetricsReport, MetricsReport]
        assert outcomes[3].pmf is outcomes[4].pmf
        assert outcomes[3].capacity != outcomes[4].capacity
        for rtwt, outcome in zip(rtwts, outcomes):
            if isinstance(outcome, MetricsReport):
                alone = evaluate(traffic, link, rtwt, 20)
                assert emit.json_bytes(outcome.to_dict()) == emit.json_bytes(alone.to_dict())
                assert outcome.pmf.mass.tobytes() == alone.pmf.mass.tobytes()
            else:
                with pytest.raises(type(outcome)) as alone:
                    evaluate(traffic, link, rtwt, 20)
                assert str(outcome) == str(alone.value)
        assert str(outcomes[1]).startswith("model too large: buffer_packets 20, 87 slot(s)")
        assert str(outcomes[2]) == "injected failure"


class TestBatchDelay:
    """Single-batch delays read off `delay_pmf`; hand-worked ones on a 3 + 5-slot cycle."""

    @staticmethod
    def slotted(buffer_packets=20):
        return slotify(table_traffic(), RtwtSpec(period=8 * SLOT, sp_slots=3), buffer_packets)

    def test_extra_vacation_examples(self):
        # a backlog arriving as the window opens pays one full vacation per
        # window after the first: 2 and 3 packets fit one window, 7 need three
        slotted = self.slotted()
        assert point_mass_delay(1, 0, slotted) == 2
        assert point_mass_delay(2, 0, slotted) == 3
        assert point_mass_delay(6, 0, slotted) == 7 + 2 * 5

    @given(pending=st.integers(1, 20), sp=st.integers(1, 6), vac=st.integers(0, 9))
    @settings(max_examples=60, deadline=None)
    def test_extra_vacation_closed_form(self, pending, sp, vac):
        slotted = slotify(table_traffic(), RtwtSpec(period=(sp + vac) * SLOT, sp_slots=sp), 20)
        windows = -(-pending // sp)  # ceil division
        assert point_mass_delay(pending - 1, 0, slotted) == pending + (windows - 1) * vac

    def test_delay_examples(self):
        slotted = self.slotted()
        assert point_mass_delay(0, 0, slotted) == 1
        assert point_mass_delay(0, 3, slotted) == 6
        assert point_mass_delay(3, 2, slotted) == 9

    def test_carryover_knob(self):
        # the understated variant charges one slot instead of the full
        # vacation when the backlog outlives the window
        slotted = self.slotted()
        assert point_mass_delay(3, 2, slotted, carry_full_vacation=False) == 5
        assert point_mass_delay(3, 2, slotted, carry_full_vacation=True) == 9

    @pytest.mark.parametrize(
        "retry_limit,mean_delay_s", [(1, 0.007957356406559452), (3, 0.007985927739937082)]
    )
    def test_literal_reading_values(self, retry_limit, mean_delay_s):
        # A5 contrasts these two points with the simulator and checks only that
        # they miss by more than 5%; the values pin the reading itself
        traffic = TrafficSpec(rate=62.5, slot_time=SLOT)
        link = LinkSpec(error_prob=0.1, retry_limit=retry_limit)
        report = model_oracle.literal_evaluate(traffic, link, RtwtSpec(16e-3, 3), 20)
        assert report.mean_delay_s == mean_delay_s

    def test_literal_carryover_charges_every_close(self):
        # 3 service and 5 vacation slots; both backlogs outlive two windows
        slotted = self.slotted()
        # arrival in the last service slot with 5 queued: 6 packets served in
        # slots 2, 8-10 and 16-17, two closes charged one slot each
        assert point_mass_delay(5, 2, slotted, carry_full_vacation=True) == 16
        assert point_mass_delay(5, 2, slotted, carry_full_vacation=False) == 6 + 1 + 1
        # arrival in vacation slot 4 with 6 queued: the 4 slots left of this
        # vacation count in full, then 7 packets over three windows
        assert point_mass_delay(6, 4, slotted, carry_full_vacation=True) == 21
        assert point_mass_delay(6, 4, slotted, carry_full_vacation=False) == 4 + 7 + 1 + 1

    @settings(max_examples=60, deadline=None)
    @given(sp=st.integers(1, 6), vac=st.integers(0, 9))
    def test_matches_slot_replay(self, sp, vac):
        cap = 12
        slotted = slotify(table_traffic(), RtwtSpec(period=(sp + vac) * SLOT, sp_slots=sp), cap)
        service = service_mask([sp + vac], sp)
        for k in range(cap):
            for n in range(sp + vac):
                for carry in (True, False):
                    assert point_mass_delay(k, n, slotted, carry) == drain_slots(
                        k + 1, n, service, carry
                    ), (k, n, carry)

    def test_rejects_overflowing_batch(self):
        # a batch that finds the buffer full is dropped, so a point mass
        # there leaves no delivery to account
        slotted = self.slotted(buffer_packets=4)
        batches = batch_distribution(table_traffic(), LinkSpec(error_prob=0.0, retry_limit=1))
        probs = np.zeros((5, 8))
        probs[4, 0] = 1.0
        chain = build_chain(slotted, batches)
        stat = StationaryDistribution(chain=chain, probs=probs, residual=0.0)
        with pytest.raises(ModelError, match="no successful delivery"):
            delay_pmf(stat, batches, slotted)

    def test_rejects_nan_weights(self):
        slotted = self.slotted(buffer_packets=4)
        batches = batch_distribution(table_traffic(), LinkSpec(error_prob=0.0, retry_limit=1))
        stat = StationaryDistribution(
            chain=build_chain(slotted, batches),
            probs=np.full((5, 8), np.nan),
            residual=0.0,
        )
        with pytest.raises(ModelError, match="no successful delivery"):
            delay_pmf(stat, batches, slotted)


class TestDelayPmf:
    def test_point_mass(self):
        traffic = table_traffic()
        slotted = slotify(traffic, RtwtSpec(period=8 * SLOT, sp_slots=3), 5)
        batches = batch_distribution(traffic, LinkSpec(error_prob=0.0, retry_limit=1))
        probs = np.zeros((6, 8))
        probs[0, 0] = 1.0
        chain = build_chain(slotted, batches)
        stat = StationaryDistribution(chain=chain, probs=probs, residual=0.0)
        pmf = delay_pmf(stat, batches, slotted)
        assert pmf.mass == pytest.approx([0.0, 1.0])

    def test_normalized_with_zero_head(self):
        chain, slotted, batches = table_chain()
        pmf = delay_pmf(stationary(chain), batches, slotted)
        assert pmf.mass.sum() == pytest.approx(1.0, abs=1e-9)
        assert pmf.mass[0] == 0.0
        assert pmf.mass.min() >= 0.0
        bound = (20 + 3) * (1.0 + 84.0 / 3.0) + 87
        assert pmf.mass.size - 1 <= bound

    def test_support_past_the_analytic_bound_is_an_error(self, monkeypatch):
        # a departure table ten times too long puts mass past the bound,
        # (20 + 3) * (1 + 84 / 3) + 87 slots at 10 ms, and `evaluate` raises
        departures = model._departures

        def inflated(chain, backlog):
            return 10 * departures(chain, backlog)

        monkeypatch.setattr(model, "_departures", inflated)
        with pytest.raises(
            ModelError, match=r"^delay support \d+ exceeds the analytic bound 754\.0$"
        ):
            evaluate(table_traffic(), LinkSpec(0.1, 3), RtwtSpec(10e-3, 3), 20)

    @staticmethod
    def walked(service, start, index):
        """The slots from `start` to the end of each indexed service slot at
        or after it, walked slot by slot over enough laps of `service`."""
        laps = np.tile(service, int(index.max()) // np.count_nonzero(service) + 2)
        ends = [n + 1 - start for n in range(start, laps.size) if laps[n]]
        return [ends[j] for j in index.tolist()]

    @staticmethod
    def increase_along(index, table):
        """Whether each row of `table` rises strictly with `index` and stays where it ties."""
        order = np.argsort(index, kind="stable")
        steps, gaps = np.diff(table[:, order], axis=1), np.diff(index[order])
        return np.all(steps[:, gaps > 0] > 0) and np.all(steps[:, gaps == 0] == 0)

    @settings(max_examples=200, deadline=None)
    @given(
        schedules=st.lists(
            st.tuples(st.integers(1, 5), st.lists(st.integers(0, 20), min_size=1, max_size=4)),
            min_size=1, max_size=3,
        ),
        data=st.data(),
    )
    def test_departures_increase_along_the_index(self, schedules, data):
        # `DelayFloor`'s one premise, on `_service_ends` in both its layouts:
        # from any slot of a schedule (`delay_pmf`'s `_departures`) and from
        # any cycle opening of a block of mixed patterns (`_checkpoint_floors`,
        # each schedule at its offset into the block's cycles), its mask
        # repeating once per hyperperiod, a larger index is a later departure,
        # and each entry is the slot count a walk along the slots finds
        index = np.array(data.draw(st.lists(st.integers(0, 60), min_size=1, max_size=12)))
        masks, patterns = [], []
        for sp_slots, vacations in schedules:
            cycles = tuple(sp_slots + n for n in vacations)
            slotted = SlottedConfig(sp_slots, cycles, buffer_packets=1, pattern_error=0.0)
            chain = build_chain(slotted, batch_distribution(table_traffic(), LinkSpec(0.1, 3)))
            slots = st.integers(0, chain.service.size - 1)
            rows = data.draw(st.lists(slots, min_size=1, max_size=8))
            table = model._departures(chain, index)[rows]
            assert self.increase_along(index, table)
            for row, delays in zip(rows, table):
                assert delays.tolist() == self.walked(chain.service, row, index)
            masks.append(chain.service)
            patterns.append(cycles)

        lengths = np.concatenate(patterns)
        counts = np.array([len(cycles) for cycles in patterns])
        owner = np.repeat(np.arange(len(patterns)), counts)
        heads = np.cumsum(counts) - counts
        cycle = np.arange(owner.size) - heads[owner]
        windows = np.array([sp_slots for sp_slots, _ in schedules])[owner]
        opens = np.cumsum(lengths) - lengths
        table = model._service_ends(
            index[:, None] + cycle * windows, windows, counts[owner],
            np.add.reduceat(lengths, heads)[owner], opens, heads[owner],
        ).T - opens[:, None]
        assert self.increase_along(index, table)
        for b, j, delays in zip(owner, cycle, table):
            start = sum(patterns[b][:j])
            assert delays.tolist() == self.walked(masks[b], start, index)

    @pytest.mark.parametrize(
        "period,sp_slots,cycles",
        [
            (8 * SLOT, 3, (8,)),
            (1e-3, 3, (9, 8, 9)),
            (2e-3, 2, (17, 18)),
            (0.73e-3, 3, (6, 7, 6)),
        ],
    )
    @pytest.mark.parametrize("carry_full_vacation", [True, False])
    def test_delays_match_slot_replay(
        self, period, sp_slots, cycles, carry_full_vacation
    ):
        cap = 8
        slotted = slotify(table_traffic(), RtwtSpec(period=period, sp_slots=sp_slots), cap, True)
        assert slotted.cycle_pattern == cycles
        service = service_mask(cycles, sp_slots)
        for k in range(cap):
            for n in range(len(service)):
                expected = drain_slots(k + 1, n, service, carry_full_vacation)
                assert point_mass_delay(k, n, slotted, carry_full_vacation) == expected, (k, n)

    @settings(max_examples=80, deadline=None)
    @given(
        period_slots=st.floats(1.0, 60.0),
        sp_slots=st.integers(1, 5),
        buffer_packets=st.integers(1, 25),
        retry_limit=st.integers(1, 5),
        error_prob=st.floats(0.0, 0.6),
        interarrival=st.floats(5e-4, 0.05),
    )
    # one 8-slot cycle, the 9 + 8 + 9 pattern of 1 ms, the 6 + 7 + 6 of 0.73 ms
    @example(8.0, 3, 20, 3, 0.1, 16e-3)
    @example(1e-3 / SLOT, 3, 20, 3, 0.1, 16e-3)
    @example(0.73e-3 / SLOT, 2, 25, 5, 0.5, 2e-3)
    def test_matches_masked_oracle(
        self, period_slots, sp_slots, buffer_packets, retry_limit, error_prob, interarrival
    ):
        traffic = table_traffic(interarrival)
        rtwt = RtwtSpec(period=period_slots * SLOT, sp_slots=sp_slots)
        try:
            slotted = slotify(traffic, rtwt, buffer_packets, allow_coarse=True)
        except ValueError:
            assume(False)
        batches = batch_distribution(traffic, LinkSpec(error_prob, retry_limit))
        stat = stationary(build_chain(slotted, batches))
        got = delay_pmf(stat, batches, slotted)
        expected = model_oracle.masked_delay_pmf(stat, batches, slotted)
        assert np.array_equal(got.mass, expected.mass)

    @pytest.mark.parametrize("period", [1e-3, 0.73e-3])
    def test_cycle_pattern_mass(self, period):
        chain, slotted, batches = table_chain(period=period)
        assert len(slotted.cycle_pattern) > 1
        pmf = delay_pmf(stationary(chain), batches, slotted)
        assert pmf.mass.sum() == pytest.approx(1.0, abs=1e-9)
        assert pmf.mass[0] == 0.0
        assert pmf.mass.min() >= 0.0

    def test_rejects_another_schedule(self):
        # the chain carries the service mask; a different schedule would be
        # read against the wrong one
        chain, _, batches = table_chain(period=10e-3)
        _, other, _ = table_chain(period=1e-3)
        with pytest.raises(ValueError, match="schedule"):
            delay_pmf(stationary(chain), batches, other)

    def test_zero_rate_is_an_error(self):
        traffic = TrafficSpec(rate=0.0, slot_time=SLOT)
        slotted = slotify(traffic, RtwtSpec(period=8 * SLOT, sp_slots=3), 20)
        batches = batch_distribution(traffic, LinkSpec(0.1, 3))
        chain = build_chain(slotted, batches)
        with pytest.raises(ModelError, match="no deliveries"):
            delay_pmf(stationary(chain), batches, slotted)

    def test_percentile_boundary_convention(self):
        mass = np.zeros(11)
        mass[1], mass[10] = 0.999, 0.001
        pmf = DelayPmf(mass=mass)
        assert pmf.percentile_slots(0.999) == 1
        assert pmf.percentile_slots(0.9991) == 10

    def test_quantile_above_the_float_total_takes_the_last_slot(self):
        # the total reads 0.9999999999999998: a quantile one ulp below 1
        # lies above it, and gets the last support slot, not one past it
        pmf = DelayPmf(mass=np.array([0.0, 0.7, 0.0, 0.2999999999999998]))
        q = 0.9999999999999999
        assert float(np.cumsum(pmf.mass)[-1]) < q
        assert pmf.percentile_slots(q) == 3
        assert pmf.arrival_percentile_slots(q) == 4.0

    @given(
        weights=st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=30),
        q_lo=st.floats(0.01, 0.99),
        q_hi=st.floats(0.01, 0.99),
    )
    def test_percentile_monotone_in_quantile(self, weights, q_lo, q_hi):
        if q_lo > q_hi:
            q_lo, q_hi = q_hi, q_lo
        mass = np.array([0.0] + weights)
        pmf = DelayPmf(mass=mass / mass.sum())
        assert pmf.percentile_slots(q_lo) <= pmf.percentile_slots(q_hi)
        assert pmf.arrival_percentile_slots(q_lo) <= pmf.arrival_percentile_slots(q_hi)
        for q in (q_lo, q_hi):
            slot_level = pmf.percentile_slots(q)
            assert slot_level < pmf.arrival_percentile_slots(q) <= slot_level + 1

    def test_arrival_percentile_interpolates(self):
        # half the mass at 1 slot, half at 3: the arrival-instant delay is
        # uniform on [1, 2) and on [3, 4) with weight 1/2 each
        pmf = DelayPmf(mass=np.array([0.0, 0.5, 0.0, 0.5]))
        assert pmf.arrival_percentile_slots(0.25) == pytest.approx(1.5, abs=1e-12)
        assert pmf.arrival_percentile_slots(0.5) == pytest.approx(2.0, abs=1e-12)
        assert pmf.arrival_percentile_slots(0.9) == pytest.approx(3.8, abs=1e-12)

    @given(weights=st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=30))
    def test_moments_match_numpy(self, weights):
        mass = np.array([0.0] + weights)
        mass /= mass.sum()
        pmf = DelayPmf(mass=mass)
        support = np.arange(mass.size)
        mean = float(np.average(support, weights=mass))
        var = float(np.average((support - mean) ** 2, weights=mass))
        assert pmf.mean_slots() == pytest.approx(mean, rel=1e-12)
        assert pmf.std_slots() == pytest.approx(math.sqrt(var), rel=1e-9, abs=1e-12)

    def test_percentile_rejects_bad_quantile(self):
        pmf = DelayPmf(mass=np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            pmf.percentile_slots(1.0)


class TestDelayFloor:
    """Floors read off the slot-0 row of a solve bound its report from below."""

    @settings(max_examples=150, deadline=None)
    @given(
        period_slots=st.floats(1.0, 60.0),
        sp_slots=st.integers(1, 5),
        buffer_packets=st.integers(1, 50),
        retry_limit=st.integers(1, 5),
        error_prob=st.floats(0.0, 0.5),
        # down to about one batch per slot: overload for most windows
        interarrival=st.floats(1.2e-4, 0.05),
        quantile=st.floats(0.5, 0.9999),
    )
    # one 8-slot cycle, the 9 + 8 + 9 pattern of 1 ms, an overloaded 1-slot window
    @example(8.0, 3, 20, 3, 0.1, 16e-3, 0.999)
    @example(1e-3 / SLOT, 3, 20, 3, 0.1, 16e-3, 0.9999)
    @example(10.0, 1, 50, 5, 0.5, 1.2e-4, 0.9)
    def test_floor_bounds_the_pmf(
        self, period_slots, sp_slots, buffer_packets, retry_limit, error_prob, interarrival,
        quantile,
    ):
        traffic, link = table_traffic(interarrival), LinkSpec(error_prob, retry_limit)
        batches = batch_distribution(traffic, link)
        rtwts = [RtwtSpec(3 * SLOT, 1), RtwtSpec(period_slots * SLOT, sp_slots)]
        try:
            schedules = [slotify(traffic, r, buffer_packets, allow_coarse=True) for r in rtwts]
            stat = stationary(build_chain(schedules[1], batches))
        except (ValueError, ModelError):
            assume(False)
        pmf = delay_pmf(stat, batches, schedules[1])
        # the second schedule is read behind the first, as in a block
        chains, _ = block_chains(
            traffic, link, [r.period for r in rtwts], [r.sp_slots for r in rtwts], buffer_packets
        )
        floors = {form: found[1] for form, found in block_early_floors(chains, quantile).items()}
        # a form proves no delivery where, say, the buffer is full at every cycle start
        report = metrics(pmf, link, traffic, rtwts[1], quantile, overflow_prob=0.0)
        assert_floors_bound(floors, report)

    @settings(max_examples=100, deadline=None)
    @given(
        period_slots=st.floats(1.0, 40.0),
        sp_slots=st.integers(1, 4),
        buffer_packets=st.integers(1, 12),
        cells=st.integers(1, 5),
        # down to about one batch per slot: most of the mass off the empty queue
        interarrival=st.floats(1.2e-4, 0.02),
        quantile=st.floats(0.5, 0.9999),
        data=st.data(),
    )
    def test_floor_bounds_the_pmf_for_any_layout(
        self, period_slots, sp_slots, buffer_packets, cells, interarrival, quantile, data
    ):
        # the bound rests on `_departures`' premise and on the layout's two:
        # any delivered weights >= 0 that do not rise with the queue, zeros
        # included, and any backlog indices that do not fall with it, in any
        # order within a state, keep each floor at most what `metrics`
        # reports for the PMF of that layout
        traffic, link = table_traffic(interarrival), LinkSpec(0.1, 3)
        rtwt = RtwtSpec(period_slots * SLOT, sp_slots)
        batches = batch_distribution(traffic, link)
        try:
            slotted = slotify(traffic, rtwt, buffer_packets, allow_coarse=True)
            stat = stationary(build_chain(slotted, batches))
        except (ValueError, ModelError):
            assume(False)
        shape = (stat.chain.states, cells)
        size = shape[0] * shape[1]
        steps = data.draw(st.lists(st.integers(0, 2), min_size=size, max_size=size))
        backlog = np.cumsum(np.reshape(steps, shape), axis=0)
        weight = st.one_of(st.just(0.0), st.floats(1e-6, 1.0))
        delivered = data.draw(st.lists(weight, min_size=size, max_size=size))
        delivered = np.sort(np.reshape(delivered, shape), axis=0)[::-1]
        chain = dataclasses.replace(stat.chain, delivered=delivered, backlog=backlog)
        stat = dataclasses.replace(stat, chain=chain)
        floors = {form: found for form, (found,) in block_early_floors([chain], quantile).items()}
        if not delivered.any():  # no delivered weight: no floor, and no PMF either
            assert floors == {form: None for form in FORMS}
            with pytest.raises(ModelError, match="no successful delivery"):
                delay_pmf(stat, batches, slotted)
            return
        if floors == {form: None for form in FORMS}:  # no delivered weight proven
            return  # the schedule needs its rows, where `delay_pmf` decides
        report = metrics(
            delay_pmf(stat, batches, slotted), link, traffic, rtwt, quantile, overflow_prob=0.0
        )
        assert_floors_bound(floors, report)

    @pytest.mark.parametrize("quantile", [0.9, 0.999])
    @pytest.mark.parametrize(
        "period,sp_slots,buffer_packets,retry_limit,error_prob,interarrival",
        [
            (10e-3, 3, 20, 3, 0.1, 16e-3),  # one cycle
            (1e-3, 3, 20, 3, 0.1, 16e-3),  # cycles of 9, 8 and 9 slots
            (0.73e-3, 2, 20, 3, 0.1, 16e-3),  # cycles of 6, 7 and 6 slots
            (10e-3, 1, 1, 3, 0.1, 16e-3),  # K = 1
            (16e-3, 1, 200, 3, 0.1, 16e-3),  # K = 200
            (5e-3, 1, 20, 1, 0.0, 16e-3),  # R = 1
            (10e-3, 2, 20, 3, 0.1, 5e-3),
            (1e-3, 1, 20, 3, 0.1, 5e-3),
            (2e-3, 1, 20, 3, 0.1, 0.2e-3),  # overload
            (0.73e-3, 3, 50, 5, 0.5, 0.2e-3),
        ],
    )
    def test_early_floor_bounds_the_report(
        self, period, sp_slots, buffer_packets, retry_limit, error_prob, interarrival, quantile
    ):
        traffic, link = table_traffic(interarrival), LinkSpec(error_prob, retry_limit)
        rtwt = RtwtSpec(period, sp_slots)
        chains, _ = block_chains(traffic, link, [period], [sp_slots], buffer_packets)
        floors = {form: found for form, (found,) in block_early_floors(chains, quantile).items()}
        assert None not in floors.values()
        report = evaluate(traffic, link, rtwt, buffer_packets, quantile, allow_coarse=True)
        assert_floors_bound(floors, report)

    @settings(max_examples=150, deadline=None)
    @given(
        period_slots=st.floats(1.0, 140.0),
        sp_slots=st.integers(1, 5),
        buffer_packets=st.integers(1, 60),
        retry_limit=st.integers(1, 5),
        error_prob=st.floats(0.0, 0.5),
        interarrival=st.floats(0.2e-3, 16e-3),
        quantile=st.floats(0.9, 0.999),
    )
    def test_early_floor_bounds_the_report_on_random_schedules(
        self, period_slots, sp_slots, buffer_packets, retry_limit, error_prob, interarrival,
        quantile,
    ):
        # each schedule behind a 3-slot one, as in a block: the floors of a
        # block are each schedule's own
        traffic, link = table_traffic(interarrival), LinkSpec(error_prob, retry_limit)
        rtwts = [RtwtSpec(3 * SLOT, 1), RtwtSpec(period_slots * SLOT, sp_slots)]
        try:
            report = evaluate(traffic, link, rtwts[1], buffer_packets, quantile, True)
        except (ValueError, ModelError):
            assume(False)
        chains, _ = block_chains(
            traffic, link, [r.period for r in rtwts], [r.sp_slots for r in rtwts], buffer_packets
        )
        floors = {form: found[1] for form, found in block_early_floors(chains, quantile).items()}
        # a form proves no delivery where, say, the buffer is full at every cycle start
        assert_floors_bound(floors, report)

    @pytest.mark.parametrize("corruption", ["nan", "shift", "negative"])
    def test_early_tests_send_a_bad_slot_0_row_to_the_full_path(self, corruption, monkeypatch):
        # every solve returns a corrupted slot-0 row: a NaN cell, 1e-6 of
        # mass moved between queue lengths, or a full buffer at -1e-12.  A
        # screened evaluator settles none of them off that row: each reaches
        # its slot rows and gets there what a lone `evaluate` gets
        solve = np.linalg.solve

        def corrupted(systems, rhs):
            phi0 = solve(systems, rhs)
            if corruption == "nan":
                phi0[:, 3] = np.nan
            elif corruption == "shift":
                phi0[:, 0] -= 1e-6
                phi0[:, 1] += 1e-6
            else:
                phi0[:, -1] = -1e-12
            return phi0

        propagated = []
        propagate = model._propagate

        def spied(chains, phi0):
            propagated.extend(model._schedule_key(chain.slotted) for chain in chains)
            return propagate(chains, phi0)

        monkeypatch.setattr(np.linalg, "solve", corrupted)
        monkeypatch.setattr(model, "_propagate", spied)
        traffic, link = table_traffic(), LinkSpec(0.1, 3)
        rtwts = [RtwtSpec(period, window) for period, window in zip(
            TestBlockSolve.PERIODS, TestBlockSolve.WINDOWS
        )]
        screened = model.ScheduleEvaluator(
            traffic, link, 20, allow_coarse=True, screen=lambda floor: True
        )
        outcomes = screened.reports(rtwts)
        assert len(propagated) == len(rtwts)
        errors = 0
        for rtwt, outcome in zip(rtwts, outcomes):
            try:
                report = evaluate(traffic, link, rtwt, 20, allow_coarse=True)
            except ModelError as alone:
                assert isinstance(outcome, ModelError) and str(outcome) == str(alone)
                errors += 1
                continue
            assert emit.json_bytes(outcome.to_dict()) == emit.json_bytes(report.to_dict())
        assert errors > 0

    def test_no_slot_0_floor_without_a_delivered_weight_at_a_cycle_start(self):
        # a full buffer at every cycle start, under a layout that delivers
        # from an empty queue only: no cycle start proves a delivery, so the
        # schedule is left to its rows, where `delay_pmf` decides
        chain = table_chain()[0]
        delivered = np.zeros_like(chain.delivered)
        delivered[0] = chain.delivered[0]
        chain = dataclasses.replace(chain, delivered=delivered)
        phi0 = np.zeros((1, chain.states))
        phi0[0, -1] = 1.0
        tables = floor_tables(chain)
        for form in FORMS:
            assert form_floors(form, [chain], phi0, phi0[None], tables, 0.999) == [None], form
        phi0[0, :2] = 0.5, 0.5
        phi0[0, -1] = 0.0
        for form in FORMS:
            (floor,) = form_floors(form, [chain], phi0, phi0[None], tables, 0.999)
            assert floor is not None, form

    @pytest.mark.parametrize("rate,error_prob", [(0.0, 0.1), (1.0 / 16e-3, 1.0)])
    def test_nothing_delivered_has_no_floor(self, rate, error_prob):
        # no delivered weight to share: no floor, no division by zero (a
        # RuntimeWarning fails the test), and the screened call errs as
        # `evaluate` does
        traffic = TrafficSpec(rate=rate, slot_time=SLOT)
        link = LinkSpec(error_prob, 3)
        rtwt = RtwtSpec(period=8 * SLOT, sp_slots=3)
        chains, _ = block_chains(traffic, link, [rtwt.period] * 2, [rtwt.sp_slots] * 2)
        assert block_early_floors(chains, 0.999) == {form: [None, None] for form in FORMS}
        evaluator = model.ScheduleEvaluator(traffic, link, 20, screen=lambda floor: True)
        (outcome,) = evaluator.reports([rtwt])
        with pytest.raises(ModelError) as alone:
            evaluate(traffic, link, rtwt, 20)
        assert isinstance(outcome, ModelError) and str(outcome) == str(alone.value)

    @pytest.mark.parametrize("accepts", [False, True])
    def test_full_floor_at_a_large_buffer(self, accepts, monkeypatch):
        # K = 500 and R = 7 pass the model's size guard (S^2 and H x S x R
        # within MODEL_CELL_LIMIT).  The screen turns down the coarse floor,
        # so the screened solve reads the full one; a full floor it accepts
        # is at most what `evaluate` reports, and a schedule it turns down
        # gets `evaluate`'s bytes
        traffic, link = table_traffic(), LinkSpec(0.1, 7)
        rtwt = RtwtSpec(period=20 * SLOT, sp_slots=2)
        full = []
        checkpoint = model._checkpoint_floors

        def spied(*args):
            made = checkpoint(*args)
            full.extend(made)
            return made

        monkeypatch.setattr(model, "_checkpoint_floors", spied)
        screened = model.ScheduleEvaluator(
            traffic, link, 500, screen=lambda floor: accepts and any(floor is f for f in full)
        )
        tracemalloc.start()
        try:
            (outcome,) = screened.reports([rtwt])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(full) == 1 and full[0] is not None
        # the solve holds 12 S x S float matrices at once: the chain's two,
        # the six powers it makes (the window's square, the vacation's four
        # squarings and its power of 18), the cycle's product, its fold, the
        # system and LAPACK's copy of it; a 13th covers a transient.  The
        # full floor's arrays at one cycle, about 3 x (S + 1) x R cells, and
        # the rows, checks and PMF of a turned-down schedule, about H x S x R,
        # fit in a 14th (the peak read 25.4 MB against 28.1).  An array of
        # S x S x R cells would not, nor a stack of the vacation squarings
        states = model.chain_states(500, 7)
        assert peak < 14 * states * states * 8
        report = evaluate(traffic, link, rtwt, 500)
        if accepts:
            assert outcome is full[0]
            assert outcome.percentile_s <= report.percentile_s
            assert outcome.mean_delay_s <= report.mean_delay_s
        else:
            assert emit.json_bytes(outcome.to_dict()) == emit.json_bytes(report.to_dict())

    @pytest.mark.parametrize("corruption", ["nan", "shift", "negative"])
    def test_floors_beside_a_failed_schedule(self, corruption):
        # hyperperiods of 40 to 136 slots in one block; one schedule's slot-0
        # row fails the slot-0 tests and gets no floor, and every other
        # schedule keeps the floor it has in the block without the fault, at
        # most what `evaluate` reports
        traffic, link = table_traffic(2.5e-3), LinkSpec(0.1, 3)
        rtwts = [RtwtSpec(slots * SLOT, 1 + slots % 3) for slots in range(40, 140, 4)]
        chains, _ = block_chains(
            traffic, link, [r.period for r in rtwts], [r.sp_slots for r in rtwts]
        )
        solved = []

        def record(block, phi0, starts):
            solved.append((block, phi0, starts))
            return [False] * len(block)

        model._stationary_cycles(chains, settle=record)
        ((block, phi0, starts),) = solved
        tables = floor_tables(chains[0])
        floors = {form: form_floors(form, block, phi0, starts, tables, 0.999) for form in FORMS}
        bad = len(block) // 2
        phi0 = phi0.copy()
        if corruption == "nan":
            phi0[bad, 3] = np.nan
        elif corruption == "shift":  # the total stays one: only the wrap gap catches it
            phi0[bad, 0] -= 1e-6
            phi0[bad, 1] += 1e-6
        else:
            phi0[bad, -1] = -1e-12
        for form in FORMS:
            faulty = form_floors(form, block, phi0, starts, tables, 0.999)
            assert faulty[bad] is None, form
            for b, floor in enumerate(floors[form]):
                if b != bad:
                    assert faulty[b] == floor, form
        for b, rtwt in enumerate(rtwts):
            if b != bad:
                report = evaluate(traffic, link, rtwt, 20, allow_coarse=True)
                assert None not in (floors["coarse"][b], floors["full"][b])
                assert_floors_bound({form: floors[form][b] for form in FORMS}, report)

    @pytest.mark.parametrize("again", [None, lambda floor: False])
    def test_screened_schedule_is_solved_again_in_full(self, again):
        # a screened evaluator keeps its floors; one without a screen, or
        # with one that accepts no floor, solves the same specs in full
        traffic, link = table_traffic(), LinkSpec(0.1, 3)
        rtwts = [RtwtSpec(period=10e-3, sp_slots=3), RtwtSpec(period=1e-3, sp_slots=3)]
        screened = model.ScheduleEvaluator(
            traffic, link, 20, allow_coarse=True, screen=lambda floor: True
        )
        floors = screened.reports(rtwts)
        assert all(isinstance(floor, model.DelayFloor) for floor in floors)
        assert all(a is b for a, b in zip(screened.reports(rtwts), floors))
        full = dataclasses.replace(screened, screen=again)
        for rtwt, report in zip(rtwts, full.reports(rtwts)):
            direct = evaluate(traffic, link, rtwt, 20, allow_coarse=True)
            assert emit.json_bytes(report.to_dict()) == emit.json_bytes(direct.to_dict())
            assert np.array_equal(report.pmf.mass, direct.pmf.mass)

    def test_no_schedule_is_solved_twice(self, monkeypatch):
        # every outcome an evaluator records is final: a floored schedule
        # asked for again, and a schedule repeated at another period, are
        # read back and never handed to `_solve` a second time
        solved = []
        solve = model.ScheduleEvaluator._solve

        def spied(self, schedules):
            solved.extend((s.sp_slots, s.cycle_pattern) for s in schedules)
            return solve(self, schedules)

        monkeypatch.setattr(model.ScheduleEvaluator, "_solve", spied)
        traffic, link = table_traffic(), LinkSpec(0.1, 3)
        floored, full = RtwtSpec(10e-3, 3), RtwtSpec(1e-3, 3)
        short, repeat = RtwtSpec(20 * SLOT, 1), RtwtSpec(20.02 * SLOT, 1)
        # percentile floors of 147 slots (10 ms), 7 (1 ms) and 69 (20 slots)
        evaluator = model.ScheduleEvaluator(
            traffic, link, 20, allow_coarse=True,
            screen=lambda floor: floor.percentile_s > 100 * SLOT,
        )
        first = evaluator.reports([floored, short])
        second = evaluator.reports([repeat, floored, full])
        third = evaluator.reports([floored, short, full, repeat])
        assert len(solved) == len(set(solved)) == 3
        assert isinstance(first[0], model.DelayFloor)
        assert second[1] is third[0] is first[0]
        assert first[1].pmf is second[0].pmf is third[1].pmf is third[3].pmf
        assert second[2].pmf is third[2].pmf
        assert second[0].capacity != first[1].capacity


class TestMetricsAndEvaluate:
    @pytest.mark.parametrize("buffer_packets", [2.5, 20.0, 0])
    def test_non_integer_buffer_rejected(self, buffer_packets):
        # a float buffer would reach numpy's indexing and fail there
        message = f"^buffer_packets must be an integer >= 1, got {buffer_packets}$"
        with pytest.raises(ValueError, match=message):
            evaluate(table_traffic(), LinkSpec(0.1, 3), RtwtSpec(10e-3, 3), buffer_packets)

    def test_point_mass_metrics(self):
        # a slot delay of exactly 1 plus the Uniform[0, 1) arrival phase is
        # uniform on [1, 2) slots: mean 1.5, deviation 1/sqrt(12), and the
        # 0.999-quantile at 1.999
        pmf = DelayPmf(mass=np.array([0.0, 1.0]))
        report = metrics(
            pmf, LinkSpec(0.1, 3), table_traffic(), RtwtSpec(period=10e-3, sp_slots=3),
            overflow_prob=0.0,
        )
        assert report.mean_delay_s == pytest.approx(1.5 * SLOT, rel=1e-12)
        assert report.jitter_s == pytest.approx(SLOT / math.sqrt(12.0), rel=1e-12)
        assert report.percentile_s == pytest.approx(1.999 * SLOT, rel=1e-12)
        assert report.loss_prob == 0.1**3
        assert report.capacity == pytest.approx(10e-3 / (3 * SLOT), rel=1e-12)

    def test_table_defaults(self):
        report = evaluate(
            table_traffic(), LinkSpec(0.1, 3), RtwtSpec(period=10e-3, sp_slots=3), 20
        )
        assert report.loss_prob == 0.1**3
        # above the level reached at a 6 ms period, since the percentile
        # grows with the period
        assert report.percentile_s > 10e-3
        assert 0.0 <= report.overflow_prob < 1e-12
        assert report.jitter_s > 0.0
        assert report.pmf is not None
        # regression pins: the slot-grid mean of 5.1133e-3 s plus half a slot
        # of arrival phase, and a percentile inside the slot after the
        # slot-grid quantile of 154 slots; the event simulator gives a mean of
        # 5.211 +- 0.010 ms and a percentile of 18.01 ms at this setting
        assert report.pmf.mean_slots() * SLOT == pytest.approx(5.1133e-3, rel=1e-4)
        assert report.pmf.percentile_slots(0.999) == 154
        assert report.mean_delay_s == pytest.approx(5.1705e-3, rel=1e-4)
        assert 154 * SLOT < report.percentile_s <= 155 * SLOT

    def test_quantile_near_one_is_finite(self):
        # the PMF's float total at this setting falls one ulp short of this
        # quantile; the percentile is then the end of the last support slot
        report = evaluate(
            table_traffic(12e-3), LinkSpec(0.1, 3), RtwtSpec(period=10e-3, sp_slots=3), 20,
            quantile=0.9999999999999999,
        )
        assert float(np.cumsum(report.pmf.mass)[-1]) < 0.9999999999999999
        assert report.percentile_s == report.pmf.mass.size * SLOT

    @pytest.mark.parametrize("method", ["cycle", "full"])
    @pytest.mark.parametrize("period,allow_coarse", [(10e-3, False), (1e-3, True)])
    def test_stages_replay_evaluate(self, period, allow_coarse, method):
        # the public stages, called one by one as a layer-by-layer profile
        # calls them, give evaluate's report and PMF byte for byte
        traffic = table_traffic(2.5e-3)
        link = LinkSpec(0.1, 3)
        rtwt = RtwtSpec(period=period, sp_slots=3)
        slotted = slotify(traffic, rtwt, 20, allow_coarse=allow_coarse)
        batches = batch_distribution(traffic, link)
        chain = build_chain(slotted, batches)
        stat = stationary(chain, method=method)
        pmf = delay_pmf(stat, batches, slotted)
        overflow = overflow_probability(stat, batches)
        replayed = metrics(pmf, link, traffic, rtwt, quantile=0.999, overflow_prob=overflow)
        direct = evaluate(
            traffic, link, rtwt, 20, quantile=0.999, allow_coarse=allow_coarse, method=method
        )
        assert overflow > 0.0
        assert emit.json_bytes(replayed.to_dict()) == emit.json_bytes(direct.to_dict())
        assert replayed.pmf.mass.tobytes() == direct.pmf.mass.tobytes()

    def test_zero_rate_propagates(self):
        with pytest.raises(ModelError, match="no deliveries"):
            evaluate(
                TrafficSpec(rate=0.0, slot_time=SLOT),
                LinkSpec(0.1, 3),
                RtwtSpec(period=10e-3, sp_slots=3),
                20,
            )

    def test_wider_window_never_hurts(self):
        traffic = table_traffic()
        link = LinkSpec(0.1, 3)
        narrow = evaluate(traffic, link, RtwtSpec(period=10e-3, sp_slots=3), 20)
        wide = evaluate(traffic, link, RtwtSpec(period=10e-3, sp_slots=10), 20)
        assert wide.percentile_s <= narrow.percentile_s
        assert wide.mean_delay_s <= narrow.mean_delay_s

    def test_longer_period_never_helps(self):
        traffic = table_traffic()
        link = LinkSpec(0.1, 3)
        short = evaluate(traffic, link, RtwtSpec(period=5e-3, sp_slots=3), 20, allow_coarse=True)
        long = evaluate(traffic, link, RtwtSpec(period=15e-3, sp_slots=3), 20, allow_coarse=True)
        assert short.percentile_s <= long.percentile_s
        assert short.mean_delay_s <= long.mean_delay_s

    def test_overflow_shrinks_with_buffer(self):
        heavy = TrafficSpec(rate=1.0 / 2.5e-3, slot_time=SLOT)
        link = LinkSpec(0.1, 3)
        rtwt = RtwtSpec(period=10e-3, sp_slots=3)
        small = evaluate(heavy, link, rtwt, 3)
        large = evaluate(heavy, link, rtwt, 10)
        assert 0.0 < large.overflow_prob < small.overflow_prob < 1.0
