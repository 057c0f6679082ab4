"""The queue chain against a closed form that shares none of its code.

`analytic_oracle` gives the law of the queue in a 1-slot window at a retry
limit of 1 from its generating function.  The chain's side is `stationary`'s
slot-0 distribution, the queue at the start of the window slot, with that
slot's arrival added.  At a retry limit of 1 each service slot removes one
attempt whether or not it succeeds, so the error rate leaves the queue's law
as it is.
"""

import numpy as np
import pytest

from rtwt_planner import LinkSpec, RtwtSpec, TrafficSpec
from rtwt_planner.model import build_chain, stationary
from rtwt_planner.params import batch_distribution, slotify

import analytic_oracle

SLOT = 114.4e-6
BUFFER = 200  # the closed form's buffer is unbounded; what lies above 200 is negligible here


@pytest.mark.parametrize("error", [0.0, 0.3])
@pytest.mark.parametrize(
    "cycle_slots,interarrival", [(10, 16e-3), (14, 16e-3), (40, 16e-3), (20, 3e-3)]
)
def test_one_slot_window_matches_the_closed_form(cycle_slots, interarrival, error):
    traffic = TrafficSpec(rate=1.0 / interarrival, slot_time=SLOT)
    slotted = slotify(traffic, RtwtSpec(period=cycle_slots * SLOT, sp_slots=1), BUFFER)
    assert slotted.cycle_pattern == (cycle_slots,)
    batches = batch_distribution(traffic, LinkSpec(error, 1))
    p = batches.p_batch
    assert 0.05 < cycle_slots * p <= 0.8
    start = stationary(build_chain(slotted, batches)).probs[:, 0] * slotted.hyperperiod_slots
    chain = np.convolve(start, [1.0 - p, p])  # the window slot's arrival added
    closed = analytic_oracle.one_slot_queue(cycle_slots, p, chain.size)
    # the oracle's own law: a whole unit of mass, at its closed-form mean
    assert closed.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.arange(closed.size) @ closed == pytest.approx(
        analytic_oracle.one_slot_mean(cycle_slots, p), rel=1e-12
    )
    assert 0.5 * np.abs(chain - closed).sum() < 1e-10
