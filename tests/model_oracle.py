"""Reference delay readings for `rtwt_planner.model`.

`masked_delay_pmf` computes the delay distribution over the full
(slot, k, r) cube with overflowing cells masked out, where the package
gathers a per-backlog table; with `carry_full_vacation=True` it must equal
`model.delay_pmf` bit for bit.  With `carry_full_vacation=False` it gives the
literal carryover reading: one slot charged in place of every vacation that
follows a window closing on the pending backlog, while the vacation an
arrival lands in counts in full.  That reading understates the delay, and
acceptance criterion A5 measures by how much against the simulator, so it
lives here as a test reference and is not package code.  `service_flags`
writes the service mask slot by slot, the reference for `ChainModel.service`.
"""

import numpy as np

from rtwt_planner.model import (
    DelayPmf,
    ModelError,
    build_chain,
    metrics,
    overflow_probability,
    stationary,
)
from rtwt_planner.params import batch_distribution, slotify


def service_flags(slotted):
    """Per slot of the hyperperiod: True inside a service window."""
    return tuple(i < slotted.sp_slots for cycle in slotted.cycle_pattern for i in range(cycle))


def masked_delay_pmf(stat, batches, slotted, carry_full_vacation=True):
    """`delay_pmf` over the full (slot, k, r) cube, overflowing cells masked out."""
    cap = slotted.buffer_packets
    n_sp = slotted.sp_slots
    limit = batches.retry_limit
    service = np.array(service_flags(slotted))
    hyper = service.size
    positions = np.flatnonzero(service)

    n = np.arange(hyper)[:, None, None]
    k = np.arange(cap + 1)[None, :, None]
    r = np.arange(1, limit + 1)[None, None, :]
    total = k + r
    fits = total <= cap

    first = (np.cumsum(service) - service)[:, None, None]
    last = first + total - 1
    laps, index = np.divmod(last, positions.size)
    delays = laps * hyper + positions[index] - n + 1
    vacations = np.array(slotted.vacations)
    if not carry_full_vacation:
        saved = np.concatenate(([0], np.cumsum(np.maximum(vacations - 1, 0))))

        def saved_before(window):
            lap, cycle = np.divmod(window, vacations.size)
            return lap * saved[-1] + saved[cycle]

        delays = delays - (saved_before(last // n_sp) - saved_before(first // n_sp))

    weights = stat.probs.T[:, :, None] * np.asarray(batches.p_success)[None, None, :]
    weights = np.where(fits, weights, 0.0)
    norm = weights.sum()
    if norm <= 0.0:
        raise ModelError("no successful delivery has positive probability")

    mask = np.broadcast_to(fits, delays.shape)
    mass = np.bincount(delays[mask].ravel(), weights=weights[mask].ravel()) / norm
    mass = mass[: int(np.nonzero(mass)[0][-1]) + 1]
    n_vac = int(vacations.max())
    bound = (cap + limit) * (1.0 + n_vac / n_sp) + n_sp + n_vac
    if mass.size - 1 > bound:
        raise ModelError(
            f"delay support {mass.size - 1} exceeds the analytic bound {bound:.1f}"
        )
    return DelayPmf(mass=mass)


def literal_evaluate(traffic, link, rtwt, buffer_packets, quantile=0.999):
    """`evaluate(..., allow_coarse=True)` with the literal reading's delay PMF.

    Runs the model's stages as `evaluate` does, on the cycle route, and
    swaps only the delay PMF.
    """
    slotted = slotify(traffic, rtwt, buffer_packets, allow_coarse=True)
    batches = batch_distribution(traffic, link)
    stat = stationary(build_chain(slotted, batches))
    pmf = masked_delay_pmf(stat, batches, slotted, carry_full_vacation=False)
    return metrics(
        pmf, link, traffic, rtwt, quantile=quantile,
        overflow_prob=overflow_probability(stat, batches),
    )
