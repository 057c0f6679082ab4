"""Input parameter groups and the slotted batch-arrival abstraction.

Three independent parameter groups describe a planning problem: the traffic
(Poisson arrival rate and on-air time per packet), the link quality
(per-attempt error probability and retry budget), and the wake schedule
(period and service-window length in packet slots).  `slotify` maps a
schedule onto the discrete slot grid and `batch_distribution` folds traffic
and link quality into per-slot batch-arrival probabilities: each packet
arrival turns into a batch of queued transmission attempts whose size
follows a geometric law truncated at the retry limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Load level above which the one-arrival-per-slot approximation gets dubious.
SLOTTING_LOAD_LIMIT = 0.2
# Relative gap between the period and a whole number of slots accepted
# without an explicit opt-in.
DISCRETIZATION_TOLERANCE = 0.01


@dataclass(frozen=True)
class TrafficSpec:
    """Poisson packet flow: arrival intensity plus on-air time per packet."""

    rate: float  # packets per second; zero allowed for degenerate cases
    slot_time: float  # seconds per transmission attempt, ACK included

    def __post_init__(self) -> None:
        if not math.isfinite(self.rate) or self.rate < 0:
            raise ValueError(f"arrival rate must be finite and >= 0, got {self.rate}")
        if not math.isfinite(self.slot_time) or self.slot_time <= 0:
            raise ValueError(f"slot time must be finite and > 0, got {self.slot_time}")

    @property
    def load_per_slot(self) -> float:
        """Mean number of packet arrivals per slot."""
        return self.rate * self.slot_time

    @property
    def slotting_ok(self) -> bool:
        """True when slots are short next to the mean interarrival gap."""
        return self.load_per_slot < SLOTTING_LOAD_LIMIT


@dataclass(frozen=True)
class LinkSpec:
    """Channel quality seen by one flow."""

    error_prob: float  # probability that a single attempt fails
    retry_limit: int  # attempts per packet before it is discarded

    def __post_init__(self) -> None:
        if not 0.0 <= self.error_prob <= 1.0:
            raise ValueError(f"error probability must be in [0, 1], got {self.error_prob}")
        if not isinstance(self.retry_limit, int) or self.retry_limit < 1:
            raise ValueError(f"retry limit must be an integer >= 1, got {self.retry_limit}")


@dataclass(frozen=True)
class RtwtSpec:
    """Periodic wake schedule granted to one flow."""

    period: float  # seconds between starts of consecutive service windows
    sp_slots: int  # service-window length, in packet slots

    def __post_init__(self) -> None:
        if not math.isfinite(self.period) or self.period <= 0:
            raise ValueError(f"period must be finite and > 0, got {self.period}")
        if not isinstance(self.sp_slots, int) or self.sp_slots < 1:
            raise ValueError(f"sp_slots must be an integer >= 1, got {self.sp_slots}")


@dataclass(frozen=True)
class SlottedConfig:
    """Wake schedule quantized to whole packet slots.

    `cycle_pattern` lists the cycles the model evaluates in turn, each
    opening with the service window: one cycle of the period rounded to
    whole slots, or a mixed run of cycles when no single cycle matches the
    period (see `slotify`).
    """

    sp_slots: int  # service slots per cycle
    cycle_pattern: tuple[int, ...]  # slots per evaluated cycle
    buffer_packets: int  # queue capacity, packet on air included
    pattern_error: float  # |period - mean cycle| / period

    def __post_init__(self) -> None:
        if self.sp_slots < 1:
            raise ValueError(f"sp_slots must be >= 1, got {self.sp_slots}")
        if self.buffer_packets < 1:
            raise ValueError(f"buffer_packets must be >= 1, got {self.buffer_packets}")
        if min(self.cycle_pattern) < self.sp_slots:
            raise ValueError(
                f"cycle pattern {self.cycle_pattern} holds a cycle of "
                f"{min(self.cycle_pattern)} slot(s), fewer than the "
                f"{self.sp_slots} service slot(s) requested"
            )

    @property
    def cycle_slots(self) -> int:
        """Slots in the first cycle: the period rounded to whole slots."""
        return self.cycle_pattern[0]

    @property
    def vacations(self) -> tuple[int, ...]:
        """Sleeping slots after the service window, per cycle of the pattern."""
        return tuple(cycle - self.sp_slots for cycle in self.cycle_pattern)

    @property
    def hyperperiod_slots(self) -> int:
        """Slots in one pass over the cycle pattern."""
        return sum(self.cycle_pattern)


def slotify(
    traffic: TrafficSpec,
    rtwt: RtwtSpec,
    buffer_packets: int = 20,
    allow_coarse: bool = False,
) -> SlottedConfig:
    """Quantize a wake schedule to the packet-slot grid.

    The period is rounded to the nearest whole number of slots; a rounding
    residue above DISCRETIZATION_TOLERANCE is rejected unless `allow_coarse`
    acknowledges it.  An acknowledged coarse period is not evaluated as the
    rounded cycle: the model runs the shortest pattern of m consecutive
    cycles, windows opening at slot round(j * period / slot_time), whose
    mean cycle lies within the tolerance.  The first cycle is the rounded
    period and each cycle holds the floor or the ceiling of the period in
    slots; m never exceeds ceil(50 / (period / slot_time)).  The pattern and
    its residue are reported as `cycle_pattern` and `pattern_error`.
    """
    ratio = rtwt.period / traffic.slot_time
    if not math.isfinite(ratio):
        raise ValueError(
            f"period {rtwt.period} s holds too many {traffic.slot_time} s slots to count"
        )
    total = int(math.floor(ratio + 0.5))
    if total < rtwt.sp_slots:
        raise ValueError(
            f"period {rtwt.period} s holds {total} slot(s), fewer than the "
            f"{rtwt.sp_slots} service slot(s) requested"
        )
    error = abs(rtwt.period - total * traffic.slot_time) / rtwt.period
    if error > DISCRETIZATION_TOLERANCE and not allow_coarse:
        raise ValueError(
            f"period {rtwt.period} s is {error:.2%} away from a whole number of "
            f"slots; pass allow_coarse=True to accept the rounding"
        )
    cycles, pattern_error = 1, error
    while pattern_error > DISCRETIZATION_TOLERANCE:
        cycles += 1
        span = int(math.floor(cycles * ratio + 0.5))
        pattern_error = abs(cycles * rtwt.period - span * traffic.slot_time) / (
            cycles * rtwt.period
        )
    starts = [int(math.floor(j * ratio + 0.5)) for j in range(cycles + 1)]
    return SlottedConfig(
        sp_slots=rtwt.sp_slots,
        cycle_pattern=tuple(b - a for a, b in zip(starts, starts[1:])),
        buffer_packets=buffer_packets,
        pattern_error=pattern_error,
    )


@dataclass(frozen=True)
class BatchDistribution:
    """Per-slot batch-arrival probabilities.

    A batch of size r stands for a packet that needs r transmission
    attempts.  `p_success[r-1]` is the probability that a slot starts a
    batch of size r whose final attempt succeeds; `p_fail` covers the batch
    that exhausts the retry budget.  `p_size[r-1]` is the size-r probability
    regardless of outcome.
    """

    p_no_batch: float
    p_batch: float
    p_success: tuple[float, ...]
    p_fail: float
    p_size: tuple[float, ...]

    @property
    def retry_limit(self) -> int:
        return len(self.p_size)


def batch_distribution(traffic: TrafficSpec, link: LinkSpec) -> BatchDistribution:
    """Fold traffic and link quality into the per-slot batch distribution."""
    # expm1 keeps the small-load case accurate to full precision
    p_batch = -math.expm1(-traffic.load_per_slot)
    p_no_batch = 1.0 - p_batch
    p, limit = link.error_prob, link.retry_limit
    p_success = tuple(p_batch * (1.0 - p) * p ** (r - 1) for r in range(1, limit + 1))
    p_fail = p_batch * p**limit
    p_size = p_success[:-1] + (p_success[-1] + p_fail,)
    return BatchDistribution(
        p_no_batch=p_no_batch,
        p_batch=p_batch,
        p_success=p_success,
        p_fail=p_fail,
        p_size=p_size,
    )


def packet_loss_probability(link: LinkSpec) -> float:
    """Probability that an offered packet burns its whole retry budget."""
    return link.error_prob**link.retry_limit


def system_capacity(rtwt: RtwtSpec, traffic: TrafficSpec) -> float:
    """How many flows with this schedule shape fit into one period.

    The ratio period / (sp_slots * slot_time) is returned exactly; callers
    that need a whole number of flows floor it themselves.
    """
    return rtwt.period / (rtwt.sp_slots * traffic.slot_time)
