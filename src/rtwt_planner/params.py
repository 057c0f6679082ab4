"""Input parameter groups, run specs and the slotted batch-arrival abstraction.

Three independent parameter groups describe a planning problem: the traffic
(Poisson arrival rate and on-air time per packet), the link quality
(per-attempt error probability and retry budget), and the wake schedule
(period and service-window length in packet slots).  `slotify` maps a
schedule onto the discrete slot grid and `batch_distribution` folds traffic
and link quality into per-slot batch-arrival probabilities: each packet
arrival turns into a batch of queued transmission attempts whose size
follows a geometric law truncated at the retry limit.

The run specs (`SimConfig` for the simulator, `QosConstraint` and
`SearchGrid` for the schedule search) and the errors the CLI maps to exit
codes (`ModelError`, `SimTimeLimitError`) live here too, so that reading a
run configuration loads no numpy; `model`, `optimizer` and `simulator`
import them back under their old names.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

class ModelError(RuntimeError):
    """Raised when the analytic model cannot produce a meaningful answer."""


class SimTimeLimitError(RuntimeError):
    """Raised when the simulated-time budget runs out mid-measurement."""


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
        if not isinstance(self.buffer_packets, int) or self.buffer_packets < 1:
            raise ValueError(
                f"buffer_packets must be an integer >= 1, got {self.buffer_packets}"
            )
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
    its residue are reported as `cycle_pattern` and `pattern_error`.  That
    work depends on the period, the slot time and `allow_coarse` alone and
    is kept per triple (`_period_pattern`), so the windows of one period,
    and repeated searches, share it.
    """
    total, error, pattern, pattern_error = _period_pattern(
        rtwt.period, traffic.slot_time, allow_coarse
    )
    if total < rtwt.sp_slots:
        raise ValueError(
            f"period {rtwt.period} s holds {total} slot(s), fewer than the "
            f"{rtwt.sp_slots} service slot(s) requested"
        )
    if pattern is None:
        raise ValueError(
            f"period {rtwt.period} s is {error:.2%} away from a whole number of "
            f"slots; pass allow_coarse=True to accept the rounding"
        )
    return SlottedConfig(
        sp_slots=rtwt.sp_slots,
        cycle_pattern=pattern,
        buffer_packets=buffer_packets,
        pattern_error=pattern_error,
    )


@functools.lru_cache(maxsize=4096, typed=True)
def _period_pattern(
    period: float, slot_time: float, allow_coarse: bool
) -> tuple[int, float, tuple[int, ...] | None, float]:
    """`slotify`'s work on the period: the rounded slot count, its residue,
    and the cycle pattern with its residue, the pattern None where the
    residue is too coarse and not allowed.  A period that holds too many
    slots to count raises `ValueError`."""
    ratio = period / slot_time
    if not math.isfinite(ratio):
        raise ValueError(f"period {period} s holds too many {slot_time} s slots to count")
    total = int(math.floor(ratio + 0.5))
    error = abs(period - total * slot_time) / period
    # no window fits in less than a slot, where the search could count 50 / ratio cycles
    if total < 1 or error > DISCRETIZATION_TOLERANCE and not allow_coarse:
        return total, error, None, error
    cycles, pattern_error = 1, error
    while pattern_error > DISCRETIZATION_TOLERANCE:
        cycles += 1
        span = int(math.floor(cycles * ratio + 0.5))
        pattern_error = abs(cycles * period - span * slot_time) / (cycles * period)
    starts = [int(math.floor(j * ratio + 0.5)) for j in range(cycles + 1)]
    return total, error, tuple(b - a for a, b in zip(starts, starts[1:])), pattern_error


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


@dataclass(frozen=True)
class SimConfig:
    """Run-length and reproducibility knobs for one simulation."""

    seed: int
    warmup_packets: int = 10_000  # offered packets ignored before measuring
    measured_packets: int = 1_000_000  # delivered packets to collect
    max_sim_time: float = 100_000.0  # simulated-seconds safety cap
    keep_samples: bool = False  # attach raw delay samples to the report

    def __post_init__(self) -> None:
        for name in ("seed", "warmup_packets", "measured_packets"):
            value = getattr(self, name)
            if not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.warmup_packets < 0:
            raise ValueError(f"warmup_packets must be >= 0, got {self.warmup_packets}")
        if self.measured_packets < 1:
            raise ValueError(f"measured_packets must be >= 1, got {self.measured_packets}")
        if not math.isfinite(self.max_sim_time) or self.max_sim_time <= 0:
            raise ValueError(f"max_sim_time must be finite and > 0, got {self.max_sim_time}")


INDICATORS = ("percentile", "mean_delay", "jitter")

# Most steps a range, or points a search grid, may count.  A finite but tiny
# step would otherwise ask for one float per step (1e-12 s over the default
# 15.5 ms grid is 1.5e10) and die out of memory.  A grid of 2**20 points
# already takes minutes to evaluate, and a sweep simulates every value, so a
# longer range is a mistyped step, not a plan.
RANGE_LIMIT = 2**20


def _too_many_steps(start: float, stop: float, step: float) -> bool:
    return not (stop - start) / step < RANGE_LIMIT  # also true for inf and nan


def inclusive_range(start: float, stop: float, step: float) -> list[float]:
    """start, start + step, ... up to stop inclusive, computed without drift.

    The count rounds to the nearest step, so a point past `stop` by more
    than float noise is dropped rather than swept.  A range of
    `RANGE_LIMIT` steps or more raises `ValueError` before any value is built.
    """
    if _too_many_steps(start, stop, step):
        raise ValueError(
            f"step {step!r} s is too small to count {start!r} to {stop!r} s "
            f"in fewer than {RANGE_LIMIT} steps"
        )
    count = int(math.floor((stop - start) / step + 0.5))
    values = [start + i * step for i in range(count + 1)]
    return [v for v in values if v <= stop * (1.0 + 1e-12)]


@dataclass(frozen=True)
class QosConstraint:
    """Upper bound on one delay-quality indicator."""

    indicator: str  # one of INDICATORS
    target: float  # seconds
    quantile: float = 0.999  # used when indicator == "percentile"

    def __post_init__(self) -> None:
        if self.indicator not in INDICATORS:
            raise ValueError(f"indicator must be one of {INDICATORS}, got {self.indicator!r}")
        if not math.isfinite(self.target) or self.target <= 0:
            raise ValueError(f"target must be finite and > 0, got {self.target}")
        if not 0.0 < self.quantile < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {self.quantile}")


@dataclass(frozen=True)
class SearchGrid:
    """Exhaustive rectangular search space over (period, sp_slots)."""

    period_min: float = 0.5e-3
    period_max: float = 16e-3
    period_step: float = 0.1e-3
    sp_slots_min: int = 1
    sp_slots_max: int = 5

    def __post_init__(self) -> None:
        if not 0 < self.period_min <= self.period_max:
            raise ValueError("period bounds must satisfy 0 < min <= max")
        if self.period_step <= 0:
            raise ValueError(f"period_step must be > 0, got {self.period_step}")
        if _too_many_steps(self.period_min, self.period_max, self.period_step):
            raise ValueError(
                f"period_step {self.period_step} is too small to count the periods "
                f"in fewer than {RANGE_LIMIT} steps"
            )
        if not (isinstance(self.sp_slots_min, int) and isinstance(self.sp_slots_max, int)):
            raise ValueError("sp_slots bounds must be integers")
        if not 1 <= self.sp_slots_min <= self.sp_slots_max:
            raise ValueError("sp_slots bounds must satisfy 1 <= min <= max")
        periods = len(self.period_values())
        windows = self.sp_slots_max - self.sp_slots_min + 1
        if periods * windows >= RANGE_LIMIT:  # every point is built before any is solved
            raise ValueError(
                f"{periods} periods x {windows} window lengths are {periods * windows} "
                f"points; a grid must count fewer than {RANGE_LIMIT}"
            )

    def period_values(self) -> list[float]:
        """Grid points min, min+step, ... up to max."""
        return inclusive_range(self.period_min, self.period_max, self.period_step)

    def sp_slots_values(self) -> list[int]:
        return list(range(self.sp_slots_min, self.sp_slots_max + 1))
