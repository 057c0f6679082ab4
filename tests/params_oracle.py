"""Reference slot quantization for `rtwt_planner.params`.

`slotify` is the quantization as one straight function body, recomputed on
every call, as the package computed it before it kept the period's work per
(period, slot time, allow_coarse).  The package's `slotify` must return an
equal `SlottedConfig`, or raise the same `ValueError` message, for every
input and in any order of calls.
"""

import math

from rtwt_planner.params import DISCRETIZATION_TOLERANCE, SlottedConfig


def slotify(traffic, rtwt, buffer_packets=20, allow_coarse=False):
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
