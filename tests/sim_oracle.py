"""Packet-by-packet reference for `rtwt_planner.simulator.simulate`.

The simulator settles whole blocks of packets with arrays.  This module is
the plain per-packet event loop it must reproduce bit for bit: the same two
random streams, the same float operations, one packet at a time, with the
trace events appended as each packet is served.  It also owns the reference
trace writer, which sorts that event list with the window markers, so the
package's writer is checked against it rather than shared with it.  It draws
the random streams in fixed chunks of `CHUNK` packets, a layout the package
does not share, so a match also shows that how the draws are cut never
changes a packet's gap or outcome.  It draws the channel outcomes and
computes the delay statistics with plain forms of its own, so the package's
`_draw_batches` and `_delay_stats` are checked against these rather than
against themselves.  It is a test oracle, not package code.
"""

import csv
import math
from collections import deque

import numpy as np

from rtwt_planner.simulator import SimReport, SimTimeLimitError, _empty_stats

CHUNK = 1 << 16  # packets drawn at once, whatever the package's blocks are


class ScalarSchedule:
    """Periodic service windows, one time at a time.

    Window j covers [j*period, j*period + sp_len); an attempt of length
    `attempt_time` may start at t only when it also ends inside the window.
    """

    def __init__(self, rtwt, attempt_time):
        self.period = rtwt.period
        self.sp_len = rtwt.sp_slots * attempt_time
        self.attempt_time = attempt_time
        self.slots = rtwt.sp_slots
        self._eps = attempt_time * 1e-6

    def window_start(self, t):
        start = math.floor(t / self.period) * self.period
        while start > t:
            start -= self.period
        while start + self.period <= t:
            start += self.period
        return start

    def fit(self, t):
        start = self.window_start(t)
        if t + self.attempt_time <= start + self.sp_len + self._eps:
            return t, start
        nxt = start + self.period
        return nxt, nxt

    def completion(self, t, attempts):
        t, start = self.fit(t)
        fits = int(math.floor((start + self.sp_len - t) / self.attempt_time + 1e-6))
        if attempts <= fits:
            return t + attempts * self.attempt_time
        skipped, last = divmod(attempts - fits - 1, self.slots)
        return start + (skipped + 1) * self.period + (last + 1) * self.attempt_time

    def attempt_ends(self, t, attempts):
        return [self.completion(t, a) for a in range(1, attempts + 1)]


def draw_batches(rng, link, count):
    """Attempts used and final outcome for `count` packets, one draw each."""
    p, limit = link.error_prob, link.retry_limit
    if p == 0.0:
        return np.ones(count, dtype=np.int64), np.ones(count, dtype=bool)
    u = rng.random(count)
    if p == 1.0:
        return np.full(count, limit, dtype=np.int64), np.zeros(count, dtype=bool)
    with np.errstate(divide="ignore"):
        failures = np.floor(np.log(u) / math.log(p))
    success = failures < limit
    attempts = np.where(success, failures + 1, limit).astype(np.int64)
    return attempts, success


def delay_stats(delays, quantile):
    """Mean, jitter and percentile of the delay samples, each with its interval."""
    n = delays.size
    if n == 0:
        return _empty_stats()
    mean = float(delays.mean())
    if n == 1:
        return {**_empty_stats(), "mean_delay_s": mean, "percentile_s": float(delays[0])}
    centered = delays - mean
    var = float((centered @ centered) / (n - 1))
    std = math.sqrt(var)
    mean_ci = 1.96 * std / math.sqrt(n)
    fourth = float((centered**2 @ centered**2) / n)
    var_of_var = max(fourth - var * var, 0.0) / n
    jitter_ci = 1.96 * math.sqrt(var_of_var) / (2.0 * std) if std > 0 else 0.0
    ordered = np.sort(delays)
    rank = math.ceil(quantile * n)
    pct = float(ordered[rank - 1])
    spread = 1.96 * math.sqrt(n * quantile * (1.0 - quantile))
    lo = min(max(math.ceil(quantile * n - spread) - 1, 0), n - 1)
    hi = min(max(math.ceil(quantile * n + spread) - 1, 0), n - 1)
    pct_ci = (float(ordered[hi]) - float(ordered[lo])) / 2.0
    return {
        "mean_delay_s": mean,
        "mean_ci_s": mean_ci,
        "jitter_s": std,
        "jitter_ci_s": jitter_ci,
        "percentile_s": pct,
        "percentile_ci_s": pct_ci,
    }


def write_trace(path, events, schedule, horizon):
    """Sort raw events, interleave window markers and replay queue length."""
    start = 0.0
    while start <= horizon:
        events.append((start, "sp_start", 0))
        events.append((start + schedule.sp_len, "sp_end", 0))
        start += schedule.period
    events.sort(key=lambda item: item[0])
    queue = 0
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time_s", "event", "queue_len"])
        for t, kind, delta in events:
            queue += delta
            writer.writerow([repr(t), kind, queue])


def simulate(traffic, link, rtwt, buffer_packets, sim, quantile=0.999, trace_path=None):
    """The per-packet event loop; same signature and report as the package's."""
    schedule = ScalarSchedule(rtwt, traffic.slot_time)
    if traffic.rate == 0.0:
        return SimReport(
            delivered=0, lost_retry=0, lost_overflow=0, **_empty_stats(),
            percentile_q=quantile, seed=sim.seed,
            samples=np.empty(0) if sim.keep_samples else None,
        )
    arrival_seq, channel_seq = np.random.SeedSequence(sim.seed).spawn(2)
    arrival_rng = np.random.Generator(np.random.PCG64(arrival_seq))
    channel_rng = np.random.Generator(np.random.PCG64(channel_seq))

    events = [] if trace_path is not None else None
    mean_gap = 1.0 / traffic.rate
    attempt_time = traffic.slot_time
    target = sim.measured_packets
    delays = []
    in_flight = deque()
    now = 0.0
    head_free = 0.0
    offered_idx = 0
    delivered = lost_retry = lost_overflow = 0
    truncated = False

    while not truncated:
        gaps = arrival_rng.exponential(mean_gap, CHUNK).tolist()
        attempts, success = draw_batches(channel_rng, link, CHUNK)
        for gap, used, delivered_ok in zip(gaps, attempts.tolist(), success.tolist()):
            now += gap
            if now > sim.max_sim_time:
                truncated = True
                break
            while in_flight and in_flight[0] <= now:
                in_flight.popleft()
            measured = offered_idx >= sim.warmup_packets
            offered_idx += 1
            if len(in_flight) >= buffer_packets:
                if measured:
                    lost_overflow += 1
                if events is not None:
                    events.append((now, "arrival", 0))
                    events.append((now, "drop_overflow", 0))
                continue
            start = now if now > head_free else head_free
            leave = schedule.completion(start, used)
            in_flight.append(leave)
            head_free = leave
            if events is not None:
                events.append((now, "arrival", 1))
                ends = schedule.attempt_ends(start, used)
                for j, end in enumerate(ends):
                    events.append((end - attempt_time, "attempt_start", 0))
                    if j + 1 == used and delivered_ok:
                        events.append((end, "attempt_ok", -1))
                    else:
                        events.append((end, "attempt_fail", 0))
                if not delivered_ok:
                    events.append((ends[-1], "drop_retry", -1))
            if measured:
                if delivered_ok:
                    delays.append(leave - now)
                    delivered += 1
                    if delivered == target:
                        break
                else:
                    lost_retry += 1
        else:
            continue
        break

    if truncated and delivered < target and link.error_prob < 1.0:
        raise SimTimeLimitError(f"simulated time cap {sim.max_sim_time} s reached")
    collected = np.array(delays, dtype=float)
    if events is not None:
        write_trace(trace_path, events, schedule, horizon=now)
    return SimReport(
        delivered=delivered,
        lost_retry=lost_retry,
        lost_overflow=lost_overflow,
        **delay_stats(collected, quantile),
        percentile_q=quantile,
        seed=sim.seed,
        samples=collected if sim.keep_samples else None,
    )
