"""Continuous-time event-driven reference simulator.

Deliberately independent of the slotted queue model: packets arrive at
Poisson instants on the real line, wait in a finite FIFO buffer and are
transmitted attempt by attempt inside periodic service windows.  An attempt
may start only if it finishes before its window closes; a failed attempt
retries immediately when another attempt still fits, otherwise at the start
of the next window, and a packet is discarded after its retry budget is
spent.  Arrival instants and attempt outcomes come from two separate random
streams, so results do not depend on event interleaving and runs are fully
reproducible from the seed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from collections import deque

import numpy as np

from .params import LinkSpec, RtwtSpec, TrafficSpec

_CHUNK = 1 << 16  # fixed draw block size keeps runs reproducible
_NAN = float("nan")


class SimTimeLimitError(RuntimeError):
    """Raised when the simulated-time budget runs out mid-measurement."""


@dataclass(frozen=True)
class SimConfig:
    """Run-length and reproducibility knobs for one simulation."""

    seed: int
    warmup_packets: int = 10_000  # offered packets ignored before measuring
    measured_packets: int = 1_000_000  # delivered packets to collect
    max_sim_time: float = 100_000.0  # simulated-seconds safety cap
    keep_samples: bool = False  # attach raw delay samples to the report

    def __post_init__(self) -> None:
        if self.warmup_packets < 0:
            raise ValueError(f"warmup_packets must be >= 0, got {self.warmup_packets}")
        if self.measured_packets < 1:
            raise ValueError(f"measured_packets must be >= 1, got {self.measured_packets}")
        if not math.isfinite(self.max_sim_time) or self.max_sim_time <= 0:
            raise ValueError(f"max_sim_time must be finite and > 0, got {self.max_sim_time}")


@dataclass(frozen=True, eq=False)
class SimReport:
    """Measured outcome of one simulation (or an aggregate of runs)."""

    delivered: int
    lost_retry: int
    lost_overflow: int
    mean_delay_s: float
    mean_ci_s: float
    jitter_s: float
    jitter_ci_s: float
    percentile_s: float
    percentile_ci_s: float
    percentile_q: float
    seed: int
    runs: int = 1
    samples: np.ndarray | None = field(default=None, repr=False)

    @property
    def offered(self) -> int:
        return self.delivered + self.lost_retry + self.lost_overflow

    @property
    def loss_ratio(self) -> float:
        """Share of admitted packets that burned their retry budget."""
        resolved = self.delivered + self.lost_retry
        return self.lost_retry / resolved if resolved else _NAN

    def to_dict(self) -> dict:
        return {
            "delivered": self.delivered,
            "lost_retry": self.lost_retry,
            "lost_overflow": self.lost_overflow,
            "offered": self.offered,
            "loss_ratio": self.loss_ratio,
            "mean_delay_s": self.mean_delay_s,
            "mean_ci_s": self.mean_ci_s,
            "jitter_s": self.jitter_s,
            "jitter_ci_s": self.jitter_ci_s,
            "percentile_s": self.percentile_s,
            "percentile_ci_s": self.percentile_ci_s,
            "percentile_q": self.percentile_q,
            "seed": self.seed,
            "runs": self.runs,
        }


class SpSchedule:
    """Periodic service windows on the real line.

    Window j covers [j*period, j*period + sp_len); an attempt of length
    `attempt_time` may start at t only when it also ends inside the window.
    """

    __slots__ = ("period", "sp_len", "attempt_time", "slots", "_eps")

    def __init__(self, rtwt: RtwtSpec, attempt_time: float):
        self.period = rtwt.period
        self.sp_len = rtwt.sp_slots * attempt_time
        self.attempt_time = attempt_time
        self.slots = rtwt.sp_slots
        # relative guard: one-ulp boundary noise is many orders below this,
        # real event separations are many orders above it
        self._eps = attempt_time * 1e-6
        if self.sp_len > self.period:
            raise ValueError(
                f"service window {self.sp_len} s does not fit into period {self.period} s"
            )

    def window_start(self, t: float) -> float:
        """Start of the period window containing t, half-open [start, start+period).

        floor of the float quotient can land one window off when t sits on a
        boundary; normalize until start <= t < start + period holds exactly in
        float order (each loop runs at most once for one-ulp noise).
        """
        start = math.floor(t / self.period) * self.period
        while start > t:
            start -= self.period
        while start + self.period <= t:
            start += self.period
        return start

    def _fit(self, t: float) -> tuple[float, float]:
        """(attempt start, window start) for the earliest fitting instant >= t.

        The pair is computed in one place: re-deriving the window from a
        returned boundary time is off by one ulp often enough to matter.
        """
        start = self.window_start(t)
        if t + self.attempt_time <= start + self.sp_len + self._eps:
            return t, start
        nxt = start + self.period
        return nxt, nxt

    def completion(self, t: float, attempts: int) -> float:
        """Finish time of `attempts` back-to-back attempts starting at/after t."""
        t, start = self._fit(t)
        fits = int(math.floor((start + self.sp_len - t) / self.attempt_time + 1e-6))
        if attempts <= fits:
            return t + attempts * self.attempt_time
        skipped, last = divmod(attempts - fits - 1, self.slots)
        return start + (skipped + 1) * self.period + (last + 1) * self.attempt_time

    def attempt_ends(self, t: float, attempts: int) -> list[float]:
        """Finish time of each individual attempt, consistent with completion()."""
        return [self.completion(t, a) for a in range(1, attempts + 1)]


def _draw_batches(rng: np.random.Generator, link: LinkSpec, count: int):
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


def _empty_stats() -> dict:
    return {
        "mean_delay_s": _NAN,
        "mean_ci_s": _NAN,
        "jitter_s": _NAN,
        "jitter_ci_s": _NAN,
        "percentile_s": _NAN,
        "percentile_ci_s": _NAN,
    }


def _delay_stats(delays: np.ndarray, quantile: float) -> dict:
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
    # delta method on the variance gives the jitter interval
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


def _write_trace(path, events: list, schedule: SpSchedule, horizon: float) -> None:
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


def simulate(
    traffic: TrafficSpec,
    link: LinkSpec,
    rtwt: RtwtSpec,
    buffer_packets: int,
    sim: SimConfig,
    quantile: float = 0.999,
    trace_path=None,
) -> SimReport:
    """Run one simulation until `measured_packets` deliveries are collected.

    Runs with the same inputs and seed reproduce bit for bit.  The simulated
    clock is capped by `sim.max_sim_time`: hitting the cap raises
    SimTimeLimitError, except when delivery is impossible by construction
    (zero arrival rate, or every attempt failing), where the truthful
    partial report is returned instead.
    """
    if buffer_packets < 1:
        raise ValueError(f"buffer_packets must be >= 1, got {buffer_packets}")
    if not 0.0 < quantile < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {quantile}")
    schedule = SpSchedule(rtwt, traffic.slot_time)
    if traffic.rate == 0.0:
        return SimReport(
            delivered=0, lost_retry=0, lost_overflow=0, **_empty_stats(),
            percentile_q=quantile, seed=sim.seed,
            samples=np.empty(0) if sim.keep_samples else None,
        )

    arrival_seq, channel_seq = np.random.SeedSequence(sim.seed).spawn(2)
    arrival_rng = np.random.Generator(np.random.PCG64(arrival_seq))
    channel_rng = np.random.Generator(np.random.PCG64(channel_seq))

    events: list | None = [] if trace_path is not None else None
    mean_gap = 1.0 / traffic.rate
    attempt_time = traffic.slot_time
    target = sim.measured_packets
    warmup = sim.warmup_packets
    time_cap = sim.max_sim_time
    completion = schedule.completion

    delays = np.empty(target)
    in_flight: deque[float] = deque()
    pop_departed = in_flight.popleft
    admit = in_flight.append
    now = 0.0
    head_free = 0.0  # instant the previous admitted packet leaves the queue
    offered_idx = 0
    delivered = lost_retry = lost_overflow = 0
    truncated = False

    while not truncated:
        gaps = arrival_rng.exponential(mean_gap, _CHUNK).tolist()
        attempts, success = _draw_batches(channel_rng, link, _CHUNK)
        attempts = attempts.tolist()
        success = success.tolist()
        for gap, used, delivered_ok in zip(gaps, attempts, success):
            now += gap
            if now > time_cap:
                truncated = True
                break
            while in_flight and in_flight[0] <= now:
                pop_departed()
            measured = offered_idx >= warmup
            offered_idx += 1
            if len(in_flight) >= buffer_packets:
                if measured:
                    lost_overflow += 1
                if events is not None:
                    events.append((now, "arrival", 0))
                    events.append((now, "drop_overflow", 0))
                continue
            start = now if now > head_free else head_free
            leave = completion(start, used)
            admit(leave)
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
                    delays[delivered] = leave - now
                    delivered += 1
                    if delivered == target:
                        break
                else:
                    lost_retry += 1
        else:
            continue
        break

    if truncated and delivered < target:
        # only a channel that can never succeed ends a run at the time cap
        if link.error_prob < 1.0:
            raise SimTimeLimitError(
                f"simulated time cap {time_cap} s reached with {delivered} of "
                f"{target} deliveries collected"
            )

    collected = delays[:delivered]
    if events is not None:
        _write_trace(trace_path, events, schedule, horizon=now)
    return SimReport(
        delivered=delivered,
        lost_retry=lost_retry,
        lost_overflow=lost_overflow,
        **_delay_stats(collected, quantile),
        percentile_q=quantile,
        seed=sim.seed,
        samples=collected.copy() if sim.keep_samples else None,
    )


def _t_critical_975(df: int) -> float:
    """Student-t 97.5% quantile, the critical value of a two-sided 95% interval.

    Equal to `scipy.stats.t.ppf(0.975, df)`, whose `_ppf` is `stdtrit`;
    calling it directly spares a cold process the scipy.stats import.
    """
    from scipy.special import stdtrit

    return float(stdtrit(df, 0.975))


def _aggregate(reports: list[SimReport], quantile: float, seed: int) -> SimReport:
    n = len(reports)
    crit = _t_critical_975(n - 1)

    def pool(values):
        arr = np.asarray(values, dtype=float)
        if np.isnan(arr).any():
            return _NAN, _NAN
        return float(arr.mean()), float(crit * arr.std(ddof=1) / math.sqrt(n))

    mean, mean_ci = pool([r.mean_delay_s for r in reports])
    jitter, jitter_ci = pool([r.jitter_s for r in reports])
    pct, pct_ci = pool([r.percentile_s for r in reports])
    samples = None
    if any(r.samples is not None for r in reports):
        samples = np.concatenate([r.samples for r in reports if r.samples is not None])
    return SimReport(
        delivered=sum(r.delivered for r in reports),
        lost_retry=sum(r.lost_retry for r in reports),
        lost_overflow=sum(r.lost_overflow for r in reports),
        mean_delay_s=mean,
        mean_ci_s=mean_ci,
        jitter_s=jitter,
        jitter_ci_s=jitter_ci,
        percentile_s=pct,
        percentile_ci_s=pct_ci,
        percentile_q=quantile,
        seed=seed,
        runs=n,
        samples=samples,
    )


def replicate(
    traffic: TrafficSpec,
    link: LinkSpec,
    rtwt: RtwtSpec,
    buffer_packets: int,
    sim: SimConfig,
    n_runs: int,
    quantile: float = 0.999,
    trace_path=None,
) -> SimReport:
    """Independent runs under seeds seed, seed+1, ... with across-run intervals.

    A single run degenerates to `simulate` unchanged; for more, the metric
    estimates are averaged and their confidence half-widths come from the
    across-run spread (Student t, 95%).  Tracing is a single-run affair.
    """
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs}")
    if trace_path is not None and n_runs != 1:
        raise ValueError("event tracing requires n_runs = 1")
    if n_runs == 1:
        return simulate(
            traffic, link, rtwt, buffer_packets, sim,
            quantile=quantile, trace_path=trace_path,
        )
    reports = [
        simulate(
            traffic, link, rtwt, buffer_packets,
            replace(sim, seed=sim.seed + i), quantile=quantile,
        )
        for i in range(n_runs)
    ]
    return _aggregate(reports, quantile, sim.seed)
