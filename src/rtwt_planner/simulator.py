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

Packets are drawn and served a block at a time with arrays.  Each block
draws the gaps and channel outcomes of exactly the packets it serves: the
warm-up left plus as many as the delivery share so far says the target
needs, or a full block while every measured packet has been lost.  The
streams are sequential, so a packet's draws do not depend on how the run is
cut into blocks.  Arrival instants are a running sum of the gaps, and the
FIFO recursion
    leave_i = completion(max(arrival_i, leave_{i-1}), attempts_i)
is solved as a fixed point (`_settle`): a first pass starts every packet at
its arrival, and each further pass recomputes, with one array `completion`,
only the packets whose predecessor the pass before moved past their start.
Where the queue stays busy for long or fills up, a per-packet stepper serves
the packets until an arrival finds the system empty.  Both give each packet
the float operations of a packet-by-packet event loop on the same operands,
so every report, sample and trace is bit-identical to that loop.  The one
reordering is the array path's `attempts * attempt_time + t` for the loop's
`t + attempts * attempt_time`: float addition commutes, so the sum is the
same float.

`SimConfig` and `SimTimeLimitError` are defined in `params`, which reads a
run configuration without numpy, and imported back here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from collections import deque

import numpy as np

from .params import LinkSpec, RtwtSpec, SimConfig, SimTimeLimitError, TrafficSpec

_BLOCK = 1 << 14  # packets served at once: enough to amortize numpy's per-call cost
_WORK = 4  # recomputed packets per block packet past which the stepper is cheaper
_BACKOFF = 64  # packets the stepper takes after a first failed array attempt
_NAN = float("nan")


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
    """Periodic service windows on the real line, evaluated on arrays of times.

    Window j covers [j*period, j*period + sp_len); an attempt of length
    `attempt_time` may start at t only when it also ends inside the window.
    `scalar_completion` is `completion` for one time, with the same float
    operations.
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

    def window_start(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(start, next start) of the period window containing each t,
        half-open [start, start + period).

        floor of the float quotient can land one window off when t sits on a
        boundary; normalize until start <= t < start + period holds exactly in
        float order (each loop runs at most once for one-ulp noise).  The last
        loop test's `start + period` is the next window's start.
        """
        period = self.period
        start = t / period
        np.floor(start, out=start)
        start *= period
        while (high := start > t).any():
            start[high] -= period
        while (low := (nxt := start + period) <= t).any():
            start[low] += period
        return start, nxt

    def _fit(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(attempt start, window start) for the earliest fitting instant >= each t.

        The pair is computed in one place: re-deriving the window from a
        returned boundary time is off by one ulp often enough to matter.
        When no attempt is late for its window, `t` itself comes back.
        """
        start, nxt = self.window_start(t)
        limit = start + self.sp_len
        limit += self._eps
        late = t + self.attempt_time > limit
        if late.any():
            return np.where(late, nxt, t), np.where(late, nxt, start)
        return t, start

    def completion(self, t: np.ndarray, attempts: np.ndarray) -> np.ndarray:
        """Finish time of `attempts` back-to-back attempts starting at/after t.

        Each packet gets the float operations of `scalar_completion` on the
        same operands, with one reordering: `attempts * attempt_time + t`,
        which equals `t + attempts * attempt_time` bit for bit because float
        addition commutes.  The spill formula runs only where the attempts
        overrun the window.
        """
        t, start = self._fit(t)
        fits = start + self.sp_len
        fits -= t
        fits /= self.attempt_time
        fits += 1e-6
        np.floor(fits, out=fits)
        done = attempts * self.attempt_time
        done += t
        spill = np.flatnonzero(attempts > fits)
        if spill.size:
            skipped, last = np.divmod(attempts[spill] - fits[spill].astype(np.int64) - 1,
                                      self.slots)
            done[spill] = (start[spill] + (skipped + 1) * self.period
                           + (last + 1) * self.attempt_time)
        return done

    def scalar_completion(self):
        """`completion` for one time and one count, as a flat closure: the
        per-packet stepper calls it once per packet."""
        period, sp_len, attempt_time = self.period, self.sp_len, self.attempt_time
        slots, eps, floor = self.slots, self._eps, math.floor

        def completion(t: float, attempts: int) -> float:
            start = floor(t / period) * period
            while start > t:
                start -= period
            while start + period <= t:
                start += period
            if t + attempt_time > start + sp_len + eps:
                t = start = start + period
            fits = floor((start + sp_len - t) / attempt_time + 1e-6)
            if attempts <= fits:
                return t + attempts * attempt_time
            skipped, last = divmod(attempts - fits - 1, slots)
            return start + (skipped + 1) * period + (last + 1) * attempt_time

        return completion


def _draw_batches(rng: np.random.Generator, link: LinkSpec, count: int):
    """Attempts used and final outcome for `count` packets, one draw each."""
    p, limit = link.error_prob, link.retry_limit
    if p == 0.0:
        return np.ones(count, dtype=np.int64), np.ones(count, dtype=bool)
    u = rng.random(count)
    if p == 1.0:
        return np.full(count, limit, dtype=np.int64), np.zeros(count, dtype=bool)
    with np.errstate(divide="ignore"):
        failures = np.log(u, out=u)  # u = 0 gives infinitely many failures
    failures /= math.log(p)
    np.floor(failures, out=failures)
    success = failures < limit
    # a failed packet used all `limit` attempts
    attempts = np.minimum(failures, limit - 1, out=failures)
    attempts += 1
    return attempts.astype(np.int64), success


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
    squared = np.square(centered, out=centered)
    fourth = float((squared @ squared) / n)
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


def _settle(completion, arrivals, attempts, carried, buffer_packets):
    """Leave times of a run of packets, exact for the first `exact` of them.

    Solves the FIFO recursion leave_i = completion(max(a_i, leave_{i-1}),
    attempts_i) as a fixed point from below; `carried` holds the ascending
    leave times of the packets in the system before the run.  Every packet
    first starts at its arrival.  Each pass then takes the packets whose
    predecessor now leaves later than they start, starts them at that leave
    time and computes their leave times in one `completion` call; those leave
    times are the predecessors' of the packets right after them, the only
    ones the next pass can take.  The passes stop when none is left or when
    they would recompute more than `_WORK` packets per packet of the run;
    packets before the first one still inconsistent are exact.  Leave times
    ascend, so on that prefix an arrival finds the buffer full exactly when
    the packet `buffer_packets` places ahead of it has not left yet.  The
    first such arrival is an overflow drop and ends the exact prefix too:
    everything from there on was computed as if admitted.
    """
    n = arrivals.size
    start = arrivals.copy()
    if carried.size and carried[-1] > start[0]:
        start[0] = carried[-1]
    leave = completion(start, attempts)
    want = np.maximum(arrivals[1:], leave[:-1])
    pending = np.flatnonzero(want != start[1:])
    want = want[pending]
    pending += 1
    budget = _WORK * n
    while pending.size and (budget := budget - pending.size) >= 0:
        start[pending] = want
        done = completion(want, attempts[pending])
        leave[pending] = done
        if pending[-1] == n - 1:  # ascending: only the last can be the run's last
            pending, done = pending[:-1], done[:-1]
        pending += 1  # the packets right after, whose predecessors leave at `done`
        want = np.maximum(arrivals[pending], done)
        stale = want != start[pending]
        pending, want = pending[stale], want[stale]
    exact = int(pending[0]) if pending.size else n
    # queue[carried.size + i - buffer_packets] is the packet `buffer_packets`
    # places ahead of packet i; before `first`, fewer than that are ahead
    lag = carried.size - buffer_packets
    first = max(-lag, 0)
    if exact > first:
        queue = np.concatenate((carried, leave[:exact]))
        full = np.flatnonzero(queue[first + lag:exact + lag] > arrivals[first:exact])
        if full.size:
            exact = first + int(full[0])
    return leave, exact


def _stepper(schedule: SpSchedule, buffer_packets: int):
    """The FIFO one packet at a time, for stretches where the queue stays busy."""
    completion = schedule.scalar_completion()

    def step(arrivals: list, attempts: list, in_flight: deque, hold: int) -> list[float]:
        """Serve packets in order until one at index >= `hold` finds the system
        empty; return the leave times taken, nan for a drop."""
        leaves: list[float] = []
        record = leaves.append
        depart = in_flight.popleft
        admit = in_flight.append
        leave = in_flight[-1] if in_flight else arrivals[0]  # of the packet ahead, if any
        for now, used in zip(arrivals, attempts):
            while in_flight and in_flight[0] <= now:
                depart()
            if not in_flight and len(leaves) >= hold:
                break
            if len(in_flight) >= buffer_packets:
                record(_NAN)
                continue
            leave = completion(now if now > leave else leave, used)
            admit(leave)
            record(leave)
        return leaves

    return step


class _Fifo:
    """The finite FIFO buffer and its server, fed one block of packets at a time.

    Its state is the leave times of the packets in the system: a hand-over
    costs what the system holds, not what the buffer could.  Arrays settle
    each block (`_settle`).  Where the queue stays busy longer than the passes
    allow, or fills up, the exact prefix is kept and the per-packet stepper
    takes over until an arrival finds the system empty.  Each failed array
    attempt doubles the stepper's run; a block the arrays settle resets it.
    """

    def __init__(self, schedule: SpSchedule, buffer_packets: int):
        self.completion = schedule.completion
        self.step = _stepper(schedule, buffer_packets)
        self.buffer_packets = buffer_packets
        self.in_flight: deque[float] = deque()  # leave times later than the last arrival served
        self.hold = -1  # packets the stepper takes before the arrays retry; -1: arrays
        self.backoff = _BACKOFF

    def serve(self, arrivals: np.ndarray, attempts: np.ndarray) -> np.ndarray:
        """Leave time of each packet of the block, nan where it overflows.

        A leave time past the float range is an error, not an infinity: the
        window arithmetic would never settle on one.
        """
        try:
            with np.errstate(over="raise"):
                return self._serve(arrivals, attempts)
        except (FloatingPointError, OverflowError):  # OverflowError: math.floor(inf)
            raise ValueError(
                "a departure time overflows the float range: the period is too long to simulate"
            ) from None

    def _serve(self, arrivals: np.ndarray, attempts: np.ndarray) -> np.ndarray:
        n = arrivals.size
        leave = np.empty(n)
        i = 0
        while i < n:
            if self.hold < 0:
                carried = np.array(self.in_flight, dtype=float)
                part, exact = _settle(self.completion, arrivals[i:], attempts[i:],
                                      carried, self.buffer_packets)
                leave[i:i + exact] = part[:exact]
                i += exact
                if exact:
                    queue = np.concatenate((carried, part[:exact]))
                    gone = np.searchsorted(queue, arrivals[i - 1], "right")
                    self.in_flight = deque(queue[gone:].tolist())
                if i == n:
                    self.backoff = _BACKOFF
                    break
                self.hold = self.backoff
                self.backoff *= 2
            else:
                taken = self.step(arrivals[i:].tolist(), attempts[i:].tolist(), self.in_flight,
                                  self.hold)
                leave[i:i + len(taken)] = taken
                i += len(taken)
                self.hold = -1 if i < n else max(self.hold - len(taken), 0)
        return leave


def _write_trace(path, schedule: SpSchedule, arrivals, leave, attempts, success, horizon) -> None:
    """Write the event trace of a served run as CSV, one row per event by time.

    A per-packet pass lists each packet's events in the order it meets them:
    its arrival, then an overflow drop (nan leave time) or each attempt's
    start and outcome, then a retry drop.  The start and end markers of every
    window up to `horizon` follow; a stable sort by time keeps this order
    among equal times.  `queue_len` is the count of packets in the system.
    """
    completion = schedule.scalar_completion()
    attempt_time = schedule.attempt_time
    times: list[float] = []
    kinds: list[str] = []
    deltas: list[int] = []
    head_free = 0.0  # instant the previous admitted packet leaves
    for now, done, used, ok in zip(arrivals.tolist(), leave.tolist(), attempts.tolist(),
                                   success.tolist()):
        if math.isnan(done):
            times += (now, now)
            kinds += ("arrival", "drop_overflow")
            deltas += (0, 0)
            continue
        times.append(now)
        kinds.append("arrival")
        deltas.append(1)
        start = now if now > head_free else head_free
        for nth in range(1, used):
            end = completion(start, nth)
            times += (end - attempt_time, end)
            kinds += ("attempt_start", "attempt_fail")
            deltas += (0, 0)
        times += (done - attempt_time, done)  # the last attempt ends as the packet leaves
        if ok:
            kinds += ("attempt_start", "attempt_ok")
            deltas += (0, -1)
        else:
            times.append(done)
            kinds += ("attempt_start", "attempt_fail", "drop_retry")
            deltas += (0, 0, -1)
        head_free = done
    # window starts 0.0, then `start += period`: accumulate adds in sequence
    count = int(horizon / schedule.period) + 2
    while (starts := np.add.accumulate(np.full(count, schedule.period)))[-1] <= horizon:
        count *= 2
    starts = np.concatenate(([0.0], starts[starts <= horizon]))
    marks = np.column_stack((starts, starts + schedule.sp_len)).ravel()
    time = np.concatenate((times, marks))
    order = np.argsort(time, kind="stable")
    kind = np.concatenate((np.array(kinds, dtype=object),
                           np.tile(np.array(["sp_start", "sp_end"], dtype=object), starts.size)))
    delta = np.concatenate((np.array(deltas, dtype=np.int64), np.zeros(marks.size, dtype=np.int64)))
    rows = zip(time[order].tolist(), kind[order].tolist(), np.cumsum(delta[order]).tolist())
    with open(path, "w", newline="") as handle:
        handle.write("time_s,event,queue_len\r\n")
        handle.writelines(f"{t!r},{k},{q}\r\n" for t, k, q in rows)


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
    if not isinstance(buffer_packets, int) or buffer_packets < 1:
        raise ValueError(f"buffer_packets must be an integer >= 1, got {buffer_packets}")
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

    blocks: list[tuple] = []  # a traced run keeps each block's served packets
    mean_gap = 1.0 / traffic.rate
    target = sim.measured_packets
    fifo = _Fifo(schedule, buffer_packets)
    parts: list[np.ndarray] = []  # delays, block by block
    now = 0.0  # the last arrival drawn; at the end, the trace's horizon
    skip = sim.warmup_packets  # warm-up packets not yet offered
    delivered = lost_retry = lost_overflow = 0
    truncated = False

    while delivered < target and not truncated:
        # each packet delivers at most once; once some have, draw the packets
        # the delivery share so far needs, and while every measured packet has
        # been lost, a full block.  Leave times do not depend on later
        # packets, so packets served past the target change nothing.
        need = target - delivered
        offered = delivered + lost_retry + lost_overflow
        if delivered:
            need = -(-need * offered // delivered)
        elif offered:
            need = _BLOCK
        size = min(_BLOCK, skip + need)
        gaps = arrival_rng.exponential(mean_gap, size)
        used, good = _draw_batches(channel_rng, link, size)
        # accumulate adds in sequence, so each instant has the bits of `now += gap`
        a = np.add.accumulate(np.concatenate(([now], gaps)))[1:]
        end = int(np.searchsorted(a, sim.max_sim_time, "right"))
        truncated = end < size
        now = float(a[min(end, size - 1)])  # or the first arrival past the cap
        a, used, good = a[:end], used[:end], good[:end]
        leave = fifo.serve(a, used)
        admitted = ~np.isnan(leave)
        warm = min(skip, end)
        skip -= warm
        hits = np.flatnonzero(good[warm:] & admitted[warm:]) + warm
        if hits.size >= target - delivered:  # the target is reached, cap or not
            hits = hits[:target - delivered]
            end = int(hits[-1]) + 1
            now = float(a[end - 1])
            truncated = False
        parts.append(leave[hits] - a[hits])
        delivered += hits.size
        measured = admitted[warm:end]
        lost_retry += int(np.count_nonzero(measured & ~good[warm:end]))
        lost_overflow += measured.size - int(np.count_nonzero(measured))
        if trace_path is not None:
            blocks.append((a[:end], leave[:end], used[:end], good[:end]))

    if truncated and link.error_prob < 1.0:
        # only a channel that can never succeed ends a run at the time cap
        raise SimTimeLimitError(
            f"simulated time cap {sim.max_sim_time} s reached with {delivered} of "
            f"{target} deliveries collected"
        )

    collected = np.concatenate(parts)  # the loop ran at least once
    if trace_path is not None:
        packets = [np.concatenate(column) for column in zip(*blocks)]
        _write_trace(trace_path, schedule, *packets, horizon=now)
    return SimReport(
        delivered=delivered,
        lost_retry=lost_retry,
        lost_overflow=lost_overflow,
        **_delay_stats(collected, quantile),
        percentile_q=quantile,
        seed=sim.seed,
        samples=collected if sim.keep_samples else None,
    )


# Student-t 97.5% quantiles for df = 1..63 (runs 2..64): the exact floats
# `scipy.special.stdtrit(df, 0.975)` returns under scipy 1.17.1, pinned by
# `test_t_critical_matches_scipy_stats` in `tests/test_simulator.py`.
_T_975 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078, 2.7764451051977934,
    2.5705818356363146, 2.4469118511449786, 2.364624251592784, 2.306004135204166,
    2.262157162798205, 2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776, 2.1199052992212546,
    2.1098155778333156, 2.1009220402410382, 2.0930240544083087, 2.085963447265864,
    2.0796138447276795, 2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
    2.0595385527532972, 2.0555294386428735, 2.0518305164802846, 2.0484071417952454,
    2.045229642132703, 2.0422724563012378, 2.039513446396408, 2.0369333434601016,
    2.0345152974493383, 2.0322445093177186, 2.030107928250343, 2.0280940009804502,
    2.0261924630291093, 2.0243941639119694, 2.022690920036761, 2.021075390306273,
    2.019540970441376, 2.0180817028184443, 2.016692199227824, 2.0153675744437636,
    2.014103388880846, 2.012895598919429, 2.0117405137297655, 2.010634757624232,
    2.0095752371292392, 2.008559112100761, 2.007583770315836, 2.006646805061688,
    2.0057459953178687, 2.0048792881880564, 2.0040447832891455, 2.003240718847872,
    2.002465459291007, 2.0017174841452356, 2.000995378088267, 2.0002978220142604,
    1.999623584994939, 1.9989715170333788, 1.998340542520741,
)


def _t_critical_975(df: int) -> float:
    """Student-t 97.5% quantile, the critical value of a two-sided 95% interval.

    Equal to `scipy.stats.t.ppf(0.975, df)`, whose `_ppf` is `stdtrit`.  Up
    to 64 runs the value comes from `_T_975`, so a cold process loads no
    scipy; a df outside the table calls `stdtrit` itself.
    """
    if 1 <= df <= len(_T_975):
        return _T_975[df - 1]
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
    if not isinstance(n_runs, int) or n_runs < 1:
        raise ValueError(f"n_runs must be an integer >= 1, got {n_runs}")
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
