"""Discrete-time queue model of a flow served in periodic service windows.

The timeline is cut into packet-sized slots and the pair (queue length k,
slot position n inside the period) forms a Markov chain: during service
slots one queued packet leaves per slot, during vacation slots the queue
only grows.  Batches that would overflow the buffer are dropped whole.
The period is the cycle pattern `slotify` chose: one rounded cycle, or a
run of cycles whose mean matches a period that falls between whole slots.
The slot position advances deterministically, so the chain is periodic and
plain power iteration cannot converge; the stationary distribution is
instead obtained by reducing the pattern to a single transition matrix
(with a full sparse solve over all (k, n) states kept as an independent
cross-check).  The chain's matrices depend on the traffic, link and buffer
alone, so the cycle route solves many schedules of one mix as a block:
stacked products fold the patterns, one stacked solve finds the fixed
points, and one stacked row-times-matrix product per slot carries every
schedule through its hyperperiod.  Each stacked form rounds exactly as its
per-schedule form, so a schedule gets the same floats in a block as alone;
`stationary` is the block of one.  A solved block is its slot rows, laid
end to end in one array; the balance and mass checks and the optimizer's
floor screen read them in place, each schedule failing alone, and each
schedule's probabilities are its view of them.  A screened solve may settle
a schedule before its rows exist, from its slot-0 distribution: where that
row passes the balance, mass and sign checks at slot 0 against its own
cycle pattern and its slot-0 floor (`DelayFloor`) is a proven miss, the
schedule is left out of the propagation, the checks and the floors.
Folding the stationary state with the batch probabilities gives the exact
delay probability mass function on the slot grid: the slots from the start
of the slot that counts a batch to the end of its last packet's service.
The delay users see runs from the Poisson arrival instant instead, a phase
U ~ Uniform[0, 1) slot earlier, independent of the slot delay; `metrics`
adds U, so mean delay, jitter and high percentiles describe the
arrival-instant delay while the distribution itself stays on the slot grid.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .params import (
    BatchDistribution,
    LinkSpec,
    ModelError,
    RtwtSpec,
    SlottedConfig,
    TrafficSpec,
    batch_distribution,
    packet_loss_probability,
    slotify,
    system_capacity,
)

# Stationary solutions whose balance residual exceeds this are rejected.
RESIDUAL_LIMIT = 1e-8
# Largest model `evaluate` builds, in cells: the larger of a transition
# matrix, S^2, and the delay table, hyperperiod slots x S x retry limit, where
# S = `chain_states(K, R)` is the chain's state count per slot.  The cycle
# route peaked at 50-100 bytes per cell (about 90 MB at 1M cells); the full
# sparse route at about 1.5 kB per (state, slot) pair.
MODEL_CELL_LIMIT = 2**20


def chain_states(buffer: int, retry_limit: int) -> int:
    """States per slot of the queue chain: 0 to K queued attempts, for any R."""
    return buffer + 1


def _detached(error: Exception) -> Exception:
    """`error`, kept as a value, without the traceback whose frames would hold
    its list or the caller's evaluator in a reference cycle; its cause stays."""
    return error.with_traceback(None)


def _solve_failed(exc: Exception) -> ModelError:
    """The error of a stationary solve that raised `exc`, with `exc` as its cause."""
    error = ModelError(f"stationary solve failed: {exc}")
    error.__cause__ = _detached(exc)  # as `raise ... from exc` would set it
    return error


@dataclass(frozen=True, eq=False)
class ChainModel:
    """Per-slot transitions of the queue chain over its S = `chain_states(K, R)`
    states, and the delay layout that `build_chain` writes for `delay_pmf` and
    `delay_floors`: C cells per state, `delivered` the per-slot probability
    that a cell's batch joins and is delivered (0.0 if it never joins), and
    `backlog` the `_departures` index of the service slot it leaves with."""

    slotted: SlottedConfig
    sp_matrix: np.ndarray  # (S, S), applies in service slots
    vacation_matrix: np.ndarray  # (S, S), applies in vacation slots
    dropped: np.ndarray  # (S,): the batch mass state k drops, kept on its diagonal
    delivered: np.ndarray  # (S, C) floats >= 0: each cell's delivered weight per slot
    backlog: np.ndarray  # (S, C) ints >= 0: each cell's departure index

    @property
    def states(self) -> int:
        return self.sp_matrix.shape[0]

    @functools.cached_property
    def service(self) -> np.ndarray:
        """Per slot of the hyperperiod: True inside a service window."""
        mask = np.zeros(self.slotted.hyperperiod_slots, dtype=bool)
        start = 0
        for cycle in self.slotted.cycle_pattern:
            mask[start : start + self.slotted.sp_slots] = True
            start += cycle
        return mask


def build_chain(slotted: SlottedConfig, batches: BatchDistribution) -> ChainModel:
    """Assemble the two per-slot transition matrices.

    In any slot a batch of size r joins the queue only when it fits
    (k + r <= K); otherwise it is dropped whole and the queue is unchanged.
    In a service slot one packet additionally leaves, and a batch arriving
    at an empty queue has its first packet served within the same slot.  A
    size-r batch is delay layout cell r - 1: weight `p_success[r - 1]` if it
    joins, index k + r - 1 (the (k + r)-th service slot on, vacations in full).
    """
    size = batches.p_size
    rows = np.arange(chain_states(slotted.buffer_packets, batches.retry_limit))
    fits = rows[:, None] + np.arange(1, len(size) + 1)[None, :] <= slotted.buffer_packets
    # the sizes that fit are the smallest ones, so each row drops a tail of
    # the sizes, summed in increasing size one float at a time
    dropped = np.array([sum(size[j:]) for j in fits.sum(axis=1).tolist()])
    stay = batches.p_no_batch + dropped
    vac = np.zeros((rows.size, rows.size))
    sp = np.zeros_like(vac)
    vac[rows, rows] = stay
    sp[rows, np.maximum(rows - 1, 0)] = stay
    k, j = np.nonzero(fits)  # a size-(j + 1) batch joins from queue length k
    joins = np.asarray(size)[j]
    vac[k, k + j + 1] = joins
    sp[k, k + j] += joins
    delivered = np.where(fits, np.asarray(batches.p_success)[None, :], 0.0)
    backlog = rows[:, None] + np.arange(len(size))[None, :]
    return ChainModel(slotted, sp, vac, dropped, delivered, backlog)


@dataclass(frozen=True, eq=False)
class StationaryDistribution:
    """Stationary probabilities p[k, n] of the queue chain it was solved for."""

    chain: ChainModel
    probs: np.ndarray  # shape (chain.states, hyperperiod_slots), sums to 1
    residual: float  # worst absolute balance violation


class _Powers:
    """Whole powers of one square matrix, each bit for bit `np.linalg.matrix_power`.

    numpy squares the matrix anew for every exponent above 3; here the
    squarings a, a^2, a^4, ... are made once and kept, about log2 of the
    largest exponent matrices, and a power multiplies in the squarings its
    exponent's set bits name, lowest first, as numpy does.  Exponents up to
    3 take numpy's own short cuts.  A returned power may be a kept array:
    callers do not write to it.
    """

    def __init__(self, matrix: np.ndarray) -> None:
        self._squares = [matrix]

    def __call__(self, n: int) -> np.ndarray:
        if n < 4:
            return np.linalg.matrix_power(self._squares[0], n)
        squares = self._squares
        while len(squares) < n.bit_length():
            squares.append(np.matmul(squares[-1], squares[-1]))
        result = None
        for bit, square in enumerate(squares[: n.bit_length()]):
            if n >> bit & 1:
                result = square if result is None else np.matmul(result, square)
        return result


def _stationary_cycles(
    chains: list[ChainModel],
    powers: tuple[_Powers, _Powers] | None = None,
    settle: Callable[[list[ChainModel], np.ndarray, np.ndarray], list[bool]] | None = None,
) -> list[tuple[list[ChainModel], np.ndarray | ModelError]]:
    """The cycle route over a block of schedules that share one chain's matrices.

    `powers` holds the powers of those service and vacation matrices, kept
    across blocks; without it the block makes its own.  `settle`, if given,
    sees the block's slot-0 rows `phi0` and cycle starts (`_cycle_starts`)
    before any slot row exists, and names the schedules it has settled
    itself; those get no rows.  Returns the other schedules as one block
    with their slot rows (`_propagate`), or nothing when none is left; a
    singular stacked solve gives each schedule as a block of one instead,
    with its rows or its `ModelError`.  A list, not a generator: a suspended
    frame would keep the fold's arrays alive through the block's checks,
    which then fault in fresh pages.  Every stacked product below equals
    the per-schedule product bit for bit, so a schedule gets the same floats
    in any block, whichever of its neighbours were settled.
    """
    sp = chains[0].sp_matrix
    serve_power, sleep_power = powers or (_Powers(sp), _Powers(chains[0].vacation_matrix))
    schedules = [chain.slotted for chain in chains]
    serve = {n: serve_power(n) for n in {s.sp_slots for s in schedules}}
    sleep = {n: sleep_power(n) for n in {n for s in schedules for n in s.vacations}}
    # one product per distinct (window, vacation) cycle, folded left to right
    # along each pattern: step j multiplies in cycle j of every longer pattern
    cycles = list({(s.sp_slots, n) for s in schedules for n in s.vacations})
    per_cycle = np.matmul(
        np.array([serve[w] for w, _ in cycles]), np.array([sleep[n] for _, n in cycles])
    )
    index = {cycle: i for i, cycle in enumerate(cycles)}
    routes = [[index[s.sp_slots, n] for n in s.vacations] for s in schedules]
    reduced = per_cycle[[route[0] for route in routes]]
    for j in range(1, max(map(len, routes))):
        rows = [b for b, route in enumerate(routes) if len(route) > j]
        reduced[rows] = np.matmul(reduced[rows], per_cycle[[routes[b][j] for b in rows]])

    # phi = phi @ reduced with phi summing to one: one redundant balance row
    # of each system replaced with the normalization
    dim = sp.shape[0]
    systems = reduced.transpose(0, 2, 1) - np.eye(dim)
    systems[:, -1, :] = 1.0
    rhs = np.zeros((len(chains), dim, 1))
    rhs[:, -1] = 1.0
    try:
        phi0 = np.linalg.solve(systems, rhs)[..., 0]
    except np.linalg.LinAlgError as exc:
        # the retries below run outside this handler, so their errors do not
        # take this one as their context
        singular = _detached(exc)
    else:
        if settle is not None:
            left = np.logical_not(settle(chains, phi0, _cycle_starts(phi0, per_cycle, routes)))
            chains = [chain for chain, kept in zip(chains, left.tolist()) if kept]
            phi0 = phi0[left]
        return [(chains, _propagate(chains, phi0))] if chains else []
    if len(chains) > 1:  # one by one, so that only a singular schedule fails
        return [
            pair for chain in chains
            for pair in _stationary_cycles([chain], (serve_power, sleep_power), settle)
        ]
    return [(chains, _solve_failed(singular))]


def _cycle_starts(phi0: np.ndarray, per_cycle: np.ndarray, routes: list[list[int]]) -> np.ndarray:
    """(J, B, S), J the longest pattern: row b of step j is `phi0[b]` carried
    through cycles 0 to j of its pattern by their `per_cycle` products, the
    distribution at the start of cycle j + 1; past the end of a pattern, the
    row is carried on through its last cycle again."""
    steps = max(map(len, routes))
    starts = np.empty((steps, len(routes), 1, phi0.shape[1]))
    start = phi0[:, None, :]
    for j in range(steps):
        cycles = per_cycle[[route[min(j, len(route) - 1)] for route in routes]]
        start = np.matmul(start, cycles, out=starts[j])
    return starts[:, :, 0, :]


def _propagate(chains: list[ChainModel], phi0: np.ndarray) -> np.ndarray:
    """The block's (ΣH, S) slot rows: each slot-0 distribution, a row of
    `phi0`, carried through its hyperperiod of H slots, schedule after schedule.

    A block steps all its schedules at once, one stacked (B, 1, S) @ (S, S)
    product per slot, each row equal to its own `np.dot`; a slot where the
    schedules disagree takes both products and keeps each row's own.  A
    schedule that has ended follows whichever matrix the step uses.
    """
    sp, vac = chains[0].sp_matrix, chains[0].vacation_matrix
    lengths = [chain.service.size for chain in chains]
    if len(chains) == 1:
        # np.dot into the row skips the temporary that `@` allocates per slot;
        # it also dispatches faster than a stacked product of one
        rows = np.empty((lengths[0], sp.shape[0]))
        rows[0] = phi0[0]
        for n, serve in enumerate(chains[0].service[:-1].tolist()):
            np.dot(rows[n], sp if serve else vac, out=rows[n + 1])
        rows /= lengths[0]
        return rows
    phis = np.empty((max(lengths), len(chains), sp.shape[0]))
    phis[0] = phi0
    # per step: 1 service, 0 vacation, -1 once the schedule has ended
    flags = np.full((len(chains), phis.shape[0] - 1), -1, dtype=np.int8)
    for flag, chain in zip(flags, chains):
        flag[: chain.service.size - 1] = chain.service[:-1]
    serving = flags == 1
    masks = serving.T[:, :, None, None]
    views = list(phis[:, :, None, :])  # (B, 1, S) per slot
    steps = zip(serving.any(axis=0).tolist(), (flags == 0).any(axis=0).tolist())
    for n, (some_serve, some_sleep) in enumerate(steps):
        np.matmul(views[n], vac if some_sleep else sp, out=views[n + 1])
        if some_serve and some_sleep:
            np.copyto(views[n + 1], np.matmul(views[n], sp), where=masks[n])
    rows = np.empty((sum(lengths), sp.shape[0]))
    end = 0
    for b, length in enumerate(lengths):
        np.divide(phis[:length, b], length, out=rows[end : end + length])
        end += length
    return rows


def _stationary_full(chain: ChainModel) -> np.ndarray | ModelError:
    """Independent route: sparse solve over all (k, n) states; its slot rows or `ModelError`."""
    # imported here: no CLI path runs this route, and scipy.sparse is a
    # large share of a cold process's import time
    import scipy.sparse
    import scipy.sparse.linalg

    cycle = chain.service.size
    dim = chain.states
    total = cycle * dim
    rows, cols, data = [], [], []
    for n in range(cycle):
        mat = chain.sp_matrix if chain.service[n] else chain.vacation_matrix
        src, dst = np.nonzero(mat)
        rows.append(n * dim + src)
        cols.append(((n + 1) % cycle) * dim + dst)
        data.append(mat[src, dst])
    transition = scipy.sparse.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(total, total),
    ).tocsr()
    system = (transition.T - scipy.sparse.identity(total, format="csr")).tolil()
    system[-1, :] = 1.0
    rhs = np.zeros(total)
    rhs[-1] = 1.0
    try:
        flat = scipy.sparse.linalg.spsolve(system.tocsr(), rhs)
    except RuntimeError as exc:  # pragma: no cover - singular systems
        return _solve_failed(exc)
    return flat.reshape(cycle, dim)


def _solve_chains(
    chains: list[ChainModel],
    method: str,
    powers: tuple[_Powers, _Powers] | None = None,
    settle: Callable[[list[ChainModel], np.ndarray, np.ndarray], list[bool]] | None = None,
) -> Iterator[tuple[list[ChainModel], np.ndarray | ModelError]]:
    """Each solved block of `chains`, in order, with its slot rows or its `ModelError`.

    The one place the route is chosen: `"cycle"` solves the chains in
    blocks that share `powers`, if given, and leaves out those `settle`
    settles from their slot-0 rows (`_stationary_cycles`); `"full"` solves
    each sparsely, as a block of one, and settles none.  `_checked` checks
    each block.
    """
    if method == "cycle":
        for block in _blocks(chains):
            yield from _stationary_cycles(block, powers, settle)
    elif method == "full":
        for chain in chains:
            yield [chain], _stationary_full(chain)
    else:
        raise ValueError(f"unknown stationary method {method!r}")


def stationary(chain: ChainModel, method: str = "cycle") -> StationaryDistribution:
    """Stationary distribution of the queue chain.

    `method="cycle"` collapses the cycle pattern into one transition matrix
    over queue lengths and propagates the fixed point through every slot;
    `method="full"` solves the complete (k, n) balance system sparsely.
    Both must agree; the second exists as a cross-check of the first.  Here
    and in `evaluate`, `_solve_chains` alone reads the route name.  Either
    solution is checked by `_checked`, as a block of one: every slot's step
    against the next slot, and the total mass; a worst violation above
    `RESIDUAL_LIMIT`, or negative mass, raises `ModelError`.
    """
    ((block, rows),) = _solve_chains([chain], method)
    (outcome,) = _checked(block, rows)
    if isinstance(outcome, ModelError):
        raise outcome
    return outcome


# Most multiply-adds, rows x S x S, of one matrix product in `_checked`.
# OpenBLAS runs a product from about 2^20 of them on a second thread; on a
# 2-core x86 box that raised a block check's CPU time by 70-95% and left its
# wall time level.
_PRODUCT_CELLS = 2**19


def _times(rows: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """rows @ matrix, a product of at most `_PRODUCT_CELLS` multiply-adds at a time."""
    chunk = max(1, _PRODUCT_CELLS // matrix.size)
    if len(rows) <= chunk:
        return rows @ matrix
    out = np.empty_like(rows)
    for a in range(0, len(rows), chunk):
        np.matmul(rows[a : a + chunk], matrix, out=out[a : a + chunk])
    return out


def _checked(
    chains: list[ChainModel], rows: np.ndarray | ModelError
) -> list[StationaryDistribution | ModelError]:
    """Each schedule of a solved block, checked for balance and mass, or its error.

    `rows` are the block's slot rows or its `ModelError`; the chains share
    one chain's matrices.  One vacation-matrix product over all rows and one
    service-matrix product over the service rows step each slot, each step
    is compared with the next slot of its own schedule, the last with its
    slot 0, and each schedule takes its own worst gap and its own total-mass
    term.  A schedule fails alone, at its own residual or its own negative
    mass; one that passes gets its (S, H) view of the rows, any tolerated
    negative cell set to zero in the rows themselves.
    """
    if isinstance(rows, ModelError):
        return [rows] * len(chains)
    starts = list(itertools.accumulate([chain.service.size for chain in chains], initial=0))
    firsts, lasts = np.array(starts[:-1]), np.array(starts[1:]) - 1
    cells = [start * rows.shape[1] for start in starts[:-1]]  # each schedule's first cell
    serve = np.flatnonzero(np.concatenate([chain.service for chain in chains]))
    step = _times(rows, chains[0].vacation_matrix)
    step[serve] = _times(rows[serve], chains[0].sp_matrix)
    # each slot's step against the next slot, the last slot's against slot 0
    wrap = step[lasts]
    wrap -= rows[firsts]
    step[:-1] -= rows[1:]
    step[lasts] = wrap
    gaps = np.maximum.reduceat(np.abs(step, out=step).ravel(), cells).tolist()
    lows = [0.0] * len(chains) if rows.min() >= 0.0 else (
        np.minimum.reduceat(rows.ravel(), cells).tolist()
    )
    checked = []
    for chain, a, b, gap, low in zip(chains, starts, starts[1:], gaps, lows):
        probs = rows[a:b].T
        residual = float(max(abs(probs.sum() - 1.0), gap))
        # written so that a NaN fails them: every comparison with NaN is False
        if not residual <= RESIDUAL_LIMIT:
            checked.append(ModelError(f"stationary solution violates balance by {residual:.3e}"))
        elif not low >= -1e-14:
            checked.append(ModelError(f"stationary solution has negative mass {low:.3e}"))
        else:
            if low < 0.0:
                probs[probs < 0.0] = 0.0
            checked.append(StationaryDistribution(chain=chain, probs=probs, residual=residual))
    return checked


@dataclass(frozen=True, eq=False)
class DelayPmf:
    """Delay distribution of delivered packets, on the slot grid."""

    mass: np.ndarray  # mass[d] = P(delay == d slots); mass[0] == 0

    @functools.cached_property
    def _mean(self) -> float:
        return float(np.arange(self.mass.size) @ self.mass)

    def mean_slots(self) -> float:
        return self._mean

    def std_slots(self) -> float:
        d = np.arange(self.mass.size)
        second = float((d * d) @ self.mass)
        return math.sqrt(max(second - self._mean * self._mean, 0.0))

    def percentile_slots(self, quantile: float) -> int:
        """Smallest delay d whose cumulative mass reaches the quantile.

        The total mass is 1 only up to rounding; a quantile above the float
        total gets the last support slot.
        """
        return self._percentile(quantile, np.cumsum(self.mass))

    def _percentile(self, quantile: float, cdf: np.ndarray) -> int:
        if not 0.0 < quantile < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {quantile}")
        return min(int(np.searchsorted(cdf, quantile, side="left")), self.mass.size - 1)

    def arrival_percentile_slots(self, quantile: float) -> float:
        """Quantile of the slot delay plus an independent Uniform[0, 1) phase.

        That sum has the piecewise-linear CDF F(t) = sum_d mass[d] *
        clip(t - d, 0, 1); the quantile lies inside the slot that
        `percentile_slots` finds.
        """
        cdf = np.cumsum(self.mass)
        d = self._percentile(quantile, cdf)
        below = float(cdf[d - 1]) if d else 0.0
        return d + min(max(float((quantile - below) / self.mass[d]), 0.0), 1.0)


def _departures(masks: list[np.ndarray], backlog: np.ndarray) -> np.ndarray:
    """table[r, j], for slot r of the service `masks` laid end to end: the
    slots from the start of that slot to the end of the (backlog[j] + 1)-th
    service slot at or after it, its own mask repeating once per
    hyperperiod; strictly increasing in backlog[j].  `ends` holds, mask by
    mask, the end of each service slot of one lap and, written
    arithmetically, of as many laps after it as the largest backlog
    reaches; `first` holds each slot's index there of its first service
    slot at or after it.  Slots and ends count from the first mask's start."""
    reach = int(backlog.max())
    service = np.concatenate(masks)
    first = np.cumsum(service) - service  # service slots before each slot
    opens = np.flatnonzero(service) + 1  # each service slot's end
    ends, shifts = [], []
    skipped = entries = 0
    for mask in masks:
        count = np.count_nonzero(mask)
        laps = reach // count + 2  # a slot's first service slot is at most `count` on
        lap = opens[skipped : skipped + count]
        ends.append((np.arange(0, laps * mask.size, mask.size)[:, None] + lap).ravel())
        shifts.append(entries - skipped)
        skipped, entries = skipped + count, entries + laps * count
    if len(masks) > 1:  # a later mask's slots skip the laps added before it
        first += np.repeat(shifts, [mask.size for mask in masks])
    return np.concatenate(ends)[first[:, None] + backlog] - np.arange(service.size)[:, None]


def delay_pmf(
    stat: StationaryDistribution,
    batches: BatchDistribution,
    slotted: SlottedConfig,
) -> DelayPmf:
    """Exact delay distribution of delivered packets, on the slot grid.

    Reads the chain's delay layout: each (arrival slot n, state k, cell c)
    weighs its stationary probability times `ChainModel.delivered[k, c]`
    and waits the `_departures` delay from slot n at index
    `ChainModel.backlog[k, c]`.  The weights are normalized over delivered
    packets only, so batches the chain drops count on neither side.
    `slotted` must be the schedule the chain was built for.
    """
    chain = stat.chain
    if slotted != chain.slotted:
        raise ValueError("delay_pmf needs the schedule its stationary chain was built for")
    if batches.p_batch == 0.0:
        raise ModelError("arrival rate is zero, no deliveries to account")
    most = int(chain.backlog.max()) + 1  # service slots the longest backlog waits for
    delays = _departures([chain.service], chain.backlog.ravel())

    # undelivered cells weigh 0.0 rather than being masked out: each bin below
    # gets the same adds in the same order, plus zeros; the (n, k, c) weights
    # are laid out in rows of S x C, each state's probability once per cell
    weights = np.repeat(stat.probs.T, chain.delivered.shape[1], axis=1) * chain.delivered.ravel()
    norm = weights.sum()
    if not norm > 0.0:  # NaN too
        raise ModelError("no successful delivery has positive probability")

    mass = np.bincount(delays.ravel(), weights=weights.ravel()) / norm
    mass = mass[: int(np.nonzero(mass)[0][-1]) + 1]  # drop the all-zero tail
    n_vac = max(slotted.vacations)
    bound = most * (1.0 + n_vac / slotted.sp_slots) + slotted.sp_slots + n_vac
    if mass.size - 1 > bound:
        raise ModelError(
            f"delay support {mass.size - 1} exceeds the analytic bound {bound:.1f}"
        )
    return DelayPmf(mass=mass)


# Rounding allowance of `DelayFloor`.  Each float sum behind a delay PMF or a
# floor adds at most MODEL_CELL_LIMIT = 2^20 non-negative terms, so it is
# within 2^20 x 2^-53 (about 1.2e-10) of its exact value, relative to the
# whole; two such sums and a share of 1 stay well inside 1e-9.
FLOOR_MARGIN = 1e-9
# Most cells (`_blocks`) of the schedules whose floors `delay_floors` counts
# in one slice of a block's rows.  On a 2-core x86 box, in in-process rounds
# of 4 default-grid optimizes with the sizes in rotated order, the whole
# block and 2^16 cells took a median 1.09-1.17 and 1.07-1.15 of the time at
# 2^15 (faster in 5 of 60 rounds each), 2^13 took 1.08 (5 of 30), and 2^14
# tied with 2^15, 0.96-1.02 in four batches and faster in 87 of 150 rounds.
# With the slot-0 floors settling most schedules before their rows, three
# batches of 30 rounds of 8 optimizes gave 2^14 a median 1.018, 1.005 and
# 1.003 of the time at 2^15 (faster in 11, 14 and 14) and 2^16 1.021, 0.998
# and 0.993 (faster in 12, 16 and 18): a tie, so 2^15 stays.
# Each array of a 2^15 slice stays at 256 kB.
_FLOOR_GROUP_CELLS = 2**15


@dataclass(frozen=True)
class DelayFloor:
    """Lower bounds, in seconds, on what `metrics` reports for a schedule:
    the proof `optimize` screens by, read off the checked slot rows or, before
    they exist, off the slot-0 row of the solve.

    The row floor (`delay_floors`).  `delay_pmf` gives cell (slot n, state k,
    cell c) the delay `_departures` reads from slot n at index backlog[k, c],
    which strictly increases along the index, so every delivered cell waits
    at least floor(n, k), the delay at state k's least index.  U(d), the
    delivered weight of the (n, k) with floor(n, k) <= d over all delivered
    weight, is at least the delivered share with delay <= d: U(d) >=
    `np.cumsum(pmf.mass)[d]` - `FLOOR_MARGIN` in floats, as `_floor_shares`
    reads the rows `delay_pmf` reads.  So the PMF's percentile slot at q,
    and the arrival-instant percentile, are at least the first d with U(d)
    >= q - margin, and its mean is at least the floors' mean shrunk by the
    margin.  This holds for any layout of non-negative weights: only a
    change to `_departures`' premise needs it restated.

    The slot-0 floor (`_early_floors`) rests on three more premises, each
    pinned by a test: the vacation matrix is upper-triangular with rows
    summing to 1, and delta = `delivered.sum(axis=1)` does not rise with k,
    so (x @ vacation) . delta <= x . delta for x >= 0: the delivered weight
    never rises along a vacation run.  Each vacation slot of cycle j then
    weighs at least the row at the start of cycle j + 1, phi_{j+1} . delta /
    H, where phi_{j+1} is `phi0` carried through cycles 0 to j and H the
    hyperperiod, and all delivered weight is at most delta(0) times the mass,
    sum(phi0).  A vacation slot r >= 1 slots before its window waits at
    least r + 1 slots (`_departures` at index 0), so with V_j vacation slots
    in cycle j and a_j = phi_{j+1} . delta / (H delta(0) sum(phi0)), the
    delivered share with delay > d >= 1 is at least LB(d) = sum_j a_j
    max(V_j + 1 - d, 0).  The percentile slot at q is then at least the
    least d >= 1 with LB(d) (1 - margin) <= 1 - q + margin, and the mean slot
    delay, 1 + sum over d >= 1 of P(delay > d), at least 1 + sum_j a_j V_j
    (V_j + 1) / 2, shrunk by the margin.  The margin covers the float steps:
    phi_{j+1} and the rows are products of non-negative terms, rounded in
    other orders, and a row of the vacation matrix sums to 1 within S
    roundings, which over at most H slots stays within H x S x 2^-53 of the
    whole.  The floor is taken only where `phi0` passes `_checked`'s tests at
    slot 0, against its own pattern (|phi_m - phi0| and |sum(phi0) - 1| at
    most `RESIDUAL_LIMIT`, no cell below -1e-14), and some a_j > 0 proves a
    delivered weight; any other schedule takes the full path and gets there
    the error `_checked` or `delay_pmf` gives it.

    Either floor is carried into seconds in the float forms of `metrics`,
    slot * d and slot * (mean + 0.5), which never fall as d or the mean
    grows.  Jitter has no bound.
    """

    percentile_s: float  # <= MetricsReport.percentile_s at the floor's quantile
    mean_delay_s: float  # <= MetricsReport.mean_delay_s


def _floor_shares(chains: list[ChainModel], rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per schedule, U(d)'s numerator for every d, and its mean floor's, unnormalized.

    The schedules share one chain's matrices and delay layout, and `rows`
    are their slot rows in turn; each state's delivered weight counts at its
    least backlog index.  One `_departures` table and one weighted count
    serve them all, each schedule's floors counted in bins of their own: row
    b of the first array is the running delivered weight of schedule b by
    floor; its last column is the schedule's delivered weight.
    """
    lows = chains[0].backlog.min(axis=1)
    floors = _departures([chain.service for chain in chains], lows)
    width = int(floors.max()) + 1
    sizes = [chain.service.size for chain in chains]
    floors += np.repeat(np.arange(len(chains)) * width, sizes)[:, None]  # bins of schedule b
    weights = rows * chains[0].delivered.sum(axis=1)
    mass = np.bincount(floors.ravel(), weights=weights.ravel(), minlength=len(chains) * width)
    mass = mass.reshape(len(chains), width)
    return np.cumsum(mass, axis=1), mass @ np.arange(width)


def delay_floors(
    chains: list[ChainModel], rows: np.ndarray, quantile: float, slot: float
) -> list[DelayFloor | None]:
    """The `DelayFloor` at `quantile` of each schedule of a block `_checked`
    has checked, `slot` seconds per slot; None where `delay_pmf` finds no
    delivered weight (a zero rate, or every batch lost).  The floors are
    counted in place over slices of the block's rows; a schedule that failed
    its check has bins of its own, and its floor is never read."""
    floors, end = [], 0
    for group in _blocks(chains, _FLOOR_GROUP_CELLS):
        start, end = end, end + sum(chain.service.size for chain in group)
        below, means = _floor_shares(group, rows[start:end])
        norms = below[:, -1]
        firsts = (below < (quantile - FLOOR_MARGIN) * norms[:, None]).sum(axis=1)
        floors += [
            DelayFloor(slot * first, slot * (mean / norm * (1.0 - FLOOR_MARGIN) + 0.5))
            if norm > 0.0 else None
            for first, mean, norm in zip(firsts.tolist(), means.tolist(), norms.tolist())
        ]
    return floors


def _early_floors(
    chains: list[ChainModel], phi0: np.ndarray, starts: np.ndarray, quantile: float, slot: float
) -> list[DelayFloor | None]:
    """The slot-0 `DelayFloor` at `quantile` of each schedule of a solved block,
    `slot` seconds per slot, from its row of `phi0` and of its cycle starts
    (`_cycle_starts`); None where the slot-0 tests fail or no delivered
    weight is proven, and the schedule needs its slot rows."""
    delta = chains[0].delivered.sum(axis=1)
    if not delta[0] > 0.0:  # nothing is delivered from any state
        return [None] * len(chains)
    patterns = [chain.slotted.cycle_pattern for chain in chains]
    counts = np.array([len(pattern) for pattern in patterns])
    inside = np.arange(starts.shape[0]) < counts[:, None]  # (B, J): cycle j of schedule b
    cycles = np.zeros(inside.shape)
    cycles[inside] = np.concatenate(patterns)
    windows = np.array([chain.slotted.sp_slots for chain in chains])
    runs = np.where(inside, cycles - windows[:, None], 0.0)  # V_j
    masses = phi0.sum(axis=1)
    gaps = np.abs(starts[counts - 1, np.arange(len(chains))] - phi0).max(axis=1)
    # written so that a NaN fails them, as in `_checked`
    usable = (np.maximum(np.abs(masses - 1.0), gaps) <= RESIDUAL_LIMIT) & (
        phi0.min(axis=1) >= -1e-14
    )
    norms = np.where(usable, cycles.sum(axis=1) * delta[0] * masses, 1.0)
    shares = np.where(usable[:, None] & inside, (starts @ delta).T, 0.0) / norms[:, None]  # a_j
    # LB(d) for d = 1 .. longest run + 1, where it reaches zero
    d = np.arange(1, int(runs.max()) + 2)
    tails = (shares[:, :, None] * np.maximum(runs[:, :, None] + 1 - d, 0)).sum(axis=1)
    firsts = 1 + (tails * (1.0 - FLOOR_MARGIN) > 1.0 - quantile + FLOOR_MARGIN).sum(axis=1)
    means = 1.0 + (shares * runs * (runs + 1) / 2).sum(axis=1)
    proven = (shares.sum(axis=1) > 0.0).tolist()
    return [
        DelayFloor(slot * first, slot * (mean * (1.0 - FLOOR_MARGIN) + 0.5)) if ok else None
        for ok, first, mean in zip(proven, firsts.tolist(), means.tolist())
    ]


def overflow_probability(stat: StationaryDistribution, batches: BatchDistribution) -> float:
    """Stationary per-slot probability that an arriving batch is dropped whole.

    Read off the mass the chain drops; `batches` is the law it was built from.
    """
    # summed state by state, in the order of the states
    return float(sum(stat.probs.sum(axis=1) * stat.chain.dropped))


@dataclass(frozen=True, eq=False)
class MetricsReport:
    """Headline quality metrics for one schedule under one traffic mix."""

    mean_delay_s: float
    jitter_s: float
    loss_prob: float
    percentile_s: float
    percentile_q: float
    capacity: float
    overflow_prob: float
    pmf: DelayPmf = field(repr=False)

    def to_dict(self) -> dict:
        """Every figure but the PMF, in field order."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "pmf"}


def metrics(
    pmf: DelayPmf,
    link: LinkSpec,
    traffic: TrafficSpec,
    rtwt: RtwtSpec,
    quantile: float = 0.999,
    *,
    overflow_prob: float,
) -> MetricsReport:
    """Convert a slot-grid delay distribution into headline metrics.

    The metrics describe the delay from the Poisson arrival instant: the
    slot delay plus the arrival's phase U ~ Uniform[0, 1) slot inside the
    slot that counts it, independent of the slot delay.  U adds 1/2 slot to
    the mean and 1/12 slot^2 to the variance; the percentile is read from
    the CDF of the sum (`DelayPmf.arrival_percentile_slots`).  The PMF in
    the report stays on the slot grid.
    """
    slot = traffic.slot_time
    return MetricsReport(
        mean_delay_s=slot * (pmf.mean_slots() + 0.5),
        jitter_s=slot * math.sqrt(pmf.std_slots() ** 2 + 1.0 / 12.0),
        loss_prob=packet_loss_probability(link),
        percentile_s=slot * pmf.arrival_percentile_slots(quantile),
        percentile_q=quantile,
        capacity=system_capacity(rtwt, traffic),
        overflow_prob=overflow_prob,
        pmf=pmf,
    )


def _schedule_key(slotted: SlottedConfig) -> tuple[int, tuple[int, ...]]:
    """What tells schedules of one mix apart: window length and cycle pattern."""
    return slotted.sp_slots, slotted.cycle_pattern


def _blocks(chains: list[ChainModel], limit: int | None = None) -> Iterator[list[ChainModel]]:
    """Runs of consecutive chains whose stacked arrays stay within `limit` cells,
    by default `MODEL_CELL_LIMIT`.

    A block of B chains over S states, its longest hyperperiod H slots,
    counts B x max(S^2, H x S) cells; a block of one is never split.
    """
    limit = MODEL_CELL_LIMIT if limit is None else limit
    block, longest = [], 0
    for chain in chains:
        longest = max(longest, chain.service.size)
        if block and (len(block) + 1) * chain.states * max(chain.states, longest) > limit:
            yield block
            block, longest = [], chain.service.size
        block.append(chain)
    if block:
        yield block


@dataclass(eq=False)
class ScheduleEvaluator:
    """The model of one traffic mix, link and buffer, evaluated schedule by schedule.

    The batch law and the chain matrices are computed once, by the first
    schedule that passes the `MODEL_CELL_LIMIT` guard, and the squarings
    behind their powers are kept for every later block.  Each distinct
    schedule (`_schedule_key`) is solved once, alone or in a block of many
    on the cycle route, with the same floats, checks and errors either way;
    a repeat at another period reuses its delay PMF and overflow
    probability, or its error, and gets only its own `metrics`, because
    capacity depends on the period.

    Every spec is slotified with `allow_coarse`, set when the evaluator is
    built, as is `screen`, a test over `DelayFloor`s that a search may set.
    With a screen, the cycle route first reads each schedule's slot-0 floor
    off its slot-0 distribution (`_early_floors`), where that distribution
    passes the balance, mass and sign checks at slot 0; a schedule whose
    slot-0 floor the screen accepts is settled there, before its slot rows
    exist.  The rest of each solved block goes through `_checked` and, with
    a screen, through `delay_floors`; a checked schedule whose floor the
    screen accepts (a proven miss) has that floor, the proof, as its
    outcome, and no delay PMF.
    Each outcome is final: a schedule is solved at most once per evaluator,
    and a caller that needs a floored schedule in full asks an evaluator
    without a screen.
    """

    traffic: TrafficSpec
    link: LinkSpec
    buffer_packets: int
    quantile: float = 0.999
    method: str = "cycle"
    allow_coarse: bool = False
    screen: Callable[[DelayFloor], bool] | None = None
    _batches: BatchDistribution | None = field(default=None, init=False, repr=False)
    _chain: ChainModel | None = field(default=None, init=False, repr=False)
    # powers of the chain's service and vacation matrices, shared by every block
    _powers: tuple[_Powers, _Powers] | None = field(default=None, init=False, repr=False)
    # `_schedule_key` -> (pmf, overflow probability), a screened DelayFloor
    # or the ModelError; written once per key
    _solved: dict = field(default_factory=dict, init=False, repr=False)

    def reports(
        self, rtwts: list[RtwtSpec]
    ) -> list[MetricsReport | DelayFloor | ValueError | ModelError]:
        """Each spec's metrics report, floor or error, in spec order.

        Each spec is slotified once, and a `slotify` error is its outcome.
        The distinct schedules not solved before are solved in one `_solve`;
        a schedule's `DelayFloor` is its outcome when `screen` accepted it.
        An error comes without its traceback (`_detached`).
        """
        keys, unsolved = [], {}
        for rtwt in rtwts:
            try:
                slotted = slotify(self.traffic, rtwt, self.buffer_packets, self.allow_coarse)
            except ValueError as exc:
                keys.append(_detached(exc))
                continue
            key = _schedule_key(slotted)
            if key not in self._solved:
                unsolved.setdefault(key, slotted)
            keys.append(key)
        self._solve(list(unsolved.values()))
        outcomes = []
        for rtwt, key in zip(rtwts, keys):
            solved = key if isinstance(key, ValueError) else self._solved[key]
            if isinstance(solved, tuple):
                pmf, overflow = solved
                try:
                    solved = metrics(
                        pmf, self.link, self.traffic, rtwt, quantile=self.quantile,
                        overflow_prob=overflow,
                    )
                except ValueError as exc:  # a quantile outside (0, 1)
                    solved = _detached(exc)
            outcomes.append(solved)
        return outcomes

    def _solve(self, schedules: list[SlottedConfig]) -> None:
        """Record each schedule's delay PMF and overflow probability, its screened
        floor, or its error, one solved block at a time."""
        retry_limit = self.link.retry_limit
        states = chain_states(self.buffer_packets, retry_limit)
        chains = []
        for slotted in schedules:
            # checked before `batch_distribution`, which builds retry-limit-long tuples
            cells = max(states * states, slotted.hyperperiod_slots * states * retry_limit)
            if cells > MODEL_CELL_LIMIT:
                self._solved[_schedule_key(slotted)] = ModelError(
                    f"model too large: buffer_packets {self.buffer_packets}, "
                    f"{slotted.hyperperiod_slots} slot(s) per hyperperiod and retry limit "
                    f"{retry_limit} need {cells} cells, more than the {MODEL_CELL_LIMIT} allowed"
                )
                continue
            if self._chain is None:
                self._batches = batch_distribution(self.traffic, self.link)
                self._chain = build_chain(slotted, self._batches)
                self._powers = (
                    _Powers(self._chain.sp_matrix), _Powers(self._chain.vacation_matrix)
                )
            chains.append(replace(self._chain, slotted=slotted))
        settle = None if self.screen is None else self._settle
        for block, rows in _solve_chains(chains, self.method, self._powers, settle):
            stats = _checked(block, rows)
            floors = [None] * len(block)
            if self.screen is not None and not isinstance(rows, ModelError):
                floors = delay_floors(block, rows, self.quantile, self.traffic.slot_time)
            for chain, stat, floor in zip(block, stats, floors):
                key = _schedule_key(chain.slotted)
                if isinstance(stat, ModelError):
                    self._solved[key] = stat
                elif floor is not None and self.screen(floor):
                    self._solved[key] = floor
                else:
                    try:
                        self._solved[key] = (
                            delay_pmf(stat, self._batches, chain.slotted),
                            overflow_probability(stat, self._batches),
                        )
                    except ModelError as exc:
                        self._solved[key] = _detached(exc)

    def _settle(self, chains: list[ChainModel], phi0: np.ndarray, starts: np.ndarray) -> list[bool]:
        """Record the slot-0 floor (`_early_floors`) of each schedule of a solved
        block that the screen accepts; True for each, which then gets no rows."""
        floors = _early_floors(chains, phi0, starts, self.quantile, self.traffic.slot_time)
        settled = []
        for chain, floor in zip(chains, floors):
            settled.append(floor is not None and self.screen(floor))
            if settled[-1]:
                self._solved[_schedule_key(chain.slotted)] = floor
        return settled


def evaluate(
    traffic: TrafficSpec,
    link: LinkSpec,
    rtwt: RtwtSpec,
    buffer_packets: int = 20,
    quantile: float = 0.999,
    allow_coarse: bool = False,
    method: str = "cycle",
) -> MetricsReport:
    """End-to-end analytic evaluation of one schedule.

    `allow_coarse` accepts a period that lies between whole slots and
    evaluates it as the mixed cycle pattern `slotify` returns.  A model
    larger than `MODEL_CELL_LIMIT` raises `ModelError` before it is built.
    """
    evaluator = ScheduleEvaluator(traffic, link, buffer_packets, quantile, method, allow_coarse)
    (outcome,) = evaluator.reports([rtwt])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome
