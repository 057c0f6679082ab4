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
end to end in one array; the balance and mass checks read them in place,
each schedule failing alone, and each schedule's probabilities are its view
of them.  A screened solve reads one floor (`DelayFloor`) off each
schedule's slot-0 distribution and cycle starts, before any slot row
exists: where that row passes the balance, mass and sign checks at slot 0
against its own cycle pattern and the floor is a proven miss, the schedule
gets no slot rows, no checks and no delay distribution.
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
from dataclasses import dataclass, field, fields

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
    the floors: C cells per state, `delivered` the per-slot probability
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


def _shared(chain: ChainModel) -> tuple[np.ndarray, ...]:
    """The arrays of `chain` that do not depend on its schedule: every field
    after `slotted`, in order, which the chains of one mix share."""
    return chain.sp_matrix, chain.vacation_matrix, chain.dropped, chain.delivered, chain.backlog


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


def _read_only(array: np.ndarray) -> np.ndarray:
    """`array`, no longer writable: it is shared from here on."""
    array.setflags(write=False)
    return array


class _Powers:
    """Whole powers of one square matrix, each bit for bit `np.linalg.matrix_power`.

    numpy squares the matrix anew for every exponent above 3; here the
    squarings a, a^2, a^4, ... are made once and kept, about log2 of the
    largest exponent matrices, and a power multiplies in the squarings its
    exponent's set bits name, lowest first, as numpy does.  Exponents up to
    3 take numpy's own short cuts.  Each power made is kept too, while the
    kept powers hold at most `MODEL_CELL_LIMIT` cells, so a search that asks
    for one vacation length block after block multiplies it out once.  Every
    power and squaring returned is read-only; the first power is a read-only
    view, so the caller's matrix stays writable.
    """

    def __init__(self, matrix: np.ndarray) -> None:
        self._squares = [_read_only(matrix.view())]
        self._kept: dict[int, np.ndarray] = {}
        self._cells = 0  # held by `_kept`

    def square(self, bit: int) -> np.ndarray:
        """The kept power 2^bit."""
        squares = self._squares
        while len(squares) <= bit:
            squares.append(_read_only(np.matmul(squares[-1], squares[-1])))
        return squares[bit]

    def __call__(self, n: int) -> np.ndarray:
        power = self._kept.get(n)
        if power is None:
            power = _read_only(self._product(n))
            if self._cells + power.size <= MODEL_CELL_LIMIT:
                self._kept[n] = power
                self._cells += power.size
        return power

    def _product(self, n: int) -> np.ndarray:
        if n < 4:
            return np.linalg.matrix_power(self._squares[0], n)
        self.square(n.bit_length() - 1)
        result = None
        for bit, square in enumerate(self._squares[: n.bit_length()]):
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
    itself, by their floors; those get no rows.  Returns the other schedules as one block
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
    schedules = [(chain.slotted.sp_slots, chain.slotted.vacations) for chain in chains]
    # one product per distinct (window, vacation) cycle, folded left to right
    # along each pattern: step j multiplies in cycle j of every longer pattern
    cycles = list({(w, n) for w, vacations in schedules for n in vacations})
    serve = {w: serve_power(w) for w in {w for w, _ in cycles}}
    sleep = {n: sleep_power(n) for n in {n for _, n in cycles}}
    per_cycle = np.matmul(
        np.array([serve[w] for w, _ in cycles]), np.array([sleep[n] for _, n in cycles])
    )
    index = {cycle: i for i, cycle in enumerate(cycles)}
    routes = [[index[w, n] for n in vacations] for w, vacations in schedules]
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
    row is zero.  Each step carries only the rows still inside their pattern."""
    steps = max(map(len, routes))
    starts = np.zeros((steps, len(routes), 1, phi0.shape[1]))
    np.matmul(phi0[:, None, :], per_cycle[[route[0] for route in routes]], out=starts[0])
    for j in range(1, steps):
        rows = [b for b, route in enumerate(routes) if len(route) > j]
        starts[j, rows] = np.matmul(starts[j - 1, rows], per_cycle[[routes[b][j] for b in rows]])
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


def _service_ends(m, window, count, hyper, opens: np.ndarray, head=0) -> np.ndarray:
    """The end of service slot m, from 0, of a repeating pattern of `count`
    cycles and `hyper` slots, cycle j opening at `opens[head + j]` with a
    window of `window` slots; every argument but `opens` broadcasts.  The
    departures of `delay_pmf` (`_departures`) and of the floor, in one place."""
    cycles, within = np.divmod(m, window)
    laps, cycle = np.divmod(cycles, count)
    return laps * hyper + opens[head + cycle] + within + 1


def _departures(chain: ChainModel, backlog: np.ndarray) -> np.ndarray:
    """table[n, j], for slot n of `chain`'s hyperperiod: the slots from the
    start of slot n to the end of the (backlog[j] + 1)-th service slot at
    or after it, later laps included (`_service_ends`); strictly increasing
    in backlog[j]."""
    service, pattern = chain.service, np.array(chain.slotted.cycle_pattern)
    first = np.cumsum(service) - service  # service slots before each slot
    ends = _service_ends(
        np.arange(first[-1] + int(backlog.max()) + 1), chain.slotted.sp_slots, pattern.size,
        service.size, np.cumsum(pattern) - pattern,
    )
    return ends[first[:, None] + backlog] - np.arange(service.size)[:, None]


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
    delays = _departures(chain, chain.backlog.ravel())

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
# Most checkpoints `_checkpoint_floors` reads inside one vacation: 0 and
# the multiples of the least power of two at least 1/_CHECKPOINTS of it.  In
# 20 optimizes drawn as the benchmark's `optimize_grid` draws them, on a
# 2-core x86 box, 2, 3 and 4 left 14.1, 6.8 and 5.5 schedules per call to
# their slot rows; in alternating in-process rounds against the parent
# code they took a median 0.834 and 0.821, 0.805 and 0.804, and 0.811 and
# 0.801 of its time, in two batches of 6 rounds.
_CHECKPOINTS = 3
# Rounds `_checkpoint_floors` moves the mean's floor up by.  Over 60
# optimizes (interarrival 16 and 5 ms, R 1 and 3, K 1, 20 and 50, the
# percentile at 6, 2 and 0.1 ms and the mean delay at 3 and 0.1 ms), 0, 1,
# 2, 3, 4 and 6 rounds built 586, 335, 317, 313, 311 and 311 delay PMFs.
_MEAN_ROUNDS = 3


@dataclass(frozen=True)
class DelayFloor:
    """Lower bounds, in seconds, on what `metrics` reports for a schedule: the
    proof `optimize` screens by, read off the slot-0 row of the solve before
    any slot row exists (`ScheduleEvaluator._settle`).

    `delay_pmf` gives cell (slot n, state k, cell c) the weight p_n(k)
    delivered[k, c] and the delay `_service_ends` gives from slot n at index
    backlog[k, c], which strictly increases along the index.  Three premises
    of `build_chain`'s layout are each pinned by a test: the vacation matrix
    is upper-triangular with rows summing to 1, so in a vacation the queue
    never falls; delivered[:, c] does not rise with k; and backlog[:, c] does
    not fall with k.  A cycle j is a window of W slots, then a vacation of V
    slots.  Its window rows are exact: phi_j sp^w, where phi_j is `phi0`
    carried through the cycles before it (`_cycle_starts`), each cell
    counted at its own delay.  Its vacation is cut at checkpoints 0 = t_0 <=
    t_1 <= ... <= t_I = V, the row at t_i being q_i = psi vac^t_i, with psi =
    phi_j sp^W the vacation's first row and q_I = phi_{j+1}.  A vacation slot
    t in [t_i, t_{i+1}) has a queue stochastically above q_i and below
    q_{i+1}.  So cell c delivers there at least w = q_{i+1} . delivered[:, c],
    and its states below m at most A(m) = sum over k < m of q_i(k)
    delivered[k, c], the most any row above q_i in that order gives them,
    since delivered[:, c] does not rise.  Its states m and above then deliver
    at least G(m) = max(w - A(m), 0), which does not rise with m, and each
    of them waits at least r + e_m slots: r slots to the next window, and e_m
    the `_service_ends` delay from that window's first slot at index
    backlog[m, c].  Weights G(m) - G(m + 1) placed at those delays give, for
    every d, at most the cell's weight with delay > d.  Summed over the
    slots and cells, they bound from below the delivered weight with delay
    > d, N(d); the window weights plus each vacation slot's checkpoint
    weight, q_i . delivered.sum(axis=1), bound all delivered weight from
    above, Z.  So the delivered share with delay > d is at least N(d) / Z.
    The percentile slot at q then exceeds every d with N(d) (1 - margin) >
    (1 - q + margin) Z, and is at least 1.  The mean slot delay is 1 + the
    sum over d >= 1 of P(delay > d).  Let E be the sum over d >= 1 of N(d)
    and D the weight N counts.  A vacation slot t of segment i delivers x_t
    more than the w of its cells, at most q_i . delta - q_{i+1} . delta with
    delta = delivered.sum(axis=1), and that weight waits at least r_t + 1
    slots.  Along the segment x_t does not rise and r_t falls, so X_i, the
    sum of its x_t, adds at least X_i times the mean r_i of its r_t to E
    (Chebyshev's sum inequality), and exactly X_i to D.  With each X_i
    anywhere in [0, X_i^], X_i^ the span times that fall, the mean is at
    least 1 + the least of (E + sum X_i r_i) / (D + sum X_i), taken where
    each X_i with r_i below that least value is X_i^ and the others 0.
    From mu = E / Z, each of `_MEAN_ROUNDS` rounds sets mu = (E + sum X_i^
    min(r_i, mu)) / Z, with Z = D + sum X_i^, and stays at most that least
    ratio: with each r_i cut to mu, which is at most every ratio, each X_i
    at X_i^ only lowers the ratio.  The mean floor is 1 + mu, shrunk by the
    margin.  The margin covers the float steps: the rows and checkpoints
    are products of non-negative terms, rounded in other orders than the
    slot rows, which over at most H slots stays within H x S x 2^-53 of the
    whole, and G(m) and the running sums of N(d) subtract terms of at most
    the whole.

    The coarse form (`_coarse_floors`) keeps less of the same bound: no
    window slot counts in N(d), and each vacation slot counts the whole
    weight of the next cycle start, phi_{j+1} . delivered.sum(axis=1), at
    index 0, where it waits at least r + 1 slots.  Z is then H times the
    mass, sum(phi0), times delivered[0].sum(), which no state exceeds.  With
    a_j = phi_{j+1} . delivered.sum(axis=1) / Z, N(d) / Z is sum_j a_j
    max(V_j + 1 - d, 0) for d >= 1, and the mean's sum is sum_j a_j V_j
    (V_j + 1) / 2.

    Either form is taken only where `phi0` passes `_checked`'s tests at slot
    0, against its own pattern (|phi_m - phi0| and |sum(phi0) - 1| at most
    `RESIDUAL_LIMIT`, no cell below -1e-14), and a delivered weight is
    proven: the window weights plus each vacation slot's weight at its next
    checkpoint, q_{i+1} . delivered.sum(axis=1), are positive, or in the
    coarse form some a_j is.  Any other
    schedule takes the full path and gets there the error `_checked` or
    `delay_pmf` gives it.  The floor is carried into seconds in the float
    forms of `metrics`, slot * d and slot * (mean + 0.5), which never fall
    as d or the mean grows.  Jitter has no bound.
    """

    percentile_s: float  # <= MetricsReport.percentile_s at the floor's quantile
    mean_delay_s: float  # <= MetricsReport.mean_delay_s


def _slot_0_passes(phi0: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per schedule, whether its slot-0 row passes `_checked`'s tests at slot 0
    against its own pattern of `counts` cycles; written so that a NaN fails
    them, as in `_checked`."""
    gaps = np.abs(starts[counts - 1, np.arange(len(phi0))] - phi0).max(axis=1)
    return (np.maximum(np.abs(phi0.sum(axis=1) - 1.0), gaps) <= RESIDUAL_LIMIT) & (
        phi0.min(axis=1) >= -1e-14
    )


def _in_seconds(
    proven: np.ndarray, percentiles: np.ndarray, means: np.ndarray, slot: float
) -> list[DelayFloor | None]:
    """Each schedule's `DelayFloor` from its percentile slot and mean slot
    delay, the mean shrunk by the margin; None where no weight is proven."""
    return [
        DelayFloor(slot * first, slot * (mean * (1.0 - FLOOR_MARGIN) + 0.5)) if ok else None
        for ok, first, mean in zip(proven.tolist(), percentiles.tolist(), means.tolist())
    ]


def _coarse_floors(
    chains: list[ChainModel], phi0: np.ndarray, starts: np.ndarray, quantile: float, slot: float
) -> list[DelayFloor | None]:
    """The `DelayFloor` at `quantile` of each schedule of a solved block, `slot`
    seconds per slot, from its row of `phi0` and of its cycle starts
    (`_cycle_starts`) and its chain's delay layout; None where the slot-0
    tests fail or no delivered weight is proven, and the schedule needs its
    slot rows.  This is the coarse form: each vacation slot's weight taken
    whole at the next cycle start, at index 0, and the window slots left out."""
    delta = chains[0].delivered.sum(axis=1)
    if not delta[0] > 0.0:  # nothing is delivered from any state
        return [None] * len(chains)
    vacations = [chain.slotted.vacations for chain in chains]
    counts = np.array([len(cycles) for cycles in vacations])
    inside = np.arange(starts.shape[0]) < counts[:, None]  # (B, J): cycle j of schedule b
    runs = np.zeros(inside.shape)  # V_j, zero past each pattern
    runs[inside] = np.concatenate(vacations)
    hypers = np.array([chain.slotted.hyperperiod_slots for chain in chains])
    usable = _slot_0_passes(phi0, starts, counts)
    norms = np.where(usable, hypers * delta[0] * phi0.sum(axis=1), 1.0)
    shares = np.where(usable[:, None] & inside, (starts @ delta).T, 0.0) / norms[:, None]  # a_j
    # the share above d for d = 1 .. longest run + 1, where it reaches zero
    d = np.arange(1, int(runs.max()) + 2)
    tails = (shares[:, :, None] * np.maximum(runs[:, :, None] + 1 - d, 0)).sum(axis=1)
    firsts = 1 + (tails * (1.0 - FLOOR_MARGIN) > 1.0 - quantile + FLOOR_MARGIN).sum(axis=1)
    means = 1.0 + (shares * runs * (runs + 1) / 2).sum(axis=1)
    return _in_seconds(shares.sum(axis=1) > 0.0, firsts, means, slot)


def _checkpoint_floors(
    chains: list[ChainModel],
    phi0: np.ndarray,
    starts: np.ndarray,
    sleep: _Powers,
    quantile: float,
    slot: float,
) -> list[DelayFloor | None]:
    """The full form of each floor, as `_coarse_floors` returns them, `sleep`
    the powers of the vacation matrix whose kept squarings carry it.

    Every cycle of every schedule is one row of the arrays below, schedule
    after schedule.  Its weights are boxes by backlog index i: a weight per
    slot over a run of delays, one slot long for a window slot.  Both ends
    of the boxes of index i rise with i.  So the last index whose weight and
    all above it exceed the percentile's bound holds the least d in its run
    of delays, where N(d) is counted slot by slot from the boxes that meet
    the run and the weight above it.

    Over J rows, S states, C cells per state, backlog indices below X and
    the longest window W, the largest arrays hold J x `_CHECKPOINTS` x
    (S + 1) x C cells (A(m) and G(m) of each segment) and J x (W +
    `_CHECKPOINTS`) x max(S, X) cells (the window rows and the boxes by
    index).  `_blocks` counts both.  A block of one, which it never splits,
    has J <= H cycles of at least W slots each; `build_chain` makes C = R
    and X = S + C - 1, so the evaluator's guard, H x S x R cells within
    `MODEL_CELL_LIMIT`, keeps them within 3(S + 1) / S and 4 times that
    limit.
    """
    size, states = phi0.shape
    delivered, backlog = chains[0].delivered, chains[0].backlog
    indices = int(backlog.max()) + 1
    vacations = [chain.slotted.vacations for chain in chains]
    counts = np.array([len(cycles) for cycles in vacations])
    owner = np.repeat(np.arange(size), counts)  # each row's schedule
    heads = np.cumsum(counts) - counts  # each schedule's first row
    cycle = np.arange(owner.size) - heads[owner]  # j
    windows = np.repeat([chain.slotted.sp_slots for chain in chains], counts)  # W
    runs = np.array([run for cycles in vacations for run in cycles])  # V
    lengths = windows + runs
    # a schedule that fails the slot-0 tests counts as all zeros below
    usable = _slot_0_passes(phi0, starts, counts)
    if not usable.all():
        starts = np.where(usable[:, None], starts, 0.0)
        phi0 = np.where(usable[:, None], phi0, 0.0)
    rows = np.empty((int(windows.max()) + 1, owner.size, states))
    rows[0] = starts[cycle - 1, owner]
    rows[0, heads] = phi0
    for w in range(rows.shape[0] - 1):  # phi_j sp^w
        np.matmul(rows[w], chains[0].sp_matrix, out=rows[w + 1])

    # checkpoints at 0, s, 2s, ... and V, s the least power of two >= V / I,
    # carried by the kept squaring vac^s of each s in turn
    bits = np.frexp(np.maximum((runs - 1) // _CHECKPOINTS, 0))[1]
    marks = np.minimum(np.arange(_CHECKPOINTS + 1) * (1 << bits)[:, None], runs[:, None])
    points = np.empty((owner.size, _CHECKPOINTS + 1, states))
    points[:, 0] = rows[windows, np.arange(owner.size)]  # psi
    for bit in set(bits.tolist()):
        alike = bits == bit
        for i in range(1, _CHECKPOINTS):
            points[alike, i] = points[alike, i - 1] @ sleep.square(bit)
    ends = starts[cycle, owner][:, None, :]  # phi_{j+1}
    points = np.where((marks == runs[:, None])[:, :, None], ends, points)
    rows[np.arange(rows.shape[0])[:, None] >= windows] = 0.0  # rows past each window

    # each box's weight per slot by backlog index: G(m) = max(w - A(m), 0)
    # of each segment and cell, w from its next checkpoint and A(m) the
    # running sum of this one's weight over the states k < m, its steps
    # G(m) - G(m + 1) summed by index; and each window slot's row
    spans = marks[:, 1:] - marks[:, :-1]
    gains = np.empty((owner.size, _CHECKPOINTS, delivered.shape[1], states + 1))
    gains[..., 0] = points[:, 1:] @ delivered  # w
    np.multiply(points[:, :-1, None, :], delivered.T, out=gains[..., 1:])
    np.cumsum(gains[..., 1:], axis=3, out=gains[..., 1:])  # A(m), m >= 1
    np.subtract(gains[..., :1], gains[..., 1:], out=gains[..., 1:])
    np.maximum(gains, 0.0, out=gains)
    at = np.arange(owner.size * _CHECKPOINTS)[:, None] * indices + backlog.T.ravel()
    segments = np.bincount(
        at.ravel(), (gains[..., :-1] - gains[..., 1:]).ravel(), at.shape[0] * indices
    ).reshape(owner.size, _CHECKPOINTS, indices)
    massed = segments * spans[:, :, None]
    at = np.arange(states)[:, None] * indices + backlog
    per_index = np.bincount(at.ravel(), delivered.ravel(), states * indices)
    window = np.matmul(rows[:-1], per_index.reshape(states, indices)).transpose(1, 0, 2)
    weights = points @ delivered.sum(axis=1)  # each checkpoint's delivered weight

    # e_j(i), the delay from cycle j's first slot at index i: the end of
    # service slot jW + i of its pattern (`_service_ends`, read at the
    # schedule's offset into the block's cycles), less the cycle's first
    # slot.  A window slot w waits e_j(i + w) - w, and a vacation slot r
    # slots before cycle j + 1 waits r + e_{j+1}(i): segment i of the
    # vacation holds r = V - t_{i+1} + 1 .. V - t_i.
    opens = np.cumsum(lengths) - lengths  # each cycle's first slot, in the block
    firsts = _service_ends(
        np.arange(indices + window.shape[1] - 1)[:, None] + cycle * windows, windows,
        counts[owner], np.add.reduceat(lengths, heads)[owner], opens, heads[owner],
    ).T - opens[:, None]
    # window slot w's delays; past a row's window, they weigh nothing
    shifts = np.arange(window.shape[1])[:, None]
    served = firsts[:, shifts + np.arange(indices)] - shifts
    waits = firsts[heads[owner] + (cycle + 1) % counts[owner], :indices]
    nearest = runs[:, None] - marks[:, 1:] + 1  # r of each segment's slot nearest its window

    # Z, and the bound on N(d) above which the percentile exceeds d
    windowed, vacationed = window.sum(axis=1), massed.sum(axis=1)
    delivering = windowed.sum(axis=1)
    # each vacation slot at most its checkpoint's weight, at least the next one's
    norms = np.add.reduceat(delivering + (spans * weights[:, :-1]).sum(axis=1), heads)
    proven = np.add.reduceat(delivering + (spans * weights[:, 1:]).sum(axis=1), heads) > 0.0
    norms = np.where(proven, norms, 1.0)
    bound = (1.0 - quantile + FLOOR_MARGIN) * norms / (1.0 - FLOOR_MARGIN)
    # sum over d >= 1 of N(d): each box's weight times its delays less one
    excess = np.add.reduceat(
        np.einsum("rwi,rwi->r", window, served) + np.einsum("ri,ri->r", vacationed, waits)
        + np.einsum("rki,rk->r", massed, nearest + (spans - 1) / 2)
        - delivering - vacationed.sum(axis=1),
        heads,
    )
    # each row's weight by index, the least and the greatest delay of its
    # boxes there; of each schedule, the weight of each index and all above it
    weight = windowed + vacationed
    earliest = np.minimum(served[:, 0], waits + 1)
    latest = np.maximum(served[np.arange(owner.size), windows - 1], waits + runs[:, None])
    above = np.cumsum(np.add.reduceat(weight, heads)[:, ::-1], axis=1)
    # the last index `top` where that exceeds the bound, its run of delays,
    # low .. high, and the rows' indices whose boxes meet the run
    top = indices - 1 - np.argmax(above > bound[:, None], axis=1)
    low = np.minimum.reduceat(earliest, heads)[np.arange(size), top] - 1
    high = np.maximum.reduceat(latest, heads)[np.arange(size), top]
    past = np.bincount(owner, (weight * (earliest > high[owner][:, None])).sum(axis=1), size)
    row, index = np.nonzero((earliest <= high[owner][:, None]) & (latest > low[owner][:, None]))
    whose = owner[row]
    starting = waits[row, index][:, None] + nearest[row]
    met = served[row, :, index]
    lows = np.concatenate([met, starting], axis=1)
    highs = np.concatenate([met, starting + spans[row] - 1], axis=1)
    dense = np.concatenate([window[row, :, index], segments[row, :, index]], axis=1)
    floor, ceiling = low[whose][:, None], high[whose][:, None]
    past += np.bincount(  # N(high)
        whose, (dense * np.maximum(highs - np.maximum(lows - 1, ceiling), 0)).sum(axis=1), size
    )
    # their slots in the run, from its top: delay high - p at bin p
    enter, leave = np.maximum(lows, floor + 1), np.minimum(highs, ceiling) + 1
    meets = enter < leave
    width = int((high - low).max()) + 1
    at = (whose * width)[:, None] + ceiling + 1
    changes = np.bincount(
        np.concatenate([np.where(meets, at - leave, 0), np.where(meets, at - enter, 0)]).ravel(),
        np.concatenate([dense * meets, -dense * meets]).ravel(),
        size * width,
    ).reshape(size, width)
    # N(d) for d = high - 1 - p, where it exceeds the bound
    counted = np.cumsum(np.cumsum(changes, axis=1), axis=1)
    over = (counted + past[:, None] > bound[:, None]) & (np.arange(width) < (high - low)[:, None])
    percentiles = np.where(over.any(axis=1), high - np.argmax(over, axis=1), 1)
    # each segment's weight above its floor, at most its span times the fall
    # of the delivered weight across it, and the mean r of its slots; each
    # round moves the mean's floor up towards the least the weights allow
    extra = np.maximum(spans * (weights[:, :-1] - weights[:, 1:]), 0.0)
    middle = nearest + (spans - 1) / 2
    means = excess / norms
    for _ in range(_MEAN_ROUNDS):
        moved = (extra * np.minimum(middle, means[owner][:, None])).sum(axis=1)
        means = (excess + np.add.reduceat(moved, heads)) / norms
    return _in_seconds(proven, percentiles, means + 1.0, slot)


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


def _blocks(chains: list[ChainModel]) -> Iterator[list[ChainModel]]:
    """Runs of consecutive chains whose stacked arrays stay within `MODEL_CELL_LIMIT` cells.

    The chains share one chain's matrices and delay layout: S states, C
    cells per state and backlog indices below X.  A block of B chains with
    J cycles in all, its longest hyperperiod H slots and its longest window
    W slots, counts B x max(S^2, H x S) cells for its solve and rows, and J
    x max(`_CHECKPOINTS` x (S + 1) x C, (W + `_CHECKPOINTS`) x max(S, X))
    for its full floor (`_checkpoint_floors`); a block of one is never
    split.
    """
    if not chains:
        return
    states, columns = chains[0].delivered.shape
    checkpoint_cells = _CHECKPOINTS * (states + 1) * columns  # per cycle
    window_cells = max(states, int(chains[0].backlog.max()) + 1)  # per cycle and slot
    block, longest, widest, cycles = [], 0, 0, 0
    for chain in chains:
        slotted = chain.slotted
        longest = max(longest, slotted.hyperperiod_slots)
        widest = max(widest, slotted.sp_slots)
        cycles += len(slotted.cycle_pattern)
        cells = max(
            (len(block) + 1) * states * max(states, longest),
            cycles * max(checkpoint_cells, (widest + _CHECKPOINTS) * window_cells),
        )
        if block and cells > MODEL_CELL_LIMIT:
            yield block
            block = []
            longest, widest = slotted.hyperperiod_slots, slotted.sp_slots
            cycles = len(slotted.cycle_pattern)
        block.append(chain)
    if block:
        yield block


@dataclass(eq=False)
class ScheduleEvaluator:
    """The model of one traffic mix, link and buffer, evaluated schedule by schedule.

    The batch law and the chain matrices are computed once, by the first
    schedule that passes the `MODEL_CELL_LIMIT` guard, and their powers
    (`_Powers`) are kept for every later block, so each distinct window and
    vacation length is multiplied out once per evaluator.  The chain's
    matrices and delay layout are made read-only there; each schedule's
    `ChainModel` is built directly around those shared arrays.  Each
    distinct schedule (`_schedule_key`) is solved once, alone or in a block
    of many on the cycle route, with the same floats, checks and errors
    either way; a repeat at another period reuses its delay PMF and overflow
    probability, or its error, and gets only its own `metrics`, because
    capacity depends on the period.

    Every spec is slotified with `allow_coarse`, set when the evaluator is
    built, as is `screen`, a test over `DelayFloor`s that a search may set.
    With a screen, the cycle route reads each schedule's floor off its
    slot-0 distribution (`_settle`: the coarse form, and the full one where
    the screen turns that down), where that distribution passes the
    balance, mass and sign checks at slot 0; a schedule whose floor the
    screen accepts (a proven miss) is settled there, with that floor, the
    proof, as its outcome: it gets no slot rows and no delay PMF.  The rest
    of each solved block goes through `_checked` and gets its delay PMF.
    A schedule is solved at most once, except that one settled by its floor
    is solved in full when asked for again once `screen` is set to None: a
    search's nearest misses reuse its chain, powers and outcomes.
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
    # powers of the chain's service and vacation matrices, shared by every
    # block and kept as made; the floors read the vacation's kept squarings
    _powers: tuple[_Powers, _Powers] | None = field(default=None, init=False, repr=False)
    # `_schedule_key` -> (pmf, overflow probability), a screened DelayFloor
    # or the ModelError; written once per key, a DelayFloor at most twice
    _solved: dict = field(default_factory=dict, init=False, repr=False)

    def reports(
        self, rtwts: list[RtwtSpec]
    ) -> list[MetricsReport | DelayFloor | ValueError | ModelError]:
        """Each spec's metrics report, floor or error, in spec order.

        Each spec is slotified once, and a `slotify` error is its outcome.
        The distinct schedules not solved before (or, without a screen, only
        floored) are solved in one `_solve`; a `DelayFloor` is the outcome
        of a schedule `screen` accepted.
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
            known = self._solved.get(key)
            if known is None or (self.screen is None and isinstance(known, DelayFloor)):
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
                chain = build_chain(slotted, self._batches)
                self._chain = ChainModel(slotted, *map(_read_only, _shared(chain)))
                self._powers = (
                    _Powers(self._chain.sp_matrix), _Powers(self._chain.vacation_matrix)
                )
            chains.append(ChainModel(slotted, *_shared(self._chain)))
        settle = None if self.screen is None else self._settle
        for block, rows in _solve_chains(chains, self.method, self._powers, settle):
            for chain, stat in zip(block, _checked(block, rows)):
                key = _schedule_key(chain.slotted)
                if isinstance(stat, ModelError):
                    self._solved[key] = stat
                else:
                    try:
                        self._solved[key] = (
                            delay_pmf(stat, self._batches, chain.slotted),
                            overflow_probability(stat, self._batches),
                        )
                    except ModelError as exc:
                        self._solved[key] = _detached(exc)

    def _settle(self, chains: list[ChainModel], phi0: np.ndarray, starts: np.ndarray) -> list[bool]:
        """Screen each schedule of a solved block by its coarse floor
        (`_coarse_floors`), and by its full one (`_checkpoint_floors`) where
        the screen turned the coarse one down, each floor once, and record
        each floor it accepts; True for each such schedule, which then gets
        no rows."""
        quantile, slot = self.quantile, self.traffic.slot_time
        floors = _coarse_floors(chains, phi0, starts, quantile, slot)
        settled = [floor is not None and self.screen(floor) for floor in floors]
        rest = [b for b, done in enumerate(settled) if not done]
        if rest:
            full = _checkpoint_floors(
                [chains[b] for b in rest], phi0[rest], starts[:, rest], self._powers[1],
                quantile, slot,
            )
            for b, floor in zip(rest, full):
                floors[b], settled[b] = floor, floor is not None and self.screen(floor)
        for chain, floor, done in zip(chains, floors, settled):
            if done:
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
