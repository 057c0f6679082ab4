"""Closed forms of the queue chain, independent of `rtwt_planner.model`.

With a retry limit of 1 and a service window of one slot, the chain's period
of T whole slots holds one service slot, so each cycle serves at most one
packet.  Let Y be the queue in the window slot, after that slot's arrival.
Under `build_chain`'s rules one packet leaves in that slot if the queue holds
one, and each of the T slots up to and including the next window slot adds
an arrival with probability p, so

    Y' = max(Y - 1, 0) + A,    A ~ Binomial(T, p),

the embedded chain of a discrete-time queue with one departure per cycle.
At rho = T p < 1 and an unbounded buffer its generating function is

    Y(z) = (1 - rho) (z - 1) A(z) / (z - A(z)),    A(z) = (1 - p + p z)^T,

and its mean is rho + T (T - 1) p^2 / (2 (1 - rho)).  It is a test oracle,
not package code.
"""

import math

import numpy as np


def binomial(trials, p):
    """P(A = k) for k = 0 .. trials, A ~ Binomial(trials, p)."""
    return np.array([math.comb(trials, k) * p**k * (1.0 - p) ** (trials - k)
                     for k in range(trials + 1)])


def one_slot_queue(cycle_slots, p, size):
    """P(Y = n) for n = 0 .. size - 1, Y the queue in a 1-slot window after
    its arrival, every cycle `cycle_slots` slots long and each slot adding
    an arrival with probability `p`.

    Y(z) by power-series division.  Dividing z - A(z) by z - 1 first leaves
    a_0 - sum over j >= 1 of P(A > j) z^j, so (1 - rho) A(z) divided by that
    gives y_n = ((1 - rho) a_n + sum over j = 1 .. n of P(A > j) y_{n - j})
    / a_0: every term is non-negative, and the division cancels nothing.
    """
    rho = cycle_slots * p
    if not rho < 1.0:
        raise ValueError(f"the queue has no stationary law at rho = {rho}")
    law = binomial(cycle_slots, p)
    arrivals = np.pad(law, (0, size))[:size]  # a_n
    above = np.pad(np.cumsum(law[::-1])[::-1][1:], (0, size))[:size]  # P(A > n)
    queue = np.zeros(size)
    for n in range(size):
        queue[n] = ((1.0 - rho) * arrivals[n] + above[1 : n + 1] @ queue[n - 1 :: -1][:n]) / law[0]
    return queue


def one_slot_mean(cycle_slots, p):
    """E[Y] of `one_slot_queue`'s law."""
    rho = cycle_slots * p
    return rho + cycle_slots * (cycle_slots - 1) * p * p / (2.0 * (1.0 - rho))
