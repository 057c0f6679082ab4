"""The array simulator against the packet-by-packet loop it must reproduce.

`sim_oracle.simulate` is the plain per-packet event loop.  For every case the
package's `simulate` must give the same delay samples bit for bit, the same
report and the same trace file bytes.
"""

import ast
import csv
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtwt_planner import LinkSpec, RtwtSpec, SimConfig, SimTimeLimitError, TrafficSpec, simulate
from rtwt_planner import simulator

import sim_oracle

SLOT = 114.4e-6
LINK = LinkSpec(error_prob=0.1, retry_limit=3)


def traffic(interarrival):
    return TrafficSpec(rate=1.0 / interarrival, slot_time=SLOT)


def sim(seed=7, warmup=200, measured=5_000, **kw):
    return SimConfig(seed=seed, warmup_packets=warmup, measured_packets=measured, **kw)


# name -> (traffic, link, schedule, buffer, run)
CASES = {
    "light": (traffic(16e-3), LINK, RtwtSpec(10e-3, 3), 20, sim()),
    "overload": (traffic(5e-3), LINK, RtwtSpec(10e-3, 1), 20, sim()),
    # load 0.7 on one slot per period: busy periods of dozens of packets
    "long_busy_periods": (traffic(16e-3), LINK, RtwtSpec(10e-3, 1), 20, sim(measured=20_000)),
    "off_grid_073ms": (traffic(16e-3), LINK, RtwtSpec(0.73e-3, 2), 20, sim()),
    # each window's end is the next one's start: markers and packet events tie
    "window_fills_period": (traffic(16e-3), LINK, RtwtSpec(3 * SLOT, 3), 20, sim(measured=1_000)),
    "error_free": (traffic(16e-3), LinkSpec(0.0, 3), RtwtSpec(10e-3, 3), 20, sim()),
    "never_delivers": (
        traffic(16e-3), LinkSpec(1.0, 2), RtwtSpec(10e-3, 3), 20, sim(max_sim_time=30.0),
    ),
    "one_packet_buffer": (traffic(16e-3), LINK, RtwtSpec(10e-3, 3), 1, sim()),
    # the FIFO keeps the packets in the system, not the buffer's worth of leave times
    "huge_buffer": (traffic(16e-3), LINK, RtwtSpec(10e-3, 3), 10**6, sim()),
    # the warm-up ends past the oracle's first chunk, several blocks in
    "warmup_crosses_blocks": (
        traffic(16e-3), LINK, RtwtSpec(10e-3, 3), 20,
        sim(warmup=sim_oracle.CHUNK + 50, measured=500),
    ),
    "target_mid_block": (traffic(16e-3), LINK, RtwtSpec(10e-3, 3), 20, sim(warmup=0, measured=300)),
    # the cap falls inside the first block
    "time_cap": (traffic(5e-3), LinkSpec(1.0, 3), RtwtSpec(10e-3, 1), 20, sim(max_sim_time=7.5)),
}


def report_text(report):
    """The report as exact text: json writes each float's repr, NaN included."""
    return json.dumps(report.to_dict(), sort_keys=True)


# input tuple -> the oracle's (samples, report text, trace bytes).  The loop
# reads nothing the tests patch (see `test_oracle_reads_nothing_the_tests_patch`),
# so each distinct input runs it once per session.
_ORACLE_RUNS = {}


def oracle_run(args, tmp_path):
    if args not in _ORACLE_RUNS:
        loop = sim_oracle.simulate(*args, trace_path=tmp_path / "loop.csv")
        trace = (tmp_path / "loop.csv").read_bytes()
        _ORACLE_RUNS[args] = (loop.samples, report_text(loop), trace)
    return _ORACLE_RUNS[args]


def assert_same_run(args, tmp_path):
    args = (*args[:-1], dataclasses.replace(args[-1], keep_samples=True))
    ours = simulate(*args, trace_path=tmp_path / "array.csv")
    samples, text, trace = oracle_run(args, tmp_path)
    assert np.array_equal(ours.samples, samples)
    assert report_text(ours) == text
    assert (tmp_path / "array.csv").read_bytes() == trace
    return ours


def test_oracle_reads_nothing_the_tests_patch():
    tree = ast.parse(Path(sim_oracle.__file__).read_text())
    private = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "rtwt_planner.simulator"
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert not private
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    patched = {"simulator", "_BLOCK", "_WORK", "_BACKOFF", "_settle", "_stepper", "_Fifo"}
    assert not names & patched


@pytest.mark.parametrize("name", CASES)
def test_matches_packet_loop(name, tmp_path):
    report = assert_same_run(CASES[name], tmp_path)
    assert report.offered > 0


# The oracle draws in fixed chunks; the package draws each block's packets
# alone, so other block sizes cut the streams at other points.
@pytest.mark.parametrize("name,block", [
    *((name, block) for name in ("light", "overload", "one_packet_buffer", "warmup_crosses_blocks")
      for block in (97, 1000)),
    ("light", 3),  # blocks start inside busy chains and inside the warm-up
    ("time_cap", 1),  # the block after the last packet before the cap serves no packet
])
def test_block_size_keeps_the_result(name, block, monkeypatch, tmp_path):
    monkeypatch.setattr(simulator, "_BLOCK", block)
    assert_same_run(CASES[name], tmp_path)


def spawned_streams(seed):
    """The arrival and channel generators, spawned as `simulate` spawns them."""
    return [np.random.Generator(np.random.PCG64(seq))
            for seq in np.random.SeedSequence(seed).spawn(2)]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**63),
    mean_gap=st.floats(1e-6, 10.0),
    cuts=st.lists(st.integers(0, 3_000), max_size=8),
)
def test_split_draws_equal_one_draw(seed, mean_gap, cuts):
    total = 3_000
    arrival, channel = spawned_streams(seed)
    gaps, u = arrival.exponential(mean_gap, total), channel.random(total)
    arrival, channel = spawned_streams(seed)
    sizes = np.diff([0, *sorted(cuts), total])
    assert np.array_equal(np.concatenate([arrival.exponential(mean_gap, n) for n in sizes]), gaps)
    assert np.array_equal(np.concatenate([channel.random(n) for n in sizes]), u)


def test_time_cap_at_the_last_delivery(tmp_path):
    """A cap on the last delivered packet's arrival still completes the run;
    one ulp below it, that packet is never offered."""
    args = CASES["light"]
    simulate(*args, trace_path=tmp_path / "trace.csv")
    with open(tmp_path / "trace.csv", newline="") as handle:
        last = max(float(row["time_s"]) for row in csv.DictReader(handle)
                   if row["event"] == "arrival")
    uncapped = report_text(simulate(*args))
    for run in (simulate, sim_oracle.simulate):
        at = (*args[:-1], dataclasses.replace(args[-1], max_sim_time=last))
        assert report_text(run(*at)) == uncapped
        below = (*args[:-1], dataclasses.replace(args[-1], max_sim_time=math.nextafter(last, 0.0)))
        with pytest.raises(SimTimeLimitError, match="time cap"):
            run(*below)


def test_cases_reach_the_paths_they_name(tmp_path):
    assert simulate(*CASES["overload"]).lost_overflow > 0
    assert simulate(*CASES["one_packet_buffer"]).lost_overflow > 0
    assert simulate(*CASES["never_delivers"]).delivered == 0
    assert simulate(*CASES["target_mid_block"]).delivered == 300


# Tiny blocks, work budgets and back-offs force every hand-over between the
# arrays and the stepper within a few thousand packets; `_WORK = 0` hands over
# at the first packet that waits.  Counting wrappers check that both happen.
@pytest.mark.parametrize("block,work,backoff", [(7, 0, 1), (8, 1, 2), (1000, 0, 1), (16, 1, 64)])
@pytest.mark.parametrize("name", ["light", "overload", "long_busy_periods", "one_packet_buffer"])
def test_hand_overs_keep_the_result(name, block, work, backoff, monkeypatch, tmp_path):
    monkeypatch.setattr(simulator, "_BLOCK", block)
    monkeypatch.setattr(simulator, "_WORK", work)
    monkeypatch.setattr(simulator, "_BACKOFF", backoff)
    seen = {"hand_over": 0, "stepper": 0}
    settle, stepper = simulator._settle, simulator._stepper

    def counted_settle(completion, arrivals, *args):
        leave, exact = settle(completion, arrivals, *args)
        seen["hand_over"] += exact < arrivals.size
        return leave, exact

    def counted_stepper(*args):
        step = stepper(*args)

        def counted_step(*step_args):
            seen["stepper"] += 1
            return step(*step_args)

        return counted_step

    monkeypatch.setattr(simulator, "_settle", counted_settle)
    monkeypatch.setattr(simulator, "_stepper", counted_stepper)
    traffic_, link, rtwt, buffer_packets, cfg = CASES[name]
    short = SimConfig(seed=cfg.seed, warmup_packets=100, measured_packets=2_000)
    assert_same_run((traffic_, link, rtwt, buffer_packets, short), tmp_path)
    assert seen["hand_over"] > 0 and seen["stepper"] > 0, seen


@pytest.mark.parametrize("name", ["light", "long_busy_periods", "overload"])
def test_fifo_keeps_only_the_packets_in_the_system(name, monkeypatch):
    serve = simulator._Fifo.serve
    held = []

    def checked_serve(self, arrivals, attempts):
        leave = serve(self, arrivals, attempts)
        assert all(t > arrivals[-1] for t in self.in_flight)
        assert len(self.in_flight) <= self.buffer_packets
        held.append(len(self.in_flight))
        return leave

    monkeypatch.setattr(simulator._Fifo, "serve", checked_serve)
    simulate(*CASES[name])
    assert held, "serve never ran"


# On a lossy overload schedule about half the packets are delivered.  Sized by
# the missing deliveries alone, the last blocks shrank geometrically: 22 (K=1)
# and 16 (K=20) blocks for what the delivery share so far serves in 4.
@pytest.mark.parametrize("buffer_packets", [1, 20])
def test_last_blocks_are_sized_by_the_delivery_share(buffer_packets, monkeypatch, tmp_path):
    serve = simulator._Fifo.serve
    calls = []

    def counted_serve(self, *args):
        calls.append(args[0].size)
        return serve(self, *args)

    monkeypatch.setattr(simulator._Fifo, "serve", counted_serve)
    traffic_, link, rtwt, _, _ = CASES["overload"]
    report = assert_same_run((traffic_, link, rtwt, buffer_packets, sim(measured=20_000)), tmp_path)
    assert report.lost_overflow > 0 and report.delivered < report.offered / 2
    assert len(calls) == 4, calls


# A run that cannot deliver ends at the time cap.  Sized by the missing
# deliveries alone, its blocks held `measured_packets` packets each: 1,847
# blocks to reach a 300 s cap, where full blocks take 3.
def test_blocks_without_a_delivery_are_full(monkeypatch, tmp_path):
    serve = simulator._Fifo.serve
    calls = []

    def counted_serve(self, *args):
        calls.append(args[0].size)
        return serve(self, *args)

    monkeypatch.setattr(simulator._Fifo, "serve", counted_serve)
    traffic_, link, rtwt, buffer_packets, _ = CASES["never_delivers"]
    cfg = sim(warmup=0, measured=10, max_sim_time=300.0)
    report = assert_same_run((traffic_, link, rtwt, buffer_packets, cfg), tmp_path)
    assert report.delivered == 0 and report.offered > simulator._BLOCK
    assert calls[:2] == [10, simulator._BLOCK] and len(calls) == 3, calls


def test_time_cap_raises_like_the_loop():
    args = (traffic(16e-3), LINK, RtwtSpec(10e-3, 3), 20, sim(max_sim_time=20.0))
    with pytest.raises(SimTimeLimitError, match="time cap"):
        sim_oracle.simulate(*args)
    with pytest.raises(SimTimeLimitError, match="time cap"):
        simulate(*args)
