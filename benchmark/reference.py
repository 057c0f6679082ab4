"""Fixed reference work, timed beside the samples of a workload to scale them.

The cores of the benchmark machine run up to twice as slow for seconds to
minutes while its neighbours are busy.  Calls and a reference work of the
same kind slow down together, so their ratio holds steady where wall time
does not.  A scaled timing is the wall time times the reference's nominal
time over its time measured beside the sample: seconds on a core as fast as
an idle core of the 2-core machine the benchmark was tuned on.

Two kinds of work have a reference: interpreter-bound calls in this process
(`interpreter_s`), and fresh interpreters that spend their time starting up
and importing (`process_s`).  The reference never calls the planner, so a
change to the planner moves the timings and not the reference.
"""

import statistics
import subprocess
import sys
import time

INTERPRETER_S = 0.005
INTERPRETER_RUNS = 3
PROCESS_S = 0.15
# Standard-library modules only, so the work does not depend on which
# third-party packages are installed.
PROCESS_IMPORTS = (
    "import argparse, asyncio, csv, dataclasses, decimal, difflib, email.mime.multipart, "
    "fractions, http.client, inspect, json, logging, pydoc, sqlite3, statistics, tarfile, "
    "typing, unittest, xml.etree.ElementTree, zipfile"
)


def _work() -> int:
    table: dict[int, int] = {}
    items = []
    total = 0
    for i in range(20_000):
        key = (i * 7919) % 1009
        table[key] = table.get(key, 0) + i
        items.append(i * 0.5)
        total += i * i % 7
    items.sort(reverse=True)
    return total + len(table) + int(sum(items))


def interpreter_s() -> float:
    """Time of fixed pure-Python work in this process: the median of a few runs."""
    times = []
    for _ in range(INTERPRETER_RUNS):
        start = time.perf_counter()
        _work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def process_s() -> float:
    """Wall time of a fresh interpreter that imports PROCESS_IMPORTS and exits."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", PROCESS_IMPORTS], capture_output=True, check=True,
                   timeout=60)
    return time.perf_counter() - start
