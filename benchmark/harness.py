"""Shared pieces of the benchmark: checkout layout, statistics, spans, ledger.

Nothing here imports the planner package, so the set-up time of a run can
be measured from a process that has loaded only the benchmark itself.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from importlib import metadata
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
PACKAGE = SRC / "rtwt_planner"
RESULTS_DIR = ROOT / ".bench_results"
WORK_DIR = ROOT / ".bench_work"

# Percentiles tried, highest first, for the tail figure stored beside each
# median: the first one with at least TAIL_BEYOND samples above it is kept.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10


class CheckoutError(RuntimeError):
    """The working directory holds no planner sources to benchmark."""


def use_checkout_sources() -> None:
    """Make `import rtwt_planner` load the sources of this checkout only."""
    if not (PACKAGE / "__init__.py").is_file():
        raise CheckoutError(
            f"no planner sources at {PACKAGE}; run the benchmark from the repository root"
        )
    sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for fresh interpreters that must see this checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def tail(values: list[float]) -> tuple[float | None, float | None]:
    """Highest listed percentile with TAIL_BEYOND samples beyond it (nearest rank)."""
    n = len(values)
    for pct in TAIL_PERCENTILES:
        if n * (100.0 - pct) / 100.0 >= TAIL_BEYOND:
            rank = math.ceil(pct / 100.0 * n)
            return pct, sorted(values)[rank - 1]
    return None, None


def summary(values: list[float]) -> dict:
    pct, value = tail(values)
    return {
        "median": statistics.median(values) if values else None,
        "tail_percentile": pct,
        "tail": value,
        "samples": len(values),
    }


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def peak_rss_mb(children: bool = False) -> float:
    """Highest resident set size so far, of this process or of its reaped children."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


class Tracer:
    """Spans kept in memory as [name, start, end, parent index]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def durations(self) -> dict[str, list[float]]:
        out = defaultdict(list)
        for name, start, end, _ in self.spans:
            out[name].append(end - start)
        return out

    def self_times(self) -> dict[str, list[float]]:
        """Span duration minus the time its children cover.

        Children of one span run one after another on one thread, so the
        time they cover is the sum of their durations.
        """
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = defaultdict(list)
        for (name, start, end, _), child in zip(self.spans, covered):
            out[name].append(end - start - child)
        return out


class Ledger:
    """Operations of one run: timings by kind, output digests, failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: list[dict] = []
        self.calls: dict[str, list[float]] = defaultdict(list)
        self.passes: dict[str, list[float]] = defaultdict(list)

    def record(self, kind: str, seconds: float | None, output: bytes | None,
               problem: str | None = None) -> None:
        """One attempted operation; `problem` set means it failed."""
        self.attempted += 1
        if seconds is not None:
            self.calls[kind].append(seconds)
        if output is not None:
            self.digests.append({"op": kind, "n": self.attempted, "sha256": sha256(output)})
        if problem is not None:
            self.failures.append(f"{kind} #{self.attempted}: {problem}")

    @property
    def failed(self) -> int:
        return len(self.failures)


def describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


@contextmanager
def captured_stdout():
    """Collect what code writes to sys.stdout or sys.stdout.buffer, as bytes."""
    buffer = io.BytesIO()
    wrapper = io.TextIOWrapper(buffer, encoding="utf-8")
    saved = sys.stdout
    sys.stdout = wrapper
    try:
        yield buffer
    finally:
        wrapper.flush()
        sys.stdout = saved
        wrapper.detach()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    """SHA-256 over the package sources, which names the code when git cannot."""
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def environment() -> dict:
    versions = {}
    for dist in ("numpy", "scipy", "jsonschema", "PyYAML"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "python": platform.python_version(),
        **versions,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
    }
