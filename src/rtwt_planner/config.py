"""YAML run configuration: strict schema, mandatory units on every time.

Time-valued fields are strings with an explicit unit suffix ("10 ms",
"114.4 us", "0.0164 s"); bare numbers are rejected so a config never
silently changes meaning.  Unknown and missing keys are both errors,
reported by dotted path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import yaml

from .optimizer import QosConstraint, SearchGrid
from .params import LinkSpec, RtwtSpec, TrafficSpec
from .simulator import SimConfig

TIME_UNITS = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "µs": 1e-6}


class ConfigError(ValueError):
    """Invalid run configuration."""


def parse_time(text, path: str) -> float:
    """Convert '10 ms' / '6ms' / '114.4 us' to seconds; unit is mandatory."""
    if isinstance(text, (int, float)) and not isinstance(text, bool):
        raise ConfigError(
            f"{path}: time values need an explicit unit, e.g. '{text} ms'; got bare number {text!r}"
        )
    if not isinstance(text, str):
        raise ConfigError(f"{path}: expected a time string like '10 ms', got {text!r}")
    stripped = text.strip()
    for unit in sorted(TIME_UNITS, key=len, reverse=True):
        if stripped.endswith(unit):
            number = stripped[: -len(unit)].strip()
            try:
                value = float(number)
            except ValueError:
                raise ConfigError(f"{path}: cannot parse time value {text!r}") from None
            if not math.isfinite(value) or value < 0:
                raise ConfigError(f"{path}: time must be finite and >= 0, got {text!r}")
            return value * TIME_UNITS[unit]
    raise ConfigError(
        f"{path}: missing time unit in {text!r}; use one of {sorted(set(TIME_UNITS))}"
    )


def format_time(seconds: float) -> str:
    """Render seconds for emitted templates; exact round-trip via repr."""
    return f"{seconds!r} s"


@dataclass(frozen=True)
class RunConfig:
    """Everything a CLI run needs, resolved to SI units."""

    traffic: TrafficSpec
    link: LinkSpec
    rtwt: RtwtSpec
    buffer_packets: int
    percentile_q: float
    sim: SimConfig
    sim_runs: int
    constraint: QosConstraint
    grid: SearchGrid


# Defaults mirror the bundled example workload: one 62.5 pkt/s flow on a
# link that corrupts 10% of attempts, three retries, 114.4 us per attempt,
# served 3 slots in every 10 ms window, 20-packet buffer.
DEFAULT_CONFIG: dict = {
    "traffic": {
        "interarrival": "16 ms",
        "slot_time": "114.4 us",
    },
    "link": {
        "error_prob": 0.1,
        "retry_limit": 3,
    },
    "rtwt": {
        "period": "10 ms",
        "sp_slots": 3,
    },
    "buffer_packets": 20,
    "percentile_q": 0.999,
    "sim": {
        "seed": 12345,
        "warmup_packets": 10000,
        "measured_packets": 1000000,
        "max_sim_time": "100000 s",
        "runs": 1,
    },
    "constraint": {
        "indicator": "percentile",
        "target": "6 ms",
    },
    "grid": {
        "period_min": "0.5 ms",
        "period_max": "16 ms",
        "period_step": "0.1 ms",
        "sp_slots_min": 1,
        "sp_slots_max": 5,
    },
}

# Leaf parsers keyed by dotted path: (kind, required_type_label).
_TIME = "time"
_FLOAT = "float"
_INT = "int"
_STR = "str"

_SCHEMA: dict[str, str] = {
    "traffic.interarrival": _TIME,
    "traffic.slot_time": _TIME,
    "link.error_prob": _FLOAT,
    "link.retry_limit": _INT,
    "rtwt.period": _TIME,
    "rtwt.sp_slots": _INT,
    "buffer_packets": _INT,
    "percentile_q": _FLOAT,
    "sim.seed": _INT,
    "sim.warmup_packets": _INT,
    "sim.measured_packets": _INT,
    "sim.max_sim_time": _TIME,
    "sim.runs": _INT,
    "constraint.indicator": _STR,
    "constraint.target": _TIME,
    "grid.period_min": _TIME,
    "grid.period_max": _TIME,
    "grid.period_step": _TIME,
    "grid.sp_slots_min": _INT,
    "grid.sp_slots_max": _INT,
}


def _flatten(tree: dict, prefix: str = "") -> dict[str, object]:
    flat: dict[str, object] = {}
    for key, value in tree.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{path}."))
        else:
            flat[path] = value
    return flat


def _parse_leaf(kind: str, value, path: str):
    if kind == _TIME:
        return parse_time(value, path)
    if kind == _FLOAT:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number, got {value!r}")
        return float(value)
    if kind == _INT:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        return value
    if kind == _STR:
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string, got {value!r}")
        return value
    raise AssertionError(kind)


def _validate_tree(tree: dict) -> dict[str, object]:
    """Flatten, check against the schema, parse leaves to SI values."""
    if not isinstance(tree, dict):
        raise ConfigError(f"top level must be a mapping, got {type(tree).__name__}")
    flat = _flatten(tree)
    unknown = sorted(set(flat) - set(_SCHEMA))
    if unknown:
        raise ConfigError(f"unknown config key: {unknown[0]}")
    missing = sorted(set(_SCHEMA) - set(flat))
    if missing:
        raise ConfigError(f"missing config key: {missing[0]}")
    return {path: _parse_leaf(_SCHEMA[path], flat[path], path) for path in _SCHEMA}


def _build(values: dict[str, object]) -> RunConfig:
    interarrival = values["traffic.interarrival"]
    if interarrival <= 0:
        raise ConfigError("traffic.interarrival: must be > 0")
    try:
        traffic = TrafficSpec(rate=1.0 / interarrival, slot_time=values["traffic.slot_time"])
        link = LinkSpec(
            error_prob=values["link.error_prob"], retry_limit=values["link.retry_limit"]
        )
        rtwt = RtwtSpec(period=values["rtwt.period"], sp_slots=values["rtwt.sp_slots"])
        sim = SimConfig(
            seed=values["sim.seed"],
            warmup_packets=values["sim.warmup_packets"],
            measured_packets=values["sim.measured_packets"],
            max_sim_time=values["sim.max_sim_time"],
        )
        constraint = QosConstraint(
            indicator=values["constraint.indicator"],
            target=values["constraint.target"],
            quantile=values["percentile_q"],
        )
        grid = SearchGrid(
            period_min=values["grid.period_min"],
            period_max=values["grid.period_max"],
            period_step=values["grid.period_step"],
            sp_slots_min=values["grid.sp_slots_min"],
            sp_slots_max=values["grid.sp_slots_max"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    buffer_packets = values["buffer_packets"]
    if buffer_packets < 1:
        raise ConfigError(f"buffer_packets: must be >= 1, got {buffer_packets}")
    percentile_q = values["percentile_q"]
    if not 0.0 < percentile_q < 1.0:
        raise ConfigError(f"percentile_q: must be in (0, 1), got {percentile_q}")
    sim_runs = values["sim.runs"]
    if sim_runs < 1:
        raise ConfigError(f"sim.runs: must be >= 1, got {sim_runs}")
    return RunConfig(
        traffic=traffic, link=link, rtwt=rtwt,
        buffer_packets=buffer_packets, percentile_q=percentile_q,
        sim=sim, sim_runs=sim_runs, constraint=constraint, grid=grid,
    )


def _coerce_override(kind: str, raw: str, path: str):
    """Parse a --set VALUE string with the same typing as the YAML leaf."""
    if kind == _TIME:
        return raw  # parse_time handles the string form directly
    if kind == _FLOAT:
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{path}: cannot parse {raw!r} as a number") from None
    if kind == _INT:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{path}: cannot parse {raw!r} as an integer") from None
    if kind == _STR:
        return raw
    raise AssertionError(kind)


def _tree_with(tree, path: str, value) -> dict:
    """Functional nested-dict update along a dotted path."""
    if not isinstance(tree, dict):
        tree = {}
    head, _, rest = path.partition(".")
    copy = dict(tree)
    copy[head] = _tree_with(tree.get(head, {}), rest, value) if rest else value
    return copy


def load_config(text: str | None, overrides: list[str] | None = None) -> RunConfig:
    """Build a RunConfig from YAML text plus KEY=VALUE override strings.

    With text=None the defaults stand alone; partial YAML is an error
    (every key is explicit so runs are reproducible from the file), but
    overrides patch individual leaves.
    """
    if text is None:
        tree = DEFAULT_CONFIG
    else:
        try:
            tree = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigError(f"invalid YAML: {exc}") from None
        if tree is None:
            tree = DEFAULT_CONFIG
    for item in overrides or []:
        key, sep, raw = item.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        if key not in _SCHEMA:
            raise ConfigError(f"unknown config key: {key}")
        tree = _tree_with(tree, key, _coerce_override(_SCHEMA[key], raw.strip(), key))
    return _build(_validate_tree(tree))


def default_yaml() -> str:
    """The full default config as YAML text, ready to edit and rerun."""
    return yaml.safe_dump(DEFAULT_CONFIG, sort_keys=False, default_flow_style=False)
