"""YAML run configuration: strict schema, mandatory units on every time.

Time-valued fields are strings with an explicit unit suffix ("10 ms",
"114.4 us", "0.0164 s"); bare numbers are rejected so a config never
silently changes meaning.  Keys are nested sections (`rtwt:` then
`period:`); a run is one flat table of leaves by dotted path
(`rtwt.period`) from the YAML and the `--set` overrides to `RunConfig`.
Unknown, missing, dotted and repeated YAML keys are all errors, reported
by dotted path.
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


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    return float(value)


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _string(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string, got {value!r}")
    return value


# Every leaf by dotted path: (parser, default), in emitted order.  Defaults
# mirror the bundled example workload: one 62.5 pkt/s flow on a link that
# corrupts 10% of attempts, three retries, 114.4 us per attempt, served 3
# slots in every 10 ms window, 20-packet buffer.
_KEYS: dict[str, tuple] = {
    "traffic.interarrival": (parse_time, "16 ms"),
    "traffic.slot_time": (parse_time, "114.4 us"),
    "link.error_prob": (_number, 0.1),
    "link.retry_limit": (_integer, 3),
    "rtwt.period": (parse_time, "10 ms"),
    "rtwt.sp_slots": (_integer, 3),
    "buffer_packets": (_integer, 20),
    "percentile_q": (_number, 0.999),
    "sim.seed": (_integer, 12345),
    "sim.warmup_packets": (_integer, 10000),
    "sim.measured_packets": (_integer, 1000000),
    "sim.max_sim_time": (parse_time, "100000 s"),
    "sim.runs": (_integer, 1),
    "constraint.indicator": (_string, "percentile"),
    "constraint.target": (parse_time, "6 ms"),
    "grid.period_min": (parse_time, "0.5 ms"),
    "grid.period_max": (parse_time, "16 ms"),
    "grid.period_step": (parse_time, "0.1 ms"),
    "grid.sp_slots_min": (_integer, 1),
    "grid.sp_slots_max": (_integer, 5),
}


_REPEATED = object()  # the value of a key written twice in one YAML mapping


class _Loader(yaml.SafeLoader):
    """SafeLoader that marks a repeated mapping key instead of keeping its last value."""

    def construct_mapping(self, node, deep=False):
        mapping = super().construct_mapping(node, deep)
        keys = [self.construct_object(key, deep) for key, _ in node.value]
        mapping.update((key, _REPEATED) for key in keys if keys.count(key) > 1)
        return mapping


def _flatten(tree: dict, prefix: str = "") -> dict[str, object]:
    """Dotted path -> leaf of a YAML tree whose keys are nested sections."""
    flat: dict[str, object] = {}
    for key, value in tree.items():
        path = f"{prefix}{key}"
        if "." in str(key):
            raise ConfigError(f"dotted config key: {path}; nest it under its section")
        if value is _REPEATED:
            raise ConfigError(f"config key written twice: {path}")
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{path}."))
        else:
            flat[path] = value
    return flat


def _spec(flat: dict, section: str, make, **fields):
    """`make` from the fields of `section` in `flat`, a rejected value named by its section."""
    prefix = f"{section}."
    fields.update((path[len(prefix):], value) for path, value in flat.items()
                  if path.startswith(prefix))
    try:
        return make(**fields)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from None


def _build(flat: dict) -> RunConfig:
    """RunConfig from parsed leaves; section keys name the spec fields."""
    interarrival = flat.pop("traffic.interarrival")
    if interarrival <= 0:
        raise ConfigError("traffic.interarrival: must be > 0")
    percentile_q = flat["percentile_q"]
    if not 0.0 < percentile_q < 1.0:
        raise ConfigError(f"percentile_q: quantile must be in (0, 1), got {percentile_q}")
    buffer_packets = flat["buffer_packets"]
    if buffer_packets < 1:
        raise ConfigError(f"buffer_packets: must be >= 1, got {buffer_packets}")
    sim_runs = flat.pop("sim.runs")
    if sim_runs < 1:
        raise ConfigError(f"sim.runs: must be >= 1, got {sim_runs}")
    return RunConfig(
        traffic=_spec(flat, "traffic", TrafficSpec, rate=1.0 / interarrival),
        link=_spec(flat, "link", LinkSpec),
        rtwt=_spec(flat, "rtwt", RtwtSpec),
        buffer_packets=buffer_packets, percentile_q=percentile_q,
        sim=_spec(flat, "sim", SimConfig), sim_runs=sim_runs,
        constraint=_spec(flat, "constraint", QosConstraint, quantile=percentile_q),
        grid=_spec(flat, "grid", SearchGrid),
    )


def _override_value(path: str, raw: str):
    """Type a --set VALUE string like its key's default; its parser checks it."""
    default = _KEYS[path][1]
    if isinstance(default, str):
        return raw  # time and string leaves parse the text itself
    kind, label = (int, "an integer") if isinstance(default, int) else (float, "a number")
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"{path}: cannot parse {raw!r} as {label}") from None


def load_config(text: str | None, overrides: list[str] | None = None) -> RunConfig:
    """Build a RunConfig from YAML text plus KEY=VALUE override strings.

    With text=None the defaults stand alone; partial YAML is an error
    (every key is explicit so runs are reproducible from the file), but
    overrides patch individual leaves.
    """
    try:
        tree = yaml.load(text, Loader=_Loader) if text else None
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML: {exc}") from None
    if tree is None:
        flat = {path: default for path, (_, default) in _KEYS.items()}
    elif isinstance(tree, dict):
        flat = _flatten(tree)
    else:
        raise ConfigError(f"top level must be a mapping, got {type(tree).__name__}")
    for item in overrides or []:
        key, sep, raw = item.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        if key not in _KEYS:
            raise ConfigError(f"unknown config key: {key}")
        flat[key] = _override_value(key, raw.strip())
    unknown = sorted(set(flat) - set(_KEYS))
    if unknown:
        raise ConfigError(f"unknown config key: {unknown[0]}")
    missing = sorted(set(_KEYS) - set(flat))
    if missing:
        raise ConfigError(f"missing config key: {missing[0]}")
    return _build({path: parse(flat[path], path) for path, (parse, _) in _KEYS.items()})


def default_yaml() -> str:
    """The full default config as YAML text, ready to edit and rerun."""
    tree: dict = {}
    for path, (_, default) in _KEYS.items():
        section, _, leaf = path.rpartition(".")
        (tree.setdefault(section, {}) if section else tree)[leaf] = default
    return yaml.safe_dump(tree, sort_keys=False, default_flow_style=False)
