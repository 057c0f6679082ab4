"""Config parsing: units, schema enforcement, overrides, round-trip."""

import inspect
from pathlib import Path

import pytest
import yaml

from rtwt_planner import (
    ConfigError,
    QosConstraint,
    SearchGrid,
    SimConfig,
    default_yaml,
    evaluate,
    load_config,
    simulate,
)
from rtwt_planner.config import parse_time
from rtwt_planner.params import slotify


README = Path(__file__).resolve().parents[1] / "README.md"


def flatten(tree, prefix=""):
    """Dotted path -> leaf of a nested config tree."""
    flat = {}
    for key, value in tree.items():
        if isinstance(value, dict):
            flat.update(flatten(value, f"{prefix}{key}."))
        else:
            flat[f"{prefix}{key}"] = value
    return flat


# every key of the emitted default tree with its default leaf
DEFAULTS = flatten(yaml.safe_load(default_yaml()))

# a valid value other than the default for every key
NON_DEFAULTS = {
    "traffic.interarrival": "20 ms",
    "traffic.slot_time": "100 us",
    "link.error_prob": 0.2,
    "link.retry_limit": 4,
    "rtwt.period": "6 ms",
    "rtwt.sp_slots": 2,
    "buffer_packets": 7,
    "percentile_q": 0.99,
    "sim.seed": 7,
    "sim.warmup_packets": 500,
    "sim.measured_packets": 2000,
    "sim.max_sim_time": "50 s",
    "sim.runs": 3,
    "constraint.indicator": "jitter",
    "constraint.target": "8 ms",
    "grid.period_min": "1 ms",
    "grid.period_max": "12 ms",
    "grid.period_step": "0.5 ms",
    "grid.sp_slots_min": 2,
    "grid.sp_slots_max": 4,
}


def yaml_with(path, value):
    """The default YAML text with one leaf, named by dotted path, replaced."""
    tree = yaml.safe_load(default_yaml())
    section, _, leaf = path.rpartition(".")
    (tree[section] if section else tree)[leaf] = value
    return yaml.safe_dump(tree, sort_keys=False)


class TestParseTime:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("16 ms", 16e-3),
            ("6ms", 6e-3),
            ("114.4 us", 114.4e-6),
            ("114.4 µs", 114.4e-6),
            ("0.0164 s", 0.0164),
            ("100000 s", 100000.0),
            ("  2 ms  ", 2e-3),
        ],
    )
    def test_accepted_forms(self, text, expected):
        assert parse_time(text, "x") == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("text", [6, 6.0, "6", "ms", "", "6 parsley", "fast ms", "-1 ms"])
    def test_rejected_forms(self, text):
        with pytest.raises(ConfigError, match="x"):
            parse_time(text, "x")


class TestLoadConfig:
    def test_defaults(self):
        cfg = load_config(None)
        assert cfg.traffic.rate == pytest.approx(62.5)
        assert cfg.traffic.slot_time == pytest.approx(114.4e-6)
        assert cfg.link.error_prob == 0.1
        assert cfg.link.retry_limit == 3
        assert cfg.rtwt.period == pytest.approx(10e-3)
        assert cfg.rtwt.sp_slots == 3
        assert cfg.buffer_packets == 20
        assert cfg.percentile_q == 0.999
        assert cfg.sim.seed == 12345
        assert cfg.sim_runs == 1
        assert cfg.constraint.indicator == "percentile"
        assert cfg.grid.sp_slots_max == 5

    def test_defaults_are_the_library_defaults(self):
        # README's Library example leaves these to the calls' own defaults
        def default(call, name):
            return inspect.signature(call).parameters[name].default

        cfg = load_config(None)
        assert cfg.grid == SearchGrid()
        assert cfg.sim == SimConfig(seed=cfg.sim.seed)
        quantiles = {default(call, "quantile") for call in (QosConstraint, evaluate, simulate)}
        assert quantiles == {cfg.percentile_q}
        assert {default(call, "buffer_packets") for call in (evaluate, slotify)} == {
            cfg.buffer_packets
        }

    def test_round_trip(self):
        assert load_config(default_yaml()) == load_config(None)

    def test_unknown_key_named(self):
        text = default_yaml() + "\nbandwidth: 3\n"
        with pytest.raises(ConfigError, match="bandwidth"):
            load_config(text)

    def test_nested_unknown_key_named(self):
        text = default_yaml().replace("period:", "cadence:")
        with pytest.raises(ConfigError, match="rtwt.cadence"):
            load_config(text)

    def test_missing_key_named(self):
        text = default_yaml().replace("buffer_packets: 20\n", "")
        with pytest.raises(ConfigError, match="buffer_packets"):
            load_config(text)

    def test_bare_number_time_rejected(self):
        text = default_yaml().replace("period: 10 ms", "period: 10")
        with pytest.raises(ConfigError, match="rtwt.period"):
            load_config(text)

    @pytest.mark.parametrize(
        "text",
        [
            # the dotted spelling alone, in place of the nested key
            default_yaml().replace("  interarrival: 16 ms\n", "") + "traffic.interarrival: 16 ms\n",
            # the dotted spelling beside the nested key
            default_yaml() + '"traffic.interarrival": 20 ms\n',
        ],
        ids=["alone", "beside_nested"],
    )
    def test_dotted_key_rejected(self, text):
        with pytest.raises(ConfigError, match=r"dotted config key: traffic\.interarrival"):
            load_config(text)

    @pytest.mark.parametrize(
        "text,path",
        [
            (default_yaml() + "buffer_packets: 7\n", "buffer_packets"),
            (default_yaml().replace("  period: 10 ms\n", "  period: 10 ms\n  period: 6 ms\n"),
             "rtwt.period"),
            (default_yaml() + "rtwt:\n  period: 6 ms\n  sp_slots: 3\n", "rtwt"),
        ],
        ids=["leaf", "nested_leaf", "section"],
    )
    def test_repeated_key_rejected(self, text, path):
        with pytest.raises(ConfigError, match=f"config key written twice: {path}$"):
            load_config(text)

    def test_invalid_yaml_rejected(self):
        with pytest.raises(ConfigError, match="YAML"):
            load_config("rtwt: [unclosed")

    def test_empty_text_falls_back_to_defaults(self):
        assert load_config("") == load_config(None)

    @pytest.mark.parametrize(
        "text,message",
        [
            (yaml_with("link.retry_limit", 1.5), "link.retry_limit: expected an integer, got 1.5"),
            (yaml_with("buffer_packets", True), "buffer_packets: expected an integer, got True"),
            (yaml_with("link.error_prob", "0.1"), "link.error_prob: expected a number, got '0.1'"),
            (yaml_with("traffic.interarrival", [16]),
             "traffic.interarrival: expected a time string like '10 ms', got [16]"),
            (yaml_with("constraint.indicator", 5),
             "constraint.indicator: expected a string, got 5"),
            (yaml.safe_dump([yaml.safe_load(default_yaml())]),
             "top level must be a mapping, got list"),
        ],
        ids=["float_integer", "bool_integer", "string_number", "list_time", "int_string",
             "top_level_list"],
    )
    def test_wrong_leaf_type_named(self, text, message):
        with pytest.raises(ConfigError) as caught:
            load_config(text)
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "needle,replacement,match",
        [
            ("error_prob: 0.1", "error_prob: 1.5", "error probability"),
            ("retry_limit: 3", "retry_limit: 0", "retry limit"),
            ("sp_slots: 3", "sp_slots: 0", "sp_slots"),
            ("buffer_packets: 20", "buffer_packets: 0", "buffer_packets"),
            ("percentile_q: 0.999", "percentile_q: 1.5", "quantile"),
            ("runs: 1", "runs: 0", "sim.runs"),
            ("indicator: percentile", "indicator: p99", "indicator"),
            ("interarrival: 16 ms", "interarrival: 0 s", "interarrival"),
        ],
    )
    def test_domain_validation_wrapped(self, needle, replacement, match):
        text = default_yaml().replace(needle, replacement)
        assert needle in default_yaml()
        with pytest.raises(ConfigError, match=match):
            load_config(text)


class TestOverrides:
    def test_time_override(self):
        cfg = load_config(None, ["rtwt.period=6 ms"])
        assert cfg.rtwt.period == pytest.approx(6e-3)

    def test_int_override(self):
        cfg = load_config(None, ["rtwt.sp_slots=5", "sim.seed=42"])
        assert cfg.rtwt.sp_slots == 5
        assert cfg.sim.seed == 42

    def test_float_override(self):
        cfg = load_config(None, ["link.error_prob=0.25"])
        assert cfg.link.error_prob == 0.25

    def test_string_override(self):
        cfg = load_config(None, ["constraint.indicator=jitter"])
        assert cfg.constraint.indicator == "jitter"

    def test_override_applies_on_top_of_text(self):
        cfg = load_config(default_yaml(), ["buffer_packets=7"])
        assert cfg.buffer_packets == 7

    @pytest.mark.parametrize(
        "item,match",
        [
            ("rtwt.period", "KEY=VALUE"),
            ("=5", "KEY=VALUE"),
            ("cadence=5", "unknown config key"),
            ("rtwt.sp_slots=three", "integer"),
            ("link.error_prob=dense", "number"),
            ("rtwt.period=10", "unit"),
        ],
    )
    def test_bad_overrides_rejected(self, item, match):
        with pytest.raises(ConfigError, match=match):
            load_config(None, [item])

    @pytest.mark.parametrize("path,default", DEFAULTS.items())
    def test_every_key_accepts_its_default_as_text(self, path, default):
        assert load_config(None, [f"{path}={default}"]) == load_config(None)

    def test_every_key_has_a_non_default_value(self):
        assert NON_DEFAULTS.keys() == DEFAULTS.keys()

    @pytest.mark.parametrize("path,value", NON_DEFAULTS.items())
    def test_yaml_and_override_build_the_same_run(self, path, value):
        assert value != DEFAULTS[path]
        from_yaml = load_config(yaml_with(path, value))
        assert from_yaml == load_config(None, [f"{path}={value}"])
        assert from_yaml != load_config(None)

    def test_override_does_not_hide_an_unknown_yaml_key(self):
        text = default_yaml().replace("buffer_packets: 20", "buffer_packets:\n  x: 1")
        with pytest.raises(ConfigError, match=r"unknown config key: buffer_packets\.x$"):
            load_config(text, ["buffer_packets=5"])

    def test_last_override_wins(self):
        cfg = load_config(None, ["sim.seed=1", "sim.seed=2"])
        assert cfg.sim.seed == 2


def test_readme_table_lists_every_key_with_its_default():
    section = README.read_text().split("### Configuration", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|") for line in section.splitlines() if line.startswith("| `")]
    documented = {cells[1].strip().strip("`"): cells[3].strip().strip("`") for cells in rows}
    assert documented == {path: str(value) for path, value in DEFAULTS.items()}
