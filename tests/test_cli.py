"""Command-line interface: exit codes, output formats, schemas, determinism."""

import json
import math
import re
import resource
import subprocess
import sys

import jsonschema
import pytest

from rtwt_planner import MetricsReport, SimReport, default_yaml, evaluate, load_config
from rtwt_planner.cli import main
from rtwt_planner.emit import _cell, load_schema
from rtwt_planner.experiments import FRONTIER_HEADER, VALIDATION_HEADER

# Keep simulation- and grid-backed commands fast; statistics are tested elsewhere.
SMALL_SIM = ["--set", "sim.warmup_packets=100", "--set", "sim.measured_packets=2000"]
SMALL_GRID = [
    "--set", "grid.period_min=2 ms", "--set", "grid.period_max=4 ms",
    "--set", "grid.period_step=1 ms", "--set", "grid.sp_slots_max=2",
]


# Runs each CLI call through `main`, printing (exit code, stdout, stderr).
CAPPED_PROBE = """
import contextlib, io, json, sys
from rtwt_planner.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append((code, out.getvalue(), err.getvalue()))
print(json.dumps(results))
"""


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_model_ok(self, capsys):
        code, out, _ = run_cli(["model"], capsys)
        assert code == 0
        assert json.loads(out)["loss_prob"] == pytest.approx(0.1**3)

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run_cli(["model", "--config", str(tmp_path / "nope.yaml")], capsys)
        assert code == 2
        assert "config error:" in err
        assert "not found" in err

    def test_unknown_override_key(self, capsys):
        code, _, err = run_cli(["model", "--set", "cadence=5"], capsys)
        assert code == 2
        assert "unknown config key" in err

    def test_model_error_exit(self, capsys):
        # period shorter than the service window: no valid slot layout
        code, _, err = run_cli(["model", "--set", "rtwt.period=0.05 ms"], capsys)
        assert code == 3
        assert "model error:" in err

    def test_report_failing_its_schema_exits_3(self, capsys, monkeypatch, tmp_path):
        to_dict = MetricsReport.to_dict
        monkeypatch.setattr(MetricsReport, "to_dict",
                            lambda self: {**to_dict(self), "loss_prob": 1.5})
        out = tmp_path / "model.json"
        code, _, err = run_cli(["model", "--out", str(out)], capsys)
        assert code == 3
        assert err.startswith("report error:")
        assert "loss_prob" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_simulate_report_failing_its_schema_takes_the_trace_back(
            self, capsys, monkeypatch, tmp_path):
        to_dict = SimReport.to_dict
        monkeypatch.setattr(SimReport, "to_dict", lambda self: {**to_dict(self), "runs": 0})
        trace = tmp_path / "t.csv"
        code, out, err = run_cli(["simulate", *SMALL_SIM, "--trace", str(trace)], capsys)
        assert (code, out) == (3, "")
        assert err.startswith("report error:")
        assert not trace.exists()

    @pytest.mark.parametrize("item,key", [
        ("percentile_q=1.5", "percentile_q: quantile must be in (0, 1), got 1.5"),
        ("link.retry_limit=0", "link: retry limit must be"),
        ("rtwt.sp_slots=0", "rtwt: sp_slots must be"),
    ])
    def test_config_errors_name_their_key(self, capsys, item, key):
        code, out, err = run_cli(["model", "--set", item], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"config error: {key}")

    def test_config_file_leaf_of_the_wrong_type_exits_2(self, capsys, tmp_path):
        config = tmp_path / "run.yaml"
        config.write_text(default_yaml().replace("buffer_packets: 20", "buffer_packets: true"))
        code, out, err = run_cli(["model", "--config", str(config)], capsys)
        assert (code, out) == (2, "")
        assert err == "config error: buffer_packets: expected an integer, got True\n"

    def test_override_into_a_scalar_section_names_the_section(self, capsys, tmp_path):
        config = tmp_path / "run.yaml"
        config.write_text("traffic: 5\nlink:" + default_yaml().split("link:", 1)[1])
        argv = ["model", "--config", str(config), "--set", "traffic.interarrival=16 ms"]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err == "config error: unknown config key: traffic\n"

    def test_sim_time_cap_exit(self, capsys):
        code, _, err = run_cli(["simulate", "--set", "sim.max_sim_time=1 s"], capsys)
        assert code == 4
        assert "simulation error:" in err
        assert "time cap" in err

    def test_huge_delivery_target_reaches_the_time_cap(self, capsys):
        # the delays are collected as they come, not preallocated for the target
        argv = ["simulate", "--set", "sim.measured_packets=10000000000000",
                "--set", "sim.max_sim_time=10 s"]
        code, out, err = run_cli(argv, capsys)
        assert code == 4
        assert out == ""
        assert err.startswith("simulation error:")
        assert "time cap" in err

    @pytest.mark.parametrize("command", [["simulate"], ["validate", "--axis", "period",
                                                       "--values", "10 ms"]])
    def test_negative_seed_is_a_config_error(self, capsys, command):
        code, out, err = run_cli([*command, *SMALL_SIM, "--set", "sim.seed=-1"], capsys)
        assert code == 2
        assert out == ""
        assert err == "config error: sim: seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("command", [
        ["simulate"],
        ["validate", "--axis", "period", "--values", "10 ms"],
        ["experiment", "fig2"],
    ])
    def test_negative_seed_flag_is_a_config_error(self, capsys, tmp_path, command):
        if command[0] == "experiment":
            command = [*command, "--out-dir", str(tmp_path / "out")]
        code, out, err = run_cli([*command, *SMALL_SIM, "--seed", "-1"], capsys)
        assert code == 2
        assert out == ""
        assert err == "config error: sim: seed must be >= 0, got -1\n"
        assert not (tmp_path / "out").exists()

    def test_trace_needs_single_run(self, capsys, tmp_path):
        argv = ["simulate", *SMALL_SIM, "--set", "sim.runs=2", "--trace", str(tmp_path / "t.csv")]
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert "sim.runs" in err

    @pytest.mark.parametrize("command, key", [
        (["model", "--set", "rtwt.period=10 ms"], "percentile_s"),
        (["optimize", *SMALL_GRID], "achieved_s"),
    ])
    def test_quantile_near_one_exits_zero(self, capsys, command, key):
        # the delay PMF's float total falls one ulp short of this quantile
        argv = [*command, "--set", "traffic.interarrival=12 ms",
                "--set", "percentile_q=0.9999999999999999"]
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        assert math.isfinite(json.loads(out)[key])

    def test_usage_errors(self, capsys):
        assert run_cli([], capsys)[0] == 2
        assert run_cli(["frobnicate"], capsys)[0] == 2
        assert run_cli(["validate"], capsys)[0] == 2  # --axis/--values required

    def test_help_exits_zero(self, capsys):
        assert run_cli(["--help"], capsys)[0] == 0

    def test_oversized_model_exits_3_under_memory_cap(self, package_env):
        # each of these builds a model far beyond memory; under a 1.5 GB
        # address-space cap an unchecked one dies with a traceback instead
        # of taking the machine down
        calls = [
            ["model", "--set", "rtwt.period=100 s"],
            ["model", "--set", "buffer_packets=20000"],
            ["model", "--set", "link.retry_limit=100000000"],
            ["model", "--set", "traffic.slot_time=1e-300 s"],
        ]

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1500 * 2**20, 1500 * 2**20))

        done = subprocess.run(
            [sys.executable, "-c", CAPPED_PROBE, json.dumps(calls)],
            env=package_env, capture_output=True, text=True, timeout=120,
            preexec_fn=cap_memory,
        )
        assert done.returncode == 0, done.stderr
        for call, (code, out, err) in zip(calls, json.loads(done.stdout)):
            assert code == 3, (call, err)
            assert out == ""
            assert err.startswith("model error: model too large"), (call, err)
            assert "Traceback" not in err


class TestNonFiniteCounts:
    """A period, grid or sweep too fine or too long to count in slots, steps or
    floats fails cleanly."""

    @pytest.mark.parametrize(
        "argv,code,message",
        [
            (["model", "--set", "traffic.slot_time=1e-320 s"], 3, "too many 1e-320 s slots"),
            (["model", "--set", "rtwt.period=1e308 s"], 3, "period 1e+308 s holds too many"),
            (["optimize", "--set", "grid.period_step=1e-320 s"], 2, "1e-320 is too small"),
            (["experiment", "fig2", "--step", "1e-320 s"], 2, "step 1e-320 s is too small"),
            (
                ["simulate", *SMALL_SIM, "--set", "rtwt.period=1e308 s"], 3,
                "model error: a departure time overflows the float range",
            ),
        ],
    )
    def test_exit_code_and_message(self, capsys, tmp_path, argv, code, message):
        if argv[0] == "experiment":
            argv = [*argv, "--out-dir", str(tmp_path)]
        got, out, err = run_cli(argv, capsys)
        assert got == code
        assert out == ""
        assert message in err
        assert "Traceback" not in err

    def test_validate_row_carries_the_message(self, capsys):
        argv = [
            "validate", *SMALL_SIM, "--set", "traffic.slot_time=1e-320 s",
            "--axis", "sp_slots", "--values", "3", "--format", "json",
        ]
        code, out, err = run_cli(argv, capsys)
        assert code == 0
        assert "Traceback" not in err
        (row,) = json.loads(out)["rows"]
        assert row[VALIDATION_HEADER.index("mean_ana")] is None
        assert row[-1].startswith("model: period 0.01 s holds too many 1e-320 s slots")

    def test_tiny_finite_step_exits_2_under_memory_cap(self, package_env, tmp_path):
        # 1e-12 s steps count about 1.5e10 periods, and 1e8 window lengths
        # make 1.56e10 grid points; an unchecked count fills the 1.5 GB
        # address-space cap and dies with a MemoryError traceback
        calls = [
            ["optimize", "--set", "grid.period_step=1e-12 s"],
            ["experiment", "fig2", "--step", "1e-12 s", "--out-dir", str(tmp_path / "out")],
            ["optimize", "--set", "grid.sp_slots_max=100000000"],
            ["experiment", "fig5", "--set", "grid.sp_slots_max=100000000",
             "--out-dir", str(tmp_path / "out5")],
        ]

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1500 * 2**20, 1500 * 2**20))

        done = subprocess.run(
            [sys.executable, "-c", CAPPED_PROBE, json.dumps(calls)],
            env=package_env, capture_output=True, text=True, timeout=60,
            preexec_fn=cap_memory,
        )
        assert done.returncode == 0, done.stderr
        (opt_code, opt_out, opt_err), (exp_code, exp_out, exp_err), *grid = json.loads(done.stdout)
        assert (opt_code, opt_out) == (2, "")
        assert opt_err.startswith("config error: grid: period_step 1e-12 is too small")
        assert (exp_code, exp_out) == (2, "")
        assert exp_err.startswith("config error: step 1e-12 s is too small")
        for code, out, err in grid:
            assert (code, out) == (2, "")
            assert err.startswith("config error: grid: 156 periods x 100000000 window lengths")
        assert not (tmp_path / "out5").exists()


class TestFileSystemErrors:
    """Unreadable or unwritable paths exit 2 with a message, not a traceback."""

    def assert_path_error(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""  # a failed call prints no report
        assert err.startswith("config error:")
        assert "Traceback" not in err

    def test_unwritable_out(self, capsys, tmp_path):
        self.assert_path_error(["model", "--out", str(tmp_path / "missing" / "x.json")], capsys)

    def test_unwritable_pmf(self, capsys, tmp_path):
        self.assert_path_error(["model", "--pmf", str(tmp_path / "missing" / "p.csv")], capsys)

    def test_unwritable_out_takes_the_pmf_back(self, capsys, tmp_path):
        pmf = tmp_path / "ok.csv"
        argv = ["model", "--pmf", str(pmf), "--out", str(tmp_path / "missing" / "x.json")]
        self.assert_path_error(argv, capsys)
        assert not pmf.exists()
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_out_takes_the_trace_back(self, capsys, tmp_path):
        trace = tmp_path / "t.csv"
        argv = ["simulate", *SMALL_SIM, "--trace", str(trace),
                "--out", str(tmp_path / "missing" / "r.json")]
        self.assert_path_error(argv, capsys)
        assert list(tmp_path.iterdir()) == []

    def test_config_is_a_directory(self, capsys, tmp_path):
        self.assert_path_error(["model", "--config", str(tmp_path)], capsys)

    def test_out_dir_cannot_be_created(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        argv = ["experiment", "fig5", *SMALL_GRID, "--out-dir", str(blocker / "sub")]
        self.assert_path_error(argv, capsys)
        assert sorted(tmp_path.iterdir()) == [blocker]


class TestModuleEntryPoints:
    @pytest.mark.parametrize("module", ["rtwt_planner", "rtwt_planner.cli"])
    def test_emit_config(self, module, package_env):
        done = subprocess.run(
            [sys.executable, "-m", module, "emit-config"],
            env=package_env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == default_yaml()
        assert load_config(done.stdout) == load_config(None)


class TestModelCommand:
    def test_json_matches_schema_and_library(self, capsys):
        code, out, _ = run_cli(["model"], capsys)
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, load_schema("model_report"))
        cfg = load_config(None)
        report = evaluate(cfg.traffic, cfg.link, cfg.rtwt, cfg.buffer_packets)
        assert payload == json.loads(json.dumps(report.to_dict()))

    def test_output_bytes_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(["model", "--out", str(a)], capsys)[0] == 0
        assert run_cli(["model", "--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(["model", "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 2
        assert lines[0].split(",") == [
            "mean_delay_s", "jitter_s", "loss_prob", "percentile_s",
            "percentile_q", "capacity", "overflow_prob",
        ]

    def test_table_format(self, capsys):
        code, out, _ = run_cli(["model", "--format", "table"], capsys)
        assert code == 0
        assert "mean_delay_s" in out and "capacity" in out

    def test_pmf_csv(self, capsys, tmp_path):
        pmf_path = tmp_path / "pmf.csv"
        code, _, _ = run_cli(["model", "--pmf", str(pmf_path)], capsys)
        assert code == 0
        lines = pmf_path.read_text().strip().split("\n")
        assert lines[0] == "delay_slots,delay_s,probability"
        slot = load_config(None).traffic.slot_time
        total = 0.0
        for i, line in enumerate(lines[1:]):
            d, t, p = line.split(",")
            assert int(d) == i
            assert float(t) == int(d) * slot
            total += float(p)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_coarse_slotting_gate(self, capsys):
        # 0.73 ms rounds onto the slot grid with >1% error
        argv = ["model", "--set", "rtwt.period=0.73 ms", "--set", "rtwt.sp_slots=1"]
        assert run_cli(argv, capsys)[0] == 3
        assert run_cli([*argv, "--allow-coarse-slotting"], capsys)[0] == 0


class TestSimulateCommand:
    def test_json_matches_schema(self, capsys):
        code, out, _ = run_cli(["simulate", *SMALL_SIM, "--seed", "7"], capsys)
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, load_schema("sim_report"))
        assert payload["delivered"] > 0

    def test_seeded_determinism(self, capsys, tmp_path):
        a, b, c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
        base = ["simulate", *SMALL_SIM]
        assert run_cli([*base, "--seed", "7", "--out", str(a)], capsys)[0] == 0
        assert run_cli([*base, "--seed", "7", "--out", str(b)], capsys)[0] == 0
        assert run_cli([*base, "--seed", "8", "--out", str(c)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_trace_file(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        argv = ["simulate", *SMALL_SIM, "--seed", "3", "--trace", str(trace)]
        assert run_cli(argv, capsys)[0] == 0
        lines = trace.read_text().strip().split("\n")
        assert lines[0] == "time_s,event,queue_len"
        events = {line.split(",")[1] for line in lines[1:]}
        assert "arrival" in events and "attempt_ok" in events


class TestValidateCommand:
    def test_csv_header_and_row_values(self, capsys):
        argv = ["validate", *SMALL_SIM, "--seed", "5", "--axis", "period", "--values", "10 ms"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].split(",") == VALIDATION_HEADER
        assert len(lines) == 2
        row = lines[1].split(",")
        assert float(row[0]) == pytest.approx(10e-3)
        cfg = load_config(None)
        report = evaluate(cfg.traffic, cfg.link, cfg.rtwt, cfg.buffer_packets, allow_coarse=True)
        assert float(row[VALIDATION_HEADER.index("mean_ana")]) == report.mean_delay_s
        assert float(row[VALIDATION_HEADER.index("pctl_ana")]) == report.percentile_s
        assert float(row[VALIDATION_HEADER.index("loss_ana")]) == report.loss_prob
        assert row[VALIDATION_HEADER.index("error")] == ""

    def test_failing_value_lands_in_error_column(self, capsys):
        argv = [
            "validate", *SMALL_SIM, "--axis", "period",
            "--values", "0.05 ms,10 ms", "--format", "csv",
        ]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 3
        bad, good = lines[1], lines[2]
        assert "model:" in bad and "sim:" in bad
        assert good.rstrip().endswith(",") or "model:" not in good

    def test_json_format(self, capsys):
        argv = [
            "validate", *SMALL_SIM, "--axis", "sp_slots",
            "--values", "3", "--format", "json",
        ]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["header"] == VALIDATION_HEADER
        assert len(payload["rows"]) == 1

    def test_table_format(self, capsys):
        # each column starts where its dashes do, and holds the JSON row's
        # cell as CSV renders it: a failing row's figures are blank
        argv = ["validate", *SMALL_SIM, "--axis", "period", "--values", "0.05 ms,10 ms"]
        code, out, _ = run_cli([*argv, "--format", "table"], capsys)
        assert code == 0
        rows = json.loads(run_cli([*argv, "--format", "json"], capsys)[1])["rows"]
        header, dashes, *lines = out.rstrip("\n").split("\n")
        assert header.split() == VALIDATION_HEADER
        starts = [m.start() for m in re.finditer("-+", dashes)]
        assert len(starts) == len(VALIDATION_HEADER)
        assert len(lines) == len(rows) == 2
        for line, row in zip(lines, rows):
            cells = [line[a:b].strip() for a, b in zip(starts, [*starts[1:], None])]
            assert cells == [_cell(value) for value in row]
        assert rows[0][-1].startswith("model:") and rows[1][-1] is None

    @pytest.mark.parametrize(
        "axis,values,message",
        [
            ("sp_slots", "3,0", "sp_slots must be an integer >= 1"),
            ("interarrival", "10 ms,0 ms", "interarrival must be > 0"),
        ],
    )
    def test_bad_axis_value_lands_in_its_row(self, capsys, axis, values, message):
        argv = ["validate", *SMALL_SIM, "--axis", axis, "--values", values, "--format", "json"]
        code, out, err = run_cli(argv, capsys)
        assert code == 0
        assert "Traceback" not in err
        good, bad = json.loads(out)["rows"]
        assert good[-1] is None
        assert bad[1:-1] == [None] * (len(VALIDATION_HEADER) - 2)
        assert message in bad[-1]

    def test_bad_values_rejected(self, capsys):
        base = ["validate", "--axis", "sp_slots"]
        assert run_cli([*base, "--values", "two"], capsys)[0] == 2
        assert run_cli([*base, "--values", " , "], capsys)[0] == 2
        assert run_cli(["validate", "--axis", "period", "--values", "10"], capsys)[0] == 2


class TestOptimizeCommand:
    def test_feasible_choice_matches_schema(self, capsys):
        code, out, _ = run_cli(["optimize", *SMALL_GRID], capsys)
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, load_schema("optimal_choice"))
        assert payload["feasible"] is True
        assert payload["evaluated_points"] == 6
        assert payload["achieved_s"] <= payload["target_s"]

    def test_infeasible_still_exits_zero(self, capsys):
        argv = ["optimize", *SMALL_GRID, "--set", "constraint.target=0.01 ms"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, load_schema("optimal_choice"))
        assert payload["feasible"] is False
        # nearest-miss point is still reported so the gap is visible
        assert payload["achieved_s"] > payload["target_s"]

    def test_deterministic_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(["optimize", *SMALL_GRID, "--out", str(a)], capsys)[0] == 0
        assert run_cli(["optimize", *SMALL_GRID, "--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()


class TestExperimentCommand:
    def test_frontier_bundle(self, capsys, tmp_path):
        argv = ["experiment", "fig5", *SMALL_GRID, "--out-dir", str(tmp_path)]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        path = tmp_path / "fig5.csv"
        assert str(path) in out
        lines = path.read_text().strip().split("\n")
        assert lines[0].split(",") == FRONTIER_HEADER
        assert len(lines) == 1 + 3 * 30  # three indicators, targets 1..30 ms

    def test_period_sweep_bundle(self, capsys, tmp_path):
        argv = [
            "experiment", "fig2", *SMALL_SIM,
            "--step", "5 ms", "--out-dir", str(tmp_path),
        ]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        for stem in ("fig2_retry1", "fig2_retry3"):
            path = tmp_path / f"{stem}.csv"
            assert str(path) in out
            lines = path.read_text().strip().split("\n")
            assert lines[0].split(",") == VALIDATION_HEADER
            assert len(lines) == 1 + 4  # periods 1, 6, 11, 16 ms

    @pytest.mark.parametrize(
        "name,stems,rows",
        [
            ("fig3", ("fig3_retry1", "fig3_retry3"), 10),  # window sizes 1..10
            ("fig4", ("fig4_sp3", "fig4_sp5"), 12),  # interarrivals 5..16 ms
        ],
    )
    def test_validation_bundles(self, capsys, tmp_path, name, stems, rows):
        code, out, _ = run_cli(["experiment", name, *SMALL_SIM, "--out-dir", str(tmp_path)], capsys)
        assert code == 0
        assert sorted(p.stem for p in tmp_path.iterdir()) == list(stems)
        for stem in stems:
            path = tmp_path / f"{stem}.csv"
            assert str(path) in out
            lines = path.read_text().strip().split("\n")
            assert lines[0].split(",") == VALIDATION_HEADER
            assert len(lines) == 1 + rows

    def test_period_sweep_stops_at_the_last_step_inside_the_range(self, capsys, tmp_path):
        argv = [
            "experiment", "fig2", *SMALL_SIM,
            "--step", "4 ms", "--out-dir", str(tmp_path),
        ]
        code, _, _ = run_cli(argv, capsys)
        assert code == 0
        lines = (tmp_path / "fig2_retry1.csv").read_text().strip().split("\n")
        periods = [float(line.split(",")[0]) for line in lines[1:]]
        assert periods == pytest.approx([1e-3, 5e-3, 9e-3, 13e-3])  # not 17 ms

    def test_zero_step_rejected(self, capsys, tmp_path):
        argv = ["experiment", "fig2", "--step", "0 ms", "--out-dir", str(tmp_path)]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert "period step must be > 0" in err
        assert out == "" and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("step", ["0 ms", "1e-12 s"])
    def test_rejected_step_creates_no_out_dir(self, capsys, tmp_path, step):
        out_dir = tmp_path / "out"
        argv = ["experiment", "fig2", "--step", step, "--out-dir", str(out_dir)]
        assert run_cli(argv, capsys)[0] == 2
        assert not out_dir.exists()

    def test_unknown_name_rejected(self, capsys):
        assert run_cli(["experiment", "fig9"], capsys)[0] == 2

    def test_out_is_a_usage_error(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        argv = ["experiment", "fig5", *SMALL_GRID, "--out", str(report),
                "--out-dir", str(tmp_path / "d")]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --out" in err
        assert list(tmp_path.iterdir()) == []


class TestEmitConfig:
    def test_round_trip(self, capsys, tmp_path):
        path = tmp_path / "cfg.yaml"
        assert run_cli(["emit-config", "--out", str(path)], capsys)[0] == 0
        assert load_config(path.read_text()) == load_config(None)

    def test_stdout_matches_file(self, capsys, tmp_path):
        code, out, _ = run_cli(["emit-config"], capsys)
        assert code == 0
        path = tmp_path / "cfg.yaml"
        run_cli(["emit-config", "--out", str(path)], capsys)
        assert out == path.read_text()
