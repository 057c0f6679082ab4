"""What the package exposes, and what a cold process loads.

The public surface is what users call; stage functions stay in their
submodules.  The import-weight checks run in a fresh interpreter, because
this test process has long since imported scipy.stats and scipy.sparse for
other tests.
"""

import json
import subprocess
import sys

import pytest

import rtwt_planner
from rtwt_planner import RtwtSpec, experiments, model, optimizer
from rtwt_planner.params import SlottedConfig
from rtwt_planner.simulator import SpSchedule

PUBLIC_API = [
    "TrafficSpec", "LinkSpec", "RtwtSpec", "SimConfig",
    "evaluate", "simulate", "replicate", "optimize", "QosConstraint", "SearchGrid",
    "MetricsReport", "DelayPmf", "SimReport", "OptimalChoice",
    "ModelError", "ConfigError", "SimTimeLimitError",
    "RunConfig", "load_config", "default_yaml", "__version__",
]

# Runs each CLI call through `main`, then prints the scipy modules loaded.
PROBE = """
import json, sys
import rtwt_planner
from rtwt_planner.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy"))))
"""

SMALL_SIM = ["--set", "sim.warmup_packets=100", "--set", "sim.measured_packets=2000"]


def scipy_modules_after(calls: list[list[str]], env: dict) -> set[str]:
    done = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(calls)],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return set(json.loads(done.stdout.strip().splitlines()[-1]))


def loaded(modules: set[str], package: str) -> bool:
    return any(m == package or m.startswith(package + ".") for m in modules)


def test_cli_calls_load_neither_stats_nor_sparse(tmp_path, package_env):
    calls = [
        ["model", "--out", str(tmp_path / "model.json"), "--pmf", str(tmp_path / "pmf.csv")],
        ["optimize", "--set", "grid.period_step=4 ms", "--out", str(tmp_path / "opt.json")],
        ["simulate", *SMALL_SIM, "--out", str(tmp_path / "sim.json")],
    ]
    modules = scipy_modules_after(calls, package_env)
    assert not loaded(modules, "scipy.stats")
    assert not loaded(modules, "scipy.sparse")


def test_replicate_loads_special_not_stats(tmp_path, package_env):
    calls = [["simulate", *SMALL_SIM, "--set", "sim.runs=2", "--out", str(tmp_path / "sim.json")]]
    modules = scipy_modules_after(calls, package_env)
    assert loaded(modules, "scipy.special")
    assert not loaded(modules, "scipy.stats")


def test_public_api_is_the_documented_list():
    assert sorted(rtwt_planner.__all__) == sorted(PUBLIC_API)
    for name in rtwt_planner.__all__:
        assert getattr(rtwt_planner, name) is not None


@pytest.mark.parametrize("name", ["batch_delay_slots", "extra_vacation_slots", "sweep", "SweepRow"])
def test_removed_names_are_gone(name):
    for module in (rtwt_planner, model, optimizer, experiments):
        assert not hasattr(module, name), (module.__name__, name)


def test_removed_schedule_fields_are_gone():
    with pytest.raises(TypeError):
        RtwtSpec(period=10e-3, sp_slots=3, offset=0.0)
    for owner, name in [
        (SlottedConfig, "vacation_slots"),
        (SlottedConfig, "discretization_error"),
        (model.ChainModel, "slot_matrix"),
        (model.ChainModel, "batches"),
        (SpSchedule, "first_fit"),
        (SpSchedule, "offset"),
        (SpSchedule, "attempt_ends"),
    ]:
        assert not hasattr(owner, name), (owner.__name__, name)
        assert name not in getattr(owner, "__dataclass_fields__", {}), (owner.__name__, name)
