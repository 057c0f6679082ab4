"""What the package exposes, and what a cold process loads.

The public surface is what users call; stage functions stay in their
submodules.  The import-weight checks run in a fresh interpreter, because
this test process has long since imported scipy.stats and scipy.sparse for
other tests.
"""

import ast
import importlib
import json
import re
import subprocess
import sys
from pathlib import Path

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

# Runs the code it is given, then prints the modules loaded.
PROBE = """
import json, sys
exec(sys.argv[1])
print(json.dumps(sorted(sys.modules)))
"""

SMALL_SIM = ["--set", "sim.warmup_packets=100", "--set", "sim.measured_packets=2000"]


PACKAGE = Path(rtwt_planner.__file__).parent


def package_imports():
    """(file name, absolute module name, whether the import sits in a function
    body) for every import in the package's modules."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        deferred = {
            id(node)
            for scope in ast.walk(tree)
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(scope)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [f"rtwt_planner.{node.module}"]
            elif isinstance(node, ast.ImportFrom):  # from . import name
                names = [f"rtwt_planner.{alias.name}" for alias in node.names]
            else:
                continue
            for name in names:
                yield path.name, name, id(node) in deferred


def modules_loaded_by(code: str, env: dict) -> set[str]:
    """The modules a fresh interpreter holds once it has run `code`."""
    done = subprocess.run(
        [sys.executable, "-c", PROBE, code],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return set(json.loads(done.stdout.strip().splitlines()[-1]))


def modules_after(calls: list[list[str]], env: dict) -> set[str]:
    """The modules loaded once each CLI call has run through `main`, in one process."""
    code = f"from rtwt_planner.cli import main\nfor argv in {calls!r}:\n    assert main(argv) == 0, argv"
    return modules_loaded_by(code, env)


def loaded(modules: set[str], package: str) -> bool:
    return any(m == package or m.startswith(package + ".") for m in modules)


def test_cli_calls_load_no_stats_sparse_or_jsonschema(tmp_path, package_env):
    calls = [
        ["model", "--out", str(tmp_path / "model.json"), "--pmf", str(tmp_path / "pmf.csv")],
        ["optimize", "--set", "grid.period_step=4 ms", "--out", str(tmp_path / "opt.json")],
        ["simulate", *SMALL_SIM, "--out", str(tmp_path / "sim.json")],
    ]
    modules = modules_after(calls, package_env)
    for package in ("scipy.stats", "scipy.sparse", "jsonschema", "referencing"):
        assert not loaded(modules, package), package


def test_multi_run_calls_load_no_scipy(tmp_path, package_env):
    # up to 64 runs the Student-t critical value comes from a table
    runs = [*SMALL_SIM, "--set", "sim.runs=2"]
    calls = [
        ["simulate", *runs, "--out", str(tmp_path / "sim.json")],
        ["validate", *runs, "--axis", "period", "--values", "10 ms",
         "--out", str(tmp_path / "val.csv")],
    ]
    assert not loaded(modules_after(calls, package_env), "scipy")


# What a cold process loads: `cli` reads the configuration without numpy and
# imports what a command runs inside its handler.  `schemas` holds the
# bundled report schemas, read as package resources.
ENTRY = {"rtwt_planner", "rtwt_planner.cli", "rtwt_planner.config",
         "rtwt_planner.emit", "rtwt_planner.params"}
REPORTED = ENTRY | {"rtwt_planner.schemas"}


@pytest.mark.parametrize(
    "case,package_modules,numpy_loaded",
    [
        ("import rtwt_planner", {"rtwt_planner"}, False),
        ("import rtwt_planner.cli", ENTRY, False),
        (["model"], REPORTED | {"rtwt_planner.model"}, True),
        (["optimize", "--set", "grid.period_step=4 ms"],
         REPORTED | {"rtwt_planner.model", "rtwt_planner.optimizer"}, True),
        (["simulate", *SMALL_SIM], REPORTED | {"rtwt_planner.simulator"}, True),
        (["emit-config"], ENTRY, False),
    ],
    ids=["package", "cli", "model", "optimize", "simulate", "emit-config"],
)
def test_each_cold_call_loads_only_what_it_runs(
    case, package_modules, numpy_loaded, tmp_path, package_env
):
    if isinstance(case, str):
        modules = modules_loaded_by(case, package_env)
    else:
        modules = modules_after([[*case, "--out", str(tmp_path / "out")]], package_env)
    assert {m for m in modules if m.split(".")[0] == "rtwt_planner"} == package_modules
    assert loaded(modules, "numpy") is numpy_loaded


# (name, the modules that define or import it back): each must give one object
MOVED = [
    ("SimConfig", ["params", "simulator", "config"]),
    ("SimTimeLimitError", ["params", "simulator"]),
    ("ModelError", ["params", "model"]),
    ("QosConstraint", ["params", "optimizer", "config", "experiments"]),
    ("SearchGrid", ["params", "optimizer", "config"]),
    ("INDICATORS", ["params", "optimizer", "experiments"]),
    ("RANGE_LIMIT", ["params", "optimizer"]),
    ("inclusive_range", ["params", "optimizer", "experiments"]),
    ("EXPERIMENTS", ["config", "experiments"]),
    ("SWEEP_AXES", ["config", "experiments"]),
]


@pytest.mark.parametrize("name,homes", MOVED, ids=[name for name, _ in MOVED])
def test_moved_names_are_one_object(name, homes):
    objects = [getattr(importlib.import_module(f"rtwt_planner.{home}"), name) for home in homes]
    if name in rtwt_planner.__all__:
        objects.append(getattr(rtwt_planner, name))
    assert all(obj is objects[0] for obj in objects)


def test_lazy_namespace_lists_and_binds_every_public_name():
    assert set(rtwt_planner.__all__) <= set(dir(rtwt_planner))
    namespace = {}
    exec("from rtwt_planner import *", namespace)
    for name in rtwt_planner.__all__:
        assert namespace[name] is getattr(rtwt_planner, name), name
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        rtwt_planner.nonexistent


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


def test_runtime_dependencies_are_what_the_package_imports():
    """pyproject's runtime dependencies are exactly the third-party top-level
    modules `src/rtwt_planner` imports, function-level imports included, and
    jsonschema is a test-only dependency."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((PACKAGE.parents[1] / "pyproject.toml").read_text())["project"]
    imported = {name.split(".")[0] for _, name, _ in package_imports()}
    third_party = imported - set(sys.stdlib_module_names) - {"__future__", "rtwt_planner"}

    def modules(requirements):
        names = (re.match(r"[A-Za-z0-9_.-]+", item).group() for item in requirements)
        return {{"PyYAML": "yaml"}.get(name, name.lower()) for name in names}

    assert third_party == modules(project["dependencies"]) == {"numpy", "scipy", "yaml"}
    extras = project["optional-dependencies"]
    assert [group for group in extras if "jsonschema" in modules(extras[group])] == ["test"]


def test_cli_entry_imports_no_numpy_or_runner_at_module_level():
    """The modules every CLI call loads import neither numpy nor scipy, nor a
    module that does, outside a function: one such line would load numpy in
    `emit-config` and in the package import."""
    runners = {f"rtwt_planner.{name}" for name in ("model", "optimizer", "simulator", "experiments")}
    entry = {"__init__.py", "cli.py", "config.py", "emit.py", "params.py"}
    eager = [
        (path, name) for path, name, deferred in package_imports()
        if path in entry and not deferred
        and (name.split(".")[0] in ("numpy", "scipy") or name in runners)
    ]
    assert eager == []


def test_scipy_is_imported_only_inside_functions():
    """scipy stays off every import path: a module-level import of it would
    load it in each cold CLI call."""
    eager = [
        (path, name) for path, name, deferred in package_imports()
        if not deferred and (name == "scipy" or name.startswith("scipy."))
    ]
    assert eager == []
