"""Golden outputs: the exact bytes a fixed set of CLI calls writes.

Each call runs in-process through `cli.main` and writes every output to a
file; the test pins the SHA-256 of each file.  A change that is meant to
keep outputs byte-identical must leave these hashes alone; a change that
moves outputs on purpose updates them and says why.
"""

import hashlib

from rtwt_planner import (
    QosConstraint,
    SearchGrid,
    TrafficSpec,
    emit,
    load_config,
    optimize,
)
from rtwt_planner.cli import main
from rtwt_planner.optimizer import evaluate_grid

SIM_20K = ["--set", "sim.measured_packets=20000"]
# half the offered packets overflow: the drop path and the per-packet stepper
OVERLOAD = ["--set", "traffic.interarrival=5 ms", "--set", "rtwt.sp_slots=1", *SIM_20K]

# name -> argv; "{dir}" is the output directory
CALLS = {
    "model_10ms": [
        "model", "--set", "rtwt.period=10 ms",
        "--out", "{dir}/model_10ms.json", "--pmf", "{dir}/model_10ms_pmf.csv",
    ],
    "model_1ms_coarse": [
        "model", "--allow-coarse-slotting", "--set", "rtwt.period=1 ms",
        "--out", "{dir}/model_1ms.json", "--pmf", "{dir}/model_1ms_pmf.csv",
    ],
    "model_073ms_table": [
        "model", "--allow-coarse-slotting", "--set", "rtwt.period=0.73 ms",
        "--format", "table", "--out", "{dir}/model_073ms.txt",
    ],
    "optimize_1ms_step": [
        "optimize", "--set", "grid.period_step=1 ms", "--out", "{dir}/optimize.json",
    ],
    # the default 0.1 ms grid: the choices the optimizer's floor screen must keep
    "optimize_default": ["optimize", "--out", "{dir}/optimize_default.json"],
    "optimize_unreachable": [
        "optimize", "--set", "constraint.target=0.1 ms", "--out", "{dir}/optimize_unreachable.json",
    ],
    "optimize_mean_delay": [
        "optimize", "--set", "constraint.indicator=mean_delay", "--set", "constraint.target=3 ms",
        "--out", "{dir}/optimize_mean_delay.json",
    ],
    "optimize_5ms": [
        "optimize", "--set", "traffic.interarrival=5 ms", "--out", "{dir}/optimize_5ms.json",
    ],
    "optimize_buffer_1": [
        "optimize", "--set", "buffer_packets=1", "--out", "{dir}/optimize_buffer_1.json",
    ],
    "simulate_trace": [
        "simulate", *SIM_20K, "--trace", "{dir}/sim_trace.csv", "--out", "{dir}/sim.json",
    ],
    "simulate_overload": ["simulate", *OVERLOAD, "--out", "{dir}/sim_overload.json"],
    "simulate_overload_trace": [
        "simulate", *OVERLOAD, "--trace", "{dir}/sim_overload_trace.csv",
        "--out", "{dir}/sim_overload_traced.json",
    ],
    "simulate_4_runs": [
        "simulate", *SIM_20K, "--set", "sim.runs=4", "--out", "{dir}/sim_runs4.json",
    ],
    "validate_period": [
        "validate", "--axis", "period", "--values", "1 ms,2 ms,10 ms",
        "--set", "sim.measured_packets=2000", "--out", "{dir}/validate.csv",
    ],
    "model_every_leaf_type": [
        "model", "--set", "link.error_prob=1e-1", "--set", "link.retry_limit=2",
        "--set", "constraint.indicator=jitter", "--set", "rtwt.period=6 ms",
        "--out", "{dir}/model_sets.json",
    ],
    "emit_config": ["emit-config", "--out", "{dir}/config.yaml"],
}

# `experiment` prints the path of each file it writes, so these run apart
EXPERIMENT_CALLS = {
    "fig3_2k": ["experiment", "fig3", "--set", "sim.measured_packets=2000", "--out-dir", "{dir}"],
    "fig5": ["experiment", "fig5", "--out-dir", "{dir}"],
}

GOLDEN = {
    "config.yaml": "febd0a4aebe49ba7194fdf241da260a93aa4f9bb51b21bf89c17fd1cbb388725",
    "model_073ms.txt": "c7e20517e8e069d2ffc517c3dfc96ed0b66f7f982ae9cdf4fc84d714d6c7fb43",
    "model_10ms.json": "6296e88d0ff1a8efb11f4f2d7551f27135e7d8c6278fc178f698d8e387f16805",
    "model_10ms_pmf.csv": "cdf3fbda7bac050da8cd64245f1161d4944efe5ebd102c181f6e8fa198315591",
    "model_1ms.json": "de0bc49c2fd1e3a650f72676f89cbd0e6fc55ec52b8238298cc0440ee88b347d",
    "model_1ms_pmf.csv": "3275e98627553a09b6d9bb191c8048dfcb2921975162c122ddf62dbb3e047987",
    "model_sets.json": "19de1ebad24794356daa0c0bce59e178564a327686ad0033f1a6064ff96e7399",
    "optimize.json": "bbba482b76451c2a24205dc51c1a5ff3ec60c572c4debd3ed3261a46a7793d85",
    "optimize_5ms.json": "b77848483a0cd714f05f767802e75e2b9ea725d491d25bf2c3ed3f384bfeaad3",
    "optimize_buffer_1.json": "484a51b44f1ac5cc76b2c7eeefa7a1fec9107b784993f1451dda520473be10b8",
    "optimize_default.json": "e01ba36afbc789390611f1265c56d039b8e579736f9bdab1ecf75fe9d7389b0d",
    "optimize_mean_delay.json": "b66628369a984720f49456f6c9b6a3e195672d7cc336838507d5258948460736",
    "optimize_unreachable.json": "400b90b87be3fd46d94173bc0c9db33a861b8eb51cee45827642410ecf43cce9",
    "sim.json": "e9788753f7311ffd46dccaf7b303971cd95a332ac8d6ca3d8e4518c8cad8e78d",
    "sim_overload.json": "f3d9dd0765cf1e83afbc588d444c6154e6f2555215cc9e29e5680baa74796fa0",
    "sim_overload_trace.csv": "6153f055ab742d6918366a50321b938d76864775b5168235234e4944c1bc4f10",
    "sim_overload_traced.json": "f3d9dd0765cf1e83afbc588d444c6154e6f2555215cc9e29e5680baa74796fa0",
    "sim_runs4.json": "d7efb435d989fdf445c70306a914d5b6e0ef5499f4275f6005747f91f7b3bbcb",
    "sim_trace.csv": "e0ae7a671f70583991022dd075c3fa06939de1a7cf7cc33ca51d039564664d3c",
    "validate.csv": "127504170d6d1483ded36fbe3530b8a501afb581123a4befe5cae478778e15ac",
}

EXPERIMENT_GOLDEN = {
    "fig3_retry1.csv": "3da4b5f3b6640bfef768182de31e6c76b4f2b58757b36596a80bc7f9ce8c821d",
    "fig3_retry3.csv": "596a74c5e106505ee27446929aed345a442847753dede1e4dfcb3d8c9c902ad2",
    "fig5.csv": "7b7cd322da2d0ad404a989eb0b331f2a181d2490e9a246dc83f59214560c2316",
}

# every point of `evaluate_grid` on the default 780-point grid at K=20: its
# period, window, error, report JSON and PMF bytes.  The grid repeats 70
# schedules and rejects one point, which the golden `optimize` call (1 ms
# step, 80 points, no repeat) does not reach.
DEFAULT_GRID_GOLDEN = "58ab9529256a0e96a847bd4cc6e88a0b1bed695b8843834dfe8fd3a306cdf286"

# 36 default-grid `optimize` choices, in this order: buffers 1 and 20 at 16
# and 9 ms interarrival and 60 at 12 ms, each with percentile targets of 4, 7
# and 12 ms, mean-delay targets of 2 and 5 ms and jitter targets of 2 and 4
# ms, and one unreachable 0.1 ms percentile target.  It pins the choices of
# a search whose outputs are meant to stay byte-identical.
OPTIMIZE_CASES = [
    (buffer_packets, interarrival, QosConstraint(indicator, target))
    for buffer_packets, interarrivals in ((1, (16e-3, 9e-3)), (20, (16e-3, 9e-3)), (60, (12e-3,)))
    for interarrival in interarrivals
    for indicator, targets in (
        ("percentile", (4e-3, 7e-3, 12e-3)), ("mean_delay", (2e-3, 5e-3)), ("jitter", (2e-3, 4e-3)),
    )
    for target in targets
] + [(20, 16e-3, QosConstraint("percentile", 0.1e-3))]
OPTIMIZE_GOLDEN = "5c4e1d0a02fe08f68af25787c9ce85dc2a0e85e6c9641be544d96d9936d771ac"


def digests(directory) -> dict:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
    }


def test_cli_outputs_are_byte_identical(tmp_path, capsys):
    for name, argv in CALLS.items():
        assert main([arg.format(dir=tmp_path) for arg in argv]) == 0, name
    assert capsys.readouterr().out == ""
    assert digests(tmp_path) == GOLDEN


def test_experiment_outputs_are_byte_identical(tmp_path, capsys):
    for name, argv in EXPERIMENT_CALLS.items():
        assert main([arg.format(dir=tmp_path) for arg in argv]) == 0, name
    printed = capsys.readouterr().out.splitlines()
    assert printed == [str(tmp_path / name) for name in EXPERIMENT_GOLDEN]
    assert digests(tmp_path) == EXPERIMENT_GOLDEN


def test_default_grid_points_are_byte_identical():
    cfg = load_config(None, [])
    digest = hashlib.sha256()
    for point in evaluate_grid(cfg.traffic, cfg.link, 20, SearchGrid()):
        digest.update(repr((point.period, point.sp_slots, point.error)).encode())
        if point.report is not None:
            digest.update(emit.json_bytes(point.report.to_dict()))
            digest.update(point.report.pmf.mass.tobytes())
    assert digest.hexdigest() == DEFAULT_GRID_GOLDEN


def test_optimize_choices_are_byte_identical():
    cfg = load_config(None, [])  # the default 114.4 us slot and link
    digest = hashlib.sha256()
    for buffer_packets, interarrival, constraint in OPTIMIZE_CASES:
        traffic = TrafficSpec(rate=1.0 / interarrival, slot_time=cfg.traffic.slot_time)
        choice = optimize(traffic, cfg.link, buffer_packets, constraint)
        digest.update(emit.json_bytes(choice.to_dict()))
    assert len(OPTIMIZE_CASES) == 36
    assert digest.hexdigest() == OPTIMIZE_GOLDEN
