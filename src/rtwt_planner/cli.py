"""Command-line front end.

Subcommands: model (analytic metrics), simulate (event-driven check),
validate (model vs simulator along one axis), optimize (densest feasible
schedule), experiment (canned CSV bundles), emit-config (editable default
configuration).  Exit codes: 0 success, 2 configuration or usage error
(an unreadable or unwritable path included), 3 model error (a model too
large for memory, or a report that fails its bundled schema, included),
4 simulation time cap.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, RunConfig, default_yaml, load_config, parse_time
from .emit import SchemaError, csv_bytes, json_bytes, kv_text, table_text
from .experiments import (
    EXPERIMENTS,
    SWEEP_AXES,
    VALIDATION_HEADER,
    run_experiment,
    sweep_periods,
    validation_rows,
)
from .model import ModelError, evaluate
from .optimizer import optimize
from .simulator import SimTimeLimitError, replicate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MODEL = 3
EXIT_SIM = 4


def _add_common(sub: argparse.ArgumentParser, formats=("json", "table", "csv")) -> None:
    sub.add_argument("--config", metavar="PATH", help="YAML run configuration")
    sub.add_argument(
        "--set", dest="overrides", metavar="KEY=VALUE", action="append", default=[],
        help="override one config leaf (repeatable), e.g. --set rtwt.period='6 ms'",
    )
    if formats:  # a command that writes one report
        sub.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")
        sub.add_argument(
            "--format", choices=formats, default=formats[0],
            help=f"output format (default {formats[0]})",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rtwt-planner",
        description="Delay, loss, and capacity planning for periodic reserved service windows.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_model = subs.add_parser("model", help="analytic delay/loss metrics for one schedule")
    _add_common(p_model)
    p_model.add_argument(
        "--pmf", metavar="PATH", nargs="?", const="", default=None,
        help="also write the delay distribution CSV, on the slot grid (default delay_pmf.csv)",
    )
    p_model.add_argument(
        "--allow-coarse-slotting", action="store_true",
        help="accept schedules whose period lies >1%% off a whole number of slots "
        "(evaluated as a mixed run of shorter and longer cycles)",
    )

    p_sim = subs.add_parser("simulate", help="event-driven simulation of one schedule")
    _add_common(p_sim)
    p_sim.add_argument("--seed", type=int, help="override sim.seed")
    p_sim.add_argument("--trace", metavar="PATH", help="write the event trace CSV (single run only)")

    p_val = subs.add_parser("validate", help="model vs simulator along one parameter axis")
    _add_common(p_val, formats=("csv", "table", "json"))
    p_val.add_argument("--seed", type=int, help="override sim.seed")
    p_val.add_argument("--axis", choices=SWEEP_AXES, required=True)
    p_val.add_argument(
        "--values", required=True,
        help="comma-separated axis values; times need units ('1 ms,2 ms'), window sizes are integers",
    )

    p_opt = subs.add_parser("optimize", help="densest schedule meeting the QoS constraint")
    _add_common(p_opt)

    # no prefix matching, so a stray --out is an error rather than --out-dir
    p_exp = subs.add_parser("experiment", help="canned CSV bundles", allow_abbrev=False)
    _add_common(p_exp, formats=())
    p_exp.add_argument("name", choices=EXPERIMENTS)
    p_exp.add_argument("--seed", type=int, help="override sim.seed")
    p_exp.add_argument("--out-dir", metavar="DIR", default=".", help="directory for the CSV files")
    p_exp.add_argument(
        "--step", metavar="TIME", default=None,
        help="period step for the window-period sweep (default '1 ms')",
    )

    p_emit = subs.add_parser("emit-config", help="print the default configuration YAML")
    p_emit.add_argument("--out", metavar="PATH", help="write the YAML here instead of stdout")

    return parser


def _load(args: argparse.Namespace) -> RunConfig:
    text = None
    if args.config is not None:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        text = path.read_text()
    overrides = args.overrides
    if getattr(args, "seed", None) is not None:
        overrides = [*overrides, f"sim.seed={args.seed}"]  # last, so it wins over --set
    return load_config(text, overrides)


def _write(data: bytes, out: str | None) -> None:
    if out is None:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        Path(out).write_bytes(data)


def _report_bytes(payload: dict, fmt: str, schema: str | None) -> bytes:
    if fmt == "json":
        return json_bytes(payload, schema)
    if fmt == "table":
        return kv_text(list(payload.items())).encode()
    return csv_bytes(list(payload.keys()), [list(payload.values())])


def _progress(label: str) -> None:
    print(label, file=sys.stderr, flush=True)


def _cmd_model(args: argparse.Namespace) -> int:
    cfg = _load(args)
    report = evaluate(
        cfg.traffic, cfg.link, cfg.rtwt, cfg.buffer_packets,
        quantile=cfg.percentile_q, allow_coarse=args.allow_coarse_slotting,
    )
    data = _report_bytes(report.to_dict(), args.format, "model_report")
    # the CSV goes first: a path that cannot be written leaves no report
    # behind, and a report that cannot be written takes the CSV back
    pmf_path = None
    if args.pmf is not None:
        pmf_path = Path(args.pmf or (f"{args.out}.pmf.csv" if args.out else "delay_pmf.csv"))
        slot = cfg.traffic.slot_time
        rows = [
            [d, d * slot, prob]
            for d, prob in enumerate(report.pmf.mass.tolist())
        ]
        pmf_path.write_bytes(csv_bytes(["delay_slots", "delay_s", "probability"], rows))
    try:
        _write(data, args.out)
    except OSError:
        if pmf_path is not None:
            pmf_path.unlink(missing_ok=True)
        raise
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load(args)
    if args.trace is not None and cfg.sim_runs != 1:
        raise ConfigError("--trace needs sim.runs = 1 (one run per trace file)")
    report = replicate(
        cfg.traffic, cfg.link, cfg.rtwt, cfg.buffer_packets,
        cfg.sim, cfg.sim_runs, quantile=cfg.percentile_q,
        trace_path=args.trace,
    )
    try:
        _write(_report_bytes(report.to_dict(), args.format, "sim_report"), args.out)
    except (OSError, SchemaError):  # a report that cannot be written takes the trace back
        if args.trace is not None:
            Path(args.trace).unlink(missing_ok=True)
        raise
    return EXIT_OK


def _parse_axis_values(axis: str, text: str) -> list:
    items = [item.strip() for item in text.split(",") if item.strip()]
    if not items:
        raise ConfigError("--values is empty")
    if axis == "sp_slots":
        try:
            return [int(item) for item in items]
        except ValueError:
            raise ConfigError(f"--values for {axis} must be integers, got {text!r}") from None
    return [parse_time(item, "--values") for item in items]


def _cmd_validate(args: argparse.Namespace) -> int:
    cfg = _load(args)
    values = _parse_axis_values(args.axis, args.values)
    rows = validation_rows(cfg, args.axis, values, progress=_progress)
    if args.format == "csv":
        data = csv_bytes(VALIDATION_HEADER, rows)
    elif args.format == "table":
        data = table_text(VALIDATION_HEADER, rows).encode()
    else:
        data = json_bytes({"header": VALIDATION_HEADER, "rows": rows})
    _write(data, args.out)
    return EXIT_OK


def _cmd_optimize(args: argparse.Namespace) -> int:
    cfg = _load(args)
    choice = optimize(cfg.traffic, cfg.link, cfg.buffer_packets, cfg.constraint, cfg.grid)
    _write(_report_bytes(choice.to_dict(), args.format, "optimal_choice"), args.out)
    return EXIT_OK


def _cmd_experiment(args: argparse.Namespace) -> int:
    cfg = _load(args)
    step = parse_time(args.step, "--step") if args.step is not None else None
    sweep_periods(step)  # a rejected step leaves no --out-dir behind
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = run_experiment(args.name, cfg, period_step=step, progress=_progress)
    for item in files:
        path = out_dir / f"{item.stem}.csv"
        path.write_bytes(csv_bytes(item.header, item.rows))
        print(path)
    return EXIT_OK


def _cmd_emit_config(args: argparse.Namespace) -> int:
    _write(default_yaml().encode(), args.out)
    return EXIT_OK


_COMMANDS = {
    "model": _cmd_model,
    "simulate": _cmd_simulate,
    "validate": _cmd_validate,
    "optimize": _cmd_optimize,
    "experiment": _cmd_experiment,
    "emit-config": _cmd_emit_config,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SimTimeLimitError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_SIM
    except SchemaError as exc:
        print(f"report error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except (ModelError, ValueError) as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_MODEL


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
