"""Planning toolkit for real-time flows in reserved periodic service windows.

Three coordinated views of the same system: a discrete-time queueing model
(`evaluate`), a continuous-time event simulator (`simulate`, `replicate`),
and a schedule search (`optimize`) that solves grid points densest first and
stops at the first feasible one, skipping the delay distribution of points
whose stationary state already proves a miss.
The stage functions behind them (`slotify`, `build_chain`, `stationary`,
`delay_pmf`, `evaluate_grid`, ...) live in their submodules: `params`,
`model`, `optimizer`, `simulator`.

The public names below are imported on first use (PEP 562): importing the
package loads none of its submodules, and a name loads the module that
defines it with that module's imports.  The specs, `ModelError` and
`SimTimeLimitError` are defined in `params`, which loads no numpy.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOMES = {
    name: module
    for module, names in {
        "config": ("ConfigError", "RunConfig", "default_yaml", "load_config"),
        "model": ("DelayPmf", "MetricsReport", "evaluate"),
        "optimizer": ("OptimalChoice", "optimize"),
        "params": ("LinkSpec", "ModelError", "QosConstraint", "RtwtSpec", "SearchGrid",
                   "SimConfig", "SimTimeLimitError", "TrafficSpec"),
        "simulator": ("SimReport", "replicate", "simulate"),
    }.items()
    for name in names
}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str):
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
