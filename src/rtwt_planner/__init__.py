"""Planning toolkit for real-time flows in reserved periodic service windows.

Three coordinated views of the same system: a discrete-time queueing model
(`evaluate`), a continuous-time event simulator (`simulate`, `replicate`),
and a schedule search (`optimize`) that solves grid points densest first and
stops at the first feasible one; a target no point meets solves the whole grid.
The stage functions behind them (`slotify`, `build_chain`, `stationary`,
`delay_pmf`, `evaluate_grid`, ...) live in their submodules: `params`,
`model`, `optimizer`, `simulator`.
"""

from .config import ConfigError, RunConfig, default_yaml, load_config
from .model import DelayPmf, MetricsReport, ModelError, evaluate
from .optimizer import OptimalChoice, QosConstraint, SearchGrid, optimize
from .params import LinkSpec, RtwtSpec, TrafficSpec
from .simulator import SimConfig, SimReport, SimTimeLimitError, replicate, simulate

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DelayPmf",
    "LinkSpec",
    "MetricsReport",
    "ModelError",
    "OptimalChoice",
    "QosConstraint",
    "RtwtSpec",
    "RunConfig",
    "SearchGrid",
    "SimConfig",
    "SimReport",
    "SimTimeLimitError",
    "TrafficSpec",
    "default_yaml",
    "evaluate",
    "load_config",
    "optimize",
    "replicate",
    "simulate",
    "__version__",
]
