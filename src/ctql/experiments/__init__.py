from .checks import CheckResult, run_all_checks
from .ergodic import (ErgodicExperimentConfig, run_ergodic,
                      run_ergodic_replications)
from .mv import (MvExperimentConfig, lagrange_update, metrics_terminal,
                 run_mv, run_mv_replications)
from .records import RunRecord, aggregate_metrics, config_dict, write_summary

__all__ = [
    "CheckResult",
    "ErgodicExperimentConfig",
    "MvExperimentConfig",
    "RunRecord",
    "aggregate_metrics",
    "config_dict",
    "lagrange_update",
    "metrics_terminal",
    "run_all_checks",
    "run_ergodic",
    "run_ergodic_replications",
    "run_mv",
    "run_mv_replications",
    "write_summary",
]
