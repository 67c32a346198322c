"""Quantum walks on the line whose coin depends on the recent step history.

A walker carries a register of its last ``num_coins`` step results.  Each
step retosses the oldest result with a retention amplitude chosen by the
newer results, moves the walker by the retossed value, and rotates the
register.  The package provides the unitary step operators, sequencing of
several games (retention tables) in cyclic patterns, the exact classical
Markov-chain limit, classical capital-game baselines, and distribution
analysis (smoothing, peak detection, symmetry checks), plus a CLI that
writes deterministic CSV and SVG artifacts.
"""

from .analysis import analyze_peaks, find_peaks, smooth_distribution, symmetry_deviation
from .classical import (
    BiasedCoin,
    CapitalMod3,
    HistoryCoins,
    capital_game_trajectory,
    classical_mean_trajectory,
    history_mix_trajectory,
    monte_carlo_trajectory,
)
from .config import ConfigError, RunConfig, parse_config
from .operators import HistoryRhoTable, all_histories
from .output import emit_svg_plot, write_csv
from .state import (
    HorizonError,
    MemoryLimitError,
    NormalizationError,
    moments,
    new_state,
    position_distribution,
)
from .walker import (
    ANTISYMMETRIC,
    POSITIVE_MEAN_THRESHOLD,
    build_initial_state,
    evolve,
    evolve_brun,
    final_distribution,
    run_sequence,
    scan_sequences,
    sweep_parameter,
)

__version__ = "0.1.0"

# What the CLI, the demos, README's examples, the benchmark and the acceptance
# checks import, plus the exceptions public calls raise.  Everything else, the
# step operators of the specification layer included, stays importable from
# its module; chain analysis that only the tests use (transition matrices,
# stationary distributions, state overlaps) lives in their reference oracles.
__all__ = [
    "ANTISYMMETRIC",
    "BiasedCoin",
    "CapitalMod3",
    "ConfigError",
    "HistoryCoins",
    "HistoryRhoTable",
    "HorizonError",
    "MemoryLimitError",
    "NormalizationError",
    "POSITIVE_MEAN_THRESHOLD",
    "RunConfig",
    "all_histories",
    "analyze_peaks",
    "build_initial_state",
    "capital_game_trajectory",
    "classical_mean_trajectory",
    "emit_svg_plot",
    "evolve",
    "evolve_brun",
    "final_distribution",
    "find_peaks",
    "history_mix_trajectory",
    "moments",
    "monte_carlo_trajectory",
    "new_state",
    "parse_config",
    "position_distribution",
    "run_sequence",
    "scan_sequences",
    "smooth_distribution",
    "sweep_parameter",
    "symmetry_deviation",
    "write_csv",
]
