"""Command line front end.

Exit codes: 0 on success, 1 for configuration or usage errors and for runs
refused as too large for physical memory (:func:`main` catches
``MemoryLimitError``), 2 for runtime failures.  All tabular output is CSV
(stdout unless ``--out`` is given) and plots are self-contained SVG files
rendered without any plotting dependency.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

import numpy as np

from .analysis import analyze_peaks
from .classical import _ENGINES, classical_mean_trajectory, monte_carlo_trajectory
from .config import ConfigError, RunConfig, _checked, parse_config
from .operators import HistoryRhoTable, _check_pattern
from .output import _STYLES, emit_svg_plot, write_csv
from .state import MemoryLimitError, _count, _echo
from .walker import (
    POSITIVE_MEAN_THRESHOLD,
    _check_sweep_size,
    build_initial_state,
    final_distribution,
    run_sequence,
    scan_sequences,
    sweep_parameter,
)


class _Parser(argparse.ArgumentParser):
    """Parser whose usage failures exit with code 1 (validation error)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {_echo(message, 200)}\n")


def _add_common(parser, plot_style=None):
    parser.add_argument("--config", required=True, help="path to a key=value config file")
    parser.add_argument("--out", help="output CSV path (default: stdout)")
    if plot_style is not None:
        parser.add_argument(
            "--emit-plot",
            metavar="PATH",
            help="also render the written CSV as an SVG chart (requires --out)",
        )
        parser.set_defaults(plot_style=plot_style)


def build_parser() -> argparse.ArgumentParser:
    """A new parser of every command; :func:`main` keeps one of its own."""
    parser = _Parser(prog="histwalk", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    walk = commands.add_parser("walk", help="multi-coin walk experiments")
    walk_sub = walk.add_subparsers(dest="subcommand", required=True)

    run = walk_sub.add_parser("run", help="trajectory of mean and spread per step")
    _add_common(run, plot_style="line")
    run.set_defaults(handler=_cmd_walk_run)

    dist = walk_sub.add_parser("dist", help="final position distribution")
    _add_common(dist, plot_style="scatter")
    dist.add_argument("--peaks", metavar="PATH", help="also write a peak-report CSV")
    dist.add_argument("--window", help="override the smoothing window")
    dist.add_argument("--prominence", help="override the peak threshold")
    dist.set_defaults(handler=_cmd_walk_dist)

    sweep = walk_sub.add_parser("sweep", help="final moments as one rho entry varies")
    _add_common(sweep, plot_style="line")
    sweep.add_argument("--param", required=True, help="history key to vary, e.g. RR")
    sweep.add_argument("--from", dest="sweep_from", type=float, required=True)
    sweep.add_argument("--to", dest="sweep_to", type=float, required=True)
    sweep.add_argument(
        "--steps", dest="grid_points", type=int, required=True,
        help="number of grid points, endpoints included",
    )
    sweep.set_defaults(handler=_cmd_walk_sweep)

    scan = walk_sub.add_parser("scan", help="final mean for every pattern up to a length")
    _add_common(scan)
    scan.add_argument("--max-len", dest="max_len", type=int, required=True)
    scan.set_defaults(handler=_cmd_walk_scan)

    classical = commands.add_parser("classical", help="classical baseline games")
    classical_sub = classical.add_subparsers(dest="subcommand", required=True)
    crun = classical_sub.add_parser("run", help="mean capital or position per step")
    _add_common(crun, plot_style="line")
    crun.add_argument(
        "--monte-carlo", dest="monte_carlo", type=int, metavar="N",
        help="sample N trajectories instead of evolving exactly; adds a stderr column",
    )
    crun.add_argument("--seed", help="override the config seed")
    crun.set_defaults(handler=_cmd_classical_run)

    plot = commands.add_parser("plot", help="render existing CSV files as one SVG")
    plot.add_argument("inputs", nargs="+", help="two-column CSV files")
    plot.add_argument("--out", required=True, help="SVG output path")
    plot.add_argument("--style", choices=_STYLES, default="line")
    plot.set_defaults(handler=_cmd_plot)

    return parser


@functools.cache
def _main_parser() -> argparse.ArgumentParser:
    """:func:`main`'s parser, built on its first call, not at import.

    Parsing leaves a parser as it was, so one serves every call; no caller is handed it.
    """
    return build_parser()


def _load_config(args) -> RunConfig:
    path = Path(args.config)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise ConfigError(f"cannot read config {_echo(str(path), 200)}: {exc.strerror}") from None
    keys = ("seed", "window", "prominence", "out")
    overrides = {key: getattr(args, key) for key in keys if getattr(args, key, None) is not None}
    config = parse_config(text, overrides)
    if getattr(args, "emit_plot", None) and not config.out:
        raise ConfigError("--emit-plot needs --out; the plot renders the written CSV")
    _check_outputs(
        [("--config", args.config)],
        [("out", config.out), ("--emit-plot", getattr(args, "emit_plot", None)),
         ("--peaks", getattr(args, "peaks", None))],
    )
    return config


def _check_outputs(inputs, outputs) -> None:
    """Refuse an empty output path, or one that names an input or another output.

    An output of None is not written; inputs may repeat.
    """
    named = {os.path.realpath(path): label for label, path in inputs}
    for label, path in outputs:
        if path == "":
            raise ConfigError(f"{label}: empty value")
        if path is not None:
            real = os.path.realpath(path)
            if real in named:
                raise ConfigError(
                    f"{named[real]} and {label} both name the file {_echo(path, 200)}"
                )
            named[real] = label


def _require_quantum(config: RunConfig, need: str = "walk commands") -> None:
    """Refuse a walk without ``M`` (required for ``need``) or a letter without a games.* table."""
    if config.num_coins is None:
        raise ConfigError(f"M is required for {need}")
    _checked(_check_pattern, config.pattern, config.games, where=" in games.*")


def _one_table(config: RunConfig, command: str, need: str) -> HistoryRhoTable:
    """The ``games.*`` table that ``command``'s single-letter pattern names."""
    _require_quantum(config, need)
    if len(config.pattern) != 1:
        raise ConfigError(f"{command} needs a single-letter pattern naming a games.* table")
    return config.games[config.pattern]


def _maybe_plot(args, config: RunConfig) -> None:
    if getattr(args, "emit_plot", None):
        emit_svg_plot([config.out], args.emit_plot, style=args.plot_style)


def _cmd_walk_run(args) -> None:
    config = _load_config(args)
    _require_quantum(config)
    initial = build_initial_state(config.num_coins, config.initial, config.steps)
    trajectory = run_sequence(initial, config.games, config.pattern, config.steps)
    # Python ints and floats, the cells that write_csv formats fastest.
    means, stds = trajectory.means.tolist(), trajectory.stds.tolist()
    write_csv(("t", "mean", "std"), zip(range(len(means)), means, stds), config.out)
    _maybe_plot(args, config)


def _cmd_walk_dist(args) -> None:
    config = _load_config(args)
    _require_quantum(config)
    initial = build_initial_state(config.num_coins, config.initial, config.steps)
    dist = final_distribution(initial, config.games, config.pattern, config.steps)
    # Python ints and floats, the cells that write_csv formats fastest.
    rows = zip(dist.positions.tolist(), dist.probabilities.tolist())
    write_csv(("x", "p"), rows, config.out)
    if args.peaks:
        report = analyze_peaks(dist, config.window, config.prominence)
        write_csv(("position", "height"), report.peaks, args.peaks)
    _maybe_plot(args, config)


def _cmd_walk_sweep(args) -> None:
    config = _load_config(args)
    table = _one_table(config, "walk sweep", "walk commands")
    try:
        for bound in (args.sweep_from, args.sweep_to):
            table.replaced(args.param, bound)
    except ValueError as exc:
        raise ConfigError(
            f"--param {_echo(repr(args.param))} --from {args.sweep_from} "
            f"--to {args.sweep_to}: {exc}"
        ) from None
    _check_sweep_size(_checked(_count, args.grid_points, "--steps", 1))
    grid = np.linspace(args.sweep_from, args.sweep_to, args.grid_points)
    results = sweep_parameter(table, args.param, grid, config.steps, config.initial)
    rows = [(rho, stat.mean, stat.std) for rho, stat in results]
    write_csv(("rho", "mean", "std"), rows, config.out)
    _maybe_plot(args, config)


def _cmd_walk_scan(args) -> None:
    config = _load_config(args)
    _require_quantum(config)
    _checked(_count, args.max_len, "--max-len", 1)
    results = scan_sequences(
        config.games, args.max_len, config.num_coins, config.steps, config.initial
    )
    rows = [
        (pattern, mean, 1 if mean > POSITIVE_MEAN_THRESHOLD else 0)
        for pattern, mean in results.items()
    ]
    write_csv(("pattern", "mean", "positive"), rows, config.out)


def _classical_games(config: RunConfig, allowed, engine: str):
    _checked(_check_pattern, config.pattern, config.classical_games, where=" in classical.*")
    games = {letter: config.classical_games[letter] for letter in sorted(set(config.pattern))}
    for letter, spec in games.items():
        if not isinstance(spec, allowed):
            raise ConfigError(
                f"classical.{letter} has a kind unusable with the {engine!r} engine"
            )
    return games


def _cmd_classical_run(args) -> None:
    config = _load_config(args)
    engine = config.classical_engine
    if engine is None:
        raise ConfigError("classical.engine is required for classical run")
    if engine == "rho-walk":
        subject = _one_table(config, "rho-walk", "the rho-walk engine")

        def exact(table, pattern, steps):  # the walk's chain plays no pattern
            return classical_mean_trajectory(table, steps)
    else:
        kinds, exact = _ENGINES[engine]
        subject = _classical_games(config, kinds, engine)

    if args.monte_carlo is not None:
        _checked(_count, args.monte_carlo, "--monte-carlo", 1)
        if config.seed is None:
            raise ConfigError("--monte-carlo needs a seed (flag --seed or config key)")
        means, errors = monte_carlo_trajectory(
            subject, config.pattern, config.steps, args.monte_carlo, config.seed
        )
        means, errors = means.tolist(), errors.tolist()
        write_csv(("t", "mean", "stderr"), zip(range(len(means)), means, errors), config.out)
    else:
        means = exact(subject, config.pattern, config.steps)
        write_csv(("t", "mean"), enumerate(means.tolist()), config.out)
    _maybe_plot(args, config)


def _cmd_plot(args) -> None:
    _check_outputs([("an input", path) for path in args.inputs], [("--out", args.out)])
    emit_svg_plot(args.inputs, args.out, style=args.style)


def main(argv=None) -> int:
    try:
        args = _main_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.handler(args)
        return 0
    except (ConfigError, MemoryLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not raises
        print(f"runtime error: {_echo(str(exc), 200)}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
