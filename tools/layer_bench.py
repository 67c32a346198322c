"""Layer timings of the walk engine in one or more source trees, in alternating order.

Usage, from the repository root, where ``<n>`` numbers the measured change::

    python3 tools/layer_bench.py --tree parent=../histwalk-parent --tree change=. \
        --out BENCH_<n>.json

Each of ``ROUNDS`` rounds starts one fresh process per tree, in the order
given on even rounds and reversed on odd rounds, so host drift hits every
tree alike.  A process imports ``histwalk`` from ``<tree>/src``, timing that
first import as the layer ``import`` (one sample per process, taken after
NumPy is loaded), and then times ``OPS`` ops of each kind.  It sets up each of
the benchmark's workloads (``perfbench/workloads.py``) at ``SEED`` and times
their ops, or calls on the inputs they built (game A uniform at rho = 0.5,
game B drawn from the seed in [0.3, 0.7]).  With ``trajectory_m8``'s op
(M=8, T=200, pattern ``AAB``):

* ``step``, ``probabilities`` and ``readout``: the time one ``run_sequence``
  spends in ``_Kernel.step``, ``_Kernel.probabilities`` and ``_readout``
  (defined in ``state``, timed where ``walker`` looks it up), summed over its
  steps, with a timer around each call;
* ``run_sequence``: the whole op, with no timers inside;

with ``pattern_scan_m3``'s op (M=3, T=60, every pattern of up to 5 letters):

* ``scan_coefficients``: the time one ``scan_sequences`` spends in
  ``_Kernel._coefficients``, summed over its steps;
* ``scan_readout``: the time it spends reading its chunks out, in
  ``_readouts`` (defined in ``state``, timed where ``walker`` looks it up);
* ``scan_sequences``: the whole op, with no timers inside;

``sweep_parameter``: the whole call at ``SWEEP`` (T=1000, the scan's game B
with history ``RL`` set to each of 21 points over [0, 1]), which no
benchmark workload runs, so that a change to the batch loop shows on sweeps
too; and with ``cli_dist_m3`` (M=3, T=1000, pattern ``AAB``, its config
file), whose walk is read from that file as ``walk dist`` reads it:

* ``step_m3``, ``probabilities_m3`` and ``readout_m3``: the time one
  ``run_sequence`` of that walk spends in ``_Kernel.step``,
  ``_Kernel.probabilities`` and ``_readout``, timed like ``step``;
* ``run_sequence_m3``: the whole ``run_sequence`` call, with no timers
  inside;
* ``final_distribution_m3``: the whole ``final_distribution`` call, the
  walk ``walk dist`` reads out, with no timers inside;
* ``smooth``: the time one ``walk dist`` op spends in
  ``analysis.smooth_distribution``;
* ``walk_dist``: the whole op, ``cli.main`` for ``walk dist`` with
  ``--peaks`` and ``--emit-plot`` writing into a temporary directory, with
  no timers inside; it raises if the command exits nonzero;

and with the inputs ``classical_games`` builds (sizes
``CLASSICAL``, Parrondo's games ``COIN_P``, ``MOD3`` and ``HISTORY``, and the
M=8 game B as the chain's table):

* ``classical_games``: the benchmark's whole op, exact calls and Monte Carlo;
* ``capital``, ``history`` and ``chain``: one whole exact call each, the
  calls the benchmark's ``classical.capital/history/chain`` spans time;
* ``capital_never_repeats``: the exact capital call at the same T with two
  coins that always win, whose distribution never repeats one pattern period
  later, so the exact loop steps every time;
* ``mc``: the Monte Carlo call of the op, the ``classical.mc`` span, whose
  game A has the same odds in every state;
* ``mc_chain``: the sampler on the M=8 chain table at the same T and
  trajectory count, whose odds differ from state to state.

``readout`` and ``readout_m3`` time ``_readout``, which computes only the
mean and std: ``run_sequence`` sums each step's band and checks its norm
outside it, in time that only the whole call counts.

The ``import`` reading depends on whether the tree holds cached bytecode:
without ``__pycache__`` files, as when ``PYTHONDONTWRITEBYTECODE=1`` is set,
every process compiles the package again.  On a 2-core x86-64 host with
Python 3.11 and NumPy 2.4, ``import histwalk`` after ``numpy`` took 28-53 ms
with no ``.pyc`` files and 12-22 ms with them (9 fresh processes for each of
two trees), so compare trees only in the same state.

A process runs these timings in the order listed, rotated left by its round
number: round 0 starts with ``step``, round 1 with ``run_sequence``, and so
on; both trees of a round run the same order.  In a fixed order a layer's
reading can carry the cost of what always ran before it.

Times are wall-clock seconds per op.  The output gives each tree's median
and quartiles over every op of every round.  For each tree after the first
it gives the ratio of medians to the first tree, and the quartiles of the
per-round ratios: in each round, the median of the tree's ops over the
median of the first tree's ops.  Their spread shows how far one ratio can be
trusted on a noisy host.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from same_bytes import run_child, tree_parser  # noqa: E402
from workloads import CLASSICAL, CLI, SCAN, TRAJECTORY, WORKLOADS  # noqa: E402

ROUNDS = 10
OPS = 5
SEED = 7
SWEEP = {"T": 1000, "key": "RL", "points": 21}


def _layered(run, targets, samples: dict[str, list[float]]) -> None:
    """Time ``OPS`` calls of ``run``, with a timer around every call of each target.

    ``targets`` holds ``(owner, attribute, layer)`` triples; each op appends
    its summed seconds per layer to ``samples[layer]``.
    """
    spent = {layer: 0.0 for _, _, layer in targets}

    def timed(layer, function):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                spent[layer] += time.perf_counter() - start

        return wrapper

    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    for (owner, attr, function), (_, _, layer) in zip(originals, targets):
        setattr(owner, attr, timed(layer, function))
    try:
        run()  # warm caches and lazy imports
        for _ in range(OPS):
            spent.update(dict.fromkeys(spent, 0.0))
            run()
            for layer, seconds in spent.items():
                samples.setdefault(layer, []).append(seconds)
    finally:
        for owner, attr, function in originals:
            setattr(owner, attr, function)


def _whole(run, name: str, samples: dict[str, list[float]]) -> None:
    """Time ``OPS`` calls of ``run`` with no timers inside."""
    run()
    for _ in range(OPS):
        start = time.perf_counter()
        run()
        samples.setdefault(name, []).append(time.perf_counter() - start)


def measure(round_: int = 0) -> dict[str, list[float]]:
    """Per-op seconds of every layer and call in the tree ``histwalk`` imports from.

    The first ``import histwalk`` is timed before anything else, as
    ``import``.  The other timings run in the order listed in the module
    docstring, rotated left by ``round_`` places, so across rounds no layer
    always follows the same ones.
    """
    start = time.perf_counter()
    import histwalk  # noqa: F401

    samples: dict[str, list[float]] = {"import": [time.perf_counter() - start]}
    import histwalk.analysis as analysis
    import histwalk.operators as operators
    import histwalk.walker as walker
    from histwalk.config import parse_config

    kernel = operators._Kernel
    with tempfile.TemporaryDirectory() as temporary:
        ops = {name: workload(SEED, Path(temporary, name)) for name, workload in WORKLOADS.items()}
        for workload in ops.values():
            workload.setup()
        trajectory, scan = ops["trajectory_m8"].op, ops["pattern_scan_m3"].op
        games, cli_dist = ops["classical_games"], ops["cli_dist_m3"]

        def dist():
            if cli_dist.op() != 0:
                raise RuntimeError("walk dist failed")

        # The walk that ``walk dist`` reads out, from the workload's config file.
        config = parse_config(cli_dist.config.read_text(encoding="utf-8"))
        dist_initial = walker.build_initial_state(config.num_coins, config.initial, config.steps)

        def dist_walk():
            walker.run_sequence(dist_initial, config.games, config.pattern, config.steps)

        def dist_final():
            walker.final_distribution(dist_initial, config.games, config.pattern, config.steps)

        sweep_table = ops["pattern_scan_m3"].games["B"]
        sweep_grid = np.linspace(0.0, 1.0, SWEEP["points"])
        classical = games.classical
        always = {"A": classical.BiasedCoin(1.0), "B": classical.BiasedCoin(1.0)}
        runs = {
            "classical_games": games.op,
            "capital": lambda: classical.capital_game_trajectory(
                games.capital_games, "AB", CLASSICAL["capital_T"]
            ),
            "history": lambda: classical.history_mix_trajectory(
                games.history_games, "AB", CLASSICAL["history_T"]
            ),
            "chain": lambda: classical.classical_mean_trajectory(
                games.chain_table, CLASSICAL["chain_T"]
            ),
            "capital_never_repeats":
                lambda: classical.capital_game_trajectory(always, "AB", CLASSICAL["capital_T"]),
            "mc": lambda: classical.monte_carlo_trajectory(
                games.capital_games, "AB", CLASSICAL["mc_T"], CLASSICAL["mc_N"], games.mc_seed
            ),
            "mc_chain": lambda: classical.monte_carlo_trajectory(
                games.chain_table, None, CLASSICAL["mc_T"], CLASSICAL["mc_N"], games.mc_seed
            ),
        }
        timings = [
            lambda: _layered(
                trajectory,
                [(kernel, "step", "step"), (kernel, "probabilities", "probabilities"),
                 (walker, "_readout", "readout")],
                samples,
            ),
            lambda: _whole(trajectory, "run_sequence", samples),
            lambda: _layered(
                scan,
                [(kernel, "_coefficients", "scan_coefficients"),
                 (walker, "_readouts", "scan_readout")],
                samples,
            ),
            lambda: _whole(scan, "scan_sequences", samples),
            lambda: _whole(
                lambda: walker.sweep_parameter(sweep_table, SWEEP["key"], sweep_grid, SWEEP["T"]),
                "sweep_parameter",
                samples,
            ),
            lambda: _layered(
                dist_walk,
                [(kernel, "step", "step_m3"), (kernel, "probabilities", "probabilities_m3"),
                 (walker, "_readout", "readout_m3")],
                samples,
            ),
            lambda: _whole(dist_walk, "run_sequence_m3", samples),
            lambda: _whole(dist_final, "final_distribution_m3", samples),
            lambda: _layered(dist, [(analysis, "smooth_distribution", "smooth")], samples),
            lambda: _whole(dist, "walk_dist", samples),
        ]
        timings += [lambda name=name, run=run: _whole(run, name, samples)
                    for name, run in runs.items()]
        shift = round_ % len(timings)
        for timing in timings[shift:] + timings[:shift]:
            timing()
    return samples


def summary(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"p25": q1, "p50": median, "p75": q3, "n": len(values)}


def main(argv=None) -> int:
    parser = tree_parser(
        __doc__, "a source tree to time (repeat; the first is the base of the ratios)"
    )
    parser.add_argument("--out", help="write the result here as JSON (default: stdout only)")
    args = parser.parse_args(argv)
    trees = dict(args.tree)
    threads = str(len(os.sched_getaffinity(0)))
    # rounds[label][name] holds one list of op times per round.
    rounds: dict[str, dict[str, list[list[float]]]] = {label: {} for label in trees}
    for round_ in range(ROUNDS):
        order = list(trees) if round_ % 2 == 0 else list(reversed(trees))
        for label in order:
            timed = run_child("layer_bench", trees[label], round_,
                              OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
            for name, values in timed.items():
                rounds[label].setdefault(name, []).append(values)
    base = next(iter(trees))
    result = {
        "script": "tools/layer_bench.py",
        "host": {
            "cpus": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "settings": {
            "rounds": ROUNDS, "ops_per_process": OPS, "seed": SEED,
            "trajectory": TRAJECTORY, "scan": SCAN, "sweep": SWEEP, "dist": CLI,
            "classical": CLASSICAL,
            "unit": "s per op",
        },
        "trees": {
            label: {name: summary([v for ops in per_round for v in ops])
                    for name, per_round in by_name.items()}
            for label, by_name in rounds.items()
        },
    }
    others = [label for label in trees if label != base]
    result["ratio_of_medians_to_" + base] = {
        label: {
            name: result["trees"][label][name]["p50"] / result["trees"][base][name]["p50"]
            for name in result["trees"][label]
        }
        for label in others
    }
    result["per_round_ratio_to_" + base] = {
        label: {
            name: summary([
                statistics.median(ops) / statistics.median(base_ops)
                for ops, base_ops in zip(per_round, rounds[base][name])
            ])
            for name, per_round in rounds[label].items()
        }
        for label in others
    }
    text = json.dumps(result, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
