"""Layer timings of the walk engine in one or more source trees, in alternating order.

Usage, from the repository root, where ``<n>`` numbers the measured change::

    python3 tools/layer_bench.py --tree parent=../histwalk-parent --tree change=. \
        --out BENCH_<n>.json

Each of ``ROUNDS`` rounds starts one fresh process per tree, in the order
given on even rounds and reversed on odd rounds, so host drift hits every
tree alike.  A process imports ``histwalk`` from ``<tree>/src``, timing that
first import as the layer ``import`` (one sample per process, taken after
NumPy is loaded).  It then sets up each of the benchmark's workloads
(``perfbench/workloads.py``) at ``SEED`` and runs the entries of one list in
:func:`measure`, each ``(what runs, what is timed)``.  What runs is a
workload's op or a call on the inputs its setup built.  What is timed is a
layer name, which times the whole call with no timers inside, or a dict
``{layer: (owner, attribute)}``, which sums the time spent in that
attribute's calls inside the op, with a timer around each call; the
attribute is patched where the caller looks it up and restored afterwards.
Every entry runs once to warm caches and then ``OPS`` times, one sample per
layer per op.

The ``import`` reading depends on whether the tree holds cached bytecode:
without ``__pycache__`` files, as when ``PYTHONDONTWRITEBYTECODE=1`` is set,
every process compiles the package again.  On a 2-core x86-64 host with
Python 3.11 and NumPy 2.4, ``import histwalk`` after ``numpy`` took 28-53 ms
with no ``.pyc`` files and 12-22 ms with them (9 fresh processes for each of
two trees), so compare trees only in the same state.

A process runs the list rotated left by its round number: round 0 starts
with its first entry, round 1 with its second, and so on; both trees of a
round run the same order.  In a fixed order a layer's reading can carry the
cost of what always ran before it.

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


def _time(run, timed, samples: dict[str, list[float]]) -> None:
    """Append to ``samples`` one sample per layer for each of ``OPS`` calls of ``run``.

    ``timed`` is a layer name, whose sample is the whole call, or a dict
    ``{layer: (owner, attribute)}``, whose samples are the seconds spent in
    each attribute's calls, summed over the call.
    """
    targets = timed if isinstance(timed, dict) else {}
    spent = dict.fromkeys(targets, 0.0)
    originals = {layer: getattr(owner, attr) for layer, (owner, attr) in targets.items()}

    def wrapped(layer, function):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                spent[layer] += time.perf_counter() - start

        return wrapper

    for layer, (owner, attr) in targets.items():
        setattr(owner, attr, wrapped(layer, originals[layer]))
    try:
        run()  # warm caches and lazy imports
        for _ in range(OPS):
            spent.update(dict.fromkeys(spent, 0.0))
            start = time.perf_counter()
            run()
            if not targets:
                spent[timed] = time.perf_counter() - start
            for layer, seconds in spent.items():
                samples.setdefault(layer, []).append(seconds)
    finally:
        for layer, (owner, attr) in targets.items():
            setattr(owner, attr, originals[layer])


def measure(round_: int = 0) -> dict[str, list[float]]:
    """Per-op seconds of every layer and call in the tree ``histwalk`` imports from.

    The first ``import histwalk`` is timed before anything else, as
    ``import``.  The entries of ``timings`` run in their order rotated left
    by ``round_`` places, so across rounds no layer always follows the same
    ones.
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
        classical = games.classical

        def dist():
            if cli_dist.op() != 0:
                raise RuntimeError("walk dist failed")

        # The walk that ``walk dist`` reads out, from the workload's config file.
        config = parse_config(cli_dist.config.read_text(encoding="utf-8"))
        walk = (walker.build_initial_state(config.num_coins, config.initial, config.steps),
                config.games, config.pattern, config.steps)
        sweep = (ops["pattern_scan_m3"].games["B"], SWEEP["key"],
                 np.linspace(0.0, 1.0, SWEEP["points"]), SWEEP["T"])
        always = {"A": classical.BiasedCoin(1.0), "B": classical.BiasedCoin(1.0)}
        mc = (CLASSICAL["mc_T"], CLASSICAL["mc_N"], games.mc_seed)
        timings = [
            # trajectory_m8 (M=8, T=200): ``_readout`` is the mean and std only.
            (trajectory, {"step": (kernel, "step"), "probabilities": (kernel, "probabilities"),
                          "readout": (walker, "_readout")}),
            # trajectory_m8's whole op.
            (trajectory, "run_sequence"),
            # pattern_scan_m3 (M=3, T=60): gathers, per-step norm sums, chunk readouts.
            (scan, {"scan_coefficients": (kernel, "_coefficients"),
                    "scan_readout": (walker, "_readouts"), "scan_norms": (kernel, "norms")}),
            # pattern_scan_m3's whole op.
            (scan, "scan_sequences"),
            # A sweep (T=1000, 21 points), which no workload runs: batch-loop costs on sweeps.
            (lambda: walker.sweep_parameter(*sweep), "sweep_parameter"),
            # The *_m3 walks show M=3's per-step fixed costs at cli_dist_m3's size.
            (lambda: walker.run_sequence(*walk),
             {"step_m3": (kernel, "step"), "probabilities_m3": (kernel, "probabilities"),
              "readout_m3": (walker, "_readout")}),
            # The same walk, whole.
            (lambda: walker.run_sequence(*walk), "run_sequence_m3"),
            # The walk as ``walk dist`` reads it out, once at the end.
            (lambda: walker.final_distribution(*walk), "final_distribution_m3"),
            # cli_dist_m3's op (``walk dist --peaks --emit-plot``): its smoothing.
            (dist, {"smooth": (analysis, "smooth_distribution")}),
            # cli_dist_m3's whole op.
            (dist, "walk_dist"),
            # classical_games' whole op, exact calls and Monte Carlo.
            (games.op, "classical_games"),
            # The op's exact capital call, the ``classical.capital`` span.
            (lambda: classical.capital_game_trajectory(
                games.capital_games, "AB", CLASSICAL["capital_T"]), "capital"),
            # The op's exact history call, the ``classical.history`` span.
            (lambda: classical.history_mix_trajectory(
                games.history_games, "AB", CLASSICAL["history_T"]), "history"),
            # The op's exact chain call, the ``classical.chain`` span.
            (lambda: classical.classical_mean_trajectory(
                games.chain_table, CLASSICAL["chain_T"]), "chain"),
            # Coins that always win never repeat a period: prices the repeat check.
            (lambda: classical.capital_game_trajectory(always, "AB", CLASSICAL["capital_T"]),
             "capital_never_repeats"),
            # The op's Monte Carlo call, whose game A has the same odds in every state.
            (lambda: classical.monte_carlo_trajectory(games.capital_games, "AB", *mc), "mc"),
            # The sampler on the M=8 chain table, whose odds vary by state.
            (lambda: classical.monte_carlo_trajectory(games.chain_table, None, *mc), "mc_chain"),
        ]
        shift = round_ % len(timings)
        for run, timed in timings[shift:] + timings[:shift]:
            _time(run, timed, samples)
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
