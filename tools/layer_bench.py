"""Layer timings of the walk engine in one or more source trees, in alternating order.

Usage, from the repository root::

    python3 tools/layer_bench.py --tree parent=../histwalk-parent --tree change=. \
        --out BENCH_6.json

Each of ``ROUNDS`` rounds starts one fresh process per tree, in the order
given on even rounds and reversed on odd rounds, so host drift hits every
tree alike.  A process imports ``histwalk`` from ``<tree>/src`` and times
``OPS`` ops of each kind, at the size of the benchmark's ``trajectory_m8``
workload (M=8, T=200, pattern ``AAB``, game A uniform at rho = 0.5, game B
drawn from ``SEED`` in [0.3, 0.7]):

* ``step``, ``probabilities`` and ``readout``: the time one ``run_sequence``
  spends in ``_Kernel.step``, ``_Kernel.probabilities`` and
  ``walker._readout``, summed over its steps, with a timer around each call;
* ``run_sequence``: the whole call, with no timers inside;

and at the size of ``pattern_scan_m3`` (M=3, T=60, every pattern of up to 5
letters) ``scan_sequences``: the whole call.  Times are wall-clock seconds
per op.  The output gives each tree's median and quartiles over every op of
every round, and the ratio of medians of each tree to the first one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

TRAJECTORY = {"M": 8, "T": 200, "pattern": "AAB"}
SCAN = {"M": 3, "T": 60, "max_len": 5}
LAYERS = ("step", "probabilities", "readout")
ROUNDS = 10
OPS = 5
SEED = 7


def _games(hw, seed: int, num_coins: int) -> dict:
    rng = np.random.default_rng([seed, num_coins])
    rho = rng.uniform(0.3, 0.7, size=1 << (num_coins - 1))
    return {
        "A": hw.HistoryRhoTable.uniform(num_coins, 0.5),
        "B": hw.HistoryRhoTable(num_coins, dict(zip(hw.all_histories(num_coins), rho))),
    }


def measure() -> dict[str, list[float]]:
    """Per-op seconds of every layer and call in the tree ``histwalk`` imports from."""
    import histwalk as hw
    import histwalk.operators as operators
    import histwalk.walker as walker

    games = _games(hw, SEED, TRAJECTORY["M"])
    initial = walker.build_initial_state(TRAJECTORY["M"], walker.ANTISYMMETRIC, TRAJECTORY["T"])

    def run():
        walker.run_sequence(initial, games, TRAJECTORY["pattern"], TRAJECTORY["T"])

    spent = dict.fromkeys(LAYERS, 0.0)

    def timed(layer, function):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                spent[layer] += time.perf_counter() - start

        return wrapper

    originals = (operators._Kernel.step, operators._Kernel.probabilities, walker._readout)
    names = (*LAYERS, "run_sequence", "scan_sequences")
    samples: dict[str, list[float]] = {name: [] for name in names}
    operators._Kernel.step = timed("step", originals[0])
    operators._Kernel.probabilities = timed("probabilities", originals[1])
    walker._readout = timed("readout", originals[2])
    try:
        run()  # warm caches and lazy imports
        for _ in range(OPS):
            spent.update(dict.fromkeys(LAYERS, 0.0))
            run()
            for layer in LAYERS:
                samples[layer].append(spent[layer])
    finally:
        operators._Kernel.step, operators._Kernel.probabilities, walker._readout = originals

    def whole(name, call):
        call()
        for _ in range(OPS):
            start = time.perf_counter()
            call()
            samples[name].append(time.perf_counter() - start)

    whole("run_sequence", run)
    scan_games = _games(hw, SEED, SCAN["M"])
    whole(
        "scan_sequences",
        lambda: walker.scan_sequences(scan_games, SCAN["max_len"], SCAN["M"], SCAN["T"]),
    )
    return samples


def _child(tree: str) -> dict[str, list[float]]:
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); sys.path.insert(0, sys.argv[2]);"
        "import layer_bench;"
        "print(json.dumps(layer_bench.measure()))"
    )
    source = str(Path(tree, "src").resolve())
    command = [sys.executable, "-c", code, str(Path(__file__).resolve().parent), source]
    threads = str(len(os.sched_getaffinity(0)))
    env = {**os.environ, "OMP_NUM_THREADS": threads, "OPENBLAS_NUM_THREADS": threads}
    env.pop("PYTHONPATH", None)
    done = subprocess.run(command, capture_output=True, text=True, env=env, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"p25": q1, "p50": median, "p75": q3, "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tree", action="append", required=True, metavar="LABEL=PATH",
        help="a source tree to time (repeat; the first is the base of the ratios)",
    )
    parser.add_argument("--out", help="write the result here as JSON (default: stdout only)")
    args = parser.parse_args(argv)
    trees = dict(item.split("=", 1) for item in args.tree)
    samples: dict[str, dict[str, list[float]]] = {label: {} for label in trees}
    for round_ in range(ROUNDS):
        order = list(trees) if round_ % 2 == 0 else list(reversed(trees))
        for label in order:
            for name, values in _child(trees[label]).items():
                samples[label].setdefault(name, []).extend(values)
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
            "trajectory": TRAJECTORY, "scan": SCAN, "unit": "s per op",
        },
        "trees": {
            label: {name: summary(values) for name, values in by_name.items()}
            for label, by_name in samples.items()
        },
    }
    result["ratio_of_medians_to_" + base] = {
        label: {
            name: result["trees"][label][name]["p50"] / result["trees"][base][name]["p50"]
            for name in result["trees"][label]
        }
        for label in trees if label != base
    }
    text = json.dumps(result, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
