"""Regenerate frozen.json: final outputs of every workload for the committed seeds.

The values are the library's own outputs at the commit that defines the
benchmark; later commits are checked against them, so rerun this only when a
change of results is intended and reviewed.  Run from the repository root::

    python3 perfbench/freeze.py
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from checks import FROZEN_PATH, FROZEN_STEPS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = range(50)


def run(name: str, seed: int, workdir: Path) -> dict:
    workload = WORKLOADS[name](seed, workdir)
    workload.setup()
    return workload.payload(workload.op())


def main() -> int:
    workdir = HERE.parent / ".perfbench_out" / "freeze"
    by_seed = {}
    fixed = {}
    for seed in SEEDS:
        trajectory = run("trajectory_m8", seed, workdir)
        classical = run("classical_games", seed, workdir)
        cli = run("cli_dist_m3", seed, workdir)
        peaks = [[int(x), float(h)] for x, h in (line.split(",") for line in cli["peaks"].splitlines()[1:])]
        by_seed[str(seed)] = {
            "trajectory_m8": {
                "means": [trajectory["means"][t] for t in FROZEN_STEPS],
                "stds": [trajectory["stds"][t] for t in FROZEN_STEPS],
            },
            "pattern_scan_m3": run("pattern_scan_m3", seed, workdir)["means"],
            "classical_games": {
                "chain_final": classical["chain"][-1],
                "mc_final": [classical["mc_means"][-1], classical["mc_errors"][-1]],
            },
            "cli_dist_m3": {"peaks": peaks},
        }
        fixed = {"capital_final": classical["capital"][-1], "history_final": classical["history"][-1]}
        print(f"seed {seed} frozen", file=sys.stderr)
    shutil.rmtree(workdir, ignore_errors=True)
    FROZEN_PATH.write_text(
        json.dumps({"seeds": list(SEEDS), "fixed": fixed, "by_seed": by_seed}) + "\n",
        encoding="utf-8",
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
