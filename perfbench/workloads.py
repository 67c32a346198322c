"""The four workloads: inputs drawn from the seed, one op each, and its output.

Each workload is chosen to stress a different layer (see README.md).  The
seed draws every retention entry of game ``B`` (game ``A`` stays uniform at
rho = 0.5) and the Monte Carlo seed; the program only ever sees the tables
and config files built here.  Sizes keep one op near half a second on a
2-core host, so a 25-second run holds 25 to 60 ops.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

A_RHO = 0.5
B_RANGE = (0.3, 0.7)

TRAJECTORY = {"M": 8, "T": 200, "pattern": "AAB"}
SCAN = {"M": 3, "T": 60, "max_len": 5}
CLASSICAL = {
    "capital_T": 4000,
    "history_T": 5000,
    "chain_M": 8,
    "chain_T": 5000,
    "mc_T": 100,
    "mc_N": 50_000,
}
CLI = {"M": 3, "T": 1000, "pattern": "AAB"}

# Parrondo's games with epsilon = 0.005: a plain coin A, the capital-mod-3
# game B and the last-two-results game B.  Fixed, so these outputs do not
# depend on the seed.
COIN_P = 0.495
MOD3 = (0.095, 0.745)
HISTORY = (0.895, 0.245, 0.245, 0.695)


def draw_b(seed: int, num_coins: int) -> list[float]:
    """Retention entries of game B in history-index order, drawn from the seed."""
    rng = np.random.default_rng([seed, num_coins])
    return [float(v) for v in rng.uniform(*B_RANGE, size=1 << (num_coins - 1))]


def mc_seed(seed: int) -> int:
    return int(np.random.default_rng([seed, 0]).integers(2**31))


def walk_games(hw, seed: int, num_coins: int) -> dict:
    histories = hw.all_histories(num_coins)
    b = dict(zip(histories, draw_b(seed, num_coins)))
    return {
        "A": hw.HistoryRhoTable.uniform(num_coins, A_RHO),
        "B": hw.HistoryRhoTable(num_coins, b),
    }


def config_text(seed: int) -> str:
    """The walk-dist config file for the CLI workload."""
    from histwalk.operators import all_histories

    lines = [
        f"M = {CLI['M']}",
        f"T = {CLI['T']}",
        f"pattern = {CLI['pattern']}",
        f"games.A.rho.default = {A_RHO!r}",
    ]
    for history, rho in zip(all_histories(CLI["M"]), draw_b(seed, CLI["M"])):
        lines.append(f"games.B.rho.{history} = {rho!r}")
    return "\n".join(lines) + "\n"


class Workload:
    """Set-up, one op, the steps one op simulates, and a checkable payload."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def op(self):
        raise NotImplementedError

    def steps(self) -> int:
        raise NotImplementedError

    def payload(self, result) -> dict:
        """JSON-safe output that the checks read; its digest identifies the output."""
        raise NotImplementedError


def digest(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


class TrajectoryM8(Workload):
    name = "trajectory_m8"

    def setup(self):
        import histwalk.walker as walker
        import histwalk as hw

        self.walker = walker
        self.games = walk_games(hw, self.seed, TRAJECTORY["M"])
        self.initial = walker.build_initial_state(TRAJECTORY["M"], walker.ANTISYMMETRIC, TRAJECTORY["T"])

    def op(self):
        return self.walker.run_sequence(self.initial, self.games, TRAJECTORY["pattern"], TRAJECTORY["T"])

    def steps(self):
        return TRAJECTORY["T"]

    def payload(self, result):
        return {"means": result.means.tolist(), "stds": result.stds.tolist()}


class PatternScanM3(Workload):
    name = "pattern_scan_m3"

    def setup(self):
        import histwalk.walker as walker
        import histwalk as hw

        self.walker = walker
        self.games = walk_games(hw, self.seed, SCAN["M"])

    def op(self):
        return self.walker.scan_sequences(self.games, SCAN["max_len"], SCAN["M"], SCAN["T"])

    def steps(self):
        walks = sum(2**length for length in range(1, SCAN["max_len"] + 1))
        return SCAN["T"] * walks

    def payload(self, result):
        return {"means": {k: float(v) for k, v in result.items()}}


class ClassicalGames(Workload):
    name = "classical_games"

    def setup(self):
        import histwalk.classical as classical
        import histwalk as hw

        self.classical = classical
        self.capital_games = {
            "A": classical.BiasedCoin(COIN_P),
            "B": classical.CapitalMod3(*MOD3),
        }
        self.history_games = {
            "A": classical.BiasedCoin(COIN_P),
            "B": classical.HistoryCoins(*HISTORY),
        }
        self.chain_table = walk_games(hw, self.seed, CLASSICAL["chain_M"])["B"]
        self.mc_seed = mc_seed(self.seed)

    def op(self):
        c = self.classical
        return {
            "capital": c.capital_game_trajectory(self.capital_games, "AB", CLASSICAL["capital_T"]),
            "history": c.history_mix_trajectory(self.history_games, "AB", CLASSICAL["history_T"]),
            "chain": c.classical_mean_trajectory(self.chain_table, CLASSICAL["chain_T"]),
            "mc": c.monte_carlo_trajectory(
                self.capital_games, "AB", CLASSICAL["mc_T"], CLASSICAL["mc_N"], self.mc_seed
            ),
        }

    def steps(self):
        exact = CLASSICAL["capital_T"] + CLASSICAL["history_T"] + CLASSICAL["chain_T"]
        return exact + CLASSICAL["mc_T"] * CLASSICAL["mc_N"]

    def payload(self, result):
        means, errors = result["mc"]
        return {
            "capital": result["capital"].tolist(),
            "history": result["history"].tolist(),
            "chain": result["chain"].tolist(),
            "mc_means": means.tolist(),
            "mc_errors": errors.tolist(),
        }


class CliDistM3(Workload):
    name = "cli_dist_m3"

    def setup(self):
        import histwalk.cli as cli

        self.cli = cli
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.config = self.workdir / "dist.cfg"
        self.config.write_text(config_text(self.seed), encoding="utf-8")
        self.csv = self.workdir / "dist.csv"
        self.peaks = self.workdir / "peaks.csv"
        self.svg = self.workdir / "dist.svg"

    def op(self):
        return self.cli.main([
            "walk", "dist", "--config", str(self.config), "--out", str(self.csv),
            "--peaks", str(self.peaks), "--emit-plot", str(self.svg),
        ])

    def steps(self):
        return CLI["T"]

    def payload(self, result):
        # Read back and delete the files, so a later op that fails to write
        # one cannot pass on a stale copy.
        out = {"code": result}
        for key, path in (("csv", self.csv), ("peaks", self.peaks), ("svg", self.svg)):
            out[key] = path.read_text(encoding="utf-8") if path.exists() else ""
            path.unlink(missing_ok=True)
        return out


WORKLOADS = {w.name: w for w in (TrajectoryM8, PatternScanM3, ClassicalGames, CliDistM3)}
