"""Correctness checks for one op's output, independent of histwalk's engines.

Tolerances follow ROADMAP: 1e-10 on moments and means, 1e-12 on
probabilities.  The walk oracle is the dense step matrix of
``tests/reference.py``: :func:`reference.dense_evolve` is applied directly
for the first few steps on a small grid, and the same dense matrix, built
on the smallest grid (one site each side), supplies the local blocks of a
nearest-neighbour stencil that follows every step on the full grid.  The
classical oracles are ``capital_mean_by_convolution`` and
``chain_mean_by_enumeration`` from the same file plus a naive enumeration of
the last-two-results game below.  Outputs for the seeds in ``frozen.json``
are also compared with the values this commit produced.
"""

from __future__ import annotations

import csv
import io
import json
import sys
import xml.etree.ElementTree as ET
from functools import lru_cache
from itertools import product
from pathlib import Path

import numpy as np

from workloads import (
    A_RHO, CLASSICAL, CLI, COIN_P, HISTORY, MOD3, SCAN, TRAJECTORY, draw_b,
)

MOMENT_TOL = 1e-10
PROB_TOL = 1e-12
MC_SIGMAS = 5.0
EARLY_STEPS = {3: 6, 8: 2}  # dense_evolve steps on a small grid, by register size
FROZEN_PATH = Path(__file__).with_name("frozen.json")
FROZEN_STEPS = (50, 100, 150, 200)


def _reference():
    root = Path(__file__).resolve().parent.parent
    tests = str(root / "tests")
    if tests not in sys.path:
        sys.path.insert(0, tests)
    import reference

    return reference


@lru_cache(maxsize=1)
def frozen() -> dict:
    return json.loads(FROZEN_PATH.read_text(encoding="utf-8")) if FROZEN_PATH.exists() else {}


# --- walk oracle -----------------------------------------------------------


def retention(seed: int, num_coins: int, game: str) -> np.ndarray:
    """Retention by history index, built from the inputs rather than the program."""
    if game == "A":
        return np.full(1 << (num_coins - 1), A_RHO)
    return np.array(draw_b(seed, num_coins))


def initial_amplitudes(num_coins: int, t_max: int) -> np.ndarray:
    """The documented antisymmetric start at the origin."""
    size = 1 << num_coins
    scale = 2.0 ** (-num_coins / 2.0)
    if num_coins % 2:
        column = np.array([(-1.0) ** bin(i).count("1") for i in range(size)]) * scale
    else:
        column = np.where(np.arange(size) < size // 2, scale, -scale)
    psi = np.zeros((2 * t_max + 1, size), dtype=np.complex128)
    psi[t_max] = column
    return psi


def _moments(psi: np.ndarray) -> tuple[float, float]:
    t_max = (psi.shape[0] - 1) // 2
    x = np.arange(-t_max, t_max + 1, dtype=float)
    p = (np.abs(psi) ** 2).sum(axis=1)
    mean = float(p @ x)
    return mean, float(np.sqrt(max(float(p @ (x * x)) - mean * mean, 0.0)))


def dense_early_moments(seed: int, num_coins: int, pattern: str, steps: int):
    """Moments after 0..steps tosses by ``reference.dense_evolve`` on a small grid."""
    ref = _reference()
    psi = initial_amplitudes(num_coins, steps)
    out = [_moments(psi)]
    for t in range(steps):
        psi = ref.dense_evolve(psi, num_coins, retention(seed, num_coins, pattern[t % len(pattern)]), 1)
        out.append(_moments(psi))
    return out


class Stencil:
    """One step of the dense oracle, applied as local blocks on any grid."""

    def __init__(self, num_coins: int, rho: np.ndarray):
        size = 1 << num_coins
        matrix = _reference().dense_step_matrix(num_coins, 1, rho)
        source = matrix[:, size : 2 * size]  # everything leaving the middle site
        self.moves = []
        for d in (-1, 0, 1):
            block = source[(1 + d) * size : (2 + d) * size]
            dst, src = np.nonzero(block)
            coef = block[dst, src]
            # Split into groups with distinct destinations so += never collides.
            while dst.size:
                _, first = np.unique(dst, return_index=True)
                self.moves.append((d, dst[first], src[first], coef[first]))
                keep = np.ones(dst.size, bool)
                keep[first] = False
                dst, src, coef = dst[keep], src[keep], coef[keep]

    def step(self, psi: np.ndarray) -> np.ndarray:
        out = np.zeros_like(psi)
        rows = psi.shape[0]
        for d, dst, src, coef in self.moves:
            lo, hi = max(0, -d), min(rows, rows - d)
            out[lo + d : hi + d, dst] += psi[lo:hi, src] * coef
        return out


def stencil_walk(seed: int, num_coins: int, pattern: str, steps: int, every: bool):
    """Final amplitudes and, when ``every``, the moments after each step."""
    stencils = {g: Stencil(num_coins, retention(seed, num_coins, g)) for g in set(pattern)}
    psi = initial_amplitudes(num_coins, steps)
    history = [_moments(psi)] if every else []
    for t in range(steps):
        psi = stencils[pattern[t % len(pattern)]].step(psi)
        if every:
            history.append(_moments(psi))
    return psi, history


# --- classical oracles -----------------------------------------------------


def capital_win(t: int, capital: int) -> float:
    if t % 2 == 0:
        return COIN_P
    return MOD3[0] if capital % 3 == 0 else MOD3[1]


def history_mean_by_enumeration(steps: int) -> float:
    """Mean capital of the AB mix of the coin and the last-two-results game.

    States are (before-last, last) results, 1 for a win, starting uniform.
    """
    dist = {(a, b): 0.25 for a in (0, 1) for b in (0, 1)}
    mean = 0.0
    for t in range(steps):
        nxt: dict = {}
        for (older, last), weight in dist.items():
            win = COIN_P if t % 2 == 0 else HISTORY[2 * older + last]
            mean += weight * (2.0 * win - 1.0)
            for result, prob in ((1, win), (0, 1.0 - win)):
                nxt[(last, result)] = nxt.get((last, result), 0.0) + weight * prob
        dist = nxt
    return mean


def chain_retention(seed: int) -> dict:
    num_coins = CLASSICAL["chain_M"]
    keys = ["".join(h) for h in product("LR", repeat=num_coins - 1)]
    return dict(zip(keys, draw_b(seed, num_coins)))


# --- checks ----------------------------------------------------------------


def _close(label, got, want, tol, problems):
    if not np.all(np.abs(np.asarray(got, float) - np.asarray(want, float)) <= tol):
        worst = float(np.max(np.abs(np.asarray(got, float) - np.asarray(want, float))))
        problems.append(f"{label}: off by {worst:.3g} (tolerance {tol:g})")


def check_trajectory(seed, payload, problems):
    M, T, pattern = TRAJECTORY["M"], TRAJECTORY["T"], TRAJECTORY["pattern"]
    means, stds = np.array(payload["means"]), np.array(payload["stds"])
    if means.shape != (T + 1,) or stds.shape != (T + 1,):
        problems.append("trajectory has the wrong length")
        return
    early = np.array(dense_early_moments(seed, M, pattern, EARLY_STEPS[M]))
    _close("early means vs dense_evolve", means[: len(early)], early[:, 0], MOMENT_TOL, problems)
    _close("early stds vs dense_evolve", stds[: len(early)], early[:, 1], MOMENT_TOL, problems)
    _, history = stencil_walk(seed, M, pattern, T, every=True)
    history = np.array(history)
    _close("means vs dense stencil", means, history[:, 0], MOMENT_TOL, problems)
    _close("stds vs dense stencil", stds, history[:, 1], MOMENT_TOL, problems)
    want = frozen().get("by_seed", {}).get(str(seed), {}).get("trajectory_m8")
    if want:
        _close("frozen means", means[list(FROZEN_STEPS)], want["means"], MOMENT_TOL, problems)
        _close("frozen stds", stds[list(FROZEN_STEPS)], want["stds"], MOMENT_TOL, problems)


def scan_patterns() -> list[str]:
    return sorted(
        "".join(p) for n in range(1, SCAN["max_len"] + 1) for p in product("AB", repeat=n)
    )


def check_scan(seed, payload, problems):
    means = payload["means"]
    patterns = scan_patterns()
    if sorted(means) != patterns:
        problems.append("scan returned the wrong set of patterns")
        return
    got = [means[p] for p in patterns]
    want = [_moments(stencil_walk(seed, SCAN["M"], p, SCAN["T"], every=False)[0])[0] for p in patterns]
    _close("scan means vs dense stencil", got, want, MOMENT_TOL, problems)
    frozen_means = frozen().get("by_seed", {}).get(str(seed), {}).get("pattern_scan_m3")
    if frozen_means:
        _close("frozen scan means", got, [frozen_means[p] for p in patterns], MOMENT_TOL, problems)


def check_classical(seed, payload, problems):
    ref = _reference()
    capital = payload["capital"]
    for k in (1, 2, 3, 30, 300):
        want = ref.capital_mean_by_convolution(capital_win, k)
        _close(f"capital mean at step {k}", capital[k], want, MOMENT_TOL, problems)
    history = payload["history"]
    for k in (1, 2, 3, 30, 300):
        _close(f"history mean at step {k}", history[k], history_mean_by_enumeration(k), MOMENT_TOL, problems)
    chain = payload["chain"]
    num_coins = CLASSICAL["chain_M"]
    uniform = {"".join(s): 1.0 / 2**num_coins for s in product("LR", repeat=num_coins)}
    for k in (1, 2, 3, 20):
        want = ref.chain_mean_by_enumeration(chain_retention(seed), k, uniform)
        _close(f"chain mean at step {k}", chain[k], want, MOMENT_TOL, problems)
    steps = CLASSICAL["mc_T"]
    exact = ref.capital_mean_by_convolution(capital_win, steps)
    mc_mean, mc_error = payload["mc_means"][steps], payload["mc_errors"][steps]
    if not abs(mc_mean - exact) <= MC_SIGMAS * mc_error:
        problems.append(f"Monte Carlo mean {mc_mean} is not within {MC_SIGMAS} errors of {exact}")
    fixed = frozen().get("fixed", {})
    if fixed:
        _close("frozen capital final", capital[-1], fixed["capital_final"], MOMENT_TOL, problems)
        _close("frozen history final", history[-1], fixed["history_final"], MOMENT_TOL, problems)
    want = frozen().get("by_seed", {}).get(str(seed), {}).get("classical_games")
    if want:
        _close("frozen chain final", chain[-1], want["chain_final"], MOMENT_TOL, problems)
        _close("frozen Monte Carlo", [mc_mean, mc_error], want["mc_final"], MOMENT_TOL, problems)


def _csv_rows(text: str) -> list[list[str]]:
    return [row for row in csv.reader(io.StringIO(text)) if row]


def check_cli(seed, payload, problems):
    if payload["code"] != 0:
        problems.append(f"walk dist exited with {payload['code']}")
        return
    rows = _csv_rows(payload["csv"])
    if not rows or rows[0] != ["x", "p"]:
        problems.append("distribution CSV is missing or has the wrong header")
        return
    xs = np.array([int(r[0]) for r in rows[1:]])
    ps = np.array([float(r[1]) for r in rows[1:]])
    T = CLI["T"]
    psi, _ = stencil_walk(seed, CLI["M"], CLI["pattern"], T, every=False)
    p = (np.abs(psi) ** 2).sum(axis=1)
    occupied = np.nonzero(p)[0]
    want_rows = np.arange(occupied[0], occupied[-1] + 1, 2 if len({int(i) & 1 for i in occupied}) == 1 else 1)
    if not np.array_equal(xs, want_rows - T):
        problems.append("distribution CSV covers the wrong positions")
        return
    # The CSV prints 12 decimals, so allow the half-unit of the last digit on top.
    _close("probabilities vs dense stencil", ps, p[want_rows], PROB_TOL + 5e-13, problems)
    peaks = _csv_rows(payload["peaks"])
    if not peaks or peaks[0] != ["position", "height"]:
        problems.append("peak CSV is missing or has the wrong header")
        return
    try:
        circles = [el for el in ET.fromstring(payload["svg"]).iter() if el.tag.endswith("circle")]
    except ET.ParseError:
        problems.append("SVG does not parse")
        return
    if len(circles) != len(xs):
        problems.append(f"SVG has {len(circles)} points for {len(xs)} CSV rows")
    want = frozen().get("by_seed", {}).get(str(seed), {}).get("cli_dist_m3")
    if want:
        got = [[int(r[0]), float(r[1])] for r in peaks[1:]]
        if [x for x, _ in got] != [x for x, _ in want["peaks"]]:
            problems.append("peak positions differ from the frozen ones")
        else:
            _close("frozen peak heights", [h for _, h in got], [h for _, h in want["peaks"]],
                   PROB_TOL + 5e-13, problems)


CHECKS = {
    "trajectory_m8": check_trajectory,
    "pattern_scan_m3": check_scan,
    "classical_games": check_classical,
    "cli_dist_m3": check_cli,
}


def check(workload: str, seed: int, payload: dict) -> list[str]:
    """Every way ``payload`` disagrees with the oracles or frozen values; empty if none."""
    problems: list[str] = []
    try:
        CHECKS[workload](seed, payload, problems)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        problems.append(f"malformed output: {exc!r}")
    return problems
