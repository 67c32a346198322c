"""The classical coin-game counterpart: losing games that combine to win.

Two +1/-1 capital games, each slightly losing on its own, win when played in
the fixed rotation AABB.  Game A is a plain biased coin.  Game B consults the
current capital: a poor coin when the capital is a multiple of 3, a good one
otherwise; the alternation keeps the capital off the multiples of 3 where B
is weak.  A third game keyed on the results of the last two plays shows the
same construction with memory in place of capital.  Every mean here is exact:
each game is a 12-state chain over capital mod 3 and the last two results,
whose distribution is evolved step by step; a seeded Monte Carlo pass
cross-checks the means.

Run:  python3 demos/classical_games.py
Writes demo_output/capital_patterns.csv (+ SVG).
"""

from pathlib import Path

from histwalk.classical import (
    BiasedCoin,
    CapitalMod3,
    HistoryCoins,
    capital_game_trajectory,
    history_mix_trajectory,
    monte_carlo_trajectory,
)
from histwalk.output import emit_svg_plot, write_csv

EPS = 0.005
STEPS = 100


def main() -> None:
    out_dir = Path("demo_output")
    out_dir.mkdir(exist_ok=True)

    games = {
        "A": BiasedCoin(0.5 - EPS),
        "B": CapitalMod3(0.1 - EPS, 0.75 - EPS),
    }

    print(f"Capital games with a fairness offset of {EPS} per coin, {STEPS} rounds:\n")
    trajectories = {}
    for pattern in ("A", "B", "AB", "AABB"):
        means = capital_game_trajectory(games, pattern, STEPS)
        trajectories[pattern] = means
        verdict = "wins" if means[-1] > 0 else "loses"
        print(f"  {pattern:<4s} final mean = {means[-1]:+9.6f}   ({verdict})")

    print(
        "\nBoth A and B lose alone, yet AB and AABB gain steadily: the rotation"
        "\nspends more rounds on B's favorable branch than solo play would."
    )

    spec = HistoryCoins(0.9 - EPS, 0.25 - EPS, 0.25 - EPS, 0.7 - EPS)
    hist = history_mix_trajectory({"B": spec}, "B", STEPS)
    mixed = history_mix_trajectory({"A": games["A"], "B": spec}, "AABB", STEPS)
    print(
        "\nThe same trick works when the poor branch keys on the last two"
        " results\ninstead of the capital:"
    )
    print(f"  memory game alone:        final mean = {hist[-1]:+9.6f}   (loses)")
    print(f"  mixed with coin A (AABB): final mean = {mixed[-1]:+9.6f}   (wins)")

    print("\nSeeded Monte Carlo cross-check (100000 trajectories):")
    for label, spec_or_games, pattern, exact, seed in (
        ("AABB", games, "AABB", trajectories["AABB"][-1], 42),
        ("memory game", {"B": spec}, "B", hist[-1], 3),
    ):
        means, errors = monte_carlo_trajectory(spec_or_games, pattern, STEPS, 10**5, seed)
        sampled, err = means[-1], errors[-1]
        print(
            f"  {label:<12s} sampled {sampled:+9.6f} vs exact {exact:+9.6f}"
            f"   ({abs(sampled - exact) / err:.2f} standard errors apart)"
        )

    path = out_dir / "capital_patterns.csv"
    rows = [
        (t, trajectories["A"][t], trajectories["B"][t], trajectories["AABB"][t])
        for t in range(STEPS + 1)
    ]
    write_csv(("t", "A", "B", "AABB"), rows, path)
    emit_svg_plot([path], out_dir / "capital_patterns.svg", style="line")
    print(f"\nWrote {path} and its SVG rendering.")


if __name__ == "__main__":
    main()
