"""Longer coin memories reshape the walk's envelope between its twin towers.

All walks here are unbiased (retention 1/2 for every history) and start from
the history-averaged state, so every distribution is exactly symmetric.  What
changes is the register length M: the walk remembers its last M step results
and always retosses the oldest one.  The remembered results act like extra
interfering channels, moving probability from the two outer envelope towers
near +-0.68 t into structure closer to the origin.

Run:  python3 demos/memory_peaks.py
Writes demo_output/dist_mN.csv for N = 1..4 and one combined SVG.
"""

from pathlib import Path

from histwalk.analysis import analyze_peaks, symmetry_deviation
from histwalk.operators import HistoryRhoTable
from histwalk.output import emit_svg_plot, write_csv
from histwalk.state import position_distribution
from histwalk.walker import build_initial_state, evolve

STEPS = 100


def main() -> None:
    out_dir = Path("demo_output")
    out_dir.mkdir(exist_ok=True)

    csv_paths = []
    for num_coins in (1, 2, 3, 4):
        table = HistoryRhoTable.uniform(num_coins, 0.5)
        state = build_initial_state(num_coins, t_max=STEPS)
        dist = position_distribution(evolve(state, table, STEPS))

        report = analyze_peaks(dist, window=5, prominence=0.1)
        # Mirror-image peaks tie up to rounding dust: rank by height to 12
        # decimals, then by position, so the listing does not depend on it.
        ranked = sorted(report.peaks, key=lambda p: (-round(p[1], 12), p[0]))
        dominant = ", ".join(f"{x:+d} ({h:.3f})" for x, h in sorted(ranked[:4]))
        print(
            f"M = {num_coins}: {len(report.peaks)} smoothed peaks; "
            f"tallest at [{dominant}]"
        )
        print(f"        symmetry deviation {symmetry_deviation(dist):.1e}")

        path = out_dir / f"dist_m{num_coins}.csv"
        write_csv(("x", "p"), zip(dist.positions, dist.probabilities), path)
        csv_paths.append(path)

    print(
        "\nHow to read this: the memoryless walk (M=1) piles its mass into two"
        " towers\nnear +-0.68 t, with a jagged tail between them that leaves"
        " many small local\nmaxima above the 10% floor.  A second coin locks"
        " the towers in place and adds\none clean central peak.  A third adds"
        " inner pairs around +-22.  By M=4 the\nmass has moved so far inward"
        " that the far towers drop below the 10% floor and\nthe reported"
        " extrema cluster near the origin.  Peaks are counted after a\n"
        "5-point moving average; on raw data the even/odd staircase would"
        " swamp the count."
    )

    emit_svg_plot(csv_paths, out_dir / "memory_peaks.svg", style="line")
    print(f"\nWrote {len(csv_paths)} CSV files and demo_output/memory_peaks.svg.")


if __name__ == "__main__":
    main()
