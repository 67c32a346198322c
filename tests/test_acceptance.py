"""Top-level acceptance checks for the walk engine, baselines, and analysis.

Each test prints exactly one ``[PASS]``/``[FAIL]`` line naming the criterion
and its tolerance before asserting, so a full run doubles as a report.  Run
with ``pytest tests/test_acceptance.py -v -s`` to see every line.
"""

import numpy as np
import pytest

from histwalk.analysis import find_peaks, smooth_distribution
from histwalk.classical import (
    BiasedCoin,
    CapitalMod3,
    HistoryCoins,
    capital_game_trajectory,
    classical_mean_trajectory,
    history_mix_trajectory,
    monte_carlo_trajectory,
)
from histwalk.operators import HistoryRhoTable, all_histories
from histwalk.state import new_state, position_distribution
from histwalk.walker import (
    build_initial_state,
    evolve,
    evolve_brun,
    run_sequence,
    scan_sequences,
    sweep_parameter,
)

from reference import fidelity, history_walk_transition, stationary_distribution

POSITIVE = 1e-9


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    return ok


def random_table(num_coins: int, rng) -> HistoryRhoTable:
    return HistoryRhoTable(
        num_coins, {h: float(rng.uniform()) for h in all_histories(num_coins)}
    )


def biased_games(history: str, rho: float) -> dict[str, HistoryRhoTable]:
    return {
        "A": HistoryRhoTable.uniform(3, 0.5),
        "B": HistoryRhoTable.with_overrides(3, 0.5, {history: rho}),
    }


def positive_patterns(history: str, rho: float) -> tuple[list[str], int]:
    results = scan_sequences(biased_games(history, rho), 4, 3, 100)
    winners = [p for p, mean in results.items() if mean > POSITIVE]
    return winners, len(results)


EVERY_MAXIMUM = float(np.finfo(float).eps)


def prominences(dist) -> list[tuple[int, float]]:
    """``(position, prominence)`` of every local maximum of ``dist``.

    The maxima are the ones :func:`find_peaks` reports with a floor of one
    machine epsilon of the top, so any maximum it leaves out has prominence
    below that.  A peak's prominence is its height above the higher of its
    two saddles; the saddle on each side is the lowest point between the peak
    and the nearest strictly higher point on that side (or the edge).
    """
    p = dist.probabilities
    index = {int(x): i for i, x in enumerate(dist.positions)}
    found = []
    for x, height in find_peaks(dist, EVERY_MAXIMUM).peaks:
        i = index[x]
        saddles = []
        for side in (p[i::-1], p[i:]):
            higher = np.flatnonzero(side > height)
            saddles.append(side[: higher[0] if higher.size else side.size].min())
        found.append((x, height - max(saddles)))
    return found


def test_a01_norm_is_preserved_by_random_conditional_tosses():
    rng = np.random.default_rng(101)
    worst = 0.0
    for num_coins in (1, 2, 3, 4):
        table = random_table(num_coins, rng)
        state = build_initial_state(num_coins, t_max=100)
        for _ in range(100):
            state = evolve(state, table, 1)
            worst = max(worst, abs(state.norm() - 1.0))
    ok = worst < 1e-12
    assert report(
        "A1", ok, f"norm drift over 100 tosses, registers 1..4: {worst:.3e} (< 1e-12)"
    ), f"norm drifted by {worst}"


def test_a02_half_retention_two_coin_cycle_returns_after_two_tosses():
    root_half = 2.0 ** -0.5
    initial = new_state(2, 2)
    initial.set_amplitude(0, "LR", root_half)
    initial.set_amplitude(0, "RL", -root_half)
    table = HistoryRhoTable.uniform(2, 0.5)

    once = evolve(initial, table, 1)
    expected = new_state(2, 2)
    expected.set_amplitude(1, "RL", 0.5)
    expected.set_amplitude(-1, "LL", 0.5j)
    expected.set_amplitude(-1, "LR", -0.5)
    expected.set_amplitude(1, "RR", -0.5j)
    mid_err = float(np.max(np.abs(once.amplitudes - expected.amplitudes)))

    twice = evolve(once, table, 1)
    overlap = fidelity(twice, initial)
    ok = mid_err < 1e-14 and overlap >= 1.0 - 1e-12
    assert report(
        "A2",
        ok,
        f"intermediate state error {mid_err:.3e} (< 1e-14), "
        f"return fidelity within {abs(1.0 - overlap):.3e} of 1 (>= 1-1e-12)",
    ), f"mid_err={mid_err}, fidelity={overlap}"


def test_a03_single_coin_walk_is_centered_with_the_known_envelope():
    state = build_initial_state(1, t_max=100)
    final = evolve(state, HistoryRhoTable.uniform(1, 0.5), 100)
    dist = position_distribution(final)
    mean = float(dist.positions @ dist.probabilities)

    odd_rows = final.amplitudes[1::2, :]  # odd x = odd row index offset from -t_max
    odd_mass = float(np.max(np.abs(odd_rows)))

    smoothed = smooth_distribution(dist, 5)
    peaks = find_peaks(smoothed, 0.1).peaks
    top_two = sorted(sorted(peaks, key=lambda p: -p[1])[:2])
    spots = [x for x, _ in top_two]
    pair_ok = (
        len(spots) == 2
        and spots[0] == -spots[1]
        and all(64 <= abs(x) <= 72 for x in spots)
    )
    ok = abs(mean) < 1e-10 and odd_mass == 0.0 and pair_ok
    assert report(
        "A3",
        ok,
        f"mean {mean:.3e} (< 1e-10), odd-site amplitude {odd_mass:.1e} (= 0), "
        f"dominant smoothed pair at {spots} (+-68 +- 4)",
    ), f"mean={mean}, odd={odd_mass}, pair={spots}"


ENVELOPE_PROMINENCE = 0.02


def test_a04_multi_coin_walks_show_one_extra_peak_per_coin():
    """The smoothed envelope has M+1 peaks, counted by topographic prominence.

    A height floor cannot count envelope peaks here: behind the ballistic
    front the distribution carries interference ripples, and for M=4 those
    at +-20 reach 0.217 of the maximum while M=2's front is only 0.131.  Both
    sit on the flank of a larger peak, though, so their prominence is small.
    On the window-5 smoothing, as a fraction of the maximum, every ripple has
    prominence <= 0.0081 (M=3, +-58) and every envelope peak >= 0.0616 (M=4,
    +-66).  ``ENVELOPE_PROMINENCE`` = 0.02 lies in that gap, about 2.5 times
    the strongest ripple and a third of the weakest envelope peak.  The test
    also asserts the gap: the weakest counted peak must be at least five
    times the strongest discarded one, so the count does not hinge on 0.02.
    """
    details = []
    ok = True
    weakest_kept, strongest_dropped = np.inf, 0.0
    for num_coins in (2, 3, 4):
        state = build_initial_state(num_coins, t_max=100)
        final = evolve(state, HistoryRhoTable.uniform(num_coins, 0.5), 100)
        smoothed = smooth_distribution(position_distribution(final), 5)
        top = float(smoothed.probabilities.max())
        spots = []
        for x, prominence in prominences(smoothed):
            share = prominence / top
            if share >= ENVELOPE_PROMINENCE:
                spots.append(x)
                weakest_kept = min(weakest_kept, share)
            else:
                strongest_dropped = max(strongest_dropped, share)
        count_ok = len(spots) == num_coins + 1
        center_ok = num_coins % 2 == 1 or any(abs(x) <= 2 for x in spots)
        outer_ok = 64 <= abs(spots[0]) <= 72 and 64 <= abs(spots[-1]) <= 72
        ok = ok and count_ok and center_ok and outer_ok
        details.append(
            f"M={num_coins}: {len(spots)} peaks at {spots} "
            f"(want {num_coins + 1}, outer +-68 +- 4)"
        )
    gap_ok = weakest_kept >= 5.0 * strongest_dropped
    ok = ok and gap_ok
    details.append(
        f"prominence gap: weakest kept {weakest_kept:.4f} >= 5 x strongest dropped "
        f"{strongest_dropped:.4f} of the maximum (threshold {ENVELOPE_PROMINENCE})"
    )
    assert report("A4", ok, "; ".join(details)), "; ".join(details)


def test_a05_cycled_coins_match_history_coins_only_when_equal():
    worst = 0.0
    for num_coins in (1, 2, 3):
        for rho in (0.1, 0.5, 0.9):
            initial = build_initial_state(num_coins, t_max=50)
            by_history = evolve(initial, HistoryRhoTable.uniform(num_coins, rho), 50)
            by_cycle = evolve_brun(initial, (rho,) * num_coins, 50)
            worst = max(
                worst, float(np.max(np.abs(by_history.amplitudes - by_cycle.amplitudes)))
            )

    start = build_initial_state(2, "allR", t_max=10)
    unequal = position_distribution(evolve_brun(start, (0.3, 0.9), 10)).as_dict()
    closest = np.inf
    for rho in np.linspace(0.0, 1.0, 21):
        same = position_distribution(
            evolve(start, HistoryRhoTable.uniform(2, float(rho)), 10)
        ).as_dict()
        gap = max(
            abs(unequal.get(x, 0.0) - same.get(x, 0.0)) for x in set(unequal) | set(same)
        )
        closest = min(closest, gap)
    ok = worst < 1e-12 and closest > 1e-3
    assert report(
        "A5",
        ok,
        f"equal-coin amplitude gap {worst:.3e} (< 1e-12), "
        f"unequal coins (0.3, 0.9) at least {closest:.3e} from any single-rho walk (> 1e-3)",
    ), f"worst={worst}, closest={closest}"


def test_a06_classical_limit_is_driftless_with_uniform_stationary_state():
    rng = np.random.default_rng(606)
    worst = 0.0
    for num_coins in (2, 3):
        for _ in range(10):
            means = classical_mean_trajectory(random_table(num_coins, rng), 1000)
            worst = max(worst, float(np.max(np.abs(means))))

    rho_l, rho_r = 0.3, 0.8
    matrix = history_walk_transition(HistoryRhoTable(2, {"L": rho_l, "R": rho_r}))
    expected = np.array(
        [
            [rho_l, 1.0 - rho_l, 0.0, 0.0],
            [0.0, 0.0, rho_r, 1.0 - rho_r],
            [1.0 - rho_l, rho_l, 0.0, 0.0],
            [0.0, 0.0, 1.0 - rho_r, rho_r],
        ]
    )
    matrix_err = float(np.max(np.abs(matrix - expected)))
    pi = stationary_distribution(matrix)
    pi_err = float(np.max(np.abs(pi.distribution - 0.25)))
    ok = worst < 1e-12 and matrix_err == 0.0 and not pi.flagged and pi_err < 1e-12
    assert report(
        "A6",
        ok,
        f"worst mean over 20 random tables, t <= 1000: {worst:.3e} (< 1e-12); "
        f"two-coin matrix error {matrix_err:.1e}; stationary gap {pi_err:.3e} (< 1e-12)",
    ), f"drift={worst}, matrix={matrix_err}, stationary={pi_err}"


def test_a07_rr_bias_loses_alone_and_wins_only_as_aab_or_aabb():
    """B loses alone, and exactly AAB and AABB have a positive mean.

    The walk defined here does not meet the "exactly" clause: AABA (+0.374)
    and ABBA (+0.045) win too.  The ``toss`` loop and the dense oracle in
    ``tests/reference.py`` give the engine's means, so the gap lies between
    this walk and the source of the expected set, whose tables are not in the
    repository.  The set is left as written until they are.
    """
    games = biased_games("RR", 0.55)
    initial = build_initial_state(3, t_max=100)
    b_mean = float(run_sequence(initial, games, "B", 100).means[-1])
    winners, scanned = positive_patterns("RR", 0.55)
    ok = b_mean < 0.0 and winners == ["AAB", "AABB"]
    assert report(
        "A7",
        ok,
        f"pattern B mean {b_mean:.6f} (< 0); winners among {scanned} patterns "
        f"(threshold 1e-9): {winners} (want ['AAB', 'AABB'])",
    ), f"B mean {b_mean}, winners {winners}"


def test_a08_lr_bias_wins_only_as_aaab():
    """Exactly AAAB has a positive mean.

    The walk defined here does not meet the "exactly" clause: AAB, AABB,
    BAAB and BABB win too (A7 says what is known of the gap).
    """
    winners, scanned = positive_patterns("LR", 0.6)
    ok = winners == ["AAAB"]
    assert report(
        "A8",
        ok,
        f"winners among {scanned} patterns (threshold 1e-9): {winners} (want ['AAAB'])",
    ), f"winners {winners}"


def test_a09_strong_rr_bias_has_no_winning_pattern():
    """No pattern of length <= 4 has a positive mean.

    The walk defined here does not meet this: AAB (+0.264) and AABA
    (+0.356) win (A7 says what is known of the gap).
    """
    winners, scanned = positive_patterns("RR", 0.65)
    ok = winners == []
    assert report(
        "A9",
        ok,
        f"winners among {scanned} patterns (threshold 1e-9): {winners} (want none)",
    ), f"winners {winners}"


def test_a10_opposite_biases_mirror_the_mean_and_share_the_spread():
    base = HistoryRhoTable.uniform(3, 0.5)
    grid = np.linspace(0.0, 1.0, 11)
    sweeps = {
        key: sweep_parameter(base, key, grid, 100) for key in ("RR", "LL", "LR", "RL")
    }
    worst_mean = 0.0
    worst_std = 0.0
    for a, b in (("LL", "RR"), ("LR", "RL")):
        for (_, left), (_, right) in zip(sweeps[a], sweeps[b]):
            worst_mean = max(worst_mean, abs(left.mean + right.mean))
            worst_std = max(worst_std, abs(left.std - right.std))
    ok = worst_mean < 1e-10 and worst_std < 1e-10
    assert report(
        "A10",
        ok,
        f"LL vs RR and LR vs RL over 11 grid points: mean negation gap "
        f"{worst_mean:.3e}, spread gap {worst_std:.3e} (both < 1e-10)",
    ), f"mean gap {worst_mean}, std gap {worst_std}"


def test_a11_classical_baselines_reproduce_the_known_signs():
    eps = 0.005
    plain = capital_game_trajectory(BiasedCoin(0.5 - eps), None, 100)[-1]
    keyed = capital_game_trajectory(
        {"B": CapitalMod3(0.1 - eps, 0.75 - eps)}, "B", 100
    )[-1]
    both = capital_game_trajectory(
        {"A": BiasedCoin(0.5 - eps), "B": CapitalMod3(0.1 - eps, 0.75 - eps)},
        "AABB",
        100,
    )[-1]
    history = history_mix_trajectory(
        {"B": HistoryCoins(0.9 - eps, 0.25 - eps, 0.25 - eps, 0.7 - eps)}, "B", 100
    )[-1]
    ok = plain < 0.0 and keyed < 0.0 and both > 0.0 and history < 0.0
    assert report(
        "A11",
        ok,
        f"eps=0.005, t=100: A {plain:.4f} (< 0), B {keyed:.4f} (< 0), "
        f"AABB {both:.4f} (> 0), last-two-results game {history:.4f} (< 0)",
    ), f"A={plain}, B={keyed}, AABB={both}, history={history}"


def test_a12_sampled_means_agree_with_exact_evolution():
    eps = 0.005
    n = 10**5
    coin = BiasedCoin(0.5 - eps)
    mod3 = CapitalMod3(0.1 - eps, 0.75 - eps)
    hist = HistoryCoins(0.9 - eps, 0.25 - eps, 0.25 - eps, 0.7 - eps)
    chain = random_table(2, np.random.default_rng(1212))
    scenarios = [
        ("A", coin, None, capital_game_trajectory(coin, None, 100)[-1], 1),
        ("B", {"B": mod3}, "B", capital_game_trajectory({"B": mod3}, "B", 100)[-1], 2),
        (
            "AABB",
            {"A": coin, "B": mod3},
            "AABB",
            capital_game_trajectory({"A": coin, "B": mod3}, "AABB", 100)[-1],
            42,
        ),
        ("history game", {"B": hist}, "B", history_mix_trajectory({"B": hist}, "B", 100)[-1], 3),
        ("random chain", chain, None, classical_mean_trajectory(chain, 100)[-1], 7),
    ]
    details = []
    ok = True
    for name, spec, pattern, exact, seed in scenarios:
        means, errors = monte_carlo_trajectory(spec, pattern, 100, n, seed)
        sampled, err = means[-1], errors[-1]
        gap = abs(sampled - exact)
        ok = ok and err > 0.0 and gap < 4.0 * err
        details.append(f"{name}: |{sampled:.4f} - {exact:.4f}| = {gap:.4f} < 4*{err:.4f}")
    assert report(
        "A12", ok, f"n={n}, t=100: " + "; ".join(details)
    ), "; ".join(details)
