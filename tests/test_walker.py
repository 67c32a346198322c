"""Initial states, pattern sequencing, scans and parameter sweeps."""

import pickle
import string

import numpy as np
import pytest

import histwalk.state
import histwalk.walker
from histwalk.operators import HistoryRhoTable, all_histories
from histwalk.state import (
    HorizonError,
    NormalizationError,
    index_to_coins,
    new_state,
    position_distribution,
)
from histwalk.walker import (
    ALL_R,
    ANTISYMMETRIC,
    POSITIVE_MEAN_THRESHOLD,
    as_game_tables,
    build_initial_state,
    evolve,
    evolve_brun,
    final_distribution,
    run_sequence,
    scan_sequences,
    sweep_parameter,
)

from reference import complement, dense_step_matrix

UNBIASED_3 = HistoryRhoTable.uniform(3, 0.5)


class TestInitialStates:
    def test_an_empty_custom_start_is_refused(self):
        with pytest.raises(ValueError, match="^custom initial state needs at least one entry$"):
            build_initial_state(2, [], 3)

    def test_a_zero_horizon_walks_zero_steps_and_no_more(self):
        initial = build_initial_state(3, ANTISYMMETRIC, t_max=0)
        games = {"A": HistoryRhoTable.uniform(3, 0.3)}
        trajectory = run_sequence(initial, games, "A", 0)
        assert (trajectory.means.tolist(), trajectory.stds.tolist()) == ([0.0], [0.0])
        assert final_distribution(initial, games, "A", 0).as_dict() == {0: pytest.approx(1.0)}
        for walk in (run_sequence, final_distribution):
            with pytest.raises(HorizonError):
                walk(initial, games, "A", 1)
        with pytest.raises(HorizonError):
            evolve(initial, games["A"], 1)

    def test_single_coin_antisymmetric_state(self):
        state = build_initial_state(1, ANTISYMMETRIC, t_max=1)
        root_half = np.sqrt(0.5)
        assert state.amplitude(0, "L") == pytest.approx(root_half)
        assert state.amplitude(0, "R") == pytest.approx(-root_half)

    def test_two_coin_signs_follow_the_most_recent_entry(self):
        state = build_initial_state(2, ANTISYMMETRIC, t_max=1)
        assert state.amplitude(0, "LL") == pytest.approx(0.5)
        assert state.amplitude(0, "LR") == pytest.approx(0.5)
        assert state.amplitude(0, "RL") == pytest.approx(-0.5)
        assert state.amplitude(0, "RR") == pytest.approx(-0.5)

    def test_three_coin_signs_follow_the_r_count_parity(self):
        state = build_initial_state(3, ANTISYMMETRIC, t_max=1)
        scale = 2.0 ** -1.5
        for index in range(8):
            coins = index_to_coins(index, 3)
            expected = scale * (-1.0) ** coins.count("R")
            assert state.amplitude(0, coins) == pytest.approx(expected)

    @pytest.mark.parametrize("num_coins", [1, 2, 3, 4, 5])
    def test_antisymmetric_negates_under_the_global_swap(self, num_coins):
        state = build_initial_state(num_coins, ANTISYMMETRIC, t_max=1)
        for index in range(1 << num_coins):
            coins = index_to_coins(index, num_coins)
            assert state.amplitude(0, coins) == pytest.approx(
                -state.amplitude(0, complement(coins))
            )
        assert state.norm() == pytest.approx(1.0, abs=1e-15)

    def test_all_r_state(self):
        state = build_initial_state(3, ALL_R, t_max=1)
        assert state.amplitude(0, "RRR") == 1.0
        assert state.norm() == 1.0

    def test_custom_entries_are_normalized(self):
        state = build_initial_state(1, [(0, "L", 3.0), (0, "R", 4.0)], t_max=1)
        assert state.amplitude(0, "L") == pytest.approx(0.6)
        assert state.amplitude(0, "R") == pytest.approx(0.8)

    def test_custom_zero_norm_is_rejected(self):
        with pytest.raises(ValueError, match="zero norm"):
            build_initial_state(1, [(0, "L", 0.0)], t_max=1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_custom_non_finite_norm_is_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite norm"):
            build_initial_state(1, [(0, "L", bad), (0, "R", 1.0)], t_max=1)

    def test_custom_out_of_range_entry_is_rejected(self):
        with pytest.raises(IndexError):
            build_initial_state(1, [(5, "L", 1.0)], t_max=1)

    @pytest.mark.parametrize("x", [True, np.True_, 1.0, 0.5, np.float64(1), "1"])
    def test_custom_positions_must_be_integers(self, x):
        with pytest.raises(ValueError, match=r"^position must be an integer, got"):
            build_initial_state(1, [(x, "R", 1.0)], t_max=3)

    @pytest.mark.parametrize("x", [2.5, True])
    def test_custom_positions_are_refused_before_the_memory_guard(self, monkeypatch, x):
        # No grid fits in one byte, yet the position is named first.
        monkeypatch.setattr(histwalk.state, "physical_memory_bytes", lambda: 1)
        with pytest.raises(ValueError, match=r"^position must be an integer, got"):
            build_initial_state(1, [(0, "L", 0.6), (x, "R", 0.8)], t_max=3)

    @pytest.mark.parametrize("x", [True, np.True_, 1.0, 0.5, np.float64(1), "1"])
    @pytest.mark.parametrize("call", ["scan_sequences", "sweep_parameter"])
    def test_scans_and_sweeps_refuse_non_integer_positions_by_name(self, call, x):
        start = [(0, "LR", 0.6), (x, "RR", 0.8)]
        with pytest.raises(ValueError, match=r"^position must be an integer, got"):
            if call == "scan_sequences":
                scan_sequences({"A": HistoryRhoTable.uniform(2)}, 2, 2, 3, start)
            else:
                sweep_parameter(HistoryRhoTable.uniform(2), "R", [0.5], 3, start)

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ValueError, match=r"^kind = 'sideways' must be 'antisymmetric' or"):
            build_initial_state(1, "sideways", t_max=1)


class TestGameTables:
    def test_returns_the_letter_mapping_as_a_dict(self):
        games = {"A": UNBIASED_3}
        tables = as_game_tables(games)
        assert tables == games and type(tables) is dict

    def test_rejects_multi_letter_names(self):
        with pytest.raises(ValueError, match="single letter"):
            as_game_tables({"AB": UNBIASED_3})

    def test_rejects_mixed_register_sizes(self):
        with pytest.raises(ValueError, match="disagree"):
            as_game_tables({"A": UNBIASED_3, "B": HistoryRhoTable.uniform(2, 0.5)})

    def test_rejects_empty_collections(self):
        with pytest.raises(ValueError, match="no games"):
            as_game_tables({})


class TestRunSequence:
    def test_a_ballistic_walk_of_2000_steps_reads_out_a_zero_std_at_every_step(self):
        # Far from the origin the variance's rounding error grows with x**2;
        # here it is below -1e-10 from about step 1000 on.
        initial = build_initial_state(3, [(0, "RRR", (1 + 1j) / np.sqrt(2))], 2000)
        trajectory = run_sequence(initial, {"A": HistoryRhoTable.uniform(3, 1.0)}, "A", 2000)
        assert np.allclose(trajectory.means, np.arange(2001), rtol=0, atol=1e-9)
        assert not trajectory.stds.any()

    def test_unbiased_single_coin_stays_centered(self):
        initial = build_initial_state(1, ANTISYMMETRIC, t_max=100)
        trajectory = run_sequence(initial, {"A": HistoryRhoTable.uniform(1, 0.5)}, "A", 100)
        assert len(trajectory.means) == 101
        assert abs(trajectory.means[100]) < 1e-10

    def test_unbiased_three_coin_stays_centered(self):
        initial = build_initial_state(3, ANTISYMMETRIC, t_max=100)
        trajectory = run_sequence(initial, {"A": UNBIASED_3}, "A", 100)
        assert abs(trajectory.means[100]) < 1e-10

    def test_pattern_letters_apply_left_to_right_cyclically(self):
        left = HistoryRhoTable.uniform(1, 1.0)  # keeps L, steps left forever
        right = HistoryRhoTable.uniform(1, 0.0)  # flips each toss
        initial = build_initial_state(1, [(0, "L", 1.0)], t_max=6)
        trajectory = run_sequence(initial, {"A": left, "B": right}, "AAB", 6)
        # Deterministic path: A,A keep the current letter, B flips it, and the
        # freshly tossed letter is the step, so L,L,R,R,R,L from |L>.
        assert trajectory.means.tolist() == [0, -1, -2, -1, 0, 1, 0]

    def test_entry_zero_describes_the_initial_state(self):
        initial = build_initial_state(2, ANTISYMMETRIC, t_max=3)
        trajectory = run_sequence(initial, {"A": HistoryRhoTable.uniform(2)}, "A", 0)
        assert trajectory.means.tolist() == [0.0]
        assert trajectory.stds.tolist() == [0.0]

    def test_is_pure_and_deterministic(self):
        initial = build_initial_state(2, ANTISYMMETRIC, t_max=20)
        games = {"A": HistoryRhoTable.uniform(2, 0.5), "B": HistoryRhoTable.uniform(2, 0.7)}
        first = run_sequence(initial, games, "AB", 20)
        second = run_sequence(initial, games, "AB", 20)
        assert np.array_equal(first.means, second.means)
        assert initial.steps_taken == 0

    def test_pattern_repetition_matches_doubled_pattern(self):
        initial = build_initial_state(3, ANTISYMMETRIC, t_max=16)
        games = {
            "A": UNBIASED_3,
            "B": HistoryRhoTable.with_overrides(3, 0.5, {"RR": 0.55}),
        }
        single = run_sequence(initial, games, "AABB", 16)
        doubled = run_sequence(initial, games, "AABBAABB", 16)
        assert np.array_equal(single.means, doubled.means)

    def test_final_norm_stays_unit(self):
        initial = build_initial_state(3, ANTISYMMETRIC, t_max=50)
        games = {"B": HistoryRhoTable.with_overrides(3, 0.5, {"LR": 0.6})}
        run_sequence(initial, games, "B", 50)  # raises if norm drifts past 1e-9

    def test_rejects_unknown_letters_and_bad_steps(self):
        initial = build_initial_state(1, ANTISYMMETRIC, t_max=2)
        with pytest.raises(ValueError, match="undefined games"):
            run_sequence(initial, {"A": HistoryRhoTable.uniform(1)}, "AX", 2)
        with pytest.raises(ValueError, match="non-empty"):
            run_sequence(initial, {"A": HistoryRhoTable.uniform(1)}, "", 2)
        with pytest.raises(ValueError, match=">= 0"):
            run_sequence(initial, {"A": HistoryRhoTable.uniform(1)}, "A", -1)

    def test_undefined_letters_are_shown_in_one_short_line(self):
        initial = build_initial_state(1, ANTISYMMETRIC, t_max=2)
        with pytest.raises(ValueError) as refused:
            run_sequence(initial, {"A": HistoryRhoTable.uniform(1)}, string.ascii_letters, 2)
        shown = str(sorted(set(string.ascii_letters) - {"A"}))[:60]
        assert str(refused.value) == f"pattern uses undefined games {shown}... (255 characters)"

    def test_rejects_runs_past_the_horizon(self):
        initial = build_initial_state(1, ANTISYMMETRIC, t_max=3)
        with pytest.raises(HorizonError):
            run_sequence(initial, {"A": HistoryRhoTable.uniform(1)}, "A", 4)

    def test_rejects_register_size_mismatch(self):
        initial = build_initial_state(2, ANTISYMMETRIC, t_max=3)
        with pytest.raises(ValueError, match="coins"):
            run_sequence(initial, {"A": HistoryRhoTable.uniform(3)}, "A", 2)


class TestMirrorSymmetry:
    def test_complemented_table_reverses_the_distribution(self):
        table = HistoryRhoTable.with_overrides(3, 0.5, {"LL": 0.2, "LR": 0.7, "RL": 0.9})
        steps = 40
        initial = build_initial_state(3, ANTISYMMETRIC, t_max=steps)
        forward = run_sequence(initial, {"A": table}, "A", steps)
        mirrored = run_sequence(initial, {"A": table.mirrored()}, "A", steps)
        p = final_distribution(initial, {"A": table}, "A", steps)
        q = final_distribution(initial, {"A": table.mirrored()}, "A", steps)
        worst = max(abs(p.probability(x) - q.probability(-x)) for x in range(-steps, steps + 1))
        assert worst < 1e-10
        assert mirrored.means[steps] == pytest.approx(-forward.means[steps], abs=1e-10)
        assert mirrored.stds[steps] == pytest.approx(forward.stds[steps], abs=1e-10)

    def test_self_complementary_table_gives_symmetric_distribution(self):
        table = HistoryRhoTable.with_overrides(3, 0.5, {"LR": 0.8, "RL": 0.8, "LL": 0.3, "RR": 0.3})
        steps = 30
        dist = final_distribution(
            build_initial_state(3, ANTISYMMETRIC, t_max=steps), {"A": table}, "A", steps
        )
        worst = max(abs(dist.probability(x) - dist.probability(-x)) for x in range(0, steps + 1))
        assert worst < 1e-12


class TestEvolveHelpers:
    def test_evolve_applies_one_fixed_table(self):
        initial = build_initial_state(2, ANTISYMMETRIC, t_max=10)
        by_evolve = evolve(initial, HistoryRhoTable.uniform(2, 0.5), 10)
        by_sequence = run_sequence(initial, {"A": HistoryRhoTable.uniform(2, 0.5)}, "A", 10)
        assert by_evolve.steps_taken == 10
        assert by_sequence.means[10] == pytest.approx(0.0, abs=1e-12)

    def test_brun_walk_with_equal_coins_matches_history_walk(self):
        for num_coins, rho in ((1, 0.1), (2, 0.5), (3, 0.9)):
            initial = build_initial_state(num_coins, ANTISYMMETRIC, t_max=50)
            via_history = evolve(initial, HistoryRhoTable.uniform(num_coins, rho), 50)
            via_cycle = evolve_brun(initial, (rho,) * num_coins, 50)
            worst = np.max(np.abs(via_history.amplitudes - via_cycle.amplitudes))
            assert worst < 1e-12

    def test_brun_walk_with_unequal_coins_differs(self):
        initial = build_initial_state(2, [(0, "RR", 1.0)], t_max=10)
        cycled = evolve_brun(initial, (0.3, 0.9), 10)
        differences = []
        for rho in np.linspace(0.0, 1.0, 21):
            tabled = evolve(initial, HistoryRhoTable.uniform(2, rho), 10)
            p = np.abs(tabled.amplitudes) ** 2
            q = np.abs(cycled.amplitudes) ** 2
            differences.append(np.max(np.abs(p.sum(axis=1) - q.sum(axis=1))))
        assert min(differences) > 1e-3

    @pytest.mark.parametrize("scale", [2.0, 0.0])
    def test_a_start_whose_norm_is_not_one_is_rejected(self, scale):
        initial = build_initial_state(2, ANTISYMMETRIC, t_max=5)
        initial.amplitudes *= scale
        with pytest.raises(NormalizationError, match=f"state norm is {scale:g},"):
            evolve(initial, HistoryRhoTable.uniform(2, 0.5), 3)
        with pytest.raises(NormalizationError, match=f"state norm is {scale:g},"):
            evolve_brun(initial, (0.3, 0.9), 3)

    def test_a_start_within_the_norm_tolerance_is_evolved(self):
        initial = build_initial_state(2, ANTISYMMETRIC, t_max=5)
        initial.amplitudes *= 1.0 + 5e-10
        assert evolve(initial, HistoryRhoTable.uniform(2, 0.5), 3).steps_taken == 3
        assert evolve_brun(initial, (0.3, 0.9), 3).steps_taken == 3


class TestScanSequences:
    def test_enumerates_every_pattern_up_to_the_length_cap(self):
        games = {"A": UNBIASED_3, "B": UNBIASED_3}
        results = scan_sequences(games, 4, 3, 1)
        assert len(results) == 30
        assert list(results) == sorted(results)
        assert "AABB" in results and "B" in results

    def test_unbiased_games_scan_to_zero(self):
        games = {"A": UNBIASED_3, "B": UNBIASED_3}
        results = scan_sequences(games, 2, 3, 40)
        assert all(abs(v) < 1e-10 for v in results.values())

    def test_biased_game_scan_reproduces_frozen_means(self):
        games = {
            "A": UNBIASED_3,
            "B": HistoryRhoTable.with_overrides(3, 0.5, {"RR": 0.55}),
        }
        results = scan_sequences(games, 4, 3, 100)
        assert results["B"] == pytest.approx(-0.714015085318, abs=1e-9)
        assert results["AAB"] == pytest.approx(0.227768157273, abs=1e-9)
        assert results["AABB"] == pytest.approx(0.241703921459, abs=1e-9)
        positives = sorted(p for p, v in results.items() if v > POSITIVE_MEAN_THRESHOLD)
        assert positives == ["AAB", "AABA", "AABB", "ABBA"]

    @pytest.mark.parametrize(
        "history, rho, b_mean, winners",
        [
            ("LR", 0.6, -0.650546810500, ["AAAB", "AAB", "AABB", "BAAB", "BABB"]),
            ("RR", 0.65, -2.223113941360, ["AAB", "AABA"]),
        ],
    )
    def test_other_biased_scans_reproduce_frozen_winners(self, history, rho, b_mean, winners):
        games = {"A": UNBIASED_3, "B": HistoryRhoTable.with_overrides(3, 0.5, {history: rho})}
        results = scan_sequences(games, 4, 3, 100)
        assert results["B"] == pytest.approx(b_mean, abs=1e-9)
        positives = sorted(p for p, v in results.items() if v > POSITIVE_MEAN_THRESHOLD)
        assert positives == winners

    @pytest.mark.parametrize("history, rho", [("RR", 0.55), ("LR", 0.6), ("RR", 0.65)])
    def test_biased_scans_match_dense_steps(self, history, rho):
        games = {"A": UNBIASED_3, "B": HistoryRhoTable.with_overrides(3, 0.5, {history: rho})}
        steps = 40
        results = scan_sequences(games, 4, 3, steps)
        initial = build_initial_state(3, t_max=steps)
        matrices = {
            letter: dense_step_matrix(3, steps, table.retention_array())
            for letter, table in games.items()
        }
        for pattern, mean in results.items():
            psi = initial.amplitudes.reshape(-1)
            for t in range(steps):
                psi = matrices[pattern[t % len(pattern)]] @ psi
            weights = (np.abs(psi.reshape(initial.amplitudes.shape)) ** 2).sum(axis=1)
            assert mean == pytest.approx(float(initial.positions @ weights), abs=1e-10)

    def test_steps_each_primitive_schedule_once(self, monkeypatch):
        games = {
            "A": UNBIASED_3,
            "B": HistoryRhoTable.with_overrides(3, 0.5, {"RR": 0.55}),
            "C": HistoryRhoTable.with_overrides(3, 0.5, {"LR": 0.6}),
        }
        letter_of = {id(table): letter for letter, table in games.items()}
        played = []
        final_moments = histwalk.walker._final_moments

        def recording(initial, schedules, steps):
            schedules = list(schedules)
            played.extend("".join(letter_of[id(t)] for t in s) for s in schedules)
            return final_moments(initial, schedules, steps)

        monkeypatch.setattr(histwalk.walker, "_final_moments", recording)
        results = scan_sequences(games, 4, 3, 12)
        assert len(results) == 3 + 9 + 27 + 81
        # A pattern is primitive when no shorter pattern repeats to it; the
        # repeats are 3 of length 2, 3 of length 3 and 9 of length 4.
        primitive = [p for p in results if not any(
            len(p) % d == 0 and p == p[:d] * (len(p) // d) for d in range(1, len(p)))]
        assert played == primitive and len(played) == 120 - 15
        for pattern, mean in results.items():
            root = next(p for p in primitive if p * (len(pattern) // len(p)) == pattern)
            assert mean == results[root]

    def test_rejects_zero_length_cap(self):
        with pytest.raises(ValueError, match="max_len"):
            scan_sequences({"A": UNBIASED_3}, 0, 3, 1)

    def test_rejects_register_size_mismatch(self):
        with pytest.raises(ValueError, match="coins"):
            scan_sequences({"A": UNBIASED_3}, 1, 2, 1)


def never_called(*args, **kwargs):
    raise AssertionError("the size guard should have refused the run first")


class TestScanAndSweepSizeGuard:
    """Scans and sweeps too large for memory are refused before any work.

    The machine size is pinned so the outcome does not depend on the host,
    and pattern enumeration and walking are replaced by functions that fail,
    so a missing guard fails the test instead of starting a huge run.
    """

    @pytest.fixture(autouse=True)
    def sixteen_gib(self, monkeypatch):
        monkeypatch.setattr(histwalk.state, "physical_memory_bytes", lambda: 16 * 2**30)

    @pytest.fixture
    def no_work(self, monkeypatch):
        monkeypatch.setattr(histwalk.walker, "product", never_called)
        monkeypatch.setattr(histwalk.walker, "build_initial_state", never_called)

    @pytest.mark.parametrize("letters, max_len", [("AB", 40), ("AB", 10**9), ("A", 10**12)])
    def test_scan_too_large_is_refused_before_enumeration(self, no_work, letters, max_len):
        games = {letter: UNBIASED_3 for letter in letters}
        with pytest.raises(ValueError, match="physical memory"):
            scan_sequences(games, max_len, 3, 10)

    def test_sweep_too_large_is_refused_before_any_run(self, no_work):
        with pytest.raises(ValueError, match="physical memory"):
            sweep_parameter(UNBIASED_3, "RR", range(10**9), 10)

    def test_the_pattern_count_is_exact_at_the_limit(self, monkeypatch):
        # 2 + 4 + ... + 2**10 = 2046 patterns of (_RESULT_BYTES + 10) bytes.
        needed = 2046 * (histwalk.walker._RESULT_BYTES + 10)
        monkeypatch.setattr(histwalk.state, "physical_memory_bytes", lambda: needed)
        histwalk.walker._check_scan_size(2, 10)
        monkeypatch.setattr(histwalk.state, "physical_memory_bytes", lambda: needed - 1)
        with pytest.raises(ValueError, match="2046 patterns"):
            histwalk.walker._check_scan_size(2, 10)

    @pytest.mark.parametrize(
        "check, needed",
        [
            # 3 + 9 + 27 + 81 = 120 patterns, each charged 256 bytes plus 4 for its key.
            (lambda: histwalk.walker._check_scan_size(3, 4), 120 * (256 + 4)),
            (lambda: histwalk.walker._check_sweep_size(1000), 1000 * 256),
        ],
        ids=["scan", "sweep"],
    )
    def test_each_result_is_charged_256_bytes(self, monkeypatch, check, needed):
        monkeypatch.setattr(histwalk.state, "physical_memory_bytes", lambda: needed)
        check()
        monkeypatch.setattr(histwalk.state, "physical_memory_bytes", lambda: needed - 1)
        with pytest.raises(ValueError, match="physical memory"):
            check()

    def test_scans_and_sweeps_that_fit_run(self):
        assert len(scan_sequences({"A": UNBIASED_3, "B": UNBIASED_3}, 2, 3, 4)) == 6
        assert len(sweep_parameter(UNBIASED_3, "RR", [0.2, 0.4], 4)) == 2

    def test_no_guard_where_memory_size_is_unknown(self, monkeypatch):
        monkeypatch.setattr(histwalk.state, "physical_memory_bytes", lambda: None)
        histwalk.walker._check_scan_size(2, 10**9)
        histwalk.walker._check_sweep_size(10**12)


class TestSweepParameter:
    def test_unbiased_point_has_zero_mean(self):
        results = sweep_parameter(UNBIASED_3, "RR", [0.5], 100)
        (rho, stat), = results
        assert rho == 0.5
        assert abs(stat.mean) < 1e-10

    def test_biasing_the_rr_history_drives_the_mean_negative(self):
        (_, stat), = sweep_parameter(UNBIASED_3, "RR", [0.55], 100)
        assert stat.mean == pytest.approx(-0.714015085318, abs=1e-9)

    def test_mean_decreases_as_rr_retention_grows(self):
        results = sweep_parameter(UNBIASED_3, "RR", [0.3, 0.55, 0.7], 100)
        means = [stat.mean for _, stat in results]
        assert means[0] > means[1] > means[2]
        assert means == pytest.approx([2.465461937, -0.714015085, -3.037279108], abs=1e-8)

    def test_opposite_history_negates_the_mean_and_keeps_the_spread(self):
        grid = [0.3, 0.55, 0.7]
        rr = sweep_parameter(UNBIASED_3, "RR", grid, 100)
        ll = sweep_parameter(UNBIASED_3, "LL", grid, 100)
        for (_, stat_rr), (_, stat_ll) in zip(rr, ll):
            assert stat_ll.mean == pytest.approx(-stat_rr.mean, abs=1e-10)
            assert stat_ll.std == pytest.approx(stat_rr.std, abs=1e-10)

    @pytest.mark.parametrize("grid", [[0.5], []])
    def test_rejects_unknown_history_key(self, monkeypatch, grid):
        for name in ("_check_fits", "_new_state", "_Kernel"):
            monkeypatch.setattr(histwalk.walker, name, not_reached)
        with pytest.raises(ValueError, match="unknown history"):
            sweep_parameter(UNBIASED_3, "RRR", grid, 10)


def not_reached(*args, **kwargs):
    raise AssertionError("a bad count should have been refused before this call")


UNBIASED_2 = HistoryRhoTable.uniform(2, 0.5)


class TestCountArguments:
    """Step counts and ``max_len`` are integers: floats, bools and negatives
    are refused by name, before any size guard, grid or kernel."""

    RUNS = {
        "run_sequence": lambda start, steps: run_sequence(start, {"A": UNBIASED_2}, "A", steps),
        "final_distribution": lambda start, steps: final_distribution(
            start, {"A": UNBIASED_2}, "A", steps
        ),
        "evolve": lambda start, steps: evolve(start, UNBIASED_2, steps),
        "evolve_brun": lambda start, steps: evolve_brun(start, [0.3, 0.6], steps),
        "scan_sequences": lambda start, steps: scan_sequences({"A": UNBIASED_2}, 2, 2, steps),
        "sweep_parameter": lambda start, steps: sweep_parameter(UNBIASED_2, "R", [0.5], steps),
    }

    @pytest.fixture
    def start(self, monkeypatch):
        start = build_initial_state(2, ANTISYMMETRIC, t_max=5)
        for name in ("_check_fits", "_new_state", "_Kernel"):
            monkeypatch.setattr(histwalk.walker, name, not_reached)
        return start

    @pytest.mark.parametrize("steps", [2.5, 3.0, True, False, "3", None, np.float64(3), np.True_])
    @pytest.mark.parametrize("call", sorted(RUNS))
    def test_non_integer_steps_are_refused_by_name(self, start, call, steps):
        with pytest.raises(ValueError, match=r"^steps must be an integer, got"):
            self.RUNS[call](start, steps)

    @pytest.mark.parametrize("call", sorted(RUNS))
    def test_negative_steps_are_refused(self, start, call):
        with pytest.raises(ValueError, match=r"^steps must be >= 0, got -3$"):
            self.RUNS[call](start, -3)

    @pytest.mark.parametrize(
        "steps, message",
        [(-(10**400), "steps must be >= 0, got under -2**64"),
         ("1" * 5000, "steps must be an integer, got '" + "1" * 59 + "... (5002 characters)")],
        ids=["-10**400", "5,000 digits"],
    )
    @pytest.mark.parametrize("call", sorted(RUNS))
    def test_a_refused_count_is_echoed_short(self, start, call, steps, message):
        with pytest.raises(ValueError) as caught:
            self.RUNS[call](start, steps)
        assert str(caught.value) == message

    @pytest.mark.parametrize("max_len", [1.5, 2.0, True, "2", None])
    def test_non_integer_length_caps_are_refused_by_name(self, start, max_len):
        with pytest.raises(ValueError, match=r"^max_len must be an integer, got"):
            scan_sequences({"A": UNBIASED_2}, max_len, 2, 3)

    @pytest.mark.parametrize("call", sorted(RUNS))
    def test_numpy_integers_run_as_their_value(self, call):
        start = build_initial_state(2, ANTISYMMETRIC, t_max=5)
        want, got = self.RUNS[call](start, 4), self.RUNS[call](start, np.int32(4))
        assert pickle.dumps(got) == pickle.dumps(want)


class TestRegisterCounts:
    """``num_coins`` and ``t_max`` go through the one count rule: bools, floats
    and strings are refused by name before any memory check, grid or kernel."""

    UNBIASED_1 = HistoryRhoTable.uniform(1, 0.5)
    NUM_COINS = {
        "new_state": lambda n: new_state(n, 3),
        "build_initial_state": lambda n: build_initial_state(n, ANTISYMMETRIC, t_max=3),
        "all_histories": all_histories,
        "HistoryRhoTable": lambda n: HistoryRhoTable(n, {"": 0.5}),
        "HistoryRhoTable.uniform": HistoryRhoTable.uniform,
        "HistoryRhoTable.with_overrides": lambda n: HistoryRhoTable.with_overrides(n, 0.5, {}),
        "index_to_coins": lambda n: index_to_coins(0, n),
        # Game tables for one coin, so that True and 1.0 pass the size match.
        "scan_sequences": lambda n: scan_sequences({"A": TestRegisterCounts.UNBIASED_1}, 2, n, 3),
    }
    T_MAX = {
        "new_state": lambda t: new_state(2, t),
        "build_initial_state": lambda t: build_initial_state(2, ANTISYMMETRIC, t_max=t),
    }

    @pytest.fixture(autouse=True)
    def nothing_allocated(self, monkeypatch):
        monkeypatch.setattr(histwalk.state, "_check_fits", not_reached)
        for name in ("_check_fits", "_Kernel"):
            monkeypatch.setattr(histwalk.walker, name, not_reached)

    @pytest.mark.parametrize("value", [True, False, np.True_, 1.0, 2.0, np.float64(2), "2", None])
    @pytest.mark.parametrize("call", sorted(NUM_COINS))
    def test_non_integer_register_sizes_are_refused_by_name(self, call, value):
        with pytest.raises(ValueError, match=r"^num_coins must be an integer, got"):
            self.NUM_COINS[call](value)

    @pytest.mark.parametrize("call", sorted(NUM_COINS))
    def test_an_empty_register_is_refused(self, call):
        with pytest.raises(ValueError, match=r"^num_coins must be >= 1, got 0$"):
            self.NUM_COINS[call](0)

    @pytest.mark.parametrize("value", [True, np.True_, 3.0, "3", None])
    @pytest.mark.parametrize("call", sorted(T_MAX))
    def test_non_integer_horizons_are_refused_by_name(self, call, value):
        with pytest.raises(ValueError, match=r"^t_max must be an integer, got"):
            self.T_MAX[call](value)

    @pytest.mark.parametrize("call", sorted(T_MAX))
    def test_a_negative_horizon_is_refused(self, call):
        with pytest.raises(ValueError, match=r"^t_max must be >= 0, got -1$"):
            self.T_MAX[call](-1)

    def test_numpy_integers_are_stored_as_ints(self, monkeypatch):
        monkeypatch.setattr(histwalk.state, "_check_fits", lambda *args: None)
        state = new_state(np.int64(2), np.int32(3))
        table = HistoryRhoTable(np.int64(2), {"L": 0.5, "R": 0.5})
        assert (type(state.num_coins), type(state.t_max), type(table.num_coins)) == (int,) * 3
        assert index_to_coins(np.int64(2), np.int64(2)) == "RL"


class TestNonFiniteStates:
    """A state with a NaN amplitude fails the norm check of every walk and readout."""

    CALLS = {
        "run_sequence": lambda start: run_sequence(start, {"A": UNBIASED_2}, "A", 3),
        "final_distribution": lambda start: final_distribution(start, {"A": UNBIASED_2}, "A", 3),
        "evolve": lambda start: evolve(start, UNBIASED_2, 3),
        "evolve_brun": lambda start: evolve_brun(start, [0.3, 0.6], 3),
        "position_distribution": position_distribution,
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_a_nan_amplitude_is_refused(self, call):
        start = build_initial_state(2, ANTISYMMETRIC, t_max=5)
        start.amplitudes[start.t_max, 0] = np.nan
        with pytest.raises(NormalizationError, match="state norm is nan"):
            self.CALLS[call](start)
