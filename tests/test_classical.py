"""Classical-limit chain, capital games, and Monte-Carlo cross-checks."""

import re
import tracemalloc
from dataclasses import fields, replace
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import histwalk.classical
import histwalk.state
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
from histwalk.output import format_value
from histwalk.walker import ANTISYMMETRIC, build_initial_state, run_sequence

from reference import (
    capital_mean_by_convolution,
    chain_mean_by_enumeration,
    chain_mean_in_decimal,
    exact_means_every_step,
    history_mean_by_enumeration,
    history_states,
    history_walk_transition,
    sampled_means_allocating,
    stationary_distribution,
)

EPS = 0.005
COIN = BiasedCoin(0.5 - EPS)
MOD3 = CapitalMod3(0.1 - EPS, 0.75 - EPS)
HIST = HistoryCoins(0.9 - EPS, 0.25 - EPS, 0.25 - EPS, 0.7 - EPS)
ORACLE_TOL = 1e-12


class TestHistoryWalkChain:
    def test_states_are_chronological_oldest_first(self):
        assert history_states(2) == ["LL", "LR", "RL", "RR"]

    def test_two_coin_transition_matrix_entries(self):
        table = HistoryRhoTable(2, {"L": 0.3, "R": 0.8})
        matrix = history_walk_transition(table)
        expected = np.array(
            [
                [0.3, 0.7, 0.0, 0.0],
                [0.0, 0.0, 0.8, 0.2],
                [0.7, 0.3, 0.0, 0.0],
                [0.0, 0.0, 0.2, 0.8],
            ]
        )
        assert np.allclose(matrix, expected, atol=1e-15)

    def test_rows_and_columns_are_stochastic(self):
        rng = np.random.default_rng(3)
        for num_coins in (1, 2, 3):
            entries = {h: rng.uniform() for h in all_histories(num_coins)}
            matrix = history_walk_transition(HistoryRhoTable(num_coins, entries))
            assert np.allclose(matrix.sum(axis=1), 1.0, atol=1e-15)
            assert np.allclose(matrix.sum(axis=0), 1.0, atol=1e-15)

    @pytest.mark.parametrize("num_coins", [1, 2, 3, 4])
    def test_the_engine_chain_is_the_enumerated_transition_matrix(self, num_coins):
        rng = np.random.default_rng(30 + num_coins)
        for _ in range(5):
            table = HistoryRhoTable(num_coins, {h: rng.uniform() for h in all_histories(num_coins)})
            chain = histwalk.classical._walk_chain(table)
            rows = np.arange(chain.first.size)
            matrix = np.zeros((rows.size, rows.size))
            matrix[rows, chain.next[:, 0]] = chain.first
            matrix[rows, chain.next[:, 1]] = 1.0 - chain.first
            assert np.array_equal(matrix, history_walk_transition(table))
            assert np.allclose(matrix.sum(axis=1), 1.0, atol=1e-15)
            assert np.allclose(matrix.sum(axis=0), 1.0, atol=1e-15)
            # Each branch steps by its new letter, the low bit of the next state (R = 1).
            assert np.array_equal(chain.step, 2 * (chain.next & 1) - 1)

    def test_uniform_start_gives_zero_mean_for_any_table(self):
        rng = np.random.default_rng(7)
        for num_coins in (2, 3):
            for _ in range(10):
                entries = {h: rng.uniform() for h in all_histories(num_coins)}
                table = HistoryRhoTable(num_coins, entries)
                means = classical_mean_trajectory(table, 1000)
                assert np.max(np.abs(means)) < 1e-12

    def test_matches_brute_force_enumeration_from_a_biased_start(self):
        table = HistoryRhoTable(2, {"L": 0.3, "R": 0.8})
        start = {"RL": 0.5, "LL": 0.5}
        expected = chain_mean_by_enumeration(dict(table.rho), 12, start)
        means = classical_mean_trajectory(table, 12, initial=[0.5, 0.0, 0.5, 0.0])
        assert means[12] == pytest.approx(expected, abs=1e-12)

    def test_deterministic_table_marches_linearly(self):
        table = HistoryRhoTable(2, {"L": 1.0, "R": 1.0})
        means = classical_mean_trajectory(table, 10, initial=[0.0, 0.0, 0.0, 1.0])
        assert means.tolist() == pytest.approx(list(range(11)), abs=1e-14)

    def test_a_mapping_start_is_refused(self):
        # A start is a probability vector in row order, as for the history games.
        table = HistoryRhoTable(2, {"L": 0.3, "R": 0.8})
        with pytest.raises(ValueError, match="probability vector over chain states"):
            classical_mean_trajectory(table, 5, initial={"LR": 1.0})

    def test_rejects_bad_initial_distributions(self):
        table = HistoryRhoTable(2, {"L": 0.5, "R": 0.5})
        with pytest.raises(ValueError, match="probability vector"):
            classical_mean_trajectory(table, 1, initial=[0.5, 0.5])
        # NaN passes both the sign and the sum test, so it is refused on its own.
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="probability vector"):
                classical_mean_trajectory(table, 3, initial=[bad, 0.5, 0.25, 0.25])


class TestStationaryDistribution:
    def test_uniform_is_stationary_for_generic_tables(self):
        matrix = history_walk_transition(HistoryRhoTable(2, {"L": 0.3, "R": 0.8}))
        result = stationary_distribution(matrix)
        assert not result.flagged
        assert np.max(np.abs(result.distribution - 0.25)) < 1e-12

    def test_three_coin_random_table_settles_to_uniform(self):
        rng = np.random.default_rng(19)
        entries = {h: rng.uniform(0.05, 0.95) for h in all_histories(3)}
        matrix = history_walk_transition(HistoryRhoTable(3, entries))
        result = stationary_distribution(matrix)
        assert not result.flagged
        assert np.max(np.abs(result.distribution - 0.125)) < 1e-10
        # The chain is doubly stochastic, so the uniform start is already stationary.
        assert result.iterations == 1

    def test_identity_chain_is_flagged_not_averaged(self):
        result = stationary_distribution(np.eye(4))
        assert result.flagged
        assert "not unique" in result.reason

    def test_deterministic_cycle_is_flagged_as_periodic(self):
        matrix = history_walk_transition(HistoryRhoTable(2, {"L": 0.0, "R": 0.0}))
        result = stationary_distribution(matrix)
        assert result.flagged

    def test_rejects_non_stochastic_input(self):
        with pytest.raises(ValueError, match="sum to 1"):
            stationary_distribution(np.array([[0.5, 0.4], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="square"):
            stationary_distribution(np.ones((2, 3)))


class TestCapitalGames:
    def test_a_list_of_games_is_refused(self):
        message = "^games must be a non-empty letter mapping or a single spec$"
        with pytest.raises(TypeError, match=message):
            capital_game_trajectory([COIN], "A", 3)

    def test_fair_coin_stays_at_zero(self):
        means = capital_game_trajectory(BiasedCoin(0.5), None, 50)
        assert np.max(np.abs(means)) < 1e-13

    def test_slightly_losing_coin_loses_linearly(self):
        means = capital_game_trajectory(BiasedCoin(0.5 - EPS), None, 100)
        assert means[100] == pytest.approx(-1.0, abs=1e-12)

    def test_capital_keyed_game_alone_loses(self):
        game = CapitalMod3(0.1 - EPS, 0.75 - EPS)
        means = capital_game_trajectory({"B": game}, "B", 100)
        assert means[100] == pytest.approx(-1.392320168246, abs=1e-11)

    def test_alternating_two_losing_games_wins(self):
        games = {"A": BiasedCoin(0.5 - EPS), "B": CapitalMod3(0.1 - EPS, 0.75 - EPS)}
        means = capital_game_trajectory(games, "AABB", 100)
        assert means[100] == pytest.approx(1.391719451302, abs=1e-11)

    def test_matches_dictionary_convolution_reference(self):
        game = CapitalMod3(0.3, 0.8)

        def win_prob(t, capital):
            return 0.3 if capital % 3 == 0 else 0.8

        expected = capital_mean_by_convolution(win_prob, 25)
        means = capital_game_trajectory({"B": game}, "B", 25)
        assert means[25] == pytest.approx(expected, abs=1e-12)

    def test_negative_capital_uses_the_non_multiple_branch(self):
        # A forced loss reaches capital -1, which is not a multiple of 3, so
        # the next round must play p2 (a forced win back to zero).
        game = CapitalMod3(0.0, 1.0)
        means = capital_game_trajectory({"B": game}, "B", 3)
        assert means.tolist() == [0.0, -1.0, 0.0, -1.0]

    def test_fair_point_of_the_capital_keyed_game_is_a_constant_not_a_drift(self):
        # With the bias removed the game is asymptotically fair: the per-step
        # gain decays to zero and the mean settles near a small constant.
        means = capital_game_trajectory({"B": CapitalMod3(0.1, 0.75)}, "B", 10**4)
        assert means[-1] == pytest.approx(-0.520710059172, abs=1e-9)
        late_drift = means[-1] - means[-101]
        assert abs(late_drift) / 100 < 1e-12


class TestHistoryKeyedGames:
    def test_history_game_spec_orders_pairs_oldest_first(self):
        spec = HistoryCoins(0.1, 0.2, 0.3, 0.4)
        assert spec.as_array().tolist() == [0.1, 0.2, 0.3, 0.4]

    def test_biased_history_game_loses(self):
        spec = HistoryCoins(0.9 - EPS, 0.25 - EPS, 0.25 - EPS, 0.7 - EPS)
        means = history_mix_trajectory({"B": spec}, "B", 100)
        assert means[100] == pytest.approx(-1.048175352623, abs=1e-11)

    def test_unbiased_history_game_is_exactly_fair(self):
        spec = HistoryCoins(0.9, 0.25, 0.25, 0.7)
        means = history_mix_trajectory({"B": spec}, "B", 1000)
        per_step = np.diff(means)
        assert abs(per_step[-1]) < 1e-10
        assert abs(means[1000] - means[900]) < 1e-9

    def test_all_half_history_game_stays_at_zero(self):
        means = history_mix_trajectory({"B": HistoryCoins(0.5, 0.5, 0.5, 0.5)}, "B", 50)
        assert np.max(np.abs(means)) == 0.0

    def test_mixing_with_a_fair_coin_uses_the_pattern(self):
        spec = HistoryCoins(0.9 - EPS, 0.25 - EPS, 0.25 - EPS, 0.7 - EPS)
        mixed = history_mix_trajectory({"A": BiasedCoin(0.5 - EPS), "B": spec}, "AABB", 100)
        assert mixed[100] == pytest.approx(0.014975, abs=1e-11)

    def test_initial_pair_distribution_is_respected(self):
        spec = HistoryCoins(1.0, 0.0, 0.0, 1.0)
        means = history_mix_trajectory({"B": spec}, "B", 3, initial=[0, 0, 0, 1.0])
        # From (won, won) the game wins forever: +1 per step.
        assert means.tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_rejects_bad_initial_distributions(self):
        for bad in ([0.5, 0.5], [-0.5, 0.5, 0.5, 0.5], [np.nan, 0.5, 0.25, 0.25],
                    [np.inf, 0.5, 0.25, 0.25], [-np.inf, 0.5, 0.25, 0.25]):
            with pytest.raises(ValueError, match="probability vector over 4 result pairs"):
                history_mix_trajectory({"B": HIST}, "B", 5, initial=bad)

    def test_a_start_vector_may_miss_a_total_of_one_by_1e_12(self):
        near = [0.25, 0.25, 0.25, 0.25 + 5e-13]
        assert history_mix_trajectory({"B": HIST}, "B", 5, initial=near).shape == (6,)
        too_far = [0.25, 0.25, 0.25, 0.25 + 5e-12]
        with pytest.raises(ValueError, match="probability vector over 4 result pairs"):
            history_mix_trajectory({"B": HIST}, "B", 5, initial=too_far)

    def test_pattern_validation(self):
        with pytest.raises(ValueError, match="undefined games"):
            history_mix_trajectory({"A": BiasedCoin(0.5)}, "AB", 5)
        with pytest.raises(TypeError, match="history"):
            history_mix_trajectory({"A": CapitalMod3(0.5, 0.5)}, "A", 5)

    @pytest.mark.parametrize("pattern", ["", "AXB"])
    def test_bad_patterns_are_refused_as_in_walks(self, pattern):
        initial = build_initial_state(2, ANTISYMMETRIC, t_max=5)
        with pytest.raises(ValueError) as walk:
            run_sequence(initial, {"A": HistoryRhoTable.uniform(2)}, pattern, 5)
        with pytest.raises(ValueError) as game:
            capital_game_trajectory({"A": COIN}, pattern, 5)
        assert str(game.value) == str(walk.value)


class TestEngineKinds:
    """Each exact engine plays the kinds its table entry names and refuses the others."""

    KINDS = {"biased": COIN, "mod3": MOD3, "history": HIST}
    PLAYS = {
        "capital": (capital_game_trajectory, {"biased", "mod3"}),
        "history": (history_mix_trajectory, {"biased", "history"}),
    }

    def test_the_table_names_each_engine_its_kinds_and_run(self):
        table = histwalk.classical._ENGINES
        assert list(table) == ["capital", "history"]
        for engine, (run, kinds) in self.PLAYS.items():
            accepted, exact = table[engine]
            played = {name for name, spec in self.KINDS.items() if isinstance(spec, accepted)}
            assert (played, exact) == (kinds, run)

    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize("engine", sorted(PLAYS))
    def test_a_kind_off_the_table_is_refused(self, engine, kind):
        run, kinds = self.PLAYS[engine]
        games = {"B": self.KINDS[kind]}
        if kind in kinds:
            assert run(games, "B", 5).shape == (6,)
        else:
            with pytest.raises(TypeError, match=f"^game 'B' is not usable in a {engine} sequence$"):
                run(games, "B", 5)


class TestSpecRanges:
    @pytest.mark.parametrize("kind", [BiasedCoin, CapitalMod3, HistoryCoins])
    def test_each_field_is_checked_in_order(self, kind):
        names = [spec.name for spec in fields(kind)]
        for bad, name in enumerate(names):
            values = [0.5] * bad + [1.5] + [-0.5] * (len(names) - bad - 1)
            with pytest.raises(ValueError, match=rf"^{name} = 1.5 must lie in \[0, 1\]$"):
                kind(*values)
        for edge in (0.0, 1.0):
            assert kind(*[edge] * len(names)) == kind(**dict.fromkeys(names, edge))

    VALUES = {BiasedCoin: (0.45,), CapitalMod3: (0.1, 0.75), HistoryCoins: (0.9, 0.25, 0.25, 0.7)}

    @pytest.mark.parametrize(
        "spell", [str, np.float32, lambda value: True], ids=["str", "float32", "True"]
    )
    @pytest.mark.parametrize("kind", [BiasedCoin, CapitalMod3, HistoryCoins])
    def test_each_field_keeps_the_float_it_was_checked_as(self, kind, spell):
        given = [spell(value) for value in self.VALUES[kind]]
        spec, want = kind(*given), kind(*map(float, given))
        assert [type(getattr(spec, field.name)) for field in fields(kind)] == [float] * len(given)
        assert spec == want
        if kind is HistoryCoins:
            assert spec.as_array().tobytes() == want.as_array().tobytes()
        for kinds, run in histwalk.classical._ENGINES.values():
            if kind in kinds:
                assert run(spec, None, 30).tobytes() == run(want, None, 30).tobytes()
        got = monte_carlo_trajectory(spec, None, 30, 200, seed=3)
        sampled = monte_carlo_trajectory(want, None, 30, 200, seed=3)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in sampled]


class TestMonteCarlo:
    def test_is_reproducible_for_a_fixed_seed(self):
        first = monte_carlo_trajectory(BiasedCoin(0.4), None, 50, 2000, seed=9)
        second = monte_carlo_trajectory(BiasedCoin(0.4), None, 50, 2000, seed=9)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    def test_different_seeds_differ(self):
        a, _ = monte_carlo_trajectory(BiasedCoin(0.4), None, 50, 2000, seed=9)
        b, _ = monte_carlo_trajectory(BiasedCoin(0.4), None, 50, 2000, seed=10)
        assert not np.array_equal(a, b)

    def test_biased_coin_sample_mean_matches_exact_within_four_stderr(self):
        exact = capital_game_trajectory(BiasedCoin(0.45), None, 100)[100]
        means, errors = monte_carlo_trajectory(BiasedCoin(0.45), None, 100, 10**4, seed=2)
        mean, err = means[-1], errors[-1]
        assert abs(mean - exact) < 4 * err

    def test_pattern_game_sample_mean_matches_exact(self):
        games = {"A": BiasedCoin(0.5 - EPS), "B": CapitalMod3(0.1 - EPS, 0.75 - EPS)}
        exact = capital_game_trajectory(games, "AABB", 100)[100]
        means, errors = monte_carlo_trajectory(games, "AABB", 100, 10**4, seed=42)
        mean, err = means[-1], errors[-1]
        assert abs(mean - exact) < 4 * err

    def test_history_walk_chain_sample_agrees_with_exact_zero_drift(self):
        table = HistoryRhoTable(2, {"L": 0.3, "R": 0.8})
        means, errors = monte_carlo_trajectory(table, None, 100, 10**4, seed=7)
        mean, err = means[-1], errors[-1]
        assert err > 0
        assert abs(mean) < 4 * err

    def test_history_game_sample_agrees_with_exact(self):
        spec = HistoryCoins(0.9 - EPS, 0.25 - EPS, 0.25 - EPS, 0.7 - EPS)
        exact = history_mix_trajectory({"B": spec}, "B", 100)[100]
        means, errors = monte_carlo_trajectory({"B": spec}, "B", 100, 10**4, seed=3)
        mean, err = means[-1], errors[-1]
        assert abs(mean - exact) < 4 * err

    def test_validates_arguments(self):
        with pytest.raises(ValueError, match="n_trajectories"):
            monte_carlo_trajectory(BiasedCoin(0.5), None, 10, 0, seed=1)
        with pytest.raises(ValueError, match="steps"):
            monte_carlo_trajectory(BiasedCoin(0.5), None, -1, 10, seed=1)


class TestFrozenDraws:
    """Seeded samples pinned to the draw order: one start draw, then one per step."""

    @pytest.mark.parametrize(
        "spec, pattern, frozen",
        [
            pytest.param(
                HistoryRhoTable(3, {"LL": 0.2, "LR": 0.9, "RL": 0.35, "RR": 0.7}),
                None,
                [
                    (1, 0.015, 0.022363755694971985),
                    (10, 0.024, 0.07169576097002203),
                    (50, -0.069, 0.16634438592078687),
                ],
                id="walk-m3",
            ),
            pytest.param(
                COIN,
                None,
                [
                    (1, -0.014, 0.022364080040055728),
                    (10, -0.078, 0.07081995292900464),
                    (50, -0.574, 0.16109077291564305),
                ],
                id="coin",
            ),
            pytest.param(
                {"A": COIN, "B": MOD3},
                "AABB",
                [
                    (1, -0.014, 0.022364080040055728),
                    (10, 0.047, 0.06442026455427377),
                    (50, 0.56, 0.15079976884976506),
                ],
                id="coin-mod3-AABB",
            ),
            pytest.param(
                {"B": HIST},
                "B",
                [
                    (1, 0.059, 0.022327309609023398),
                    (10, -0.044, 0.07244070560060797),
                    (50, -0.624, 0.16656885841085706),
                ],
                id="history",
            ),
            pytest.param(
                {"A": COIN, "B": MOD3, "C": HIST},
                "ABCC",
                [
                    (1, -0.014, 0.022364080040055728),
                    (10, 0.532, 0.07263005963636124),
                    (50, 0.387, 0.15409733448131774),
                ],
                id="three-kinds-ABCC",
            ),
        ],
    )
    def test_seeded_means_and_errors_are_unchanged(self, spec, pattern, frozen):
        means, errors = monte_carlo_trajectory(spec, pattern, 50, 2000, seed=5)
        for t, mean, error in frozen:
            assert means[t] == mean
            assert errors[t] == error


PROBS = st.floats(0.0, 1.0)
CAPITAL_SPECS = st.one_of(st.builds(BiasedCoin, PROBS), st.builds(CapitalMod3, PROBS, PROBS))
HISTORY_SPECS = st.one_of(
    st.builds(BiasedCoin, PROBS), st.builds(HistoryCoins, PROBS, PROBS, PROBS, PROBS)
)


@st.composite
def mixes(draw, specs):
    """Games for every letter of a random 1-4 letter pattern, and a horizon."""
    pattern = draw(st.text(alphabet="ABC", min_size=1, max_size=4))
    games = {letter: draw(specs) for letter in sorted(set(pattern))}
    return games, pattern, draw(st.integers(0, 40))


@st.composite
def starts(draw, states):
    """A random probability distribution over ``states``."""
    weights = draw(st.lists(PROBS, min_size=len(states), max_size=len(states)))
    assume(sum(weights) > 0.1)
    return {state: weight / sum(weights) for state, weight in zip(states, weights)}


@st.composite
def walk_chains(draw):
    """A random M = 1-4 retention table, a chronological start and a horizon."""
    num_coins = draw(st.integers(1, 4))
    rho = draw(st.fixed_dictionaries({h: PROBS for h in all_histories(num_coins)}))
    start = draw(starts(history_states(num_coins)))
    return HistoryRhoTable(num_coins, rho), start, draw(st.integers(0, 40))


def capital_win(games, pattern):
    """Round-``t`` win probability of a capital-game pattern at a capital or its residue."""

    def win_prob(t, capital):
        spec = games[pattern[t % len(pattern)]]
        if isinstance(spec, BiasedCoin):
            return spec.p
        return spec.p1 if capital % 3 == 0 else spec.p2

    return win_prob


def pair_win(games, pattern):
    """Round-``t`` win probability of a history-game pattern after ``older``, ``last``."""

    def win_prob(t, older, last):
        spec = games[pattern[t % len(pattern)]]
        if isinstance(spec, BiasedCoin):
            return spec.p
        return float(spec.as_array()[2 * older + last])

    return win_prob


class TestAgainstTheOracles:
    @given(mixes(CAPITAL_SPECS))
    @settings(deadline=None, max_examples=40)
    def test_capital_mixes_match_the_convolution_oracle(self, case):
        games, pattern, steps = case
        means = capital_game_trajectory(games, pattern, steps)
        win_prob = capital_win(games, pattern)
        want = [capital_mean_by_convolution(win_prob, k) for k in range(steps + 1)]
        assert np.max(np.abs(means - want)) <= ORACLE_TOL

    @given(mixes(HISTORY_SPECS), starts([(0, 0), (0, 1), (1, 0), (1, 1)]))
    @settings(deadline=None, max_examples=40)
    def test_history_mixes_match_the_enumeration_oracle(self, case, start):
        games, pattern, steps = case
        means = history_mix_trajectory(games, pattern, steps, initial=list(start.values()))
        win_prob = pair_win(games, pattern)
        want = [history_mean_by_enumeration(win_prob, k, start) for k in range(steps + 1)]
        assert np.max(np.abs(means - want)) <= ORACLE_TOL

    @given(walk_chains())
    @settings(deadline=None, max_examples=40)
    def test_walk_chains_match_the_enumeration_oracle(self, case):
        table, start, steps = case
        means = classical_mean_trajectory(table, steps, initial=list(start.values()))
        want = [chain_mean_by_enumeration(table.rho, k, start) for k in range(steps + 1)]
        assert np.max(np.abs(means - want)) <= ORACLE_TOL


def capital_in_decimal(games, pattern, steps):
    """50-digit mean capital, with the capital tracked as its residue mod 3."""

    def advance(residue, won):
        return (residue + (1 if won else -1)) % 3

    return chain_mean_in_decimal(capital_win(games, pattern), advance, {0: 1.0}, steps)


def history_in_decimal(games, pattern, steps):
    """50-digit mean capital from uniform (older, last) result pairs."""
    win_prob = pair_win(games, pattern)

    def advance(pair, won):
        return (pair[1], int(won))

    uniform = {(older, last): 0.25 for older in (0, 1) for last in (0, 1)}
    return chain_mean_in_decimal(lambda t, pair: win_prob(t, *pair), advance, uniform, steps)


class TestLongHorizonAccuracy:
    """Exact means against 50-digit references of the same chains."""

    @pytest.mark.parametrize("steps", [1, 2, 3, 30, 300])
    def test_decimal_residue_chain_matches_the_convolution_oracle(self, steps):
        games = {"A": COIN, "B": MOD3}
        got = capital_in_decimal(games, "AABB", steps)
        want = capital_mean_by_convolution(capital_win(games, "AABB"), steps)
        assert float(got) == pytest.approx(want, abs=ORACLE_TOL)

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(float).eps,
        reason="no floating type wider than double on this platform",
    )
    @pytest.mark.parametrize("pattern", ["A", "B", "AB", "AABB"])
    def test_written_means_are_the_exact_ones_rounded(self, pattern):
        # The demo's series; at t = 6 game B alone sits 1.8e-17 from a
        # 12-decimal rounding tie, which double arithmetic cannot resolve.
        games = {"A": COIN, "B": MOD3}
        means = capital_game_trajectory(games, pattern, 100)
        for t in range(1, 101):
            exact = capital_in_decimal(games, pattern, t).quantize(Decimal("1e-12"))
            assert format_value(means[t]) == f"{exact:f}"

    def test_capital_game_at_ten_thousand_steps(self):
        games = {"A": COIN, "B": MOD3}
        means = capital_game_trajectory(games, "AABB", 10**4)
        reference = capital_in_decimal(games, "AABB", 10**4)
        assert abs(float(Decimal(means[-1]) - reference)) <= 2e-13

    def test_last_two_results_game_at_five_thousand_steps(self):
        games = {"A": COIN, "B": HIST}
        means = history_mix_trajectory(games, "AB", 5000)
        reference = history_in_decimal(games, "AB", 5000)
        assert abs(float(Decimal(means[-1]) - reference)) <= 2e-13


class Counted(np.ndarray):
    """Win odds that count the ufunc calls made with them: one per stepped step."""

    calls = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        Counted.calls += 1
        inputs = tuple(x.view(np.ndarray) if isinstance(x, Counted) else x for x in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


def exact_run(spec, pattern, kinds, steps, initial=None):
    """Means of the package's exact loop and of the every-step oracle, and the steps stepped."""
    chains, starts = histwalk.classical._chains(spec, pattern, kinds, "exact")
    counted = [replace(chain, first=chain.first.view(Counted)) for chain in chains]
    Counted.calls = 0
    got = histwalk.classical._exact_means(counted, starts, steps, initial)
    return got, exact_means_every_step(chains, starts, steps, initial), Counted.calls


CAPITAL_KINDS = (BiasedCoin, CapitalMod3)
HISTORY_KINDS = (BiasedCoin, HistoryCoins)
EDGE_PROBS = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), PROBS)
WORKLOAD_GAMES = {
    "capital": ({"A": COIN, "B": MOD3}, CAPITAL_KINDS),
    "history": ({"A": COIN, "B": HIST}, HISTORY_KINDS),
}


@st.composite
def exact_runs(draw):
    """A capital, history or walk chain, its pattern, a start over its start states and T."""
    kind = draw(st.sampled_from(["capital", "history", "walk"]))
    steps = draw(st.one_of(st.just(0), st.integers(1, 80), st.integers(80, 1500)))
    if kind == "walk":
        num_coins = draw(st.integers(1, 4))
        rho = draw(st.fixed_dictionaries({h: EDGE_PROBS for h in all_histories(num_coins)}))
        start = draw(starts(history_states(num_coins)))
        return HistoryRhoTable(num_coins, rho), None, (HistoryRhoTable,), steps, list(start.values())
    pattern = draw(st.text(alphabet="AB", min_size=1, max_size=4))
    if kind == "capital":
        specs = st.one_of(st.builds(BiasedCoin, EDGE_PROBS),
                          st.builds(CapitalMod3, EDGE_PROBS, EDGE_PROBS))
        start, kinds = None, CAPITAL_KINDS
    else:
        specs = st.one_of(st.builds(BiasedCoin, EDGE_PROBS),
                          st.builds(HistoryCoins, *[EDGE_PROBS] * 4))
        start, kinds = list(draw(starts(range(4))).values()), HISTORY_KINDS
    games = {letter: draw(specs) for letter in sorted(set(pattern))}
    return games, pattern, kinds, steps, start


class TestRepeatedDistribution:
    """The exact loop stops stepping at a repeated distribution, with the oracle's bits."""

    @given(exact_runs())
    @settings(deadline=None, max_examples=80)
    def test_means_equal_the_every_step_loop_bit_for_bit(self, run):
        got, want, stepped = exact_run(*run)
        assert np.array_equal(got, want)
        assert stepped <= run[3]

    @pytest.mark.parametrize("pattern, repeats", [("A", False), ("AB", False), ("AABB", False),
                                                  ("ABB", True)])
    def test_coins_that_always_win_repeat_only_on_a_period_of_three(self, pattern, repeats):
        # The distribution cycles through the three residues, so it equals
        # its value one pattern period earlier only if 3 divides the period.
        games = {"A": BiasedCoin(1.0), "B": BiasedCoin(1.0)}
        got, want, stepped = exact_run(games, pattern, CAPITAL_KINDS, 600)
        assert np.array_equal(got, want)
        assert got[-1] == 600.0
        assert (stepped < 600) == repeats

    @pytest.mark.parametrize("kind", sorted(WORKLOAD_GAMES))
    def test_parrondo_mixes_stop_mid_run_with_the_same_means(self, kind):
        games, kinds = WORKLOAD_GAMES[kind]
        _, _, stop = exact_run(games, "AB", kinds, 4000)
        assert 2 < stop < 400
        for steps in (stop - 1, stop, stop + 1, stop + 2, 4000):
            got, want, _ = exact_run(games, "AB", kinds, steps)
            assert np.array_equal(got, want)

    def test_a_walk_chain_from_its_uniform_start_stops_at_the_first_check(self):
        table = HistoryRhoTable(8, dict(zip(all_histories(8), np.linspace(0.3, 0.7, 128))))
        got, want, stepped = exact_run(table, None, (HistoryRhoTable,), 2000)
        assert np.array_equal(got, want)
        assert stepped <= histwalk.classical._REPEAT_CHECK_STEPS


SAMPLED_KINDS = (HistoryRhoTable, BiasedCoin, CapitalMod3, HistoryCoins)


def random_walk_table(num_coins, seed):
    """A walk table whose retention differs from history to history."""
    rng = np.random.default_rng(seed)
    return HistoryRhoTable(num_coins, {h: rng.uniform() for h in all_histories(num_coins)})


@st.composite
def sampled_runs(draw):
    """A capital, history or walk-chain spec, its pattern, T, a trajectory count and a seed."""
    kind = draw(st.sampled_from(["capital", "history", "walk"]))
    if kind == "walk":
        num_coins = draw(st.integers(1, 4))
        rho = draw(st.fixed_dictionaries({h: EDGE_PROBS for h in all_histories(num_coins)}))
        spec, pattern = HistoryRhoTable(num_coins, rho), None
    else:
        pattern = draw(st.text(alphabet="ABC", min_size=1, max_size=3))
        if kind == "capital":
            specs = st.one_of(st.builds(BiasedCoin, EDGE_PROBS),
                              st.builds(CapitalMod3, EDGE_PROBS, EDGE_PROBS))
        else:
            specs = st.one_of(st.builds(BiasedCoin, EDGE_PROBS),
                              st.builds(HistoryCoins, *[EDGE_PROBS] * 4))
        spec = {letter: draw(specs) for letter in sorted(set(pattern))}
    n = draw(st.one_of(st.sampled_from([1, 2]), st.integers(1, 500).map(lambda k: 2 * k + 1),
                       st.integers(10**4, 3 * 10**4)))
    steps = draw(st.one_of(st.just(0), st.integers(1, 60)))
    return spec, pattern, steps, n, draw(st.integers(0, 2**64 - 1))


class TestBufferedSampler:
    """The sampler's buffered loop keeps every draw and every output bit of the plain one."""

    @given(sampled_runs())
    @settings(deadline=None, max_examples=60)
    def test_means_and_errors_equal_the_allocating_loop_byte_for_byte(self, run):
        spec, pattern, steps, n, seed = run
        means, errors = monte_carlo_trajectory(spec, pattern, steps, n, seed)
        chains, starts = histwalk.classical._chains(spec, pattern, SAMPLED_KINDS, "sampled")
        want_means, want_errors = sampled_means_allocating(chains, starts, steps, n, seed)
        assert means.tobytes() == want_means.tobytes()
        assert errors.tobytes() == want_errors.tobytes()

    @pytest.mark.parametrize(
        "spec, pattern, constant",
        [
            ({"A": COIN, "B": MOD3}, "AB", [True, False]),
            (HistoryRhoTable.uniform(4, 0.3), None, [True]),
            (random_walk_table(4, seed=12), None, [False]),
        ],
        ids=["capital", "walk-chain-one-rho", "walk-chain-random"],
    )
    def test_runs_at_the_benchmark_size_equal_the_allocating_loop_byte_for_byte(
        self, spec, pattern, constant
    ):
        # The classical_games workload's size, past what the strategy draws,
        # on games whose odds are one number and on games whose odds vary.
        steps, n, seed = 100, 5 * 10**4, 1
        chains, starts = histwalk.classical._chains(spec, pattern, SAMPLED_KINDS, "sampled")
        odds = [histwalk.classical._sampled_odds(chain.first) for chain in chains]
        assert [o.ndim == 0 for o in odds] == constant
        means, errors = monte_carlo_trajectory(spec, pattern, steps, n, seed)
        want_means, want_errors = sampled_means_allocating(chains, starts, steps, n, seed)
        assert means.tobytes() == want_means.tobytes()
        assert errors.tobytes() == want_errors.tobytes()

    @pytest.mark.parametrize("n", [10**4, 5 * 10**4, 2 * 10**5])
    @pytest.mark.parametrize(
        "spec, pattern",
        [({"A": COIN, "B": MOD3}, "AB"), (HistoryRhoTable(3, dict.fromkeys(all_histories(3), 0.3)),
                                          None)],
        ids=["capital", "walk-chain"],
    )
    def test_the_traced_peak_stays_within_the_charge_per_trajectory(self, spec, pattern, n):
        steps = 20
        tracemalloc.start()
        try:
            monte_carlo_trajectory(spec, pattern, steps, n, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= histwalk.classical._TRAJECTORY_BYTES * n


def never_called(*args, **kwargs):
    raise AssertionError("the size guard should have refused the run first")


class TestMemoryGuard:
    @pytest.fixture(autouse=True)
    def sixteen_gib(self, monkeypatch):
        # Pinned so the outcome does not depend on the host.
        monkeypatch.setattr(histwalk.state, "physical_memory_bytes", lambda: 16 * 2**30)

    @pytest.mark.parametrize("spec", [COIN, HistoryRhoTable(2, {"L": 0.3, "R": 0.8})])
    def test_sampler_refuses_before_drawing(self, monkeypatch, spec):
        monkeypatch.setattr(np.random, "default_rng", never_called)
        with pytest.raises(ValueError, match="1000000000000 trajectories .* physical memory"):
            monte_carlo_trajectory(spec, None, 100, 10**12, seed=1)

    @pytest.mark.parametrize(
        "run",
        [
            lambda steps: capital_game_trajectory(COIN, None, steps),
            lambda steps: history_mix_trajectory({"B": HIST}, "B", steps),
            lambda steps: classical_mean_trajectory(HistoryRhoTable(1, {"": 0.4}), steps),
        ],
        ids=["capital", "history", "walk-chain"],
    )
    def test_exact_loop_refuses_before_allocating(self, monkeypatch, run):
        monkeypatch.setattr(np, "zeros", never_called)
        with pytest.raises(ValueError, match="1000000000000 steps .* physical memory"):
            run(10**12)

    @pytest.mark.parametrize(
        "run",
        [lambda table: classical_mean_trajectory(table, 5),
         lambda table: monte_carlo_trajectory(table, None, 5, 10, seed=1)],
        ids=["exact", "sampled"],
    )
    def test_a_walk_chain_too_large_for_memory_is_refused_before_it_is_built(
        self, monkeypatch, run
    ):
        table = HistoryRhoTable.uniform(16, 0.5)
        monkeypatch.setattr(histwalk.state, "physical_memory_bytes", lambda: 2**20)
        monkeypatch.setattr(histwalk.classical, "_walk_chain", never_called)
        with pytest.raises(histwalk.state.MemoryLimitError, match="^the classical chain of M = 16"):
            run(table)

    @pytest.mark.parametrize(
        "run",
        [lambda table: classical_mean_trajectory(table, 5),
         lambda table: monte_carlo_trajectory(table, None, 5, 10, seed=1)],
        ids=["exact", "sampled"],
    )
    def test_a_chain_of_a_register_past_any_memory_is_refused_without_an_overflow(
        self, monkeypatch, run
    ):
        # No such table can be built, so the count is set on a bare one.
        table = object.__new__(HistoryRhoTable)
        object.__setattr__(table, "num_coins", 10**22)
        monkeypatch.setattr(histwalk.state, "physical_memory_bytes", lambda: 16 * 2**30)
        message = "^the classical chain of M = over 2\\*\\*64 needs over 2\\*\\*64 bytes for its states"
        with pytest.raises(histwalk.state.MemoryLimitError, match=message):
            run(table)

    def test_runs_that_fit_are_not_refused(self):
        assert monte_carlo_trajectory(COIN, None, 2, 10**3, seed=1)[0].shape == (3,)
        assert capital_game_trajectory(COIN, None, 2).shape == (3,)


class TestCountArguments:
    """Step and trajectory counts must be integers; floats and bools are refused by name."""

    RUNS = {
        "capital": lambda steps: capital_game_trajectory(COIN, None, steps),
        "history": lambda steps: history_mix_trajectory({"B": HIST}, "B", steps),
        "walk-chain": lambda steps: classical_mean_trajectory(HistoryRhoTable(1, {"": 0.4}), steps),
        "sampled": lambda steps: monte_carlo_trajectory(COIN, None, steps, 10, seed=1),
    }

    @pytest.fixture
    def no_guard(self, monkeypatch):
        monkeypatch.setattr(histwalk.classical, "_check_fits", never_called)

    @pytest.mark.parametrize("steps", [2.5, 3.0, True, False, "3", None, np.float64(3)])
    @pytest.mark.parametrize("engine", sorted(RUNS))
    def test_non_integer_steps_are_refused_by_name(self, no_guard, engine, steps):
        with pytest.raises(ValueError, match=r"steps must be an integer, got"):
            self.RUNS[engine](steps)

    @pytest.mark.parametrize("count", [5.0, 2.5, True, "5", np.float64(5)])
    def test_non_integer_trajectory_counts_are_refused_by_name(self, no_guard, count):
        with pytest.raises(ValueError, match=r"n_trajectories must be an integer, got"):
            monte_carlo_trajectory(COIN, None, 10, count, seed=1)

    @pytest.mark.parametrize("engine", sorted(RUNS))
    def test_numpy_integers_run_as_their_value(self, engine):
        want = self.RUNS[engine](7)
        assert np.asarray(self.RUNS[engine](np.int32(7))).tobytes() == np.asarray(want).tobytes()

    def test_numpy_trajectory_counts_run_as_their_value(self):
        got = monte_carlo_trajectory(COIN, None, 10, np.int64(33), seed=4)
        want = monte_carlo_trajectory(COIN, None, 10, 33, seed=4)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()

    @pytest.mark.parametrize(
        "seed, message",
        [
            (True, "seed must be an integer, got True"),
            (2.5, "seed must be an integer, got 2.5"),
            ("3", "seed must be an integer, got '3'"),
            (None, "seed must be an integer, got None"),
            (-1, "seed must be >= 0, got -1"),
        ],
    )
    def test_seeds_that_are_not_counts_are_refused_by_name(self, seed, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            monte_carlo_trajectory(COIN, None, 10, 5, seed=seed)

    def test_numpy_seeds_run_as_their_value(self):
        got = monte_carlo_trajectory(COIN, None, 10, 33, seed=np.int64(7))
        want = monte_carlo_trajectory(COIN, None, 10, 33, seed=7)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
