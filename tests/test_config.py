"""Parsing and fail-closed validation of run configuration text."""

import string
import tracemalloc

import pytest

import histwalk.state
from histwalk.classical import BiasedCoin, CapitalMod3, HistoryCoins
from histwalk.config import ConfigError, parse_config

GAME_RUN = """
M = 3
T = 100
pattern = B
games.B.rho.default = 0.5
games.B.rho.RR = 0.55
"""


class TestValidConfigs:
    def test_minimal_game_run(self):
        config = parse_config(GAME_RUN)
        assert config.steps == 100
        assert config.pattern == "B"
        assert config.num_coins == 3
        assert config.initial == "antisymmetric"
        assert config.games["B"].rho["RR"] == 0.55
        assert config.games["B"].rho["LL"] == 0.5
        assert config.window == 5
        assert config.prominence == 0.1
        assert config.out is None
        assert config.seed is None

    def test_comments_blank_lines_and_spacing_are_ignored(self):
        config = parse_config(
            "# run setup\n"
            "\n"
            "M=1\n"
            "T = 4   # four steps\n"
            "pattern =A\n"
            "games.A.rho.default = 0.5\n"
        )
        assert config.steps == 4
        assert config.num_coins == 1

    def test_optional_fields_round_trip(self):
        config = parse_config(
            GAME_RUN
            + "initial = allR\n"
            + "window = 7\nprominence = 0.25\nout = results.csv\nseed = 9\n"
        )
        assert config.initial == "allR"
        assert config.window == 7
        assert config.prominence == 0.25
        assert config.out == "results.csv"
        assert config.seed == 9

    def test_overrides_win_over_file_values(self):
        config = parse_config(GAME_RUN, overrides={"T": "20", "window": "3"})
        assert config.steps == 20
        assert config.window == 3

    def test_classical_game_specs_are_built(self):
        config = parse_config(
            "T = 100\n"
            "pattern = AABB\n"
            "classical.engine = capital\n"
            "classical.A.kind = biased\n"
            "classical.A.p = 0.495\n"
            "classical.B.kind = mod3\n"
            "classical.B.p1 = 0.095\n"
            "classical.B.p2 = 0.745\n"
        )
        assert config.classical_engine == "capital"
        assert config.classical_games["A"] == BiasedCoin(0.495)
        assert config.classical_games["B"] == CapitalMod3(0.095, 0.745)

    def test_history_kind_takes_four_probabilities(self):
        config = parse_config(
            "T = 10\npattern = H\nclassical.H.kind = history\n"
            "classical.H.p1 = 0.9\nclassical.H.p2 = 0.25\n"
            "classical.H.p3 = 0.25\nclassical.H.p4 = 0.7\n"
        )
        assert config.classical_games["H"] == HistoryCoins(0.9, 0.25, 0.25, 0.7)

    def test_quantum_and_classical_letters_may_share_a_pattern(self):
        config = parse_config(
            "M = 2\nT = 5\npattern = AB\n"
            "games.A.rho.default = 0.5\n"
            "classical.B.kind = biased\nclassical.B.p = 0.5\n"
        )
        assert set(config.games) == {"A"}
        assert set(config.classical_games) == {"B"}


class TestSyntaxErrors:
    def test_line_without_equals_reports_its_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("T = 1\nnot a pair\n")

    def test_empty_value_is_rejected(self):
        with pytest.raises(ConfigError, match="empty key or value"):
            parse_config("T =\n")

    def test_duplicate_keys_are_rejected(self):
        with pytest.raises(ConfigError, match="duplicate key 'T'"):
            parse_config("T = 1\nT = 2\n")

    def test_unknown_key_reports_name_and_line(self):
        with pytest.raises(ConfigError, match=r"unknown key 'steps' \(line 6\)"):
            parse_config(GAME_RUN.strip() + "\nsteps = 5\n")

    def test_unknown_game_subkey_is_rejected(self):
        with pytest.raises(ConfigError, match="games.B.rho.XY"):
            parse_config(GAME_RUN + "games.B.rho.XY = 0.5\n")


class TestValueErrors:
    def test_retention_out_of_range_names_the_key(self):
        bad = GAME_RUN.replace("games.B.rho.RR = 0.55", "games.B.rho.RR = 1.5")
        with pytest.raises(ConfigError, match=r"games\.B\.rho\.RR = 1\.5 must lie in \[0, 1\]"):
            parse_config(bad)

    def test_walk_grid_size_is_checked_where_the_grid_is_allocated(self, monkeypatch):
        # M = 20 with T = 1000 is far too large a walk grid for 16 GiB, but
        # parsing allocates no grid, and the rho-walk engine never builds one.
        monkeypatch.setattr(histwalk.state, "physical_memory_bytes", lambda: 16 * 2**30)
        text = "M = 20\nT = 1000\npattern = A\ngames.A.rho.default = 0.5\n"
        assert parse_config(text).num_coins == 20
        config = parse_config(text + "classical.engine = rho-walk\n")
        assert config.classical_engine == "rho-walk"

    def test_an_m20_config_parses_without_history_strings(self):
        # A table of 2**19 histories is one 4 MiB array; a dict of history
        # strings peaked at about 129 MB.
        text = "M = 20\nT = 1000\npattern = A\ngames.A.rho.default = 0.5\n"
        tracemalloc.start()
        try:
            config = parse_config(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert config.games["A"].retention_array().shape == (2**19,)
        assert peak < 32 * 2**20

    def test_missing_pattern(self):
        with pytest.raises(ConfigError, match="pattern is required"):
            parse_config("M = 1\nT = 10\ngames.A.rho.default = 0.5\n")

    def test_missing_steps(self):
        with pytest.raises(ConfigError, match="T is required"):
            parse_config("M = 1\npattern = A\ngames.A.rho.default = 0.5\n")

    def test_non_integer_steps(self):
        with pytest.raises(ConfigError, match="not an integer"):
            parse_config("T = ten\npattern = A\n")

    def test_pattern_must_be_letters(self):
        with pytest.raises(ConfigError, match=r"^pattern = 'A2B' must be letters only \(line 2\)"):
            parse_config("T = 1\npattern = A2B\n")

    def test_pattern_letters_need_definitions(self):
        with pytest.raises(ConfigError) as refused:
            parse_config(GAME_RUN.replace("pattern = B", "pattern = BC"))
        assert str(refused.value) == (
            "pattern uses undefined games ['C'] in games.* or classical.* (line 4)"
        )

    def test_52_undefined_letters_are_refused_in_one_short_line(self):
        with pytest.raises(ConfigError) as refused:
            parse_config(f"T = 5\npattern = {string.ascii_letters}\n")
        shown = str(sorted(string.ascii_letters))[:60]
        assert str(refused.value) == (
            f"pattern uses undefined games {shown}... (260 characters) "
            "in games.* or classical.* (line 2)"
        )

    def test_games_require_register_length(self):
        with pytest.raises(ConfigError, match="M is required"):
            parse_config("T = 1\npattern = A\ngames.A.rho.default = 0.5\n")

    def test_history_override_length_must_match(self):
        with pytest.raises(
            ConfigError, match=r"^games\.B\.rho\.RRR: history length must be M-1 = 2 \(line 7\)$"
        ):
            parse_config(GAME_RUN + "games.B.rho.RRR = 0.5\n")

    def test_incomplete_table_without_default(self):
        with pytest.raises(ConfigError, match="games.B"):
            parse_config("M = 2\nT = 1\npattern = B\ngames.B.rho.R = 0.5\n")

    @pytest.mark.parametrize("line", ["horizon = 100", "snapshots = 0,50,100"])
    def test_keys_that_change_no_output_are_unknown(self, line):
        # GAME_RUN's first line is blank, so the appended key sits on line 7.
        key = line.split(" ")[0]
        with pytest.raises(ConfigError, match=rf"unknown key '{key}' \(line 7\)"):
            parse_config(GAME_RUN + line + "\n")

    def test_unknown_initial_state(self):
        with pytest.raises(
            ConfigError,
            match=r"^initial = 'sideways' must be 'antisymmetric' or 'allR' \(line 7\)$",
        ):
            parse_config(GAME_RUN + "initial = sideways\n")

    def test_window_must_be_odd(self):
        with pytest.raises(
            ConfigError, match=r"^window must be an odd positive integer, got 4 \(line 7\)$"
        ):
            parse_config(GAME_RUN + "window = 4\n")

    def test_an_m20_table_short_of_histories_is_refused_without_listing_them(self):
        text = "M = 20\nT = 5\npattern = B\ngames.B.rho." + "R" * 19 + " = 0.5\n"
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="^games.B: missing rho for history 'L{19}'$"):
                parse_config(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_prominence_must_be_a_number(self):
        with pytest.raises(ConfigError, match=r"^prominence = 'abc' is not a number \(line 7\)$"):
            parse_config(GAME_RUN + "prominence = abc\n")

    def test_prominence_must_be_a_fraction(self):
        with pytest.raises(
            ConfigError, match=r"^prominence must be in \(0, 1\), got 1\.2 \(line 7\)$"
        ):
            parse_config(GAME_RUN + "prominence = 1.2\n")

    def test_seed_must_be_non_negative(self):
        with pytest.raises(ConfigError, match=r"^seed must be >= 0, got -1 \(line 7\)$"):
            parse_config(GAME_RUN + "seed = -1\n")

    def test_register_length_must_be_positive(self):
        with pytest.raises(ConfigError, match=r"^M must be >= 1, got 0 \(line 2\)$"):
            parse_config(GAME_RUN.replace("M = 3", "M = 0"))


class TestClassicalValidation:
    def test_engine_name_is_checked(self):
        with pytest.raises(ConfigError, match=r"^classical\.engine = 'quantum' .* \(line 3\)$"):
            parse_config("T = 1\npattern = A\nclassical.engine = quantum\n"
                         "classical.A.kind = biased\nclassical.A.p = 0.5\n")

    def test_kind_is_required(self):
        with pytest.raises(ConfigError, match="classical.A.kind is required"):
            parse_config("T = 1\npattern = A\nclassical.A.p = 0.5\n")

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ConfigError, match="classical.A.kind = 'martingale'"):
            parse_config("T = 1\npattern = A\nclassical.A.kind = martingale\n")

    def test_missing_parameter_names_kind(self):
        with pytest.raises(ConfigError, match="classical.B.p2 is required for kind 'mod3'"):
            parse_config("T = 1\npattern = B\nclassical.B.kind = mod3\nclassical.B.p1 = 0.1\n")

    def test_inapplicable_parameters_are_rejected(self):
        with pytest.raises(ConfigError, match=r"\['p3'\] do not apply to kind 'biased'"):
            parse_config(
                "T = 1\npattern = A\nclassical.A.kind = biased\n"
                "classical.A.p = 0.5\nclassical.A.p3 = 0.5\n"
            )

    def test_unknown_classical_parameters_are_rejected(self):
        with pytest.raises(ConfigError, match=r"^unknown key 'classical\.A\.q' \(line 4\)$"):
            parse_config(
                "T = 1\npattern = A\nclassical.A.kind = biased\n"
                "classical.A.q = 0.5\n"
            )

    def test_classical_probabilities_are_range_checked(self):
        with pytest.raises(ConfigError, match=r"classical\.A\.p = 1\.5 must lie in \[0, 1\]"):
            parse_config("T = 1\npattern = A\nclassical.A.kind = biased\nclassical.A.p = 1.5\n")
