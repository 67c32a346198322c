"""Toss matrix, retention tables, and the flip/shift/rotate step pipeline."""

import copy
import dataclasses
import pickle
import tracemalloc

import numpy as np
import pytest

import histwalk.operators
import histwalk.state
from histwalk.operators import (
    HistoryRhoTable,
    all_histories,
    apply_conditional_flip,
    apply_reorder,
    apply_shift,
    toss,
)
from histwalk.state import HorizonError, MemoryLimitError, new_state
from histwalk.walker import evolve_brun

from reference import coin_unitary, complement, dense_evolve
from hypothesis import given, settings
from hypothesis import strategies as st


def _origin_state(num_coins: int, t_max: int, coins: str, amplitude=1.0):
    state = new_state(num_coins, t_max)
    state.set_amplitude(0, coins, amplitude)
    return state


def _never_called(*args, **kwargs):
    raise AssertionError("the size guard should have refused the table first")


def cycled_toss(state, coins, step):
    """One step tossing with cycle entry ``step % len(coins)``, ignoring history."""
    return toss(state, HistoryRhoTable.uniform(state.num_coins, coins[step % len(coins)]))


class TestCoinUnitary:
    def test_retention_on_diagonal_flip_on_off_diagonal(self):
        u = coin_unitary(0.64)
        assert u[0, 0] == pytest.approx(0.8)
        assert u[1, 1] == pytest.approx(0.8)
        assert u[0, 1] == pytest.approx(0.6j)
        assert u[1, 0] == pytest.approx(0.6j)

    @pytest.mark.parametrize("rho", [0.0, 0.1, 0.5, 0.9, 1.0])
    def test_unitary_for_every_rho(self, rho):
        u = coin_unitary(rho)
        assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-15)

    def test_extremes_keep_or_flip_deterministically(self):
        assert np.allclose(coin_unitary(1.0), np.eye(2))
        assert np.allclose(coin_unitary(0.0), 1j * np.array([[0, 1], [1, 0]]))

    def test_rejects_out_of_range_rho(self):
        with pytest.raises(ValueError):
            coin_unitary(1.5)


class TestHistoryRhoTable:
    def test_all_histories_orders_by_register_index(self):
        assert all_histories(1) == [""]
        assert all_histories(3) == ["LL", "LR", "RL", "RR"]

    def test_requires_every_history(self):
        with pytest.raises(ValueError, match="missing rho"):
            HistoryRhoTable(2, {"L": 0.5})

    def test_rejects_unknown_histories(self):
        with pytest.raises(ValueError, match="unexpected history"):
            HistoryRhoTable(2, {"L": 0.5, "R": 0.5, "LL": 0.5})

    def test_a_mapping_short_of_histories_is_refused_without_listing_them(self):
        # Listing all 2**19 histories first took 38.5 MiB.
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^missing rho for history 'L{18}R'$"):
                HistoryRhoTable(20, {"L" * 19: 0.5})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize(
        "rho, message",
        [
            ({"LL": 0.5, "XY": 0.5}, r"^missing rho for history 'LR'$"),
            ({"LR": 0.5, "RL": 0.5, "RR": 0.5}, r"^missing rho for history 'LL'$"),
            ({h: 0.5 for h in ("LL", "LR", "RL", "RR", "XY")},
             r"^unexpected history keys \['XY'\] for num_coins=3$"),
        ],
        ids=["short, with an unknown key", "short by one", "one key too many"],
    )
    def test_short_and_long_mappings_name_the_first_missing_or_the_extra_keys(
        self, rho, message
    ):
        with pytest.raises(ValueError, match=message):
            HistoryRhoTable(3, rho)

    @pytest.mark.parametrize(
        "build",
        [lambda: HistoryRhoTable.uniform(18, 0.5),
         lambda: HistoryRhoTable.with_overrides(18, 0.5, {"R" * 17: 0.6})],
        ids=["uniform", "with_overrides"],
    )
    def test_a_table_too_large_for_memory_is_refused_before_it_is_filled(
        self, monkeypatch, build
    ):
        monkeypatch.setattr(histwalk.state, "physical_memory_bytes", lambda: 2**20)
        monkeypatch.setattr(np, "full", _never_called)
        message = "^a retention table for M = 18 needs .* GiB to fill, more than"
        with pytest.raises(MemoryLimitError, match=message):
            build()

    @pytest.mark.parametrize(
        "num_coins, shown", [(100000, "100000"), (10**22, "over 2\\*\\*64")], ids=["M=1e5", "M=1e22"]
    )
    def test_a_register_past_any_memory_is_refused_without_an_overflow(
        self, monkeypatch, num_coins, shown
    ):
        # A count past 2**64 is named as such, not in its 23 digits.
        monkeypatch.setattr(histwalk.state, "physical_memory_bytes", lambda: 16 * 2**30)
        message = f"^a retention table for M = {shown} needs over 2\\*\\*64 bytes to fill"
        for build in (HistoryRhoTable.uniform, HistoryRhoTable.with_overrides):
            with pytest.raises(MemoryLimitError, match=message):
                build(num_coins, 0.5)

    def test_rejects_out_of_range_values(self):
        with pytest.raises(ValueError, match="must lie in"):
            HistoryRhoTable.uniform(2, 1.2)

    def test_entries_are_stored_as_floats_in_history_order(self):
        table = HistoryRhoTable(3, {"RR": 1, "LL": 0.5, "RL": 0, "LR": "0.25"})
        assert list(table.rho) == all_histories(3)
        assert all(type(value) is float for value in table.rho.values())
        assert table.retention_array().tolist() == [0.5, 0.25, 0.0, 1.0]
        with pytest.raises(ValueError, match=r"rho\['RL'\] = nan must lie in"):
            HistoryRhoTable(3, dict.fromkeys(all_histories(3), 0.5) | {"RL": float("nan")})

    def test_with_overrides_checks_key_length(self):
        with pytest.raises(ValueError, match="unknown history key"):
            HistoryRhoTable.with_overrides(3, 0.5, {"R": 0.6})

    def test_replaced_changes_one_entry(self):
        table = HistoryRhoTable.uniform(3, 0.5).replaced("RR", 0.55)
        assert table.rho["RR"] == 0.55
        assert table.rho["LL"] == 0.5

    def test_mirrored_swaps_history_letters(self):
        table = HistoryRhoTable.with_overrides(3, 0.5, {"LR": 0.7})
        assert table.mirrored().rho["RL"] == 0.7
        assert table.mirrored().rho["LR"] == 0.5

    def test_retention_array_follows_index_order(self):
        table = HistoryRhoTable(2, {"L": 0.1, "R": 0.9})
        assert table.retention_array().tolist() == [0.1, 0.9]

    @given(st.data())
    @settings(deadline=None, max_examples=80)
    def test_derived_tables_equal_a_table_built_from_strings(self, data):
        num_coins = data.draw(st.integers(1, 7))
        histories = all_histories(num_coins)
        prob = st.floats(0.0, 1.0)
        default = data.draw(prob)
        overrides = data.draw(st.dictionaries(st.sampled_from(histories), prob))
        history, rho = data.draw(st.sampled_from(histories)), data.draw(prob)
        # The reference: one dict keyed by history, mirrored by complementing each key.
        entries = dict.fromkeys(histories, default) | overrides
        table = HistoryRhoTable.with_overrides(num_coins, default, overrides)
        assert table.rho == entries
        assert table.replaced(history, rho).rho == entries | {history: rho}
        assert table.mirrored().rho == {complement(h): v for h, v in entries.items()}
        assert table.mirrored().mirrored().rho == entries
        assert table.retention_array().tolist() == [entries[h] for h in histories]

    def test_derived_tables_build_no_history_string(self, monkeypatch):
        table = HistoryRhoTable(3, {"LL": 0.1, "LR": 0.2, "RL": 0.3, "RR": 0.4})

        def no_strings(num_coins):
            raise AssertionError("a history string was built")

        monkeypatch.setattr(histwalk.operators, "all_histories", no_strings)
        assert HistoryRhoTable.uniform(3, 0.25).retention_array().tolist() == [0.25] * 4
        overridden = HistoryRhoTable.with_overrides(3, 0.5, {"RL": 0.75})
        assert overridden.retention_array().tolist() == [0.5, 0.5, 0.75, 0.5]
        assert table.replaced("LR", 0.9).retention_array().tolist() == [0.1, 0.9, 0.3, 0.4]
        assert table.mirrored().retention_array().tolist() == [0.4, 0.3, 0.2, 0.1]
        assert table.retention_array().tolist() == [0.1, 0.2, 0.3, 0.4]

    @pytest.mark.parametrize(
        "make",
        [
            lambda: HistoryRhoTable(2, {"L": 0.1, "R": 0.9}),
            lambda: HistoryRhoTable.uniform(3),
            lambda: HistoryRhoTable.with_overrides(3, 0.5, {"RR": 0.55}),
            lambda: HistoryRhoTable.uniform(3).replaced("LR", 0.2),
            lambda: HistoryRhoTable.with_overrides(3, 0.5, {"RR": 0.55}).mirrored(),
        ],
        ids=["mapping", "uniform", "with_overrides", "replaced", "mirrored"],
    )
    def test_tables_are_read_only(self, make):
        table = make()
        before = table.retention_array().tolist()
        with pytest.raises(ValueError, match="read-only"):
            table.retention_array()[0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            table.num_coins = 4
        table.rho[next(iter(table.rho))] = 0.0  # a fresh dict each time
        assert table.retention_array().tolist() == before

    @pytest.mark.parametrize(
        "copy_of",
        [copy.copy, copy.deepcopy, lambda table: pickle.loads(pickle.dumps(table))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_are_read_only_and_equal(self, copy_of):
        table = HistoryRhoTable.with_overrides(3, 0.4, {"RL": 0.9})
        copied = copy_of(table)
        assert type(copied) is HistoryRhoTable and copied.num_coins == 3
        assert copied.retention_array().tobytes() == table.retention_array().tobytes()
        with pytest.raises(ValueError, match="read-only"):
            copied.retention_array()[0] = 2.0
        assert table.retention_array().tolist() == [0.4, 0.4, 0.9, 0.4]

    @pytest.mark.parametrize(
        "num_coins, tampered, message",
        [
            (3, 1.5, r"rho\['RL'\] = 1.5 must lie in \[0, 1\]"),
            (3, float("nan"), r"rho\['RL'\] = nan must lie in \[0, 1\]"),
            (1, -0.25, r"rho\[''\] = -0.25 must lie in \[0, 1\]"),
        ],
    )
    def test_a_tampered_pickle_is_refused_on_load(self, num_coins, tampered, message):
        values = [0.1, 0.2, 0.3, 0.4][: 1 << (num_coins - 1)]
        table = HistoryRhoTable(num_coins, dict(zip(all_histories(num_coins), values)))
        stored = np.float64(values[-2 if num_coins > 1 else 0]).tobytes()
        data = pickle.dumps(table)
        assert data.count(stored) == 1
        with pytest.raises(ValueError, match=message):
            pickle.loads(data.replace(stored, np.float64(tampered).tobytes()))

    def test_a_missing_history_is_reported_before_a_bad_value(self):
        with pytest.raises(ValueError, match=r"^missing rho for history 'R'$"):
            HistoryRhoTable(2, {"L": 2.0})

    def test_of_two_bad_values_every_constructor_names_the_first_history(self):
        message = r"^rho\['LR'\] = 2.0 must lie in \[0, 1\]$"
        entries = {"LL": 0.5, "LR": 2.0, "RL": float("nan"), "RR": 0.5}
        with pytest.raises(ValueError, match=message):
            HistoryRhoTable(3, entries)
        with pytest.raises(ValueError, match=message):  # the overrides' order does not matter
            HistoryRhoTable.with_overrides(3, 0.5, {"RL": float("nan"), "LR": 2.0})
        table = HistoryRhoTable.with_overrides(3, 0.5, {"LR": 0.25, "RL": 0.75})
        data = pickle.dumps(table)
        for good, bad in ((0.25, 2.0), (0.75, float("nan"))):
            data = data.replace(np.float64(good).tobytes(), np.float64(bad).tobytes())
        with pytest.raises(ValueError, match=message):
            pickle.loads(data)

    def test_values_that_are_not_numbers_are_refused(self):
        with pytest.raises(ValueError, match=r"shape \(2, 2\) do not fit num_coins=2"):
            HistoryRhoTable(2, {"L": [0.5, 0.5], "R": [0.5, 0.5]})
        with pytest.raises(ValueError, match="could not convert string to float"):
            HistoryRhoTable(2, {"L": "half", "R": 0.5})
        with pytest.raises(ValueError, match="could not convert string to float"):
            HistoryRhoTable.uniform(2).replaced("L", "half")

    def test_a_mirrored_table_shares_no_memory_with_its_source(self):
        table = HistoryRhoTable(2, {"L": 0.1, "R": 0.9})
        mirrored = table.mirrored().retention_array()
        assert not np.shares_memory(mirrored, table.retention_array())
        assert mirrored.flags.c_contiguous and not mirrored.flags.writeable

    def test_derived_tables_check_their_inputs(self):
        with pytest.raises(ValueError, match=r"rho = 1.5 must lie in \[0, 1\]"):
            HistoryRhoTable.uniform(3, 1.5)
        with pytest.raises(ValueError, match=r"rho = -0.1 must lie in \[0, 1\]"):
            HistoryRhoTable.with_overrides(3, -0.1)
        with pytest.raises(ValueError, match=r"rho\['RR'\] = nan must lie in \[0, 1\]"):
            HistoryRhoTable.with_overrides(3, 0.5, {"RR": float("nan")})
        with pytest.raises(ValueError, match=r"rho\['L'\] = 2.0 must lie in \[0, 1\]"):
            HistoryRhoTable.uniform(2).replaced("L", 2.0)
        for key in ("RRR", "XY", "", 7):
            with pytest.raises(ValueError, match=f"unknown history key {key!r} for num_coins=3"):
                HistoryRhoTable.uniform(3).replaced(key, 0.5)
        with pytest.raises(ValueError, match="num_coins must be >= 1, got 0"):
            HistoryRhoTable.uniform(0)


class TestConditionalFlip:
    def test_mixes_only_the_oldest_register_entry(self):
        state = _origin_state(2, 2, "LR")
        out = apply_conditional_flip(state, HistoryRhoTable.uniform(2, 0.5))
        root_half = np.sqrt(0.5)
        assert out.amplitude(0, "LR") == pytest.approx(root_half)
        assert out.amplitude(0, "LL") == pytest.approx(1j * root_half)
        assert out.amplitude(0, "RL") == 0.0
        assert out.amplitude(0, "RR") == 0.0

    def test_retention_is_keyed_on_the_newer_entries(self):
        table = HistoryRhoTable(2, {"L": 1.0, "R": 0.0})
        state = _origin_state(2, 2, "RL")
        out = apply_conditional_flip(state, table)
        assert out.amplitude(0, "RR") == pytest.approx(1j)
        assert out.amplitude(0, "RL") == 0.0

    def test_preserves_norm_for_random_tables(self):
        rng = np.random.default_rng(5)
        for num_coins in (1, 2, 3):
            entries = {h: rng.uniform() for h in all_histories(num_coins)}
            table = HistoryRhoTable(num_coins, entries)
            state = new_state(num_coins, 3)
            state.amplitudes[:] = rng.normal(size=state.amplitudes.shape) + 1j * rng.normal(
                size=state.amplitudes.shape
            )
            state.amplitudes /= state.norm()
            out = apply_conditional_flip(state, table)
            assert out.norm() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_mismatched_register_size(self):
        with pytest.raises(ValueError):
            apply_conditional_flip(_origin_state(2, 2, "LL"), HistoryRhoTable.uniform(3, 0.5))


class TestShift:
    def test_moves_right_when_newest_toss_is_r(self):
        state = _origin_state(1, 2, "R")
        out = apply_shift(state)
        assert out.amplitude(1, "R") == 1.0
        assert out.amplitude(0, "R") == 0.0

    def test_moves_left_when_newest_toss_is_l(self):
        state = _origin_state(1, 2, "L")
        out = apply_shift(state)
        assert out.amplitude(-1, "L") == 1.0

    def test_direction_reads_the_oldest_slot_before_rotation(self):
        state = _origin_state(2, 2, "RL")
        out = apply_shift(state)
        assert out.amplitude(-1, "RL") == 1.0
        state = _origin_state(2, 2, "LR")
        out = apply_shift(state)
        assert out.amplitude(1, "LR") == 1.0

    def test_raises_at_the_horizon_instead_of_wrapping(self):
        state = new_state(1, 1)
        state.set_amplitude(1, "R", 1.0)
        with pytest.raises(HorizonError):
            apply_shift(state)


class TestReorder:
    def test_moves_fresh_result_to_the_front(self):
        state = _origin_state(3, 1, "LRR")
        out = apply_reorder(state)
        assert out.amplitude(0, "RLR") == 1.0
        assert out.amplitude(0, "LRR") == 0.0

    def test_is_a_permutation(self):
        rng = np.random.default_rng(11)
        state = new_state(3, 2)
        state.amplitudes[:] = rng.normal(size=state.amplitudes.shape)
        state.amplitudes /= state.norm()
        out = apply_reorder(state)
        assert out.norm() == pytest.approx(1.0, abs=1e-15)
        assert sorted(np.abs(out.amplitudes.ravel())) == pytest.approx(
            sorted(np.abs(state.amplitudes.ravel()))
        )


class TestTossAgainstDenseReference:
    @pytest.mark.parametrize("num_coins", [1, 2, 3, 4])
    def test_matches_kronecker_built_step_exactly(self, num_coins):
        rng = np.random.default_rng(17 + num_coins)
        entries = {h: rng.uniform() for h in all_histories(num_coins)}
        table = HistoryRhoTable(num_coins, entries)
        steps, t_max = 6, 8
        state = new_state(num_coins, t_max)
        shape = state.amplitudes.shape
        state.amplitudes[:] = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        # Keep the initial support away from the boundary so `steps` shifts
        # stay inside the stored position range.
        support = np.abs(state.positions) <= t_max - steps
        state.amplitudes[~support] = 0.0
        state.amplitudes /= state.norm()

        expected = dense_evolve(
            state.amplitudes, num_coins, table.retention_array(), steps
        )
        evolved = state
        for _ in range(steps):
            evolved = toss(evolved, table)
        assert np.max(np.abs(evolved.amplitudes - expected)) < 1e-13

    def test_single_coin_step_amplitudes(self):
        out = toss(_origin_state(1, 1, "L"), HistoryRhoTable.uniform(1, 0.5))
        root_half = np.sqrt(0.5)
        assert out.amplitude(-1, "L") == pytest.approx(root_half)
        assert out.amplitude(1, "R") == pytest.approx(1j * root_half)

    def test_counts_steps(self):
        state = _origin_state(2, 3, "LL")
        out = toss(toss(state, HistoryRhoTable.uniform(2)), HistoryRhoTable.uniform(2))
        assert out.steps_taken == 2
        assert state.steps_taken == 0


class TestBrunToss:
    def test_cycles_through_the_coin_list_by_step_index(self):
        coins = (1.0, 0.0)
        state = _origin_state(2, 3, "LL")
        first = cycled_toss(state, coins, 0)
        assert abs(first.amplitude(-1, "LL")) == pytest.approx(1.0)
        second = cycled_toss(first, coins, 1)
        assert abs(second.amplitude(0, "RL")) == pytest.approx(1.0)

    def test_equals_history_toss_when_all_entries_match(self):
        rng = np.random.default_rng(23)
        for num_coins in (1, 2, 3):
            rho = rng.uniform()
            state = new_state(num_coins, 4)
            shape = state.amplitudes.shape
            state.amplitudes[:] = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            state.amplitudes[0, :] = 0.0  # keep the single shift inside the horizon
            state.amplitudes[-1, :] = 0.0
            state.amplitudes /= state.norm()
            via_table = toss(state, HistoryRhoTable.uniform(num_coins, rho))
            via_cycle = evolve_brun(state, [rho] * num_coins, 1)
            assert np.array_equal(via_table.amplitudes, via_cycle.amplitudes)

    def test_rejects_wrong_cycle_length(self):
        with pytest.raises(ValueError):
            evolve_brun(_origin_state(2, 2, "LL"), (0.5,), 1)
        with pytest.raises(ValueError, match="coin cycle has 0 entries"):
            evolve_brun(_origin_state(2, 2, "LL"), (), 1)

    def test_every_cycle_entry_is_range_checked_before_the_toss(self):
        # Step 0 plays entry 0, which is valid; entry 1 is refused all the same.
        state = _origin_state(2, 2, "LL")
        with pytest.raises(ValueError, match=r"coins\[1\] = 1.5 must lie in \[0, 1\]"):
            evolve_brun(state, (0.5, 1.5), 1)
        with pytest.raises(ValueError, match=r"coins\[1\] = -0.1 must lie in \[0, 1\]"):
            evolve_brun(state, (0.5, -0.1), 1)


class TestUnitarityProperty:

    @given(
        st.integers(min_value=1, max_value=3),
        st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
    )
    @settings(deadline=None, max_examples=25)
    def test_any_retention_table_preserves_the_norm(self, num_coins, rhos):
        table = HistoryRhoTable(
            num_coins, dict(zip(all_histories(num_coins), rhos))
        )
        state = _origin_state(num_coins, 6, "R" * num_coins)
        for _ in range(5):
            state = toss(state, table)
            assert abs(state.norm() - 1.0) < 1e-12
