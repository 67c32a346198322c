"""Register encoding, amplitude storage, distributions and moments."""

import os

import numpy as np
import pytest

import histwalk.state

from histwalk.state import (
    HorizonError,
    MemoryLimitError,
    Moments,
    NormalizationError,
    ProbabilityDistribution,
    WalkState,
    coins_to_index,
    index_to_coins,
    moments,
    new_state,
    physical_memory_bytes,
    position_distribution,
    working_bytes,
)
from hypothesis import given
from hypothesis import strategies as st

from reference import complement, fidelity


class TestRegisterEncoding:
    def test_most_recent_letter_is_most_significant_bit(self):
        assert coins_to_index("L") == 0
        assert coins_to_index("R") == 1
        assert coins_to_index("RL") == 2
        assert coins_to_index("LR") == 1
        assert coins_to_index("RLL") == 4

    def test_round_trip_over_all_registers(self):
        for num_coins in (1, 2, 3, 4):
            for index in range(1 << num_coins):
                coins = index_to_coins(index, num_coins)
                assert len(coins) == num_coins
                assert coins_to_index(coins) == index

    def test_rejects_letters_other_than_l_and_r(self):
        with pytest.raises(ValueError):
            coins_to_index("LX")

    def test_index_range_is_checked(self):
        with pytest.raises(ValueError):
            index_to_coins(4, 2)
        with pytest.raises(ValueError):
            index_to_coins(-1, 2)

    @pytest.mark.parametrize("index", [True, False, np.True_, 1.0, np.float64(1), "1", None])
    def test_index_must_be_an_integer(self, index):
        with pytest.raises(ValueError, match=r"^index must be an integer, got"):
            index_to_coins(index, 2)

    def test_complement_swaps_every_letter(self):
        assert complement("LLR") == "RRL"
        assert complement(complement("LRLR")) == "LRLR"


class TestWalkState:
    def test_new_state_shape_and_zero_norm(self):
        state = new_state(3, 10)
        assert state.amplitudes.shape == (21, 8)
        assert state.norm() == 0.0
        assert state.steps_taken == 0

    def test_working_bytes_count_grids_compact_buffers_and_per_row_arrays(self):
        # Two full grids, four buffers of two sublattices of t_max + 2
        # rows, and sixteen 8-byte values per grid row.
        assert working_bytes(3, 10) == 2 * 21 * 8 * 16 + 4 * 2 * 12 * 8 * 16 + 128 * 21
        assert working_bytes(20, 1000) == (
            2 * 2001 * 2**20 * 16 + 4 * 2 * 1002 * 2**20 * 16 + 128 * 2001
        )

    def test_physical_memory_comes_from_sysconf(self):
        if not hasattr(os, "sysconf"):
            assert physical_memory_bytes() is None
        else:
            expected = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
            assert physical_memory_bytes() == expected > 0

    def test_new_state_refuses_grids_larger_than_physical_memory(self, monkeypatch):
        monkeypatch.setattr(histwalk.state, "physical_memory_bytes", lambda: 16 * 2**30)
        with pytest.raises(ValueError, match="physical memory"):
            new_state(20, 1000)
        assert new_state(12, 1000).amplitudes.shape == (2001, 4096)

    @pytest.mark.parametrize(
        "num_coins, t_max", [(100000, 5), (10**22, 1), (3, 10**400)],
        ids=["M=1e5", "M=1e22", "T=1e400"],
    )
    def test_sizes_past_any_memory_are_refused_without_an_overflow(
        self, monkeypatch, num_coins, t_max
    ):
        # A float quotient of these sizes overflowed, and 1 << 10**22 cannot be computed.
        monkeypatch.setattr(histwalk.state, "physical_memory_bytes", lambda: 16 * 2**30)
        message = "needs over 2\\*\\*64 bytes for the state, .* the 16.0 GiB of physical memory$"
        with pytest.raises(MemoryLimitError, match=message):
            new_state(num_coins, t_max)

    def test_sizes_are_reported_in_gib_to_one_decimal(self, monkeypatch):
        monkeypatch.setattr(histwalk.state, "physical_memory_bytes", lambda: 2**30)
        # 1.15 GiB lies between two whole byte counts.
        sizes = [(2**31 - 1, "2.0"), (2**30 * 23 // 20, "1.1"), (2**30 * 23 // 20 + 1, "1.2"),
                 (2**64, "17179869184.0")]
        for needed, shown in sizes:
            message = f"^x needs {shown} GiB y, more than the 1.0 GiB of physical memory$"
            with pytest.raises(MemoryLimitError, match=message):
                histwalk.state._check_fits(needed, "x", "y")

    def test_amplitude_round_trip(self):
        state = new_state(2, 5)
        state.set_amplitude(-3, "RL", 0.25 + 0.5j)
        assert state.amplitude(-3, "RL") == 0.25 + 0.5j
        assert state.amplitude(3, "RL") == 0.0
        state.set_amplitude(np.int64(2), "LL", 0.5)
        assert state.amplitude(np.int32(2), "LL") == state.amplitude(2, "LL") == 0.5

    def test_positions_axis_is_centered(self):
        state = new_state(1, 4)
        assert state.positions.tolist() == list(range(-4, 5))

    @pytest.mark.parametrize("x", [3, -3, np.int64(3)])
    def test_out_of_range_position_raises(self, x):
        state = new_state(1, 2)
        with pytest.raises(IndexError, match=r"outside \[-2, 2\]"):
            state.amplitude(x, "L")
        with pytest.raises(IndexError, match=r"outside \[-2, 2\]"):
            state.set_amplitude(x, "L", 1.0)

    @pytest.mark.parametrize("x", [True, False, np.True_, 2.0, 0.5, np.float64(1), "1", None])
    def test_non_integer_positions_are_refused_by_name(self, x):
        state = new_state(1, 3)
        with pytest.raises(ValueError, match=r"^position must be an integer, got"):
            state.set_amplitude(x, "L", 1.0)
        with pytest.raises(ValueError, match=r"^position must be an integer, got"):
            state.amplitude(x, "L")
        assert state.norm() == 0.0

    def test_register_length_is_checked(self):
        state = new_state(2, 2)
        with pytest.raises(ValueError):
            state.set_amplitude(0, "LRL", 1.0)

    def test_copy_is_independent(self):
        state = new_state(1, 2)
        state.set_amplitude(0, "L", 1.0)
        other = state.copy()
        other.set_amplitude(0, "L", 0.0)
        assert state.amplitude(0, "L") == 1.0

    def test_a_zero_horizon_is_a_grid_of_one_row(self):
        state = new_state(2, 0)
        assert state.amplitudes.shape == (1, 4)
        assert state.positions.tolist() == [0]

    def test_validation_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            new_state(0, 5)
        with pytest.raises(ValueError):
            new_state(1, -1)

    def test_fidelity_ignores_global_phase(self):
        a = new_state(1, 2)
        a.set_amplitude(0, "L", 1.0)
        b = new_state(1, 2)
        b.set_amplitude(0, "L", 1j)
        assert fidelity(a, b) == pytest.approx(1.0, abs=1e-15)

    def test_fidelity_requires_matching_grids(self):
        a, b = new_state(1, 2), new_state(1, 3)
        with pytest.raises(ValueError):
            fidelity(a, b)


class TestProbabilityDistribution:
    def test_from_mapping_sorts_positions(self):
        dist = ProbabilityDistribution.from_mapping({2: 0.25, -2: 0.25, 0: 0.5})
        assert dist.positions.tolist() == [-2, 0, 2]
        assert dist.probability(2) == 0.25
        assert dist.probability(1) == 0.0

    def test_rejects_negative_probabilities(self):
        with pytest.raises(ValueError):
            ProbabilityDistribution(np.array([0]), np.array([-0.1]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_probabilities(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ProbabilityDistribution(np.array([0, 1]), np.array([1.0, bad]))

    @pytest.mark.parametrize(
        "positions",
        [[0.5, 1.7], [0, 0.5], [np.nan, 1], [0, np.inf], [-np.inf, 0], [0, 1e300],
         [True, 2], [0, np.True_], np.array([False, True]), ["0", "1"], [0, 1 + 0j]],
    )
    def test_rejects_positions_that_are_not_integers(self, positions):
        with pytest.raises(ValueError, match="^positions must be finite whole numbers"):
            ProbabilityDistribution(positions, [0.5, 0.5])

    @pytest.mark.parametrize("mapping", [{0.5: 0.5, 1.7: 0.5}, {True: 0.5, 2: 0.5}])
    def test_from_mapping_rejects_keys_that_are_not_integers(self, mapping):
        with pytest.raises(ValueError, match="^positions must be finite whole numbers"):
            ProbabilityDistribution.from_mapping(mapping)

    def test_whole_float_positions_are_stored_as_ints(self):
        dist = ProbabilityDistribution([-2.0, 0.0, 2.0], [0.25, 0.5, 0.25])
        assert dist.positions.dtype == int
        assert dist.positions.tolist() == [-2, 0, 2]

    def test_integer_positions_are_taken_without_a_copy(self):
        positions = np.array([-1, 1])
        assert ProbabilityDistribution(positions, [0.5, 0.5]).positions is positions

    def test_rejects_lengths_that_do_not_match(self):
        with pytest.raises(ValueError, match="^positions and probabilities must be matching"):
            ProbabilityDistribution([0, 1], [1.0])

    def test_rejects_unsorted_positions(self):
        with pytest.raises(ValueError):
            ProbabilityDistribution(np.array([1, 0]), np.array([0.5, 0.5]))

    def test_as_dict_round_trips(self):
        table = {-1: 0.5, 1: 0.5}
        dist = ProbabilityDistribution.from_mapping(table)
        assert dist.as_dict() == table


class TestPositionDistribution:
    def test_single_origin_state(self):
        state = new_state(2, 3)
        state.set_amplitude(0, "LR", 1.0)
        dist = position_distribution(state)
        assert dist.as_dict() == {0: 1.0}

    def test_reports_on_the_occupied_parity_sublattice(self):
        state = new_state(1, 3)
        state.set_amplitude(-2, "L", np.sqrt(0.5))
        state.set_amplitude(2, "R", np.sqrt(0.5))
        dist = position_distribution(state)
        assert dist.positions.tolist() == [-2, 0, 2]
        assert dist.probability(0) == 0.0

    def test_mixed_parity_support_uses_unit_spacing(self):
        state = new_state(1, 3)
        state.set_amplitude(0, "L", np.sqrt(0.5))
        state.set_amplitude(1, "R", np.sqrt(0.5))
        dist = position_distribution(state)
        assert dist.positions.tolist() == [0, 1]

    def test_mixed_parity_support_keeps_interior_zeros(self):
        state = new_state(2, 4)
        state.set_amplitude(-1, "LR", 0.6)
        state.set_amplitude(2, "RR", 0.8j)
        dist = position_distribution(state)
        assert dist.positions.tolist() == [-1, 0, 1, 2]
        assert dist.probabilities.tolist() == [0.36, 0.0, 0.0, 0.6400000000000001]

    @given(
        st.lists(
            st.tuples(st.integers(-4, 4), st.sampled_from(["L", "R"]), st.floats(0.1, 1.0)),
            min_size=1, max_size=5,
        )
    )
    def test_support_is_the_occupied_run_on_a_shared_parity(self, entries):
        state = new_state(1, 4)
        for x, coin, amplitude in entries:
            state.set_amplitude(x, coin, amplitude)
        state.amplitudes /= state.norm()
        # The rule written out: from the first to the last occupied position,
        # every second one when all occupied positions share a parity.
        p = (np.abs(state.amplitudes) ** 2).sum(axis=1)
        occupied = np.nonzero(p)[0]
        parities = {int(state.positions[i]) & 1 for i in occupied}
        rows = np.arange(occupied[0], occupied[-1] + 1, 2 if len(parities) == 1 else 1)
        dist = position_distribution(state)
        assert dist.positions.tolist() == state.positions[rows].tolist()
        assert dist.probabilities.tobytes() == p[rows].tobytes()

    def test_traces_over_the_register(self):
        state = new_state(2, 2)
        for coins in ("LL", "LR", "RL", "RR"):
            state.set_amplitude(0, coins, 0.5)
        dist = position_distribution(state)
        assert dist.probability(0) == pytest.approx(1.0, abs=1e-15)

    def test_requires_unit_norm(self):
        state = new_state(1, 2)
        state.set_amplitude(0, "L", 0.5)
        with pytest.raises(NormalizationError):
            position_distribution(state)


class TestMoments:
    def test_symmetric_pair(self):
        dist = ProbabilityDistribution.from_mapping({-1: 0.5, 1: 0.5})
        stat = moments(dist)
        assert stat == Moments(0.0, 1.0)

    def test_shifted_point_mass(self):
        dist = ProbabilityDistribution.from_mapping({7: 1.0})
        stat = moments(dist)
        assert stat.mean == 7.0
        assert stat.std == 0.0

    def test_rejects_unnormalized_input(self):
        dist = ProbabilityDistribution.from_mapping({0: 0.5})
        with pytest.raises(NormalizationError):
            moments(dist)

    def test_the_moment_rule_refuses_a_negative_variance(self):
        # Squares that are not those of the positions, as no caller passes them.
        mean_std = histwalk.state._mean_std
        assert mean_std(np.array([1.0]), np.array([2.0]), np.array([4.0 - 1e-11])) == (2.0, 0.0)
        with pytest.raises(ValueError, match="^variance -1.0 is negative"):
            mean_std(np.array([1.0]), np.array([2.0]), np.array([3.0]))

    def test_the_negative_variance_guard_sits_at_3e_9_of_the_square(self):
        # With a square of order 1, -2e-9 of it is rounding and -4e-9 of it is not.
        mean_std, one = histwalk.state._mean_std, np.array([1.0])
        assert mean_std(one, one, np.array([1.0 - 2e-9])) == (1.0, 0.0)
        with pytest.raises(ValueError, match="is negative beyond rounding tolerance"):
            mean_std(one, one, np.array([1.0 - 4e-9]))

    def test_a_far_out_point_mass_that_passes_the_norm_rule_has_zero_std(self):
        # Its variance rounds to -2.3e-10, which an absolute bound of 1e-10 refused.
        stat = moments(ProbabilityDistribution([1000], [1 + 2**-52]))
        assert (stat.mean, stat.std) == (pytest.approx(1000.0), 0.0)

    def test_a_nan_sum_is_not_normalized(self):
        # Build past the constructor's check, to reach the one in moments.
        dist = ProbabilityDistribution.from_mapping({0: 1.0})
        object.__setattr__(dist, "probabilities", np.array([np.nan]))
        with pytest.raises(NormalizationError, match="sums to nan"):
            moments(dist)


class TestEncodingProperties:

    @given(
        st.integers(min_value=1, max_value=8).flatmap(
            lambda n: st.text(alphabet="LR", min_size=n, max_size=n)
        )
    )
    def test_any_register_string_round_trips_through_its_index(self, coins):
        assert index_to_coins(coins_to_index(coins), len(coins)) == coins
