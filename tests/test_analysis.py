"""Smoothing, peak detection, and symmetry checks on probability distributions."""

import numpy as np
import pytest

from histwalk.analysis import (
    analyze_peaks,
    find_peaks,
    smooth_distribution,
    symmetry_deviation,
)
from histwalk.state import ProbabilityDistribution
from hypothesis import given
from hypothesis import strategies as st

from reference import smooth_by_points


def dist_of(mapping) -> ProbabilityDistribution:
    return ProbabilityDistribution.from_mapping(mapping)


class TestSmoothing:
    def test_three_point_example_renormalizes_to_known_weights(self):
        smoothed = smooth_distribution(dist_of({-2: 0.25, 0: 0.5, 2: 0.25}), 3)
        assert smoothed.positions.tolist() == [-2, 0, 2]
        assert smoothed.probabilities == pytest.approx([0.3, 0.4, 0.3], abs=1e-15)
        numpy_window = smooth_distribution(dist_of({-2: 0.25, 0: 0.5, 2: 0.25}), np.int64(3))
        assert np.array_equal(numpy_window.probabilities, smoothed.probabilities)

    def test_window_one_is_the_identity(self):
        original = dist_of({-2: 0.25, 0: 0.5, 2: 0.25})
        smoothed = smooth_distribution(original, 1)
        assert np.array_equal(smoothed.probabilities, original.probabilities)
        smoothed.probabilities[0] = 0.9
        assert original.probabilities[0] == 0.25

    def test_edge_averages_are_truncated_symmetrically(self):
        # With window 5 the second point may only average over one neighbor
        # on each side, and the first point is left alone.
        dist = dist_of({0: 0.1, 2: 0.2, 4: 0.4, 6: 0.2, 8: 0.1})
        raw = np.array([0.1, 0.2, 0.4, 0.2, 0.1])
        expected = np.array(
            [
                raw[0],
                raw[0:3].mean(),
                raw.mean(),
                raw[2:5].mean(),
                raw[4],
            ]
        )
        expected /= expected.sum()
        smoothed = smooth_distribution(dist, 5)
        assert smoothed.probabilities == pytest.approx(expected.tolist(), abs=1e-15)

    def test_preserves_total_mass_and_symmetry(self):
        rng = np.random.default_rng(5)
        weights = rng.uniform(size=9)
        weights = weights + weights[::-1]
        weights /= weights.sum()
        mapping = {2 * (i - 4): w for i, w in enumerate(weights)}
        smoothed = smooth_distribution(dist_of(mapping), 5)
        assert smoothed.total() == pytest.approx(1.0, abs=1e-14)
        assert symmetry_deviation(smoothed) < 1e-15

    def test_rejects_even_or_non_positive_windows(self):
        dist = dist_of({0: 1.0})
        for window in (0, -3, 2, 4, np.int64(2)):
            with pytest.raises(ValueError, match="odd"):
                smooth_distribution(dist, window)

    @pytest.mark.parametrize(
        "window", [True, False, np.True_, 3.0, np.float64(3), 2.5, "3", None]
    )
    def test_non_integer_windows_are_refused_by_name(self, window):
        dist = dist_of({-2: 0.25, 0: 0.5, 2: 0.25})
        with pytest.raises(ValueError, match=r"^window must be an integer, got"):
            smooth_distribution(dist, window)
        with pytest.raises(ValueError, match=r"^window must be an integer, got"):
            analyze_peaks(dist, window, 0.1)

    def test_rejects_mixed_parity_support(self):
        with pytest.raises(ValueError, match="parity"):
            smooth_distribution(dist_of({0: 0.5, 1: 0.5}), 3)


class TestFindPeaks:
    def test_single_point_is_its_own_peak(self):
        report = find_peaks(dist_of({0: 1.0}), 0.1)
        assert report.peaks == ((0, 1.0),)

    def test_interior_maximum_must_rise_above_both_neighbors(self):
        dist = dist_of({0: 0.1, 2: 0.3, 4: 0.2, 6: 0.3, 8: 0.1})
        report = find_peaks(dist, 0.1)
        assert report.positions == [2, 6]
        assert [h for _, h in report.peaks] == pytest.approx([0.3, 0.3])

    def test_plateau_counts_once_at_its_leftmost_point(self):
        dist = dist_of({0: 0.1, 2: 0.3, 4: 0.3, 6: 0.1, 8: 0.2})
        report = find_peaks(dist, 0.1)
        assert report.positions == [2, 8]

    def test_edges_only_need_to_fall_off_inward(self):
        falling = find_peaks(dist_of({0: 0.5, 2: 0.3, 4: 0.2}), 0.1)
        assert falling.positions == [0]
        rising = find_peaks(dist_of({0: 0.2, 2: 0.3, 4: 0.5}), 0.1)
        assert rising.positions == [4]

    def test_height_floor_is_a_fraction_of_the_global_maximum(self):
        dist = dist_of({0: 0.5, 2: 0.1, 4: 0.2, 6: 0.1, 8: 0.1})
        generous = find_peaks(dist, 0.3)
        assert generous.positions == [0, 4]
        strict = find_peaks(dist, 0.5)
        assert strict.positions == [0]

    def test_detection_is_invariant_under_rescaling(self):
        mapping = {0: 0.5, 2: 0.1, 4: 0.2, 6: 0.1, 8: 0.1}
        doubled = {x: 2 * p for x, p in mapping.items()}
        assert (
            find_peaks(dist_of(mapping), 0.3).positions
            == find_peaks(dist_of(doubled), 0.3).positions
        )

    def test_validates_prominence_fraction(self):
        dist = dist_of({0: 1.0})
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError, match="prominence_fraction"):
                find_peaks(dist, bad)

    def test_rejects_empty_mass_and_mixed_parity(self):
        with pytest.raises(ValueError, match="mass"):
            find_peaks(dist_of({0: 0.0, 2: 0.0}), 0.1)
        with pytest.raises(ValueError, match="parity"):
            find_peaks(dist_of({0: 0.5, 1: 0.5}), 0.1)


class TestAnalyzePeaks:
    def test_smooths_then_detects(self):
        dist = dist_of({-2: 0.25, 0: 0.5, 2: 0.25})
        report = analyze_peaks(dist, window=3, prominence=0.5)
        assert report.peaks == ((0, pytest.approx(0.4)),)

    def test_matches_manual_pipeline(self):
        rng = np.random.default_rng(11)
        weights = rng.uniform(size=21)
        weights /= weights.sum()
        dist = dist_of({2 * (i - 10): w for i, w in enumerate(weights)})
        combined = analyze_peaks(dist, window=5, prominence=0.1)
        manual = find_peaks(smooth_distribution(dist, 5), 0.1)
        assert combined == manual

    def test_smoothing_merges_jagged_twin_spikes(self):
        dist = dist_of({0: 0.05, 2: 0.3, 4: 0.25, 6: 0.3, 8: 0.05, 10: 0.05})
        assert find_peaks(dist, 0.1).positions == [2, 6]
        assert analyze_peaks(dist, window=3, prominence=0.1).positions == [4]


class TestSymmetryDeviation:
    def test_zero_for_a_symmetric_distribution(self):
        assert symmetry_deviation(dist_of({-2: 0.25, 0: 0.5, 2: 0.25})) == 0.0

    def test_reports_the_worst_mirror_mismatch(self):
        value = symmetry_deviation(dist_of({-2: 0.2, 0: 0.5, 2: 0.3}))
        assert value == pytest.approx(0.1)

    def test_missing_mirror_points_count_in_full(self):
        assert symmetry_deviation(dist_of({0: 0.5, 4: 0.5})) == pytest.approx(0.5)


class TestSmoothingProperties:

    @given(
        st.lists(st.floats(0.01, 1.0), min_size=1, max_size=41),
        st.sampled_from([1, 3, 5, 7]),
    )
    def test_any_renormalized_input_keeps_unit_mass(self, weights, window):
        total = sum(weights)
        mapping = {2 * i: w / total for i, w in enumerate(weights)}
        smoothed = smooth_distribution(dist_of(mapping), window)
        assert smoothed.total() == pytest.approx(1.0, abs=1e-12)

    @given(st.data())
    def test_equals_the_point_by_point_oracle_bit_for_bit(self, data):
        n = data.draw(st.integers(1, 40))
        window = data.draw(st.sampled_from(range(1, 2 * n + 2, 2)))
        weights = data.draw(
            st.lists(st.floats(0.0, 1.0, allow_subnormal=False), min_size=n, max_size=n)
            .filter(lambda w: sum(w) > 0.0)
        )
        start = data.draw(st.integers(-100, 100))
        dist = ProbabilityDistribution(start + 2 * np.arange(n), np.array(weights))
        smoothed = smooth_distribution(dist, window)
        assert np.array_equal(smoothed.positions, dist.positions)
        assert np.array_equal(smoothed.probabilities, smooth_by_points(dist.probabilities, window))

    @given(st.integers(2, 40), st.sampled_from([1, 3, 5, 81]), st.data())
    def test_any_mixed_parity_support_is_rejected(self, n, window, data):
        odd = data.draw(st.integers(1, n - 1))
        positions = 2 * np.arange(n)
        positions[odd:] += 1
        dist = ProbabilityDistribution(positions, np.full(n, 1.0 / n))
        with pytest.raises(ValueError, match="parity"):
            smooth_distribution(dist, window)
