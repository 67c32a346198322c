"""Distribution post-processing: envelope smoothing, peak finding, symmetry checks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .state import ProbabilityDistribution, _amount, _count

__all__ = [
    "PeakReport",
    "smooth_distribution",
    "find_peaks",
    "analyze_peaks",
    "symmetry_deviation",
]


def _check_single_parity(dist: ProbabilityDistribution) -> None:
    positions = dist.positions
    if np.any((positions ^ positions[0]) & 1):
        raise ValueError("distribution must be supported on a single parity class")


_WINDOW, _PROMINENCE = 5, 0.1  # the peak report's defaults


def _check_window(window, name: str = "window") -> int:
    """``window`` as an odd positive ``int``: the smoothing rule of :func:`smooth_distribution`."""
    window = _count(window, name, -np.inf)
    if window < 1 or window % 2 == 0:
        raise ValueError(f"{name} must be an odd positive integer, got {_amount(window)}")
    return window


def _check_prominence(fraction: float, name: str = "prominence_fraction") -> float:
    """``fraction`` if it lies in (0, 1): the threshold rule of :func:`find_peaks`."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"{name} must be in (0, 1), got {fraction}")
    return fraction


def smooth_distribution(dist: ProbabilityDistribution, window: int) -> ProbabilityDistribution:
    """Moving average over neighboring support points, renormalized to sum 1.

    ``window`` must be odd; near the edges it is truncated symmetrically so
    every point stays centered in its own average (the first and last points
    are left as they are).  ``window=1`` returns the input unchanged.
    """
    window = _check_window(window)
    _check_single_parity(dist)
    if window == 1:
        return ProbabilityDistribution(dist.positions.copy(), dist.probabilities.copy())
    p = dist.probabilities
    n = p.size
    half = window // 2
    out = np.empty_like(p)
    if n >= window:
        out[half : n - half] = sliding_window_view(p, window).mean(axis=1)
    # The at most window - 1 points whose window is truncated by an edge.
    for i in (*range(min(half, n)), *range(max(n - half, half), n)):
        k = min(i, n - 1 - i)
        out[i] = p[i - k : i + k + 1].mean()
    out = out / out.sum()
    return ProbabilityDistribution(dist.positions.copy(), out)


@dataclass(frozen=True)
class PeakReport:
    """Detected peaks as ``(position, height)`` pairs, sorted by position."""

    peaks: tuple[tuple[int, float], ...]

    @property
    def positions(self) -> list[int]:
        return [x for x, _ in self.peaks]


def find_peaks(dist: ProbabilityDistribution, prominence_fraction: float) -> PeakReport:
    """Local maxima at least ``prominence_fraction`` of the global maximum.

    A support point counts when it is strictly higher than both neighbors on
    the support grid; a flat run higher than its surroundings counts once, at
    its leftmost point, and runs touching an edge need only fall off on the
    inner side.  Nothing is smoothed here; :func:`analyze_peaks` runs the
    smooth-then-detect pipeline.
    """
    _check_prominence(prominence_fraction)
    _check_single_parity(dist)
    p = dist.probabilities
    top = float(p.max())
    if top <= 0.0:
        raise ValueError("distribution has no probability mass")
    floor = prominence_fraction * top
    # Runs of equal values, each from an index where p changes; a run is a
    # peak if it is higher than the runs beside it (-inf beyond an edge).
    starts = np.flatnonzero(np.concatenate(([True], p[1:] != p[:-1])))
    heights = p[starts]
    beside = np.concatenate(([-np.inf], heights, [-np.inf]))
    peak = (beside[:-2] < heights) & (heights > beside[2:]) & (heights >= floor)
    peaks = zip(dist.positions[starts[peak]].tolist(), heights[peak].tolist())
    return PeakReport(tuple(peaks))


def analyze_peaks(
    dist: ProbabilityDistribution, window: int = _WINDOW, prominence: float = _PROMINENCE
) -> PeakReport:
    """Smooth with ``window``, then report peaks above ``prominence`` of the max."""
    return find_peaks(smooth_distribution(dist, window), prominence)


def symmetry_deviation(dist: ProbabilityDistribution) -> float:
    """Largest absolute difference between the weights at x and at -x."""
    table = dist.as_dict()
    worst = 0.0
    for x, p in table.items():
        worst = max(worst, abs(p - table.get(-x, 0.0)))
    return worst
