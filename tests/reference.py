"""Independent reference models used as test oracles.

Everything here is deliberately naive: full dense matrices assembled from
Kronecker products for the walk, dictionary-based distribution evolution
for the classical games, and the walk's classical-limit chain as a
transition matrix enumerated over state strings, with its stationary
distribution found by power iteration.  Nothing here imports the package,
and nothing is shared with the package's vectorized engines except the
documented basis conventions (row = position + t_max, column = register
string with the most recent result as the most significant bit, L = 0 and
R = 1).  The two exceptions read the package's chain tables so that their
outputs can be compared bit for bit: :func:`exact_means_every_step`, the
exact classical loop without its early stop, and
:func:`sampled_means_allocating`, the seeded sampler with a fresh array for
every intermediate.  :func:`peaks_by_scan`, :func:`svg_series_by_points` and
:func:`csv_by_rows` are the package's earlier per-run, per-point and per-cell
loops, kept as oracles for the array and column passes that replaced them.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import product

import numpy as np

# Power iteration's sup-norm tolerance and step cap; a walk chain stops at step 1.
_STATIONARY_TOL = 1e-13
_STATIONARY_MAX_ITERATIONS = 1_000_000


def coin_unitary(rho: float) -> np.ndarray:
    """2x2 toss matrix: retention amplitude ``sqrt(rho)``, flip ``i*sqrt(1-rho)``.

    ``1 - rho`` is the classical probability that the tossed entry changes
    value; ``rho = 1/2`` is an unbiased toss.  The matrix is unitary for every
    ``rho`` in ``[0, 1]``; other values raise ValueError.
    """
    rho = float(rho)
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho = {rho} must lie in [0, 1]")
    keep = np.sqrt(rho)
    flip = 1j * np.sqrt(1.0 - rho)
    return np.array([[keep, flip], [flip, keep]], dtype=np.complex128)


def dense_step_matrix(num_coins: int, t_max: int, rho_by_history) -> np.ndarray:
    """One full evolution step as a dense unitary on the flattened state.

    ``rho_by_history[h]`` is the retention probability for the history whose
    most-recent-first bit pattern equals ``h`` (the leading ``num_coins - 1``
    bits of the register index).  The flattened state orders amplitudes
    row-major as ``psi[row * 2**num_coins + register]``.
    """
    n_pos = 2 * t_max + 1
    size = 1 << num_coins
    half = size >> 1

    retoss = np.zeros((size, size), dtype=np.complex128)
    for h in range(half):
        retoss[2 * h : 2 * h + 2, 2 * h : 2 * h + 2] = coin_unitary(rho_by_history[h])

    move_up = np.diag(np.ones(n_pos - 1), -1)
    move_down = np.diag(np.ones(n_pos - 1), +1)
    went_right = np.diag([float(c & 1) for c in range(size)])
    went_left = np.eye(size) - went_right
    shift = np.kron(move_up, went_right) + np.kron(move_down, went_left)

    rotate = np.zeros((size, size))
    for new in range(size):
        old = ((new << 1) | (new >> (num_coins - 1))) & (size - 1)
        rotate[new, old] = 1.0

    flat_retoss = np.kron(np.eye(n_pos), retoss)
    flat_rotate = np.kron(np.eye(n_pos), rotate)
    return flat_rotate @ shift @ flat_retoss


def dense_evolve(amplitudes: np.ndarray, num_coins: int, rho_by_history, steps: int):
    """Evolve a (positions, registers) amplitude table by repeated dense steps."""
    n_pos, size = amplitudes.shape
    t_max = (n_pos - 1) // 2
    matrix = dense_step_matrix(num_coins, t_max, rho_by_history)
    psi = amplitudes.reshape(-1).astype(np.complex128)
    for _ in range(steps):
        psi = matrix @ psi
    return psi.reshape(n_pos, size)


def fidelity(a, b) -> float:
    """``|<a|b>|`` for walk states on matching grids; insensitive to global phase."""
    if (a.num_coins, a.t_max) != (b.num_coins, b.t_max):
        raise ValueError("states live on different (num_coins, t_max) grids")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)))


def history_states(num_coins: int) -> list[str]:
    """Chain states as chronological strings, oldest result first, in row order."""
    return ["".join(s) for s in product("LR", repeat=num_coins)]


def complement(coins: str) -> str:
    """Swap L and R throughout a register or history string; other letters raise KeyError."""
    return "".join({"L": "R", "R": "L"}[letter] for letter in coins)


def history_walk_transition(table) -> np.ndarray:
    """Row-stochastic transition matrix of the walk's classical limit, by string enumeration.

    Rows and columns follow :func:`history_states`.  The step is that of
    :func:`chain_mean_by_enumeration`: the oldest letter is kept with the
    retention entry ``table.rho`` gives the newer letters read most recent
    first, and flipped otherwise; the next state is the newer letters followed
    by the new one.  Each state has exactly two predecessors, reached with
    complementary probabilities, so every column also sums to one.
    """
    retention = table.rho
    states = history_states(table.num_coins)
    row = {state: i for i, state in enumerate(states)}
    matrix = np.zeros((len(states), len(states)))
    for state in states:
        oldest, newer = state[0], state[1:]
        keep = retention[newer[::-1]]
        flipped = "R" if oldest == "L" else "L"
        matrix[row[state], row[newer + oldest]] = keep
        matrix[row[state], row[newer + flipped]] = 1.0 - keep
    return matrix


@dataclass(frozen=True)
class StationaryResult:
    """A stationary distribution plus a flag for chains where it is not unique."""

    distribution: np.ndarray
    flagged: bool
    reason: str | None
    iterations: int


def stationary_distribution(matrix) -> StationaryResult:
    """Left fixed point of a row-stochastic matrix by power iteration.

    Iterates from the uniform distribution until successive iterates differ
    in sup norm by less than ``_STATIONARY_TOL``.  Chains with several
    eigenvalues on the unit circle (reducible or periodic, e.g. retention
    parameters of exactly 0 or 1) have no single settling point; those results
    come back flagged with a reason instead of being silently averaged.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("transition matrix must be square")
    if np.any(matrix < -1e-12):
        raise ValueError("transition matrix has negative entries")
    if np.any(np.abs(matrix.sum(axis=1) - 1.0) > 1e-12):
        raise ValueError("transition matrix rows must sum to 1")
    size = matrix.shape[0]

    eigenvalues = np.linalg.eigvals(matrix)
    at_one = np.abs(eigenvalues - 1.0) < 1e-9
    on_circle = np.abs(np.abs(eigenvalues) - 1.0) < 1e-9
    flagged = False
    reason = None
    if int(at_one.sum()) > 1:
        flagged = True
        reason = "stationary distribution is not unique (reducible chain)"
    elif int(on_circle.sum()) > int(at_one.sum()):
        flagged = True
        reason = "chain is periodic; distributions cycle instead of settling"

    pi = np.full(size, 1.0 / size)
    iterations = 0
    converged = False
    cap = 10_000 if flagged else _STATIONARY_MAX_ITERATIONS
    for iterations in range(1, cap + 1):
        nxt = pi @ matrix
        diff = float(np.max(np.abs(nxt - pi)))
        pi = nxt
        if diff < _STATIONARY_TOL:
            converged = True
            break
    if not flagged and not converged:
        flagged = True
        reason = f"power iteration did not converge within {_STATIONARY_MAX_ITERATIONS} iterations"
    pi = np.clip(pi, 0.0, None)
    pi = pi / pi.sum()
    return StationaryResult(pi, flagged, reason, iterations)


def chain_mean_by_enumeration(retention: dict, steps: int, initial: dict) -> float:
    """Mean position of the record-keeping chain, by explicit state enumeration.

    ``retention`` maps most-recent-first history strings to keep probabilities.
    ``initial`` maps chronological (oldest-first) state strings to weights.
    The oldest letter is retossed each step: kept with the retention entry for
    the newer letters, flipped otherwise; the new letter is the step.
    """
    dist = dict(initial)
    mean = 0.0
    for _ in range(steps):
        nxt: dict = {}
        gain = 0.0
        for state, weight in dist.items():
            oldest, newer = state[0], state[1:]
            keep = retention[newer[::-1]]
            for kept, prob in ((True, keep), (False, 1.0 - keep)):
                letter = oldest if kept else ("R" if oldest == "L" else "L")
                gain += weight * prob * (1.0 if letter == "R" else -1.0)
                key = newer + letter
                nxt[key] = nxt.get(key, 0.0) + weight * prob
        dist = nxt
        mean += gain
    return mean


def capital_mean_by_convolution(win_prob_at, steps: int) -> float:
    """Mean capital after ``steps`` rounds of a +1/-1 game.

    ``win_prob_at(t, capital)`` gives the win probability for round ``t``
    (0-based) at the current capital; the distribution over capital values is
    evolved exactly as a dictionary.
    """
    dist = {0: 1.0}
    for t in range(steps):
        nxt: dict = {}
        for capital, weight in dist.items():
            p = win_prob_at(t, capital)
            nxt[capital + 1] = nxt.get(capital + 1, 0.0) + weight * p
            nxt[capital - 1] = nxt.get(capital - 1, 0.0) + weight * (1.0 - p)
        dist = nxt
    return sum(c * w for c, w in dist.items())


def history_mean_by_enumeration(win_prob_at, steps: int, initial: dict) -> float:
    """Mean capital after ``steps`` rounds of a game keyed on the last two results.

    ``win_prob_at(t, older, last)`` gives the win probability for round ``t``
    (0-based) after the results ``older`` then ``last`` (1 for a win, 0 for a
    loss).  ``initial`` maps ``(older, last)`` pairs to weights.  The
    distribution over result pairs is evolved exactly as a dictionary.
    """
    dist = dict(initial)
    mean = 0.0
    for t in range(steps):
        nxt: dict = {}
        for (older, last), weight in dist.items():
            p = win_prob_at(t, older, last)
            mean += weight * (2.0 * p - 1.0)
            for result, prob in ((1, p), (0, 1.0 - p)):
                nxt[(last, result)] = nxt.get((last, result), 0.0) + weight * prob
        dist = nxt
    return mean


def chain_mean_in_decimal(win_prob_at, advance, initial: dict, steps: int, digits: int = 50):
    """Mean capital of a +1/-1 game on a finite chain, in ``digits``-digit decimals.

    ``win_prob_at(t, state)`` gives the float win probability for round ``t``
    (converted to decimal exactly), ``advance(state, won)`` the next state,
    and ``initial`` maps states to weights.  Rounding stays near
    ``10**-digits``, so this is the reference for long-horizon accuracy.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        dist = {state: Decimal(weight) for state, weight in initial.items()}
        mean = Decimal(0)
        for t in range(steps):
            nxt: dict = {}
            for state, weight in dist.items():
                p = Decimal(win_prob_at(t, state))
                mean += weight * (2 * p - 1)
                for won, prob in ((True, p), (False, 1 - p)):
                    key = advance(state, won)
                    nxt[key] = nxt.get(key, Decimal(0)) + weight * prob
            dist = nxt
        return mean


def register_probabilities_by_modulus(amplitudes: np.ndarray) -> np.ndarray:
    """Σ over the columns of ``|a|**2`` for a ``(rows, columns)`` table, by modulus.

    ``np.abs`` (a hypot), squared, then summed along each row: how the
    package's readout summed before it read the squares off the float view.
    """
    return (np.abs(amplitudes) ** 2).sum(axis=1)


def register_probabilities_exact(amplitudes: np.ndarray) -> list[Fraction]:
    """Σ over the columns of ``re**2 + im**2`` for each row, in exact rational arithmetic."""
    return [
        sum((Fraction(a.real) ** 2 + Fraction(a.imag) ** 2 for a in row.tolist()), Fraction(0))
        for row in amplitudes
    ]


def smooth_by_points(probabilities: np.ndarray, window: int) -> np.ndarray:
    """Moving average over support points, one slice mean per point, renormalized.

    Each point averages the ``window`` points centered on it, truncated
    symmetrically near the edges; ``window=1`` returns a copy of the input.
    This is the smoother's specification, point by point.
    """
    p = np.asarray(probabilities, dtype=float)
    if window == 1:
        return p.copy()
    n = p.size
    half = window // 2
    out = np.empty_like(p)
    for i in range(n):
        k = min(half, i, n - 1 - i)
        out[i] = p[i - k : i + k + 1].mean()
    return out / out.sum()


def peaks_by_scan(positions, probabilities, prominence_fraction: float) -> list[tuple[int, float]]:
    """Peaks of a distribution, found by walking its runs of equal values one by one.

    A run is reported, at its first point, when the points just outside it
    are lower (or absent, at an edge) and its value is at least
    ``prominence_fraction`` of the maximum.  This is the peak finder's loop
    before it became one array pass; ``find_peaks`` must return these pairs,
    with these Python types.
    """
    p = np.asarray(probabilities, dtype=float)
    n = p.size
    floor = prominence_fraction * float(p.max())
    peaks: list[tuple[int, float]] = []
    i = 0
    while i < n:
        j = i
        while j + 1 < n and p[j + 1] == p[i]:
            j += 1
        rises_left = i == 0 or p[i - 1] < p[i]
        falls_right = j == n - 1 or p[j + 1] < p[i]
        if rises_left and falls_right and p[i] >= floor:
            peaks.append((int(positions[i]), float(p[i])))
        i = j + 1
    return peaks


def svg_bounds(values: list[float]) -> tuple[float, float]:
    """A plot axis's range: the values' extremes, padded apart when they are equal."""
    lo, hi = min(values), max(values)
    if lo == hi:
        pad = abs(lo) * 0.5 + 1.0
        return lo - pad, hi + pad
    return lo, hi


def svg_series_by_points(xs, ys, x_range, y_range, box, style: str, color: str) -> str:
    """One series' SVG markup, each point scaled and formatted on its own.

    ``box`` is the plot area's ``(left, top, width, height)`` in pixels and
    the ranges are the axes' ``(lo, hi)``.  A ``"line"`` series is one
    polyline, a ``"scatter"`` series one circle per point.  These are the
    chart writer's per-point formulas and f-strings before it scaled a
    series at once; its markup must equal this byte for byte.
    """
    (x_lo, x_hi), (y_lo, y_hi), (left, top, plot_w, plot_h) = x_range, y_range, box

    def sx(x: float) -> float:
        return left + (x - x_lo) * plot_w / (x_hi - x_lo)

    def sy(y: float) -> float:
        return top + (y_hi - y) * plot_h / (y_hi - y_lo)

    if style == "line":
        points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        return f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>\n'
    return "".join(
        f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="2.5" fill="{color}"/>\n'
        for x, y in zip(xs, ys)
    )


def csv_by_rows(header, rows) -> str:
    """A CSV payload written row by row, each cell formatted on its own.

    Strings pass through, integers and booleans (NumPy's too) are written as
    integers, and any other number as its float in fixed point with 12
    decimals, anything that rounds to zero as ``0.000000000000``.  This is the
    CSV writer's loop before it formatted a column at a time; ``write_csv``
    must write this text.
    """

    def cell(value) -> str:
        if isinstance(value, str):
            return value
        if isinstance(value, (int, np.integer, np.bool_)):
            return str(int(value))
        text = f"{float(value):.12f}"
        return text[1:] if text == "-0.000000000000" else text

    lines = [",".join(header)]
    lines.extend(",".join(map(cell, row)) for row in rows)
    return "\n".join(lines) + "\n"


def exact_means_every_step(chains, starts: int, steps: int, initial=None) -> np.ndarray:
    """Exact mean per step of two-branch chains played cyclically, stepping every time.

    ``chains`` holds one chain per pattern letter, each with the package's
    ``first``, ``next`` and ``step`` arrays, and ``initial`` a probability
    vector over the ``starts`` start states (uniform when omitted).  This is
    the package's exact loop without its stop at a repeated distribution: the
    same ``np.longdouble`` distribution, branch flows and Kahan sum, in the
    same order, so the package's means must equal these bit for bit.
    """
    start = np.full(starts, 1.0 / starts) if initial is None else np.asarray(initial, dtype=float)
    pi = np.zeros(chains[0].first.size, dtype=np.longdouble)
    pi[:starts] = start
    plays = [(c.first, c.next.T.ravel(), c.step.T.ravel().astype(pi.dtype)) for c in chains]
    flow = np.zeros(2 * pi.size, dtype=pi.dtype)
    won, lost = flow[: pi.size], flow[pi.size :]
    means = np.zeros(steps + 1)
    total = carry = pi.dtype.type(0)
    for t in range(steps):
        first, moves, increments = plays[t % len(plays)]
        np.multiply(pi, first, out=won)
        np.subtract(pi, won, out=lost)
        gain = flow @ increments - carry
        updated = total + gain
        carry = (updated - total) - gain
        total = updated
        means[t + 1] = total
        pi.fill(0)
        np.add.at(pi, moves, flow)
    return means


def sampled_means_allocating(chains, starts: int, steps: int, n_trajectories: int, seed):
    """Seeded sample means and standard errors of chains played cyclically.

    ``chains`` and ``starts`` are as for :func:`exact_means_every_step`.  This
    is the package's sampler written plainly: one ``rng.random`` batch per
    step, ``2 * state + branch`` picks, and ``mean()``/``std(ddof=1)`` on the
    positions, each step allocating its own arrays.  The package's buffered
    loop must return these means and errors bit for bit.
    """
    rng = np.random.default_rng(seed)
    state = rng.integers(starts, size=n_trajectories)
    position = np.zeros(n_trajectories, dtype=np.int64)
    means = np.zeros(steps + 1)
    errors = np.zeros(steps + 1)
    for t in range(steps):
        chain = chains[t % len(chains)]
        pick = 2 * state + (rng.random(n_trajectories) >= chain.first[state])
        position += chain.step.ravel()[pick]
        state = chain.next.ravel()[pick]
        means[t + 1] = position.mean()
        if n_trajectories > 1:
            errors[t + 1] = position.std(ddof=1) / np.sqrt(n_trajectories)
    return means, errors
