"""Exact classical engines: the walk's probability-limit chain and capital games.

Replacing each retoss amplitude by its squared magnitude turns the walk into
a Markov chain over the last ``num_coins`` step results.  A chain state is
the results read chronologically (oldest first) as bits, L = 0 and R = 1,
with the oldest result the most significant; a start distribution is a
probability vector in that state order.  Alongside the chain live the
standard capital games used as classical baselines: a single biased coin, a
coin keyed on capital mod 3, and a coin keyed on the results of the last two
plays.

Each is a small Markov chain whose states have two branches, each a +1 or -1
step.  The walk's chain has ``2 ** num_coins`` history states; the capital
games share 12, capital mod 3 times the last two results, since their odds
depend on nothing else.  One exact loop propagates the state distribution
and adds up each step's expected increment, so results carry no sampling
error and capital games cost O(steps); a seeded sampler over the same states
is the cross-check.  Once the rounded distribution repeats bit for bit, the
loop stops stepping it and adds up the increments of the last pattern period
again, which gives the same means.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import cycle, islice
from typing import Mapping

import numpy as np

from .operators import HistoryRhoTable, _check_pattern, _check_probability
from .state import _amount, _check_fits, _count, _shifted

# Bytes charged per sampled trajectory: its state code and float64 position,
# the step's draw, branch, pick and deviation buffers (41 bytes), and one
# array gathered at a time, odds (where they vary by state), increments or
# next codes (8 bytes); tracemalloc measures a peak of 49 bytes per
# trajectory at 10**4 to 2 * 10**5, with constant odds or varying ones.
_TRAJECTORY_BYTES = 64

# Bytes charged per state of the walk's chain, for it and the loop buffers
# sized by it: tracemalloc measures 160-177 exact and 76 sampled at M = 12-18.
_EXACT_STATE_BYTES, _SAMPLED_STATE_BYTES = 192, 96

# Steps between repeat checks of an exact run, rounded up to whole pattern
# periods.  A check costs about half a 12-state step, so checking this seldom
# adds about 5% to a run that never repeats (checking every period added
# 33-57%), and a run that repeats steps at most this plus one period more.
_REPEAT_CHECK_STEPS = 32


@dataclass(frozen=True)
class _Chain:
    """A two-branch chain: from state ``s`` branch 0 has probability ``first[s]``.

    ``next[s, b]`` is the state that branch ``b`` leads to and ``step[s, b]``
    the +1 or -1 it adds to the capital or position.
    """

    first: np.ndarray
    next: np.ndarray
    step: np.ndarray


def _walk_chain(table: HistoryRhoTable) -> _Chain:
    """The walk's classical limit, over states in the module's chronological order.

    Branch 0 keeps the oldest result, which is the high bit (L = 0, R = 1).
    The table is indexed by the newer results read most recent first, which
    reverses the low ``num_coins - 1`` bits; the high bit does not matter.
    """
    size = 1 << table.num_coins
    oldest = np.arange(size) >> (table.num_coins - 1)
    newer = (np.arange(size) << 1) & (size - 1)
    reversal = np.arange(1)  # grows, one bit per pass, to num_coins - 1 bits
    for _ in range(table.num_coins - 1):
        reversal = np.concatenate([2 * reversal, 2 * reversal + 1])
    first = np.tile(table.retention_array()[reversal], 2)
    moves = np.stack([newer | oldest, newer | (1 - oldest)], axis=1)
    return _Chain(first, moves, np.stack([2 * oldest - 1, 1 - 2 * oldest], axis=1))


# The capital games' 12 states are 4 * (capital mod 3) + (last two results),
# the older result in the high bit and 1 for a win, so the four capital-0
# states come first.  Branch 0 is a win.
_RESIDUE, _PAIR = np.divmod(np.arange(12), 4)
_OLDER = (_PAIR & 1) * 2
_GAME_MOVES = np.stack([4 * ((_RESIDUE + d) % 3) + _OLDER + (d > 0) for d in (1, -1)], axis=1)
_GAME_STEPS = np.tile([1, -1], (12, 1))


def classical_mean_trajectory(table: HistoryRhoTable, steps: int, initial=None) -> np.ndarray:
    """Exact mean position of the classical-limit chain after each step.

    ``initial`` is a probability vector over the ``2 ** num_coins`` chain
    states in the module's order (oldest result as the high bit); omitted
    means uniform.  The distribution is propagated exactly and the mean
    accumulates each step's expected increment, so there is no sampling error.
    """
    steps = _count(steps, "steps", 0)
    _check_chain_fits(table, _EXACT_STATE_BYTES)
    chains, starts = _chains(table, None, (HistoryRhoTable,), "walk")
    return _exact_means(chains, starts, steps, initial, "chain states")


def _check_chain_fits(spec, state_bytes: int) -> None:
    """Raise MemoryLimitError if a walk table's chain, ``state_bytes`` per state, cannot fit."""
    if isinstance(spec, HistoryRhoTable):
        what = f"the classical chain of M = {_amount(spec.num_coins)}"
        _check_fits(_shifted(state_bytes, spec.num_coins), what, "for its states")


class _Odds:
    """Base of the capital-game specs: each field, in order, becomes a float in [0, 1]."""

    def __post_init__(self) -> None:
        for spec in fields(self):
            value = _check_probability(getattr(self, spec.name), spec.name)
            object.__setattr__(self, spec.name, value)


@dataclass(frozen=True)
class BiasedCoin(_Odds):
    """Win with probability ``p``; capital moves +1 on a win, -1 on a loss."""

    p: float


@dataclass(frozen=True)
class CapitalMod3(_Odds):
    """Coin keyed on capital: ``p1`` when capital is a multiple of 3, else ``p2``.

    The residue is the mathematical one, so capital -1 uses ``p2`` (residue 2).
    """

    p1: float
    p2: float


@dataclass(frozen=True)
class HistoryCoins(_Odds):
    """Coin keyed on the results of the last two plays, oldest first.

    ``p1`` plays after (lost, lost), ``p2`` after (lost, won), ``p3`` after
    (won, lost) and ``p4`` after (won, won).
    """

    p1: float
    p2: float
    p3: float
    p4: float

    def as_array(self) -> np.ndarray:
        return np.array([self.p1, self.p2, self.p3, self.p4])


def _chains(spec, pattern: str | None, kinds: tuple, label: str):
    """The chain played at each step of one pattern period, and the start count.

    ``kinds`` lists the accepted specs: a bare :class:`HistoryRhoTable` if
    listed, a single game spec, or a letter mapping played through
    ``pattern``.  Runs start on states ``0 .. starts - 1``: all of the walk's
    chain, or the four capital-0 states of the games.
    """
    if isinstance(spec, HistoryRhoTable) and HistoryRhoTable in kinds:
        chain = _walk_chain(spec)
        return [chain], chain.first.size
    if isinstance(spec, kinds):
        spec = {"A": spec}
        pattern = pattern or "A"
    if not isinstance(spec, Mapping) or not spec:
        raise TypeError("games must be a non-empty letter mapping or a single spec")
    _check_pattern(pattern, spec)
    chains = {}
    for name, game in spec.items():
        if not isinstance(game, kinds) or isinstance(game, HistoryRhoTable):
            raise TypeError(f"game {name!r} is not usable in a {label} sequence")
        if isinstance(game, BiasedCoin):
            first = np.full(12, game.p)
        elif isinstance(game, CapitalMod3):
            first = np.where(_RESIDUE == 0, game.p1, game.p2)
        else:
            first = game.as_array()[_PAIR]
        chains[name] = _Chain(first, _GAME_MOVES, _GAME_STEPS)
    return [chains[letter] for letter in pattern], 4


def _exact_means(chains, starts: int, steps: int, initial=None, over: str = "") -> np.ndarray:
    """Exact mean per step of the chains played cyclically from a start distribution.

    ``initial`` is a probability vector over the ``starts`` start states
    (uniform when omitted).  The distribution is kept in ``np.longdouble`` (a
    64-bit mantissa on x86, plain double where nothing wider exists), so means
    written to 12 decimals round as the exact ones do even next to a rounding
    tie.  Each step's expected increment, read off the branch flows, is added
    with compensated (Kahan) summation, so rounding does not build up.  The
    increments come from :func:`_increments`, which stops stepping the
    distribution once it repeats; the sum runs over the same increments in
    the same order, so the means are those of stepping every time.
    """
    steps = _count(steps, "steps", 0)
    _check_fits(8 * (steps + 1), f"an exact run of {_amount(steps)} steps", "for its means")
    if initial is None:
        initial = np.full(starts, 1.0 / starts)
    try:
        start = np.asarray(initial, dtype=float)
    except (TypeError, ValueError):  # a mapping or other non-numeric start
        start = np.empty(0)
    if (
        start.shape != (starts,)
        or not np.all(np.isfinite(start))
        or np.any(start < 0)
        or abs(start.sum() - 1.0) > 1e-12
    ):
        raise ValueError(f"initial must be a probability vector over {over}")
    pi = np.zeros(chains[0].first.size, dtype=np.longdouble)
    pi[:starts] = start
    means = np.zeros(steps + 1)
    total = carry = pi.dtype.type(0)
    for t, increment in enumerate(_increments(chains, pi, steps), 1):
        gain = increment - carry
        updated = total + gain
        carry = (updated - total) - gain
        total = updated
        means[t] = total
    return means


def _increments(chains, pi: np.ndarray, steps: int):
    """Yield the expected increment of each step of the chains played cyclically from ``pi``.

    ``pi`` is overwritten as it is stepped.  The rounded map over one period is
    deterministic, so when ``pi`` at the start of a period equals, bit for
    bit, its value one period earlier, every later increment repeats with the
    pattern's period.  From there the increments of the last period are
    yielded again and ``pi`` is no longer stepped.  The check runs every
    :data:`_REPEAT_CHECK_STEPS` steps, rounded up to whole periods, against
    the value kept one period before in a second buffer.
    """
    period = len(chains)
    stride = -(-_REPEAT_CHECK_STEPS // period) * period
    plays = [(c.first, c.next.T.ravel(), c.step.T.ravel().astype(pi.dtype)) for c in chains]
    previous = np.zeros_like(pi)
    flow = np.zeros(2 * pi.size, dtype=pi.dtype)
    won, lost = flow[: pi.size], flow[pi.size :]
    recent = [pi.dtype.type(0)] * period
    for t in range(steps):
        phase, lap = t % period, t % stride
        if lap == 0 and t and np.array_equal(pi, previous):
            yield from islice(cycle(recent), steps - t)
            return
        first, moves, increments = plays[phase]
        np.multiply(pi, first, out=won)
        np.subtract(pi, won, out=lost)
        recent[phase] = increment = flow @ increments
        yield increment
        if lap == stride - period:
            # Keep this period's start for the next check; step into the other buffer.
            pi, previous = previous, pi
        pi.fill(0)
        np.add.at(pi, moves, flow)


def capital_game_trajectory(games, pattern: str | None, steps: int) -> np.ndarray:
    """Exact mean capital per step for a cyclic pattern of capital-keyed games.

    ``games`` maps letters to :class:`BiasedCoin` or :class:`CapitalMod3`
    specs (a bare spec plays alone).  Only capital mod 3 matters to the odds,
    so the chain over residues is evolved, in O(steps) time and memory, and
    results carry no sampling error.
    """
    chains, starts = _chains(games, pattern, _ENGINES["capital"][0], "capital")
    return _exact_means(chains, starts, steps)


def history_mix_trajectory(games, pattern: str | None, steps: int, initial=None) -> np.ndarray:
    """Exact mean capital when win odds may key on the last two results.

    The four (before-last, last) result pairs are tracked as a distribution,
    starting uniform unless ``initial`` (length-4 probability vector over
    (lost,lost), (lost,won), (won,lost), (won,won)) is given.  Capital does
    not feed back into the odds, so only that four-state distribution and the
    accumulated mean are needed.
    """
    chains, starts = _chains(games, pattern, _ENGINES["history"][0], "history")
    return _exact_means(chains, starts, steps, initial, "4 result pairs")


# The exact capital-game engines of ``classical run``: the kinds each plays, and its run.
_ENGINES = {
    "capital": ((BiasedCoin, CapitalMod3), capital_game_trajectory),
    "history": ((BiasedCoin, HistoryCoins), history_mix_trajectory),
}


def monte_carlo_trajectory(spec, pattern, steps, n_trajectories, seed):
    """Sampled mean capital or position per step, with standard errors.

    A single PCG64 generator seeded with ``seed`` drives all trajectories in
    lockstep (one batch of uniform draws per step), so results are exactly
    reproducible for a given seed and trajectory count.  ``spec`` may be a
    :class:`HistoryRhoTable` (the chain sampled from its uniform start), a
    single capital-game spec, or a letter mapping played cyclically through
    ``pattern``.  Each trajectory starts on a uniform draw among the chain's
    start states and takes branch 0 when its draw ``u < first[state]``.
    Returns ``(means, standard_errors)`` arrays of length ``steps + 1``.

    The loop steps in buffers allocated once, on doubled state codes.  A
    game whose states all have the same branch-0 probability, such as a
    :class:`BiasedCoin` or a walk table with a single rho, is compared
    against that one number instead of a per-trajectory gather.  Positions
    are integers held in float64, and each mean is their float sum over
    ``n_trajectories``: that sum is ``position.mean()``'s while
    ``n_trajectories * steps < 2**53``, since every partial sum is then an
    exact integer.  The loop draws the same numbers as one
    ``rng.random(n_trajectories)`` per step and runs the operations of
    ``position.std(ddof=1)``, so every output bit is that of ``mean()`` and
    ``std(ddof=1)`` on integer positions within the bound, which no run that
    fits in memory passes in practice.
    """
    n = _count(n_trajectories, "n_trajectories", 1)
    steps = _count(steps, "steps", 0)
    seed = _count(seed, "seed", 0)
    needed = _TRAJECTORY_BYTES * n + 16 * (steps + 1)
    what = f"{_amount(n)} trajectories of {_amount(steps)} steps"
    _check_fits(needed, what, "for their states")
    _check_chain_fits(spec, _SAMPLED_STATE_BYTES)
    kinds = (HistoryRhoTable, BiasedCoin, CapitalMod3, HistoryCoins)
    chains, starts = _chains(spec, pattern, kinds, "sampled")
    # Trajectory codes are twice the chain state, so code + branch indexes
    # the raveled (state, branch) tables; odds that vary repeat per branch.
    plays = [(_sampled_odds(c.first), 2 * c.next.ravel(), c.step.ravel().astype(float))
             for c in chains]
    rng = np.random.default_rng(seed)
    code = rng.integers(starts, size=n)
    code <<= 1
    position = np.zeros(n)
    draws = np.empty(n)
    branch = np.empty(n, dtype=bool)
    pick = np.empty(n, dtype=np.intp)
    deviation = np.empty(n)
    means = np.zeros(steps + 1)
    errors = np.zeros(steps + 1)
    for t in range(steps):
        odds, moves, increments = plays[t % len(plays)]
        rng.random(out=draws)
        np.greater_equal(draws, odds if odds.ndim == 0 else odds[code], out=branch)
        np.add(code, branch, out=pick)
        position += increments[pick]
        code = moves[pick]
        # Positions are integers held exactly in float64.  Each partial sum
        # that position.mean() adds is an exact integer while n * steps <
        # 2**53, so this sum, in whatever order, equals it, and one
        # correctly rounded division gives the same double.
        mean = float(position.sum()) / n
        means[t + 1] = mean
        if n > 1:
            # np.std(ddof=1)'s own operations: deviations, squares, their
            # float64 sum, a division by n - 1 and a square root.
            np.subtract(position, mean, out=deviation)
            np.multiply(deviation, deviation, out=deviation)
            errors[t + 1] = np.sqrt(deviation.sum() / (n - 1)) / np.sqrt(n)
    return means, errors


def _sampled_odds(first: np.ndarray) -> np.ndarray:
    """A chain's branch-0 odds per doubled state code, or one 0-d value if all are equal."""
    if np.all(first == first[0]):
        return np.asarray(first[0])
    return np.repeat(first, 2)
