"""Initial states, game sequencing, pattern scans and parameter sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice, product
from typing import Iterable, Mapping, Sequence

import numpy as np

from .operators import HistoryRhoTable, _check_pattern, _coin_cycle, _history_index, _Kernel
from .state import (
    HorizonError,
    Moments,
    ProbabilityDistribution,
    WalkState,
    _amount,
    _check_fits,
    _check_norm,
    _count,
    _distribution,
    _echo,
    _new_state,
    _readout,
    _readouts,
)

__all__ = [
    "ANTISYMMETRIC",
    "ALL_R",
    "Trajectory",
    "build_initial_state",
    "as_game_tables",
    "run_sequence",
    "final_distribution",
    "evolve",
    "evolve_brun",
    "scan_sequences",
    "sweep_parameter",
    "POSITIVE_MEAN_THRESHOLD",
]

ANTISYMMETRIC = "antisymmetric"
ALL_R = "allR"

#: Means above this count as genuinely positive in pattern scans; smaller
#: values are rounding dust from patterns with no net bias.
POSITIVE_MEAN_THRESHOLD = 1e-9

# Scans and sweeps step their patterns or grid points in chunks whose
# amplitude buffers hold about this many bytes each.  At small M a step is
# mostly fixed NumPy call cost, paid once per chunk, so fewer chunks pay
# until the kernel's two buffers outgrow the L2 cache.  On a 2-core x86-64
# host with 2 MiB of L2 per core (NumPy 2.4), five scans at M=3, 5 and 8
# and T=60-1000 took 10-25% longer at 256 KiB than at 512 KiB, which was
# within 9% of the fastest budget tried at each; 2 MiB was slower again
# (ROADMAP, "Measured limits").
_CHUNK_BYTES = 512 * 1024

# Bytes a scan pattern or sweep point holds in its results: key or grid
# value, result objects and container slots (tracemalloc measures 120-230).
_RESULT_BYTES = 256


def as_game_tables(games: Mapping[str, HistoryRhoTable]) -> dict[str, HistoryRhoTable]:
    """Check a letter -> table mapping and return it as a dict.

    All tables must agree on ``num_coins``.
    """
    out: dict[str, HistoryRhoTable] = {}
    for name, table in games.items():
        if not isinstance(table, HistoryRhoTable):
            raise TypeError(f"game {name!r} is not a retention table")
        if len(name) != 1 or not name.isalpha():
            raise ValueError(f"game name must be a single letter, got {name!r}")
        out[name] = table
    if not out:
        raise ValueError("no games defined")
    sizes = {table.num_coins for table in out.values()}
    if len(sizes) != 1:
        raise ValueError(f"games disagree on register size: {sorted(sizes)}")
    return out


def _check_start(kind: str, name: str) -> str:
    """``kind`` if it names a start of :func:`build_initial_state`."""
    if kind not in (ANTISYMMETRIC, ALL_R):
        raise ValueError(f"{name} = {_echo(repr(kind))} must be {ANTISYMMETRIC!r} or {ALL_R!r}")
    return kind


def build_initial_state(num_coins, kind=ANTISYMMETRIC, t_max: int = 1) -> WalkState:
    """Normalized starting state.

    Parameters
    ----------
    num_coins : int
        Register length.
    kind : str or iterable
        ``"antisymmetric"`` for the equal-magnitude origin superposition whose
        sign flips under the global L/R swap; ``"allR"`` for the single
        register ``R...R`` at the origin; or an iterable of
        ``(x, register, amplitude)`` entries, normalized after injection.
    t_max : int
        Position horizon; pass the total number of steps you intend to take.

    Raises MemoryLimitError before allocating when a walk on this grid
    cannot fit in physical memory.  A start whose entries share one parity,
    as every origin start does, is charged one parity sublattice;
    :func:`~histwalk.state.working_bytes` charges two.

    Notes
    -----
    Antisymmetry fixes only relative signs between complement pairs, so the
    remaining phases are pinned by validation against the documented walk
    behavior.  For odd register lengths the sign is the parity of the number
    of R entries — the state is the register-wise product of (|L> - |R>)/sqrt(2),
    which extends the single-coin starting state and reproduces the documented
    game biases (its position distributions coincide with those of the uniform
    superposition over histories, because amplitudes of even and odd R-parity
    never interfere).  For even lengths that product is symmetric rather than
    antisymmetric under the swap, so the sign follows the most recent entry
    instead (+ when coin 1 is L).
    """
    if isinstance(kind, str):
        _check_start(kind, "kind")
        state = _new_state(num_coins, t_max, 1)  # a start at the origin has one parity
        row = state.t_max
        if kind == ANTISYMMETRIC:
            size = 1 << num_coins
            scale = 2.0 ** (-num_coins / 2.0)
            if num_coins % 2:
                signs = np.array(
                    [-1.0 if bin(i).count("1") % 2 else 1.0 for i in range(size)]
                )
                state.amplitudes[row, :] = signs * scale
            else:
                state.amplitudes[row, : size // 2] = scale
                state.amplitudes[row, size // 2 :] = -scale
        else:
            state.amplitudes[row, (1 << num_coins) - 1] = 1.0
        return state
    entries = list(kind)
    if not entries:
        raise ValueError("custom initial state needs at least one entry")
    parities = {_count(x, "position", -np.inf) % 2 for x, _, _ in entries}
    state = _new_state(num_coins, t_max, len(parities))
    for x, coins, amplitude in entries:
        state.set_amplitude(x, coins, amplitude)
    total = state.norm()
    if total == 0.0:
        raise ValueError("custom initial state has zero norm")
    if not np.isfinite(total):
        raise ValueError(f"custom initial state has a non-finite norm, {total}")
    state.amplitudes /= total
    return state


@dataclass
class Trajectory:
    """Per-step position statistics; entry 0 describes the initial state.

    ``norm_drift[t]`` is ``|sum |psi|^2 - 1|`` after step ``t``.
    """

    means: np.ndarray
    stds: np.ndarray
    norm_drift: np.ndarray


def _check_run(
    initial: WalkState, games, pattern: str, steps
) -> tuple[list[HistoryRhoTable], int]:
    """Check the arguments of a single walk; return its schedule of tables and its step count."""
    tables = as_game_tables(games)
    _check_pattern(pattern, tables)
    steps = _count(steps, "steps", 0)
    if initial.steps_taken + steps > initial.t_max:
        raise HorizonError(
            f"{steps} steps from steps_taken={initial.steps_taken} would pass "
            f"t_max={initial.t_max}"
        )
    return [tables[letter] for letter in pattern], steps


def run_sequence(initial: WalkState, games, pattern: str, steps: int) -> Trajectory:
    """Evolve ``initial`` for ``steps`` tosses, cycling through ``pattern``.

    The pattern is read left to right and repeats: step ``t`` (0-based) uses
    the table named by ``pattern[t % len(pattern)]``, so ``"AABB"`` plays A
    twice, then B twice, then A again.  Means, standard deviations and norm
    drift are recorded after every step; :func:`final_distribution` gives the
    position distribution after the last.  A norm, the root of the band's
    sum, not 1 within 1e-9 raises NormalizationError naming the step.  The
    input state is not modified.
    """
    schedule, steps = _check_run(initial, games, pattern, steps)
    means, stds, totals = np.zeros(steps + 1), np.zeros(steps + 1), np.zeros(steps + 1)
    with _Kernel(initial, schedule) as kernel:
        for t in range(steps + 1):
            if t:
                kernel.step()
            first_row, stride, p = kernel.probabilities()
            totals[t] = p[0].sum()
            _check_norm(np.sqrt(totals[t]), t)
            means[t], stds[t] = _readout(first_row, stride, p[0], initial.t_max)
    return Trajectory(means, stds, np.abs(totals - 1.0))


def final_distribution(
    initial: WalkState, games, pattern: str, steps: int
) -> ProbabilityDistribution:
    """Position distribution after ``steps`` tosses of ``initial``, cycling through ``pattern``.

    The pattern is played and the arguments are checked as in
    :func:`run_sequence`, but the band is read out only once, after the last
    step, and the norm is checked as :func:`_stepped` checks it.  Its
    probabilities equal :func:`~histwalk.state.position_distribution` of the
    final state bit for bit.  The input state is not modified.
    """
    schedule, steps = _check_run(initial, games, pattern, steps)
    first_row, stride, p = _stepped(initial, [schedule], steps).probabilities()
    return _distribution(first_row, stride, p[0], initial.t_max)


def evolve(initial: WalkState, table: HistoryRhoTable, steps: int) -> WalkState:
    """Apply ``steps`` tosses with one fixed table; returns the final state.

    The norm is checked as :func:`_stepped` checks it.
    """
    return _stepped(initial, [[table]], _count(steps, "steps", 0)).state()


def evolve_brun(initial: WalkState, coins: Sequence[float], steps: int) -> WalkState:
    """Apply ``steps`` cycled tosses; the cycle position follows ``steps_taken``.

    ``coins`` holds one retention parameter per register slot.  Each cycle
    entry is a uniform table, so this plays one uniform table per step,
    starting from entry ``initial.steps_taken % len(coins)``.  The norm is
    checked as :func:`_stepped` checks it.
    """
    rhos = _coin_cycle(coins, initial.num_coins)
    cycle = [HistoryRhoTable.uniform(initial.num_coins, rho) for rho in rhos]
    offset = initial.steps_taken % len(cycle)
    return _stepped(initial, [cycle[offset:] + cycle[:offset]], _count(steps, "steps", 0)).state()


def _stepped(initial: WalkState, schedules, steps: int, first_entry: int | None = None) -> _Kernel:
    """The kernel of ``schedules`` from ``initial`` after ``steps`` steps: walks read out once.

    Every entry's norm must be 1 within 1e-9 at the start and after every
    step, by one sum over the band.  A single walk (``first_entry`` None)
    raises :func:`run_sequence`'s message, which names the step; a batch
    also names the entry by its index ``first_entry + b`` among all schedules.
    """
    with _Kernel(initial, *schedules) as kernel:
        for step in range(steps + 1):
            if step:
                kernel.step()
            if first_entry is None:
                norm = math.sqrt(kernel.norms()[0])
                if not abs(norm - 1.0) <= 1e-9:  # _check_norm's test, inline in the hot loop
                    _check_norm(norm, step)
            else:
                norms = np.sqrt(kernel.norms())
                worst = int(np.argmax(np.abs(norms - 1.0)))
                _check_norm(norms[worst], step, first_entry + worst)
    return kernel


def _check_scan_size(letters: int, max_len: int) -> None:
    """Raise MemoryLimitError before enumerating a scan whose results cannot fit in memory.

    The pattern count ``sum(letters**k for k in 1..max_len)`` is taken in
    integer arithmetic.  Each pattern is charged :data:`_RESULT_BYTES` plus
    one byte per letter of the longest key.
    """
    # Two or more letters pass 2**64, which no memory holds, by length 64, so
    # the exponent stops there and a max_len of 10**400 builds no huge power.
    if letters == 1:
        count = max_len
    else:
        count = letters * (letters ** min(max_len, 64) - 1) // (letters - 1)
    what = f"a scan of {_amount(count)} patterns"
    _check_fits(count * (_RESULT_BYTES + max_len), what, "for its results")


def _check_sweep_size(points: int) -> None:
    """Raise MemoryLimitError if the results of a ``points``-value sweep cannot fit in memory.

    Each grid value is charged :data:`_RESULT_BYTES`.
    """
    what = f"a sweep of {_amount(points)} grid values"
    _check_fits(points * _RESULT_BYTES, what, "for its results")


def _batch_start(num_coins, kind, steps: int) -> WalkState:
    """The start of a scan or sweep, on a grid that ``steps`` tosses cannot leave.

    The horizon is ``steps`` plus the start's largest |x|.
    """
    reach = 0
    if not isinstance(kind, str):
        kind = list(kind)
        reach = max((abs(_count(x, "position", -np.inf)) for x, _, _ in kind), default=0)
    return build_initial_state(num_coins, kind, t_max=steps + reach)


def _final_moments(
    initial: WalkState, schedules: Iterable[Sequence[HistoryRhoTable]], steps: int
) -> list[tuple[float, float]]:
    """Final-step mean and std of every schedule played from ``initial``.

    Schedules are stepped a chunk at a time by :func:`_stepped`, on one
    batched kernel whose buffers hold about :data:`_CHUNK_BYTES` each.
    After a chunk's last step, whose norms it checks, the chunk is read out
    by :func:`_readouts`, on one position grid when every entry's band ends
    on nonzero rows: the moments equal :func:`run_sequence`'s bit for bit.
    """
    chunk = max(1, _CHUNK_BYTES // _Kernel.entry_bytes(initial))
    schedules = iter(schedules)
    results: list[tuple[float, float]] = []
    while batch := list(islice(schedules, chunk)):
        first_row, stride, p = _stepped(initial, batch, steps, len(results)).probabilities()
        results += _readouts(first_row, stride, p, initial.t_max)
    return results


def scan_sequences(
    games, max_len: int, num_coins: int, steps: int, kind=ANTISYMMETRIC
) -> dict[str, float]:
    """Final-step mean for every non-empty pattern of up to ``max_len`` letters.

    Every pattern starts from the identical initial state; keys are returned
    in lexicographic order over the sorted game alphabet.  A pattern that
    repeats a shorter one (``ABAB`` repeats ``AB``) plays the same schedule,
    so only primitive patterns are stepped and each repeat gets its root's
    mean.  The grid is wide enough for a start off the origin.  A scan whose
    results cannot fit in physical memory raises MemoryLimitError before any
    pattern is built.
    """
    tables = as_game_tables(games)
    max_len = _count(max_len, "max_len", 1)
    steps = _count(steps, "steps", 0)
    num_coins = _count(num_coins, "num_coins", 1)
    first = next(iter(tables.values()))
    if first.num_coins != num_coins:
        raise ValueError(f"games are for {first.num_coins} coins, asked for {num_coins}")
    letters = sorted(tables)
    _check_scan_size(len(letters), max_len)
    patterns = sorted(
        "".join(p)
        for length in range(1, max_len + 1)
        for p in product(letters, repeat=length)
    )
    # The shortest prefix that repeats to the whole pattern.
    roots = {pattern: pattern[: (pattern * 2).find(pattern, 1)] for pattern in patterns}
    primitive = [pattern for pattern in patterns if roots[pattern] == pattern]
    initial = _batch_start(num_coins, kind, steps)
    schedules = ([tables[letter] for letter in pattern] for pattern in primitive)
    moments = _final_moments(initial, schedules, steps)
    means = {pattern: mean for pattern, (mean, _) in zip(primitive, moments)}
    return {pattern: means[roots[pattern]] for pattern in patterns}


def sweep_parameter(
    base: HistoryRhoTable,
    history_key: str,
    grid: Sequence[float],
    steps: int,
    kind=ANTISYMMETRIC,
) -> list[tuple[float, Moments]]:
    """Final-step moments of a single-game walk as one history entry varies.

    Returns ``(rho, Moments)`` pairs in grid order; every run starts from the
    same initial state, on a grid wide enough for a start off the origin, and
    plays the adjusted table for all ``steps`` tosses.  An unknown
    ``history_key`` raises ValueError before anything else, and a grid whose
    results cannot fit in physical memory raises MemoryLimitError before any
    run.
    """
    _history_index(history_key, base.num_coins)
    steps = _count(steps, "steps", 0)
    _check_sweep_size(len(grid))
    initial = _batch_start(base.num_coins, kind, steps)
    schedules = ([base.replaced(history_key, float(rho))] for rho in grid)
    moments = _final_moments(initial, schedules, steps)
    return [(float(rho), Moments(mean, std)) for rho, (mean, std) in zip(grid, moments)]
