"""Walker states on the integer line with a register of recent step results.

The register keeps the last ``num_coins`` step results as a string over
``L`` (a step left) and ``R`` (a step right), most recent result first.
Amplitudes sit in a dense complex array with one row per position in
``[-t_max, t_max]`` and one column per register string; the column index
encodes the string with the most recent result as the most significant bit
(L = 0, R = 1), so ``|x, c>`` lives at row ``x + t_max``, column
``coins_to_index(c)``.
"""

from __future__ import annotations

import operator
import os
from dataclasses import dataclass

import numpy as np

L = "L"
R = "R"


class HorizonError(RuntimeError):
    """An evolution step would move amplitude outside the stored position range."""


class NormalizationError(ValueError):
    """A unit-norm state or distribution was required but not supplied."""


class MemoryLimitError(ValueError):
    """A run was refused before allocating: it cannot fit in physical memory."""


def _check_register(coins: str, num_coins: int | None = None) -> None:
    if num_coins is not None and len(coins) != num_coins:
        raise ValueError(
            f"register {coins!r} has length {len(coins)}, expected {num_coins}"
        )
    if set(coins) - {L, R}:
        raise ValueError(f"register {coins!r} contains letters other than L and R")


def coins_to_index(coins: str) -> int:
    """Encode a register string as a column index (most recent letter = MSB)."""
    _check_register(coins)
    index = 0
    for letter in coins:
        index = (index << 1) | (letter == R)
    return index


def index_to_coins(index: int, num_coins: int) -> str:
    """Inverse of :func:`coins_to_index` for a register of ``num_coins`` letters."""
    num_coins = _count(num_coins, "num_coins", 1)
    index = _count(index, "index", 0)
    if index >= 1 << num_coins:
        raise ValueError(f"index {index} out of range for {num_coins} coins")
    return "".join(
        R if (index >> shift) & 1 else L for shift in range(num_coins - 1, -1, -1)
    )


@dataclass
class WalkState:
    """Dense amplitude table over (position, coin register).

    Attributes
    ----------
    num_coins : int
        Number of remembered step results (register length, >= 1).
    t_max : int
        Largest representable position magnitude; fixed at construction.
    amplitudes : numpy.ndarray
        Complex array of shape ``(2 * t_max + 1, 2 ** num_coins)``.
    steps_taken : int
        Number of completed evolution steps.
    """

    num_coins: int
    t_max: int
    amplitudes: np.ndarray
    steps_taken: int = 0

    def copy(self) -> "WalkState":
        return WalkState(
            self.num_coins, self.t_max, self.amplitudes.copy(), self.steps_taken
        )

    def _row(self, x: int) -> int:
        x = _count(x, "position", -np.inf)
        if abs(x) > self.t_max:
            raise IndexError(f"position {x} outside [-{self.t_max}, {self.t_max}]")
        return x + self.t_max

    def amplitude(self, x: int, coins: str) -> complex:
        """Amplitude of the basis state at position ``x`` with register ``coins``."""
        _check_register(coins, self.num_coins)
        return complex(self.amplitudes[self._row(x), coins_to_index(coins)])

    def set_amplitude(self, x: int, coins: str, value: complex) -> None:
        """Overwrite one basis amplitude.

        The norm is not checked here: every walk, ``evolve`` and
        ``evolve_brun`` included, raises NormalizationError when the norm is
        not 1 within 1e-9 at the start or after any step.
        """
        _check_register(coins, self.num_coins)
        self.amplitudes[self._row(x), coins_to_index(coins)] = value

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    @property
    def positions(self) -> np.ndarray:
        """All representable positions, ascending."""
        return np.arange(-self.t_max, self.t_max + 1)


def working_bytes(num_coins: int, t_max: int) -> int:
    """Bytes a walk on this grid holds at its peak, the input state included.

    Everything that can be live at once is added up.  The evolution kernel
    stores each of at most two parity sublattices in ``t_max + 2`` rows per
    register column.  It holds two such buffers, a scratch half buffer and
    cached coefficients of at most half a buffer, and the gather of a
    full-grid state it returns makes temporaries of up to one more buffer.
    (Its per-step readout makes none of the band's size.)  Beside them sit
    the input state and the returned state.
    Positions, their squares, the per-step series and the readout's arrays of
    one number per position are charged as sixteen 8-byte values per grid
    row.  A start whose entries share one parity needs one sublattice;
    :func:`~histwalk.walker.build_initial_state` charges it that, and
    :func:`new_state` charges two.  A register of over 64 coins is charged
    as one of 64, which no memory holds either (see :func:`_shifted`).
    """
    return _walk_bytes(num_coins, t_max, 2)


def _walk_bytes(num_coins: int, t_max: int, sublattices: int) -> int:
    """:func:`working_bytes` for a kernel that stores ``sublattices`` parity sublattices."""
    rows = 2 * t_max + 1
    columns = _shifted(np.dtype(np.complex128).itemsize, num_coins)
    buffer = sublattices * (t_max + 2) * columns
    return 2 * rows * columns + 4 * buffer + 16 * 8 * rows


def physical_memory_bytes() -> int | None:
    """Installed physical memory, or None where the platform does not report it."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, OSError, ValueError):
        return None


def _count(value, name: str, least: float) -> int:
    """``value`` as an ``int`` of at least ``least``; refuses bools and non-integers."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be an integer, got {_echo(repr(value))}")
    try:
        number = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {_echo(repr(value))}") from None
    if number < least:
        raise ValueError(f"{name} must be >= {least}, got {_amount(number)}")
    return number


def _shifted(size: int, bits: int) -> int:
    """``size << bits``, with the shift stopped at 64: a size guard's charge for ``bits`` coins.

    From 64 bits on the charge is past 2**64 bytes, which no memory holds,
    and a wider shift is not worth computing: ``1 << 100000`` has 30,103
    digits, and ``1 << 10**22`` cannot be computed at all.
    """
    return size << min(bits, 64)


def _gib(size: int) -> str:
    """``size`` bytes in GiB to one decimal, in integer arithmetic; past 2**64 bytes, a bound.

    A float quotient overflows from about 1e308 * 2**30 bytes.
    """
    if size > 2**64:
        return "over 2**64 bytes"
    tenths = (10 * size + 2**29) >> 30
    return f"{tenths // 10}.{tenths % 10} GiB"


def _amount(count: int) -> str:
    """``count`` for a refusal's message, or past ±2**64, ``over 2**64`` or ``under -2**64``.

    No memory holds 2**64 of anything, and a count past it may have any
    number of digits: ``-10**400`` has 401 characters.
    """
    if count > 2**64:
        return "over 2**64"
    return str(count) if count >= -(2**64) else "under -2**64"


def _echo(text: str, room: int = 60) -> str:
    """``text`` for a refusal's message; past ``room`` characters, its start and its length.

    A refused value may be a whole file line or a pasted number of any
    length; its start names it, and the message stays one short line.
    """
    return text if len(text) <= room else f"{text[:room]}... ({len(text)} characters)"


def _check_fits(needed: int, what: str, use: str) -> None:
    """Raise MemoryLimitError if ``needed`` bytes exceed physical memory.

    The message says that ``what`` needs them ``use`` (what they hold).
    """
    available = physical_memory_bytes()
    if available is not None and needed > available:
        raise MemoryLimitError(
            f"{what} needs {_gib(needed)} {use}, more than the "
            f"{_gib(available)} of physical memory"
        )


def new_state(num_coins: int, t_max: int) -> WalkState:
    """Allocate an all-zero state; inject an initial state before evolving.

    Raises MemoryLimitError before allocating when a walk on this grid,
    charged :func:`working_bytes`, cannot fit in physical memory.
    """
    return _new_state(num_coins, t_max, 2)


def _new_state(num_coins: int, t_max: int, sublattices: int) -> WalkState:
    """:func:`new_state`, charged for a kernel that stores ``sublattices`` parity sublattices."""
    num_coins = _count(num_coins, "num_coins", 1)
    t_max = _count(t_max, "t_max", 0)
    _check_fits(
        _walk_bytes(num_coins, t_max, sublattices),
        f"M = {_amount(num_coins)} with horizon {_amount(t_max)}",
        "for the state, the evolution buffers and the readout",
    )
    shape = (2 * t_max + 1, 1 << num_coins)
    return WalkState(num_coins, t_max, np.zeros(shape, dtype=np.complex128))


def _positions(values) -> np.ndarray:
    """``values`` as an int array; refuses bools and numbers that are not finite and whole.

    An integer array is taken as it is, with no pass over its entries.
    """
    pos = np.asarray(values)
    if pos.dtype.kind in "iu":
        # A bool among the ints of a list is cast to 0 or 1 without a trace.
        listed = values if isinstance(values, (list, tuple)) else ()
        if not any(isinstance(x, (bool, np.bool_)) for x in listed):
            return pos.astype(int, copy=False)
    elif pos.dtype.kind == "f":
        with np.errstate(invalid="ignore"):
            whole = pos.astype(int)
        if np.array_equal(whole, pos):  # NaN, inf, fractions and overflow all differ
            return whole
    raise ValueError(f"positions must be finite whole numbers, not bools, got {values!r}")


@dataclass(frozen=True)
class ProbabilityDistribution:
    """Probabilities over lattice positions, ascending in ``positions``."""

    positions: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self) -> None:
        pos = _positions(self.positions)
        prob = np.asarray(self.probabilities, dtype=float)
        if pos.ndim != 1 or pos.shape != prob.shape or pos.size == 0:
            raise ValueError(
                "positions and probabilities must be matching non-empty 1-D arrays"
            )
        if pos.size > 1 and np.any(np.diff(pos) <= 0):
            raise ValueError("positions must be strictly increasing")
        if not np.all(np.isfinite(prob) & (prob >= 0)):
            raise ValueError("probabilities must be finite and non-negative")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "probabilities", prob)

    @classmethod
    def from_mapping(cls, mapping) -> "ProbabilityDistribution":
        xs = sorted(mapping)
        return cls(xs, [mapping[x] for x in xs])

    def probability(self, x: int) -> float:
        idx = int(np.searchsorted(self.positions, x))
        if idx < self.positions.size and self.positions[idx] == x:
            return float(self.probabilities[idx])
        return 0.0

    def total(self) -> float:
        return float(self.probabilities.sum())

    def as_dict(self) -> dict[int, float]:
        return {int(x): float(p) for x, p in zip(self.positions, self.probabilities)}


def _check_norm(norm: float, step: int | None = None, entry: int | None = None) -> None:
    """Raise NormalizationError unless ``norm`` is 1 within 1e-9.

    The message names the step at which the norm was read, and the batch
    entry, when they are given.
    """
    if not abs(norm - 1.0) <= 1e-9:  # NaN fails too
        where = "" if step is None else f" at step {step}"
        if entry is not None:
            where += f", batch entry {entry}"
        raise NormalizationError(f"state norm is {norm:.12g}, expected 1 within 1e-9{where}")


def _register_probabilities(floats: np.ndarray) -> np.ndarray:
    """``|a|**2`` summed over the register axis of a ``(..., columns, rows)`` complex array.

    ``floats`` is the array's ``.view(float)``, which holds each row's real
    and imaginary parts side by side, so the array's last axis must have
    unit stride.  One ``einsum`` pass adds up, for each row, the
    squared real parts and, separately, the squared imaginary parts of its
    columns, in column order; the two sums are added last.  Each amplitude
    is read once and no temporary of the array's size is made.  Every result
    lies within ``(columns + 4) * 2**-52`` relative of the exact sum of
    squares.  The kernel's readout and :func:`position_distribution` both sum
    here, so they agree bit for bit.
    """
    s = np.einsum("...cr,...cr->...r", floats, floats)
    return s[..., 0::2] + s[..., 1::2]


def position_distribution(state: WalkState) -> ProbabilityDistribution:
    """Marginal position probabilities, traced over the coin register.

    The probabilities are summed by :func:`_register_probabilities` on a
    ``(columns, rows)`` copy of the amplitudes; the column-major arrays that
    the kernel and :func:`~histwalk.operators.toss` return need no copy.
    The support is the contiguous run of occupied lattice positions; when all
    occupied positions share one parity (the generic case for walks started at
    the origin) the run is reported on that parity sublattice, interior zeros
    included.  The norm rule is that of :func:`moments`, on their sum.
    """
    # complex128, so that the float view pairs each real part with its imaginary part.
    columns = np.ascontiguousarray(state.amplitudes.T, dtype=complex)
    p = _register_probabilities(columns.view(float))
    _check_norm(np.sqrt(p.sum()))
    return _distribution(0, 1, p, state.t_max)


def _support(first_row: int, stride: int, p: np.ndarray) -> tuple[slice, slice]:
    """Slices of ``p`` and of the grid from the first to the last nonzero ``p[i]``.

    ``p[i]`` lies on grid row ``first_row + stride * i``.  On stride-1 rows
    whose nonzero entries share one parity, the run is on that sublattice.
    (Kernel bands never are: one sublattice has stride 2, two both stay occupied.)
    A stride-2 band whose end rows are nonzero is its own run, so only a band
    with an end row of exactly zero is searched.
    """
    if stride == 2 and p[0] and p[-1]:
        lo, hi, step = 0, len(p), 1
    else:
        occupied = p.nonzero()[0]
        lo, hi = int(occupied[0]), int(occupied[-1]) + 1
        step = 2 if stride == 1 and not ((occupied - lo) & 1).any() else 1
    rows = slice(first_row + stride * lo, first_row + stride * (hi - 1) + 1, stride * step)
    return slice(lo, hi, step), rows


def _distribution(first_row: int, stride: int, p: np.ndarray, t_max) -> ProbabilityDistribution:
    """``p`` on rows ``first_row + stride * i``, as :func:`position_distribution` reports it."""
    run, rows = _support(first_row, stride, p)
    positions = np.arange(rows.start - t_max, rows.stop - t_max, rows.step)
    return ProbabilityDistribution(positions, p[run].copy())


def _mean_std(p: np.ndarray, x: np.ndarray, x2: np.ndarray) -> tuple[float, float]:
    """Mean and standard deviation of probabilities ``p`` on positions ``x`` with squares ``x2``."""
    mean, square = float(np.dot(p, x)), float(np.dot(p, x2))
    var = square - mean * mean
    # A total of 1 + d, |d| <= 2e-9 by the norm rule, moves var by about -d mean**2.
    if var < -(1e-10 + 3e-9 * square):
        raise ValueError(f"variance {var} is negative beyond rounding tolerance")
    return mean, float(np.sqrt(max(var, 0.0)))


def _readout(first_row: int, stride: int, p: np.ndarray, t_max: int) -> tuple[float, float]:
    """Mean and std from probabilities ``p`` on grid rows ``first_row + stride * i``.

    Grid row ``g`` is position ``g - t_max``.  ``p`` comes from
    :meth:`_Kernel.probabilities`, and its caller checks its norm.  The
    support and moment rules are those of :func:`position_distribution` and
    :func:`moments`, and the operands are contiguous and hold the same
    values as theirs, so the results equal theirs bit for bit.
    """
    run, rows = _support(first_row, stride, p)
    x = np.arange(rows.start - t_max, rows.stop - t_max, rows.step, dtype=float)
    return _mean_std(np.ascontiguousarray(p[run]), x, x * x)


def _readouts(first_row: int, stride: int, p: np.ndarray, t_max: int) -> list[tuple[float, float]]:
    """:func:`_readout` of every row of ``p``, bit for bit, with one position grid when it can.

    A stride-2 band whose end rows are nonzero in every row is every row's
    support, so one ``x`` and ``x * x`` serve them all and each row takes
    only :func:`_mean_std`'s two dot products, in the same order.  Any other
    band is read out row by row by :func:`_readout`.
    """
    if not (stride == 2 and p[:, 0].all() and p[:, -1].all()):
        return [_readout(first_row, stride, entry, t_max) for entry in p]
    _, rows = _support(first_row, stride, p[0])
    x = np.arange(rows.start - t_max, rows.stop - t_max, rows.step, dtype=float)
    x2 = x * x
    return [_mean_std(entry, x, x2) for entry in np.ascontiguousarray(p)]


@dataclass(frozen=True)
class Moments:
    """Mean and standard deviation of a position distribution."""

    mean: float
    std: float


def moments(dist: ProbabilityDistribution) -> Moments:
    """First two moments of a distribution whose norm, the root of its sum, is 1 within 1e-9.

    That is the state's rule, so what a walk reads out passes it here too.
    """
    total = dist.total()
    if not abs(np.sqrt(total) - 1.0) <= 1e-9:  # NaN fails too
        raise NormalizationError(f"distribution sums to {total:.12g}, expected norm 1 within 1e-9")
    x = dist.positions.astype(float)
    return Moments(*_mean_std(dist.probabilities, x, x * x))
