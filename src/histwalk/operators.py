"""Unitary building blocks of one evolution step.

A step retosses the oldest register entry with a retention amplitude that may
depend on the more recent results, moves the walker according to the retossed
value, and rotates the register so the fresh result sits in front.  With the
column encoding used by :mod:`histwalk.state` (most recent result = MSB) the
oldest entry is the least significant bit, so the retoss mixes adjacent column
pairs, the shift moves odd columns right and even columns left, and the
rotation is a bit rotate on the column index.

:func:`apply_conditional_flip`, :func:`apply_shift`, :func:`apply_reorder`
and :func:`toss` are the specification layer: each builds a new full-grid
state and reads like the definition above.  The walker's loops run on
:class:`_Kernel` instead, which does the same arithmetic on less data.
Every step moves the walker one site, so amplitude that starts on sites of
one parity sits, after ``t`` steps, only on sites of that parity plus ``t``.
The kernel stores only those rows, as compact light-cone rows, steps only
the occupied band of them, and does the rotation by where it writes the
retossed, moved amplitudes.  Its tests compare it with these functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice, product
from typing import Mapping, Sequence

import numpy as np

from .state import (
    L,
    R,
    HorizonError,
    WalkState,
    _amount,
    _check_fits,
    _check_norm,
    _count,
    _echo,
    _register_probabilities,
    _shifted,
    coins_to_index,
    index_to_coins,
)


def _check_probability(value: float, label: str) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{label} = {value} must lie in [0, 1]")
    return value


def all_histories(num_coins: int) -> list[str]:
    """Every history string of length ``num_coins - 1``, in column-index order."""
    num_coins = _count(num_coins, "num_coins", 1)
    return list(map("".join, product((L, R), repeat=num_coins - 1)))


def _history_index(history: str, num_coins: int) -> int:
    """Index of a history the caller names, most recent result first (= MSB)."""
    try:
        if len(history) == num_coins - 1:
            return coins_to_index(history)
    except (TypeError, ValueError):
        pass
    raise ValueError(f"unknown history key {_echo(repr(history))} for num_coins={num_coins}")


def _check_pattern(pattern: str, games: Mapping[str, object]) -> None:
    """Refuse an empty pattern or one with a letter that ``games`` does not define."""
    if not pattern:
        raise ValueError("pattern must be a non-empty string of game letters")
    unknown = sorted(set(pattern) - set(games))
    if unknown:
        raise ValueError(f"pattern uses undefined games {_echo(str(unknown))}")


@dataclass(frozen=True, eq=False, init=False)
class HistoryRhoTable:
    """Retention parameter for every history of recent results.

    ``rho`` maps history strings of length ``num_coins - 1``, most recent
    result first (the empty string when ``num_coins`` is 1), to the
    probability that the retossed entry keeps its old value.  The table holds
    one read-only array in history-index order.  Tables compare by identity.
    """

    num_coins: int
    _values: np.ndarray

    def __init__(self, num_coins: int, rho: Mapping[str, float]) -> None:
        num_coins = _count(num_coins, "num_coins", 1)
        # A short mapping misses one of its first len(rho) + 1 histories; list no more.
        expected = list(islice(map("".join, product((L, R), repeat=num_coins - 1)), len(rho) + 1))
        for key in expected:
            if key not in rho:
                raise ValueError(f"missing rho for history {key!r}")
        if len(rho) != len(expected):  # every expected key is present
            extra = set(rho) - set(expected)
            raise ValueError(f"unexpected history keys {sorted(extra)} for num_coins={num_coins}")
        self._store(num_coins, [rho[key] for key in expected])

    def _store(self, num_coins: int, values) -> "HistoryRhoTable":
        """Keep ``values`` as a new read-only float array, one entry per history.

        A wrong shape, or the first value outside [0, 1] in history order, is refused.
        """
        values = np.array(values, dtype=float)  # a new array, so no writable alias stays behind
        if values.shape != (1 << (num_coins - 1),):
            raise ValueError(
                f"retention values of shape {values.shape} do not fit num_coins={num_coins}"
            )
        bad = np.flatnonzero(~((values >= 0.0) & (values <= 1.0)))  # NaN included
        if bad.size:
            history = index_to_coins(int(bad[0]), num_coins - 1) if num_coins > 1 else ""
            _check_probability(values[bad[0]], f"rho[{history!r}]")
        values.flags.writeable = False
        object.__setattr__(self, "num_coins", num_coins)
        object.__setattr__(self, "_values", values)
        return self

    @classmethod
    def uniform(cls, num_coins: int, rho: float = 0.5) -> "HistoryRhoTable":
        """The same retention parameter for every history."""
        return cls.with_overrides(num_coins, rho)

    @classmethod
    def with_overrides(
        cls, num_coins: int, default: float = 0.5, overrides: Mapping[str, float] | None = None
    ) -> "HistoryRhoTable":
        """A uniform table with selected histories overridden."""
        num_coins = _count(num_coins, "num_coins", 1)
        # Values, their stored copy and range masks: 19 bytes per history by tracemalloc.
        what = f"a retention table for M = {_amount(num_coins)}"
        _check_fits(_shifted(24, num_coins - 1), what, "to fill")
        values = np.full(1 << (num_coins - 1), _check_probability(default, "rho"))
        for key, value in (overrides or {}).items():
            values[_history_index(key, num_coins)] = value
        return cls.__new__(cls)._store(num_coins, values)

    def replaced(self, history: str, rho: float) -> "HistoryRhoTable":
        """A copy with one history entry changed."""
        values = self._values.copy()
        values[_history_index(history, self.num_coins)] = rho
        return self.__new__(type(self))._store(self.num_coins, values)

    def mirrored(self) -> "HistoryRhoTable":
        """The table with every history complemented (L <-> R), which reverses the index order."""
        return self.__new__(type(self))._store(self.num_coins, self._values[::-1])

    def retention_array(self) -> np.ndarray:
        """Retention parameters ordered by history index (most recent = MSB), read-only."""
        return self._values

    def __reduce__(self):
        # NumPy unpickles and deep-copies arrays writable, so copies and
        # pickles go through a builder that checks and stores them again.
        return _rebuilt_table, (type(self), self.num_coins, self._values)

    @property
    def rho(self) -> dict[str, float]:
        """A new ``history -> retention parameter`` dict, built on each access."""
        return dict(zip(all_histories(self.num_coins), self._values.tolist()))


def _rebuilt_table(cls, num_coins: int, values) -> HistoryRhoTable:
    """A table from the fields that :meth:`HistoryRhoTable.__reduce__` saves, checked again."""
    return cls.__new__(cls)._store(_count(num_coins, "num_coins", 1), values)


def _coin_cycle(coins: Sequence[float], num_coins: int) -> tuple[float, ...]:
    """A cycle of retention parameters, one per register slot, each range-checked."""
    rhos = tuple(_check_probability(v, f"coins[{i}]") for i, v in enumerate(coins))
    if len(rhos) != num_coins:
        raise ValueError(f"coin cycle has {len(rhos)} entries, state has {num_coins} coins")
    return rhos


def apply_conditional_flip(state: WalkState, table: HistoryRhoTable) -> WalkState:
    """Retoss the oldest register entry, conditioned on the newer results.

    Column pairs sharing their leading ``num_coins - 1`` bits are mixed by the
    toss matrix for that history; positions and newer results are untouched,
    so the operation is unitary for any table.
    """
    if table.num_coins != state.num_coins:
        raise ValueError(
            f"table is for {table.num_coins} coins, state has {state.num_coins}"
        )
    rho = table.retention_array()
    keep, flip = np.sqrt(rho), np.sqrt(1.0 - rho)
    rows, cols = state.amplitudes.shape
    psi = state.amplitudes.reshape(rows, cols // 2, 2)
    oldest_l = psi[..., 0]
    oldest_r = psi[..., 1]
    out = np.empty_like(psi)
    out[..., 0] = keep * oldest_l + 1j * flip * oldest_r
    out[..., 1] = 1j * flip * oldest_l + keep * oldest_r
    amplitudes = out.reshape(rows, cols)
    return WalkState(state.num_coins, state.t_max, amplitudes, state.steps_taken)


_HORIZON_MESSAGE = "a shift would move amplitude beyond t_max; allocate a larger horizon"


def apply_shift(state: WalkState) -> WalkState:
    """Move amplitude one site right where the retossed entry is R, left where L.

    The retossed entry is the least significant column bit, so odd columns
    move right and even columns move left.  Raises :class:`HorizonError` if
    any amplitude would leave the stored position range.
    """
    amps = state.amplitudes
    if np.any(amps[-1, 1::2]) or np.any(amps[0, 0::2]):
        raise HorizonError(_HORIZON_MESSAGE)
    out = np.zeros_like(amps)
    out[1:, 1::2] = amps[:-1, 1::2]
    out[:-1, 0::2] = amps[1:, 0::2]
    return WalkState(state.num_coins, state.t_max, out, state.steps_taken)


def apply_reorder(state: WalkState) -> WalkState:
    """Rotate the register so the freshly retossed result is the most recent entry."""
    # Column new receives old column rotl(new): moving the oldest slot to the
    # front is a rotate-right on indices, and its inverse gather map is the
    # rotate-left.
    size = 1 << state.num_coins
    new = np.arange(size)
    src = ((new << 1) | (new >> (state.num_coins - 1))) & (size - 1)
    return WalkState(
        state.num_coins, state.t_max, state.amplitudes[:, src], state.steps_taken
    )


def toss(state: WalkState, table: HistoryRhoTable) -> WalkState:
    """One full history-conditioned step: retoss, move, rotate."""
    out = apply_reorder(apply_shift(apply_conditional_flip(state, table)))
    out.steps_taken = state.steps_taken + 1
    return out


# Elements per operand in NumPy's ufunc buffers while a walk loop steps a
# :class:`_Kernel` (the kernel's ``with`` block sets them).  The step's
# ufunc operands are strided views, which NumPy copies through these
# buffers.  With the default of 8192 elements every call allocated and
# streamed three 128 KiB buffers, and an M=8 step ran at half the speed of
# the same call on contiguous operands.  On NumPy 2.4.6, sizes 16 to 256
# stepped that walk about twice as fast, and 512 and up were slow again.
# Copies change no bit of any product or sum, and on NumPy 2.4.6 the
# readout that runs inside the loop kept every bit under sizes 16, 128 and
# 8192.  NumPy 1.x requires a multiple of 16.
_STEP_BUFSIZE = 128


class _Kernel:
    """Repeated :func:`toss` on private copies of a state, one cyclic schedule per batch entry.

    ``_Kernel(state, schedule, ...)`` starts one batch entry from ``state``
    per schedule; at step ``t`` (counted from construction) entry ``b`` plays
    ``schedules[b][t % len(schedules[b])]``.  Each amplitude goes through the
    same multiplications and additions as in :func:`toss`; six things make a
    step cheaper:

    * The register rotation costs no pass of its own.  The step reads column
      ``(h << 1) | r`` as history ``h`` and retossed result ``r``, and writes
      the new result ``r'`` to column ``(r' << (num_coins - 1)) | h``, which
      is where :func:`apply_reorder` puts it.  The buffers always hold the
      register in the column order of :mod:`histwalk.state`.
    * Rows that cannot be occupied are not stored.  Every step moves the
      walker one site, so a grid row occupied at step ``t`` has the parity
      of ``t`` plus that of the start row it came from.  Sublattice
      ``sigma`` holds the grid rows ``g`` with ``g + e + sigma`` even, where
      ``e`` (``parity``) is ``t`` plus the parity of sublattice 0's rows at
      the start, modulo 2, and stores row ``g`` in compact row
      ``(g + e + sigma) / 2``.  A start whose occupied rows share one
      parity has one sublattice; a start that occupies both has two, which
      never interfere and are stepped by the same calls.  When ``e`` is 0 the
      retossed L half keeps its compact row and the R half moves up one; when
      ``e`` is 1 the L half moves down one and the R half keeps its row.  The
      labels are bounded: grid rows ``0 .. 2 t_max`` fill compact rows
      ``0 .. t_max + 1``, and the compact rows with no grid row behind them
      catch amplitude that leaves the grid.
    * Only the occupied band of grid rows ``[lo, hi)`` is touched.  It starts
      at the initial state's occupied rows, so a start with none is refused
      with the norm error of step 0, and grows by one row on each side per
      step, clipped to the grid; :class:`HorizonError` is raised exactly
      when :func:`apply_shift` would raise it for some entry.
    * Flip, shift and rotation are one write into a second buffer, and the
      two buffers swap roles each step.  Compact rows outside the band stay
      zero.
    * The batch axis comes first.  Every entry shares the band, which
      depends only on ``t``, so one set of NumPy calls steps every entry.
      ``sqrt(rho)`` and ``i sqrt(1 - rho)`` are computed once per table, and
      each entry's are gathered by the code of the table it plays.  They
      repeat with ``t`` modulo ``period``, the lcm of the schedule lengths,
      and are gathered for a block of consecutive phases with one fancy
      index.  A block holds at most half a buffer (:meth:`_block_phases`),
      so a single walk, whose period is its pattern's length, gathers once,
      and a scan's period of many phases is gathered a few blocks at a time,
      each block again when its phases come round.
    * Each buffer's views are built once: its L and R source halves, its L
      and R destination halves and the float view that :meth:`probabilities`
      and :meth:`norms` sum.  They swap with the buffers, so a step only
      slices each half to the band, and the band is worked out once per
      step.
    * The step's six ufunc calls copy their strided operands through NumPy's
      ufunc buffers.  Used as a context manager, the kernel sets them to
      ``_STEP_BUFSIZE`` elements, which stay in cache, for the whole loop of
      steps, and restores the caller's size when the block ends or raises.
      The walker's loops step inside that block; the copies change no bit,
      and neither does the readout that runs there.

    The buffers have shape ``(entries, sublattices, 2**num_coins, t_max + 2)``:
    one contiguous run of compact rows per register column, so a step's inner
    loops run along the band.  After a :class:`HorizonError` the buffers hold
    a partial step.
    """

    def __init__(self, state: WalkState, *schedules: Sequence[HistoryRhoTable]):
        self.num_coins = state.num_coins
        self.t_max = state.t_max
        self.start = state.steps_taken
        self.steps = 0
        # Distinct tables by identity, and each schedule as codes into them.
        tables = {id(table): table for schedule in schedules for table in schedule}
        for table in tables.values():
            if table.num_coins != state.num_coins:
                raise ValueError(
                    f"table is for {table.num_coins} coins, state has {state.num_coins}"
                )
        code = {key: index for index, key in enumerate(tables)}
        rho = np.array([table.retention_array() for table in tables.values()])
        self.keep, self.flip = np.sqrt(rho).astype(complex), 1j * np.sqrt(1.0 - rho)
        self.lengths = np.array([len(schedule) for schedule in schedules])
        self.codes = np.zeros((len(schedules), self.lengths.max()), int)
        # The cells before each row's length, in row order, take the schedules' codes.
        filled = np.arange(self.codes.shape[1]) < self.lengths[:, None]
        self.codes[filled] = [code[id(table)] for schedule in schedules for table in schedule]
        self.entries = np.arange(len(schedules))
        self.period = math.lcm(*self.lengths.tolist())
        # The gathered block: coefficients of phases [block_start, block_end).
        self.block: list[tuple[np.ndarray, np.ndarray]] = []
        self.block_start = self.block_end = 0
        amplitudes = state.amplitudes
        self.rows, size = amplitudes.shape
        self.lo, self.hi, self.parity, sublattices = self._occupancy(amplitudes)
        self.psi = np.zeros((len(schedules), sublattices, size, self.t_max + 2), complex)
        for sigma in range(sublattices):
            first = self.lo + ((self.lo + self.parity + sigma) & 1)
            rows = amplitudes[first : self.hi : 2]
            row = (first + self.parity + sigma) // 2
            self.psi[:, sigma, :, row : row + len(rows)] = rows.T
        self.spare = np.zeros_like(self.psi)
        # One half, one product.  A step reshapes its front to the band, so
        # the product is contiguous: over a scan's many short rows the two
        # ufunc calls on it ran 1.3x faster than on a band slice of a half.
        self.scratch = np.empty(self.psi.size // 2, complex)
        self.views, self.spare_views = self._views(self.psi), self._views(self.spare)
        self.band = self._band()

    def _views(self, buffer: np.ndarray) -> tuple[np.ndarray, ...]:
        # The L and R source halves, axes (entries and sublattices, history,
        # compact rows): the columns whose retossed result is L or R.  The
        # L and R destination halves, with the same axes: the columns whose
        # new result is L or R, which sits before the history and so
        # rotates the register.  Then the float view, whose last axis holds
        # each row's real and imaginary parts.
        half, rows = 1 << (self.num_coins - 1), self.t_max + 2
        src, dst = buffer.reshape(-1, half, 2, rows), buffer.reshape(-1, 2, half, rows)
        return src[:, :, 0], src[:, :, 1], dst[:, 0], dst[:, 1], buffer.view(float)

    def __enter__(self) -> "_Kernel":
        self.caller_bufsize = np.setbufsize(_STEP_BUFSIZE)
        return self

    def __exit__(self, *exc_info) -> None:
        np.setbufsize(self.caller_bufsize)

    @staticmethod
    def _occupancy(amplitudes: np.ndarray) -> tuple[int, int, int, int]:
        # Occupied grid rows [lo, hi), the parity e at the start and the
        # number of sublattices: one if every occupied row has parity e.
        occupied = np.flatnonzero(np.any(amplitudes, axis=1))
        if not occupied.size:
            _check_norm(0.0, 0)
        odd = occupied & 1
        mixed = bool(np.any(odd != odd[0]))
        return int(occupied[0]), int(occupied[-1]) + 1, 0 if mixed else int(odd[0]), 1 + mixed

    @classmethod
    def entry_bytes(cls, state: WalkState) -> int:
        """Bytes of one batch entry's buffer for a kernel started from ``state``."""
        sublattices = cls._occupancy(state.amplitudes)[3]
        return sublattices * (1 << state.num_coins) * (state.t_max + 2) * state.amplitudes.itemsize

    def _band(self) -> tuple[int, int]:
        # Compact rows [a, b) that hold the grid band of either sublattice:
        # grid row g of the sublattice it belongs to is compact row (g + e + 1) // 2.
        return (self.lo + self.parity + 1) // 2, (self.hi + self.parity) // 2 + 1

    def _block_phases(self) -> int:
        # A phase's coefficients hold 1 / (t_max + 2) of a buffer; a block
        # holds at most half a buffer, and at least one phase.
        return (self.t_max + 2) // 2

    def _coefficients(self) -> tuple[np.ndarray, np.ndarray]:
        # sqrt(rho) and i sqrt(1 - rho) of every entry's table at this step,
        # for each history, shaped (entries * sublattices, histories, 1) like
        # the pair axes of the step's views.
        phase = self.steps % self.period
        if not self.block_start <= phase < self.block_end:
            # One gather for the block of phases from this one on.
            phases = np.arange(phase, min(phase + self._block_phases(), self.period))
            games = self.codes[self.entries, phases[:, None] % self.lengths]
            games = np.repeat(games, self.psi.shape[1], axis=1)
            keep, flip = np.take(self.keep, games, axis=0), np.take(self.flip, games, axis=0)
            self.block = list(zip(keep[..., None], flip[..., None]))
            self.block_start, self.block_end = phase, phase + len(phases)
        return self.block[phase - self.block_start]

    def step(self) -> None:
        """Play every entry's next table: retoss, move, rotate."""
        # tools/layer_bench.py times step, _coefficients and norms by patching
        # them, so each stays a method that the loops call.
        keep, flip = self._coefficients()
        e = self.parity
        a, b = self.band
        src_l, src_r, _, _, _ = self.views
        _, _, dst_l, dst_r, _ = self.spare_views
        old_l, old_r = src_l[:, :, a:b], src_r[:, :, a:b]
        # The L half moves down e rows, the R half up 1 - e rows.
        new_l, new_r = dst_l[:, :, a - e : b - e], dst_r[:, :, a + 1 - e : b + 1 - e]
        tmp = self.scratch[: old_l.size].reshape(old_l.shape)
        np.multiply(keep, old_l, out=new_l)
        np.multiply(flip, old_r, out=tmp)
        np.add(new_l, tmp, out=new_l)
        np.multiply(flip, old_l, out=new_r)
        np.multiply(keep, old_r, out=tmp)
        np.add(new_r, tmp, out=new_r)
        # Grid rows -1 and 2 t_max + 1 at the next step are compact rows
        # 0 and t_max + 1 of sublattice e.
        sublattices = self.psi.shape[1]
        if e < sublattices and (self.lo == 0 or self.hi == self.rows):
            if (self.lo == 0 and dst_l[e::sublattices, :, 0].any()) or (
                self.hi == self.rows and dst_r[e::sublattices, :, -1].any()
            ):
                raise HorizonError(_HORIZON_MESSAGE)
        # The one row of each half inside the new band that was not written.
        dst_l[:, :, b - e] = 0
        dst_r[:, :, a - e] = 0
        self.lo, self.hi = max(self.lo - 1, 0), min(self.hi + 1, self.rows)
        self.psi, self.spare = self.spare, self.psi
        self.views, self.spare_views = self.spare_views, self.views
        self.parity = 1 - e
        self.steps += 1
        self.band = self._band()

    def norms(self) -> np.ndarray:
        """Squared norm of every entry, summed over the band in no set order."""
        a, b = self.band
        band = self.views[4][..., 2 * a : 2 * b]
        return np.einsum("bscr,bscr->b", band, band)

    def probabilities(self) -> tuple[int, int, np.ndarray]:
        """Register-traced probabilities of every entry's band, with their grid rows.

        Returns ``(first, stride, p)``: ``p[b, i]`` is entry ``b``'s
        probability on grid row ``first + stride * i``.  One sublattice gives
        stride 2; two are interleaved into grid order with stride 1.  The band
        is summed where it lies, by the helper that
        :func:`position_distribution` uses
        (:func:`state._register_probabilities`), so each probability equals
        its value for the full-grid :meth:`state` bit for bit.
        """
        a, b = self.band
        p = _register_probabilities(self.views[4][..., 2 * a : 2 * b])
        first = 2 * a - self.parity  # grid row of sublattice 0's compact row a
        if p.shape[1] == 1:
            return first, 2, p[:, 0]
        # Sublattice 1's compact row j is the grid row just below sublattice 0's.
        return first - 1, 1, p[:, ::-1].transpose(0, 2, 1).reshape(len(p), -1)

    def state(self, entry: int = 0) -> WalkState:
        """One entry's current state as a new full-grid array.

        The array is column-major, like the arrays :func:`toss` returns.
        """
        size = 1 << self.num_coins
        columns = np.zeros((size, self.rows), complex)
        for sigma, rows in enumerate(self.psi[entry]):
            # Compact row j holds grid row 2 j - e - sigma; keep those on the grid.
            offset = self.parity + sigma
            first = (offset + 1) // 2
            count = (self.rows - 1 + offset) // 2 - first + 1
            columns[:, 2 * first - offset :: 2] = rows[:, first : first + count]
        return WalkState(self.num_coins, self.t_max, columns.T, self.start + self.steps)
