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
:class:`_Kernel` instead, which does the same step in place on the occupied
rows only and never moves columns for the rotation; its tests compare it with
these functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Mapping, Sequence

import numpy as np

from .state import L, R, HorizonError, WalkState, complement

__all__ = [
    "coin_unitary",
    "all_histories",
    "HistoryRhoTable",
    "BrunCoinList",
    "apply_conditional_flip",
    "apply_shift",
    "apply_reorder",
    "toss",
    "brun_toss",
]


def _check_probability(value: float, label: str) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{label} = {value} must lie in [0, 1]")
    return value


def coin_unitary(rho: float) -> np.ndarray:
    """2x2 toss matrix: retention amplitude ``sqrt(rho)``, flip ``i*sqrt(1-rho)``.

    ``1 - rho`` is the classical probability that the tossed entry changes
    value; ``rho = 1/2`` is an unbiased toss.  The matrix is unitary for every
    ``rho`` in ``[0, 1]``.
    """
    rho = _check_probability(rho, "rho")
    keep = np.sqrt(rho)
    flip = 1j * np.sqrt(1.0 - rho)
    return np.array([[keep, flip], [flip, keep]], dtype=np.complex128)


def all_histories(num_coins: int) -> list[str]:
    """Every history string of length ``num_coins - 1``, in column-index order."""
    if num_coins < 1:
        raise ValueError(f"num_coins must be >= 1, got {num_coins}")
    return ["".join(h) for h in product((L, R), repeat=num_coins - 1)]


@dataclass(frozen=True)
class HistoryRhoTable:
    """Retention parameter for every history of recent results.

    Keys are strings of length ``num_coins - 1`` with the most recent result
    first; a single-coin walk has one entry under the empty history.  Values
    are the probabilities that the retossed entry keeps its old value.
    """

    num_coins: int
    rho: Mapping[str, float]

    def __post_init__(self) -> None:
        expected = all_histories(self.num_coins)
        entries = {}
        for key in expected:
            if key not in self.rho:
                raise ValueError(f"missing rho for history {key!r}")
            entries[key] = _check_probability(self.rho[key], f"rho[{key!r}]")
        extra = set(self.rho) - set(expected)
        if extra:
            raise ValueError(
                f"unexpected history keys {sorted(extra)} for num_coins={self.num_coins}"
            )
        object.__setattr__(self, "rho", entries)

    @classmethod
    def uniform(cls, num_coins: int, rho: float = 0.5) -> "HistoryRhoTable":
        """The same retention parameter for every history."""
        return cls(num_coins, {h: rho for h in all_histories(num_coins)})

    @classmethod
    def with_overrides(
        cls,
        num_coins: int,
        default: float = 0.5,
        overrides: Mapping[str, float] | None = None,
    ) -> "HistoryRhoTable":
        """A uniform table with selected histories overridden."""
        entries = {h: default for h in all_histories(num_coins)}
        for key, value in (overrides or {}).items():
            if key not in entries:
                raise ValueError(f"unknown history key {key!r} for num_coins={num_coins}")
            entries[key] = value
        return cls(num_coins, entries)

    def replaced(self, history: str, rho: float) -> "HistoryRhoTable":
        """A copy with one history entry changed."""
        if history not in self.rho:
            raise ValueError(f"unknown history key {history!r}")
        entries = dict(self.rho)
        entries[history] = rho
        return HistoryRhoTable(self.num_coins, entries)

    def mirrored(self) -> "HistoryRhoTable":
        """The table with every history complemented (L and R swapped)."""
        return HistoryRhoTable(
            self.num_coins, {complement(h): v for h, v in self.rho.items()}
        )

    def retention_array(self) -> np.ndarray:
        """Retention parameters ordered by history index (most recent = MSB)."""
        return np.array([self.rho[h] for h in all_histories(self.num_coins)], dtype=float)


@dataclass(frozen=True)
class BrunCoinList:
    """A fixed cycle of retention parameters, one per register slot."""

    rhos: tuple[float, ...]

    def __post_init__(self) -> None:
        values = tuple(
            _check_probability(v, f"rhos[{i}]") for i, v in enumerate(self.rhos)
        )
        if not values:
            raise ValueError("need at least one coin in the cycle")
        object.__setattr__(self, "rhos", values)

    def __len__(self) -> int:
        return len(self.rhos)

    def __getitem__(self, index: int) -> float:
        return self.rhos[index]


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


@lru_cache(maxsize=None)
def _reorder_source(num_coins: int) -> np.ndarray:
    # Column new receives old column rotl(new): relabeling the register so the
    # oldest slot moves to the front is a rotate-right on indices, and its
    # inverse gather map is the rotate-left.
    size = 1 << num_coins
    new = np.arange(size)
    src = ((new << 1) | (new >> (num_coins - 1))) & (size - 1)
    src.flags.writeable = False
    return src


def apply_reorder(state: WalkState) -> WalkState:
    """Rotate the register so the freshly retossed result is the most recent entry."""
    src = _reorder_source(state.num_coins)
    return WalkState(
        state.num_coins, state.t_max, state.amplitudes[:, src], state.steps_taken
    )


def toss(state: WalkState, table: HistoryRhoTable) -> WalkState:
    """One full history-conditioned step: retoss, move, rotate."""
    out = apply_reorder(apply_shift(apply_conditional_flip(state, table)))
    out.steps_taken = state.steps_taken + 1
    return out


def brun_toss(
    state: WalkState, coins: BrunCoinList | Sequence[float], step: int
) -> WalkState:
    """One step tossing with cycle entry ``step % len(coins)``, ignoring history.

    ``step`` counts completed steps from 0, so a fresh walk uses the first
    list entry on its first toss.  This is :func:`toss` with a uniform table.
    """
    rhos = tuple(coins)
    if len(rhos) != state.num_coins:
        raise ValueError(
            f"coin cycle has {len(rhos)} entries, state has {state.num_coins} coins"
        )
    return toss(state, HistoryRhoTable.uniform(state.num_coins, rhos[step % len(rhos)]))


class _Kernel:
    """Repeated :func:`toss` on private copies of a state, one cyclic schedule per batch entry.

    ``_Kernel(state, schedule, ...)`` starts one batch entry from ``state``
    per schedule; at step ``t`` (counted from construction) entry ``b`` plays
    ``schedules[b][t % len(schedules[b])]``.  Each amplitude goes through the
    same multiplications and additions as in :func:`toss`; four things make a
    step cheaper:

    * The register rotation is a relabeling.  ``perm[c]`` is the physical
      column that holds logical column ``c``; each step composes it with
      :func:`_reorder_source` instead of moving data, so the retossed entry
      sits in physical bit ``t mod num_coins`` and the retention coefficients
      are permuted to match.
    * Only the occupied band of rows ``[lo, hi)`` is touched.  It starts at the
      initial state's occupied rows and grows by one row on each side per
      step, clipped to the grid; :class:`HorizonError` is raised exactly when
      :func:`apply_shift` would raise it for some entry.
    * Flip and shift are one write into a second buffer, and the two buffers
      swap roles each step.  Rows outside the band stay zero.
    * The batch axis comes first.  Every entry shares the band and the column
      map, which depend only on ``t``, so one set of NumPy calls steps every
      entry.  Each entry's coefficients are gathered by the code of its table
      from the permuted tables, which are cached per retossed bit; the
      gathered coefficients repeat with ``t`` modulo ``period`` and are cached
      per phase, so a single walk gathers only during its first period.  At
      most one phase per step is cached; within the horizon that is less than
      half a buffer.

    The buffers have shape ``(entries, 2**num_coins, rows + 2)``: transposed,
    one contiguous run of positions per register column, so a step's inner
    loops run along the band.  Each run has one spare zero row below and above
    the grid, where amplitude shifted off the grid lands to be checked.  After
    a :class:`HorizonError` the buffers hold a partial step.
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
        self.rho = np.array([table.retention_array() for table in tables.values()])
        self.lengths = np.array([len(schedule) for schedule in schedules])
        self.codes = np.zeros((len(schedules), self.lengths.max()), int)
        for entry, schedule in enumerate(schedules):
            self.codes[entry, : len(schedule)] = [code[id(table)] for table in schedule]
        self.entries = np.arange(len(schedules))
        self.period = math.lcm(self.num_coins, *self.lengths.tolist())
        self.permuted: dict[int, np.ndarray] = {}
        self.coefficients: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        amplitudes = state.amplitudes
        self.rows, size = amplitudes.shape
        occupied = np.flatnonzero(np.any(amplitudes, axis=1))
        self.lo, self.hi = (int(occupied[0]), int(occupied[-1]) + 1) if occupied.size else (0, 0)
        # Grid row g is buffer row g + 1.
        self.psi = np.zeros((len(schedules), size, self.rows + 2), complex)
        self.psi[:, :, self.lo + 1 : self.hi + 1] = amplitudes[self.lo : self.hi].T
        self.spare = np.zeros_like(self.psi)
        self.scratch = np.empty(self.psi.size // 2, complex)  # one half, one product
        self.perm = np.arange(size)

    def _coefficients(self) -> tuple[np.ndarray, np.ndarray]:
        # sqrt(rho) and i sqrt(1 - rho) of every entry's table at this step,
        # for each physical column pair, shaped (entries * high, low, 1) like
        # the pair axes of the step's view.
        phase = self.steps % self.period
        if phase not in self.coefficients:
            retossed = phase % self.num_coins
            if retossed not in self.permuted:
                logical = np.argsort(self.perm)
                pairs = np.arange(1 << self.num_coins).reshape(-1, 2, 1 << retossed)[:, 0, :]
                rho = self.rho[:, logical[pairs] >> 1, None]
                self.permuted[retossed] = np.stack(
                    [np.sqrt(rho).astype(complex), 1j * np.sqrt(1.0 - rho)]
                )
            games = self.codes[self.entries, phase % self.lengths]
            pair_shape = (-1, 1 << retossed, 1)  # entries and high bits share an axis
            keep, flip = self.permuted[retossed][:, games]
            self.coefficients[phase] = keep.reshape(pair_shape), flip.reshape(pair_shape)
        return self.coefficients[phase]

    def step(self) -> None:
        """Play every entry's next table: retoss, move, relabel."""
        retossed = self.steps % self.num_coins
        keep, flip = self._coefficients()
        lo, hi = self.lo, self.hi
        if lo < hi:
            # Axes: entries and high column bits, the retossed bit, low column bits, rows.
            shape = (-1, 2, 1 << retossed, self.rows + 2)
            src = self.psi.reshape(shape)
            dst = self.spare.reshape(shape)
            old_l, old_r = src[:, 0, :, lo + 1 : hi + 1], src[:, 1, :, lo + 1 : hi + 1]
            # The retossed L half moves one row down, the R half one row up.
            new_l, new_r = dst[:, 0, :, lo:hi], dst[:, 1, :, lo + 2 : hi + 2]
            tmp = self.scratch[: old_l.size].reshape(old_l.shape)
            np.multiply(keep, old_l, out=new_l)
            np.multiply(flip, old_r, out=tmp)
            np.add(new_l, tmp, out=new_l)
            np.multiply(flip, old_l, out=new_r)
            np.multiply(keep, old_r, out=tmp)
            np.add(new_r, tmp, out=new_r)
            if (lo == 0 and dst[:, 0, :, 0].any()) or (
                hi == self.rows and dst[:, 1, :, -1].any()
            ):
                raise HorizonError(_HORIZON_MESSAGE)
            # Clear the two rows at the far side of each half that were not written.
            dst[:, 0, :, hi : hi + 2] = 0
            dst[:, 1, :, lo : lo + 2] = 0
            self.lo, self.hi = max(lo - 1, 0), min(hi + 1, self.rows)
            self.psi, self.spare = self.spare, self.psi
        self.perm = self.perm[_reorder_source(self.num_coins)]
        self.steps += 1

    def norms(self) -> np.ndarray:
        """Squared norm of every entry, summed over the band in no set order."""
        band = self.psi[:, :, self.lo + 1 : self.hi + 1].view(float)
        return np.einsum("bcr,bcr->b", band, band)

    def probabilities(self) -> tuple[int, np.ndarray]:
        """First band row and the register-traced probability of every entry's band rows.

        The result has one row per entry.  Each position's terms are added one
        logical column after the other, the order in which
        :func:`position_distribution` adds them for the column-major arrays
        that :func:`toss` returns.
        """
        weights = np.abs(self.psi[:, :, self.lo + 1 : self.hi + 1])[:, self.perm]
        np.square(weights, out=weights)
        return self.lo, weights.sum(axis=1)

    def state(self, entry: int = 0) -> WalkState:
        """One entry's current state in logical column order, as a new full-grid array.

        The array is column-major, like the arrays :func:`toss` returns.
        """
        amplitudes = self.psi[entry][self.perm, 1:-1].T
        return WalkState(self.num_coins, self.t_max, amplitudes, self.start + self.steps)
