"""Flat key=value run configuration with fail-closed validation.

Grammar: UTF-8 text, one ``key = value`` pair per line, ``#`` starts a
comment, blank lines are ignored.  Dotted keys express nested tables, for
example ``games.B.rho.RR = 0.55``.  Unknown keys are rejected so a typo can
never silently change a run; every refusal of a key's value names the key
and its line.  This module keeps only the grammar: lines, keys, required
keys, history-key lengths, game kinds (whose parameters are their dataclass
fields) and engines.  Each other rule is the library's own, in its words, as
a ConfigError (:func:`_checked`): ``state._count``; ``_check_probability`` and
``_check_pattern`` in ``operators``; ``_check_window`` and ``_check_prominence``
in ``analysis``; ``walker._check_start``.  Whether a walk grid (``M``
with its ``T`` positions on each side) fits in memory is checked where the
grid is allocated, not here: the classical ``rho-walk`` engine reads ``M``
but allocates no grid.

Recognized keys::

    M = <int >= 1>                     register length (required with games.*)
    T = <int >= 0>                     number of steps (required)
    initial = antisymmetric | allR     starting state, default antisymmetric
    pattern = <letters>                cyclic game sequence, e.g. AABB (required)
    window = <odd int >= 1>            walk dist peaks: smoothing window, default 5
    prominence = <float in (0,1)>      walk dist peaks: peak threshold, default 0.1
    out = <path>                       default output path (stdout if absent)
    seed = <int >= 0>                  classical run --monte-carlo: sampling seed
    games.<X>.rho.default = <float in [0,1]>
    games.<X>.rho.<H> = <float in [0,1]>   H over {L,R}, length M-1
    classical.engine = capital | history | rho-walk
    classical.<X>.kind = biased | mod3 | history
    classical.<X>.p | .p1 | .p2 | .p3 | .p4 = <float in [0,1]>
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from typing import Callable, Mapping

from .analysis import _PROMINENCE, _WINDOW, _check_prominence, _check_window
from .classical import _ENGINES as _EXACT_ENGINES, BiasedCoin, CapitalMod3, HistoryCoins
from .operators import HistoryRhoTable, _check_pattern, _check_probability
from .state import _count, _echo
from .walker import ANTISYMMETRIC, _check_start

_CLASSICAL_KINDS = {"biased": BiasedCoin, "mod3": CapitalMod3, "history": HistoryCoins}
_PARAMS = sorted({param.name for kind in _CLASSICAL_KINDS.values() for param in fields(kind)})

_GAME_KEY = re.compile(r"^games\.([A-Za-z])\.rho\.(default|[LR]+)$")
_CLASSICAL_KEY = re.compile(rf"^classical\.([A-Za-z])\.(kind|{'|'.join(_PARAMS)})$")
_ENGINES = (*_EXACT_ENGINES, "rho-walk")
# A decimal integer as ``int`` reads it; ``int`` refuses one of more digits
# than ``sys.get_int_max_str_digits()`` (4,300 by default).
_INTEGER = re.compile(r"[+-]?\d+(?:_\d+)*")
_SPELLED = {int: "an integer", float: "a number"}


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending key or line."""


@dataclass(frozen=True)
class RunConfig:
    """A fully validated run description."""

    steps: int
    pattern: str
    num_coins: int | None
    initial: str
    games: dict[str, HistoryRhoTable] = field(default_factory=dict)
    classical_engine: str | None = None
    classical_games: dict = field(default_factory=dict)
    window: int = _WINDOW
    prominence: float = _PROMINENCE
    out: str | None = None
    seed: int | None = None


def _checked(rule: Callable, *args, where: str = ""):
    """``rule(*args)``; a ValueError it raises becomes a ConfigError ending in ``where``."""
    try:
        return rule(*args)
    except ValueError as exc:
        raise ConfigError(f"{exc}{where}") from None


class _Raw:
    """Key/value pairs plus source lines, consumed as they are validated."""

    def __init__(self) -> None:
        self.values: dict[str, str] = {}
        self.lines: dict[str, int] = {}

    def where(self, key: str) -> str:
        line = self.lines.get(key, 0)
        return f" (line {line})" if line else ""

    def take(self, key: str) -> str | None:
        return self.values.pop(key, None)

    def read(self, key: str, parse: Callable, rule: Callable, *args):
        """``key``'s text read by ``parse`` and checked by ``rule(value, key, *args)``.

        ``parse`` is ``int``, ``float`` or ``str``; ``rule`` is the library's
        own check of the value, and its ``ValueError`` becomes a ConfigError
        with the key's line.  A key or text past 60 characters is shown cut
        (``state._echo``).  None when the key is absent.
        """
        text = self.take(key)
        if text is None:
            return None
        name, where = _echo(key), self.where(key)
        try:
            value = parse(text)
        except ValueError:
            if _INTEGER.fullmatch(text):
                raise ConfigError(
                    f"{name} is too long an integer: {len(text)} characters{where}"
                ) from None
            raise ConfigError(
                f"{name} = {_echo(repr(text))} is not {_SPELLED[parse]}{where}"
            ) from None
        return _checked(rule, value, name, *args, where=where)


def _scan_lines(text: str, raw: _Raw) -> None:
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {_echo(repr(body))}")
        key, value = (part.strip() for part in body.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in raw.values:
            raise ConfigError(f"line {lineno}: duplicate key {_echo(repr(key))}")
        raw.values[key] = value
        raw.lines[key] = lineno


def _build_games(raw: _Raw, num_coins: int | None) -> dict[str, HistoryRhoTable]:
    defaults: dict[str, float] = {}
    overrides: dict[str, dict[str, float]] = {}
    for key in [k for k in raw.values if k.startswith("games.")]:
        match = _GAME_KEY.match(key)
        if match is None:
            raise ConfigError(f"unknown key {_echo(repr(key))}{raw.where(key)}")
        letter, history = match.groups()
        value = raw.read(key, float, _check_probability)
        if history == "default":
            defaults[letter] = value
        else:
            overrides.setdefault(letter, {})[history] = value
    letters = sorted(set(defaults) | set(overrides))
    if letters and num_coins is None:
        raise ConfigError("M is required when games.* keys are present")
    games: dict[str, HistoryRhoTable] = {}
    for letter in letters:
        for history in overrides.get(letter, {}):
            if len(history) != num_coins - 1:
                key = f"games.{letter}.rho.{history}"
                raise ConfigError(
                    f"{_echo(key)}: history length must be M-1 = {num_coins - 1}{raw.where(key)}"
                )
        try:
            if letter in defaults:
                games[letter] = HistoryRhoTable.with_overrides(
                    num_coins, defaults[letter], overrides.get(letter, {})
                )
            else:
                games[letter] = HistoryRhoTable(num_coins, overrides.get(letter, {}))
        except ValueError as exc:
            raise ConfigError(f"games.{letter}: {exc}") from None
    return games


def _build_classical(raw: _Raw) -> dict:
    by_letter: dict[str, dict[str, str]] = {}
    for key in [k for k in raw.values if k.startswith("classical.")]:
        match = _CLASSICAL_KEY.match(key)
        if match is None:
            raise ConfigError(f"unknown key {_echo(repr(key))}{raw.where(key)}")
        letter, param = match.groups()
        by_letter.setdefault(letter, {})[param] = key
    specs: dict = {}
    for letter, params in sorted(by_letter.items()):
        kind_key = params.pop("kind", None)
        if kind_key is None:
            raise ConfigError(f"classical.{letter}.kind is required")
        kind = raw.take(kind_key)
        if kind not in _CLASSICAL_KINDS:
            raise ConfigError(
                f"classical.{letter}.kind = {_echo(repr(kind))} must be one of "
                f"{sorted(_CLASSICAL_KINDS)}{raw.where(kind_key)}"
            )
        wanted = [param.name for param in fields(_CLASSICAL_KINDS[kind])]
        extra = sorted(set(params) - set(wanted))
        if extra:
            raise ConfigError(
                f"classical.{letter}: parameters {extra} do not apply to kind {kind!r}"
            )
        values = {}
        for name in wanted:
            if name not in params:
                raise ConfigError(f"classical.{letter}.{name} is required for kind {kind!r}")
            values[name] = raw.read(params[name], float, _check_probability)
        specs[letter] = _CLASSICAL_KINDS[kind](**values)
    return specs


def parse_config(text: str, overrides: Mapping[str, str] | None = None) -> RunConfig:
    """Parse and validate configuration text, with optional flag overrides.

    ``overrides`` maps config keys to flag text, read as the key's text in
    the file would be, and wins over the file, letting command-line flags
    take precedence.  A flag has no line to name, and no value may be empty.
    """
    raw = _Raw()
    _scan_lines(text, raw)
    for key, value in (overrides or {}).items():
        if not str(value):
            raise ConfigError(f"{key}: empty value")
        raw.values[key] = str(value)
        raw.lines[key] = 0

    steps = raw.read("T", int, _count, 0)
    if steps is None:
        raise ConfigError("T is required")
    pattern = raw.take("pattern")
    if pattern is None:
        raise ConfigError("pattern is required")
    if not pattern.isalpha():
        raise ConfigError(
            f"pattern = {_echo(repr(pattern))} must be letters only{raw.where('pattern')}"
        )

    num_coins = raw.read("M", int, _count, 1)
    initial = raw.read("initial", str, _check_start) or ANTISYMMETRIC
    window = raw.read("window", int, _check_window) or _WINDOW
    prominence = raw.read("prominence", float, _check_prominence) or _PROMINENCE
    out = raw.take("out")
    seed = raw.read("seed", int, _count, 0)

    engine = raw.take("classical.engine")
    if engine is not None and engine not in _ENGINES:
        raise ConfigError(
            f"classical.engine = {_echo(repr(engine))} must be one of {list(_ENGINES)}"
            f"{raw.where('classical.engine')}"
        )

    games = _build_games(raw, num_coins)
    classical_games = _build_classical(raw)

    if raw.values:
        key = min(raw.values, key=lambda k: raw.lines.get(k, 0))
        raise ConfigError(f"unknown key {_echo(repr(key))}{raw.where(key)}")

    where = f" in games.* or classical.*{raw.where('pattern')}"
    _checked(_check_pattern, pattern, games.keys() | classical_games.keys(), where=where)

    return RunConfig(
        steps=steps,
        pattern=pattern,
        num_coins=num_coins,
        initial=initial,
        games=games,
        classical_engine=engine,
        classical_games=classical_games,
        window=window,
        prominence=prominence,
        out=out,
        seed=seed,
    )
