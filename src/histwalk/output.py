"""Deterministic CSV and SVG artifact writers.

Numbers are printed in fixed-point with 12 digits after the decimal point so
that re-parsing a file reproduces the payload to well below every tolerance
used in this package; lines always end with a bare linefeed.  The SVG writer
renders from fixed geometry, a fixed palette and fixed number formatting, so
identical inputs give byte-identical files.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np


def format_value(value) -> str:
    """Render one CSV cell: strings pass through, integers and booleans stay integers.

    Anything else is a number: its ``float`` in fixed point with 12 decimals,
    or ``0.000000000000`` if it rounds to zero, as :func:`_format_column` spells it.
    """
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer, np.bool_)):
        return str(int(value))
    return _format_column((float(value),))[0]


def _format_column(column: tuple) -> list[str]:
    """:func:`format_value` of each cell; one pass when every cell is a float or an exact int."""
    kinds = set(map(type, column))
    if kinds <= {float, np.float64}:
        # A minus sign only leads a cell, so "-0.000000000000" is always a
        # whole cell: one that rounds to zero from below.
        text = ("%.12f\n" * len(column))[:-1] % column
        return text.replace("-0.000000000000", "0.000000000000").split("\n")
    if kinds == {int}:  # not bools
        return list(map(str, column))
    return list(map(format_value, column))


def write_csv(header: Sequence[str], rows: Iterable[Sequence], path=None) -> None:
    """Write one header row plus data rows; LF endings, UTF-8, stdout if no path.

    ``rows`` may be any iterable of iterables, such as a generator.  Rows of
    one width are formatted a column at a time, any others cell by cell, with
    the same text.  Columns of Python ``int`` or ``float`` (``.tolist()``
    columns) are the fastest to format.
    ``perfbench/tracer.py`` binds ``path`` by name.
    """
    rows = list(map(tuple, rows))
    if len(set(map(len, rows))) == 1 and rows[0]:
        cells = zip(*map(_format_column, zip(*rows)))
    else:  # no rows, empty rows or rows of different widths
        cells = (map(format_value, row) for row in rows)
    lines = [",".join(header), *map(",".join, cells)]
    payload = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(payload)
    else:
        Path(path).write_text(payload, encoding="utf-8", newline="\n")


def read_csv_columns(path) -> tuple[list[str], list[float], list[float]]:
    """Header plus the first two columns as finite floats; raises on malformed input."""
    text = Path(path).read_text(encoding="utf-8")
    rows = [line.split(",") for line in text.splitlines() if line.strip()]
    if len(rows) < 2:
        raise ValueError(f"{path}: no data rows")
    header = rows[0]
    if len(header) < 2:
        raise ValueError(f"{path}: need at least two columns")
    xs: list[float] = []
    ys: list[float] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) < 2:
            raise ValueError(f"{path}: line {lineno}: need at least two columns")
        try:
            x, y = float(row[0]), float(row[1])
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: non-numeric value") from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"{path}: line {lineno}: non-finite value")
        xs.append(x)
        ys.append(y)
    return header, xs, ys


# Characters that XML 1.0 allows nowhere in a document, as translate() keys.
_NOT_XML = dict.fromkeys([*range(0x09), 0x0B, 0x0C, *range(0x0E, 0x20), 0xFFFE, 0xFFFF], "\ufffd")


def _escape(text: str) -> str:
    """``text`` as SVG character data: ``&``, ``<`` and ``>`` as entities.

    Characters that XML 1.0 forbids become U+FFFD.  A local rule, since
    ``xml.sax.saxutils`` would import ``urllib.request``.
    """
    text = text.translate(_NOT_XML)
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


_PALETTE = (
    "#1b6ca8",
    "#c8401f",
    "#2e8540",
    "#7d3f98",
    "#b8860b",
    "#386f6f",
    "#8c564b",
    "#555555",
)

_STYLES = ("line", "scatter")
_WIDTH, _HEIGHT = 720, 480
_LEFT, _RIGHT, _TOP, _BOTTOM = 72, 168, 28, 52


def _bounds(values: list[float]) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    if lo == hi:
        pad = abs(lo) * 0.5 + 1.0
        return lo - pad, hi + pad
    return lo, hi


def emit_svg_plot(csv_paths: Sequence, out_path, style: str = "line") -> None:
    """Render two-column CSV files as one static SVG chart.

    Each file contributes one series named after its file stem; axis labels
    come from the first file's header.  Both are written as XML text, with
    ``&``, ``<`` and ``>`` escaped.  ``style`` is ``"line"`` or
    ``"scatter"``.  Nothing is written if any input is malformed.
    ``perfbench/tracer.py`` binds ``out_path`` by name.
    """
    if style not in _STYLES:
        raise ValueError(f"style must be {' or '.join(map(repr, _STYLES))}, got {style!r}")
    if not csv_paths:
        raise ValueError("need at least one CSV input")
    series = []
    for path in csv_paths:
        header, xs, ys = read_csv_columns(path)
        series.append((Path(path).stem, header, xs, ys))

    x_lo, x_hi = _bounds([x for _, _, xs, _ in series for x in xs])
    y_lo, y_hi = _bounds([y for _, _, _, ys in series for y in ys])
    plot_w = _WIDTH - _LEFT - _RIGHT
    plot_h = _HEIGHT - _TOP - _BOTTOM

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">\n',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>\n',
        f'<rect x="{_LEFT}" y="{_TOP}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#222222" stroke-width="1"/>\n',
    ]
    for i in range(5):
        frac = i / 4.0
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        xpix = _LEFT + frac * plot_w
        ypix = _TOP + plot_h - frac * plot_h
        parts.append(
            f'<line x1="{xpix:.2f}" y1="{_TOP + plot_h}" x2="{xpix:.2f}" '
            f'y2="{_TOP + plot_h + 5}" stroke="#222222" stroke-width="1"/>\n'
            f'<text x="{xpix:.2f}" y="{_TOP + plot_h + 18}" font-family="monospace" '
            f'font-size="11" text-anchor="middle">{xv:.6g}</text>\n'
            f'<line x1="{_LEFT - 5}" y1="{ypix:.2f}" x2="{_LEFT}" y2="{ypix:.2f}" '
            f'stroke="#222222" stroke-width="1"/>\n'
            f'<text x="{_LEFT - 8}" y="{ypix + 4:.2f}" font-family="monospace" '
            f'font-size="11" text-anchor="end">{yv:.6g}</text>\n'
        )
    x_label, y_label = _escape(series[0][1][0]), _escape(series[0][1][1])
    parts.append(
        f'<text x="{_LEFT + plot_w / 2:.2f}" y="{_HEIGHT - 14}" font-family="monospace" '
        f'font-size="12" text-anchor="middle">{x_label}</text>\n'
        f'<text x="16" y="{_TOP + plot_h / 2:.2f}" font-family="monospace" font-size="12" '
        f'text-anchor="middle" transform="rotate(-90 16 {_TOP + plot_h / 2:.2f})">'
        f"{y_label}</text>\n"
    )
    for idx, (name, _, xs, ys) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        # Pixel coordinates, x then y of each point, by the operations of
        # _LEFT + (x - x_lo) * plot_w / (x_hi - x_lo) and
        # _TOP + (y_hi - y) * plot_h / (y_hi - y_lo) in that order: the bits
        # of those formulas on Python floats, inf and nan included, unwarned.
        with np.errstate(all="ignore"):
            pixels = np.column_stack((
                _LEFT + (np.array(xs) - x_lo) * plot_w / (x_hi - x_lo),
                _TOP + (y_hi - np.array(ys)) * plot_h / (y_hi - y_lo),
            ))
        coordinates = tuple(pixels.ravel().tolist())
        if style == "line":
            points = " ".join(["%.2f,%.2f"] * len(xs)) % coordinates
            parts.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                f'points="{points}"/>\n'
            )
        else:
            circle = f'<circle cx="%.2f" cy="%.2f" r="2.5" fill="{color}"/>\n'
            parts.append(circle * len(xs) % coordinates)
        ly = _TOP + 14 + 18 * idx
        parts.append(
            f'<rect x="{_WIDTH - _RIGHT + 12}" y="{ly - 9}" width="14" height="10" '
            f'fill="{color}"/>\n'
            f'<text x="{_WIDTH - _RIGHT + 32}" y="{ly}" font-family="monospace" '
            f'font-size="11">{_escape(name)}</text>\n'
        )
    parts.append("</svg>\n")
    Path(out_path).write_text("".join(parts), encoding="utf-8", newline="\n")
