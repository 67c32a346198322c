"""CSV and SVG writers: formatting, byte layout, and determinism."""

import contextlib
import io
import xml.etree.ElementTree as ET
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from histwalk import output
from histwalk.output import emit_svg_plot, format_value, read_csv_columns, write_csv
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import csv_by_rows, svg_bounds, svg_series_by_points


class TestFormatValue:
    def test_strings_pass_through(self):
        assert format_value("pattern") == "pattern"

    def test_integers_stay_integers(self):
        assert format_value(7) == "7"
        assert format_value(np.int64(-3)) == "-3"

    def test_floats_use_twelve_fixed_digits(self):
        assert format_value(0.5) == "0.500000000000"
        assert format_value(1 / 3) == "0.333333333333"
        assert format_value(np.float64(-1.25)) == "-1.250000000000"

    def test_values_rounding_to_zero_share_one_spelling(self):
        assert format_value(-0.0) == "0.000000000000"
        assert format_value(-2.0e-16) == "0.000000000000"
        assert format_value(2.0e-16) == "0.000000000000"

    @staticmethod
    def generic(value) -> str:
        # The rule for any number: its float, fixed point, one spelling of zero.
        text = f"{float(value):.12f}"
        return text[1:] if text == "-0.000000000000" else text

    @pytest.mark.parametrize(
        "value",
        [0.1, np.float64(0.1), np.float32(0.1), -0.0, -1e-13, 1e-13, 1e17,
         float("nan"), float("inf"), -float("inf"), np.float64(-0.0), np.float64(-1e-13),
         Decimal("-4e-13"), Fraction(1, 3), np.float16(0.1), np.longdouble(1) / 3],
    )
    def test_floats_format_as_any_number_does(self, value):
        assert format_value(value) == self.generic(value)

    @given(st.floats())
    def test_python_and_numpy_floats_format_alike(self, value):
        assert format_value(value) == format_value(np.float64(value)) == self.generic(value)

    def test_booleans_are_written_as_integers(self):
        assert [format_value(v) for v in (True, False, np.True_, np.False_)] == ["1", "0", "1", "0"]


class TestWriteCsv:
    def test_writes_linefeed_terminated_utf8(self, tmp_path):
        path = tmp_path / "table.csv"
        write_csv(("t", "mean"), [(0, 0.0), (1, -0.5)], path)
        assert path.read_bytes() == b"t,mean\n0,0.000000000000\n1,-0.500000000000\n"

    def test_stdout_fallback(self, capsys):
        write_csv(("x", "p"), [(2, 0.25)])
        assert capsys.readouterr().out == "x,p\n2,0.250000000000\n"

    def test_round_trips_through_the_reader(self, tmp_path):
        path = tmp_path / "table.csv"
        write_csv(("rho", "mean"), [(0.3, 2.465461937), (0.55, -0.714015085)], path)
        header, xs, ys = read_csv_columns(path)
        assert header == ["rho", "mean"]
        assert xs == pytest.approx([0.3, 0.55], abs=1e-12)
        assert ys == pytest.approx([2.465461937, -0.714015085], abs=1e-12)


def written(header, rows) -> str:
    """What ``write_csv`` writes to stdout."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        write_csv(header, rows)
    return out.getvalue()


# One strategy per cell type, so a column can hold one type or several.
CELLS = {
    "float": st.floats(),
    "np.float64": st.floats().map(np.float64),
    "np.float32": st.floats(width=32).map(np.float32),
    "int": st.integers(-(10**30), 10**30),
    "np.int64": st.integers(-(2**63), 2**63 - 1).map(np.int64),
    "bool": st.booleans(),
    "np.bool_": st.booleans().map(np.bool_),
    "str": st.text(max_size=8),
}


@st.composite
def tables(draw):
    """Rows of one width; each column holds one cell type, or any mix of them."""
    kinds = draw(st.lists(st.sampled_from([*CELLS, "mixed"]), min_size=1, max_size=4))
    columns = [CELLS[kind] if kind != "mixed" else st.one_of(*CELLS.values()) for kind in kinds]
    return draw(st.lists(st.tuples(*columns), max_size=20))


class TestCsvColumns:
    """``write_csv`` formats a column at a time and writes the per-cell loop's text."""

    EDGES = [-0.0, 0.0, -4e-13, 4e-13, -1e-13, 1e-13, -1e-12, -10.0, 1e17, -1e17,
             float("nan"), float("inf"), -float("inf"), 0.5]

    @pytest.mark.parametrize("kind", [float, np.float64])
    def test_float_edges(self, tmp_path, kind):
        rows = [(i, kind(value)) for i, value in enumerate(self.EDGES)]
        path = tmp_path / "edges.csv"
        write_csv(("i", "value"), rows, path)
        expected = csv_by_rows(("i", "value"), rows)
        assert path.read_bytes() == expected.encode("utf-8")
        cells = [line.split(",")[1] for line in expected.splitlines()[1:]]
        assert cells[:8] == ["0.000000000000"] * 6 + ["-0.000000000001", "-10.000000000000"]
        assert cells[8:] == ["100000000000000000.000000000000", "-100000000000000000.000000000000",
                             "nan", "inf", "-inf", "0.500000000000"]

    @pytest.mark.parametrize(
        "rows",
        [
            [(1, 0.5), (2,), (3, -0.0, "x"), ()],
            [(), ()],
            [("only",), (-4e-13,), (np.True_,)],
            [],
        ],
        ids=["ragged", "empty rows", "one mixed column", "no rows"],
    )
    def test_rows_of_any_width(self, rows):
        assert written(("a", "b"), rows) == csv_by_rows(("a", "b"), rows)

    def test_rows_from_a_generator_of_iterators(self):
        def rows():
            for t in range(3):
                yield iter((t, t / 3))

        expected = csv_by_rows(("t", "x"), [(0, 0.0), (1, 1 / 3), (2, 2 / 3)])
        assert written(("t", "x"), rows()) == expected

    def test_no_rows_write_the_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(("x", "p"), iter(()), path)
        assert path.read_bytes() == b"x,p\n"

    @settings(max_examples=200, deadline=None)
    @given(tables())
    def test_any_table(self, rows):
        header = [f"c{i}" for i in range(len(rows[0]))] if rows else ["c0"]
        assert written(header, rows) == csv_by_rows(header, rows)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.lists(st.one_of(*CELLS.values()), max_size=4), max_size=8))
    def test_any_rows_of_any_width(self, rows):
        assert written(["h"], rows) == csv_by_rows(["h"], rows)


class TestReadCsvColumns:
    def test_rejects_headerless_or_empty_files(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("t,mean\n")
        with pytest.raises(ValueError, match="no data rows"):
            read_csv_columns(path)

    def test_rejects_single_column_files(self, tmp_path):
        path = tmp_path / "narrow.csv"
        path.write_text("t\n0\n")
        with pytest.raises(ValueError, match="two columns"):
            read_csv_columns(path)

    def test_reports_the_line_of_a_bad_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,mean\n0,0.0\n1,oops\n")
        with pytest.raises(ValueError, match="line 3"):
            read_csv_columns(path)

    @pytest.mark.parametrize("row", ["1,nan", "inf,0.5", "1,-inf", "NaN,1"])
    def test_rejects_non_finite_values(self, tmp_path, row):
        path = tmp_path / "nan.csv"
        path.write_text(f"t,mean\n0,0.0\n{row}\n")
        with pytest.raises(ValueError, match="line 3: non-finite value"):
            read_csv_columns(path)


class TestSvgPlot:
    @pytest.fixture()
    def csv_file(self, tmp_path):
        path = tmp_path / "series.csv"
        write_csv(("t", "mean"), [(0, 0.0), (1, 0.5), (2, -0.25)], path)
        return path

    def test_identical_inputs_give_identical_bytes(self, csv_file, tmp_path):
        first = tmp_path / "first.svg"
        second = tmp_path / "second.svg"
        emit_svg_plot([csv_file], first)
        emit_svg_plot([csv_file], second)
        assert first.read_bytes() == second.read_bytes()

    def test_document_structure_and_legend(self, csv_file, tmp_path):
        out = tmp_path / "chart.svg"
        emit_svg_plot([csv_file], out, style="line")
        text = out.read_text()
        assert text.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
        assert text.endswith("</svg>\n")
        assert "polyline" in text
        assert ">series<" in text  # legend uses the file stem
        assert ">t<" in text and ">mean<" in text  # axis labels from the header

    def test_scatter_style_draws_circles(self, csv_file, tmp_path):
        out = tmp_path / "chart.svg"
        emit_svg_plot([csv_file], out, style="scatter")
        text = out.read_text()
        assert "circle" in text
        assert "polyline" not in text

    def test_validates_style_and_inputs(self, csv_file, tmp_path):
        with pytest.raises(ValueError, match="style"):
            emit_svg_plot([csv_file], tmp_path / "x.svg", style="bars")
        with pytest.raises(ValueError, match="at least one"):
            emit_svg_plot([], tmp_path / "x.svg")

    def test_markup_in_names_and_headers_is_escaped(self, tmp_path):
        path = tmp_path / "a&b<c>.csv"
        path.write_text("x<1,p&q\n0,0.0\n1,0.5\n", encoding="utf-8")
        out = tmp_path / "chart.svg"
        emit_svg_plot([path], out)
        texts = [node.text for node in ET.parse(out).iter("{http://www.w3.org/2000/svg}text")]
        assert {"x<1", "p&q", "a&b<c>"} <= set(texts)

    def test_characters_xml_forbids_become_replacement_characters(self, tmp_path):
        path = tmp_path / "r\x01n.csv"
        path.write_text("t\x01x,p\u00e9\ufffe\n0,0.0\n1,0.5\n", encoding="utf-8")
        out = tmp_path / "chart.svg"
        emit_svg_plot([path], out)
        texts = [node.text for node in ET.parse(out).iter("{http://www.w3.org/2000/svg}text")]
        assert {"t\ufffdx", "p\u00e9\ufffd", "r\ufffdn"} <= set(texts)
        # Allowed characters, non-ASCII ones included, keep their bytes.
        assert "p\u00e9".encode() in out.read_bytes()

    def test_constant_series_still_renders(self, tmp_path):
        path = tmp_path / "flat.csv"
        write_csv(("t", "mean"), [(0, 1.0), (1, 1.0)], path)
        out = tmp_path / "flat.svg"
        emit_svg_plot([path], out)
        assert out.read_text().endswith("</svg>\n")


class TestSvgCoordinates:
    """Each series' markup equals the per-point formulas of ``reference`` byte for byte."""

    @staticmethod
    def check(tmp_path, series, style):
        paths = []
        for idx, points in enumerate(series):
            path = tmp_path / f"s{idx}.csv"
            path.write_text("x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in points))
            paths.append(path)
        out = tmp_path / "chart.svg"
        emit_svg_plot(paths, out, style=style)
        x_range = svg_bounds([x for points in series for x, _ in points])
        y_range = svg_bounds([y for points in series for _, y in points])
        box = (output._LEFT, output._TOP, output._WIDTH - output._LEFT - output._RIGHT,
               output._HEIGHT - output._TOP - output._BOTTOM)
        remainder = out.read_text()
        for idx, points in enumerate(series):
            xs, ys = [x for x, _ in points], [y for _, y in points]
            color = output._PALETTE[idx % len(output._PALETTE)]
            markup = svg_series_by_points(xs, ys, x_range, y_range, box, style, color)
            assert remainder.count(markup) == 1
            remainder = remainder.replace(markup, "")
        assert "<polyline" not in remainder and "<circle" not in remainder

    CASES = {
        "constant y, padded": [[(0.0, 0.25), (1.0, 0.25), (2.0, 0.25)]],
        "one point, both axes padded": [[(-3.0, -2.5)]],
        "negative values": [[(-4.0, -0.5), (-2.0, 0.125), (0.0, -1e-3), (2.0, -7.25)]],
        # Each point lands on a half of the last printed digit, where the
        # same operations in another order round the other way.
        "pixels on a rounding edge": [[
            (-3.0, -0.7), (-2.779427083333333, 0.53621875), (-2.6809895833333335, 0.51996875),
            (-2.6627604166666665, 0.51590625), (4.0, 0.6),
        ]],
        # The span overflows to inf, so the formulas give nan on Python floats.
        "a range past the largest float": [[(-1e308, 0.0), (1e308, 1.0)]],
        "three series": [
            [(0.0, 0.1), (1.0, 0.7), (2.0, 0.3)],
            [(-1.5, -0.2), (0.5, 0.4)],
            [(3.0, 1.0 / 3.0), (4.0, 2.0 / 3.0), (5.0, 0.0), (6.0, -1.0 / 7.0)],
        ],
    }

    @pytest.mark.filterwarnings("error")  # the writer warns of nothing, as on Python floats
    @pytest.mark.parametrize("style", output._STYLES)
    @pytest.mark.parametrize("case", CASES)
    def test_cases(self, tmp_path, case, style):
        self.check(tmp_path, self.CASES[case], style)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)), min_size=1,
                     max_size=12),
            min_size=1, max_size=3,
        ),
        st.sampled_from(output._STYLES),
    )
    def test_any_series(self, tmp_path_factory, series, style):
        self.check(tmp_path_factory.mktemp("svg"), series, style)


class TestFormattingProperties:

    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_formatted_values_parse_back_within_the_last_digit(self, value):
        # Compared exactly: parsing the text back to a float would add up to
        # half an ulp on top of the half unit in the twelfth decimal.
        assert abs(Decimal(format_value(value)) - Decimal(value)) <= Decimal("5e-13")
