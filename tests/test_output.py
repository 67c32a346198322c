"""CSV and SVG writers: formatting, byte layout, and determinism."""

import xml.etree.ElementTree as ET
from decimal import Decimal

import numpy as np
import pytest

from histwalk.output import emit_svg_plot, format_value, read_csv_columns, write_csv
from hypothesis import given
from hypothesis import strategies as st


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


class TestFormattingProperties:

    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_formatted_values_parse_back_within_the_last_digit(self, value):
        # Compared exactly: parsing the text back to a float would add up to
        # half an ulp on top of the half unit in the twelfth decimal.
        assert abs(Decimal(format_value(value)) - Decimal(value)) <= Decimal("5e-13")
