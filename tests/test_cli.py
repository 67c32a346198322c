"""End-to-end command line runs: CSV payloads, flag handling, and exit codes."""

import contextlib
import hashlib
import importlib.metadata
import io
import os
import re
import shutil
import string
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import histwalk.cli
import histwalk.operators
import histwalk.state
import histwalk.walker
from histwalk.analysis import analyze_peaks
from histwalk.cli import build_parser, main
from histwalk.operators import HistoryRhoTable
from histwalk.output import format_value, read_csv_columns, write_csv
from histwalk.walker import build_initial_state, final_distribution, run_sequence
from hypothesis import given, settings
from hypothesis import strategies as st

SINGLE_COIN = "M = 1\nT = {steps}\npattern = A\ngames.A.rho.default = 0.5\n"
BIASED_THREE = (
    "M = 3\nT = {steps}\npattern = {pattern}\n"
    "games.A.rho.default = 0.5\n"
    "games.B.rho.default = 0.5\ngames.B.rho.RR = 0.55\n"
)
CAPITAL_PAIR = (
    "T = {steps}\npattern = AABB\nclassical.engine = capital\n"
    "classical.A.kind = biased\nclassical.A.p = 0.495\n"
    "classical.B.kind = mod3\nclassical.B.p1 = 0.095\nclassical.B.p2 = 0.745\n"
)

#: The game kinds each exact capital-game engine plays, and each kind's parameters.
ENGINE_KINDS = {"capital": {"biased", "mod3"}, "history": {"biased", "history"}}
KIND_PARAMS = {"biased": ["p"], "mod3": ["p1", "p2"], "history": ["p1", "p2", "p3", "p4"]}


PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
SRC = PYPROJECT.parent / "src"


def installed_as_distribution() -> bool:
    """Whether a ``histwalk`` distribution (and so its console script) is installed."""
    try:
        importlib.metadata.distribution("histwalk")
    except importlib.metadata.PackageNotFoundError:
        return False
    return True


def config_file(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


def rows_of(path):
    return path.read_text(encoding="utf-8").splitlines()


class TestWalkRun:
    def test_zero_steps_is_byte_exact(self, tmp_path):
        cfg = config_file(tmp_path, SINGLE_COIN.format(steps=0))
        out = tmp_path / "run.csv"
        assert main(["walk", "run", "--config", cfg, "--out", str(out)]) == 0
        assert out.read_bytes() == b"t,mean,std\n0,0.000000000000,0.000000000000\n"

    def test_a_config_led_by_a_utf8_bom_writes_the_same_bytes(self, tmp_path):
        text = b"M = 3\nT = 10\npattern = B\ngames.B.rho.default = 0.5\n"
        written = []
        for name, data in (("plain", text), ("bom", b"\xef\xbb\xbf" + text)):
            cfg, out = tmp_path / f"{name}.cfg", tmp_path / f"{name}.csv"
            cfg.write_bytes(data)
            assert main(["walk", "run", "--config", str(cfg), "--out", str(out)]) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]

    def test_writes_to_stdout_without_out(self, tmp_path, capsys):
        cfg = config_file(tmp_path, SINGLE_COIN.format(steps=0))
        assert main(["walk", "run", "--config", cfg]) == 0
        assert capsys.readouterr().out == "t,mean,std\n0,0.000000000000,0.000000000000\n"

    def test_rows_match_the_library_trajectory(self, tmp_path):
        cfg = config_file(tmp_path, BIASED_THREE.format(steps=10, pattern="AAB"))
        out = tmp_path / "run.csv"
        assert main(["walk", "run", "--config", cfg, "--out", str(out)]) == 0
        games = {
            "A": HistoryRhoTable.uniform(3, 0.5),
            "B": HistoryRhoTable.with_overrides(3, 0.5, {"RR": 0.55}),
        }
        trajectory = run_sequence(
            build_initial_state(3, "antisymmetric", 10), games, "AAB", 10
        )
        expected = ["t,mean,std"] + [
            f"{t},{format_value(m)},{format_value(s)}"
            for t, (m, s) in enumerate(zip(trajectory.means, trajectory.stds))
        ]
        assert rows_of(out) == expected


class TestWalkDist:
    def test_zero_steps_is_byte_exact(self, tmp_path):
        cfg = config_file(tmp_path, SINGLE_COIN.format(steps=0))
        out = tmp_path / "dist.csv"
        assert main(["walk", "dist", "--config", cfg, "--out", str(out)]) == 0
        assert out.read_bytes() == b"x,p\n0,1.000000000000\n"

    def test_hundred_step_support_and_symmetry(self, tmp_path):
        cfg = config_file(tmp_path, SINGLE_COIN.format(steps=100))
        out = tmp_path / "dist.csv"
        assert main(["walk", "dist", "--config", cfg, "--out", str(out)]) == 0
        header, xs, ps = read_csv_columns(out)
        assert header == ["x", "p"]
        assert len(xs) == 101
        assert xs == [float(x) for x in range(-100, 101, 2)]
        assert sum(ps) == pytest.approx(1.0, abs=1e-9)
        by_x = dict(zip(xs, ps))
        assert all(abs(by_x[x] - by_x[-x]) < 1e-11 for x in xs)

    def test_peak_sidecar_matches_the_analysis_pipeline(self, tmp_path):
        cfg = config_file(tmp_path, SINGLE_COIN.format(steps=20))
        out = tmp_path / "dist.csv"
        peaks = tmp_path / "peaks.csv"
        code = main(
            ["walk", "dist", "--config", cfg, "--out", str(out), "--peaks", str(peaks)]
        )
        assert code == 0
        table = HistoryRhoTable.uniform(1, 0.5)
        dist = final_distribution(build_initial_state(1, "antisymmetric", 20), {"A": table}, "A", 20)
        report = analyze_peaks(dist, window=5, prominence=0.1)
        expected = ["position,height"] + [
            f"{x},{format_value(h)}" for x, h in report.peaks
        ]
        assert rows_of(peaks) == expected

    def test_window_and_prominence_flags_override_the_config(self, tmp_path):
        cfg = config_file(
            tmp_path,
            BIASED_THREE.format(steps=100, pattern="AAB") + "window = 3\nprominence = 0.1\n",
        )
        games = {
            "A": HistoryRhoTable.uniform(3, 0.5),
            "B": HistoryRhoTable.with_overrides(3, 0.5, {"RR": 0.55}),
        }
        dist = final_distribution(build_initial_state(3, "antisymmetric", 100), games, "AAB", 100)
        written = {}
        for flags, window, prominence in (
            ([], 3, 0.1),
            (["--window", "5"], 5, 0.1),
            (["--prominence", "0.3"], 3, 0.3),
            (["--window", "5", "--prominence", "0.3"], 5, 0.3),
        ):
            peaks = tmp_path / "peaks.csv"
            code = main(["walk", "dist", "--config", cfg, "--out", str(tmp_path / "d.csv"),
                         "--peaks", str(peaks)] + flags)
            assert code == 0
            report = analyze_peaks(dist, window=window, prominence=prominence)
            assert rows_of(peaks) == ["position,height"] + [
                f"{x},{format_value(h)}" for x, h in report.peaks
            ]
            written[window, prominence] = peaks.read_bytes()
        assert len(set(written.values())) == 4
        assert [row.split(",")[0] for row in rows_of(peaks)[1:]] == ["-22", "20"]


class TestWalkSweep:
    def test_grid_and_moment_columns(self, tmp_path):
        cfg = config_file(tmp_path, BIASED_THREE.format(steps=10, pattern="B"))
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "walk", "sweep", "--config", cfg, "--out", str(out),
                "--param", "RR", "--from", "0.3", "--to", "0.7", "--steps", "3",
            ]
        )
        assert code == 0
        lines = rows_of(out)
        assert lines[0] == "rho,mean,std"
        assert [line.split(",")[0] for line in lines[1:]] == [
            "0.300000000000",
            "0.500000000000",
            "0.700000000000",
        ]

    def test_validation_failures_exit_with_one(self, tmp_path):
        cfg = config_file(tmp_path, BIASED_THREE.format(steps=10, pattern="B"))
        base = ["walk", "sweep", "--config", cfg]
        bad_param = base + ["--param", "RRR", "--from", "0", "--to", "1", "--steps", "2"]
        assert main(bad_param) == 1
        bad_grid = base + ["--param", "RR", "--from", "0", "--to", "1", "--steps", "0"]
        assert main(bad_grid) == 1
        bad_bound = base + ["--param", "RR", "--from", "-0.1", "--to", "1", "--steps", "2"]
        assert main(bad_bound) == 1
        multi = config_file(tmp_path, BIASED_THREE.format(steps=10, pattern="AB"))
        assert main(["walk", "sweep", "--config", multi, "--param", "RR",
                     "--from", "0", "--to", "1", "--steps", "2"]) == 1

    @pytest.mark.parametrize(
        "flags, named, reason",
        [
            (["--param", "RRR", "--from", "0", "--to", "1"], "--param 'RRR'",
             "unknown history key 'RRR'"),
            (["--param", "RR", "--from", "1.5", "--to", "1"], "--from 1.5",
             "rho['RR'] = 1.5 must lie in [0, 1]"),
            (["--param", "RR", "--from", "0", "--to", "nan"], "--to nan",
             "rho['RR'] = nan must lie in [0, 1]"),
        ],
        ids=["unknown key", "from above one", "to not a number"],
    )
    def test_refusals_name_the_flags_and_give_the_table_reason(
        self, tmp_path, capsys, flags, named, reason
    ):
        cfg = config_file(tmp_path, BIASED_THREE.format(steps=10, pattern="B"))
        out = tmp_path / "sweep.csv"
        args = ["walk", "sweep", "--config", cfg, "--out", str(out), *flags, "--steps", "2"]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert named in err and reason in err
        assert not out.exists()


class TestWalkScan:
    def test_enumerates_patterns_with_positivity_flags(self, tmp_path):
        cfg = config_file(tmp_path, BIASED_THREE.format(steps=100, pattern="B"))
        out = tmp_path / "scan.csv"
        code = main(["walk", "scan", "--config", cfg, "--out", str(out), "--max-len", "3"])
        assert code == 0
        lines = rows_of(out)
        assert lines[0] == "pattern,mean,positive"
        body = [line.split(",") for line in lines[1:]]
        assert len(body) == 14  # 2 + 4 + 8 patterns over two letters
        patterns = [row[0] for row in body]
        assert patterns == sorted(patterns)
        table = {row[0]: (row[1], row[2]) for row in body}
        assert table["A"] == ("0.000000000000", "0")
        assert table["B"] == ("-0.714015085318", "0")
        assert table["AAB"] == ("0.227768157273", "1")

    def test_rejects_non_positive_length(self, tmp_path):
        cfg = config_file(tmp_path, BIASED_THREE.format(steps=10, pattern="B"))
        assert main(["walk", "scan", "--config", cfg, "--max-len", "0"]) == 1

    def test_a_pattern_is_positive_only_above_a_mean_of_1e_9(self, tmp_path, monkeypatch):
        means = {"A": 5e-9, "AB": 1e-9, "B": 2e-6}
        monkeypatch.setattr(histwalk.cli, "scan_sequences", lambda *args: means)
        cfg = config_file(tmp_path, BIASED_THREE.format(steps=4, pattern="AB"))
        out = tmp_path / "scan.csv"
        assert main(["walk", "scan", "--config", cfg, "--out", str(out), "--max-len", "2"]) == 0
        assert rows_of(out) == [
            "pattern,mean,positive",
            "A,0.000000005000,1",
            "AB,0.000000001000,0",
            "B,0.000002000000,1",
        ]


class TestClassicalRun:
    def test_capital_engine_reproduces_the_known_final_mean(self, tmp_path):
        cfg = config_file(tmp_path, CAPITAL_PAIR.format(steps=100))
        out = tmp_path / "capital.csv"
        assert main(["classical", "run", "--config", cfg, "--out", str(out)]) == 0
        lines = rows_of(out)
        assert lines[0] == "t,mean"
        assert len(lines) == 102
        assert lines[-1] == "100,1.391719451302"

    def test_history_engine_reproduces_the_known_final_mean(self, tmp_path):
        cfg = config_file(
            tmp_path,
            "T = 100\npattern = AABB\nclassical.engine = history\n"
            "classical.A.kind = biased\nclassical.A.p = 0.495\n"
            "classical.B.kind = history\nclassical.B.p1 = 0.895\n"
            "classical.B.p2 = 0.245\nclassical.B.p3 = 0.245\nclassical.B.p4 = 0.695\n",
        )
        out = tmp_path / "history.csv"
        assert main(["classical", "run", "--config", cfg, "--out", str(out)]) == 0
        assert rows_of(out)[-1] == "100,0.014975000000"

    def test_rho_walk_engine_stays_balanced_from_a_uniform_start(self, tmp_path):
        cfg = config_file(
            tmp_path,
            "M = 2\nT = 10\npattern = B\nclassical.engine = rho-walk\n"
            "games.B.rho.L = 0.3\ngames.B.rho.R = 0.8\n",
        )
        out = tmp_path / "chain.csv"
        assert main(["classical", "run", "--config", cfg, "--out", str(out)]) == 0
        _, ts, means = read_csv_columns(out)
        assert ts == [float(t) for t in range(11)]
        assert max(abs(m) for m in means) < 1e-12

    def test_monte_carlo_adds_a_stderr_column_and_is_seeded(self, tmp_path):
        cfg = config_file(tmp_path, CAPITAL_PAIR.format(steps=50))
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        base = ["classical", "run", "--config", cfg, "--monte-carlo", "200", "--seed", "5"]
        assert main(base + ["--out", str(first)]) == 0
        assert main(base + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        assert rows_of(first)[0] == "t,mean,stderr"
        # Pins the draws themselves, not only their reproducibility.
        digest = hashlib.sha256(first.read_bytes()).hexdigest()
        assert digest == "6ccf232317fcc024a3193cd2cb2f8347b292d1a87a9676e0e2d7a58d75adbad2"

    def test_seed_flag_overrides_the_config_seed(self, tmp_path):
        cfg = config_file(tmp_path, CAPITAL_PAIR.format(steps=50) + "seed = 3\n")
        with_config_seed = tmp_path / "a.csv"
        with_flag_seed = tmp_path / "b.csv"
        base = ["classical", "run", "--config", cfg, "--monte-carlo", "200"]
        assert main(base + ["--out", str(with_config_seed)]) == 0
        assert main(base + ["--seed", "4", "--out", str(with_flag_seed)]) == 0
        assert with_config_seed.read_bytes() != with_flag_seed.read_bytes()

    def test_monte_carlo_without_a_seed_fails_closed(self, tmp_path):
        cfg = config_file(tmp_path, CAPITAL_PAIR.format(steps=10))
        assert main(["classical", "run", "--config", cfg, "--monte-carlo", "10"]) == 1

    def test_engine_is_required(self, tmp_path):
        cfg = config_file(
            tmp_path,
            "T = 10\npattern = A\nclassical.A.kind = biased\nclassical.A.p = 0.5\n",
        )
        assert main(["classical", "run", "--config", cfg]) == 1

    @pytest.mark.parametrize("kind", sorted(KIND_PARAMS))
    @pytest.mark.parametrize("engine", sorted(ENGINE_KINDS))
    def test_engine_and_kind_must_be_compatible(self, tmp_path, capsys, engine, kind):
        params = "".join(f"classical.B.{name} = 0.5\n" for name in KIND_PARAMS[kind])
        cfg = config_file(
            tmp_path,
            f"T = 10\npattern = B\nclassical.engine = {engine}\nclassical.B.kind = {kind}\n"
            + params,
        )
        code = main(["classical", "run", "--config", cfg, "--out", str(tmp_path / "run.csv")])
        err = capsys.readouterr().err
        if kind in ENGINE_KINDS[engine]:
            assert (code, err) == (0, "")
        else:
            message = f"error: classical.B has a kind unusable with the {engine!r} engine\n"
            assert (code, err) == (1, message)
            assert not (tmp_path / "run.csv").exists()

    def test_rho_walk_needs_one_game_letter(self, tmp_path):
        cfg = config_file(
            tmp_path,
            "M = 2\nT = 10\npattern = BB\nclassical.engine = rho-walk\n"
            "games.B.rho.L = 0.3\ngames.B.rho.R = 0.8\n",
        )
        assert main(["classical", "run", "--config", cfg]) == 1


class TestPlotting:
    @pytest.mark.parametrize(
        "command, text",
        [
            (["walk", "run"], BIASED_THREE.format(steps=20, pattern="AAB")),
            (["walk", "dist"], BIASED_THREE.format(steps=20, pattern="AAB")),
            (["walk", "sweep", "--param", "RR", "--from", "0", "--to", "1", "--steps", "3"],
             BIASED_THREE.format(steps=20, pattern="B")),
            (["classical", "run"], CAPITAL_PAIR.format(steps=20)),
        ],
        ids=["walk run", "walk dist", "walk sweep", "classical run"],
    )
    def test_emit_plot_requires_an_out_path(self, tmp_path, capsys, command, text):
        # Refused before anything runs: no CSV on stdout and no SVG.
        cfg = config_file(tmp_path, text)
        svg = tmp_path / "x.svg"
        assert main(command + ["--config", cfg, "--emit-plot", str(svg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--emit-plot needs --out" in captured.err
        assert not svg.exists()

    def test_emit_plot_renders_deterministic_svg(self, tmp_path):
        cfg = config_file(tmp_path, SINGLE_COIN.format(steps=5))
        out = tmp_path / "run.csv"
        svg_a = tmp_path / "a.svg"
        svg_b = tmp_path / "b.svg"
        base = ["walk", "run", "--config", cfg, "--out", str(out)]
        assert main(base + ["--emit-plot", str(svg_a)]) == 0
        assert main(base + ["--emit-plot", str(svg_b)]) == 0
        assert svg_a.read_bytes() == svg_b.read_bytes()
        assert svg_a.read_text().startswith("<svg")

    def test_emit_plot_escapes_an_out_stem_with_markup(self, tmp_path):
        cfg = config_file(tmp_path, SINGLE_COIN.format(steps=5))
        svg = tmp_path / "run.svg"
        out = tmp_path / "r&d<1>.csv"
        assert main(["walk", "run", "--config", cfg, "--out", str(out), "--emit-plot", str(svg)]) == 0
        texts = [node.text for node in ET.parse(svg).iter("{http://www.w3.org/2000/svg}text")]
        assert "r&d<1>" in texts

    def test_control_characters_in_a_header_or_an_out_stem_still_parse(self, tmp_path):
        source = tmp_path / "ctl.csv"
        source.write_text("t\x01x,mean\n0,1\n1,2\n", encoding="utf-8")
        plotted = tmp_path / "plot.svg"
        assert main(["plot", str(source), "--out", str(plotted)]) == 0
        cfg = config_file(tmp_path, SINGLE_COIN.format(steps=5))
        emitted = tmp_path / "run.svg"
        out = tmp_path / "r\x01n.csv"
        assert main(["walk", "run", "--config", cfg, "--out", str(out), "--emit-plot", str(emitted)]) == 0
        for svg, label in ((plotted, "t\ufffdx"), (emitted, "r\ufffdn")):
            texts = [node.text for node in ET.parse(svg).iter("{http://www.w3.org/2000/svg}text")]
            assert label in texts

    def test_plot_command_overlays_files(self, tmp_path):
        first = tmp_path / "one.csv"
        second = tmp_path / "two.csv"
        write_csv(("t", "mean"), [(0, 0.0), (1, 1.0)], first)
        write_csv(("t", "mean"), [(0, 0.5), (1, -0.5)], second)
        out = tmp_path / "overlay.svg"
        code = main(["plot", str(first), str(second), "--out", str(out), "--style", "scatter"])
        assert code == 0
        text = out.read_text()
        assert ">one<" in text and ">two<" in text
        assert "circle" in text

    def test_plot_of_a_non_finite_value_fails_and_writes_nothing(self, tmp_path, capsys):
        source = tmp_path / "nan.csv"
        source.write_text("t,mean\n0,0.0\n1,nan\n", encoding="utf-8")
        out = tmp_path / "nan.svg"
        assert main(["plot", str(source), "--out", str(out)]) == 2
        assert "non-finite value" in capsys.readouterr().err
        assert not out.exists()


class TestOutputPaths:
    """No output of a command may overwrite another, or an input of ``plot``.

    Each refusal exits 1 before anything runs or is written.
    """

    @pytest.mark.parametrize(
        "command, flags, named",
        [
            ("run", ["--out", "r.csv", "--emit-plot", "r.csv"], "out and --emit-plot"),
            ("dist", ["--out", "d.csv", "--peaks", "d.csv"], "out and --peaks"),
            ("dist", ["--out", "d.csv", "--peaks", "p.csv", "--emit-plot", "p.csv"],
             "--emit-plot and --peaks"),
            ("run", ["--emit-plot", "./sub/../r.csv"], "out and --emit-plot"),
            ("dist", ["--out", "d.csv", "--peaks", "run.cfg"], "--config and --peaks"),
        ],
        ids=["run csv and plot", "dist csv and peaks", "dist peaks and plot", "config out",
             "peaks over the config"],
    )
    def test_two_outputs_that_name_one_file_are_refused(
        self, tmp_path, monkeypatch, capsys, command, flags, named
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        text = SINGLE_COIN.format(steps=4) + ("out = r.csv\n" if "--out" not in flags else "")
        cfg = config_file(tmp_path, text)
        assert main(["walk", command, "--config", cfg, *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {named} both name the file" in captured.err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["run.cfg", "sub"]

    @pytest.mark.parametrize(
        "failing, written",
        [("p.csv", ["dist.csv"]), ("d.svg", ["dist.csv", "p.csv"])],
        ids=["peaks fail", "chart fails"],
    )
    def test_outputs_are_written_csv_then_peaks_then_chart(
        self, tmp_path, monkeypatch, capsys, failing, written
    ):
        # A failed write stops the run and leaves the outputs written before it.
        monkeypatch.chdir(tmp_path)
        cfg = config_file(tmp_path, SINGLE_COIN.format(steps=4))
        assert main(["walk", "dist", "--config", cfg, "--out", "want.csv"]) == 0
        write_text = Path.write_text

        def full_disk(path, *args, **kwargs):
            if path.name == failing:
                raise OSError(28, "No space left on device")
            return write_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", full_disk)
        argv = ["--out", "dist.csv", "--peaks", "p.csv", "--emit-plot", "d.svg"]
        assert main(["walk", "dist", "--config", cfg, *argv]) == 2
        assert capsys.readouterr().err == "runtime error: [Errno 28] No space left on device\n"
        names = sorted(path.name for path in tmp_path.iterdir())
        assert names == sorted(["run.cfg", "want.csv", *written])
        assert Path("dist.csv").read_bytes() == Path("want.csv").read_bytes()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["walk", "dist", "--out", "folder"], "out: folder is a directory"),
            (["walk", "dist", "--out", "missing/d.csv"],
             "out: the folder of missing/d.csv does not exist"),
            (["walk", "dist", "--out", "d.csv", "--peaks", "folder"],
             "--peaks: folder is a directory"),
            (["walk", "dist", "--out", "d.csv", "--peaks", "missing/p.csv"],
             "--peaks: the folder of missing/p.csv does not exist"),
            (["walk", "run", "--out", "r.csv", "--emit-plot", "folder"],
             "--emit-plot: folder is a directory"),
            (["walk", "run", "--out", "r.csv", "--emit-plot", "missing/r.svg"],
             "--emit-plot: the folder of missing/r.svg does not exist"),
            (["walk", "run"], "out: folder is a directory"),
            (["plot", "want.csv", "--out", "folder"], "--out: folder is a directory"),
            (["plot", "want.csv", "--out", "missing/p.svg"],
             "--out: the folder of missing/p.svg does not exist"),
        ],
        ids=["out folder", "out missing", "peaks folder", "peaks missing", "emit-plot folder",
             "emit-plot missing", "out key folder", "plot out folder", "plot out missing"],
    )
    def test_an_output_that_cannot_be_written_is_refused_before_the_run(
        self, tmp_path, monkeypatch, capsys, argv, message
    ):
        # Such a path failed only when written, after the run and the outputs before it.
        monkeypatch.chdir(tmp_path)
        cfg = config_file(tmp_path, SINGLE_COIN.format(steps=4) + "out = folder\n")
        write_csv(("t", "mean"), [(0, 0.0), (1, 1.0)], "want.csv")
        (tmp_path / "folder").mkdir()

        def never_called(*args, **kwargs):
            raise AssertionError("the output check should have refused the run first")

        for name in ("final_distribution", "run_sequence", "emit_svg_plot"):
            monkeypatch.setattr(histwalk.cli, name, never_called)
        command = argv if argv[0] == "plot" else [*argv[:2], "--config", cfg, *argv[2:]]
        assert main(command) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["folder", "run.cfg", "want.csv"]
        assert not any((tmp_path / "folder").iterdir())

    def test_a_plot_is_not_written_over_one_of_its_inputs(self, tmp_path, capsys):
        source = tmp_path / "r.csv"
        write_csv(("t", "mean"), [(0, 0.0), (1, 1.0)], source)
        before = source.read_bytes()
        assert main(["plot", str(source), "--out", str(source)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: an input and --out both name the file {source}\n"
        assert source.read_bytes() == before

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["walk", "dist", "--out", "d.csv", "--peaks", ""], "--peaks"),
            (["walk", "dist", "--out", "d.csv", "--emit-plot", ""], "--emit-plot"),
            (["walk", "dist", "--out", "d.csv", "--peaks", "", "--emit-plot", ""], "--emit-plot"),
            (["walk", "run", "--emit-plot", ""], "--emit-plot"),
        ],
        ids=["dist peaks", "dist plot", "dist both", "run plot without out"],
    )
    def test_an_empty_output_flag_is_refused(self, tmp_path, monkeypatch, capsys, argv, flag):
        # An empty path was taken for no flag: the run exited 0 and left only d.csv.
        monkeypatch.chdir(tmp_path)
        cfg = config_file(tmp_path, SINGLE_COIN.format(steps=4))
        assert main([*argv[:2], "--config", cfg, *argv[2:]]) == 1
        assert capsys.readouterr() == ("", f"error: {flag}: empty value\n")
        assert [path.name for path in tmp_path.iterdir()] == ["run.cfg"]

    def test_a_plot_to_an_empty_out_is_refused(self, tmp_path, monkeypatch, capsys):
        # It was a runtime error, exit 2: "[Errno 21] Is a directory: '.'".
        monkeypatch.chdir(tmp_path)
        write_csv(("t", "mean"), [(0, 0.0), (1, 1.0)], tmp_path / "r.csv")
        assert main(["plot", "r.csv", "--out", ""]) == 1
        assert capsys.readouterr() == ("", "error: --out: empty value\n")
        assert [path.name for path in tmp_path.iterdir()] == ["r.csv"]


class TestExitCodes:
    def test_usage_errors_return_one(self, tmp_path):
        assert main(["walk", "run"]) == 1  # missing --config
        assert main(["walk"]) == 1  # missing subcommand
        assert main(["--config", "x"]) == 1  # missing command

    @pytest.mark.parametrize(
        "command, flag",
        [
            (["walk", "run"], ["--window", "3"]),
            (["walk", "run"], ["--prominence", "0.2"]),
            (["walk", "run"], ["--seed", "1"]),
            (["walk", "dist"], ["--seed", "1"]),
            (["walk", "scan", "--max-len", "1"], ["--seed", "1"]),
            (["walk", "scan", "--max-len", "1"], ["--window", "3"]),
            (["walk", "scan", "--max-len", "1"], ["--emit-plot", "x.svg"]),
            (["walk", "sweep", "--param", "RR", "--from", "0", "--to", "1", "--steps", "2"],
             ["--prominence", "0.2"]),
            (["walk", "sweep", "--param", "RR", "--from", "0", "--to", "1", "--steps", "2"],
             ["--seed", "1"]),
            (["classical", "run"], ["--window", "3"]),
        ],
    )
    def test_each_command_accepts_only_the_flags_it_reads(
        self, tmp_path, capsys, command, flag
    ):
        cfg = config_file(tmp_path, BIASED_THREE.format(steps=2, pattern="B"))
        assert main(command + ["--config", cfg] + flag) == 1
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err

    def test_unreadable_config_returns_one(self, tmp_path, capsys):
        path = tmp_path / "absent.cfg"
        assert main(["walk", "run", "--config", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: cannot read config {path}: No such file or directory\n"
        )

    @pytest.mark.parametrize(
        "data, offset",
        [
            (b"M = 3\nT = 10\npattern = A\ngames.A.rho.default = 0.5\n# caf\xe9\n", 56),
            (b"M = 3\nT = 10\npattern = A\ngames.A.rho.default = 0.5\xe9\n", 50),
            (b"\xef\xbb\xbfM = 3\nT = 10\npattern = A\ngames.A.rho.default = 0.5\n# caf\xe9\n", 59),
        ],
        ids=["in a comment", "in a value", "after a utf8 bom"],
    )
    def test_a_config_that_is_not_utf8_is_refused_in_one_line(
        self, tmp_path, monkeypatch, capsys, data, offset
    ):
        # It was a runtime error, exit 2: "'utf-8' codec can't decode byte 0xe9 ...".
        # The offset counts the file's bytes, a leading BOM included.
        monkeypatch.chdir(tmp_path)
        Path("latin1.cfg").write_bytes(data)
        assert main(["walk", "run", "--config", "latin1.cfg", "--out", "run.csv"]) == 1
        assert capsys.readouterr() == (
            "", f"error: cannot read config latin1.cfg: not UTF-8 (byte 0xe9 at offset {offset})\n"
        )
        assert [path.name for path in tmp_path.iterdir()] == ["latin1.cfg"]

    def test_invalid_config_value_returns_one(self, tmp_path):
        cfg = config_file(
            tmp_path,
            BIASED_THREE.format(steps=10, pattern="B").replace(
                "games.B.rho.RR = 0.55", "games.B.rho.RR = 1.5"
            ),
        )
        assert main(["walk", "run", "--config", cfg]) == 1

    def test_walk_commands_require_game_tables(self, tmp_path):
        cfg = config_file(
            tmp_path,
            "T = 5\npattern = A\nclassical.A.kind = biased\nclassical.A.p = 0.5\n",
        )
        assert main(["walk", "run", "--config", cfg]) == 1

    CLASSICAL_A = "T = 5\npattern = A\nclassical.A.kind = biased\nclassical.A.p = 0.5\n"
    SWEEP = ["walk", "sweep", "--param", "RR", "--from", "0", "--to", "1", "--steps", "2"]

    @pytest.mark.parametrize(
        "command, text, message",
        [
            (["walk", "run"], "M = 2\n" + CLASSICAL_A,
             "pattern uses undefined games ['A'] in games.*"),
            (["classical", "run"], SINGLE_COIN.format(steps=5) + "classical.engine = capital\n",
             "pattern uses undefined games ['A'] in classical.*"),
            (["classical", "run"], CLASSICAL_A + "classical.engine = rho-walk\n",
             "M is required for the rho-walk engine"),
            (["classical", "run", "--monte-carlo", "0", "--seed", "1"],
             CAPITAL_PAIR.format(steps=5), "--monte-carlo must be >= 1, got 0"),
            (SWEEP, CLASSICAL_A, "M is required for walk commands"),
            (SWEEP, BIASED_THREE.format(steps=5, pattern="AB"),
             "walk sweep needs a single-letter pattern naming a games.* table"),
            (["classical", "run"],
             BIASED_THREE.format(steps=5, pattern="AB") + "classical.engine = rho-walk\n",
             "rho-walk needs a single-letter pattern naming a games.* table"),
            (["classical", "run"], "M = 2\n" + CLASSICAL_A + "classical.engine = rho-walk\n",
             "pattern uses undefined games ['A'] in games.*"),
        ],
        ids=["walk letter only classical", "classical letter only a walk game",
             "rho-walk without M", "no trajectories", "sweep without M", "sweep of two letters",
             "rho-walk of two letters", "rho-walk letter only classical"],
    )
    def test_runs_without_what_they_need_exit_one(self, tmp_path, capsys, command, text, message):
        cfg = config_file(tmp_path, text)
        assert main([*command, "--config", cfg]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_plot_of_a_one_cell_row_exits_two_and_writes_nothing(self, tmp_path, capsys):
        source = tmp_path / "short.csv"
        source.write_text("t,mean\n0\n", encoding="utf-8")
        out = tmp_path / "short.svg"
        assert main(["plot", str(source), "--out", str(out)]) == 2
        assert "line 2: need at least two columns" in capsys.readouterr().err
        assert not out.exists()

    def test_walk_too_large_for_memory_exits_one_before_allocating(
        self, tmp_path, capsys, monkeypatch
    ):
        # M = 20 with T = 1000 is charged about 188 GiB; the machine size is
        # pinned so the outcome does not depend on the host.
        monkeypatch.setattr(histwalk.state, "physical_memory_bytes", lambda: 16 * 2**30)
        cfg = config_file(tmp_path, "M = 20\nT = 1000\npattern = A\ngames.A.rho.default = 0.5\n")
        out = tmp_path / "run.csv"
        start = time.perf_counter()
        assert main(["walk", "run", "--config", cfg, "--out", str(out)]) == 1
        assert time.perf_counter() - start < 2.0
        assert "physical memory" in capsys.readouterr().err
        assert not out.exists()

    RHO_WALK_M16 = "M = 16\nT = 50\npattern = A\ngames.A.rho.default = 0.5\n"

    def test_rho_walk_chain_is_not_refused_for_the_walk_grid(self, tmp_path, monkeypatch):
        # The walk grid at M = 16, T = 50 needs more than 64 MiB; the rho-walk
        # engine's chain of 2**16 states does not.
        monkeypatch.setattr(histwalk.state, "physical_memory_bytes", lambda: 64 * 2**20)
        cfg = config_file(tmp_path, self.RHO_WALK_M16 + "classical.engine = rho-walk\n")
        out = tmp_path / "chain.csv"
        assert main(["classical", "run", "--config", cfg, "--out", str(out)]) == 0
        assert len(rows_of(out)) == 52

    @pytest.mark.parametrize("command", ["run", "dist", "scan", "sweep"])
    def test_walk_grid_too_large_for_memory_exits_one(
        self, tmp_path, capsys, monkeypatch, command
    ):
        monkeypatch.setattr(histwalk.state, "physical_memory_bytes", lambda: 64 * 2**20)
        monkeypatch.setattr(histwalk.walker, "_Kernel", self._never_called)
        cfg = config_file(tmp_path, self.RHO_WALK_M16)
        out = tmp_path / "walk.csv"
        extra = {
            "scan": ["--max-len", "2"],
            "sweep": ["--param", "R" * 15, "--from", "0", "--to", "1", "--steps", "3"],
        }.get(command, [])
        assert main(["walk", command, "--config", cfg, *extra, "--out", str(out)]) == 1
        assert "physical memory" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["scan", "sweep"])
    def test_walk_failure_that_is_not_a_memory_refusal_exits_two(
        self, tmp_path, capsys, monkeypatch, command
    ):
        def lose_the_norm(*args):
            raise histwalk.NormalizationError("state norm is 0.5, expected 1 within 1e-9")

        monkeypatch.setattr(histwalk.walker, "_final_moments", lose_the_norm)
        cfg = config_file(tmp_path, BIASED_THREE.format(steps=10, pattern="B"))
        extra = {
            "scan": ["--max-len", "2"],
            "sweep": ["--param", "RR", "--from", "0", "--to", "1", "--steps", "3"],
        }[command]
        assert main(["walk", command, "--config", cfg, *extra]) == 2
        assert "runtime error: state norm is 0.5" in capsys.readouterr().err

    def test_walk_dist_that_loses_its_norm_exits_two_and_names_the_step(
        self, tmp_path, capsys, monkeypatch
    ):
        step = histwalk.operators._Kernel.step

        def leaky_step(kernel):
            step(kernel)
            if kernel.steps == 3:
                kernel.psi *= 1.001

        monkeypatch.setattr(histwalk.operators._Kernel, "step", leaky_step)
        cfg = config_file(tmp_path, BIASED_THREE.format(steps=10, pattern="AAB"))
        out = tmp_path / "dist.csv"
        assert main(["walk", "dist", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "runtime error: state norm is 1.001" in err
        assert "expected 1 within 1e-9 at step 3\n" in err
        assert not out.exists()

    def test_scan_too_large_for_memory_exits_one_before_enumerating(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(histwalk.state, "physical_memory_bytes", lambda: 16 * 2**30)
        monkeypatch.setattr(histwalk.walker, "product", self._never_called)
        cfg = config_file(tmp_path, BIASED_THREE.format(steps=10, pattern="AB"))
        out = tmp_path / "scan.csv"
        assert main(["walk", "scan", "--config", cfg, "--max-len", "40", "--out", str(out)]) == 1
        assert "2199023255550 patterns" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_too_large_for_memory_exits_one_before_building_the_grid(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(histwalk.state, "physical_memory_bytes", lambda: 16 * 2**30)
        monkeypatch.setattr(np, "linspace", self._never_called)
        cfg = config_file(tmp_path, BIASED_THREE.format(steps=10, pattern="B"))
        out = tmp_path / "sweep.csv"
        args = ["--param", "RR", "--from", "0", "--to", "1", "--steps", str(10**9)]
        assert main(["walk", "sweep", "--config", cfg, *args, "--out", str(out)]) == 1
        assert "physical memory" in capsys.readouterr().err
        assert not out.exists()

    def test_classical_sample_too_large_for_memory_exits_one_before_drawing(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(histwalk.state, "physical_memory_bytes", lambda: 16 * 2**30)
        monkeypatch.setattr(np.random, "default_rng", self._never_called)
        cfg = config_file(tmp_path, CAPITAL_PAIR.format(steps=100))
        out = tmp_path / "sampled.csv"
        args = ["--monte-carlo", str(10**12), "--seed", "1", "--out", str(out)]
        assert main(["classical", "run", "--config", cfg, *args]) == 1
        assert "1000000000000 trajectories" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("engine", ["capital", "history"])
    def test_classical_exact_run_too_large_for_memory_exits_one_before_allocating(
        self, tmp_path, capsys, monkeypatch, engine
    ):
        monkeypatch.setattr(histwalk.state, "physical_memory_bytes", lambda: 16 * 2**30)
        monkeypatch.setattr(np, "zeros", self._never_called)
        text = CAPITAL_PAIR.format(steps=10**12).replace("capital", engine)
        cfg = config_file(tmp_path, text.replace("pattern = AABB", "pattern = A"))
        out = tmp_path / "exact.csv"
        assert main(["classical", "run", "--config", cfg, "--out", str(out)]) == 1
        assert "physical memory" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def _never_called(*args, **kwargs):
        raise AssertionError("the size guard should have refused the run first")

    def test_write_failures_return_two(self, tmp_path, monkeypatch):
        cfg = config_file(tmp_path, SINGLE_COIN.format(steps=0))

        def full_disk(path, *args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(Path, "write_text", full_disk)
        assert main(["walk", "run", "--config", cfg, "--out", str(tmp_path / "r.csv")]) == 2

    @pytest.mark.skipif(
        not installed_as_distribution(),
        reason="no histwalk distribution is installed (run `pip install -e .`), "
        "so there is no console script to find",
    )
    def test_console_script_is_installed(self):
        binary = shutil.which("histwalk")
        assert binary is not None
        result = subprocess.run(
            [binary, "--help"], capture_output=True, text=True, check=False
        )
        assert result.returncode == 0
        assert "usage:" in result.stdout

    def test_declared_console_script_target_runs(self):
        """The ``[project.scripts]`` entry names a callable that runs the CLI."""
        tomllib = pytest.importorskip("tomllib")
        with open(PYPROJECT, "rb") as handle:
            scripts = tomllib.load(handle)["project"]["scripts"]
        assert scripts == {"histwalk": "histwalk.cli:main"}
        module, function = scripts["histwalk"].split(":")
        launcher = (
            f"import sys; from {module} import {function}; "
            f"sys.argv[0] = 'histwalk'; sys.exit({function}())"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", launcher, "--help"],
            capture_output=True, text=True, check=False, env=env,
        )
        assert result.returncode == 0
        assert "usage:" in result.stdout


class TestSharedParser:
    """``main`` builds its parser once per process; every call reads as in a fresh process."""

    DIST = ["walk", "dist", "--config", "dist.cfg", "--out", "dist.csv", "--peaks", "peaks.csv",
            "--emit-plot", "dist.svg"]
    CALLS = [
        ["walk", "spin"],
        ["--help"],
        DIST,
        ["classical", "run", "--config", "capital.cfg", "--out", "capital.csv",
         "--monte-carlo", "200", "--seed", "5"],
        ["plot", "dist.csv", "capital.csv", "--out", "both.svg"],
        DIST,
    ]

    @staticmethod
    def folder(path):
        path.mkdir()
        (path / "dist.cfg").write_text(BIASED_THREE.format(steps=40, pattern="AB"))
        (path / "capital.cfg").write_text(CAPITAL_PAIR.format(steps=30))
        return path

    @staticmethod
    def files(path):
        return {entry.name: entry.read_bytes() for entry in sorted(path.iterdir())}

    def test_calls_in_one_process_match_fresh_processes(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "100")  # help text wraps to the terminal's width
        fresh, shared = self.folder(tmp_path / "fresh"), self.folder(tmp_path / "shared")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        expected = []
        for argv in self.CALLS:
            result = subprocess.run(
                [sys.executable, "-m", "histwalk", *argv],
                cwd=fresh, env=env, capture_output=True, text=True, check=False,
            )
            expected.append((result.returncode, result.stdout, result.stderr, self.files(fresh)))

        monkeypatch.chdir(shared)
        histwalk.cli._main_parser.cache_clear()
        got = []
        for argv in self.CALLS:
            code = main(argv)
            out, err = capsys.readouterr()
            got.append((code, out, err, self.files(shared)))

        assert [call[0] for call in got] == [1, 0, 0, 0, 0, 0]
        assert got == expected

    def test_build_parser_returns_a_new_parser_each_call(self):
        first, second = build_parser(), build_parser()
        assert first is not second
        assert histwalk.cli._main_parser() is histwalk.cli._main_parser()
        assert histwalk.cli._main_parser() not in (first, second)


WALK_AB = (
    "M = {m}\nT = {steps}\npattern = {pattern}\n"
    "games.A.rho.default = 0.5\ngames.B.rho.default = 0.45\n"
)
HUGE = str(10**400)
LETTERS = string.ascii_uppercase + string.ascii_lowercase
ALL = str(sorted(LETTERS))
# A and B have games; the other 50 letters are listed cut to 60 characters.
UNDEFINED = (
    f"pattern uses undefined games {str(sorted(LETTERS[2:]))[:60]}... (250 characters) "
    "in games.* or classical.* (line 3)"
)


def assert_one_short_refusal(err):
    """One stderr line under 300 characters, with no count of over 20 digits.

    2**64 has 20 digits; a count past it is named ``over 2**64``.
    """
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 300, err
    assert re.search(r"\d{21}", err) is None, err


def run_in(folder, text, argv):
    """Exit code and stderr of ``main(argv)`` run on config ``text``, writing ``out.csv``."""
    cfg = Path(folder, "run.cfg")
    cfg.write_text(text, encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([*argv, "--config", str(cfg), "--out", str(Path(folder, "out.csv"))])
    return code, err.getvalue()


class TestOversizedCounts:
    """Counts too large to size in memory are refused with exit 1, before anything is written."""

    @pytest.mark.parametrize(
        "text, argv",
        [
            (WALK_AB.format(m=100000, steps=5, pattern="AB"), ["walk", "run"]),
            (WALK_AB.format(m=100000, steps=5, pattern="AB"), ["walk", "dist"]),
            (WALK_AB.format(m=100000, steps=5, pattern="AB"), ["walk", "scan", "--max-len", "2"]),
            (WALK_AB.format(m=10**22, steps=5, pattern="AB"), ["walk", "run"]),
            (WALK_AB.format(m=10**22, steps=5, pattern="AB"), ["walk", "dist"]),
            (WALK_AB.format(m=3, steps=HUGE, pattern="AB"), ["walk", "run"]),
            (WALK_AB.format(m=3, steps=HUGE, pattern="AB"), ["walk", "dist"]),
            (WALK_AB.format(m=3, steps=HUGE, pattern="AB"), ["walk", "scan", "--max-len", "2"]),
            (CAPITAL_PAIR.format(steps=HUGE), ["classical", "run"]),
            (CAPITAL_PAIR.format(steps=HUGE) + "seed = 1\n",
             ["classical", "run", "--monte-carlo", "5"]),
            (WALK_AB.format(m=2, steps=5, pattern="AB"), ["walk", "scan", "--max-len", HUGE]),
            (WALK_AB.format(m=1, steps=5, pattern="A"), ["walk", "scan", "--max-len", HUGE]),
            (CAPITAL_PAIR.format(steps=5) + "seed = 1\n",
             ["classical", "run", "--monte-carlo", str(10**30)]),
            (f"M = {10**22}\nT = 5\npattern = B\nclassical.engine = rho-walk\n"
             "games.B.rho.default = 0.5\n", ["classical", "run"]),
            (WALK_AB.format(m=3, steps=5, pattern="B"),
             ["walk", "sweep", "--param", "RR", "--from", "0", "--to", "1",
              "--steps", str(10**30)]),
        ],
        ids=["M=1e5 run", "M=1e5 dist", "M=1e5 scan", "M=1e22 run", "M=1e22 dist",
             "T=1e400 run", "T=1e400 dist", "T=1e400 scan", "T=1e400 classical",
             "T=1e400 monte carlo", "max-len 1e400", "one letter, max-len 1e400",
             "monte carlo 1e30", "rho-walk M=1e22", "sweep 1e30"],
    )
    def test_exit_one_with_the_size_and_no_file(self, tmp_path, monkeypatch, text, argv):
        monkeypatch.setattr(histwalk.state, "physical_memory_bytes", lambda: 16 * 2**30)
        code, err = run_in(tmp_path, text, argv)
        assert code == 1
        assert " needs over 2**64 bytes " in err
        assert_one_short_refusal(err)
        assert not (tmp_path / "out.csv").exists()

    @st.composite
    def count_runs(draw):
        """A command, its config and flags, each count small enough to run or past any memory."""

        def count(low, high):
            return draw(st.one_of(st.integers(low, high), st.integers(10**18, 10**400)))

        command = draw(st.sampled_from(["run", "dist", "scan", "sweep", "classical", "sampled"]))
        steps = count(0, 30)
        if command in ("classical", "sampled"):
            text = CAPITAL_PAIR.format(steps=steps) + "seed = 1\n"
            flags = ["--monte-carlo", str(count(1, 30))] if command == "sampled" else []
            return text, ["classical", "run", *flags]
        m = count(1, 4)
        text = WALK_AB.format(m=m, steps=steps, pattern="B" if command == "sweep" else "AB")
        flags = {
            "scan": ["--max-len", str(count(1, 4))],
            "sweep": ["--param", "R" * (m - 1) if m <= 4 else "RR", "--from", "0", "--to", "1",
                      "--steps", str(count(1, 5))],
        }.get(command, [])
        return text, ["walk", command, *flags]

    # Under 1 s on a 2-core x86-64 host: a small run takes milliseconds,
    # and a refusal allocates nothing.
    @settings(max_examples=100, deadline=None)
    @given(count_runs())
    def test_every_run_exits_zero_or_one_and_a_refusal_writes_nothing(self, run):
        text, argv = run
        with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as folder:
            patch.setattr(histwalk.state, "physical_memory_bytes", lambda: 16 * 2**30)
            code, err = run_in(folder, text, argv)
            assert code in (0, 1), err
            assert "runtime error" not in err
            assert Path(folder, "out.csv").exists() == (code == 0)
            if code:
                assert_one_short_refusal(err)


class TestRefusedValues:
    """A refused value names its key and line, or its flag, in one line under 300 characters."""

    @pytest.mark.parametrize(
        "text, argv, message",
        [
            (WALK_AB.format(m=3, steps=-(10**400), pattern="AB"), ["walk", "run"],
             "T must be >= 0, got under -2**64 (line 2)"),
            (WALK_AB.format(m=3, steps="1" * 5000, pattern="AB"), ["walk", "run"],
             "T is too long an integer: 5000 characters (line 2)"),
            (WALK_AB.format(m="-" + "1" * 5000, steps=5, pattern="AB"), ["walk", "dist"],
             "M is too long an integer: 5001 characters (line 1)"),
            (CAPITAL_PAIR.format(steps=5) + f"seed = {-(10**400)}\n", ["classical", "run"],
             "seed must be >= 0, got under -2**64 (line 9)"),
            (WALK_AB.format(m=2, steps=5, pattern="AB"), ["walk", "scan", "--max-len", "0"],
             "--max-len must be >= 1, got 0"),
            (WALK_AB.format(m=2, steps=5, pattern="AB"), ["walk", "scan", "--max-len", "-" + HUGE],
             "--max-len must be >= 1, got under -2**64"),
            (WALK_AB.format(m=3, steps=5, pattern="B"),
             ["walk", "sweep", "--param", "RR", "--from", "0", "--to", "1", "--steps", "0"],
             "--steps must be >= 1, got 0"),
            (CAPITAL_PAIR.format(steps=5) + "seed = 1\n",
             ["classical", "run", "--monte-carlo", "-" + HUGE],
             "--monte-carlo must be >= 1, got under -2**64"),
            (WALK_AB.format(m=3, steps=5, pattern="AB"), ["walk", "dist", "--window", "4.0"],
             "window = '4.0' is not an integer"),
            (WALK_AB.format(m=3, steps=5, pattern="AB"), ["walk", "dist", "--prominence", "x"],
             "prominence = 'x' is not a number"),
            (CAPITAL_PAIR.format(steps=5), ["classical", "run", "--seed", "x"],
             "seed = 'x' is not an integer"),
            (WALK_AB.format(m=3, steps=5, pattern="AB") + "window = 3\n",
             ["walk", "dist", "--window", "4"], "window must be an odd positive integer, got 4"),
            (WALK_AB.format(m=3, steps=5, pattern=LETTERS), ["walk", "run"], UNDEFINED),
            (WALK_AB.format(m=3, steps=5, pattern=LETTERS), ["walk", "dist"], UNDEFINED),
            (WALK_AB.format(m=3, steps=5, pattern=LETTERS), ["walk", "scan", "--max-len", "1"],
             UNDEFINED),
            (WALK_AB.format(m=3, steps=5, pattern=LETTERS),
             ["walk", "sweep", "--param", "RR", "--from", "0", "--to", "1", "--steps", "2"],
             UNDEFINED),
            (CAPITAL_PAIR.format(steps=5).replace("AABB", LETTERS), ["classical", "run"],
             UNDEFINED.replace("(line 3)", "(line 2)")),
            ("M = 1\nT = 5\n" + f"pattern = {LETTERS}\nclassical.engine = capital\n"
             + "".join(f"games.{x}.rho.default = 0.5\n" for x in LETTERS),
             ["classical", "run"], f"pattern uses undefined games {ALL[:60]}... "
             "(260 characters) in classical.*"),
        ],
        ids=["T=-10**400", "T of 5,000 digits", "M of 5,000 digits", "seed=-10**400",
             "max-len 0", "max-len -10**400", "sweep steps 0", "monte carlo -10**400",
             "window 4.0", "prominence x", "seed x", "window flag over the key's line",
             "52 letters run", "52 letters dist", "52 letters scan", "52 letters sweep",
             "52 letters classical", "52 walk letters classical"],
    )
    def test_exit_one_with_the_rule_and_its_place(self, tmp_path, text, argv, message):
        code, err = run_in(tmp_path, text, argv)
        assert code == 1
        assert err == f"error: {message}\n"
        assert_one_short_refusal(err)
        assert not (tmp_path / "out.csv").exists()

    def test_a_config_path_of_5000_characters_is_refused_in_one_short_line(self, tmp_path, capsys):
        assert main(["walk", "run", "--config", str(tmp_path / ("x" * 5000))]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read config ")
        assert err.count("\n") == 1 and len(err) < 300, err

    @pytest.mark.parametrize("where", ["--out", "out", "--peaks", "--emit-plot"])
    def test_an_output_path_of_5000_characters_fails_in_one_short_line(
        self, tmp_path, capsys, where
    ):
        long = str(tmp_path / ("x" * 5000))
        text = WALK_AB.format(m=3, steps=5, pattern="AB")
        flags = [where, long]
        if where == "out":
            text, flags = text + f"out = {long}\n", []
        elif where == "--emit-plot":
            flags = ["--out", str(tmp_path / "d.csv"), *flags]
        assert main(["walk", "dist", "--config", config_file(tmp_path, text), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime error: ") and err.count("\n") == 1 and len(err) < 300, err
        # The plot renders a CSV that was written first.
        written = ["d.csv"] if where == "--emit-plot" else []
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["run.cfg", *written])

    def test_an_empty_out_flag_is_refused(self, tmp_path, capsys):
        cfg = config_file(tmp_path, WALK_AB.format(m=3, steps=5, pattern="AB"))
        assert main(["walk", "run", "--config", cfg, "--out", ""]) == 1
        assert capsys.readouterr().err == "error: out: empty value\n"

    @pytest.mark.parametrize("value", ["1" * 5000, "x" * 5000])
    def test_a_flag_value_of_5000_characters_is_refused_in_short_lines(
        self, tmp_path, capsys, value
    ):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(WALK_AB.format(m=2, steps=5, pattern="AB"), encoding="utf-8")
        assert main(["walk", "scan", "--config", str(cfg), "--max-len", value]) == 1
        err = capsys.readouterr().err
        assert "error: argument --max-len: invalid int value: " in err
        assert max(map(len, err.splitlines())) < 300, err
