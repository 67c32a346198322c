"""Property tests of the command line: configs and flags that are valid or one change away.

Each drawn run goes through :func:`histwalk.cli.main` in a new folder that
holds only its config file ``run.cfg``; output files are named relative to
the folder.  Physical memory is pinned at 16 GiB, so no refusal depends on
the host.  Sizes stay small: M <= 4 and T <= 30 in every valid run.

The properties:

* a run exits 0 or 1, never with a runtime error;
* a run that exits 1 names a key, a line or a flag, writes no file, and
  writes each stderr line in under 300 characters, also when a key, a value
  or a flag value is 5,000 characters long;
* a run that exits 0 writes the bytes that the library calls write for the
  same config: for a valid run, a config built from the drawn values, not
  parsed from the text;
* the same run twice writes the same bytes, stdout and stderr included;
* the config led by a byte-order mark, or written with CRLF line ends, gives
  the exit code, stdout, stderr and files of the plain file.
"""

import contextlib
import io
import os
import re
import tempfile
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import histwalk.state
from histwalk.analysis import analyze_peaks
from histwalk.classical import (
    BiasedCoin,
    CapitalMod3,
    HistoryCoins,
    capital_game_trajectory,
    classical_mean_trajectory,
    history_mix_trajectory,
    monte_carlo_trajectory,
)
from histwalk.cli import build_parser, main
from histwalk.config import RunConfig, parse_config
from histwalk.operators import HistoryRhoTable
from histwalk.output import emit_svg_plot, write_csv
from histwalk.walker import (
    ANTISYMMETRIC,
    POSITIVE_MEAN_THRESHOLD,
    build_initial_state,
    final_distribution,
    run_sequence,
    scan_sequences,
    sweep_parameter,
)
from hypothesis import event, given, settings
from hypothesis import strategies as st

CONFIG = "run.cfg"
OUT, PLOT, PEAKS = "out.csv", "plot.svg", "peaks.csv"

COMMANDS = ["walk run", "walk dist", "walk scan", "walk sweep",
            "classical capital", "classical history", "classical rho-walk"]

#: Values that some key or flag refuses and another may take.
ODD_VALUES = ["-1", "0", "-0", "5e-324", "1.5", "nan", "inf", "x", "1e999", "0x10", "4.0",
              "1_0", "٣", "½", "allr", "AB1", "", "L", "RRRRR", "run.cfg", OUT]
#: Values of 5,000 characters: text, integers too long for ``int``, a float
#: that reads back, a history and a pattern.  No file path is drawn this
#: long: the system refuses to open it, a runtime error (exit 2).
LONG_VALUES = ["x" * 5000, "1" * 5000, "-" + "1" * 4999, "0." + "1" * 4998, "R" * 5000,
               "AB" * 2500]
#: Keys that no config needs: unknown, malformed or of the other engine.
ODD_KEYS = ["typo", "t", "games.A.rho.RRRRRR", "games.A.rho.X", "games.AB.rho.default",
            "Games.A.rho.default", "classical.A.q", "classical.A.p", "games.C.rho.default",
            "x" * 5000, "games.A.rho." + "R" * 4988, "classical.A." + "p" * 4988]
#: Config keys and flags that name a file.
PATHS = ("out", "--out", "--emit-plot", "--peaks")

# A message names a config key, a line of the file or a flag.
NAMES = re.compile(
    r"(?<![\w.])(?:M|T|pattern|initial|window|prominence|out|seed|(?:games|classical)\.\S+)"
    r"(?!\w)|\bline \d+|--[a-z][a-z-]*"
)


ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def spelled_int(draw, n):
    """``n`` as the config may write it: plain, signed, zero-padded or in Arabic-Indic digits."""
    return draw(st.sampled_from([str(n), f"+{n}", f"{n:03d}", str(n).translate(ARABIC_INDIC)]))


def spelled_float(draw, x):
    """``x`` in one of the spellings that read back as the same float."""
    return draw(st.sampled_from([repr(x), f"{x:.17g}", f"{x:.17e}", f"+{x!r}"]))


probabilities = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0).map(abs))


@st.composite
def valid_runs(draw):
    """A command, its config lines and flags, and the config they stand for.

    Returns ``(lines, flags, config, command)``: ``lines`` are ``(key, value)``
    pairs, ``flags`` ``(flag, value)`` pairs after ``--config run.cfg``, and
    ``config`` the :class:`RunConfig` built from the drawn values.
    """
    command = draw(st.sampled_from(COMMANDS))
    group, kind = command.split()
    steps = draw(st.integers(0, 30))
    lines = [("T", spelled_int(draw, steps))]
    flags = []
    num_coins, games, classical, engine, seed = None, {}, {}, None, None
    if group == "walk" or kind == "rho-walk":
        num_coins = draw(st.integers(1, 4))
        lines.append(("M", spelled_int(draw, num_coins)))
        histories = ["".join(h) for h in product("LR", repeat=num_coins - 1)]
        single = kind in ("sweep", "rho-walk")
        for letter in draw(st.sampled_from(["A", "B"] if single else ["A", "B", "AB"])):
            default = draw(probabilities)
            overrides = draw(st.dictionaries(
                st.sampled_from(histories), probabilities, max_size=2 if num_coins > 1 else 0
            ))
            games[letter] = HistoryRhoTable.with_overrides(num_coins, default, overrides)
            lines.append((f"games.{letter}.rho.default", spelled_float(draw, default)))
            lines += [(f"games.{letter}.rho.{h}", spelled_float(draw, v))
                      for h, v in overrides.items()]
    else:
        kinds = {"capital": ["biased", "mod3"], "history": ["biased", "history"]}[kind]
        params = {"biased": ("p",), "mod3": ("p1", "p2"), "history": ("p1", "p2", "p3", "p4")}
        builds = {"biased": BiasedCoin, "mod3": CapitalMod3, "history": HistoryCoins}
        for letter in draw(st.sampled_from(["A", "B", "AB"])):
            game = draw(st.sampled_from(kinds))
            values = {name: draw(probabilities) for name in params[game]}
            classical[letter] = builds[game](**values)
            lines.append((f"classical.{letter}.kind", game))
            lines += [(f"classical.{letter}.{name}", spelled_float(draw, v))
                      for name, v in values.items()]
    if group == "classical":
        engine = kind
        lines.append(("classical.engine", engine))
    letters = "".join(sorted(games or classical))
    if kind in ("sweep", "rho-walk"):
        pattern = letters
    else:
        pattern = draw(st.text(alphabet=letters, min_size=1, max_size=4))
    lines.append(("pattern", pattern))
    initial = draw(st.sampled_from([None, "antisymmetric", "allR"]))
    if initial is not None:
        lines.append(("initial", initial))
    window, prominence = 5, 0.1
    if draw(st.booleans()):
        window = 2 * draw(st.integers(0, 4)) + 1
        lines.append(("window", spelled_int(draw, window)))
    if draw(st.booleans()):
        prominence = draw(st.floats(0.01, 0.99))
        lines.append(("prominence", spelled_float(draw, prominence)))
    out = draw(st.sampled_from([None, "key", "flag"]))
    if out == "key":
        lines.append(("out", OUT))
    elif out == "flag":
        flags.append(("--out", OUT))
    if kind == "dist":
        if draw(st.booleans()):
            flags.append(("--peaks", PEAKS))
        if draw(st.booleans()):
            window = 2 * draw(st.integers(0, 4)) + 1
            flags.append(("--window", str(window)))
        if draw(st.booleans()):
            prominence = draw(st.floats(0.01, 0.99))
            flags.append(("--prominence", repr(prominence)))
    elif kind == "scan":
        flags.append(("--max-len", str(draw(st.integers(1, 3)))))
    elif kind == "sweep":
        bounds = [repr(draw(probabilities)) for _ in range(2)]
        flags += [("--param", draw(st.sampled_from(histories))), ("--from", bounds[0]),
                  ("--to", bounds[1]), ("--steps", str(draw(st.integers(1, 5))))]
    if group == "classical" and draw(st.booleans()):
        flags.append(("--monte-carlo", str(draw(st.integers(1, 40)))))
        seed = draw(st.integers(0, 2**32))
        if draw(st.booleans()):
            lines.append(("seed", spelled_int(draw, seed)))
        else:
            flags.append(("--seed", str(seed)))
    if out and kind != "scan" and draw(st.booleans()):
        flags.append(("--emit-plot", PLOT))
    lines = draw(st.permutations(lines))
    config = RunConfig(
        steps=steps, pattern=pattern, num_coins=num_coins, initial=initial or ANTISYMMETRIC,
        games=games, classical_engine=engine, classical_games=classical, window=window,
        prominence=prominence, out=OUT if out else None, seed=seed,
    )
    return lines, flags, config, command


def config_text(draw, lines):
    """The config file of ``lines``, with comments and blank lines drawn in."""
    text = []
    for key, value in lines:
        if draw(st.booleans()):
            text.append(draw(st.sampled_from(["", "# a comment", "   "])))
        comment = draw(st.sampled_from(["", "  # note", "#"]))
        text.append(f"{key} = {value}{comment}" if key is not None else value)
    return "\n".join(text) + draw(st.sampled_from(["\n", ""]))


def odd_values(name):
    """Values that some key or flag refuses, long ones too unless ``name`` names a file."""
    return st.sampled_from(ODD_VALUES + ([] if name in PATHS else LONG_VALUES))


@st.composite
def one_change(draw, run):
    """``run`` with one change to its config lines or flags."""
    lines, flags = list(run[0]), list(run[1])
    change = draw(st.sampled_from([
        "drop line", "duplicate line", "no equals", "empty value", "odd value", "odd key",
        "drop flag", "odd flag value", "unknown flag", "flag clash",
    ]))
    if change in ("drop flag", "odd flag value") and not flags:
        change = "odd value"
    index = draw(st.integers(0, len(lines) - 1))
    key, value = lines[index]
    if change == "drop line":
        del lines[index]
    elif change == "duplicate line":
        lines.append(lines[index])
    elif change == "no equals":
        lines[index] = (None, f"{key}{draw(st.sampled_from([' ', ': ', '']))}{value}")
    elif change == "empty value":
        lines[index] = (key, "")
    elif change == "odd value":
        lines[index] = (key, draw(odd_values(key)))
    elif change == "odd key":
        lines.insert(index, (draw(st.sampled_from(ODD_KEYS)), "0.5"))
    elif change == "drop flag":
        del flags[draw(st.integers(0, len(flags) - 1))]
    elif change == "odd flag value":
        at = draw(st.integers(0, len(flags) - 1))
        flags[at] = (flags[at][0], draw(odd_values(flags[at][0])))
    elif change == "unknown flag":
        flags.append(("--bogus", "1"))
    else:
        flag = draw(st.sampled_from(["--out", "--emit-plot", "--peaks"]))
        flags.append((flag, draw(st.sampled_from([CONFIG, OUT, PLOT, PEAKS]))))
    return lines, flags, None, run[3]


def argv_of(command, flags):
    group, kind = command.split()
    words = [group, "run" if group == "classical" else kind, "--config", CONFIG]
    for flag, value in flags:
        words += [flag, value]
    return words


def run_main(folder, data, argv):
    """Exit code, stdout, stderr and files other than the config of ``main(argv)`` in ``folder``.

    ``data`` is the config file's bytes.
    """
    Path(folder, CONFIG).write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(folder)
        patch.setattr(histwalk.state, "physical_memory_bytes", lambda: 16 * 2**30)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    files = {p.name: p.read_bytes() for p in Path(folder).iterdir() if p.name != CONFIG}
    return code, out.getvalue(), err.getvalue(), files


def library_outputs(folder, command, config, args):
    """Stdout and files that the library calls write for ``config`` and parsed flags ``args``."""
    group, kind = command.split()
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out):
        patch.chdir(folder)
        style = "line"
        if group == "walk":
            initial = build_initial_state(config.num_coins, config.initial, config.steps)
        if kind == "run":
            walk = run_sequence(initial, config.games, config.pattern, config.steps)
            header = ("t", "mean", "std")
            rows = [(t, m, s) for t, (m, s) in enumerate(zip(walk.means, walk.stds))]
        elif kind == "dist":
            dist = final_distribution(initial, config.games, config.pattern, config.steps)
            header, rows, style = ("x", "p"), zip(dist.positions, dist.probabilities), "scatter"
        elif kind == "scan":
            means = scan_sequences(
                config.games, args.max_len, config.num_coins, config.steps, config.initial
            )
            header = ("pattern", "mean", "positive")
            rows = [(p, m, 1 if m > POSITIVE_MEAN_THRESHOLD else 0) for p, m in means.items()]
        elif kind == "sweep":
            grid = np.linspace(args.sweep_from, args.sweep_to, args.grid_points)
            table = config.games[config.pattern]
            results = sweep_parameter(table, args.param, grid, config.steps, config.initial)
            header, rows = ("rho", "mean", "std"), [(r, s.mean, s.std) for r, s in results]
        else:
            engine = config.classical_engine
            if engine == "rho-walk":
                subject = config.games[config.pattern]
            else:
                subject = {x: config.classical_games[x] for x in sorted(set(config.pattern))}
            if args.monte_carlo is not None:
                means, errors = monte_carlo_trajectory(
                    subject, config.pattern, config.steps, args.monte_carlo, config.seed
                )
                header = ("t", "mean", "stderr")
                rows = [(t, m, e) for t, (m, e) in enumerate(zip(means, errors))]
            else:
                means = {
                    "rho-walk": lambda: classical_mean_trajectory(subject, config.steps),
                    "capital": lambda: capital_game_trajectory(
                        subject, config.pattern, config.steps),
                    "history": lambda: history_mix_trajectory(
                        subject, config.pattern, config.steps),
                }[engine]()
                header, rows = ("t", "mean"), list(enumerate(means))
        write_csv(header, rows, config.out)
        if kind == "dist" and args.peaks:
            report = analyze_peaks(dist, config.window, config.prominence)
            write_csv(("position", "height"), report.peaks, args.peaks)
        if getattr(args, "emit_plot", None):
            emit_svg_plot([config.out], args.emit_plot, style=style)
    files = {p.name: p.read_bytes() for p in Path(folder).iterdir()}
    return out.getvalue(), files


def parsed_config(text, args):
    """The library's parse of ``text`` with the flags that override config keys."""
    overrides = {key: str(getattr(args, key)) for key in ("seed", "window", "prominence", "out")
                 if getattr(args, key, None) is not None}
    return parse_config(text, overrides)


@st.composite
def cli_runs(draw):
    """A valid run, or one a single change away; with its config text."""
    run = draw(valid_runs())
    if draw(st.booleans()):
        run = draw(one_change(run))
    lines, flags, config, command = run
    return config_text(draw, lines), argv_of(command, flags), config, command


class TestCliProperties:
    # 150 examples, each run four times through main: about 2.5 s on a 2-core
    # x86-64 host.
    @settings(max_examples=150, deadline=None)
    @given(cli_runs())
    def test_exit_codes_messages_and_bytes(self, run):
        text, argv, config, command = run
        with tempfile.TemporaryDirectory() as root:
            folders = [os.path.join(root, name) for name in ("a", "b", "bom", "crlf", "lib")]
            for folder in folders:
                os.mkdir(folder)
            plain = text.encode()
            code, stdout, stderr, files = got = run_main(folders[0], plain, argv)
            event(f"{'valid' if config else 'changed'} {command}: exit {code}")
            assert code in (0, 1), stderr
            assert "runtime error" not in stderr
            if config is not None:  # a valid run
                assert code == 0, stderr
            if code == 1:
                assert NAMES.search(stderr), stderr
                assert max(map(len, stderr.splitlines())) < 300, stderr
                assert files == {}
                assert stdout == ""
            else:
                assert stderr == ""
                args = build_parser().parse_args(argv)
                if config is None:
                    config = parsed_config(text, args)
                assert library_outputs(folders[4], command, config, args) == (stdout, files)
            assert run_main(folders[1], plain, argv) == got
            assert run_main(folders[2], b"\xef\xbb\xbf" + plain, argv) == got
            assert run_main(folders[3], text.replace("\n", "\r\n").encode(), argv) == got
