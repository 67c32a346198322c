"""Digests of the benchmark payloads and demo outputs of one or more source trees.

Usage, from the repository root::

    python3 tools/same_bytes.py --tree parent=../histwalk-parent --tree change=.

One fresh process per tree, started in the order given, imports
``histwalk`` from ``<tree>/src``.  It runs one op of every workload in
``perfbench/workloads.py`` (this checkout's, as in ``tools/layer_bench.py``)
on each seed in ``SEEDS`` and digests its payload with ``workloads.digest``,
the digest the benchmark's checks compare.  It digests the positions and
probabilities of ``position_distribution(evolve(...))`` for each of
``EVOLVE_RUNS`` in the same process.

Every other item is a subprocess run, one entry of :func:`_subprocess_items`:
``(item name, files to write, arguments after the interpreter, what is
digested)``.  Each runs as ``[sys.executable, *arguments]`` with
``PYTHONPATH=<tree>/src`` in a new temporary directory holding its files,
and its digest covers the text named by the last field (a template over the
exit code, stdout and stderr) and the name and bytes of every file in the
directory afterwards.  The entries are the tree's demos, each command of
README's "Worked examples" (this checkout's README) run as ``-m histwalk``,
``CONFIG_RUNS`` and ``REFUSAL_RUNS`` run through ``_START_MAIN`` and the
Python block under "Library quick start" in the tree's own README.  Three
``CONFIG_RUNS`` are refused as too large for memory, and their message
names this host's memory size, so compare trees on one host.

The script prints one table, a row per item and a column per tree, and
exits 1 if any tree's digest of an item differs from the first tree's or is
missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, digest  # noqa: E402

SEEDS = (1, 2, 3)

_DIST_CONFIG = (
    "M = {m}\nT = {steps}\npattern = AAB\n"
    "games.A.rho.default = 0.5\ngames.B.rho.default = 0.45\n{override}"
)

_SWEEP_CONFIG = (
    "M = {m}\nT = {steps}\npattern = B\ninitial = allR\n"
    "games.B.rho.default = 0.45\n"
)

#: Command runs: label, config text, command (``walk`` and a subcommand, or
#: ``classical run``) and the arguments after ``--config run.cfg``, and a
#: custom start or None.  A distribution on both parities has no peak report,
#: so that run writes none.  The T=0 runs walk on a grid of one row.
CONFIG_RUNS = [
    ("M=1", _DIST_CONFIG.format(m=1, steps=200, override=""),
     ["walk", "dist", "--peaks", "peaks.csv"], None),
    ("M=5, start on both parities",
     _DIST_CONFIG.format(m=5, steps=120, override="games.B.rho.RRRR = 0.62\n"),
     ["walk", "dist", "--out", "dist.csv", "--emit-plot", "dist.svg"],
     [(-3, "LRLRL", 0.6), (0, "RRLLR", 0.5j), (2, "RRRRR", -0.8 + 0.1j)]),
    ("T=0", _DIST_CONFIG.format(m=3, steps=0, override="games.B.rho.RR = 0.62\n"),
     ["walk", "dist", "--out", "dist.csv", "--peaks", "peaks.csv", "--emit-plot", "dist.svg"],
     None),
    ("--window 3 --prominence 0.05",
     _DIST_CONFIG.format(m=3, steps=300, override="games.B.rho.RR = 0.62\n"),
     ["walk", "dist", "--out", "dist.csv", "--window", "3", "--prominence", "0.05",
      "--peaks", "peaks.csv", "--emit-plot", "dist.svg"], None),
    ("M=4, descending grid", _SWEEP_CONFIG.format(m=4, steps=150),
     ["walk", "sweep", "--param", "RLR", "--from", "0.9", "--to", "0.1", "--steps", "9",
      "--out", "sweep.csv", "--emit-plot", "sweep.svg"], None),
    ("M=1, empty history", _SWEEP_CONFIG.format(m=1, steps=150),
     ["walk", "sweep", "--param", "", "--from", "0", "--to", "1", "--steps", "5",
      "--out", "sweep.csv"], None),
    ("T=0", _DIST_CONFIG.format(m=3, steps=0, override="games.B.rho.RR = 0.62\n"),
     ["walk", "run", "--out", "run.csv", "--emit-plot", "run.svg"], None),
    ("T=0", _DIST_CONFIG.format(m=3, steps=0, override="games.B.rho.RR = 0.62\n"),
     ["walk", "scan", "--max-len", "2", "--out", "scan.csv"], None),
    ("T=0", _SWEEP_CONFIG.format(m=3, steps=0),
     ["walk", "sweep", "--param", "RL", "--from", "0.2", "--to", "0.8", "--steps", "4",
      "--out", "sweep.csv", "--emit-plot", "sweep.svg"], None),
    ("M=100000, refused", _DIST_CONFIG.format(m=100000, steps=10, override=""),
     ["walk", "run", "--out", "run.csv"], None),
    ("T=10**400, refused", _DIST_CONFIG.format(m=3, steps=10**400, override=""),
     ["walk", "dist", "--out", "dist.csv"], None),
    ("--max-len 10**400, refused", _DIST_CONFIG.format(m=2, steps=10, override=""),
     ["walk", "scan", "--max-len", str(10**400), "--out", "scan.csv"], None),
    ("--monte-carlo 2000 --seed 3, rho-walk",
     "M = 3\nT = 200\npattern = B\nclassical.engine = rho-walk\n"
     "games.B.rho.default = 0.45\ngames.B.rho.RR = 0.62\ngames.B.rho.LR = 0.3\n",
     ["classical", "run", "--monte-carlo", "2000", "--seed", "3", "--out", "mc.csv"], None),
    ("T=10**5, capital AB",
     "T = 100000\npattern = AB\nclassical.engine = capital\n"
     "classical.A.kind = biased\nclassical.A.p = 0.495\n"
     "classical.B.kind = mod3\nclassical.B.p1 = 0.095\nclassical.B.p2 = 0.745\n",
     ["classical", "run", "--out", "capital.csv"], None),
    ("M=8, T=10**4, rho-walk",
     "M = 8\nT = 10000\npattern = B\nclassical.engine = rho-walk\n"
     "games.B.rho.default = 0.45\ngames.B.rho.RRRRRRR = 0.62\ngames.B.rho.LRLRLRL = 0.3\n",
     ["classical", "run", "--out", "chain.csv"], None),
    ("T=4000, coins that always win, never repeating",
     "T = 4000\npattern = AB\nclassical.engine = capital\n"
     "classical.A.kind = biased\nclassical.A.p = 1\nclassical.B.kind = biased\nclassical.B.p = 1\n",
     ["classical", "run", "--out", "always.csv"], None),
]

#: Config values refused with exit 1, one in each ``walk dist`` run at M=3, T=10.
_VALID = _DIST_CONFIG.format(m=3, steps=10, override="")
CONFIG_RUNS += [
    (f"{label}, refused", config,
     ["walk", "dist", "--out", "dist.csv", "--peaks", "peaks.csv"], None)
    for label, config in [
        ("M = 0", _VALID.replace("M = 3", "M = 0")),
        ("T = -5", _VALID.replace("T = 10", "T = -5")),
        ("seed = -1", _VALID + "seed = -1\n"),
        ("window = 4", _VALID + "window = 4\n"),
        ("prominence = 1.5", _VALID + "prominence = 1.5\n"),
        ("initial = up", _VALID + "initial = up\n"),
        ("games.B.rho.default = 1.5", _VALID.replace("rho.default = 0.45", "rho.default = 1.5")),
        ("5,000-character pattern", _VALID.replace("AAB", "A" * 4999 + "2")),
    ]
]

#: Refusals of the front end's shared rules: label, the text of ``run.cfg``
#: and the whole argument list.
REFUSAL_RUNS = [
    ("walk run on a classical.* letter",
     "M = 2\nT = 5\npattern = A\nclassical.A.kind = biased\nclassical.A.p = 0.5\n",
     ["walk", "run", "--config", "run.cfg"]),
    ("classical run (capital) on a games.* letter",
     "M = 1\nT = 5\npattern = A\nclassical.engine = capital\ngames.A.rho.default = 0.5\n",
     ["classical", "run", "--config", "run.cfg"]),
    ("plot --out naming its own input", "t,mean\n0,0\n1,1\n",
     ["plot", "run.cfg", "--out", "run.cfg"]),
    ("walk dist --window 4.0", _VALID,
     ["walk", "dist", "--config", "run.cfg", "--window", "4.0"]),
    ("walk dist --peaks '' --emit-plot ''", _VALID,
     ["walk", "dist", "--config", "run.cfg", "--out", "dist.csv", "--peaks", "", "--emit-plot", ""]),
    ("plot --out ''", "t,mean\n0,0\n1,1\n", ["plot", "run.cfg", "--out", ""]),
]

#: ``position_distribution(evolve(...))`` runs: label, register size, step
#: count, and a custom start on both parities or None for the origin start.
EVOLVE_RUNS = [
    ("M=3", 3, 100, None),
    ("M=5", 5, 60, None),
    ("M=3, start on both parities", 3, 100, [(-3, "LRL", 0.6), (0, "RRL", 0.5j), (2, "RRR", -0.8)]),
    ("M=5, start on both parities", 5, 60, CONFIG_RUNS[1][3]),
]

#: ``histwalk.cli.main`` on ``sys.argv[2:]``.  A run with a custom start (the
#: repr of its entries in ``sys.argv[1]``) begins there, on a grid three sites
#: wider than its step count, because no config key names such a start.
_START_MAIN = """
import ast, sys
import histwalk.cli as cli
start, build = ast.literal_eval(sys.argv[1]), cli.build_initial_state
if start:
    cli.build_initial_state = lambda num_coins, kind, t_max: build(num_coins, start, t_max + 3)
sys.exit(cli.main(sys.argv[2:]))
"""


def _folder_digest(folder: Path, text: str) -> str:
    """sha256 of ``text`` and of the relative name and bytes of every file under ``folder``."""
    hasher = hashlib.sha256(text.encode())
    for path in sorted(p for p in folder.rglob("*") if p.is_file()):
        hasher.update(b"\0" + str(path.relative_to(folder)).encode() + b"\0")
        hasher.update(path.read_bytes())
    return hasher.hexdigest()


def readme_worked_examples() -> tuple[dict[str, str], list[list[str]]]:
    """This checkout's README "Worked examples": its config files and ``histwalk`` arguments.

    ``winning.cfg`` is README's first config block with ``pattern = B``, and
    ``capital.cfg`` is its second.
    """
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    first, second = re.findall(r"```ini\n(.*?)```", text, re.S)[:2]
    configs = {
        "winning.cfg": re.sub(r"(?m)^pattern = \w+", "pattern = B", first),
        "capital.cfg": second,
    }
    section = text.split("### Worked examples", 1)[1]
    script = re.search(r"```sh\n(.*?)```", section, re.S).group(1).replace("\\\n", " ")
    lines = (shlex.split(line, comments=True) for line in script.splitlines())
    return configs, [words[1:] for words in lines if words]


def _subprocess_items(tree: str) -> list[tuple[str, dict[str, str], list[str], str]]:
    """Every subprocess item of ``tree``: name, files, arguments after the interpreter, digest text.

    The digest text is a template over ``exit``, ``stdout`` and ``stderr``.
    The worked examples run in a directory holding the files of
    :func:`readme_worked_examples`.
    """
    configs, commands = readme_worked_examples()
    own = Path(tree, "README.md").read_text(encoding="utf-8")
    quick_start = re.search(r"## Library quick start\n.*?```python\n(.*?)```", own, re.S)
    everything = "exit {exit}\n{stdout}\0{stderr}"
    return (
        [(f"demo {demo.stem}", {}, [str(demo)], "{stdout}")
         for demo in sorted(Path(tree, "demos").resolve().glob("*.py"))]
        + [(f"cli {' '.join(words)}", configs, ["-m", "histwalk", *words], "exit {exit}\n{stdout}")
           for words in commands]
        + [(f"{group} {command} {label}", {"run.cfg": config},
            ["-c", _START_MAIN, repr(start), group, command, "--config", "run.cfg", *words],
            everything) for label, config, (group, command, *words), start in CONFIG_RUNS]
        + [(f"refused: {label}", {"run.cfg": config}, ["-c", _START_MAIN, "None", *argv],
            everything) for label, config, argv in REFUSAL_RUNS]
        + [("README quick start", {}, ["-c", quick_start.group(1)], everything)]
    )


def measure(tree: str) -> dict[str, str]:
    """Digest of every workload payload, ``EVOLVE_RUNS`` entry and subprocess item of ``tree``.

    ``histwalk`` must already import from ``<tree>/src``.
    """
    import histwalk

    source = Path(tree, "src").resolve()
    if not Path(histwalk.__file__).resolve().is_relative_to(source):
        raise RuntimeError(f"histwalk imports from {histwalk.__file__}, not from {source}")
    digests: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as temporary:
        for name, workload in WORKLOADS.items():
            for seed in SEEDS:
                run = workload(seed, Path(temporary, f"{name}_{seed}"))
                run.setup()
                digests[f"{name} seed {seed}"] = digest(run.payload(run.op()))
    for label, num_coins, steps, start in EVOLVE_RUNS:
        initial = histwalk.build_initial_state(num_coins, start or "antisymmetric", steps + 3)
        overrides = {"R" * (num_coins - 1): 0.62}
        table = histwalk.HistoryRhoTable.with_overrides(num_coins, 0.45, overrides)
        dist = histwalk.position_distribution(histwalk.evolve(initial, table, steps))
        hasher = hashlib.sha256(dist.positions.astype("<i8").tobytes())
        hasher.update(dist.probabilities.tobytes())
        digests[f"evolve {label}"] = hasher.hexdigest()
    env = {**os.environ, "PYTHONPATH": str(source)}
    for item, files, argv, shown in _subprocess_items(tree):
        with tempfile.TemporaryDirectory() as temporary:
            for name, text in files.items():
                Path(temporary, name).write_text(text, encoding="utf-8")
            done = subprocess.run(
                [sys.executable, *argv], cwd=temporary, env=env, capture_output=True, text=True
            )
            if "{exit}" not in shown:  # a digest blind to the exit code must not hide a failure
                done.check_returncode()
            digests[item] = _folder_digest(
                Path(temporary),
                shown.format(exit=done.returncode, stdout=done.stdout, stderr=done.stderr),
            )
    return digests


def run_child(tool: str, tree: str, arg, **env: str):
    """``<tool>.measure(arg)`` in a fresh process that imports ``histwalk`` from ``<tree>/src``.

    ``tool`` names a module of this folder.  ``arg`` and the result pass as
    JSON.  The child's environment is this one with ``env`` added and
    ``PYTHONPATH`` removed.
    """
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); sys.path.insert(0, sys.argv[2]);"
        f"import {tool};"
        f"print(json.dumps({tool}.measure(json.loads(sys.argv[3]))))"
    )
    source = str(Path(tree, "src").resolve())
    command = [sys.executable, "-c", code, str(Path(__file__).resolve().parent), source,
               json.dumps(arg)]
    env = {**os.environ, **env}
    env.pop("PYTHONPATH", None)
    done = subprocess.run(command, capture_output=True, text=True, env=env, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _labelled(item: str) -> tuple[str, str]:
    label, equals, path = item.partition("=")
    if not equals:
        raise argparse.ArgumentTypeError(f"expected LABEL=PATH, got {item!r}")
    return label, path


def tree_parser(doc: str, tree_help: str) -> argparse.ArgumentParser:
    """A parser titled by ``doc``'s first line; ``--tree LABEL=PATH`` gives (label, path) pairs."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument(
        "--tree", action="append", required=True, metavar="LABEL=PATH", type=_labelled,
        help=tree_help,
    )
    return parser


def main(argv=None) -> int:
    parser = tree_parser(
        __doc__, "a source tree to digest (repeat; the others are compared to the first)"
    )
    trees = dict(parser.parse_args(argv).tree)
    digests = {label: run_child("same_bytes", path, path) for label, path in trees.items()}
    base = next(iter(trees))
    items = list(digests[base]) + sorted(
        {item for found in digests.values() for item in found} - set(digests[base])
    )
    width = max(len(item) for item in items)
    print(f"{'item':<{width}}  " + "  ".join(f"{label:<12}" for label in trees) + "  same")
    differ = 0
    for item in items:
        found = [digests[label].get(item) for label in trees]
        same = None not in found and len(set(found)) == 1
        differ += not same
        cells = "  ".join(f"{(value or '-')[:12]:<12}" for value in found)
        print(f"{item:<{width}}  {cells}  {'yes' if same else 'NO'}")
    print(f"{len(items) - differ} of {len(items)} items have the same digest in every tree")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
