"""The demos and README's examples run, and the package exports what its callers use.

The exports are the public names that the CLI, the demos, README, the
benchmark and the acceptance checks use, plus the exceptions public calls
raise, and nothing else.

Each demo runs as a script in a fresh working directory, as a reader would
run it, so a name it imports that the package no longer has fails here.
"""

import ast
import csv
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import histwalk
from histwalk import cli

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(histwalk.__file__).resolve().parent.parent

DEMO_FILES = {
    "spreading_walk": ["spreading_dist.csv", "spreading_dist.svg"],
    "memory_peaks": [f"dist_m{m}.csv" for m in range(1, 5)] + ["memory_peaks.svg"],
    "losing_games_that_win": ["pattern_scan.csv", "rr_sweep.csv", "rr_sweep.svg"],
    "classical_games": ["capital_patterns.csv", "capital_patterns.svg"],
}


def run_python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )


def readme_python_blocks():
    return re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), re.S)


@pytest.mark.parametrize("demo", sorted(DEMO_FILES))
def test_demo_runs_and_writes_its_files(demo, tmp_path):
    result = run_python([str(ROOT / "demos" / f"{demo}.py")], tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout
    written = sorted(p.name for p in (tmp_path / "demo_output").iterdir())
    assert written == sorted(DEMO_FILES[demo])
    assert all((tmp_path / "demo_output" / name).stat().st_size for name in written)


def test_readme_quick_start_prints_the_losing_and_winning_means(tmp_path):
    (block,) = readme_python_blocks()
    result = run_python(["-c", block], tmp_path)
    assert result.returncode == 0, result.stderr
    alone, mixed = (float(line) for line in result.stdout.splitlines()[:2])
    assert alone == pytest.approx(-0.714, abs=5e-4)
    assert mixed == pytest.approx(0.228, abs=5e-4)


def readme_worked_examples():
    """README's config files and the ``histwalk`` arguments of its "Worked examples".

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


def csv_rows(text):
    return list(csv.DictReader(text.splitlines()))


def test_readme_worked_examples_show_the_losing_game_and_the_winning_pattern(
    tmp_path, monkeypatch, capsys
):
    configs, commands = readme_worked_examples()
    for name, text in configs.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    printed = {}
    for words in commands:
        assert cli.main(words) == 0, words
        printed[" ".join(words[:2])] = capsys.readouterr().out

    assert round(float(csv_rows(printed["walk run"])[-1]["mean"]), 3) == -0.714
    scan = csv_rows(printed["walk scan"])
    assert all(row["positive"] == str(int(float(row["mean"]) > 1e-9)) for row in scan)
    assert {row["pattern"]: row["positive"] for row in scan}["AAB"] == "1"
    assert all((tmp_path / name).stat().st_size for name in ("dist.csv", "peaks.csv", "dist.svg"))
    exact = csv_rows((tmp_path / "exact.csv").read_text(encoding="utf-8"))[-1]
    sampled = csv_rows((tmp_path / "sampled.csv").read_text(encoding="utf-8"))[-1]
    error = float(sampled["mean"]) - float(exact["mean"])
    assert abs(error) <= 5 * float(sampled["stderr"])


def test_python_m_histwalk_prints_its_usage(tmp_path):
    result = run_python(["-m", "histwalk", "--help"], tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage: histwalk")


def names_used_from_histwalk(source: str) -> set[str]:
    """Names a module imports from histwalk, or reads off an imported histwalk module."""
    tree = ast.parse(source)
    used: set[str] = set()
    modules: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level or (node.module or "").startswith("histwalk"):
                used.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            modules.update(
                alias.asname or alias.name
                for alias in node.names
                if alias.name.startswith("histwalk")
            )
    attributes = (node for node in ast.walk(tree) if isinstance(node, ast.Attribute))
    used.update(
        node.attr
        for node in attributes
        if isinstance(node.value, ast.Name) and node.value.id in modules
    )
    return used


def names_callers_use() -> set[str]:
    """Names the CLI, the acceptance checks, the demos, the benchmark and README use."""
    sources = [ROOT / "src" / "histwalk" / "cli.py", ROOT / "tests" / "test_acceptance.py"]
    sources += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    texts = [path.read_text(encoding="utf-8") for path in sources] + readme_python_blocks()
    return set().union(*map(names_used_from_histwalk, texts))


def test_every_export_is_used_by_a_caller_or_is_a_raised_exception():
    used = names_callers_use()
    exceptions = {
        name
        for name in histwalk.__all__
        if isinstance(getattr(histwalk, name), type)
        and issubclass(getattr(histwalk, name), Exception)
    }
    assert sorted(set(histwalk.__all__) - used - exceptions) == []
    assert len(set(histwalk.__all__)) == len(histwalk.__all__)


def test_every_public_name_a_caller_uses_is_exported():
    public = {name for name in names_callers_use() if not name.startswith("_")}
    assert sorted(public - set(histwalk.__all__)) == []


def assigns_all(path: Path) -> bool:
    """Whether the module at ``path`` assigns ``__all__`` anywhere, augmented or annotated too."""
    targets = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Assign):
            targets += node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets.append(node.target)
    names = (node for target in targets for node in ast.walk(target))
    return any(isinstance(node, ast.Name) and node.id == "__all__" for node in names)


def test_the_package_holds_the_only_export_list():
    package = Path(histwalk.__file__).resolve().parent
    modules = sorted(package.rglob("*.py"))
    assert [path.relative_to(package).as_posix() for path in modules if assigns_all(path)] == [
        "__init__.py"
    ]
