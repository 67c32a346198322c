"""histwalk benchmark: one seeded workload, timed in fresh child processes, every op checked.

Usage, from the repository root::

    python3 perfbench/run.py --workload trajectory_m8 --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a traced run.  The last stdout line is the result object; the
line before it is the run record, which is also written under
``.perfbench_out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_RUNS = 5  # fresh processes timed from spawn to first op; the median is setup_s
TAIL_BEYOND = 10  # op_s.tail is the highest percentile with this many ops above it
REQUIRED = ("src/histwalk/__init__.py", "tests/reference.py")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def thread_env() -> dict[str, str]:
    """NumPy/BLAS threads capped at the cores this process may use."""
    cap = str(nproc())
    return {name: cap for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def spawn(args, workdir: Path, extra=(), timeout: float = 60.0) -> tuple[float, dict]:
    """Run child.py once; returns its wall time from spawn to first op, and its result."""
    command = [
        sys.executable, str(HERE / "child.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--workdir", str(workdir), *extra,
    ]
    env = {**os.environ, **thread_env()}
    started = time.monotonic()
    proc = subprocess.run(
        command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["ready"] - started, result


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND ops beyond it, and that percentile."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def count_failures(workload: str, seed: int, outputs: dict) -> tuple[int, list[str]]:
    """Ops whose output fails a check, raised, or disagrees with the most common output."""
    from checks import check

    failed = outputs["raised"] + outputs["overflow"]
    problems = list(outputs["errors"])
    majority = max(outputs["groups"], key=lambda g: g["count"], default=None)
    for group in outputs["groups"]:
        found = check(workload, seed, group["payload"])
        if not found and group is not majority:
            found = ["output differs from the most common output of this run"]
        if found:
            failed += group["count"]
            problems.extend(found)
    return failed, problems


def blas_info() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        return {}


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [name for name in REQUIRED if not (ROOT / name).is_file()]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT}", file=sys.stderr)
        return 1
    os.environ.update(thread_env())
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / tag
    workdir.mkdir(parents=True, exist_ok=True)

    setups = []
    if not args.trace:
        for _ in range(SETUP_RUNS - 1):
            setups.append(spawn(args, workdir, ["--setup-only"])[0])
    setup, result = spawn(args, workdir, timeout=args.seconds + 120)
    setups.append(setup)

    failed, problems = count_failures(args.workload, args.seed, result["outputs"])
    attempted = result["attempted"]
    wall = result["op_times"]
    if args.trace:
        times = wall
        metrics = result["per_layer"]
    else:
        times = hostspeed.scaled(wall, result["references"])
        # Set-up ran seconds before the ops, so the run's median reference scales it.
        host = hostspeed.NOMINAL_S / statistics.median(result["references"])
        metrics = {
            "setup_s": statistics.median(setups) * host,
            "op_s.p50": statistics.median(times),
            "op_s.tail": tail(times)[0],
            "steps_per_s": result["steps_per_op"] * len(times) / sum(times),
            "peak_rss_mb": result["rss_kb"] / 1024.0,
            "ok_frac": 1.0 - failed / attempted,
        }

    import numpy as np

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "threads": thread_env(),
        "warmup_ops_discarded": result["warmup_ops"],
        "ops_timed": len(times),
        "tail_percentile": tail(times)[1],
        "wall_op_s.p50": statistics.median(wall),
        "wall_op_s.tail": tail(wall)[0],
        "reference_s.p50": statistics.median(result.get("references") or [0.0]),
        "nominal_reference_s": hostspeed.NOMINAL_S,
        "steps_per_op": result["steps_per_op"],
        "wall_setup_runs_s": setups,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "problems": problems[:20],
        "computed_counts": ["operators.bytes_moved", "classical.mc_draws"],
    }
    if args.trace:
        record.update(
            traced_ops=len(result["traced_op_times"]),
            never_fired=result["never_fired"],
            spans=result["spans"],
            spans_file=result["spans_file"],
        )
    (OUT / f"record-{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    units = unit_table()
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def unit_table() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(1)
