"""The benchmark's own tests: metric names, failure counting, span arithmetic, unwrapping.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload, trace, seconds="0.5", seed="4"):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", seed,
         "--seconds", seconds, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def payloads(tmp_path_factory):
    out = {}
    for name, cls in WORKLOADS.items():
        workload = cls(4, tmp_path_factory.mktemp(name))
        workload.setup()
        out[name] = workload.payload(workload.op())
    return out


class TestMetricNames:
    def test_untraced_run_reports_exactly_the_end_to_end_metrics(self):
        result = bench("classical_games", 0)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
        for spec in SPEC["end_to_end"]:
            assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
            assert result["metrics"][spec["name"]]["value"] > 0

    def test_traced_run_reports_exactly_the_per_layer_metrics(self):
        result = bench("cli_dist_m3", 1)
        assert result["correct"]
        assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["walker.walks"] == 1 and metrics["cli.calls"] == 1
        assert metrics["output.csv_calls"] == 2 and metrics["output.svg_bytes"] > 0
        assert metrics["classical.mc_calls"] == 0  # never fires here: reported as zero calls

    def test_missing_program_exits_nonzero_without_a_result(self, tmp_path):
        (tmp_path / "perfbench").mkdir()
        for path in BENCH.glob("*.py"):
            (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
        (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cli_dist_m3", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode != 0 and proc.stdout == ""


class TestFailureCounting:
    def test_unperturbed_outputs_pass(self, payloads):
        for name, payload in payloads.items():
            assert checks.check(name, 4, payload) == [], name

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_perturbed_output_fails_its_check(self, payloads, name):
        bad = json.loads(json.dumps(payloads[name]))
        if name == "trajectory_m8":
            bad["means"][7] += 1e-9
        elif name == "pattern_scan_m3":
            bad["means"]["AB"] += 1e-9
        elif name == "classical_games":
            bad["chain"][3] += 1e-9
        else:
            lines = bad["csv"].splitlines()
            x, p = lines[5].split(",")
            lines[5] = f"{x},{float(p) + 3e-12:.12f}"
            bad["csv"] = "\n".join(lines) + "\n"
        assert checks.check(name, 4, bad)

    def test_perturbed_op_counts_as_failed(self, payloads):
        good = payloads["trajectory_m8"]
        bad = json.loads(json.dumps(good))
        bad["means"][-1] += 1e-6
        outputs = {
            "groups": [{"digest": "a", "count": 9, "payload": good},
                       {"digest": "b", "count": 1, "payload": bad}],
            "raised": 2, "overflow": 0, "errors": ["boom"],
        }
        failed, problems = run.count_failures("trajectory_m8", 4, outputs)
        assert failed == 3 and problems

    def test_output_differing_from_the_majority_counts_as_failed(self, payloads):
        good = payloads["pattern_scan_m3"]
        outputs = {
            "groups": [{"digest": "a", "count": 5, "payload": good},
                       {"digest": "b", "count": 1, "payload": good}],
            "raised": 0, "overflow": 0, "errors": [],
        }
        assert run.count_failures("pattern_scan_m3", 4, outputs)[0] == 1


class TestSpans:
    def test_self_time_subtracts_direct_children(self):
        ticks = iter([0, 10, 15, 25, 40, 50, 90, 100])
        t = tracing.Tracer(clock=lambda: next(ticks))
        t.op_id = 0
        root = t.begin("cli.main")
        a = t.begin("walker.run_sequence")
        c = t.begin("operators.toss")
        t.finish(c)
        t.finish(a)
        b = t.begin("output.csv")
        t.finish(b)
        t.finish(root)
        own = tracing.self_times(t.arrays())
        assert own.tolist() == pytest.approx([30e-9, 20e-9, 10e-9, 40e-9])
        totals = tracing.per_op_totals(t.arrays(), [0])
        assert totals["walker.run_sequence"]["s"].tolist() == pytest.approx([20e-9])
        assert totals["classical.mc"]["calls"].tolist() == [0.0]

    def test_totals_are_grouped_by_op(self):
        ticks = iter(range(0, 1000, 5))
        t = tracing.Tracer(clock=lambda: next(ticks))
        for op in (3, 7, 7):
            t.op_id = op
            t.finish(t.begin("operators.flip"))
        totals = tracing.per_op_totals(t.arrays(), [7, 3])
        assert totals["operators.flip"]["calls"].tolist() == [2.0, 1.0]
        assert totals["operators.flip"]["s"].tolist() == pytest.approx([10e-9, 5e-9])

    def test_wrappers_are_gone_after_a_traced_op(self, tmp_path):
        import histwalk.operators
        import histwalk.walker

        original = histwalk.walker.toss
        workload = WORKLOADS["pattern_scan_m3"](4, tmp_path)
        workload.setup()
        t = tracing.Tracer()
        outputs = child.Outputs()
        child.traced_op(workload, outputs, t, 0)
        assert outputs.raised == 0 and t.counters[0]["state.stored_rows"] > 0
        assert tracing.wrapped_names() == []
        assert histwalk.walker.toss is original is histwalk.operators.toss

    def test_wrappers_are_removed_when_the_op_raises(self, tmp_path):
        workload = WORKLOADS["pattern_scan_m3"](4, tmp_path)
        workload.setup()
        workload.games = {}  # the library rejects an empty game set
        outputs = child.Outputs()
        child.traced_op(workload, outputs, tracing.Tracer(), 0)
        assert outputs.raised == 1 and tracing.wrapped_names() == []


def test_tail_is_the_highest_percentile_with_ten_ops_beyond():
    value, pct = run.tail([float(i) for i in range(40)])
    assert value == 29.0 and pct == 75.0


def test_op_times_scale_by_the_median_reference_around_them():
    nominal = hostspeed.NOMINAL_S
    refs = [nominal] * 4 + [2 * nominal] * 6
    got = hostspeed.scaled([1.0] * 9, refs)
    assert got[0] == pytest.approx(1.0) and got[-1] == pytest.approx(0.5)


def test_stencil_oracle_matches_dense_evolve_at_early_steps():
    psi, history = checks.stencil_walk(11, 3, "AAB", 6, every=True)
    dense = checks.dense_early_moments(11, 3, "AAB", 6)
    assert np.allclose(history, dense, atol=1e-13, rtol=0)
