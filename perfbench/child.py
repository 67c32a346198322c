"""One workload in a fresh process: set up, warm up, then run ops until the deadline.

Run by ``run.py``; prints one JSON object on its last stdout line.  With
``--setup-only`` it stops right before the first op, so the parent can time
set-up on its own.  With ``--trace 1`` it alternates untraced and traced ops,
installing the wrappers before each traced op and removing them after it,
then runs one untimed op under ``tracemalloc`` for the peak-bytes probe.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, digest  # noqa: E402

# Spans reported as <name>_s (median self seconds per op) and <name>_calls.
PLAIN_SPANS = (
    "operators.flip", "operators.shift", "operators.reorder",
    "state.distribution", "state.moments",
    "classical.capital", "classical.history", "classical.chain", "classical.mc",
    "config.parse", "analysis.smooth", "analysis.peaks", "output.csv", "output.svg",
)
MAX_DISTINCT = 4  # distinct outputs kept for checking; more count as failed
WARMUP_SECONDS = 1.0


class Outputs:
    """Digest of every op's output, with one payload kept per distinct digest."""

    def __init__(self):
        self.groups: dict[str, dict] = {}
        self.attempted = 0
        self.raised = 0
        self.overflow = 0
        self.errors: list[str] = []

    def add(self, workload, result) -> None:
        payload = workload.payload(result)
        key = digest(payload)
        group = self.groups.get(key)
        if group is not None:
            group["count"] += 1
        elif len(self.groups) < MAX_DISTINCT:
            self.groups[key] = {"count": 1, "payload": payload}
        else:
            self.overflow += 1

    def failed_op(self, exc: Exception) -> None:
        self.raised += 1
        if len(self.errors) < 3:
            self.errors.append(repr(exc))

    def as_dict(self) -> dict:
        return {
            "groups": [{"digest": k, **v} for k, v in self.groups.items()],
            "raised": self.raised,
            "overflow": self.overflow,
            "errors": self.errors,
        }


def run_op(workload, outputs: Outputs) -> float:
    """One op, timed; its output is recorded after the clock stops."""
    outputs.attempted += 1
    start = time.perf_counter()
    try:
        result = workload.op()
    except Exception as exc:  # noqa: BLE001 - a raising op is a failed op, not a crash
        elapsed = time.perf_counter() - start
        outputs.failed_op(exc)
        return elapsed
    elapsed = time.perf_counter() - start
    outputs.add(workload, result)
    return elapsed


def warm_up(workload, outputs, tracer=None) -> int:
    """Discarded ops for WARMUP_SECONDS (at least one; traced too when tracing)."""
    count = 0
    until = time.perf_counter() + WARMUP_SECONDS
    while count == 0 or time.perf_counter() < until:
        hostspeed.reference_op()
        run_op(workload, outputs)
        count += 1
        if tracer is not None:
            traced_op(workload, outputs, tracer, -1)
            count += 1
    return count


def traced_op(workload, outputs, tracer, op_id) -> float:
    tracer.op_id = op_id
    patched = tracing.install(tracer)
    try:
        return run_op(workload, outputs)
    finally:
        tracing.remove(patched)


def peak_bytes_probe(workload, outputs) -> int:
    """Peak bytes the program allocates during one op, NumPy buffers included."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run_op(workload, outputs)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def layer_metrics(tracer, op_ids, untraced_times, traced_times, peak):
    """Per-layer values (medians over traced ops), the spans that never fired, all spans."""
    spans = tracer.arrays()
    totals = tracing.per_op_totals(spans, op_ids)

    def secs(*names):
        return _median([sum(v) for v in zip(*(totals[n]["s"] for n in names))])

    def calls(*names):
        return _median([sum(v) for v in zip(*(totals[n]["calls"] for n in names))])

    def counter(key):
        return _median([tracer.counters.get(op, {}).get(key, 0.0) for op in op_ids])

    walker = [n for n in tracing.SPAN_NAMES if n.startswith("walker.")]
    walks = calls("walker.run_sequence", "walker.evolve")
    out = {}
    for name in PLAIN_SPANS:
        out[name + "_s"] = secs(name)
        out[name + "_calls"] = calls(name)
    out.update({
        "operators.toss_self_s": secs("operators.toss"),
        "operators.toss_calls": calls("operators.toss"),
        "operators.bytes_moved": counter("operators.bytes_moved"),
        "state.readout_calls": calls("state.distribution", "state.moments"),
        "state.occupied_frac": _median([
            c.get("state.occupied_rows", 0.0) / c["state.stored_rows"]
            for c in (tracer.counters.get(op, {}) for op in op_ids)
            if c.get("state.stored_rows")
        ]),
        "state.peak_bytes": float(peak) if walks else 0.0,
        "walker.self_s": secs(*walker),
        "walker.calls": calls(*walker),
        "walker.walks": walks,
        "classical.mc_draws": counter("classical.mc_draws"),
        "output.csv_bytes": counter("output.csv_bytes"),
        "output.svg_bytes": counter("output.svg_bytes"),
        "cli.self_s": secs("cli.main"),
        "cli.calls": calls("cli.main"),
        "trace.counter_s": secs(tracing.COUNTER_SPAN),
        "trace.ops": float(len(traced_times)),
        "trace.op_s.p50": _median(traced_times),
        "trace.overhead_s": _median(traced_times) - _median(untraced_times),
    })
    never = sorted(n for n in tracing.SPAN_NAMES if not any(totals[n]["calls"]))
    return out, never, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, Path(args.workdir))
    workload.setup()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    outputs = Outputs()
    result = {"ready": ready, "steps_per_op": workload.steps()}
    if not args.trace:
        result["warmup_ops"] = warm_up(workload, outputs)
        times, references = [], []
        deadline = time.perf_counter() + args.seconds
        while time.perf_counter() < deadline:
            references.append(hostspeed.reference_op())
            times.append(run_op(workload, outputs))
        references.append(hostspeed.reference_op())
        result.update(op_times=times, references=references)
    else:
        tracer = tracing.Tracer()
        result["warmup_ops"] = warm_up(workload, outputs, tracer)
        untraced, traced, op_ids = [], [], []
        deadline = time.perf_counter() + args.seconds
        while time.perf_counter() < deadline:
            untraced.append(run_op(workload, outputs))
            op_ids.append(len(op_ids))
            traced.append(traced_op(workload, outputs, tracer, op_ids[-1]))
        leftover = tracing.wrapped_names()
        if leftover:
            raise RuntimeError(f"wrappers left installed: {leftover}")
        peak = peak_bytes_probe(workload, outputs)
        metrics, never, spans = layer_metrics(tracer, op_ids, untraced, traced, peak)
        spans_path = Path(args.workdir) / "spans.npz"
        tracer.save(spans_path)
        result.update(
            op_times=untraced,
            traced_op_times=traced,
            per_layer=metrics,
            never_fired=never,
            spans_file=str(spans_path.relative_to(ROOT)),
            spans=int(spans["name"].size),
        )
    result["attempted"] = outputs.attempted
    result["outputs"] = outputs.as_dict()
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
