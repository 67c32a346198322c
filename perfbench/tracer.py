"""Spans recorded around calls into histwalk's public functions.

The program is not edited: :func:`install` replaces each wrapped function in
every ``histwalk`` module namespace where callers look it up (for example
``histwalk.walker.toss`` and ``histwalk.cli.write_csv``) and :func:`remove`
puts the originals back.  Spans live in flat typed arrays in memory (name,
start, end, parent, op id) and are written out once, at the end of a run.
Counters (bytes, rows) are recorded at the same boundaries; the time spent
computing them is its own ``trace.counter`` span, so it is subtracted from
the self time of the layer that contains it.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array

import numpy as np

# (span name, defining module, function name).  Every histwalk module
# namespace that holds the same function object gets the wrapper.
TARGETS = (
    ("operators.flip", "histwalk.operators", "apply_conditional_flip"),
    ("operators.shift", "histwalk.operators", "apply_shift"),
    ("operators.reorder", "histwalk.operators", "apply_reorder"),
    ("operators.toss", "histwalk.operators", "toss"),
    ("state.distribution", "histwalk.state", "position_distribution"),
    ("state.moments", "histwalk.state", "moments"),
    ("walker.run_sequence", "histwalk.walker", "run_sequence"),
    ("walker.scan_sequences", "histwalk.walker", "scan_sequences"),
    ("walker.sweep_parameter", "histwalk.walker", "sweep_parameter"),
    ("walker.build_initial_state", "histwalk.walker", "build_initial_state"),
    ("walker.evolve", "histwalk.walker", "evolve"),
    ("classical.capital", "histwalk.classical", "capital_game_trajectory"),
    ("classical.history", "histwalk.classical", "history_mix_trajectory"),
    ("classical.chain", "histwalk.classical", "classical_mean_trajectory"),
    ("classical.mc", "histwalk.classical", "monte_carlo_trajectory"),
    ("config.parse", "histwalk.config", "parse_config"),
    ("analysis.smooth", "histwalk.analysis", "smooth_distribution"),
    ("analysis.peaks", "histwalk.analysis", "find_peaks"),
    ("output.csv", "histwalk.output", "write_csv"),
    ("output.svg", "histwalk.output", "emit_svg_plot"),
    ("cli.main", "histwalk.cli", "main"),
)
COUNTER_SPAN = "trace.counter"
SPAN_NAMES = tuple(name for name, _, _ in TARGETS) + (COUNTER_SPAN,)
_BYTES_MOVED = ("operators.flip", "operators.shift", "operators.reorder")


class Tracer:
    """In-memory span store plus per-op counters.

    ``clock`` returns integer nanoseconds; tests pass a fake one.  Set
    ``op_id`` before each op so its spans and counters can be grouped.
    """

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.codes = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.name = array("h")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.stack: list[int] = []
        self.op_id = -1
        self.counters: dict[int, dict[str, float]] = {}

    def begin(self, name: str) -> int:
        index = len(self.name)
        self.name.append(self.codes[name])
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        self.stack.append(index)
        self.start.append(self.clock())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = self.clock()
        self.stack.pop()

    def count(self, key: str, value: float) -> None:
        per_op = self.counters.setdefault(self.op_id, {})
        per_op[key] = per_op.get(key, 0.0) + value

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int16).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        """Write every span as compressed arrays plus the name table."""
        np.savez_compressed(path, names=np.array(SPAN_NAMES), **self.arrays())


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Each span's duration minus the durations of its direct children, in seconds."""
    duration = (spans["end"] - spans["start"]).astype(np.float64)
    child = np.zeros_like(duration)
    parent = spans["parent"]
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], duration[has_parent])
    return (duration - child) * 1e-9


def per_op_totals(spans: dict[str, np.ndarray], ops) -> dict[str, dict[str, np.ndarray]]:
    """For each span name: per-op summed self seconds and call counts, in ``ops`` order."""
    own = self_times(spans)
    ops = np.asarray(list(ops), dtype=np.int64)
    order = np.argsort(ops)
    pos = np.searchsorted(ops[order], spans["op"])
    pos = np.minimum(pos, len(ops) - 1)
    known = ops[order][pos] == spans["op"]
    slot = order[pos]
    out = {}
    for code, name in enumerate(SPAN_NAMES):
        mask = known & (spans["name"] == code)
        out[name] = {
            "s": np.bincount(slot[mask], weights=own[mask], minlength=len(ops)),
            "calls": np.bincount(slot[mask], minlength=len(ops)).astype(float),
        }
    return out


def _count_after(tracer: Tracer, name: str, func, result, args, kwargs) -> None:
    if name in _BYTES_MOVED:
        # Computed from array sizes, not measured: input plus output amplitudes.
        tracer.count("operators.bytes_moved", args[0].amplitudes.nbytes + result.amplitudes.nbytes)
    elif name in ("classical.mc", "output.csv", "output.svg"):
        bound = inspect.signature(func).bind(*args, **kwargs).arguments
        if name == "classical.mc":
            # Computed: one initial-state draw plus one draw per step, per trajectory.
            tracer.count("classical.mc_draws", bound["n_trajectories"] * (bound["steps"] + 1))
        elif name == "output.csv":
            if bound.get("path") is not None:
                tracer.count("output.csv_bytes", os.path.getsize(bound["path"]))
        else:
            tracer.count("output.svg_bytes", os.path.getsize(bound["out_path"]))


def _wrap(tracer: Tracer, name: str, func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        index = tracer.begin(name)
        try:
            if name == "operators.toss":
                counter = tracer.begin(COUNTER_SPAN)
                amplitudes = args[0].amplitudes
                tracer.count("state.occupied_rows", np.count_nonzero(np.any(amplitudes, axis=1)))
                tracer.count("state.stored_rows", amplitudes.shape[0])
                tracer.finish(counter)
            result = func(*args, **kwargs)
            counter = tracer.begin(COUNTER_SPAN)
            _count_after(tracer, name, func, result, args, kwargs)
            tracer.finish(counter)
            return result
        finally:
            tracer.finish(index)

    wrapper.__perfbench_original__ = func
    return wrapper


def _histwalk_modules():
    return [
        module
        for mod_name, module in list(sys.modules.items())
        if module is not None and mod_name.split(".")[0] == "histwalk"
    ]


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every target wherever a histwalk module refers to it; returns the undo list."""
    patched = []
    modules = _histwalk_modules()
    for name, module_name, attr in TARGETS:
        if module_name not in sys.modules:
            continue  # never imported, so its spans cannot fire
        original = getattr(sys.modules[module_name], attr)
        wrapper = _wrap(tracer, name, original)
        for module in modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)
                patched.append((module, attr, original))
    return patched


def remove(patched) -> None:
    """Restore the original functions recorded by :func:`install`."""
    for module, attr, original in reversed(patched):
        setattr(module, attr, original)


def wrapped_names() -> list[str]:
    """Attributes of histwalk modules that still hold a wrapper (empty when clean)."""
    return [
        f"{module.__name__}.{attr}"
        for module in _histwalk_modules()
        for attr, value in vars(module).items()
        if hasattr(value, "__perfbench_original__")
    ]
