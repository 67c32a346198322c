"""The layer timer in ``tools/`` runs against this tree's library.

A perf change reads its per-layer numbers from ``tools/layer_bench.py``, which
patches private names of the library.  A rename there would break the timer
only when someone next runs it, so one round runs here, in-process.
"""

from pathlib import Path

import histwalk.analysis as analysis
import histwalk.cli as cli
import histwalk.walker as walker
from histwalk.operators import _Kernel

ROOT = Path(__file__).resolve().parent.parent


def test_one_round_of_the_layer_timer_samples_every_layer_and_restores_what_it_patched(
    monkeypatch,
):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import layer_bench

    monkeypatch.setattr(layer_bench, "OPS", 1)
    patched = [_Kernel, walker, analysis, cli]
    before = [dict(vars(owner)) for owner in patched]

    samples = layer_bench.measure(0)

    assert [dict(vars(owner)) for owner in patched] == before
    assert {"import", "walk_dist", "csv", "peaks", "svg"} <= set(samples)
    assert {layer: len(values) for layer, values in samples.items()} == dict.fromkeys(samples, 1)
    # A timed attribute that the op no longer calls would read 0.
    assert [layer for layer, values in samples.items() if not values[0] > 0] == []
