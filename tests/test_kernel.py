"""The fused evolution kernel against the specification layer.

The kernel rotates the register by where it writes each step, works only on
the occupied band of rows and reads moments straight from the band.  Every
test here compares it with the readable per-step functions (:func:`toss`,
:func:`position_distribution`, :func:`moments`) or the dense oracle: moments
within 1e-10, amplitudes within 1e-12, and CLI output byte for byte.  Over a
full rotation cycle its amplitudes equal those of :func:`toss` bit for bit.
Scans and sweeps step walks on the kernel's batch axis, and
:func:`final_distribution` and :func:`evolve` step one; all of them share
one loop, which checks every norm after every step, and read the band out
only after the last step.  Scan and sweep results equal those
of :func:`run_sequence` bit for bit, and :func:`final_distribution` equals
:func:`position_distribution` of the :func:`toss` loop's state bit for bit,
as do ``walk dist``'s files.  The step's
small ufunc buffers change no result, allocate little and are not seen
outside the step.
The band's readout and :func:`position_distribution` sum with one helper, so
their probabilities agree bit for bit; both lie within a stated tolerance of
exact sums, and the readout makes no temporary of the band's size.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import histwalk.cli
import histwalk.operators
import histwalk.state
import histwalk.walker
from histwalk.analysis import analyze_peaks
from histwalk.cli import main
from histwalk.config import parse_config
from histwalk.operators import (
    HistoryRhoTable,
    _Kernel,
    all_histories,
    toss,
)
from histwalk.output import emit_svg_plot, write_csv
from histwalk.state import (
    HorizonError,
    MemoryLimitError,
    Moments,
    NormalizationError,
    ProbabilityDistribution,
    WalkState,
    _distribution,
    _readout,
    _readouts,
    _register_probabilities,
    _walk_bytes,
    index_to_coins,
    moments,
    new_state,
    position_distribution,
    working_bytes,
)
from histwalk.walker import (
    ALL_R,
    ANTISYMMETRIC,
    build_initial_state,
    evolve,
    evolve_brun,
    final_distribution,
    run_sequence,
    scan_sequences,
    sweep_parameter,
)

from reference import (
    complement,
    dense_evolve,
    dense_step_matrix,
    register_probabilities_by_modulus,
    register_probabilities_exact,
)
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

MOMENT_TOL = 1e-10
AMPLITUDE_TOL = 1e-12


def spec_walk(initial, tables, pattern, steps):
    """States after 0..steps tosses by the specification step, or up to a HorizonError.

    Returns the states and the step that raised (None if none did).
    """
    states = [initial.copy()]
    for t in range(steps):
        try:
            states.append(toss(states[-1], tables[pattern[t % len(pattern)]]))
        except HorizonError:
            return states, t + 1
    return states, None


def spec_csv(path, header, rows):
    write_csv(header, rows, path)
    return path.read_bytes()


@st.composite
def walks(draw, max_coins=6, max_horizon=8):
    """Register size, 1-3 random tables, a pattern over them, an initial state, steps."""
    num_coins = draw(st.integers(1, max_coins))
    half = 1 << (num_coins - 1)
    letters = "ABC"[: draw(st.integers(1, 3))]
    # Retention 1 keeps a walker moving one way and 0 makes it bounce; both
    # drive amplitude to the grid edge, so they are drawn often.
    rho = st.lists(
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        min_size=half, max_size=half,
    )
    tables = {
        letter: HistoryRhoTable(num_coins, dict(zip(all_histories(num_coins), draw(rho))))
        for letter in letters
    }
    pattern = draw(st.text(alphabet=letters, min_size=1, max_size=4))
    t_max = draw(st.integers(1, max_horizon))
    kind = draw(st.sampled_from([ANTISYMMETRIC, ALL_R, "custom", "both parities"]))
    if kind in ("custom", "both parities"):
        # Off-origin entries anywhere on the grid, the edges included.  One
        # entry per (x, register): a later entry would overwrite an earlier
        # one, and the norm below would not be the norm of the built state.
        part = st.floats(-1.0, 1.0, allow_subnormal=False)
        entry = st.tuples(
            st.integers(-t_max, t_max),
            st.integers(0, (1 << num_coins) - 1),
            st.builds(complex, part, part),
        )
        entries = draw(st.lists(entry, min_size=1, max_size=4, unique_by=lambda e: e[:2]))
        if kind == "both parities":
            # One more entry on a site of the other parity than the first.
            x, c, _ = entries[0]
            shift = draw(st.sampled_from([s for s in (-1, 1) if abs(x + s) <= t_max]))
            amplitude = draw(st.builds(complex, part, part).filter(lambda a: abs(a) > 0.1))
            entries = [e for e in entries if e[:2] != (x + shift, c)] + [(x + shift, c, amplitude)]
        assume(sum(abs(a) ** 2 for _, _, a in entries) > 1e-6)
        kind = [(x, index_to_coins(c, num_coins), a) for x, c, a in entries]
    initial = build_initial_state(num_coins, kind, t_max)
    steps = draw(st.integers(0, t_max))
    return initial, tables, pattern, steps


class TestAgainstTheTossLoop:
    @given(walks())
    @settings(deadline=None, max_examples=60)
    def test_run_sequence_and_final_distribution_match_every_step_and_horizon(self, walk):
        initial, tables, pattern, steps = walk
        states, raised_at = spec_walk(initial, tables, pattern, steps)
        if raised_at is not None:
            for call in (run_sequence, final_distribution):
                with pytest.raises(HorizonError):
                    call(initial, tables, pattern, steps)
            return
        trajectory = run_sequence(initial, tables, pattern, steps)
        dists = [position_distribution(state) for state in states]
        stats = [moments(dist) for dist in dists]
        assert np.max(np.abs(trajectory.means - [s.mean for s in stats])) <= MOMENT_TOL
        assert np.max(np.abs(trajectory.stds - [s.std for s in stats])) <= MOMENT_TOL
        for t, dist in enumerate(dists):
            got = final_distribution(initial, tables, pattern, t)
            assert np.array_equal(got.positions, dist.positions)
            assert np.max(np.abs(got.probabilities - dist.probabilities)) <= AMPLITUDE_TOL
        assert trajectory.norm_drift.shape == (steps + 1,)
        assert np.all(trajectory.norm_drift <= 1e-12)

    @given(walks(), st.integers(0, 3))
    @settings(deadline=None, max_examples=60)
    def test_every_step_matches_and_the_horizon_error_comes_at_the_same_step(
        self, walk, extra
    ):
        initial, tables, pattern, steps = walk
        steps = initial.t_max + extra  # far enough to reach the grid edge
        states, raised_at = spec_walk(initial, tables, pattern, steps)
        kernel = _Kernel(initial, [tables[letter] for letter in pattern])
        for t in range(1, steps + 1):
            if t == raised_at:
                with pytest.raises(HorizonError):
                    kernel.step()
                return
            kernel.step()
            got = kernel.state()
            assert got.steps_taken == t
            assert np.max(np.abs(got.amplitudes - states[t].amplitudes)) <= AMPLITUDE_TOL
        assert raised_at is None

    @given(walks())
    @settings(deadline=None, max_examples=40)
    def test_evolve_matches_the_toss_loop_for_each_table(self, walk):
        initial, tables, _, steps = walk
        for letter, table in tables.items():
            states, raised_at = spec_walk(initial, tables, letter, steps)
            if raised_at is not None:
                with pytest.raises(HorizonError):
                    evolve(initial, table, steps)
                continue
            got = evolve(initial, table, steps)
            assert got.steps_taken == initial.steps_taken + steps
            assert np.max(np.abs(got.amplitudes - states[-1].amplitudes)) <= AMPLITUDE_TOL

    def test_input_state_is_left_alone(self):
        initial = build_initial_state(3, ANTISYMMETRIC, t_max=6)
        before = initial.amplitudes.copy()
        evolve(initial, HistoryRhoTable.uniform(3, 0.3), 6)
        run_sequence(initial, {"A": HistoryRhoTable.uniform(3, 0.3)}, "A", 6)
        assert np.array_equal(initial.amplitudes, before)
        assert initial.steps_taken == 0


class TestAgainstTheDenseOracle:
    @given(walks(max_coins=4, max_horizon=5))
    @settings(deadline=None, max_examples=30)
    def test_final_amplitudes_match_dense_steps(self, walk):
        initial, tables, pattern, steps = walk
        _, raised_at = spec_walk(initial, tables, pattern, steps)
        assume(raised_at is None)
        kernel = _Kernel(initial, [tables[letter] for letter in pattern])
        expected = initial.amplitudes
        for t in range(steps):
            kernel.step()
            rho = tables[pattern[t % len(pattern)]].retention_array()
            expected = dense_evolve(expected, initial.num_coins, rho, 1)
        assert np.max(np.abs(kernel.state().amplitudes - expected)) <= AMPLITUDE_TOL


def edge_starts():
    """Every single-site start for M <= 3 and t_max <= 5, with two tables over {0, 0.3, 1}.

    Yields the register size, the horizon, the site, the register and the
    tables A and B, whose entries a seeded generator draws from the three
    values.
    """
    rng = np.random.default_rng(6)
    values = [0.0, 0.3, 1.0]
    for num_coins in (1, 2, 3):
        histories = all_histories(num_coins)
        for t_max in range(1, 6):
            for x in range(-t_max, t_max + 1):
                for column in range(1 << num_coins):
                    tables = {
                        letter: HistoryRhoTable(
                            num_coins, dict(zip(histories, rng.choice(values, len(histories))))
                        )
                        for letter in "AB"
                    }
                    yield num_coins, t_max, x, index_to_coins(column, num_coins), tables


class TestEveryEdgeStart:
    """Walks from every site of small grids, played past the step that leaves the grid."""

    def test_every_step_and_the_horizon_error_match_the_toss_loop(self):
        raised = []
        for num_coins, t_max, x, coins, tables in edge_starts():
            initial = build_initial_state(num_coins, [(x, coins, 1.0)], t_max)
            steps = t_max + 2
            states, raised_at = spec_walk(initial, tables, "AB", steps)
            raised.append(raised_at)
            kernel = _Kernel(initial, [tables["A"], tables["B"]])
            for t in range(1, (raised_at or steps + 1)):
                kernel.step()
                got = kernel.state().amplitudes
                assert np.max(np.abs(got - states[t].amplitudes)) <= AMPLITUDE_TOL
            if raised_at is not None:
                with pytest.raises(HorizonError):
                    kernel.step()
        # The starts reach the edge at every step from the first to the last.
        assert set(raised) == {None, *range(1, 8)}

    def test_starts_on_both_parities_match_dense_steps(self):
        for num_coins, t_max, x, coins, tables in edge_starts():
            if x == t_max:
                continue
            # The site and its right neighbour, with the complemented register.
            entries = [(x, coins, 0.6), (x + 1, complement(coins), 0.8j)]
            initial = build_initial_state(num_coins, entries, t_max)
            states, raised_at = spec_walk(initial, tables, "AB", t_max + 2)
            steps = len(states) - 1
            kernel = _Kernel(initial, [tables["A"], tables["B"]])
            assert kernel.psi.shape[1] == 2
            matrices = [
                dense_step_matrix(num_coins, t_max, tables[letter].retention_array())
                for letter in "AB"
            ]
            expected = initial.amplitudes.reshape(-1)
            for t in range(steps):
                kernel.step()
                expected = matrices[t % 2] @ expected
            got = kernel.state().amplitudes
            assert np.max(np.abs(got - expected.reshape(got.shape))) <= AMPLITUDE_TOL
            if raised_at is not None:
                with pytest.raises(HorizonError):
                    kernel.step()


class TestRelabeling:
    """The register rotation, which each step does by where it writes, and the band."""

    @pytest.mark.parametrize("num_coins", [1, 2, 3, 5])
    @pytest.mark.parametrize("start", ["origin", "both parities"])
    def test_every_step_of_two_rotation_cycles_equals_the_toss_loop_bit_for_bit(
        self, num_coins, start
    ):
        steps = 2 * num_coins
        tables = random_tables(num_coins, "AB", num_coins)
        if start == "origin":
            initial = build_initial_state(num_coins, ANTISYMMETRIC, t_max=steps)
        else:
            # Every register column at sites 0 and 1, with random amplitudes.
            rng = np.random.default_rng(num_coins)
            entries = [
                (x, index_to_coins(column, num_coins), complex(*rng.normal(size=2)))
                for x in (0, 1)
                for column in range(1 << num_coins)
            ]
            initial = build_initial_state(num_coins, entries, t_max=steps + 1)
        states, raised_at = spec_walk(initial, tables, "AAB", steps)
        assert raised_at is None
        kernel = _Kernel(initial, [tables[letter] for letter in "AAB"])
        for t in range(1, steps + 1):
            kernel.step()
            assert np.array_equal(kernel.state().amplitudes, states[t].amplitudes)

    def test_band_grows_one_row_per_side_and_stops_at_the_grid(self):
        initial = build_initial_state(2, [(2, "LR", 1.0)], t_max=4)
        kernel = _Kernel(initial, [HistoryRhoTable.uniform(2)])
        bands = [(kernel.lo, kernel.hi)]
        for _ in range(2):
            kernel.step()
            bands.append((kernel.lo, kernel.hi))
        assert bands == [(6, 7), (5, 8), (4, 9)]


class TestBrunCycles:
    def test_brun_toss_is_toss_with_a_uniform_table(self):
        # Four steps taken select cycle entry 4 % 3 = 1.
        state = build_initial_state(3, ANTISYMMETRIC, t_max=5)
        state.steps_taken = 4
        via_brun = evolve_brun(state, (0.2, 0.5, 0.9), 1)
        via_toss = toss(state, HistoryRhoTable.uniform(3, 0.5))
        assert np.array_equal(via_brun.amplitudes, via_toss.amplitudes)

    def test_evolve_brun_follows_steps_taken_like_brun_toss(self):
        coins = (0.2, 0.7, 0.9)
        initial = build_initial_state(3, ANTISYMMETRIC, t_max=12)
        start = evolve(initial, HistoryRhoTable.uniform(3), 2)
        expected = start
        for _ in range(10):
            rho = coins[expected.steps_taken % len(coins)]
            expected = toss(expected, HistoryRhoTable.uniform(3, rho))
        got = evolve_brun(start, coins, 10)
        assert got.steps_taken == expected.steps_taken == 12
        assert np.max(np.abs(got.amplitudes - expected.amplitudes)) <= AMPLITUDE_TOL


class TestNormDrift:
    def _random_games(self, num_coins, seed):
        rho = np.random.default_rng(seed).uniform(0.3, 0.7, 1 << (num_coins - 1))
        return {
            "A": HistoryRhoTable.uniform(num_coins, 0.5),
            "B": HistoryRhoTable(num_coins, dict(zip(all_histories(num_coins), rho))),
        }

    @pytest.mark.parametrize("num_coins, steps", [(8, 200), (3, 1000)])
    def test_stays_below_1e_12_on_long_walks(self, num_coins, steps):
        initial = build_initial_state(num_coins, ANTISYMMETRIC, t_max=steps)
        trajectory = run_sequence(initial, self._random_games(num_coins, 7), "AAB", steps)
        assert trajectory.norm_drift.shape == (steps + 1,)
        assert np.max(trajectory.norm_drift) <= 1e-12

    def test_stays_below_1e_12_over_a_pattern_scan(self):
        games = self._random_games(3, 11)
        initial = build_initial_state(3, ANTISYMMETRIC, t_max=60)
        for pattern in ("A", "B", "AB", "AAB", "ABBA", "BBABA"):
            trajectory = run_sequence(initial, games, pattern, 60)
            assert np.max(trajectory.norm_drift) <= 1e-12


class TestWorkingBytes:
    """The memory guard charges at least what a walk allocates, its input state included.

    A start whose entries share one parity, as every origin start does, is
    charged one parity sublattice; a start on both parities, and
    :func:`new_state`, two.
    """

    @pytest.mark.parametrize("num_coins, steps", [(8, 200), (3, 1000), (10, 100)])
    @pytest.mark.parametrize(
        "call",
        [
            "run", "final distribution", "evolve",
            "run both parities", "final distribution both parities", "evolve both parities",
        ],
    )
    def test_the_traced_peak_stays_within_working_bytes(self, num_coins, steps, call):
        games = random_tables(num_coins, "AB", 7)
        tracemalloc.start()
        try:
            if "both parities" in call:
                # Sites 0 and 1 reach the grid edge at step t_max, so stop one short.
                entries = [(0, "L" * num_coins, 0.6), (1, "R" * num_coins, 0.8)]
                initial = build_initial_state(num_coins, entries, steps)
                taken = steps - 1
            else:
                initial = build_initial_state(num_coins, ANTISYMMETRIC, steps)
                taken = steps
            if call.startswith("evolve"):
                evolve(initial, games["B"], taken)
            elif call.startswith("final distribution"):
                final_distribution(initial, games, "AAB", taken)
            else:
                run_sequence(initial, games, "AAB", taken)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        sublattices = 2 if "both parities" in call else 1
        assert peak <= _walk_bytes(num_coins, steps, sublattices)

    @pytest.mark.parametrize("num_coins, steps", [(8, 200), (3, 1000), (10, 100)])
    def test_a_start_on_one_parity_is_charged_one_sublattice(self, monkeypatch, num_coins, steps):
        # Physical memory between the two charges: walks on one parity fit,
        # walks on both parities and bare grids are refused before allocating.
        one, two = _walk_bytes(num_coins, steps, 1), _walk_bytes(num_coins, steps, 2)
        assert one < two
        monkeypatch.setattr(histwalk.state, "physical_memory_bytes", lambda: (one + two) // 2)
        for kind in (ANTISYMMETRIC, ALL_R, [(-2, "L" * num_coins, 0.6), (4, "R" * num_coins, 0.8)]):
            assert build_initial_state(num_coins, kind, steps).t_max == steps
        both = [(0, "L" * num_coins, 0.6), (1, "R" * num_coins, 0.8)]
        for allocate in (lambda: build_initial_state(num_coins, both, steps),
                         lambda: new_state(num_coins, steps)):
            with pytest.raises(MemoryLimitError, match="physical memory"):
                allocate()


class TestCliOutputIsUnchanged:
    """The CLI's output bytes equal those written from the specification loop.

    ``walk dist`` reads its walk out through :func:`final_distribution`; its
    CSV, peak CSV and plot also equal those written from that call.
    """

    CONFIG = (
        "M = {m}\nT = {steps}\npattern = AAB\n"
        "games.A.rho.default = 0.5\n"
        "games.B.rho.default = 0.45\n{override}"
    )
    # Sites of both parities, each at least three sites inside the grid
    # when the horizon is three more than the step count.
    BOTH_PARITIES = [(-3, "LRLRL", 0.6), (0, "RRLLR", 0.5j), (2, "RRRRR", -0.8 + 0.1j)]

    def _setup(self, tmp_path, num_coins, steps, initial=None):
        # M = 1 has one history, "", which only the default names.
        key = "R" * (num_coins - 1)
        override = f"games.B.rho.{key} = 0.62\n" if key else ""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            self.CONFIG.format(m=num_coins, steps=steps, override=override), encoding="utf-8"
        )
        tables = {
            "A": HistoryRhoTable.uniform(num_coins, 0.5),
            "B": HistoryRhoTable.with_overrides(num_coins, 0.45, {key: 0.62} if key else {}),
        }
        if initial is None:
            initial = build_initial_state(num_coins, ANTISYMMETRIC, t_max=steps)
        states, raised_at = spec_walk(initial, tables, "AAB", steps)
        assert raised_at is None
        return str(cfg), tables, states

    @pytest.mark.parametrize("num_coins, steps", [(3, 300), (5, 120)])
    def test_walk_run_csv_is_byte_identical(self, tmp_path, num_coins, steps):
        cfg, _, states = self._setup(tmp_path, num_coins, steps)
        out = tmp_path / "run.csv"
        assert main(["walk", "run", "--config", cfg, "--out", str(out)]) == 0
        stats = [moments(position_distribution(state)) for state in states]
        rows = [(t, s.mean, s.std) for t, s in enumerate(stats)]
        assert out.read_bytes() == spec_csv(tmp_path / "spec.csv", ("t", "mean", "std"), rows)

    @pytest.mark.parametrize(
        "num_coins, steps, start",
        [(3, 300, None), (5, 120, None), (1, 200, None), (3, 0, None), (5, 120, "both parities")],
    )
    def test_walk_dist_csv_is_byte_identical(self, tmp_path, monkeypatch, num_coins, steps, start):
        initial = None
        if start == "both parities":
            initial = build_initial_state(num_coins, self.BOTH_PARITIES, steps + 3)
            monkeypatch.setattr(histwalk.cli, "build_initial_state", lambda *_: initial.copy())
        cfg, tables, states = self._setup(tmp_path, num_coins, steps, initial)
        cli, want = tmp_path / "cli", tmp_path / "want"
        cli.mkdir()
        want.mkdir()
        # Peaks are refused on a distribution over both parities.
        names = ["dist.csv", "dist.svg"] + ([] if start == "both parities" else ["peaks.csv"])
        argv = ["walk", "dist", "--config", cfg, "--out", str(cli / "dist.csv"),
                "--emit-plot", str(cli / "dist.svg")]
        if "peaks.csv" in names:
            argv += ["--peaks", str(cli / "peaks.csv")]
        assert main(argv) == 0
        dist = position_distribution(states[-1])
        rows = zip(dist.positions, dist.probabilities)
        assert (cli / "dist.csv").read_bytes() == spec_csv(tmp_path / "spec.csv", ("x", "p"), rows)
        # The files written from the library's final_distribution.
        config = parse_config((tmp_path / "run.cfg").read_text(encoding="utf-8"))
        dist = final_distribution(states[0], tables, "AAB", steps)
        write_csv(("x", "p"), zip(dist.positions, dist.probabilities), want / "dist.csv")
        if "peaks.csv" in names:
            report = analyze_peaks(dist, config.window, config.prominence)
            write_csv(("position", "height"), report.peaks, want / "peaks.csv")
        emit_svg_plot([want / "dist.csv"], want / "dist.svg", style="scatter")
        assert sorted(path.name for path in cli.iterdir()) == sorted(names)
        for name in names:
            assert (cli / name).read_bytes() == (want / name).read_bytes(), name


def entry_bytes(num_coins, steps):
    """Bytes of one batch entry's amplitude buffer for a scan or sweep of ``steps``.

    Origin starts occupy one sublattice of ``t_max + 2`` compact rows.
    """
    return (1 << num_coins) * (steps + 2) * 16


def chunked(monkeypatch, num_coins, steps, per_chunk):
    """Make scans and sweeps step ``per_chunk`` entries at a time."""
    budget = per_chunk * entry_bytes(num_coins, steps) + entry_bytes(num_coins, steps) // 2
    monkeypatch.setattr(histwalk.walker, "_CHUNK_BYTES", budget)
    initial = build_initial_state(num_coins, ANTISYMMETRIC, t_max=steps)
    assert histwalk.walker._CHUNK_BYTES // _Kernel.entry_bytes(initial) == per_chunk


def random_tables(num_coins, letters, seed):
    rng = np.random.default_rng(seed)
    return {
        letter: HistoryRhoTable(
            num_coins, dict(zip(all_histories(num_coins), rng.uniform(0, 1, 1 << (num_coins - 1))))
        )
        for letter in letters
    }


class TestBatchedScansAndSweeps:
    @given(
        num_coins=st.integers(1, 5),
        letters=st.sampled_from(["A", "AB", "ABC"]),
        max_len=st.integers(1, 4),
        steps=st.integers(0, 30),
        per_chunk=st.integers(1, 7),
        seed=st.integers(0, 2**32 - 1),
    )
    # T = 0: two compact rows per entry, where three would fit two entries per chunk.
    @example(num_coins=2, letters="AB", max_len=2, steps=0, per_chunk=1, seed=0)
    @settings(deadline=None, max_examples=25)
    def test_scan_means_equal_single_walks_bit_for_bit(
        self, num_coins, letters, max_len, steps, per_chunk, seed
    ):
        tables = random_tables(num_coins, letters, seed)
        with pytest.MonkeyPatch.context() as patch:
            chunked(patch, num_coins, steps, per_chunk)
            got = scan_sequences(tables, max_len, num_coins, steps)
        initial = build_initial_state(num_coins, ANTISYMMETRIC, t_max=steps)
        want = {p: run_sequence(initial, tables, p, steps).means[-1] for p in got}
        assert len(got) == sum(len(letters) ** k for k in range(1, max_len + 1))
        assert got == want

    @pytest.mark.parametrize("per_chunk", [1, 2, 3, 100])
    def test_sweep_moments_equal_single_walks_bit_for_bit(self, monkeypatch, per_chunk):
        table = random_tables(3, "B", 5)["B"]
        grid = np.linspace(0.0, 1.0, 7)
        chunked(monkeypatch, 3, 25, per_chunk)
        got = sweep_parameter(table, "RL", grid, 25, ALL_R)
        initial = build_initial_state(3, ALL_R, t_max=25)
        for rho, (got_rho, stat) in zip(grid, got):
            trajectory = run_sequence(initial, {"X": table.replaced("RL", rho)}, "X", 25)
            assert got_rho == rho
            assert (stat.mean, stat.std) == (trajectory.means[-1], trajectory.stds[-1])

    @pytest.mark.parametrize(
        "start",
        [
            [(1, "RLL", 1.0)],
            [(-2, "LRR", 0.6), (-2, "RRL", 0.8j)],
            [(1, "LLL", 0.6), (-2, "RRR", -0.8)],
        ],
    )
    def test_scans_and_sweeps_from_off_origin_starts_equal_single_walks(self, start):
        tables = random_tables(3, "AB", 4)
        steps = 12
        # The grid scans and sweeps size: the steps plus the start's largest |x|.
        initial = build_initial_state(3, start, t_max=steps + max(abs(x) for x, _, _ in start))
        scan = scan_sequences(tables, 3, 3, steps, start)
        assert scan == {p: run_sequence(initial, tables, p, steps).means[-1] for p in scan}
        grid = [0.0, 0.3, 1.0]
        sweep = sweep_parameter(tables["B"], "RL", grid, steps, start)
        for rho, (got_rho, stat) in zip(grid, sweep):
            trajectory = run_sequence(initial, {"X": tables["B"].replaced("RL", rho)}, "X", steps)
            assert (got_rho, stat.mean, stat.std) == (rho, trajectory.means[-1], trajectory.stds[-1])

    @pytest.mark.parametrize("phases", [1, 2, 7])
    @pytest.mark.parametrize("per_chunk", [2, 5, 100])
    def test_scans_gathered_in_blocks_shorter_than_the_period_equal_single_walks(
        self, monkeypatch, phases, per_chunk
    ):
        # Patterns of up to 4 letters have periods up to lcm(1..4) = 12 per chunk.
        tables = random_tables(3, "AB", 8)
        periods = []

        def short_block(kernel):
            periods.append(kernel.period)
            return phases

        monkeypatch.setattr(_Kernel, "_block_phases", short_block)
        chunked(monkeypatch, 3, 30, per_chunk)
        got = scan_sequences(tables, 4, 3, 30)
        initial = build_initial_state(3, ANTISYMMETRIC, t_max=30)
        assert got == {p: run_sequence(initial, tables, p, 30).means[-1] for p in got}
        # Some chunk's period is longer than a block, so its blocks came round.
        assert max(periods) > phases

    @pytest.mark.parametrize(
        "kind, patterns, left, right",
        [
            (ANTISYMMETRIC, ["A", "AC", "CA", "C"], True, True),
            (ANTISYMMETRIC, ["A", "B", "AC"], False, False),
            (ALL_R, ["C", "A", "CA"], False, True),
            ([(0, "LLL", 1.0)], ["C", "A", "CA"], True, False),
        ],
        ids=["every end row nonzero", "both end rows of B zero", "left end row of A zero",
             "right end row of A zero"],
    )
    def test_the_chunk_readout_equals_readout_of_each_entry_bit_for_bit(
        self, monkeypatch, kind, patterns, left, right
    ):
        # Always keeping (rho = 1), a register moves one way for good, so from
        # the antisymmetric start the all-L and all-R registers reach both end
        # rows, and from all R (or all L) the walk keeps to the right (left)
        # end.  Always flipping (rho = 0), no register reaches either end.
        tables = random_tables(3, "C", 3)
        tables.update(A=HistoryRhoTable.uniform(3, 1.0), B=HistoryRhoTable.uniform(3, 0.0))
        initial = build_initial_state(3, kind, t_max=20)
        kernel = _Kernel(initial, *[[tables[letter] for letter in p] for p in patterns])
        for _ in range(20):
            kernel.step()
        first, stride, p = kernel.probabilities()
        assert (stride, bool(p[:, 0].all()), bool(p[:, -1].all())) == (2, left, right)
        one_by_one = []
        monkeypatch.setattr(
            histwalk.state, "_readout",
            lambda *args: one_by_one.append(args) or _readout(*args),
        )
        got = _readouts(first, stride, p, initial.t_max)
        assert len(one_by_one) == (0 if left and right else len(patterns))
        assert got == [_readout(first, stride, entry, initial.t_max) for entry in p]

    def test_the_chunk_readout_takes_stride_1_rows_one_by_one(self):
        # Nonzero end rows make a stride-2 band every row's support, but not
        # stride-1 rows: the first row's support is the sites of one parity.
        p = np.array([[0.2, 0.0, 0.3, 0.0, 0.5], [0.1, 0.2, 0.3, 0.2, 0.2]])
        assert _readouts(4, 1, p, 6) == [_readout(4, 1, entry, 6) for entry in p]

    def test_a_scan_with_exactly_zero_end_rows_equals_single_walks(self):
        # A chunk that holds "B" (always flip) takes the entry-by-entry readout.
        tables = {"A": HistoryRhoTable.uniform(3, 1.0), "B": HistoryRhoTable.uniform(3, 0.0)}
        tables.update(random_tables(3, "C", 6))
        for kind in (ANTISYMMETRIC, ALL_R):
            got = scan_sequences(tables, 3, 3, 15, kind)
            initial = build_initial_state(3, kind, t_max=15)
            for pattern, mean in got.items():
                trajectory = run_sequence(initial, tables, pattern, 15)
                assert mean == trajectory.means[-1], pattern

    def test_batched_final_amplitudes_match_dense_steps(self):
        tables = random_tables(3, "AB", 9)
        patterns = ["A", "AB", "BBA", "ABAB"]
        initial = build_initial_state(3, ANTISYMMETRIC, t_max=6)
        kernel = _Kernel(initial, *[[tables[letter] for letter in p] for p in patterns])
        for _ in range(6):
            kernel.step()
        for entry, pattern in enumerate(patterns):
            expected = initial.amplitudes
            for t in range(6):
                rho = tables[pattern[t % len(pattern)]].retention_array()
                expected = dense_evolve(expected, 3, rho, 1)
            got = kernel.state(entry)
            assert got.steps_taken == 6
            assert np.max(np.abs(got.amplitudes - expected)) <= AMPLITUDE_TOL

    def test_a_norm_lost_mid_walk_is_caught_at_that_step(self, monkeypatch):
        step = _Kernel.step
        calls = []

        def leaky_step(kernel):
            step(kernel)
            calls.append(kernel.steps)
            if kernel.steps == 3:
                kernel.psi[-1] *= 1.001  # only the chunk's last entry leaks

        monkeypatch.setattr(_Kernel, "step", leaky_step)
        with pytest.raises(NormalizationError, match="norm"):
            scan_sequences(random_tables(3, "AB", 1), 2, 3, 10)
        assert calls == [1, 2, 3]


class TestStepCount:
    """One kernel step serves a whole chunk, so scans make few NumPy calls."""

    @pytest.fixture
    def counted(self, monkeypatch):
        step = _Kernel.step
        calls = []

        def counting_step(kernel):
            calls.append(len(kernel.entries))
            step(kernel)

        monkeypatch.setattr(_Kernel, "step", counting_step)
        return calls

    def test_a_scan_steps_once_per_chunk_and_step(self, counted, monkeypatch):
        # 62 patterns, of which 52 are primitive: the 10 repeats of one letter
        # and ABAB, BABA are not stepped.
        chunked(monkeypatch, 3, 60, 20)
        scan_sequences(random_tables(3, "AB", 2), 5, 3, 60)
        assert len(counted) == 3 * 60
        assert sum(counted) == 60 * 52

    def test_the_default_budget_steps_a_five_letter_scan_in_one_chunk(self, counted):
        # The 52 primitive patterns of 7,936 B each fit in 512 KiB.
        scan_sequences(random_tables(3, "AB", 2), 5, 3, 60)
        assert counted == [52] * 60

    def test_the_default_budget_steps_a_long_sweep_in_six_chunks(self, counted):
        # At M=3, T=1000 an entry holds 128,256 B, so 4 fit in 512 KiB and 21
        # grid points take ceil(21 / 4) = 6 chunks.
        table = random_tables(3, "B", 2)["B"]
        sweep_parameter(table, "RL", np.linspace(0.0, 1.0, 21), 1000)
        assert counted == [4] * (5 * 1000) + [1] * 1000

    def test_a_single_walk_steps_once_per_step(self, counted):
        initial = build_initial_state(3, ANTISYMMETRIC, t_max=60)
        run_sequence(initial, random_tables(3, "AB", 2), "AAB", 60)
        assert counted == [1] * 60


def leak_at(monkeypatch, step_number, entry=-1):
    """Make ``_Kernel.step`` scale one batch entry's amplitudes by 1.001 at ``step_number``.

    Returns the list of steps taken, which grows as the kernel steps.
    """
    step = _Kernel.step
    taken = []

    def leaky_step(kernel):
        step(kernel)
        taken.append(kernel.steps)
        if kernel.steps == step_number:
            kernel.psi[entry] *= 1.001

    monkeypatch.setattr(_Kernel, "step", leaky_step)
    return taken


def count_kernel_calls(monkeypatch):
    """Count calls of the kernel's step, norms and probabilities and of ``walker._readout``.

    Returns the counts by name, which grow as the calls are made.
    """
    counts = {"step": 0, "norms": 0, "probabilities": 0, "readout": 0}

    def counting(name, function):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return wrapper

    for name in ("step", "norms", "probabilities"):
        monkeypatch.setattr(_Kernel, name, counting(name, getattr(_Kernel, name)))
    monkeypatch.setattr(histwalk.walker, "_readout", counting("readout", histwalk.walker._readout))
    return counts


class TestFinalDistribution:
    """One walk in the read-once loop, read out once, after the last step."""

    @given(walks(max_horizon=30))
    @example(
        walk=(build_initial_state(1, ANTISYMMETRIC, 5), {"A": HistoryRhoTable.uniform(1)}, "A", 0)
    )
    @settings(deadline=None, max_examples=60)
    def test_equals_the_toss_loop_distribution_bit_for_bit(self, walk):
        initial, tables, pattern, steps = walk
        states, raised_at = spec_walk(initial, tables, pattern, steps)
        if raised_at is not None:
            with pytest.raises(HorizonError):
                final_distribution(initial, tables, pattern, steps)
            return
        want = position_distribution(states[-1])
        got = final_distribution(initial, tables, pattern, steps)
        assert np.array_equal(got.positions, want.positions)
        assert np.array_equal(got.probabilities, want.probabilities)

    def test_input_state_is_left_alone(self):
        initial = build_initial_state(3, ANTISYMMETRIC, t_max=6)
        before = initial.amplitudes.copy()
        final_distribution(initial, {"A": HistoryRhoTable.uniform(3, 0.3)}, "A", 6)
        assert np.array_equal(initial.amplitudes, before)
        assert initial.steps_taken == 0

    @pytest.mark.parametrize(
        "games, pattern, steps, t_max, error",
        [
            ({}, "A", 3, 5, ValueError),
            ({"A": 0.5}, "A", 3, 5, TypeError),
            ({"AB": HistoryRhoTable.uniform(3, 0.5)}, "A", 3, 5, ValueError),
            ({"A": HistoryRhoTable.uniform(3, 0.5)}, "", 3, 5, ValueError),
            ({"A": HistoryRhoTable.uniform(3, 0.5)}, "AB", 3, 5, ValueError),
            ({"A": HistoryRhoTable.uniform(3, 0.5)}, "A", -1, 5, ValueError),
            ({"A": HistoryRhoTable.uniform(2, 0.5)}, "A", 3, 5, ValueError),
            (
                {"A": HistoryRhoTable.uniform(3, 0.5), "B": HistoryRhoTable.uniform(2, 0.5)},
                "A", 3, 5, ValueError,
            ),
            ({"A": HistoryRhoTable.uniform(3, 0.5)}, "A", 6, 5, HorizonError),
        ],
    )
    def test_bad_arguments_raise_as_in_run_sequence(self, games, pattern, steps, t_max, error):
        initial = build_initial_state(3, ANTISYMMETRIC, t_max=t_max)
        with pytest.raises(error) as want:
            run_sequence(initial, games, pattern, steps)
        with pytest.raises(error) as got:
            final_distribution(initial, games, pattern, steps)
        assert str(got.value) == str(want.value)

    def test_steps_past_the_horizon_of_an_evolved_start_raise(self):
        table = HistoryRhoTable.uniform(2, 0.5)
        initial = evolve(build_initial_state(2, ANTISYMMETRIC, t_max=5), table, 3)
        with pytest.raises(HorizonError, match="steps_taken=3"):
            final_distribution(initial, {"A": table}, "A", 3)
        assert final_distribution(initial, {"A": table}, "A", 2).positions.tolist() == [
            -5, -3, -1, 1, 3, 5,
        ]

    @pytest.mark.parametrize("scale", [2.0, 0.0])
    def test_a_start_whose_norm_is_not_one_is_rejected_at_step_0(self, scale):
        initial = build_initial_state(2, ANTISYMMETRIC, t_max=5)
        initial.amplitudes *= scale
        games = {"A": HistoryRhoTable.uniform(2, 0.5)}
        for call in (run_sequence, final_distribution):
            with pytest.raises(NormalizationError, match=f"state norm is {scale:g},.* at step 0"):
                call(initial, games, "A", 3)

    @pytest.mark.parametrize("step", [0, 3, 10])
    def test_a_lost_norm_is_reported_as_run_sequence_reports_it(self, monkeypatch, step):
        # A leak at step 0 is a start whose norm is not one.
        taken = leak_at(monkeypatch, step)
        initial = build_initial_state(3, ANTISYMMETRIC, t_max=10)
        if step == 0:
            initial.amplitudes *= 1.001
        tables = random_tables(3, "AB", 4)
        walks = [
            lambda: run_sequence(initial, tables, "AAB", 10),
            lambda: final_distribution(initial, tables, "AAB", 10),
            lambda: evolve(initial, tables["A"], 10),
            lambda: evolve_brun(initial, [0.3, 0.6, 0.8], 10),
        ]
        errors = []
        for walk in walks:
            with pytest.raises(NormalizationError) as error:
                walk()
            assert taken == list(range(1, step + 1))
            taken.clear()
            errors.append(str(error.value))
        assert errors == errors[:1] * len(walks)
        assert errors[0].startswith("state norm is 1.001,")
        assert errors[0].endswith(f"expected 1 within 1e-9 at step {step}")

    def test_steps_t_times_and_reads_the_band_out_once(self, monkeypatch):
        counts = count_kernel_calls(monkeypatch)
        initial = build_initial_state(3, ANTISYMMETRIC, t_max=40)
        final_distribution(initial, random_tables(3, "AB", 3), "AAB", 40)
        assert counts == {"step": 40, "norms": 41, "probabilities": 1, "readout": 0}

    def test_walk_dist_steps_t_times_and_reads_the_band_out_once(self, monkeypatch, tmp_path):
        cfg = tmp_path / "dist.cfg"
        cfg.write_text(
            "M = 3\nT = 40\npattern = AAB\n"
            "games.A.rho.default = 0.5\ngames.B.rho.default = 0.45\n",
            encoding="utf-8",
        )
        counts = count_kernel_calls(monkeypatch)
        argv = ["walk", "dist", "--config", str(cfg), "--out", str(tmp_path / "dist.csv")]
        assert main(argv) == 0
        assert counts == {"step": 40, "norms": 41, "probabilities": 1, "readout": 0}


class TestNormErrorsNameTheStep:
    """A lost norm is reported with the step, and in batches with the entry."""

    def test_run_sequence_names_the_step(self, monkeypatch):
        leak_at(monkeypatch, 3)
        initial = build_initial_state(3, ANTISYMMETRIC, t_max=10)
        with pytest.raises(NormalizationError, match=r"state norm is 1\.001,.* at step 3$"):
            run_sequence(initial, random_tables(3, "AB", 4), "AAB", 10)

    def test_a_scan_names_the_step_and_the_pattern_index(self, monkeypatch):
        # Of the 14 patterns up to length 3 the scan steps the 10 primitive
        # ones (A, AAB, AB, ABA, ABB, B, BA, BAA, BAB, BBA) in chunks of four:
        # leak entry 1 of the third chunk, which is primitive pattern 9, BBA.
        chunked(monkeypatch, 3, 10, 4)
        step = _Kernel.step

        def leaky_step(kernel):
            step(kernel)
            if kernel.steps == 3 and len(kernel.entries) == 2:
                kernel.psi[1] *= 1.001

        monkeypatch.setattr(_Kernel, "step", leaky_step)
        with pytest.raises(NormalizationError, match=r"at step 3, batch entry 9$"):
            scan_sequences(random_tables(3, "AB", 1), 3, 3, 10)

    def test_a_sweep_names_the_step_and_the_grid_index(self, monkeypatch):
        leak_at(monkeypatch, 7, entry=2)
        table = random_tables(3, "B", 5)["B"]
        with pytest.raises(NormalizationError, match=r"at step 7, batch entry 2$"):
            sweep_parameter(table, "RL", np.linspace(0.0, 1.0, 4), 10)

    def test_a_scan_chunk_of_one_entry_still_names_the_batch_entry(self, monkeypatch):
        # One primitive pattern per chunk: leak the third chunk's, pattern 2.
        chunked(monkeypatch, 3, 10, 1)
        step, kernels = _Kernel.step, []

        def leaky_step(kernel):
            step(kernel)
            if kernel not in kernels:
                kernels.append(kernel)
            if len(kernels) == 3 and kernel.steps == 3:
                kernel.psi[0] *= 1.001

        monkeypatch.setattr(_Kernel, "step", leaky_step)
        with pytest.raises(NormalizationError, match=r"at step 3, batch entry 2$"):
            scan_sequences(random_tables(3, "AB", 1), 3, 3, 10)
        assert [len(kernel.entries) for kernel in kernels] == [1, 1, 1]


class TestOneNormRule:
    """Walks and :func:`moments` apply one rule: a norm of 1 within 1e-9."""

    @staticmethod
    def start(norm):
        initial = build_initial_state(3, ANTISYMMETRIC, t_max=20)
        initial.amplitudes *= norm
        return initial

    def test_moments_reads_what_a_walk_reads_from_a_start_of_norm_1_plus_9e_10(self):
        tables = random_tables(3, "AB", 4)
        dist = final_distribution(self.start(1 + 9e-10), tables, "AAB", 20)
        assert dist.total() > 1 + 1.7e-9  # beyond 1e-9 of 1: the sum is the norm squared
        trajectory = run_sequence(self.start(1 + 9e-10), tables, "AAB", 20)
        assert moments(dist) == Moments(trajectory.means[-1], trajectory.stds[-1])

    def test_moments_refuses_a_norm_of_1_plus_1_1e_9_as_walks_refuse_the_start(self):
        tables = random_tables(3, "AB", 4)
        for call in (run_sequence, final_distribution):
            with pytest.raises(NormalizationError, match="^state norm is 1.0000000011, .* step 0$"):
                call(self.start(1 + 1.1e-9), tables, "AAB", 20)
        dist = final_distribution(self.start(1.0), tables, "AAB", 20)
        scaled = ProbabilityDistribution(dist.positions, dist.probabilities * (1 + 1.1e-9) ** 2)
        message = "^distribution sums to 1.0000000022, expected norm 1 within 1e-9$"
        with pytest.raises(NormalizationError, match=message):
            moments(scaled)

    def test_a_scan_checks_each_chunk_once_per_step_and_no_entry_again(self, monkeypatch):
        # The 10 primitive patterns of up to 3 letters, in chunks of four:
        # three chunks, each checked at steps 0 to 10.
        chunked(monkeypatch, 3, 10, 4)
        check_norm, checks = histwalk.state._check_norm, []

        def recording_check(norm, step=None, entry=None):
            checks.append(step)
            check_norm(norm, step, entry)

        monkeypatch.setattr(histwalk.state, "_check_norm", recording_check)
        monkeypatch.setattr(histwalk.walker, "_check_norm", recording_check)
        scan_sequences(random_tables(3, "AB", 1), 3, 3, 10)
        assert checks == list(range(11)) * 3

    def test_position_distribution_checks_the_sum_it_returns(self, monkeypatch):
        def no_norm(state):
            raise AssertionError("position_distribution took a norm pass of its own")

        monkeypatch.setattr(WalkState, "norm", no_norm)
        state = build_initial_state(3, ALL_R, t_max=4)
        dist = position_distribution(state)
        assert dist.positions.tolist() == [0] and dist.probabilities[0] == 1.0
        state.amplitudes *= 2.0
        message = "^state norm is 2, expected 1 within 1e-9$"
        with pytest.raises(NormalizationError, match=message):
            position_distribution(state)


# NumPy's ufunc buffer size when nothing has set it, in NumPy 1.x and 2.x.
NUMPY_DEFAULT_BUFSIZE = 8192


def aab_walk(num_coins, steps, initial=None):
    """Final amplitudes, means, stds and norm drift of an ``AAB`` walk."""
    if initial is None:
        initial = build_initial_state(num_coins, ANTISYMMETRIC, t_max=steps)
    tables = random_tables(num_coins, "AB", num_coins)
    with _Kernel(initial, [tables[letter] for letter in "AAB"]) as kernel:
        for _ in range(steps):
            kernel.step()
    trajectory = run_sequence(initial, tables, "AAB", steps)
    return kernel.state().amplitudes, trajectory.means, trajectory.stds, trajectory.norm_drift


def two_parity_walk():
    # Every register column at sites 0 and 1, with random amplitudes; stop
    # one step short of the grid edge.
    rng = np.random.default_rng(5)
    entries = [
        (x, index_to_coins(column, 5), complex(*rng.normal(size=2)))
        for x in (0, 1)
        for column in range(1 << 5)
    ]
    return aab_walk(5, 40, build_initial_state(5, entries, t_max=41))


def scan_means():
    return [np.array(list(scan_sequences(random_tables(3, "AB", 3), 5, 3, 60).values()))]


def final_probabilities():
    initial = build_initial_state(5, ANTISYMMETRIC, t_max=120)
    dist = final_distribution(initial, random_tables(5, "AB", 6), "AAB", 120)
    return dist.positions, dist.probabilities


def sweep_moments():
    table = random_tables(3, "B", 8)["B"]
    sweep = sweep_parameter(table, "RL", np.linspace(0.0, 1.0, 9), 200)
    return [np.array([(rho, stat.mean, stat.std) for rho, stat in sweep])]


def kept(num_coins):
    """Game A: every retossed entry keeps its value."""
    return {"A": HistoryRhoTable.uniform(num_coins, 1.0)}


# Every loop that steps a kernel, called with a start and a step count.
# A scan builds its own origin start of the same size.
WALK_LOOPS = {
    "run_sequence": lambda start, steps: run_sequence(start, kept(start.num_coins), "A", steps),
    "final_distribution": lambda start, steps: final_distribution(
        start, kept(start.num_coins), "A", steps
    ),
    "scan_sequences": lambda start, steps: scan_sequences(
        kept(start.num_coins), 2, start.num_coins, steps
    ),
    "evolve": lambda start, steps: evolve(start, kept(start.num_coins)["A"], steps),
    "evolve_brun": lambda start, steps: evolve_brun(start, [1.0] * start.num_coins, steps),
    "sweep_parameter": lambda start, steps: sweep_parameter(
        kept(start.num_coins)["A"], "L" * (start.num_coins - 1), [1.0, 0.5], steps
    ),
}
# How a loop ends: it returns, a step raises HorizonError, or a norm check
# raises NormalizationError.  Scans and sweeps start at the origin, on a
# grid whose edge they never reach.
ENDINGS = {"returns": None, "horizon": HorizonError, "norm": NormalizationError}
LOOP_ENDINGS = [
    (loop, ending) for loop in WALK_LOOPS for ending in ENDINGS
    if ending != "horizon" or loop not in ("scan_sequences", "sweep_parameter")
]


class TestSmallStepBuffers:
    """Walk loops step with small NumPy buffers, which change no bit and stay inside the loop."""

    @pytest.mark.parametrize(
        "walk",
        [
            pytest.param(lambda: aab_walk(8, 200), id="M=8, T=200"),
            pytest.param(lambda: aab_walk(3, 1000), id="M=3, T=1000"),
            pytest.param(two_parity_walk, id="two parities, M=5"),
            pytest.param(scan_means, id="scan, M=3, T=60"),
            pytest.param(final_probabilities, id="final distribution, M=5, T=120"),
            pytest.param(sweep_moments, id="sweep, M=3, T=200"),
        ],
    )
    def test_results_equal_those_with_the_default_buffers_bit_for_bit(self, monkeypatch, walk):
        monkeypatch.setattr(histwalk.operators, "_STEP_BUFSIZE", NUMPY_DEFAULT_BUFSIZE)
        want = walk()
        monkeypatch.undo()
        assert histwalk.operators._STEP_BUFSIZE < NUMPY_DEFAULT_BUFSIZE
        got = walk()
        for got_values, want_values in zip(got, want, strict=True):
            assert np.array_equal(got_values, want_values)

    @pytest.mark.parametrize("size", [NUMPY_DEFAULT_BUFSIZE, 4096])
    @pytest.mark.parametrize("loop, ending", LOOP_ENDINGS)
    def test_a_walk_loop_leaves_the_callers_buffer_size_as_it_found_it(
        self, monkeypatch, loop, ending, size
    ):
        start, steps = build_initial_state(3, ANTISYMMETRIC, t_max=8), 8
        if ending == "horizon":
            # One coin at the last site, retained as R, leaves the grid at step 1.
            start, steps = build_initial_state(1, [(3, "R", 1.0)], t_max=3), 1
        step = _Kernel.step
        seen = []

        def recording_step(kernel):
            seen.append(np.getbufsize())
            step(kernel)
            if ending == "norm" and kernel.steps == 2:
                kernel.psi[-1] *= 1.001

        monkeypatch.setattr(_Kernel, "step", recording_step)
        kept_size = np.setbufsize(size)
        try:
            if ENDINGS[ending] is None:
                WALK_LOOPS[loop](start, steps)
            else:
                with pytest.raises(ENDINGS[ending]):
                    WALK_LOOPS[loop](start, steps)
            assert np.getbufsize() == size
        finally:
            np.setbufsize(kept_size)
        # Every step ran with the small buffers.
        assert seen and seen == [histwalk.operators._STEP_BUFSIZE] * len(seen)

    @pytest.mark.parametrize("num_coins, steps", [(8, 200), (3, 1000)])
    def test_no_step_allocates_more_than_64_kib(self, num_coins, steps):
        # With NumPy's default buffers a step allocated 391 KB (median) at
        # M=8 and 194 KB (largest) at M=3; with small ones, under 13 KB.
        initial = build_initial_state(num_coins, ANTISYMMETRIC, t_max=steps)
        tables = random_tables(num_coins, "AB", 7)
        peaks = []
        with _Kernel(initial, [tables[letter] for letter in "AAB"]) as kernel:
            tracemalloc.start()
            try:
                for _ in range(steps):
                    tracemalloc.reset_peak()
                    held = tracemalloc.get_traced_memory()[0]
                    kernel.step()
                    peaks.append(tracemalloc.get_traced_memory()[1] - held)
            finally:
                tracemalloc.stop()
        assert max(peaks) < 64 * 1024


class TestReadout:
    """The band's probabilities: same bits as the specification, a stated tolerance, no copy."""

    @settings(max_examples=80, deadline=None)
    @given(
        num_coins=st.integers(1, 7),
        both_parities=st.booleans(),
        entries=st.integers(1, 3),
        steps=st.integers(0, 10),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_kernel_probabilities_equal_position_distribution_bit_for_bit(
        self, num_coins, both_parities, entries, steps, seed
    ):
        rng = np.random.default_rng(seed)
        # Every register column at two sites, of one parity or of both, with
        # moduli spanning four decades.
        start = [
            (x, index_to_coins(column, num_coins),
             10.0 ** rng.uniform(-4, 0) * complex(*rng.normal(size=2)))
            for x in ((0, 1) if both_parities else (-1, 1))
            for column in range(1 << num_coins)
        ]
        initial = build_initial_state(num_coins, start, t_max=steps + 2)
        tables = random_tables(num_coins, "ABC", seed)
        schedules = [
            [tables[letter] for letter in rng.choice(list("ABC"), rng.integers(1, 4))]
            for _ in range(entries)
        ]
        kernel = _Kernel(initial, *schedules)
        for _ in range(steps):
            kernel.step()
        first, stride, p = kernel.probabilities()
        assert stride == (1 if both_parities else 2)
        for entry in range(entries):
            got = _distribution(first, stride, p[entry], initial.t_max)
            want = position_distribution(kernel.state(entry))
            assert got.positions.tolist() == want.positions.tolist()
            assert got.probabilities.tobytes() == want.probabilities.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        num_coins=st.integers(1, 6),
        both_parities=st.booleans(),
        rho=st.sampled_from(["random", "0 and 1", "0", "1"]),
        steps=st.integers(0, 24),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_the_trimmed_readout_equals_moments_of_position_distribution_bit_for_bit(
        self, num_coins, both_parities, rho, steps, seed
    ):
        # Retention 0 or 1 leaves band rows that hold no amplitude, the end
        # rows included, so those tables take the support search.
        rng = np.random.default_rng(seed)
        half = 1 << (num_coins - 1)
        values = {
            "random": rng.uniform(0, 1, half),
            "0 and 1": rng.integers(0, 2, half).astype(float),
            "0": np.zeros(half),
            "1": np.ones(half),
        }[rho]
        table = HistoryRhoTable(num_coins, dict(zip(all_histories(num_coins), values)))
        sites = (0, 1) if both_parities else (-1, 1)
        start = [
            (x, index_to_coins(int(column), num_coins), complex(*rng.normal(size=2)))
            for x in sites
            for column in rng.choice(1 << num_coins, min(3, 1 << num_coins), replace=False)
        ]
        initial = build_initial_state(num_coins, start, t_max=steps + 2)
        trajectory = run_sequence(initial, {"A": table}, "A", steps)
        with _Kernel(initial, [table]) as kernel:
            for t in range(steps + 1):
                if t:
                    kernel.step()
                first, stride, p = kernel.probabilities()
                assert stride == (1 if both_parities else 2)
                mean, std = _readout(first, stride, p[0], initial.t_max)
                dist = position_distribution(kernel.state())
                want = moments(dist)
                assert (mean.hex(), std.hex()) == (want.mean.hex(), want.std.hex())
                assert (trajectory.means[t], trajectory.stds[t]) == (mean, std)
                # run_sequence's drift comes from the sum its norm check reads.
                assert trajectory.norm_drift[t] == abs(float(p[0].sum()) - 1.0)
                got = _distribution(first, stride, p[0], initial.t_max)
                assert got.positions.tolist() == dist.positions.tolist()
                assert got.probabilities.tobytes() == dist.probabilities.tobytes()

    @pytest.mark.parametrize("num_coins", [1, 3])
    def test_bands_with_zero_end_rows_are_read_out_bit_for_bit(self, num_coins):
        # Retention 1 carries each register column away at one site per step
        # and retention 0 bounces it, so most bands end in rows of zero.
        zero_ends = 0
        for rho in (0.0, 1.0):
            table = HistoryRhoTable.uniform(num_coins, rho)
            initial = build_initial_state(num_coins, ALL_R, t_max=30)
            trajectory = run_sequence(initial, {"A": table}, "A", 30)
            with _Kernel(initial, [table]) as kernel:
                for t in range(31):
                    if t:
                        kernel.step()
                    first, stride, p = kernel.probabilities()
                    zero_ends += not (p[0, 0] and p[0, -1])
                    dist = position_distribution(kernel.state())
                    want = moments(dist)
                    got = _readout(first, stride, p[0], initial.t_max)
                    assert [v.hex() for v in got] == [want.mean.hex(), want.std.hex()]
                    assert (trajectory.means[t], trajectory.stds[t]) == got
                    support = _distribution(first, stride, p[0], initial.t_max).positions
                    assert support.tolist() == dist.positions.tolist()
        assert zero_ends >= 30

    @pytest.mark.parametrize("num_coins", [1, 3, 6])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_a_zero_band_raises_the_norm_error_before_any_support_is_taken(
        self, monkeypatch, num_coins, stride
    ):
        # A start on sites of both parities is read out with stride 1.
        sites = (0, 1) if stride == 1 else (-1, 1)
        start = [(x, "R" * num_coins, 0.6 + 0.8j * x) for x in sites]
        initial = build_initial_state(num_coins, start, t_max=8)
        step, readout, read = _Kernel.step, histwalk.walker._readout, []

        def zeroing_step(kernel):
            step(kernel)
            if kernel.steps == 4:
                kernel.psi[...] = 0

        def recording_readout(first, band_stride, p, t_max):
            read.append(band_stride)
            return readout(first, band_stride, p, t_max)

        monkeypatch.setattr(_Kernel, "step", zeroing_step)
        monkeypatch.setattr(histwalk.walker, "_readout", recording_readout)
        with pytest.raises(NormalizationError, match="state norm is 0, .* at step 4$"):
            run_sequence(initial, kept(num_coins), "A", 6)
        # Steps 0 to 3 were read out, and the zero band of step 4 was not.
        assert read == [stride] * 4

    @pytest.mark.parametrize("modulus", [0.0, 1e-200])
    def test_a_start_with_zero_norm_is_refused_at_step_0(self, modulus):
        # 1e-200 occupies a row whose probability, 1e-400, is zero: the band
        # is not empty, but every entry of it is zero.  With 0 the band is empty.
        initial = build_initial_state(3, ANTISYMMETRIC, t_max=5)
        initial.amplitudes *= modulus
        games = {"A": HistoryRhoTable.uniform(3, 0.5)}
        for call in (run_sequence, final_distribution):
            with pytest.raises(NormalizationError, match="state norm is 0, .* at step 0"):
                call(initial, games, "A", 3)

    def test_the_kernel_refuses_an_all_zero_start_with_the_step_0_message(self):
        message = "^state norm is 0, expected 1 within 1e-9 at step 0$"
        with pytest.raises(NormalizationError, match=message):
            _Kernel(new_state(3, 5), [HistoryRhoTable.uniform(3, 0.5)])

    @pytest.mark.parametrize("num_coins", range(1, 9))
    def test_both_formulas_lie_within_the_stated_tolerance_of_exact_sums(self, num_coins):
        # Moduli spanning eight decades, uniform phases.  Bound: (C + 4) units
        # of 2**-52 relative, for C register columns.  The worst errors on
        # these inputs are 1.9 (by modulus) and 1.0 (float view) units at
        # M=1, and 0.8 and 3.1 units at M=8.
        rng = np.random.default_rng(num_coins)
        columns = 1 << num_coins
        shape = (40, columns)
        moduli = 10.0 ** rng.uniform(-8, 0, shape)
        amplitudes = moduli * np.exp(2j * np.pi * rng.uniform(size=shape))
        exact = register_probabilities_exact(amplitudes)
        bound = (columns + 4) * 2.0**-52
        for got in (
            _register_probabilities(np.ascontiguousarray(amplitudes.T).view(float)),
            register_probabilities_by_modulus(amplitudes),
        ):
            assert max(abs(Fraction(g) - e) / e for g, e in zip(got.tolist(), exact)) <= bound

    def test_one_call_allocates_under_16_kib(self):
        # Before the float-view sum, one call made a float copy of the band:
        # 339 KB at this size.
        initial = build_initial_state(8, ANTISYMMETRIC, t_max=200)
        tables = random_tables(8, "AB", 7)
        kernel = _Kernel(initial, [tables[letter] for letter in "AAB"])
        for _ in range(100):
            kernel.step()
        kernel.probabilities()
        tracemalloc.start()
        try:
            kernel.probabilities()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024
