import itertools
import tracemalloc

import numpy as np
import pytest

from helpers import brute_force_frames, chunk_length, repeated_event_events
from homspec import detector, zhf
from homspec.cli import main
from homspec.detector import (
    CHUNK_EVENTS,
    MARGINAL_TOL,
    DetectionParams,
    FrameBatch,
    _bernoulli_slots,
    accidental_map,
    covariance_map,
    join,
    raw_coincidences,
    simulate_chunks,
    simulate_frames,
    simulate_uncorrelated_chunks,
)
from homspec.errors import InconsistentMarginals
from homspec.interference import (
    CoincidenceMap,
    MapKind,
    coincidence_probability_cosine,
    port_spectra,
)
from homspec.mapio import read_map_csv
from homspec.spectra import WavelengthGrid, gaussian_jsa
from homspec.vapor import DispersionModel, doppler_lifetime

GRID = WavelengthGrid.from_edges(790e-9, 803e-9, 64)
JSA = gaussian_jsa(796.7e-9, 10e-9, -0.9, GRID)
TAU = doppler_lifetime(447.15)
PC = coincidence_probability_cosine(JSA, DispersionModel(od=2.6e3, tau=TAU))
MARGINALS = port_spectra(JSA)

DEFAULTS = dict(chi=4.5455e-4, eta=0.25, f_rep=80e6, t_exp=11e-6)


def run(uncorrelated, params, n_frames, marginals=MARGINALS):
    """A checked run of either generator on the test map, not yet drawn."""
    if uncorrelated:
        return simulate_uncorrelated_chunks(GRID, marginals, params, n_frames)
    return simulate_chunks(PC, marginals, params, n_frames)


def empty_batch(n_frames=0):
    return FrameBatch(
        n_frames=n_frames,
        grid=GRID,
        frames=np.zeros(0, np.uint32),
        regions=np.zeros(0, np.uint8),
        bins=np.zeros(0, np.uint16),
    )


class TestDetectionParams:
    def test_repetitions_from_rate_and_exposure(self):
        params = DetectionParams(**DEFAULTS, seed=0)
        assert params.repetitions == 880

    def test_validation(self):
        with pytest.raises(ValueError):
            DetectionParams(chi=-0.1, eta=0.5, f_rep=1.0, t_exp=1.0)
        with pytest.raises(ValueError):
            DetectionParams(chi=0.1, eta=0.0, f_rep=1.0, t_exp=1.0)
        with pytest.raises(ValueError):
            DetectionParams(chi=0.1, eta=0.5, f_rep=1.0, t_exp=0.1)  # R rounds to 0


class TestSimulateFrames:
    def test_no_pairs_no_darks_gives_empty_frames(self):
        params = DetectionParams(chi=0.0, eta=1.0, f_rep=1.0, t_exp=1.0, seed=1)
        batch = simulate_frames(PC, MARGINALS, params, 5_000)
        assert batch.n_events == 0
        assert batch.n_frames == 5_000

    def test_single_repetition_histogram_matches_map(self):
        # eta = 1, R = 1, no darks: each frame holds at most one pair, so the
        # raw coincidence histogram estimates chi * P_c * bin area directly.
        # Binomial oracle per bin pair, 5-sigma allowance.
        small_grid = WavelengthGrid.from_edges(790e-9, 803e-9, 12)
        small_jsa = gaussian_jsa(796.7e-9, 6e-9, -0.7, small_grid)
        pc = coincidence_probability_cosine(small_jsa, DispersionModel(od=400.0, tau=TAU))
        marginals = port_spectra(small_jsa)
        chi = 0.3
        params = DetectionParams(chi=chi, eta=1.0, f_rep=1.0, t_exp=1.0, seed=11)
        n = 200_000
        batch = simulate_frames(pc, marginals, params, n)
        raw = raw_coincidences(batch)
        expected = chi * pc.values * pc.area_nm2
        sigma = np.sqrt(np.maximum(expected * (1 - expected) / n, 1e-12 / n))
        z = (raw.values - expected) / sigma
        assert np.max(np.abs(z)) < 5.0

    def test_mean_occupancy_near_design_value(self):
        # chi * eta tuned so 880 repetitions average 0.2 detected photons.
        params = DetectionParams(**DEFAULTS, seed=2)
        batch = simulate_frames(PC, MARGINALS, params, 100_000)
        per_frame = batch.n_events / batch.n_frames
        assert per_frame == pytest.approx(0.2, rel=0.1)

    def test_deterministic_given_seed(self):
        params = DetectionParams(**DEFAULTS, seed=33)
        a = simulate_frames(PC, MARGINALS, params, 30_000)
        b = simulate_frames(PC, MARGINALS, params, 30_000)
        assert np.array_equal(a.frames, b.frames)
        assert np.array_equal(a.regions, b.regions)
        assert np.array_equal(a.bins, b.bins)
        c = simulate_frames(PC, MARGINALS, DetectionParams(**DEFAULTS, seed=34), 30_000)
        assert not (
            np.array_equal(a.frames, c.frames) and np.array_equal(a.bins, c.bins)
        )

    def test_occupancy_is_binary(self):
        # About 18 pairs (35 photons) per frame over 64 bins a port: many
        # pixels are hit twice in a frame, and each must click once.
        # Strictly increasing (frame, region, bin) codes mean no repeats.
        params = DetectionParams(chi=0.02, eta=1.0, f_rep=80e6, t_exp=11e-6, seed=4)
        batch = simulate_frames(PC, MARGINALS, params, 2_000)
        codes = (
            batch.frames.astype(np.int64) << 17
            | batch.regions.astype(np.int64) << 16
            | batch.bins.astype(np.int64)
        )
        assert batch.n_events > 0
        assert np.all(np.diff(codes) > 0)

    @pytest.mark.parametrize("dark_rate", [0.0, 0.7])
    @pytest.mark.parametrize("uncorrelated", [False, True])
    def test_first_chunk_independent_of_run_length(self, monkeypatch, uncorrelated, dark_rate):
        # Each chunk draws from its own (seed, chunk index) stream and is
        # canonicalized on its own, so a chunk's events do not depend on how
        # many chunks follow it.
        params = DetectionParams(**DEFAULTS, dark_rate=dark_rate, seed=21)
        chunk = chunk_length(monkeypatch, lambda: run(uncorrelated, params, 0))
        short = join(run(uncorrelated, params, chunk))
        long = join(run(uncorrelated, params, 3 * chunk + 5))
        head = long.frames < chunk
        assert short.n_events > 0
        assert np.array_equal(long.frames[head], short.frames)
        assert np.array_equal(long.regions[head], short.regions)
        assert np.array_equal(long.bins[head], short.bins)

    @pytest.mark.parametrize("dark_rate", [0.0, 0.7])
    @pytest.mark.parametrize("uncorrelated", [False, True])
    def test_batch_independent_of_chunk_order(self, monkeypatch, uncorrelated, dark_rate):
        # Output does not depend on the order the thread pool finishes the
        # chunks in: evaluating them last to first, then handing them on in
        # frame order, gives the same batch.
        params = DetectionParams(**DEFAULTS, dark_rate=dark_rate, seed=22)
        n_frames = 3 * chunk_length(monkeypatch, lambda: run(uncorrelated, params, 0)) + 5

        def simulate():
            return join(run(uncorrelated, params, n_frames))

        calls = []

        def reversed_order(make, n):
            calls.append(n)
            return reversed([make(index) for index in reversed(range(n))])

        expected = simulate()
        monkeypatch.setattr(detector, "_in_order", reversed_order)
        batch = simulate()
        assert calls == [4]
        assert batch.n_events == expected.n_events > 0
        assert np.array_equal(batch.frames, expected.frames)
        assert np.array_equal(batch.regions, expected.regions)
        assert np.array_equal(batch.bins, expected.bins)

    @pytest.mark.parametrize("uncorrelated", [False, True])
    def test_chunk_scratch_bounded_by_its_codes(self, monkeypatch, uncorrelated):
        # A worker holds about three event-length arrays at once.  The traced
        # peak of drawing one dense chunk (about 8 events a frame) through
        # simulate_chunks on one worker, its output fields included, stays
        # within 3x the chunk's int64 event codes.  Measured: 2.2x correlated
        # and 2.4x uncorrelated; a kernel that held the pairs' float draws and
        # copied the codes twice took 5.5x and 4.1x.
        monkeypatch.setattr(detector, "_workers", lambda: 1)
        params = DetectionParams(chi=0.01, eta=0.5, f_rep=80e6, t_exp=11e-6, seed=5)
        one_chunk = run(uncorrelated, params,
                        chunk_length(monkeypatch, lambda: run(uncorrelated, params, 0)))
        tracemalloc.start()
        try:
            (chunk,) = one_chunk
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert chunk.n_events > 7 * chunk.n_frames
        assert peak <= 3.0 * chunk.n_events * np.dtype(np.int64).itemsize

    @pytest.mark.parametrize("uncorrelated", [False, True])
    def test_chunks_hold_about_chunk_events(self, monkeypatch, uncorrelated):
        # A chunk's length follows the run's density: at 0.2 and at about 8
        # events a frame one chunk holds about CHUNK_EVENTS events (a little
        # more, since both generators' expected events count the pairs seen,
        # not their photons).
        sizes = []
        for chi, eta in ((4.5455e-4, 0.25), (0.01, 0.5)):
            params = DetectionParams(chi=chi, eta=eta, f_rep=80e6, t_exp=11e-6, seed=8)
            n_frames = chunk_length(monkeypatch, lambda: run(uncorrelated, params, 0))
            (chunk,) = run(uncorrelated, params, n_frames)
            assert 0.9 * CHUNK_EVENTS < chunk.n_events < 1.4 * CHUNK_EVENTS
            sizes.append(chunk.n_frames)
        assert sizes[0] > 30 * sizes[1]

    @pytest.mark.parametrize("uncorrelated", [False, True])
    def test_saturation_warning(self, uncorrelated):
        params = DetectionParams(chi=0.5, eta=1.0, f_rep=80e6, t_exp=11e-6, seed=5)
        with pytest.warns(RuntimeWarning, match="occupancy"):
            join(run(uncorrelated, params, 50))

    def test_uncorrelated_without_photons_gives_dark_counts_only(self):
        # chi * eta = 0 runs the control with chi = 0: it draws the dark counts
        # alone, the very events of a correlated run without pairs.
        params = DetectionParams(chi=0.0, eta=1.0, f_rep=1.0, t_exp=1.0,
                                 dark_rate=0.05, seed=6)
        control = join(run(True, params, 50_000))
        dark = join(run(False, params, 50_000))
        assert control.n_events / (2 * control.n_frames) == pytest.approx(0.05, rel=0.1)
        assert np.array_equal(control.frames, dark.frames)
        assert np.array_equal(control.regions, dark.regions)
        assert np.array_equal(control.bins, dark.bins)

    def test_dark_counts_fill_empty_frames(self):
        params = DetectionParams(chi=0.0, eta=1.0, f_rep=1.0, t_exp=1.0,
                                 dark_rate=0.05, seed=6)
        batch = simulate_frames(PC, MARGINALS, params, 50_000)
        per_region_rate = batch.n_events / (2 * batch.n_frames)
        assert per_region_rate == pytest.approx(0.05, rel=0.1)

    @pytest.mark.parametrize("uncorrelated", [False, True])
    @pytest.mark.parametrize("bad", [(MARGINALS[0] * 1.2, MARGINALS[1]),
                                     (MARGINALS[0][:-1], MARGINALS[1])], ids=["scaled", "short"])
    def test_marginals_must_normalize(self, uncorrelated, bad):
        params = DetectionParams(**DEFAULTS, seed=7)
        with pytest.raises(InconsistentMarginals):
            join(run(uncorrelated, params, 10, bad))
        # Both generators take spectra within MARGINAL_TOL of one photon.
        run(uncorrelated, params, 10, (MARGINALS[0] * (1 + 0.5 * MARGINAL_TOL), MARGINALS[1]))

    def test_marginals_must_cover_coincidence_rate(self):
        params = DetectionParams(**DEFAULTS, seed=8)
        step = GRID.step_nm
        hot = int(np.argmax(PC.values.sum(axis=1)))
        donor = (hot + 20) % GRID.n_bins
        shifted = MARGINALS[0].copy()
        moved = 0.9 * PC.values[hot, :].sum() * step
        shifted[hot] -= moved
        shifted[donor] += moved
        with pytest.raises(InconsistentMarginals):
            simulate_frames(PC, (shifted, MARGINALS[1]), params, 10)

    def test_marginal_length_checked(self):
        params = DetectionParams(**DEFAULTS, seed=9)
        with pytest.raises(InconsistentMarginals):
            simulate_frames(PC, (MARGINALS[0][:-1], MARGINALS[1]), params, 10)

    def test_requires_probability_map(self):
        params = DetectionParams(**DEFAULTS, seed=10)
        cov = covariance_map(simulate_frames(PC, MARGINALS, params, 1_000))
        with pytest.raises(ValueError):
            simulate_frames(cov, MARGINALS, params, 10)


def frame_fractions(batch: FrameBatch) -> np.ndarray:
    """Fractions of frames with each per-frame indicator the law fixes.

    The indicators are k photons at a port (k = 0..bins), a click in each
    bin of each port, and a click pair in each cross-port bin pair (the raw
    map).  Each is a Bernoulli variable per frame, and frames are
    independent, so a fraction's variance is p(1 - p) / n_frames.
    """
    n = batch.n_frames
    parts = []
    n_bins = batch.grid.n_bins
    for region in (0, 1):
        per_frame = np.bincount(batch.frames[batch.regions == region], minlength=n)
        parts.append(np.bincount(per_frame, minlength=n_bins + 1) / n)
        parts.append(np.bincount(batch.bins[batch.regions == region], minlength=n_bins) / n)
    parts.append(raw_coincidences(batch).values.ravel())
    return np.concatenate(parts)


class TestLaw:
    @pytest.mark.parametrize("batch_sigmas", [6.0, -2.0])
    def test_bernoulli_slots_are_sums_of_geometric_gaps(self, monkeypatch, batch_sigmas):
        # Successes of Bernoulli trials sit at the partial sums of iid
        # geometric gaps.  Drawing the gaps in batches must not change which:
        # the same stream drawn in one long call gives the same slots.  A
        # batch short of the mean makes almost every run take a second one.
        monkeypatch.setattr(detector, "_BATCH_SIGMAS", batch_sigmas)
        p, n_slots = 0.3, 4000
        for seed in range(200):
            slots = _bernoulli_slots(np.random.default_rng(seed), p, n_slots)
            ends = np.cumsum(np.random.default_rng(seed).geometric(p, size=2 * n_slots)) - 1
            assert np.array_equal(slots, ends[ends < n_slots])
        rng = np.random.default_rng(0)
        assert np.array_equal(_bernoulli_slots(rng, 1.0, 10), np.arange(10))
        assert _bernoulli_slots(rng, 0.0, 10).size == 0
        assert _bernoulli_slots(rng, 0.5, 0).size == 0
        assert _bernoulli_slots(rng, 1e-300, 1 << 61).size == 0
        # Gaps near 2**63: a success, then a gap whose sum with it would wrap.
        p, n_slots = 1e-19, 1 << 61
        found = 0
        for seed in range(50):
            slots = _bernoulli_slots(np.random.default_rng(seed), p, n_slots)
            ends = itertools.accumulate(
                int(gap) for gap in np.random.default_rng(seed).geometric(p, size=64))
            expected = [end - 1 for end in ends if end <= n_slots]
            assert slots.tolist() == expected
            found += len(expected)
        assert found > 0

    @pytest.mark.parametrize(
        "uncorrelated, asymmetric",
        [(False, False), (True, False), (False, True), (True, True)],
        ids=["False", "True", "False-asymmetric", "True-asymmetric"],
    )
    def test_matches_brute_force_reference(self, uncorrelated, asymmetric):
        # The thinned, event-driven draw against a reference that draws every
        # repetition, bin and detection flag: 8 bins, R = 3, many same-frame
        # photons and doubles, and dark counts.  Two-sample z-score for each
        # per-frame indicator; 5 sigma over about 100 of them.  The asymmetric
        # cases tell the ports apart: the map tilted toward plus bins above
        # minus bins (halved, so that the spectra still cover it), or for the
        # control a minus spectrum rolled by two bins.
        grid = WavelengthGrid.from_edges(790e-9, 803e-9, 8)
        jsa = gaussian_jsa(796.7e-9, 6e-9, -0.7, grid)
        pc = coincidence_probability_cosine(jsa, DispersionModel(od=400.0, tau=TAU))
        marginals = port_spectra(jsa)
        if asymmetric and uncorrelated:
            minus = np.roll(marginals[1], 2)
            marginals = (marginals[0], minus / (minus.sum() * grid.step_nm))
        elif asymmetric:
            a, b = np.indices(pc.values.shape)
            tilted = pc.values * (1.0 + np.tanh(a - b)) / 2.0
            pc = CoincidenceMap(grid, tilted, MapKind.PROBABILITY)
        params = DetectionParams(chi=0.3, eta=0.5, f_rep=3.0, t_exp=1.0, dark_rate=0.05, seed=13)
        n = 200_000
        if uncorrelated:
            library = join(simulate_uncorrelated_chunks(grid, marginals, params, n))
        else:
            library = simulate_frames(pc, marginals, params, n)
        reference = brute_force_frames(
            pc, marginals, params, n, np.random.default_rng(13), uncorrelated
        )
        p_lib, p_ref = frame_fractions(library), frame_fractions(reference)
        var = (p_lib * (1 - p_lib) + p_ref * (1 - p_ref)) / n
        z = (p_lib - p_ref) / np.sqrt(np.maximum(var, 1.0 / n**2))
        assert np.max(np.abs(z)) < 5.0


class TestEstimators:
    def test_all_empty_frames_give_zero_maps(self):
        batch = empty_batch(n_frames=100)
        assert np.all(raw_coincidences(batch).values == 0.0)
        assert np.all(accidental_map(batch).values == 0.0)
        assert np.all(covariance_map(batch).values == 0.0)

    def test_single_frame_pair(self):
        with pytest.warns(RuntimeWarning, match="single frame"):
            batch = FrameBatch(
                n_frames=1,
                grid=GRID,
                frames=np.array([0, 0], np.uint32),
                regions=np.array([0, 1], np.uint8),
                bins=np.array([10, 50], np.uint16),
            )
            raw = raw_coincidences(batch)
        expected = np.zeros((64, 64))
        expected[10, 50] = 1.0
        assert np.array_equal(raw.values, expected)

    def test_disjoint_frames_have_accidentals_but_no_raw(self):
        batch = FrameBatch(
            n_frames=2,
            grid=GRID,
            frames=np.array([0, 1], np.uint32),
            regions=np.array([0, 1], np.uint8),
            bins=np.array([10, 50], np.uint16),
        )
        raw = raw_coincidences(batch)
        acc = accidental_map(batch)
        assert raw.values[10, 50] == 0.0
        assert acc.values[10, 50] == pytest.approx(1.0 / 4.0)

    def test_raw_map_matches_dense_occupancy_product(self):
        # Reference recount: with P and M the (frames x bins) binary
        # occupancies of the two ports, the raw map is P^T M / n_frames.  The
        # sums are exact integers, so the maps must agree bit for bit.
        params = DetectionParams(chi=0.002, eta=0.5, f_rep=80e6, t_exp=11e-6,
                                 dark_rate=0.3, seed=41)
        batch = simulate_frames(PC, MARGINALS, params, 3_000)
        occ = np.zeros((2, batch.n_frames, GRID.n_bins))
        occ[batch.regions, batch.frames, batch.bins] = 1.0
        expected = occ[0].T @ occ[1] / batch.n_frames
        assert np.array_equal(raw_coincidences(batch).values, expected)

    @pytest.mark.parametrize("block", [1, 2, 7])
    def test_estimators_exact_at_any_block_size(self, block):
        # `estimate` counts a file a block of whole frames at a time, and integer
        # counts add exactly: the batch cut at frame ends into batches of at
        # most ``block`` events, or of one frame, must give the dense-occupancy
        # reference P^T M / n_frames and the accidental recount bit for bit.
        # The batch ends with two frames of 24 events, more than any block
        # here, and each of them stays whole.
        params = DetectionParams(chi=0.002, eta=0.5, f_rep=80e6, t_exp=11e-6,
                                 dark_rate=0.3, seed=41)
        sim = simulate_frames(PC, MARGINALS, params, 3_000)
        batch = FrameBatch(
            n_frames=sim.n_frames + 2,
            grid=GRID,
            frames=np.append(sim.frames, np.repeat([sim.n_frames, sim.n_frames + 1], 24)),
            regions=np.append(sim.regions, np.tile(np.repeat([0, 1], 12), 2)),
            bins=np.append(sim.bins, np.tile(np.arange(0, 60, 5), 4)),
        )
        # Greedy cuts: a frame that would take the current block past ``block``
        # events starts the next one.  The k-th frame with events spans
        # [ends[k - 1], ends[k]).
        ends = [*(np.flatnonzero(np.diff(batch.frames)) + 1).tolist(), batch.n_events]
        cuts = [0]
        for lo, hi in zip([0, *ends], ends):
            if hi - cuts[-1] > block and lo > cuts[-1]:
                cuts.append(lo)
        cuts.append(batch.n_events)
        fields = (batch.frames, batch.regions, batch.bins)
        blocks = [FrameBatch(batch.n_frames, GRID, *(f[lo:hi] for f in fields))
                  for lo, hi in zip(cuts, cuts[1:])]
        # A block past ``block`` events is one frame, and no frame is split.
        assert all(b.n_events <= block or b.frames[0] == b.frames[-1] for b in blocks)
        assert all(a.frames[-1] < b.frames[0] for a, b in zip(blocks, blocks[1:]))
        assert [b.n_events for b in blocks[-2:]] == [24, 24]

        raw, accidental, _ = detector.EventCounts(blocks).maps()
        occ = np.zeros((2, batch.n_frames, GRID.n_bins))
        occ[batch.regions, batch.frames, batch.bins] = 1.0
        assert np.array_equal(raw.values, occ[0].T @ occ[1] / batch.n_frames)
        means = [
            np.bincount(batch.bins[batch.regions == region], minlength=GRID.n_bins)
            / batch.n_frames
            for region in (0, 1)
        ]
        assert np.array_equal(accidental.values, np.outer(*means))

    def test_covariance_is_raw_minus_accidental(self):
        params = DetectionParams(**DEFAULTS, seed=12)
        batch = simulate_frames(PC, MARGINALS, params, 50_000)
        cov = covariance_map(batch)
        diff = raw_coincidences(batch).values - accidental_map(batch).values
        assert np.array_equal(cov.values, diff)
        assert cov.kind is MapKind.COVARIANCE

    def test_uncorrelated_covariance_consistent_with_zero(self):
        params = DetectionParams(chi=1.893939e-4, eta=0.6, f_rep=80e6, t_exp=11e-6,
                                 seed=20260808)
        batch = join(simulate_uncorrelated_chunks(GRID, MARGINALS, params, 200_000))
        cov_total = covariance_map(batch).values.sum()
        occ_p = np.bincount(batch.frames[batch.regions == 0], minlength=batch.n_frames)
        occ_m = np.bincount(batch.frames[batch.regions == 1], minlength=batch.n_frames)
        se = np.sqrt(occ_p.var() * occ_m.var() / batch.n_frames)
        assert abs(cov_total) < 5.0 * se

    def test_accidental_level_matches_closed_form(self):
        # With R repetitions per frame the accidental map approaches
        # (R*chi*eta)^2 * outer(per-bin landing probabilities); the total is
        # (R*chi*eta)^2 up to binary-pixel saturation losses.
        params = DetectionParams(**DEFAULTS, seed=31)
        batch = simulate_frames(PC, MARGINALS, params, 400_000)
        acc = accidental_map(batch)
        rate = params.repetitions * params.chi * params.eta
        assert acc.values.sum() == pytest.approx(rate**2, rel=0.1)
        expected_shape = np.outer(MARGINALS[0], MARGINALS[1])
        corr = np.corrcoef(acc.values.ravel(), expected_shape.ravel())[0, 1]
        assert corr > 0.95

    def test_covariance_tracks_theory_map_at_scale(self):
        # Self-consistency at production statistics: the covariance estimate
        # from ten million frames correlates strongly with the generating
        # map (Pearson 0.95 measured on this seed; 0.9 asserted).
        grid = WavelengthGrid.from_edges(790e-9, 803e-9, 140)
        jsa = gaussian_jsa(796.7e-9, 10e-9, -0.9, grid)
        pc = coincidence_probability_cosine(jsa, DispersionModel(od=2.6e3, tau=TAU))
        params = DetectionParams(**DEFAULTS, seed=1234)
        batch = simulate_frames(pc, port_spectra(jsa), params, 10_000_000)
        cov = covariance_map(batch)
        pearson = np.corrcoef(cov.values.ravel(), pc.values.ravel())[0, 1]
        assert pearson >= 0.9

    def test_accidental_fraction_shrinks_linearly_with_chi(self):
        ratios = []
        for chi in (4.5455e-4, 4.5455e-5):
            params = DetectionParams(chi=chi, eta=0.25, f_rep=80e6, t_exp=11e-6, seed=99)
            batch = simulate_frames(PC, MARGINALS, params, 300_000)
            acc = accidental_map(batch).values.sum()
            cov = covariance_map(batch).values.sum()
            ratios.append(acc / cov)
        assert ratios[1] < ratios[0] / 3.0

    def test_zero_frames_give_the_zero_maps_estimate_writes(self, tmp_path):
        # One rule for a run of no frames: `estimate` and the library's
        # estimators both give three all-zero maps.
        assert main(["simulate", "--frames", "0", "--out", str(tmp_path),
                     "--override", "grid_bins = 16"]) == 0
        path = tmp_path / "frames.zhf"
        assert main(["estimate", str(path), "--out", str(tmp_path)]) == 0
        batch = zhf.read_frames(path)
        assert batch.n_frames == 0
        for name, estimator in (("raw", raw_coincidences), ("accidental", accidental_map),
                                ("covariance", covariance_map)):
            written = read_map_csv(tmp_path / f"{name}.csv")[0]
            assert written.shape == (16, 16) and np.all(written == 0.0)
            assert np.array_equal(estimator(batch).values, written)


class TestFrameBatchValidation:
    @pytest.mark.parametrize("frames, regions, bins", [
        ([1, 0], [0, 0], [5, 5]),  # frames out of order
        ([0, 0], [1, 0], [5, 5]),  # minus before plus in a frame
        ([0, 0], [0, 0], [7, 5]),  # bins out of order
        ([0, 0], [0, 0], [5, 5]),  # a pixel clicking twice
    ])
    def test_canonical_order_checked(self, frames, regions, bins):
        with pytest.raises(ValueError, match="order"):
            FrameBatch(
                n_frames=2,
                grid=GRID,
                frames=np.array(frames, np.uint32),
                regions=np.array(regions, np.uint8),
                bins=np.array(bins, np.uint16),
            )

    def test_repeat_inside_an_ordered_batch_rejected(self):
        # Among eight one-event frames otherwise in order, one event that
        # repeats the one before it is caught.
        with pytest.raises(ValueError, match="order"):
            FrameBatch(9, GRID, *repeated_event_events())

    @pytest.mark.parametrize("field, values", [
        ("frames", np.array([2**32 + 1])),
        ("regions", np.array([256])),
        ("bins", np.array([65539])),
        ("frames", np.array([0.7])),
    ], ids=["frame-past-uint32", "region-past-uint8", "bin-past-uint16", "float-frame"])
    def test_field_a_cast_would_change_rejected(self, field, values):
        # Each value would be cast to frame 1, region 0, bin 3 or frame 0, a
        # valid event; the same values as int64 in range are accepted.
        fields = {"frames": [1], "regions": [0], "bins": [3], field: values}
        with pytest.raises(ValueError, match=f"event {field} must be integers in"):
            FrameBatch(5, GRID, **fields)
        assert FrameBatch(5, GRID, np.int64([1]), np.int64([0]), np.int64([3])).n_events == 1

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            FrameBatch(
                n_frames=1,
                grid=GRID,
                frames=np.array([2], np.uint32),
                regions=np.array([0], np.uint8),
                bins=np.array([0], np.uint16),
            )
        with pytest.raises(ValueError):
            FrameBatch(
                n_frames=1,
                grid=GRID,
                frames=np.array([0], np.uint32),
                regions=np.array([0], np.uint8),
                bins=np.array([64], np.uint16),
            )
