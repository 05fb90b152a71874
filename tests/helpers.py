"""Shared analysis helpers for map-level assertions."""

import tracemalloc

import numpy as np

from homspec import detector
from homspec.detector import DetectionParams, FrameBatch
from homspec.interference import (
    CoincidenceMap,
    coincidence_probability_cosine,
    pixel_average,
)
from homspec.spectra import JointSpectralAmplitude, WavelengthGrid
from homspec.vapor import DispersionModel, spectral_phase


def fringe_map(
    od: float,
    visibility: float,
    delay: float,
    jsa: JointSpectralAmplitude,
    tau: float,
    kernel_width: int = 1,
) -> CoincidenceMap:
    """Noiseless coincidence map for one (od, visibility, delay [s]).

    It takes the path of the ``theory`` command: the fringe form, then the
    boxcar.  The map is not normalized; the fit normalizes its input.
    """
    cmap = coincidence_probability_cosine(jsa, DispersionModel(od=od, tau=tau), visibility, delay)
    return pixel_average(cmap, kernel_width)


def cross_center(pc_values: np.ndarray, jsi_values: np.ndarray, grid: WavelengthGrid) -> float:
    """Symmetry center [m] of the fringe pattern in a coincidence map.

    The fringe-ratio map P/J is point-symmetric about the resonance on both
    axes (the phase is odd in detuning), so the center is found by
    minimizing a normalized reflection asymmetry over candidate centers on
    the half-bin lattice.  Flat regions carry no weight, which keeps the
    estimate sharp at low optical depth where only a few bins see fringes.
    """
    floor = jsi_values.max() * 1e-6
    with np.errstate(divide="ignore", invalid="ignore"):
        fringe = np.where(
            jsi_values > floor, pc_values / np.clip(jsi_values, 1e-300, None), np.nan
        )
    n = fringe.shape[0]
    best_c, best_score = None, np.inf
    for s in range(n // 2, 2 * n - n // 2):
        idx = np.arange(n)
        idx = idx[(s - idx >= 0) & (s - idx < n)]
        sub = fringe[np.ix_(idx, idx)]
        ref = fringe[np.ix_(s - idx, s - idx)]
        diff2 = (sub - ref) ** 2
        norm = sub**2 + ref**2
        ok = np.isfinite(diff2) & np.isfinite(norm)
        denom = norm[ok].sum()
        if ok.sum() < 100 or denom <= 0.0:
            continue
        score = diff2[ok].sum() / denom
        if score < best_score:
            best_score, best_c = score, s / 2.0
    return grid.start + best_c * grid.step


def fringe_count(
    model: DispersionModel,
    grid: WavelengthGrid,
    n_samples: int = 2_000_001,
    exclude_nm: float = 0.005,
) -> int:
    """Sign changes of cos(phase difference) along the map antidiagonal.

    Sampled densely enough that the excluded core around the resonance is
    the only place the fringe phase could alias between samples.
    """
    low = grid.start
    high = grid.start + grid.step * (grid.n_bins - 1)
    lam = np.linspace(low, high, n_samples)
    anti = (low + high) - lam
    keep = (np.abs(lam - model.lambda0) > exclude_nm * 1e-9) & (
        np.abs(anti - model.lambda0) > exclude_nm * 1e-9
    )
    dphi = spectral_phase(model, lam) - spectral_phase(model, anti)
    cos = np.cos(dphi[keep])
    return int(np.sum(np.signbit(cos[1:]) != np.signbit(cos[:-1])))


def brute_force_frames(
    pc_map: CoincidenceMap,
    marginals: tuple[np.ndarray, np.ndarray],
    params: DetectionParams,
    n_frames: int,
    rng: np.random.Generator,
    uncorrelated: bool = False,
) -> FrameBatch:
    """Reference camera Monte Carlo that draws everything the model names.

    Every repetition of every frame draws whether it makes a pair, every
    pair its branch and both bins, every photon its detection flag and every
    frame its dark counts; a pixel hit more than once in a frame clicks
    once.  A pair is a coincidence with probability sum(P) * bin area, else
    a double on a port chosen evenly, its bins from that port's spectrum
    less the coincidence marginal.  With ``uncorrelated`` the ports fire
    independently instead and ``pc_map`` gives only the grid: each repetition makes a photon at each port with
    probability chi, its bin from the port spectrum.  Slow and simple, it is
    the law the library's generators must follow.
    """
    n_bins = pc_map.grid.n_bins

    def bins(weights, size):
        return rng.choice(weights.size, size=size, p=weights / weights.sum())

    frame = np.repeat(np.arange(n_frames), params.repetitions)
    regions, photon_bins, photon_frames = [], [], []
    if uncorrelated:
        for region in (0, 1):
            made = frame[rng.random(frame.size) < params.chi]
            regions.append(np.full(made.size, region))
            photon_bins.append(bins(marginals[region], made.size))
            photon_frames.append(made)
    else:
        pair_frame = frame[rng.random(frame.size) < params.chi]
        n_pairs = pair_frame.size
        p_coinc = float(np.sum(pc_map.values)) * pc_map.area_nm2
        residual = (
            marginals[0] - np.sum(pc_map.values, axis=1) * pc_map.grid.step_nm,
            marginals[1] - np.sum(pc_map.values, axis=0) * pc_map.grid.step_nm,
        )
        branch = rng.choice(3, size=n_pairs, p=[p_coinc, (1 - p_coinc) / 2, (1 - p_coinc) / 2])
        coinc = pair_frame[branch == 0]
        flat = bins(pc_map.values.ravel(), coinc.size)
        regions += [np.zeros(coinc.size), np.ones(coinc.size)]
        photon_bins += [flat // n_bins, flat % n_bins]
        photon_frames += [coinc, coinc]
        for region in (0, 1):
            double = np.repeat(pair_frame[branch == 1 + region], 2)
            regions.append(np.full(double.size, region))
            photon_bins.append(bins(np.clip(residual[region], 0.0, None), double.size))
            photon_frames.append(double)
    regions = np.concatenate(regions)
    photon_bins = np.concatenate(photon_bins)
    photon_frames = np.concatenate(photon_frames)
    detected = rng.random(regions.size) < params.eta
    regions = [regions[detected]]
    photon_bins = [photon_bins[detected]]
    photon_frames = [photon_frames[detected]]
    for region in (0, 1):
        dark = np.repeat(np.arange(n_frames), rng.poisson(params.dark_rate, size=n_frames))
        regions.append(np.full(dark.size, region))
        photon_bins.append(rng.integers(0, n_bins, size=dark.size))
        photon_frames.append(dark)
    clicks = np.unique(np.stack([np.concatenate(photon_frames), np.concatenate(regions),
                                 np.concatenate(photon_bins)], axis=1).astype(np.int64), axis=0)
    return FrameBatch(n_frames, pc_map.grid, *clicks.T)


def traced_peak(fn, *args):
    """fn(*args) and the peak of the memory tracemalloc traced while it ran [bytes]."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def chunk_length(monkeypatch, start):
    """Frames per chunk of the run that ``start()`` checks, as detector._chunk_frames returns it."""
    lengths, chunk_frames = [], detector._chunk_frames

    def spy(*args):
        lengths.append(chunk_frames(*args))
        return lengths[-1]

    with monkeypatch.context() as patch:
        patch.setattr(detector, "_chunk_frames", spy)
        start()
    (length,) = lengths
    return length


def repeated_event_events():
    """Eight one-event frames with the fifth a repeat of the fourth."""
    frames = np.arange(8, dtype=np.uint32)
    frames[4] = frames[3]
    return frames, np.zeros(8, np.uint8), np.zeros(8, np.uint16)


def last_block_bad_bin_events():
    """Six frames of (plus bin 1, minus bin 0); the last minus bin is 2, past a 2-bin grid."""
    bins = np.tile(np.array([1, 0], np.uint16), 6)
    bins[-1] = 2
    return np.repeat(np.arange(6, dtype=np.uint32), 2), np.tile(np.uint8([0, 1]), 6), bins

