"""Shared analysis helpers for map-level assertions."""

import numpy as np

from homspec.interference import (
    CoincidenceMap,
    InterferenceSettings,
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
    cmap = coincidence_probability_cosine(
        jsa, DispersionModel(od=od, tau=tau), InterferenceSettings(visibility), delay
    )
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
