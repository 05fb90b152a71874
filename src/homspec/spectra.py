"""Wavelength grids and the two-photon joint spectral amplitude (JSA).

The source model is a frequency-degenerate photon pair with a bivariate
Gaussian joint spectral intensity (JSI): equal marginals on both photons and
a single correlation coefficient rho setting the ellipticity.  rho < 0 gives
the anticorrelated antidiagonal ridge characteristic of energy conservation
in parametric down-conversion; rho = 0 gives a circular JSI.

One WavelengthGrid is the spectrometer axis of both ports and both photons:
every amplitude, map and event batch carries one, for both of its axes.

Amplitude normalization convention: grids are stored in meters, but JSA and
coincidence-map values are spectral densities per nanometer (amplitude) and
per nm^2 (probability), so sum(|psi|^2) * step_nm^2 = 1.  Keeping the
density measure in nm keeps map values of order one, which the numerical
identity checks between independent code paths rely on.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import GridTooNarrow
from .vapor import DispersionModel, spectral_phase

NORMALIZATION_TOL = 1e-9

# FWHM of a Gaussian in units of its standard deviation.
FWHM_PER_SIGMA = 2.3548200450309493  # 2*sqrt(2*ln 2)


@dataclass(frozen=True)
class WavelengthGrid:
    """Uniform 1-D grid of spectrometer bins.

    ``start`` is the center of the first bin [m], ``step`` the bin width [m].
    The grid rule: a positive start, an integer n_bins in [2, 65535] (bins
    are u16 in ZHF1 and in FrameBatch), and bin centers that are finite and
    strictly increasing.
    """

    start: float
    step: float
    n_bins: int

    def __post_init__(self):
        if not 0.0 < self.start < np.inf:
            raise ValueError(f"start must be positive and finite, got {self.start}")
        if not (isinstance(self.n_bins, numbers.Integral) and 2 <= self.n_bins <= 0xFFFF):
            raise ValueError(f"n_bins must be an integer in [2, 65535], got {self.n_bins!r}")
        with np.errstate(over="ignore", invalid="ignore"):  # a step of inf or NaN is refused here
            centers = self.centers
        if not (np.all(np.isfinite(centers)) and np.all(centers[1:] > centers[:-1])):
            raise ValueError(f"step {self.step!r} does not give finite, strictly increasing "
                             "bin centers")

    @classmethod
    def from_edges(cls, low: float, high: float, n_bins: int) -> "WavelengthGrid":
        """Grid of n_bins bins spanning [low, high] edge to edge."""
        if not high > low:
            raise ValueError("high edge must exceed low edge")
        step = (high - low) / n_bins
        return cls(start=low + 0.5 * step, step=step, n_bins=n_bins)

    @property
    def centers(self) -> np.ndarray:
        """Bin centers [m], strictly increasing."""
        return self.start + self.step * np.arange(self.n_bins)

    @property
    def centers_nm(self) -> np.ndarray:
        return self.centers * 1e9

    @property
    def step_nm(self) -> float:
        return self.step * 1e9

    @property
    def span(self) -> float:
        """Edge-to-edge width of the grid [m]."""
        return self.step * self.n_bins

    def nearest_bin(self, wavelength: float) -> int:
        """Index of the bin whose center is closest to ``wavelength``."""
        return int(np.argmin(np.abs(self.centers - wavelength)))

    def is_close(self, other: "WavelengthGrid", rel: float = 1e-9) -> bool:
        """Same binning up to roundoff (e.g. after a unit round trip on disk)."""
        return (
            self.n_bins == other.n_bins
            and abs(self.start - other.start) <= rel * self.start
            and abs(self.step - other.step) <= rel * self.step
        )


@dataclass(frozen=True)
class JointSpectralAmplitude:
    """Complex two-photon amplitude psi(lambda_s, lambda_i), both photons on one grid.

    Values are densities per nm: sum(|psi|^2) * step_nm^2 = 1.
    """

    grid: WavelengthGrid
    amplitude: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitude, dtype=complex)
        n = self.grid.n_bins
        if amp.shape != (n, n):
            raise ValueError(f"amplitude shape {amp.shape} does not match the grid ({n}, {n})")
        total = float(np.sum(np.abs(amp) ** 2)) * self.area_nm2
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"amplitude not normalized: sum|psi|^2*area = {total!r}")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitude", amp)

    @property
    def area_nm2(self) -> float:
        """Bin area of the joint grid [nm^2]."""
        return self.grid.step_nm * self.grid.step_nm

    def intensity(self) -> np.ndarray:
        """Joint spectral intensity |psi|^2 [1/nm^2]."""
        return np.abs(self.amplitude) ** 2


def gaussian_jsa(
    center: float,
    marginal_fwhm: float,
    correlation: float,
    grid: WavelengthGrid,
) -> JointSpectralAmplitude:
    """Bivariate-Gaussian JSA, real, non-negative, symmetric under s<->i.

    ``marginal_fwhm`` is the intensity FWHM of each photon's marginal
    spectrum [m]; ``correlation`` is the JSI correlation coefficient in
    (-1, 1).  The amplitude is normalized on the grid, so the discrete JSI
    sums to exactly one; raises GridTooNarrow when the grid spans less than
    one marginal FWHM or does not contain the center, or when its bins are
    so coarse that none samples the JSA.
    """
    if not marginal_fwhm > 0.0:
        raise ValueError(f"marginal_fwhm must be positive, got {marginal_fwhm}")
    if not -1.0 < correlation < 1.0:
        raise ValueError(f"correlation must lie in (-1, 1), got {correlation}")
    low = grid.start - 0.5 * grid.step
    high = low + grid.span
    if grid.span < marginal_fwhm or not low <= center <= high:
        raise GridTooNarrow(
            f"grid [{low * 1e9:.3f}, {high * 1e9:.3f}] nm does not cover "
            f"one marginal FWHM ({marginal_fwhm * 1e9:.3f} nm) around "
            f"{center * 1e9:.3f} nm"
        )

    sigma = marginal_fwhm / FWHM_PER_SIGMA
    u = (grid.centers - center) / sigma
    u_s, u_i = u[:, None], u[None, :]
    # Bins far out in units of sigma overflow; the peak check below rejects them.
    with np.errstate(over="ignore", invalid="ignore"):
        quad = (u_s**2 - 2.0 * correlation * u_s * u_i + u_i**2) / (1.0 - correlation**2)
        # Amplitude = sqrt of the bivariate normal kernel, so the JSI carries the
        # requested marginal width and correlation.
        amp = np.exp(-0.25 * quad)
    if not amp.max() > 1e-100:  # below it the squares lose precision, or underflow
        raise GridTooNarrow(f"no bin samples the JSA (best bin at {amp.max():.3g} of its peak); "
                            "use finer bins, a wider JSA or a smaller |correlation|")
    amp = 0.5 * (amp + amp.T)
    amp = amp / np.sqrt(np.sum(amp**2) * (grid.step_nm * grid.step_nm))
    return JointSpectralAmplitude(grid, amp.astype(complex))


def apply_signal_phase(
    jsa: JointSpectralAmplitude, model: DispersionModel
) -> JointSpectralAmplitude:
    """Imprint the vapor's spectral phase on the signal photon.

    psi(s, i) -> psi(s, i) * exp(i*phi(lambda_s)); unit-modulus factor, so
    the JSI and normalization are untouched.
    """
    phase = spectral_phase(model, jsa.grid.centers)
    return JointSpectralAmplitude(jsa.grid, jsa.amplitude * np.exp(1j * phase)[:, None])
