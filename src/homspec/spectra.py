"""Wavelength grids and the two-photon joint spectral amplitude (JSA).

The source model is a frequency-degenerate photon pair with a bivariate
Gaussian joint spectral intensity (JSI): equal marginals on both photons and
a single correlation coefficient rho setting the ellipticity.  rho < 0 gives
the anticorrelated antidiagonal ridge characteristic of energy conservation
in parametric down-conversion; rho = 0 gives a circular JSI.

Amplitude normalization convention: grids are stored in meters, but JSA and
coincidence-map values are spectral densities per nanometer (amplitude) and
per nm^2 (probability), so sum(|psi|^2) * step_nm^2 = 1.  Keeping the
density measure in nm keeps map values of order one, which the numerical
identity checks between independent code paths rely on.
"""

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
    """

    start: float
    step: float
    n_bins: int

    def __post_init__(self):
        if not 0.0 < self.start < np.inf:
            raise ValueError(f"start must be positive and finite, got {self.start}")
        if not 0.0 < self.step < np.inf:
            raise ValueError(f"step must be positive and finite, got {self.step}")
        if self.n_bins < 2:
            raise ValueError(f"n_bins must be >= 2, got {self.n_bins}")

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
    """Complex two-photon amplitude psi(lambda_s, lambda_i) on a grid pair.

    Values are densities per nm: sum(|psi|^2) * step_s_nm * step_i_nm = 1.
    """

    grid_s: WavelengthGrid
    grid_i: WavelengthGrid
    amplitude: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitude, dtype=complex)
        if amp.shape != (self.grid_s.n_bins, self.grid_i.n_bins):
            raise ValueError(
                f"amplitude shape {amp.shape} does not match grids "
                f"({self.grid_s.n_bins}, {self.grid_i.n_bins})"
            )
        total = float(np.sum(np.abs(amp) ** 2)) * self.area_nm2
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"amplitude not normalized: sum|psi|^2*area = {total!r}")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitude", amp)

    @property
    def area_nm2(self) -> float:
        """Bin area of the joint grid [nm^2]."""
        return self.grid_s.step_nm * self.grid_i.step_nm

    def intensity(self) -> np.ndarray:
        """Joint spectral intensity |psi|^2 [1/nm^2]."""
        return np.abs(self.amplitude) ** 2

    def is_square(self) -> bool:
        return self.grid_s == self.grid_i


def gaussian_jsa(
    center: float,
    marginal_fwhm: float,
    correlation: float,
    grid_s: WavelengthGrid,
    grid_i: WavelengthGrid | None = None,
) -> JointSpectralAmplitude:
    """Bivariate-Gaussian JSA, real, non-negative, symmetric under s<->i.

    ``marginal_fwhm`` is the intensity FWHM of each photon's marginal
    spectrum [m]; ``correlation`` is the JSI correlation coefficient in
    (-1, 1).  The amplitude is normalized on the grid, so the discrete JSI
    sums to exactly one; raises GridTooNarrow when a grid spans less than
    one marginal FWHM or does not contain the center, or when its bins are
    so coarse that none samples the JSA.
    """
    if grid_i is None:
        grid_i = grid_s
    if not marginal_fwhm > 0.0:
        raise ValueError(f"marginal_fwhm must be positive, got {marginal_fwhm}")
    if not -1.0 < correlation < 1.0:
        raise ValueError(f"correlation must lie in (-1, 1), got {correlation}")
    for name, grid in (("signal", grid_s), ("idler", grid_i)):
        low = grid.start - 0.5 * grid.step
        high = low + grid.span
        if grid.span < marginal_fwhm or not low <= center <= high:
            raise GridTooNarrow(
                f"{name} grid [{low * 1e9:.3f}, {high * 1e9:.3f}] nm does not cover "
                f"one marginal FWHM ({marginal_fwhm * 1e9:.3f} nm) around "
                f"{center * 1e9:.3f} nm"
            )

    sigma = marginal_fwhm / FWHM_PER_SIGMA
    u_s = (grid_s.centers[:, None] - center) / sigma
    u_i = (grid_i.centers[None, :] - center) / sigma
    # Bins far out in units of sigma overflow; the peak check below rejects them.
    with np.errstate(over="ignore", invalid="ignore"):
        quad = (u_s**2 - 2.0 * correlation * u_s * u_i + u_i**2) / (1.0 - correlation**2)
        # Amplitude = sqrt of the bivariate normal kernel, so the JSI carries the
        # requested marginal width and correlation.
        amp = np.exp(-0.25 * quad)
    if not amp.max() > 1e-100:  # below it the squares lose precision, or underflow
        raise GridTooNarrow(f"no bin samples the JSA (best bin at {amp.max():.3g} of its peak); "
                            "use finer bins, a wider JSA or a smaller |correlation|")
    if grid_s == grid_i:
        amp = 0.5 * (amp + amp.T)
    step_area = grid_s.step_nm * grid_i.step_nm
    amp = amp / np.sqrt(np.sum(amp**2) * step_area)
    return JointSpectralAmplitude(grid_s=grid_s, grid_i=grid_i, amplitude=amp.astype(complex))


def apply_signal_phase(
    jsa: JointSpectralAmplitude, model: DispersionModel
) -> JointSpectralAmplitude:
    """Imprint the vapor's spectral phase on the signal photon.

    psi(s, i) -> psi(s, i) * exp(i*phi(lambda_s)); unit-modulus factor, so
    the JSI and normalization are untouched.
    """
    phase = spectral_phase(model, jsa.grid_s.centers)
    amp = jsa.amplitude * np.exp(1j * phase)[:, None]
    return JointSpectralAmplitude(grid_s=jsa.grid_s, grid_i=jsa.grid_i, amplitude=amp)
