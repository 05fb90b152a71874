"""Two-photon interference at a balanced beamsplitter, spectrally resolved.

With the pair transformed into the +/- output modes, the probability of a
cross-port coincidence at wavelengths (lambda_+, lambda_-) is

    P_c = 1/4 * |psi(l+, l-) - psi(l-, l+)|^2,

and the same-port (bunching) weight is the antisymmetrization's complement,
1/4 * |psi(l+, l-) + psi(l-, l+)|^2.  For a real symmetric amplitude whose
signal arm carries a spectral phase phi, the coincidence map reduces to the
fringe form

    P_c = 1/2 * [1 - V*cos(phi(l+) - phi(l-))] * |psi(l+, l-)|^2,

with visibility V <= 1 absorbing residual mode mismatch.  Both forms are
implemented as independent code paths and are required to agree.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .constants import CODATA
from .errors import GridMismatch, NonRealAmplitude
from .spectra import JointSpectralAmplitude, WavelengthGrid
from .vapor import DispersionModel, spectral_phase

SUM_CONSERVATION_TOL = 1e-9


class MapKind(enum.Enum):
    PROBABILITY = "probability"
    COVARIANCE = "covariance"
    RAW = "raw"
    ACCIDENTAL = "accidental"


@dataclass(frozen=True)
class CoincidenceMap:
    """Real-valued map over the (lambda_+, lambda_-) bin grid.

    Value conventions by kind:
      probability -- density per nm^2 (theory maps; non-negative, total <= 1)
      raw, accidental -- per-bin-pair frame averages in [0, 1]
      covariance -- raw minus accidental; may be negative
    """

    grid_p: WavelengthGrid
    grid_m: WavelengthGrid
    values: np.ndarray
    kind: MapKind

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid_p.n_bins, self.grid_m.n_bins):
            raise ValueError(
                f"values shape {vals.shape} does not match grids "
                f"({self.grid_p.n_bins}, {self.grid_m.n_bins})"
            )
        if self.kind is MapKind.PROBABILITY:
            if np.any(vals < 0.0):
                raise ValueError("probability map must be non-negative")
            total = float(np.sum(vals)) * self.area_nm2
            if total > 1.0 + SUM_CONSERVATION_TOL:
                raise ValueError(f"probability map total {total!r} exceeds 1")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def area_nm2(self) -> float:
        return self.grid_p.step_nm * self.grid_m.step_nm

    def total(self) -> float:
        """Sum of values times bin area (probability kinds only make sense)."""
        return float(np.sum(self.values)) * self.area_nm2


@dataclass(frozen=True)
class InterferenceSettings:
    """Scalar fringe visibility, 1 for perfectly indistinguishable photons."""

    visibility: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError(f"visibility must lie in [0, 1], got {self.visibility}")


def _require_square(jsa: JointSpectralAmplitude):
    if not jsa.is_square():
        raise GridMismatch("signal and idler grids must be identical")


def coincidence_probability(jsa: JointSpectralAmplitude) -> CoincidenceMap:
    """Cross-port coincidence map from the antisymmetrized amplitude.

    P_c(a, b) = 1/4 * |psi(a, b) - psi(b, a)|^2; identically zero on the
    diagonal and symmetric under axis swap.
    """
    _require_square(jsa)
    amp = jsa.amplitude
    values = 0.25 * np.abs(amp - amp.T) ** 2
    return CoincidenceMap(jsa.grid_s, jsa.grid_i, values, MapKind.PROBABILITY)


def bunching_probability(jsa: JointSpectralAmplitude) -> CoincidenceMap:
    """Same-port pair weight, 1/4 * |psi(a, b) + psi(b, a)|^2 per bin pair.

    Complements coincidence_probability bin by bin:
    P_c + P_bunch = (|psi(a, b)|^2 + |psi(b, a)|^2) / 2.
    """
    _require_square(jsa)
    amp = jsa.amplitude
    values = 0.25 * np.abs(amp + amp.T) ** 2
    return CoincidenceMap(jsa.grid_s, jsa.grid_i, values, MapKind.PROBABILITY)


def phase_difference(
    model: DispersionModel, centers: np.ndarray, residual_delay: float = 0.0
) -> np.ndarray:
    """Matrix of phi(l+) - phi(l-) over the bin centers [rad].

    A residual idler delay [s] adds the linear phase
    2*pi*c*delay*(1/l+ - 1/l-).
    """
    phi = spectral_phase(model, centers)
    dphi = phi[:, None] - phi[None, :]
    if residual_delay != 0.0:
        inv = 1.0 / centers
        dphi = dphi + 2.0 * math.pi * CODATA.c * residual_delay * (inv[:, None] - inv[None, :])
    return dphi


def coincidence_probability_cosine(
    jsa: JointSpectralAmplitude,
    model: DispersionModel,
    settings: InterferenceSettings = InterferenceSettings(),
    residual_delay: float = 0.0,
) -> CoincidenceMap:
    """Coincidence map in the fringe form, from a phase-free amplitude.

    P_c = 1/2 * [1 - V*cos(dphi)] * |psi|^2 with dphi the signal-phase
    difference between the two spectral coordinates plus, optionally, a
    residual idler-delay term 2*pi*c*delay*(1/l+ - 1/l-).  The input
    amplitude must be real (phase not yet applied); raises NonRealAmplitude
    otherwise.
    """
    _require_square(jsa)
    if np.any(jsa.amplitude.imag != 0.0):
        raise NonRealAmplitude("cosine form requires a real (phase-free) amplitude")
    dphi = phase_difference(model, jsa.grid_s.centers, residual_delay)
    values = 0.5 * (1.0 - settings.visibility * np.cos(dphi)) * jsa.amplitude.real**2
    return CoincidenceMap(jsa.grid_s, jsa.grid_i, values, MapKind.PROBABILITY)


def pixel_average(cmap: CoincidenceMap, kernel_width: int) -> CoincidenceMap:
    """Boxcar-average the map over kernel_width bins along both axes.

    Models finite spectrometer resolution; symmetric boundary handling keeps
    the total conserved.  kernel_width must be odd and >= 1; width 1 is the
    identity.
    """
    if kernel_width < 1 or kernel_width % 2 == 0:
        raise ValueError(f"kernel_width must be odd and >= 1, got {kernel_width}")
    if kernel_width == 1:
        return cmap
    values = ndimage.uniform_filter(cmap.values, size=kernel_width, mode="reflect")
    return CoincidenceMap(cmap.grid_p, cmap.grid_m, values, cmap.kind)


def port_spectra(jsa: JointSpectralAmplitude) -> tuple[np.ndarray, np.ndarray]:
    """Mean single-photon spectra at the two beamsplitter ports [1/nm].

    Each photon's marginal splits evenly between the ports, so each port
    sees the symmetrized JSI marginal; each spectrum integrates to one
    photon per generated pair.
    """
    _require_square(jsa)
    jsi = jsa.intensity()
    sym = 0.5 * (jsi + jsi.T)
    marginal = np.sum(sym, axis=1) * jsa.grid_i.step_nm
    return marginal, marginal.copy()
