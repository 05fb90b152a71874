"""Rb vapor thermodynamics and the resonant dispersion it imprints on light.

A femtosecond photon crossing a heated vapor cell is far broader in bandwidth
than the Doppler-broadened D1 line, so the interaction is almost purely
dispersive.  A single Lorentzian resonance models it: each spectral component
of the field picks up the complex factor

    H(omega) = exp[-OD / (1 - i*(omega - omega0)*tau)],

whose argument is the spectral phase.  In wavelength terms, with the reduced
detuning x = 2*pi*tau*c*(lambda - lambda0)/lambda0**2,

    phi(lambda) = OD * x / (1 + x**2),

an odd function of x bounded by OD/2 in magnitude.
"""

import math
from dataclasses import dataclass

import numpy as np

from .constants import CODATA, RB87, TORR_TO_PASCAL
from .errors import OutOfModelRange

# Validity window of the liquid-phase vapor-pressure correlation [K].
PRESSURE_MODEL_T_MIN = 250.0
PRESSURE_MODEL_T_MAX = 600.0

# Default threshold for the "much greater than" absorption-neglect test.
ABSORPTION_KAPPA = 100.0


@dataclass(frozen=True)
class VaporCell:
    """Heated vapor cell: temperature [K] and optical path length [m]."""

    temperature: float
    length: float

    def __post_init__(self):
        if not self.temperature > 0.0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if self.length < 0.0:
            raise ValueError(f"length must be non-negative, got {self.length}")


@dataclass(frozen=True)
class DispersionModel:
    """Lorentzian-resonance dispersion parameters.

    od is the optical depth (dimensionless), tau the Doppler-broadened
    excited-state lifetime [s], lambda0 the resonance wavelength [m].
    Physical cells always yield od >= 0; a negative od is accepted and
    simply flips the sign of the imprinted phase, which is occasionally
    useful as an exact inverse of a phase application.
    """

    od: float
    tau: float
    lambda0: float = RB87.d1_wavelength

    def __post_init__(self):
        if not math.isfinite(self.od):
            raise ValueError(f"od must be finite, got {self.od}")
        if not self.tau > 0.0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if not self.lambda0 > 0.0:
            raise ValueError(f"lambda0 must be positive, got {self.lambda0}")

    @property
    def omega0(self) -> float:
        """Resonance angular frequency [rad/s]."""
        return 2.0 * math.pi * CODATA.c / self.lambda0


def vapor_pressure(temperature: float) -> float:
    """Rb vapor pressure [Torr] from the liquid-phase log10 correlation.

    Valid for 250 K <= T <= 600 K; raises OutOfModelRange outside.
    """
    if not PRESSURE_MODEL_T_MIN <= temperature <= PRESSURE_MODEL_T_MAX:
        raise OutOfModelRange(
            f"vapor pressure model valid on [{PRESSURE_MODEL_T_MIN:g} K, "
            f"{PRESSURE_MODEL_T_MAX:g} K], got {temperature:g} K"
        )
    exponent = (
        15.88253
        - 4529.635 / temperature
        + 0.00058663 * temperature
        - 2.99138 * math.log10(temperature)
    )
    return 10.0**exponent


def doppler_lifetime(temperature: float) -> float:
    """Doppler-broadened excited-state lifetime tau(T) = 1/Delta(T) [s].

    Delta(T) = (2*omega0/c) * sqrt(2*k_B*T/m) is the Doppler linewidth of the
    D1 transition; tau falls as 1/sqrt(T).
    """
    if not temperature > 0.0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    width = (2.0 * RB87.omega0 / CODATA.c) * math.sqrt(
        2.0 * CODATA.k_b * temperature / RB87.mass
    )
    if width == 0.0:
        raise ValueError(f"temperature {temperature!r} K is so small that the Doppler width is 0")
    return 1.0 / width


def optical_depth(cell: VaporCell) -> float:
    """Optical depth of the cell: optical density integrated over its length.

    OD = P(T)/(k_B*T)^(3/2) * mu^2/(4*eps0*hbar) * sqrt(m/2) * L, with the
    vapor pressure converted from Torr to Pa.
    """
    pressure_pa = vapor_pressure(cell.temperature) * TORR_TO_PASCAL
    kt = CODATA.k_b * cell.temperature
    return (
        pressure_pa
        / kt**1.5
        * RB87.dipole_moment**2
        / (4.0 * CODATA.eps0 * CODATA.hbar)
        * math.sqrt(RB87.mass / 2.0)
        * cell.length
    )


def reduced_detuning(model: DispersionModel, wavelength) -> np.ndarray:
    """Reduced detuning x = 2*pi*tau*c*(lambda - lambda0)/lambda0**2."""
    lam = np.asarray(wavelength, dtype=float)
    return 2.0 * math.pi * model.tau * CODATA.c * (lam - model.lambda0) / model.lambda0**2


def spectral_phase(model: DispersionModel, wavelength) -> np.ndarray:
    """Spectral phase phi(lambda) = OD * x/(1 + x^2) [rad].

    Odd in the reduced detuning x, with extrema +-OD/2 at x = +-1.
    Accepts scalars or arrays of wavelength [m].
    """
    lam = np.asarray(wavelength, dtype=float)
    if np.any(lam <= 0.0):
        raise ValueError("wavelength must be positive")
    x = reduced_detuning(model, lam)
    return model.od * x / (1.0 + x * x)


def transfer_function(model: DispersionModel, omega) -> np.ndarray:
    """Complex field transfer factor exp[-OD/(1 - i*(omega - omega0)*tau)].

    The modulus is the on/near-resonance attenuation, the argument the
    dispersive phase.  Accepts scalars or arrays of angular frequency [rad/s].
    """
    w = np.asarray(omega, dtype=float)
    if np.any(w <= 0.0):
        raise ValueError("angular frequency must be positive")
    detuning = (w - model.omega0) * model.tau
    return np.exp(-model.od / (1.0 - 1j * detuning))


def absorption_negligible(
    model: DispersionModel, omega: float, kappa: float = ABSORPTION_KAPPA
) -> tuple[bool, float]:
    """Check (omega - omega0)^2 * tau^2 >> OD, the pure-phase condition.

    Operationalized as lhs >= kappa * OD.  Returns (ok, margin) where margin
    is the ratio lhs/OD (inf when OD = 0).  Always False exactly on
    resonance, where the interaction is purely absorptive.
    """
    detuning_sq = ((omega - model.omega0) * model.tau) ** 2
    if detuning_sq == 0.0:
        return False, 0.0
    if model.od == 0.0:
        return True, math.inf
    margin = detuning_sq / model.od
    return margin >= kappa, margin
