"""Spectrally-resolved two-photon interference of a resonantly phased photon.

One photon of an ultrafast pair crosses hot Rb vapor and picks up the
spectral phase of a single Lorentzian resonance; interfering the pair on a
balanced beamsplitter and counting coincidences between the spectrally
resolved output ports maps the phase difference between every pair of
wavelength components.  The package simulates the whole chain -- vapor
dispersion, joint spectral amplitude, interference, camera-frame photon
statistics with accidental-coincidence subtraction -- and solves the
inverse problem of recovering optical depth and visibility from a measured
coincidence map.
"""

from .constants import CODATA, RB87, PhysicalConstants, RbProperties
from .detector import DetectionParams, FrameBatch
from .interference import CoincidenceMap, MapKind
from .retrieval import FitConfig, FitResult
from .spectra import JointSpectralAmplitude, WavelengthGrid
from .vapor import DispersionModel, VaporCell

__version__ = "0.1.0"

__all__ = [
    "CODATA",
    "RB87",
    "PhysicalConstants",
    "RbProperties",
    "DetectionParams",
    "FrameBatch",
    "CoincidenceMap",
    "MapKind",
    "FitConfig",
    "FitResult",
    "JointSpectralAmplitude",
    "WavelengthGrid",
    "DispersionModel",
    "VaporCell",
    "__version__",
]
