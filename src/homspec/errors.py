"""Exception types shared across the package, each raised where its rule lives.

The CLI maps ConfigError to exit 2, DataFormatError and DegenerateMap to 3.
"""


class HomspecError(Exception):
    """Base class for all package-specific errors."""


class OutOfModelRange(HomspecError):
    """Input lies outside the validity window of an empirical model."""


class GridTooNarrow(HomspecError):
    """Wavelength grid does not cover enough of the requested spectrum."""


class NonRealAmplitude(HomspecError):
    """Operation requires a real-valued joint spectral amplitude."""


class InconsistentMarginals(HomspecError):
    """Supplied port spectra are inconsistent with the coincidence map."""


class DegenerateMap(HomspecError):
    """Fit input map carries no signal: all zero, or unmasked bins summing to <= 0."""


class DataFormatError(HomspecError):
    """A data file is malformed (bad magic, version, or out-of-range fields)."""


class ConfigError(HomspecError):
    """Settings are malformed or inconsistent, among them ``--frames`` and a map grid."""
