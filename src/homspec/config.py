"""Declarative experiment configuration.

Flat ``key = value`` text files with unit suffixes ("temperature = 188 C",
"t_exp = 11 us").  Unknown keys are rejected with the offending line number,
as are duplicates and malformed values.  write-config emits the effective
settings in canonical SI units; parsing that output reproduces the exact
same configuration (repr round trip).

Defaults are the published three-temperature setup: a 5 cm cell, a 10 nm
filter centered at 796.7 nm, an 80 MHz source integrated for 11 us per
frame (880 repetitions), and a 140-bin spectrometer axis spanning
790-803 nm.
"""

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .constants import RB87
from .detector import DetectionParams
from .errors import ConfigError, GridTooNarrow
from .retrieval import FitConfig
from .spectra import JointSpectralAmplitude, WavelengthGrid, gaussian_jsa
from .vapor import (PRESSURE_MODEL_T_MAX, PRESSURE_MODEL_T_MIN, DispersionModel, VaporCell,
                    doppler_lifetime, optical_depth, spectral_phase)

_LENGTH_UNITS = {"nm": 1e-9, "um": 1e-6, "µm": 1e-6, "mm": 1e-3, "cm": 1e-2, "m": 1.0}
_TIME_UNITS = {"fs": 1e-15, "ps": 1e-12, "ns": 1e-9, "us": 1e-6, "µs": 1e-6, "ms": 1e-3, "s": 1.0}
_FREQUENCY_UNITS = {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9}

CELSIUS_OFFSET = 273.15


@dataclass(frozen=True)
class ExperimentConfig:
    """Effective settings of one simulated experiment, all SI internally."""

    temperature_k: float = 188.0 + CELSIUS_OFFSET
    cell_length_m: float = 0.05
    od_override: float | None = None
    filter_center_m: float = 796.7e-9
    jsa_fwhm_m: float = 10e-9
    jsa_correlation: float = -0.9
    grid_start_m: float = 790e-9
    grid_stop_m: float = 803e-9
    grid_bins: int = 140
    visibility: float = 1.0
    kernel_width: int = 1
    chi: float = 4.5455e-4
    eta: float = 0.25
    f_rep_hz: float = 80e6
    t_exp_s: float = 11e-6
    dark_rate: float = 0.0
    seed: int = 12345
    fit_od_min: float = 0.0
    fit_od_max: float = 1e6
    fit_delay: bool = True
    fit_delay_min_s: float = -100e-15
    fit_delay_max_s: float = 100e-15
    mask_radius: int = 2

    def __post_init__(self):
        """Reject every value the pipeline cannot run with, naming its key.

        The checks take O(1) time.  Whether the bins sample the JSA at all is
        left to jsa(), which builds the grid_bins**2 amplitude anyway.
        """
        _require(0.0 < self.temperature_k < math.inf, "temperature must be finite and > 0",
                 self.temperature_k)
        _require(0.0 <= self.cell_length_m < math.inf, "cell_length must be finite and >= 0",
                 self.cell_length_m)
        if self.od_override is None:
            _require(PRESSURE_MODEL_T_MIN <= self.temperature_k <= PRESSURE_MODEL_T_MAX,
                     "temperature must lie in the vapor-pressure model's range "
                     f"[{PRESSURE_MODEL_T_MIN:g} K, {PRESSURE_MODEL_T_MAX:g} K] unless od is set",
                     self.temperature_k)
        try:
            model = self.dispersion_model()
        except ValueError as exc:  # an od that is not finite, set or from cell_length
            raise ConfigError(str(exc)) from None
        # ZHF1 stores bin indices as u16.
        _require(2 <= self.grid_bins <= 0xFFFF, "grid_bins must lie in [2, 65535]", self.grid_bins)
        _check_range("grid_start", "grid_stop", self.grid_start_m, self.grid_stop_m)
        _require(self.grid_start_m <= self.filter_center_m <= self.grid_stop_m,
                 "filter_center must lie on the grid", self.filter_center_m)
        step = (self.grid_stop_m - self.grid_start_m) / self.grid_bins  # as the grid computes it
        _require(0.0 < self.jsa_fwhm_m <= step * self.grid_bins,
                 "jsa_fwhm must be positive and at most the grid span", self.jsa_fwhm_m)
        # |phase| is largest at the outermost bin centers.
        outer = np.array([self.grid_start_m + 0.5 * step, self.grid_stop_m - 0.5 * step])
        with np.errstate(over="ignore", invalid="ignore"):
            phase = spectral_phase(model, outer)
        _require(np.all(np.isfinite(phase)), "od overflows the spectral phase on this grid",
                 model.od)
        _require(-1.0 < self.jsa_correlation < 1.0, "jsa_correlation must lie in (-1, 1)",
                 self.jsa_correlation)
        _require(0.0 <= self.visibility <= 1.0, "visibility must lie in [0, 1]", self.visibility)
        _require(1 <= self.kernel_width <= self.grid_bins and self.kernel_width % 2 == 1,
                 "kernel_width must be odd and lie in [1, grid_bins]", self.kernel_width)
        try:
            self.detection_params()
        except ValueError as exc:  # its messages start with the config key
            raise ConfigError(str(exc)) from None
        _check_range("fit_od_min", "fit_od_max", self.fit_od_min, self.fit_od_max)
        _check_range("fit_delay_min", "fit_delay_max", self.fit_delay_min_s, self.fit_delay_max_s,
                     nonnegative=False)
        _require(self.mask_radius >= 0, "mask_radius must be >= 0", self.mask_radius)

    def grid(self) -> WavelengthGrid:
        return WavelengthGrid.from_edges(self.grid_start_m, self.grid_stop_m, self.grid_bins)

    def vapor_cell(self) -> VaporCell:
        return VaporCell(temperature=self.temperature_k, length=self.cell_length_m)

    def dispersion_model(self) -> DispersionModel:
        od = self.od_override
        if od is None:
            od = optical_depth(self.vapor_cell())
        return DispersionModel(
            od=od,
            tau=doppler_lifetime(self.temperature_k),
            lambda0=RB87.d1_wavelength,
        )

    def jsa(self) -> JointSpectralAmplitude:
        try:
            return gaussian_jsa(
                center=self.filter_center_m,
                marginal_fwhm=self.jsa_fwhm_m,
                correlation=self.jsa_correlation,
                grid_s=self.grid(),
            )
        except GridTooNarrow as exc:  # __post_init__ leaves out only the sampling check
            raise ConfigError(f"jsa_fwhm and jsa_correlation do not fit the grid: {exc}") from None

    def detection_params(self) -> DetectionParams:
        return DetectionParams(
            chi=self.chi,
            eta=self.eta,
            f_rep=self.f_rep_hz,
            t_exp=self.t_exp_s,
            dark_rate=self.dark_rate,
            seed=self.seed,
        )

    def fit_config(self) -> FitConfig:
        return FitConfig(
            tau=doppler_lifetime(self.temperature_k),
            od_bounds=(self.fit_od_min, self.fit_od_max),
            delay_bounds_fs=(self.fit_delay_min_s / 1e-15, self.fit_delay_max_s / 1e-15),
            fit_delay=self.fit_delay,
            mask_radius=self.mask_radius,
            kernel_width=self.kernel_width,
        )


def _require(ok: bool, message: str, value) -> None:
    if not ok:
        raise ConfigError(f"{message}, got {value!r}")


def _check_range(low_key: str, high_key: str, low: float, high: float, nonnegative: bool = True):
    """Require finite (by default non-negative) low < high, naming the offending key."""
    for key, value in ((low_key, low), (high_key, high)):
        _require(math.isfinite(value) and (value >= 0.0 or not nonnegative),
                 f"{key} must be finite" + (" and >= 0" if nonnegative else ""), value)
    _require(low < high, f"{low_key} must lie below {high_key}", (low, high))


def _parse_unit_value(raw: str, units: dict[str, float], what: str, where: str) -> float:
    parts = raw.split()
    try:
        if len(parts) == 1:
            return float(parts[0])
        if len(parts) == 2 and parts[1] in units:
            return float(parts[0]) * units[parts[1]]
    except ValueError:
        pass
    known = "/".join(units)
    raise ConfigError(f"{where}: expected {what} as '<number> [{known}]', got {raw!r}")


def _parse_temperature(raw: str, where: str) -> float:
    parts = raw.split()
    try:
        if len(parts) == 2 and parts[1] == "C":
            return float(parts[0]) + CELSIUS_OFFSET
        if len(parts) == 2 and parts[1] == "K":
            return float(parts[0])
        if len(parts) == 1:
            return float(parts[0])  # bare value reads as kelvin
    except ValueError:
        pass
    raise ConfigError(f"{where}: expected temperature as '<number> C|K', got {raw!r}")


def _parse_float(raw: str, where: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{where}: expected a number, got {raw!r}") from None


def _parse_int(raw: str, where: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{where}: expected an integer, got {raw!r}") from None


def _parse_bool(raw: str, where: str) -> bool:
    if raw in ("true", "yes", "on", "1"):
        return True
    if raw in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"{where}: expected true/false, got {raw!r}")


def _parse_od(raw: str, where: str):
    if raw == "auto":
        return None
    return _parse_float(raw, where)


_PARSERS = {
    "temperature": ("temperature_k", _parse_temperature),
    "cell_length": ("cell_length_m", lambda r, w: _parse_unit_value(r, _LENGTH_UNITS, "a length", w)),
    "od": ("od_override", _parse_od),
    "filter_center": ("filter_center_m", lambda r, w: _parse_unit_value(r, _LENGTH_UNITS, "a length", w)),
    "jsa_fwhm": ("jsa_fwhm_m", lambda r, w: _parse_unit_value(r, _LENGTH_UNITS, "a length", w)),
    "jsa_correlation": ("jsa_correlation", _parse_float),
    "grid_start": ("grid_start_m", lambda r, w: _parse_unit_value(r, _LENGTH_UNITS, "a length", w)),
    "grid_stop": ("grid_stop_m", lambda r, w: _parse_unit_value(r, _LENGTH_UNITS, "a length", w)),
    "grid_bins": ("grid_bins", _parse_int),
    "visibility": ("visibility", _parse_float),
    "kernel_width": ("kernel_width", _parse_int),
    "chi": ("chi", _parse_float),
    "eta": ("eta", _parse_float),
    "f_rep": ("f_rep_hz", lambda r, w: _parse_unit_value(r, _FREQUENCY_UNITS, "a frequency", w)),
    "t_exp": ("t_exp_s", lambda r, w: _parse_unit_value(r, _TIME_UNITS, "a time", w)),
    "dark_rate": ("dark_rate", _parse_float),
    "seed": ("seed", _parse_int),
    "fit_od_min": ("fit_od_min", _parse_float),
    "fit_od_max": ("fit_od_max", _parse_float),
    "fit_delay": ("fit_delay", _parse_bool),
    "fit_delay_min": ("fit_delay_min_s", lambda r, w: _parse_unit_value(r, _TIME_UNITS, "a time", w)),
    "fit_delay_max": ("fit_delay_max_s", lambda r, w: _parse_unit_value(r, _TIME_UNITS, "a time", w)),
    "mask_radius": ("mask_radius", _parse_int),
}

_FIELD_TO_KEY = {field: key for key, (field, _) in _PARSERS.items()}

# Keys that older versions wrote; naming them is an error that says why.
_REMOVED_KEYS = {
    "fit_init_od": "the fit scans od over its bounds; set fit_od_min and fit_od_max instead",
    "fit_init_visibility": "the fit solves visibility in closed form",
    "fit_visibility_min": "the fit bounds visibility to its physical range [0, 1]",
    "fit_visibility_max": "the fit bounds visibility to its physical range [0, 1]",
    "fit_max_iterations": "the fit caps each solve at 400 function evaluations",
    "fit_tol": "the fit's solver tolerances are fixed at 1e-12",
}


def _parse_updates(text: str, source: str) -> dict:
    """Field values set by config text, parsed but not yet validated together."""
    updates = {}
    seen = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        where = f"{source}:{lineno}"
        if "=" not in stripped:
            raise ConfigError(f"{where}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key in _REMOVED_KEYS:
            raise ConfigError(f"{where}: key {key!r} was removed ({_REMOVED_KEYS[key]})")
        if key not in _PARSERS:
            raise ConfigError(f"{where}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{where}: duplicate key {key!r} (first on line {seen[key]})")
        seen[key] = lineno
        field_name, parser = _PARSERS[key]
        updates[field_name] = parser(raw, where)
    return updates


def parse_config(text: str, base: ExperimentConfig | None = None, source: str = "config") -> ExperimentConfig:
    """Parse config text on top of ``base`` (or the defaults)."""
    return replace(base if base is not None else ExperimentConfig(), **_parse_updates(text, source))


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, source=str(path))


def apply_overrides(config: ExperimentConfig, overrides: list[str]) -> ExperimentConfig:
    """Apply repeatable --override key=value settings on top of a config.

    A later override of a key wins, and the result is validated once, so the
    order of overrides of different keys does not matter.
    """
    updates = {}
    for n, item in enumerate(overrides, start=1):
        updates.update(_parse_updates(item, f"override {n}"))
    return replace(config, **updates)


def format_config(config: ExperimentConfig) -> str:
    """Serialize the effective settings in canonical SI units.

    The output parses back to the identical configuration: floats are
    written with repr, temperatures in K, lengths in m, times in s.
    """
    lines = ["# effective settings, canonical SI units"]
    for f in fields(ExperimentConfig):
        key = _FIELD_TO_KEY[f.name]
        value = getattr(config, f.name)
        if f.name == "temperature_k":
            rendered = f"{value!r} K"
        elif f.name.endswith("_m"):
            rendered = f"{value!r} m"
        elif f.name.endswith("_s"):
            rendered = f"{value!r} s"
        elif f.name.endswith("_hz"):
            rendered = f"{value!r} Hz"
        elif f.name == "od_override":
            rendered = "auto" if value is None else repr(value)
        elif isinstance(value, bool):
            rendered = "true" if value else "false"
        else:
            rendered = repr(value)
        lines.append(f"{key} = {rendered}")
    return "\n".join(lines) + "\n"
