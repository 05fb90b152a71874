import math
import re
from dataclasses import fields
from pathlib import Path

import pytest

from homspec.config import (
    _KEYS,
    _REMOVED_KEYS,
    ExperimentConfig,
    apply_overrides,
    format_config,
    load_config,
    parse_config,
)
from homspec.errors import ConfigError


class TestDefaults:
    def test_published_setup_values(self):
        cfg = ExperimentConfig()
        assert cfg.temperature_k == pytest.approx(461.15)
        assert cfg.cell_length_m == 0.05
        assert cfg.filter_center_m == pytest.approx(796.7e-9)
        assert cfg.jsa_fwhm_m == pytest.approx(10e-9)
        assert cfg.f_rep_hz == 80e6
        assert cfg.t_exp_s == 11e-6
        assert cfg.grid_bins == 140
        assert cfg.detection_params().repetitions == 880

    def test_grid_construction(self):
        grid = ExperimentConfig().grid()
        assert grid.n_bins == 140
        assert grid.step == pytest.approx(13e-9 / 140)

    def test_dispersion_model_from_temperature(self):
        model = ExperimentConfig().dispersion_model()
        assert model.od == pytest.approx(4658.74, rel=1e-4)
        assert model.tau == pytest.approx(212.967e-12, rel=1e-4)


class TestParsing:
    def test_units(self):
        cfg = parse_config(
            "temperature = 86 C\n"
            "cell_length = 5 cm\n"
            "filter_center = 796.7 nm\n"
            "t_exp = 11 us\n"
            "f_rep = 80 MHz\n"
            "fit_delay_min = -50 fs\n"
        )
        assert cfg.temperature_k == pytest.approx(359.15)
        assert cfg.cell_length_m == pytest.approx(0.05)
        assert cfg.filter_center_m == pytest.approx(796.7e-9)
        assert cfg.t_exp_s == pytest.approx(11e-6)
        assert cfg.f_rep_hz == pytest.approx(80e6)
        assert cfg.fit_delay_min_s == pytest.approx(-50e-15)

    def test_kelvin_accepted(self):
        assert parse_config("temperature = 359.15 K\n").temperature_k == 359.15

    def test_comments_and_blanks(self):
        cfg = parse_config("# a comment\n\nseed = 7\n")
        assert cfg.seed == 7

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ConfigError, match=r"config:3.*unknown key"):
            parse_config("seed = 1\n\nnot_a_key = 2\n")

    @pytest.mark.parametrize("key", [
        "fit_init_od", "fit_init_visibility", "fit_visibility_min", "fit_visibility_max",
        "fit_max_iterations", "fit_tol", "fit_delay",
    ])
    def test_removed_key_rejected_with_reason(self, key):
        with pytest.raises(ConfigError, match=rf"config:2: key '{key}' was removed \(the fit"):
            parse_config(f"seed = 1\n{key} = 0.5\n")

    def test_repetition_count_overflow_rejected(self):
        with pytest.raises(ConfigError, match=r"^f_rep \* t_exp must be finite"):
            parse_config("f_rep = 1e300 Hz\nt_exp = 1e300 s\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("seed = 1\nseed = 2\n")

    def test_malformed_value_diagnostics(self):
        with pytest.raises(ConfigError, match="config:1"):
            parse_config("temperature = warm\n")
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            parse_config("just some text\n")

    def test_bad_unit_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("cell_length = 5 lightyears\n")

    def test_od_auto_and_numeric(self):
        assert parse_config("od = auto\n").od_override is None
        assert parse_config("od = 0\n").od_override == 0.0
        cfg = parse_config("od = 0\n")
        assert cfg.dispersion_model().od == 0.0


DEFAULT_TEXT = """\
# effective settings, canonical SI units
temperature = 461.15 K
cell_length = 0.05 m
od = auto
filter_center = 7.967e-07 m
jsa_fwhm = 1e-08 m
jsa_correlation = -0.9
grid_start = 7.9e-07 m
grid_stop = 8.03e-07 m
grid_bins = 140
visibility = 1.0
kernel_width = 1
chi = 0.00045455
eta = 0.25
f_rep = 80000000.0 Hz
t_exp = 1.1e-05 s
dark_rate = 0.0
seed = 12345
fit_od_min = 0.0
fit_od_max = 1000000.0
fit_delay_min = -1e-13 s
fit_delay_max = 1e-13 s
mask_radius = 2
"""


class TestRoundTrip:
    def test_defaults_text_is_pinned(self):
        assert format_config(ExperimentConfig()) == DEFAULT_TEXT

    def test_every_field_has_one_key(self):
        assert sorted(field for field, _ in _KEYS.values()) == sorted(
            f.name for f in fields(ExperimentConfig))

    def test_defaults_round_trip_exactly(self):
        cfg = ExperimentConfig()
        assert parse_config(format_config(cfg)) == cfg

    def test_modified_config_round_trips(self):
        cfg = parse_config(
            "temperature = 86 C\nchi = 3.21e-4\nseed = 99\njsa_correlation = -0.7\n"
            "od = 17.5\n"
        )
        assert parse_config(format_config(cfg)) == cfg

    def test_file_io(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(format_config(ExperimentConfig()), encoding="utf-8")
        assert load_config(path) == ExperimentConfig()

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config("/nonexistent/path.cfg")


class TestOverrides:
    def test_applied_in_order(self):
        cfg = apply_overrides(ExperimentConfig(), ["seed = 5", "seed = 6"])
        assert cfg.seed == 6

    def test_order_independent(self):
        # Either override alone leaves f_rep * t_exp below one repetition;
        # together, in either order, they give exactly one.
        pair = ["f_rep = 1 Hz", "t_exp = 1 s"]
        forward = apply_overrides(ExperimentConfig(), pair)
        assert forward == apply_overrides(ExperimentConfig(), pair[::-1])
        assert forward.detection_params().repetitions == 1

    def test_override_units(self):
        cfg = apply_overrides(ExperimentConfig(), ["temperature = 174 C"])
        assert cfg.temperature_k == pytest.approx(447.15)

    def test_bad_override_reports_source(self):
        with pytest.raises(ConfigError, match="override 1"):
            apply_overrides(ExperimentConfig(), ["bogus = 1"])


class TestReadmeKeyTable:
    README = (Path(__file__).resolve().parent.parent / "README.md").read_text("utf-8")
    ROWS = re.findall(r"^\| `(\w+)` \| ([^|]+) \| `([^`]+)` \|", README, re.MULTILINE)

    def test_names_every_key_once(self):
        assert [key for key, _, _ in self.ROWS] == list(_KEYS)

    def test_names_every_removed_key_once(self):
        paragraph = re.search(r"^Configs saved by older versions.*?\n\n", self.README,
                              re.MULTILINE | re.DOTALL).group()
        assert re.findall(r"`(\w+)`", paragraph) == list(_REMOVED_KEYS)

    def test_units_and_defaults(self):
        defaults = ExperimentConfig()
        for key, units, default in self.ROWS:
            field, kind = _KEYS[key]
            if isinstance(kind, dict):
                assert units == ", ".join(kind), key
            want = getattr(defaults, field)
            got = getattr(parse_config(f"{key} = {default}"), field)
            assert got == want or math.isclose(got, want, rel_tol=1e-15), key
