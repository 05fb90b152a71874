import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homspec import detector, retrieval
from homspec.cli import main
from homspec.config import _PARSERS, _REMOVED_KEYS
from homspec.mapio import read_map_csv
from homspec.retrieval import FitResult
from homspec.zhf import read_frames

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

FAST = [
    "--override", "grid_bins = 64",
    "--override", "eta = 0.6",
    "--override", "chi = 1.893939e-4",
]


def write_cfg(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestTheory:
    def test_warm_cell_map_and_phase_files(self, tmp_path, capsys):
        rc = main(["theory", "--config", str(CONFIG_DIR / "t3_86C.cfg"),
                   "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "od = 20.2" in out
        values, grid_p, _ = read_map_csv(tmp_path / "pc_map.csv")
        # resonance cross: integrated signal peaks at 795 nm
        row = values.sum(axis=1)
        col = values.sum(axis=0)
        i0 = int(np.argmin(np.abs(grid_p.centers - 795e-9)))
        assert abs(int(np.argmax(row)) - i0) <= 2
        assert abs(int(np.argmax(col)) - i0) <= 2
        assert (tmp_path / "phase_map.csv").exists()
        profile = (tmp_path / "phase_profile.csv").read_text().splitlines()
        assert profile[0] == "lambda_nm,phase_mod_2pi"
        assert len(profile) == 141

    def test_od_override_zero_gives_empty_map(self, tmp_path):
        rc = main(["theory", "--override", "od = 0", "--out", str(tmp_path)])
        assert rc == 0
        values, _, _ = read_map_csv(tmp_path / "pc_map.csv")
        assert np.all(values == 0.0)

    def test_binary_output(self, tmp_path):
        rc = main(["theory", "--out", str(tmp_path), "--binary"])
        assert rc == 0
        assert (tmp_path / "pc_map.bin").exists()


class TestSimulate:
    def test_reports_880_repetitions(self, tmp_path, capsys):
        rc = main(["simulate", "--frames", "2000", "--out", str(tmp_path), *FAST])
        assert rc == 0
        assert "R = 880" in capsys.readouterr().out
        batch = read_frames(tmp_path / "frames.zhf")
        assert batch.n_frames == 2000

    def test_zero_frames_is_valid_file(self, tmp_path):
        rc = main(["simulate", "--frames", "0", "--out", str(tmp_path), *FAST])
        assert rc == 0
        batch = read_frames(tmp_path / "frames.zhf")
        assert batch.n_frames == 0 and batch.n_events == 0

    def test_seed_repeat_gives_identical_checksum(self, tmp_path):
        for sub in ("a", "b"):
            rc = main(["simulate", "--frames", "20000", "--seed", "7",
                       "--out", str(tmp_path / sub), *FAST])
            assert rc == 0
        digest = [
            hashlib.sha256((tmp_path / sub / "frames.zhf").read_bytes()).hexdigest()
            for sub in ("a", "b")
        ]
        assert digest[0] == digest[1]


class TestEstimate:
    def test_covariance_equals_raw_minus_accidental(self, tmp_path):
        assert main(["simulate", "--frames", "50000", "--out", str(tmp_path), *FAST]) == 0
        assert main(["estimate", str(tmp_path / "frames.zhf"), "--out", str(tmp_path)]) == 0
        raw, _, _ = read_map_csv(tmp_path / "raw.csv")
        acc, _, _ = read_map_csv(tmp_path / "accidental.csv")
        cov, _, _ = read_map_csv(tmp_path / "covariance.csv")
        assert np.array_equal(cov, raw - acc)

    def test_each_map_computed_once(self, tmp_path, monkeypatch):
        assert main(["simulate", "--frames", "20000", "--out", str(tmp_path), *FAST]) == 0
        calls = []
        for name in ("raw_coincidences", "accidental_map"):
            original = getattr(detector, name)
            monkeypatch.setattr(detector, name,
                                lambda batch, f=original, n=name: calls.append(n) or f(batch))
        assert main(["estimate", str(tmp_path / "frames.zhf"), "--out", str(tmp_path)]) == 0
        assert sorted(calls) == ["accidental_map", "raw_coincidences"]

    def test_empty_file_gives_zero_maps(self, tmp_path):
        assert main(["simulate", "--frames", "100", "--out", str(tmp_path), *FAST,
                     "--override", "chi = 0"]) == 0
        assert main(["estimate", str(tmp_path / "frames.zhf"), "--out", str(tmp_path)]) == 0
        raw, _, _ = read_map_csv(tmp_path / "raw.csv")
        assert np.all(raw == 0.0)

    def test_uncorrelated_mode_covariance_near_zero(self, tmp_path):
        assert main(["simulate", "--frames", "150000", "--uncorrelated",
                     "--seed", "20260808", "--out", str(tmp_path), *FAST]) == 0
        assert main(["estimate", str(tmp_path / "frames.zhf"), "--out", str(tmp_path)]) == 0
        cov, _, _ = read_map_csv(tmp_path / "covariance.csv")
        batch = read_frames(tmp_path / "frames.zhf")
        occ_p = np.bincount(batch.frames[batch.regions == 0], minlength=batch.n_frames)
        occ_m = np.bincount(batch.frames[batch.regions == 1], minlength=batch.n_frames)
        se = np.sqrt(occ_p.var() * occ_m.var() / batch.n_frames)
        assert abs(cov.sum()) < 5.0 * se

    def test_zero_frame_file_gives_zero_maps(self, tmp_path):
        assert main(["simulate", "--frames", "0", "--out", str(tmp_path), *FAST]) == 0
        assert main(["estimate", str(tmp_path / "frames.zhf"), "--out", str(tmp_path)]) == 0
        for name in ("raw", "accidental", "covariance"):
            values, _, _ = read_map_csv(tmp_path / f"{name}.csv")
            assert np.all(values == 0.0)

    def test_malformed_file_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.zhf"
        bad.write_bytes(b"not an event file")
        assert main(["estimate", str(bad), "--out", str(tmp_path)]) == 3
        assert "data error" in capsys.readouterr().err


class TestSeededOutputBytes:
    """Pinned sha256 of seeded outputs, so a change to them is deliberate.

    150 001 frames is not a multiple of the simulation's frame chunk, and
    dark counts exercise every draw of both generators.  The digests follow
    numpy's Philox and distribution streams; a numpy release that changes
    those streams calls for new digests, not a code change.
    """

    SIMULATE = ["--config", str(CONFIG_DIR / "t2_174C.cfg"), "--override", "dark_rate = 0.7",
                "--seed", "7", "--frames", "150001"]

    @staticmethod
    def digest(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def test_correlated_events_and_maps(self, tmp_path):
        assert main(["simulate", *self.SIMULATE, "--out", str(tmp_path)]) == 0
        assert main(["estimate", str(tmp_path / "frames.zhf"), "--out", str(tmp_path)]) == 0
        assert {name: self.digest(tmp_path / name) for name in (
            "frames.zhf", "raw.csv", "accidental.csv", "covariance.csv")} == {
            "frames.zhf": "067175b6288f4bc565ac25ea929477aba0d120abf2a7fe2b2c28e553543a88fb",
            "raw.csv": "d5eb5d27189af7a91b5cc9c28578f3b8ae8934467255c16cf488cbd7b3f4e717",
            "accidental.csv": "b11a47844c63d2c488a919eb38f89985b9e29bb61f0438b3b2a1ba81268a4853",
            "covariance.csv": "7c9ea3d698637a61bb91b5a485d55ca3126d869db42512af8a6ff58493de307f",
        }

    def test_uncorrelated_events(self, tmp_path):
        assert main(["simulate", *self.SIMULATE, "--uncorrelated", "--out", str(tmp_path)]) == 0
        assert self.digest(tmp_path / "frames.zhf") == (
            "37637b9ff6c1df275218cb1b3388eb0c7c29a4f9a807b8e1b0e2c5b96263e26a"
        )


class TestFit:
    def test_fit_on_simulated_covariance(self, tmp_path, capsys):
        args = ["--override", "temperature = 174 C", "--override", "od = 2600", *FAST]
        assert main(["simulate", "--frames", "400000", "--seed", "5", "--out", str(tmp_path), *args]) == 0
        assert main(["estimate", str(tmp_path / "frames.zhf"), "--out", str(tmp_path)]) == 0
        rc = main(["fit", str(tmp_path / "covariance.csv"), "--out", str(tmp_path), *args])
        assert rc == 0
        report = json.loads((tmp_path / "fit_report.json").read_text())
        assert report["converged"] is True
        assert abs(report["od_hat"] / 2600.0 - 1.0) < 0.1
        assert set(report) >= {
            "od_hat", "visibility_hat", "delay_fs", "cost", "converged",
            "iterations", "param_sigma", "od_visibility_correlation",
        }
        assert (tmp_path / "fit_report.txt").exists()

    def test_all_zero_map_exits_3(self, tmp_path):
        assert main(["theory", "--override", "od = 0", "--out", str(tmp_path)]) == 0
        rc = main(["fit", str(tmp_path / "pc_map.csv"), "--kind", "probability",
                   "--out", str(tmp_path)])
        assert rc == 3

    def test_grid_mismatch_exits_2(self, tmp_path, capsys):
        assert main(["theory", "--out", str(tmp_path), *FAST]) == 0
        rc = main(["fit", str(tmp_path / "pc_map.csv"), "--kind", "probability",
                   "--out", str(tmp_path)])  # default 140-bin config vs 64-bin map
        assert rc == 2
        assert "grid" in capsys.readouterr().err

    def test_nonconvergence_exits_4(self, tmp_path, monkeypatch):
        assert main(["theory", "--out", str(tmp_path), *FAST]) == 0
        stub = FitResult(
            od_hat=1.0, visibility_hat=1.0, delay_fs=0.0, cost=1.0,
            iterations=1, converged=False,
            param_sigma={"od": 0.0, "visibility": 0.0, "delay_fs": 0.0},
        )
        monkeypatch.setattr(retrieval, "fit", lambda *a, **k: stub)
        rc = main(["fit", str(tmp_path / "pc_map.csv"), "--kind", "probability",
                   "--out", str(tmp_path), *FAST])
        assert rc == 4


_NUMBERS = st.one_of(
    st.floats().map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["nan", "inf", "-inf", "1e999", "-0", "0x10", "1_000"]),
)
_UNITS = st.sampled_from(["nm", "um", "µm", "mm", "cm", "m", "fs", "ps", "ns", "us", "µs",
                          "ms", "s", "Hz", "kHz", "MHz", "GHz", "C", "K", "parsec"])
OVERRIDE_VALUES = st.one_of(
    _NUMBERS,
    st.tuples(_NUMBERS, _UNITS).map(" ".join),
    st.sampled_from(["auto", "true", "false", "yes", "maybe", "", "= 5", "1 2 3"]),
    st.text(max_size=12),
)


class TestConfigHandling:
    def test_write_config_round_trip(self, tmp_path, capsys):
        out_cfg = tmp_path / "effective.cfg"
        assert main(["write-config", "--override", "temperature = 86 C",
                     "--out", str(out_cfg)]) == 0
        assert main(["theory", "--config", str(out_cfg), "--out", str(tmp_path)]) == 0
        assert "od = 20.2" in capsys.readouterr().out

    def test_write_config_stdout(self, capsys):
        assert main(["write-config"]) == 0
        text = capsys.readouterr().out
        assert "temperature = 461.15 K" in text

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "wavelength_of_doom = 5\n")
        assert main(["theory", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_override_exits_2(self, tmp_path):
        assert main(["theory", "--override", "nope = 1", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("option", [
        "kernel_width = 2", "grid_bins = 1", "visibility = 1.5", "jsa_correlation = 1",
        "eta = 0", "chi = 2", "dark_rate = -1", "f_rep = 0", "--frames -5",
        "dark_rate = nan", "f_rep = inf",
        "fit_od_min = 2e6", "fit_delay_min = 200 fs", "fit_delay_max = nan", "mask_radius = -1",
        "jsa_fwhm = 0", "grid_start = 810 nm", "cell_length = -1 m", "temperature = -5 K",
        "od = inf", "jsa_fwhm = 1 m", "filter_center = nan", "grid_bins = 65536",
        "dark_rate = inf", "kernel_width = 141",
    ])
    def test_invalid_value_exits_2_naming_key(self, tmp_path, capsys, option):
        # Config keys go in through --override; "--frames -5" is passed as is.
        args = option.split() if option.startswith("--") else ["--override", option]
        assert main(["simulate", *args, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: " + option.split()[0])
        assert err.count("\n") == 1

    def test_unsampled_jsa_exits_2(self, tmp_path, capsys):
        # Passes the O(1) checks; building the JSA finds that no bin samples it.
        assert main(["theory", "--override", "grid_stop = 1 m", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: jsa_fwhm and jsa_correlation do not fit the grid")
        assert err.count("\n") == 1

    @settings(max_examples=300, deadline=None)
    @given(key=st.sampled_from(sorted([*_PARSERS, *_REMOVED_KEYS])), value=OVERRIDE_VALUES)
    def test_any_single_override_exits_0_or_2(self, key, value):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["write-config", "--override", f"{key} = {value}"])
        assert rc in (0, 2)
        if rc == 0:
            assert err.getvalue() == ""
        else:
            assert err.getvalue().startswith("config error: ")
            assert err.getvalue().count("\n") == 1

    def test_bundled_configs_parse(self, tmp_path):
        for name in ("t1_188C.cfg", "t2_174C.cfg", "t3_86C.cfg"):
            rc = main(["write-config", "--config", str(CONFIG_DIR / name),
                       "--out", str(tmp_path / ("eff_" + name))])
            assert rc == 0
