import contextlib
import hashlib
import io
import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import chunk_length
from homspec import detector, retrieval, zhf
from homspec.cli import main
from homspec.config import _KEYS, _REMOVED_KEYS, ExperimentConfig, format_config, parse_config
from homspec.interference import coincidence_probability_cosine, port_spectra
from homspec.mapio import read_map_csv, write_map_csv
from homspec.retrieval import FitResult
from homspec.spectra import WavelengthGrid, gaussian_jsa
from homspec.vapor import DispersionModel, doppler_lifetime
from homspec.zhf import read_frames

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"

FAST = [
    "--override", "grid_bins = 64",
    "--override", "eta = 0.6",
    "--override", "chi = 1.893939e-4",
]


def chunk_frames(monkeypatch, tmp_path, *args):
    """Frames per chunk of a `simulate` run with these arguments; nothing is drawn or written."""
    with monkeypatch.context() as patch:
        patch.setattr(zhf, "write_frames", lambda run, path: 0)
        return chunk_length(monkeypatch, lambda: main(
            ["simulate", "--frames", "0", "--out", str(tmp_path), *args]))


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
        values, grid = read_map_csv(tmp_path / "pc_map.csv")
        # resonance cross: integrated signal peaks at 795 nm
        row = values.sum(axis=1)
        col = values.sum(axis=0)
        i0 = int(np.argmin(np.abs(grid.centers - 795e-9)))
        assert abs(int(np.argmax(row)) - i0) <= 2
        assert abs(int(np.argmax(col)) - i0) <= 2
        assert (tmp_path / "phase_map.csv").exists()
        profile = (tmp_path / "phase_profile.csv").read_text().splitlines()
        assert profile[0] == "lambda_nm,phase_mod_2pi"
        assert len(profile) == 141
        phase = np.array([float(line.split(",")[1]) for line in profile[1:]])
        assert np.all((0.0 <= phase) & (phase < 2.0 * math.pi))

    def test_od_override_zero_gives_empty_map(self, tmp_path):
        rc = main(["theory", "--override", "od = 0", "--out", str(tmp_path)])
        assert rc == 0
        values, _ = read_map_csv(tmp_path / "pc_map.csv")
        assert np.all(values == 0.0)

    def test_has_no_binary_option(self, tmp_path, capsys):
        # Maps have one file format, the CSV.
        with pytest.raises(SystemExit) as exc:
            main(["theory", "--out", str(tmp_path), "--binary"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: homspec") and "unrecognized arguments: --binary" in err

    def test_refused_run_leaves_no_output_directory(self, tmp_path):
        # Building the JSA refuses the grid; --out is created only after the checks.
        out = tmp_path / "D"
        assert main(["theory", "--override", "grid_stop = 1 m", "--out", str(out)]) == 2
        assert not out.exists()


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

    @pytest.mark.parametrize("uncorrelated", [False, True])
    @pytest.mark.parametrize("overrides", [
        ["dark_rate = 1e6"],
        ["dark_rate = 1e19"],
        ["t_exp = 1e9 s"],
        ["chi = 0", "t_exp = 1e9 s"],  # no events, but slot indices past int64
        ["chi = 1"],
    ])
    def test_unworkable_simulate_settings_exit_2(self, tmp_path, capsys, overrides,
                                                 uncorrelated):
        # These pass validation; each chunk would ask for unbounded work.  The
        # check runs before frames.zhf is opened, not when a chunk is drawn.
        args = [arg for option in ["grid_bins = 16", *overrides]
                for arg in ("--override", option)]
        flag = ["--uncorrelated"] if uncorrelated else []
        rc = main(["simulate", "--frames", "100000", "--out", str(tmp_path), *args, *flag])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: chi, dark_rate, f_rep and t_exp ")
        assert err.count("\n") == 1
        assert not (tmp_path / "frames.zhf").exists()

    @pytest.mark.parametrize("uncorrelated", [False, True])
    def test_frames_past_uint32_exit_2(self, tmp_path, capsys, uncorrelated):
        # Frame indices are 32-bit: the run is refused before any chunk is
        # drawn, even one with nothing to draw.
        flag = ["--uncorrelated"] if uncorrelated else []
        rc = main(["simulate", "--frames", str(2**32), "--out", str(tmp_path),
                   "--override", "chi = 0", "--override", "dark_rate = 0", *flag])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --frames must be below 4294967296")
        assert err.count("\n") == 1
        assert not (tmp_path / "frames.zhf").exists()

    def test_saturation_warning_is_one_line(self, tmp_path, capsys):
        rc = main(["simulate", "--override", "grid_bins = 16", "--override", "dark_rate = 20",
                   "--frames", "100", "--out", str(tmp_path)])
        assert rc == 0
        err = capsys.readouterr().err
        assert err.startswith("warning: per-frame mean occupancy exceeds 1")
        assert err.count("\n") == 1

    def test_refused_run_leaves_no_output_directory(self, tmp_path):
        out = tmp_path / "D"
        assert main(["simulate", "--frames", str(2**32), "--out", str(out), *FAST]) == 2
        assert not out.exists()

    def test_failing_chunk_leaves_no_file(self, tmp_path, monkeypatch):
        # The last of three chunks raises after the first ones may have been
        # written: the error propagates and no file is left.
        chunk = chunk_frames(monkeypatch, tmp_path)
        canonical = detector._canonical_chunk

        def failing(codes):
            fields = canonical(codes)
            if fields[0].size and fields[0][0] >= 2 * chunk:
                raise MemoryError("chunk 2")
            return fields

        monkeypatch.setattr(detector, "_canonical_chunk", failing)
        with pytest.raises(MemoryError, match="chunk 2"):
            main(["simulate", "--frames", str(2 * chunk + 7), "--out", str(tmp_path)])
        assert not (tmp_path / "frames.zhf").exists()

    def test_memory_follows_the_chunk_window(self, tmp_path, monkeypatch):
        # `simulate` writes each chunk as it is drawn, so it holds the chunks
        # in flight, not the run: its traced peak must not grow from a run of
        # 4 chunks to one of 16.  One worker fixes the window on any host.
        # About 2 events a frame: the 16-chunk run's fields alone are 10 MB.
        monkeypatch.setattr(detector, "_workers", lambda: 1)
        args = [*FAST, "--override", "chi = 2e-3"]
        chunk = chunk_frames(monkeypatch, tmp_path, *args)

        def traced_peak(n_chunks):
            out = tmp_path / str(n_chunks)
            tracemalloc.start()
            try:
                assert main(["simulate", "--frames", str(n_chunks * chunk),
                             "--out", str(out), *args]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            with open(out / "frames.zhf", "rb") as fh:
                n_events = int.from_bytes(fh.read(58)[50:], "little")
            assert n_events > 1.8 * n_chunks * chunk
            return peak

        assert traced_peak(16) <= 1.5 * traced_peak(4)

    def test_wide_kernel_exits_0(self, tmp_path):
        # The port spectra take the map's boxcar, so no bin of the smoothed
        # map holds more coincidences than its port spectrum has photons.
        rc = main(["simulate", "--config", str(CONFIG_DIR / "t1_188C.cfg"), "--frames", "1000",
                   "--override", "kernel_width = 7", "--out", str(tmp_path)])
        assert rc == 0

    @pytest.mark.parametrize("seed,rc", [("-1", 2), (str(2**64), 2), (str(2**64 - 1), 0)])
    def test_seed_is_one_64_bit_key_word(self, tmp_path, capsys, seed, rc):
        # Philox takes the seed as one 64-bit word; a seed outside it is refused, not wrapped.
        assert main(["simulate", "--frames", "100", "--seed", seed, "--out", str(tmp_path),
                     "--override", "grid_bins = 16"]) == rc
        err = capsys.readouterr().err
        if rc:
            assert err.startswith(f"config error: seed must lie in [0, 2**64), got {seed}")
            assert err.count("\n") == 1
        else:
            assert err == ""

    @pytest.mark.parametrize("exposure", ["11 us", "8e5 s"])
    def test_vanishing_chi_gives_empty_frames(self, tmp_path, exposure):
        # The geometric gaps between events overflow int64; they must end the
        # chunk, not wrap or loop.  8e5 s is 6.4e13 repetitions per frame.
        rc = main(["simulate", "--frames", "200", "--out", str(tmp_path),
                   "--override", "chi = 1e-300", "--override", f"t_exp = {exposure}"])
        assert rc == 0
        batch = read_frames(tmp_path / "frames.zhf")
        assert batch.n_frames == 200 and batch.n_events == 0


class TestEstimate:
    def test_covariance_equals_raw_minus_accidental(self, tmp_path):
        assert main(["simulate", "--frames", "50000", "--out", str(tmp_path), *FAST]) == 0
        assert main(["estimate", str(tmp_path / "frames.zhf"), "--out", str(tmp_path)]) == 0
        raw, _ = read_map_csv(tmp_path / "raw.csv")
        acc, _ = read_map_csv(tmp_path / "accidental.csv")
        cov, _ = read_map_csv(tmp_path / "covariance.csv")
        assert np.array_equal(cov, raw - acc)

    def test_event_file_read_once(self, tmp_path, monkeypatch):
        # One pass: the file's blocks are read once, each of its events
        # once, and the three maps come from that pass.
        assert main(["simulate", "--frames", "20000", "--out", str(tmp_path), *FAST]) == 0
        path = tmp_path / "frames.zhf"
        passes, events = [], []
        original = zhf.read_blocks

        def counted(path):
            passes.append(path)
            for block in original(path):
                events.append(block.n_events)
                yield block

        monkeypatch.setattr(zhf, "read_blocks", counted)
        assert main(["estimate", str(path), "--out", str(tmp_path)]) == 0
        assert passes == [str(path)]
        assert sum(events) == int.from_bytes(path.read_bytes()[50:58], "little") > 0

    def test_single_frame_warning_is_one_line(self, tmp_path, capsys):
        assert main(["simulate", "--frames", "1", "--out", str(tmp_path), *FAST]) == 0
        capsys.readouterr()
        assert main(["estimate", str(tmp_path / "frames.zhf"), "--out", str(tmp_path)]) == 0
        err = capsys.readouterr().err
        assert err.startswith("warning: estimating coincidence statistics from a single frame")
        assert err.count("\n") == 1

    def test_memory_follows_the_block(self, tmp_path):
        # `estimate` holds one block of events, not the file: its traced peak,
        # less the three maps it writes, must not grow from a file of about 4
        # blocks of events to one of about 16.  The events are dense, about 8
        # a frame and 2 pair products an event.
        grid = WavelengthGrid.from_edges(790e-9, 803e-9, 64)
        jsa = gaussian_jsa(796.7e-9, 10e-9, -0.9, grid)
        pc = coincidence_probability_cosine(
            jsa, DispersionModel(od=2.6e3, tau=doppler_lifetime(447.15)))
        params = detector.DetectionParams(chi=0.01, eta=0.5, f_rep=80e6, t_exp=11e-6, seed=5)
        n_frames = 125_000
        whole = detector.simulate_frames(pc, port_spectra(jsa), params, n_frames)
        cut = int(np.searchsorted(whole.frames, n_frames // 4))
        quarter = detector.FrameBatch(n_frames // 4, grid, whole.frames[:cut],
                                      whole.regions[:cut], whole.bins[:cut])
        assert quarter.n_events > 3.5 * zhf._BLOCK
        assert whole.n_events > 15.5 * zhf._BLOCK

        def traced_peak(batch, name):
            path = tmp_path / f"{name}.zhf"
            zhf.write_frames([batch], path)
            tracemalloc.start()
            try:
                assert main(["estimate", str(path), "--out", str(tmp_path / name)]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - 3 * np.zeros((grid.n_bins, grid.n_bins)).nbytes

        assert traced_peak(whole, "whole") <= 1.5 * traced_peak(quarter, "quarter")

    def test_empty_file_gives_zero_maps(self, tmp_path):
        assert main(["simulate", "--frames", "100", "--out", str(tmp_path), *FAST,
                     "--override", "chi = 0"]) == 0
        assert main(["estimate", str(tmp_path / "frames.zhf"), "--out", str(tmp_path)]) == 0
        raw, _ = read_map_csv(tmp_path / "raw.csv")
        assert np.all(raw == 0.0)

    def test_uncorrelated_mode_covariance_near_zero(self, tmp_path):
        assert main(["simulate", "--frames", "150000", "--uncorrelated",
                     "--seed", "20260808", "--out", str(tmp_path), *FAST]) == 0
        assert main(["estimate", str(tmp_path / "frames.zhf"), "--out", str(tmp_path)]) == 0
        cov, _ = read_map_csv(tmp_path / "covariance.csv")
        batch = read_frames(tmp_path / "frames.zhf")
        occ_p = np.bincount(batch.frames[batch.regions == 0], minlength=batch.n_frames)
        occ_m = np.bincount(batch.frames[batch.regions == 1], minlength=batch.n_frames)
        se = np.sqrt(occ_p.var() * occ_m.var() / batch.n_frames)
        assert abs(cov.sum()) < 5.0 * se

    def test_zero_frame_file_gives_zero_maps(self, tmp_path):
        assert main(["simulate", "--frames", "0", "--out", str(tmp_path), *FAST]) == 0
        assert main(["estimate", str(tmp_path / "frames.zhf"), "--out", str(tmp_path)]) == 0
        for name in ("raw", "accidental", "covariance"):
            values, _ = read_map_csv(tmp_path / f"{name}.csv")
            assert np.all(values == 0.0)

    def test_malformed_file_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.zhf"
        bad.write_bytes(b"not an event file")
        assert main(["estimate", str(bad), "--out", str(tmp_path)]) == 3
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, where, value", [
        ("zhf", [6], math.nan),  # the plus grid's start
        ("zhf", [14], math.inf),  # the plus grid's step
        ("zhf", [24], -1e-9),  # the minus grid's start
        ("zhf", [14, 32], 1e308),  # both steps: centers that overflow
        ("zhf", [14, 32], 5e-324),  # both steps: centers that are all equal
        ("zhf", [24], 791e-9),  # a valid minus grid that is not the plus grid
        ("zhf", [40], 20),  # the minus grid's n_bins (u16), likewise
        ("csv", None, -1.0),  # the first bin center [nm] of both axes
        ("csv", None, 0.0),
        ("csv", 797.0, 796.0),  # axes from 796 nm (plus) and 797 nm (minus)
    ], ids=["zhf-nan-start", "zhf-inf-step", "zhf-negative-start", "zhf-huge-step",
            "zhf-subnormal-step", "zhf-other-minus-start", "zhf-other-minus-n-bins",
            "csv-negative-start", "csv-zero-start", "csv-other-minus-axis"])
    def test_invalid_grid_exits_3(self, tmp_path, capsys, kind, where, value):
        # A grid that breaks the grid rule, or a minus grid that is not the
        # plus grid, in an event file or a map: one `data error:` line, exit
        # 3, no output directory.  ``where`` holds the header offsets of an
        # event file, or the first minus center of a map if it differs.
        out = tmp_path / "D"
        if kind == "zhf":
            assert main(["simulate", "--frames", "10", "--out", str(tmp_path), *FAST]) == 0
            path = tmp_path / "frames.zhf"
            data = bytearray(path.read_bytes())
            for offset in where:
                struct.pack_into("<H" if isinstance(value, int) else "<d", data, offset, value)
            path.write_bytes(bytes(data))
            argv = ["estimate", str(path), "--out", str(out)]
        else:
            path = tmp_path / "bad.csv"
            plus, minus = (",".join(repr(start + i) for i in range(4))
                           for start in (value, value if where is None else where))
            path.write_text(f"# axis_plus_nm: {plus}\n# axis_minus_nm: {minus}\n"
                            + "0.0,0.0,0.0,0.0\n" * 4, encoding="utf-8")
            argv = ["fit", str(path), "--out", str(out)]
        capsys.readouterr()
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {path}: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("option", [["--config", "absent.cfg"], ["--override", "bogus = 1"],
                                        ["--seed", "5"], ["--binary"]],
                             ids=["config", "override", "seed", "binary"])
    def test_rejects_options_it_never_reads(self, tmp_path, capsys, option):
        # The event file alone fixes the maps, so a config, override or seed is an
        # error; maps have one file format, so --binary is too.
        assert main(["simulate", "--frames", "10", "--out", str(tmp_path), *FAST]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["estimate", str(tmp_path / "frames.zhf"), "--out", str(tmp_path), *option])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: homspec") and f"unrecognized arguments: {option[0]}" in err


class TestSeededOutputBytes:
    """Pinned sha256 of seeded outputs, so a change to them is deliberate.

    150 001 frames is not a multiple of either generator's chunk length
    (about 41 000 frames at this density), and dark counts exercise every
    draw of both generators.  The digests follow numpy's Philox and
    distribution streams; a numpy release that changes those streams calls
    for new digests, not a code change.
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
            "frames.zhf": "6413e511b1ac0d06ac4461ddf984dcf641de17a613f05dfabdc2a904ef4517fc",
            "raw.csv": "78aec7d5fd73abb0e1b23fb31634c4a01ac4a3da296a764d7a1401359fadd2f5",
            "accidental.csv": "d7baa8b4f024d4410128a83a9ac7315d9e8040e1c8f0c423c6b3ac15ff5581a8",
            "covariance.csv": "01fe3ad97629b66c99b63f7b0644f9194143d66db1f7c998415b19db65f237c3",
        }

    @pytest.mark.parametrize("uncorrelated", [False, True])
    def test_runs_end_in_a_partial_chunk(self, tmp_path, monkeypatch, uncorrelated):
        flag = ["--uncorrelated"] if uncorrelated else []
        chunk = chunk_frames(monkeypatch, tmp_path, *self.SIMULATE[:-2], *flag)
        assert 150_001 // chunk >= 3 and 150_001 % chunk > 0

    @pytest.mark.parametrize("uncorrelated", [False, True])
    @pytest.mark.parametrize("schedule", ["1 worker", "3 workers", "reversed"])
    def test_events_independent_of_schedule(self, tmp_path, monkeypatch, schedule,
                                            uncorrelated):
        # The chunks of a run are written in frame order however many
        # threads draw them and whichever finishes first.
        flag = ["--uncorrelated"] if uncorrelated else []
        assert main(["simulate", *self.SIMULATE, *flag, "--out", str(tmp_path / "a")]) == 0
        if schedule == "reversed":
            monkeypatch.setattr(detector, "_in_order", lambda make, n: reversed(
                [make(index) for index in reversed(range(n))]))
        else:
            monkeypatch.setattr(detector, "_workers", lambda: int(schedule[0]))
        assert main(["simulate", *self.SIMULATE, *flag, "--out", str(tmp_path / "b")]) == 0
        assert self.digest(tmp_path / "b" / "frames.zhf") == self.digest(
            tmp_path / "a" / "frames.zhf")

    def test_uncorrelated_events(self, tmp_path):
        assert main(["simulate", *self.SIMULATE, "--uncorrelated", "--out", str(tmp_path)]) == 0
        assert self.digest(tmp_path / "frames.zhf") == (
            "238022515d0a78045c0c21f841d0a10eb55d2623078c59761a19c0ed2c3501fd"
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

    def test_kernel_width_reaches_theory_and_fit(self, tmp_path):
        # The same override boxcars the theory map and the fit's model.
        args = ["--override", "grid_bins = 64", "--override", "kernel_width = 3",
                "--override", "od = 2600", "--override", "visibility = 0.8"]
        assert main(["theory", "--out", str(tmp_path), *args]) == 0
        rc = main(["fit", str(tmp_path / "pc_map.csv"), "--kind", "probability",
                   "--out", str(tmp_path), *args])
        assert rc == 0
        report = json.loads((tmp_path / "fit_report.json").read_text(encoding="utf-8"))
        assert abs(report["od_hat"] / 2600.0 - 1.0) < 1e-6
        assert abs(report["visibility_hat"] - 0.8) < 1e-6
        assert report["converged"] is True

    def test_all_zero_map_exits_3(self, tmp_path):
        assert main(["theory", "--override", "od = 0", "--out", str(tmp_path)]) == 0
        rc = main(["fit", str(tmp_path / "pc_map.csv"), "--kind", "probability",
                   "--out", str(tmp_path)])
        assert rc == 3

    @pytest.mark.parametrize("kind,value,axis", [
        pytest.param("covariance", math.nan, None, id="nan-value"),
        pytest.param("covariance", math.inf, None, id="inf-value"),
        pytest.param("probability", -1e-3, None, id="negative-probability"),
        pytest.param("probability", 1e9, None, id="probability-total-above-1"),
        pytest.param("probability", None, [796.0], id="one-bin-axes"),
        pytest.param("probability", None, [795.0, 796.0, 798.0], id="uneven-axes"),
        pytest.param("probability", None, [797.0, 796.0, 795.0], id="descending-axes"),
        pytest.param("probability", None, [795.0, math.nan, 797.0], id="nan-axes"),
    ])
    def test_malformed_map_exits_3(self, tmp_path, capsys, kind, value, axis):
        # The file parses; one of its values, or its axis header, is invalid.
        small = ["--override", "grid_bins = 32"]
        path = tmp_path / "bad.csv"
        if axis is None:
            assert main(["theory", "--out", str(tmp_path), *small]) == 0
            capsys.readouterr()
            values, grid = read_map_csv(tmp_path / "pc_map.csv")
            values[3, 5] = value
            write_map_csv(values, grid, path)
        else:
            centers = ",".join(map(repr, axis))
            path.write_text(f"# axis_plus_nm: {centers}\n# axis_minus_nm: {centers}\n"
                            + (",".join(["0.0"] * len(axis)) + "\n") * len(axis))
        rc = main(["fit", str(path), "--kind", kind, "--out", str(tmp_path), *small])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(path) in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("content", ["latin-1", "zhm1"])
    def test_map_that_is_not_utf8_exits_3(self, tmp_path, capsys, content):
        # A map is UTF-8 text.  A Latin-1 byte in a row, or a map in the
        # retired ZHM1 binary format, is a data error naming the file.
        small = ["--override", "grid_bins = 32"]
        assert main(["theory", "--out", str(tmp_path), *small]) == 0
        capsys.readouterr()
        path = tmp_path / "bad.csv"
        if content == "latin-1":
            lines = (tmp_path / "pc_map.csv").read_bytes().splitlines(keepends=True)
            lines[5] = lines[5].replace(b",", b",\xe9", 1)
            path.write_bytes(b"".join(lines))
        else:
            grid = read_map_csv(tmp_path / "pc_map.csv")[1]
            # ZHM1 header: magic, version, then start, step and n_bins of each axis
            head = struct.pack("<4sH" + "ddH" * 2, b"ZHM1", 1, *(grid.start, grid.step, 32) * 2)
            path.write_bytes(head + np.zeros(32 * 32).tobytes())
        rc = main(["fit", str(path), "--kind", "probability", "--out", str(tmp_path), *small])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {path}: ") and err.count("\n") == 1

    def test_rows_one_value_short_exit_3(self, tmp_path, capsys):
        # Every row of a 140-bin map lacks its last value: the rows parse,
        # but the matrix does not match the axes.
        assert main(["theory", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        lines = (tmp_path / "pc_map.csv").read_text(encoding="utf-8").splitlines(keepends=True)
        path = tmp_path / "short.csv"
        path.write_text("".join(lines[:2] + [row.rsplit(",", 1)[0] + "\n" for row in lines[2:]]),
                        encoding="utf-8")
        assert main(["fit", str(path), "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == (
            f"data error: {path}: matrix shape (140, 139) does not match axes\n")

    def test_grid_mismatch_exits_2(self, tmp_path, capsys):
        assert main(["theory", "--out", str(tmp_path), *FAST]) == 0
        rc = main(["fit", str(tmp_path / "pc_map.csv"), "--kind", "probability",
                   "--out", str(tmp_path)])  # default 140-bin config vs 64-bin map
        assert rc == 2
        assert "grid" in capsys.readouterr().err

    def test_refused_fit_leaves_no_output_directory(self, tmp_path, capsys):
        assert main(["theory", "--out", str(tmp_path)]) == 0  # the default 140-bin grid
        capsys.readouterr()
        out = tmp_path / "D"
        rc = main(["fit", str(tmp_path / "pc_map.csv"), "--kind", "probability",
                   "--override", "grid_bins = 64", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "config error: map grid (140 bins) does not match the configured grid "
            "(64 bins); adjust grid_* settings\n")
        assert not out.exists()

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

    def test_refine_out_of_evaluations_exits_4(self, tmp_path, monkeypatch):
        # The real fit, not a stub, reports that its refine ran out of evaluations.
        assert main(["theory", "--out", str(tmp_path), *FAST]) == 0
        monkeypatch.setattr(retrieval, "_MAX_NFEV", 2)
        rc = main(["fit", str(tmp_path / "pc_map.csv"), "--kind", "probability",
                   "--out", str(tmp_path), *FAST])
        assert rc == 4
        report = json.loads((tmp_path / "fit_report.json").read_text(encoding="utf-8"))
        assert report["converged"] is False

    @pytest.mark.parametrize("overrides,keys", [
        (["fit_od_min = 2e5", "fit_od_max = 1e300"], "fit_od_min/fit_od_max"),
        (["fit_delay_max = 1 s"], "fit_delay_min/fit_delay_max"),
        (["mask_radius = 100"], "mask_radius"),
    ])
    def test_unworkable_fit_settings_exit_2(self, tmp_path, capsys, overrides, keys):
        # These pass validation; before the fit builds anything they are found
        # to ask for too large a scan, or to leave no bin outside the mask.
        small = ["--override", "grid_bins = 32"]
        assert main(["theory", "--out", str(tmp_path), *small]) == 0
        capsys.readouterr()
        args = [arg for option in overrides for arg in ("--override", option)]
        rc = main(["fit", str(tmp_path / "pc_map.csv"), "--kind", "probability",
                   "--out", str(tmp_path), *small, *args])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and keys in err
        assert err.count("\n") == 1

    def test_blas_thread_count_moves_only_last_digits(self, tmp_path):
        # The README: another BLAS thread count moves od_hat by under 1e-9
        # relative and iterations by a few.  With the fit's Levenberg-Marquardt
        # refine stopping on its step, t1 and t2 seeds 1-8 on a 2-core host kept
        # iterations and od_hat in all 16 fits, and cost within 4.4e-16.
        cfg = str(CONFIG_DIR / "t2_174C.cfg")
        assert main(["simulate", "--config", cfg, "--frames", "1000000", "--seed", "1",
                     "--out", str(tmp_path)]) == 0
        assert main(["estimate", str(tmp_path / "frames.zhf"), "--out", str(tmp_path)]) == 0
        reports = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = {**os.environ, "PYTHONPATH": str(SRC_DIR), "OPENBLAS_NUM_THREADS": threads,
                   "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
            subprocess.run([sys.executable, "-m", "homspec.cli", "fit", "--config", cfg,
                            str(tmp_path / "covariance.csv"), "--out", str(out)],
                           env=env, check=True, capture_output=True)
            reports.append(json.loads((out / "fit_report.json").read_text()))
        one, two = reports
        assert abs(two["od_hat"] / one["od_hat"] - 1.0) < 1e-9
        assert abs(two["iterations"] - one["iterations"]) <= 10


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


class TestIoErrors:
    @pytest.mark.parametrize("command", ["estimate", "fit", "simulate", "theory"])
    def test_unreadable_input_or_unwritable_output_exits_3(self, tmp_path, capsys, command):
        # A missing event file or map, an --out under a regular file, or an
        # --out that is one: one `io error:` line, exit 3, no output directory.
        regular = tmp_path / "regular"
        regular.write_text("not a directory\n", encoding="utf-8")
        out = tmp_path / "D"
        argv = {
            "estimate": ["estimate", str(tmp_path / "missing.zhf"), "--out", str(out)],
            "fit": ["fit", str(tmp_path / "missing.csv"), "--out", str(out)],
            "simulate": ["simulate", "--frames", "10", "--out", str(regular / "D"), *FAST],
            "theory": ["theory", "--out", str(regular), *FAST],
        }[command]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("io error: ") and err.count("\n") == 1
        assert regular.is_file()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["regular"]


class TestImports:
    def test_no_subcommand_loads_scipy(self, tmp_path):
        # Every subcommand, fit included, runs on numpy alone, in a fresh interpreter.
        script = """
import sys
from homspec.cli import main
cfg, out = sys.argv[1], sys.argv[2]
assert main(["write-config", "--config", cfg, "--out", out + "/effective.cfg"]) == 0
assert main(["theory", "--config", cfg, "--out", out]) == 0
assert main(["simulate", "--config", cfg, "--frames", "20000", "--seed", "3", "--out", out]) == 0
assert main(["estimate", out + "/frames.zhf", "--out", out]) == 0
assert main(["fit", "--config", cfg, out + "/pc_map.csv", "--kind", "probability",
             "--out", out]) == 0
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, f"{len(loaded)} scipy modules loaded, first {loaded[0]}"
"""
        env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
        proc = subprocess.run([sys.executable, "-c", script, str(CONFIG_DIR / "t2_174C.cfg"),
                               str(tmp_path)], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestConfigHandling:
    def test_write_config_round_trip(self, tmp_path, capsys):
        out_cfg = tmp_path / "effective.cfg"
        assert main(["write-config", "--override", "temperature = 86 C",
                     "--out", str(out_cfg)]) == 0
        assert main(["theory", "--config", str(out_cfg), "--out", str(tmp_path)]) == 0
        assert "od = 20.2" in capsys.readouterr().out

    def test_write_config_text_is_pinned(self, capsys):
        assert main(["write-config", "--config", str(CONFIG_DIR / "t2_174C.cfg")]) == 0
        assert capsys.readouterr().out == """\
# effective settings, canonical SI units
temperature = 447.15 K
cell_length = 0.05 m
od = auto
filter_center = 7.967000000000001e-07 m
jsa_fwhm = 1e-08 m
jsa_correlation = -0.9
grid_start = 7.900000000000001e-07 m
grid_stop = 8.030000000000001e-07 m
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
        "grid_start = 8.029999999999999e-07 m",  # one ulp below grid_stop: equal bin centers
        "fit_delay_min = -1e295 s",  # finite in s, -inf in fs
    ])
    def test_invalid_value_exits_2_naming_key(self, tmp_path, capsys, option):
        # Config keys go in through --override; "--frames -5" is passed as is.
        args = option.split() if option.startswith("--") else ["--override", option]
        assert main(["simulate", *args, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: " + option.split()[0])
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["write-config", "simulate", "fit"])
    @pytest.mark.parametrize("bounds", [
        ["fit_delay_min = -1e295 s"],
        ["fit_delay_min = 7e-15 s", "fit_delay_max = 7.000000000000001e-15 s"],
    ], ids=["overflow", "collapse"])
    def test_delay_bounds_unusable_in_fs_exit_2(self, tmp_path, capsys, command, bounds):
        # Valid in s, but the fit's bounds in fs overflow or coincide.
        assert main(["theory", "--out", str(tmp_path), *FAST]) == 0
        capsys.readouterr()
        out = tmp_path / "D"
        argv = {
            "write-config": ["write-config", "--out", str(out / "effective.cfg")],
            "simulate": ["simulate", "--frames", "10", "--out", str(out)],
            "fit": ["fit", str(tmp_path / "pc_map.csv"), "--kind", "probability",
                    "--out", str(out)],
        }[command]
        overrides = [arg for option in bounds for arg in ("--override", option)]
        assert main([*argv, *FAST, *overrides]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: fit_delay_min") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        *((key, "warm") for key in _KEYS),
        *((key, "5 parsec") for key, (_, kind) in _KEYS.items() if isinstance(kind, dict)),
        *((key, "1.5") for key, (field, _) in _KEYS.items()
          if type(getattr(ExperimentConfig(), field)) is int),
    ])
    def test_malformed_value_exits_2_naming_key(self, capsys, key, value):
        assert main(["write-config", "--override", f"{key} = {value}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: override 1:1: {key} must be ")
        assert err.endswith(f", got {value!r}\n") and err.count("\n") == 1

    @pytest.mark.parametrize("command", [["theory"], ["fit", "covariance.csv"]],
                             ids=["theory", "fit"])
    def test_seed_only_where_it_is_read(self, tmp_path, capsys, command):
        # Only simulate draws with the seed, so theory and fit refuse --seed.
        with pytest.raises(SystemExit) as exc:
            main([*command, "--out", str(tmp_path), "--seed", "5"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: homspec") and "unrecognized arguments: --seed" in err

    def test_config_that_is_not_utf8_exits_2_naming_line(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_bytes(b"grid_bins = 16\n# caf\xe9 settings\nchi = 1e-4\n")
        assert main(["write-config", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}:2: ") and err.count("\n") == 1

    def test_unsampled_jsa_exits_2(self, tmp_path, capsys):
        # Passes the O(1) checks; building the JSA finds that no bin samples it.
        assert main(["theory", "--override", "grid_stop = 1 m", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: jsa_fwhm and jsa_correlation do not fit the grid")
        assert err.count("\n") == 1

    @settings(max_examples=300, deadline=None)
    @given(key=st.sampled_from(sorted([*_KEYS, *_REMOVED_KEYS])), value=OVERRIDE_VALUES)
    def test_any_single_override_exits_0_or_2(self, key, value):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["write-config", "--override", f"{key} = {value}"])
        assert rc in (0, 2)
        if rc == 0:
            assert err.getvalue() == ""
            text = out.getvalue()
            assert format_config(parse_config(text)) == text
        else:
            assert err.getvalue().startswith("config error: ")
            assert err.getvalue().count("\n") == 1

    def test_bundled_configs_parse(self, tmp_path):
        for name in ("t1_188C.cfg", "t2_174C.cfg", "t3_86C.cfg"):
            rc = main(["write-config", "--config", str(CONFIG_DIR / name),
                       "--out", str(tmp_path / ("eff_" + name))])
            assert rc == 0


@st.composite
def mutated(draw, data: bytes) -> bytes:
    """``data`` truncated, or with 1-3 bytes overwritten, 1-8 inserted or up to 39 deleted."""
    data = bytearray(data)
    at = draw(st.integers(0, len(data) - 1))
    edit = draw(st.sampled_from(["truncate", "overwrite", "insert", "delete"]))
    if edit == "truncate":
        del data[at:]
    elif edit == "overwrite":
        for where in draw(st.lists(st.integers(0, len(data) - 1), min_size=1, max_size=3)):
            data[where] = draw(st.integers(0, 255))
    elif edit == "insert":
        data[at:at] = draw(st.binary(min_size=1, max_size=8))
    else:
        del data[at : at + draw(st.integers(1, 39))]
    return bytes(data)


@st.composite
def mutated_zhf(draw, data: bytes) -> bytes:
    """A ZHF1 file ``mutated``, or with one grid's start or step set to a special value
    (NaN, +-inf, 0, a negative value, a subnormal or 1e308), or with another valid grid
    in the minus descriptor."""
    edit = draw(st.sampled_from(["mutated", "special", "other-minus-grid"]))
    if edit == "mutated":
        return draw(mutated(data))
    data = bytearray(data)
    if edit == "special":
        # The header doubles: start and step of the plus grid, then of the minus grid.
        value = draw(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1e-9, 5e-324, 1e308]))
        struct.pack_into("<d", data, draw(st.sampled_from([6, 14, 24, 32])), value)
    else:  # offsets 24-41: start, step and n_bins of the minus grid
        grid = WavelengthGrid.from_edges(draw(st.floats(700e-9, 790e-9)),
                                         draw(st.floats(800e-9, 900e-9)),
                                         draw(st.integers(2, 0xFFFF)))
        struct.pack_into("<ddH", data, 24, grid.start, grid.step, grid.n_bins)
    return bytes(data)


class TestMutatedInputFiles:
    """Every input file, its bytes mutated, gives a documented exit code and
    one stderr line, never a traceback or a warning."""

    SMALL = ["--override", "grid_bins = 16"]
    EXAMPLES = settings(max_examples=60, deadline=None, derandomize=True)

    @pytest.fixture(scope="class")
    def base(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("base")
        assert main(["simulate", "--frames", "3000", "--seed", "1", "--out", str(base),
                     *self.SMALL]) == 0
        assert main(["estimate", str(base / "frames.zhf"), "--out", str(base)]) == 0
        (base / "mutated").mkdir()
        return base

    @staticmethod
    def exits(data, source, work, argv, codes, mutation=mutated):
        """Run ``argv(path)`` on a ``mutation`` of ``source`` written to ``path`` in ``work``."""
        path = work / source.name
        path.write_bytes(data.draw(mutation(source.read_bytes())))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(argv(str(path)))
        assert rc in codes
        if rc:
            assert err.getvalue().count("\n") == 1
        else:
            assert err.getvalue() == ""

    @EXAMPLES
    @given(data=st.data())
    def test_config_file(self, base, data):
        self.exits(data, CONFIG_DIR / "t2_174C.cfg", base / "mutated",
                   lambda path: ["write-config", "--config", path], (0, 2))

    @EXAMPLES
    @given(data=st.data())
    def test_map_csv(self, base, data):
        work = base / "mutated"
        self.exits(data, base / "covariance.csv", work,
                   lambda path: ["fit", path, "--out", str(work), *self.SMALL], (0, 2, 3, 4))

    @settings(EXAMPLES, max_examples=3 * EXAMPLES.max_examples)  # two thirds of them edit a grid
    @given(data=st.data())
    def test_event_file(self, base, data):
        work = base / "mutated"
        self.exits(data, base / "frames.zhf", work,
                   lambda path: ["estimate", path, "--out", str(work)], (0, 3), mutated_zhf)
