"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import hashlib
import json
import time

import numpy as np
import pytest

from helpers import cross_center, fringe_count, fringe_map
from homspec.cli import main
from homspec.detector import (
    DetectionParams,
    covariance_map,
    join,
    simulate_frames,
    simulate_uncorrelated_chunks,
)
from homspec.interference import (
    bunching_probability,
    coincidence_probability,
    coincidence_probability_cosine,
    port_spectra,
)
from homspec.retrieval import FitConfig, fit, prepare_objective
from homspec.spectra import JointSpectralAmplitude, WavelengthGrid, apply_signal_phase, gaussian_jsa
from homspec.vapor import DispersionModel, VaporCell, doppler_lifetime, optical_depth

GRID = WavelengthGrid.from_edges(790e-9, 803e-9, 140)
JSA = gaussian_jsa(796.7e-9, 10e-9, -0.9, GRID)
GRID64 = WavelengthGrid.from_edges(790e-9, 803e-9, 64)
JSA64 = gaussian_jsa(796.7e-9, 10e-9, -0.9, GRID64)

CELLS = {
    "T1": VaporCell(188.0 + 273.15, 0.05),
    "T2": VaporCell(174.0 + 273.15, 0.05),
    "T3": VaporCell(86.0 + 273.15, 0.05),
}


def report(number: int, name: str, ok: bool, detail: str, started: float, limit_s: float):
    elapsed = time.perf_counter() - started
    status = "PASS" if ok and elapsed < limit_s else "FAIL"
    print(f"ACCEPTANCE {number:2d} [{status}] {name}: {detail} ({elapsed:.2f}s)")
    assert ok, f"criterion {number} failed: {detail}"
    assert elapsed < limit_s, f"criterion {number} exceeded {limit_s}s ({elapsed:.2f}s)"


def test_criterion_01_lifetime_endpoints():
    t0 = time.perf_counter()
    taus = sorted(
        (doppler_lifetime(80.0 + 273.15), doppler_lifetime(180.0 + 273.15))
    )
    low_ps, high_ps = taus[0] * 1e12, taus[1] * 1e12
    ok = abs(low_ps - 215.0) <= 5.0 and abs(high_ps - 240.0) <= 5.0
    report(1, "lifetime spans 215-240 ps over 80-180 C", ok,
           f"endpoints {low_ps:.1f} ps / {high_ps:.1f} ps", t0, 1.0)


def test_criterion_02_phase_peak_to_peak():
    t0 = time.perf_counter()
    model = DispersionModel(od=20.0, tau=doppler_lifetime(86.0 + 273.15))
    lam = np.linspace(790e-9, 803e-9, 2_000_001)
    from homspec.vapor import spectral_phase

    phi = spectral_phase(model, lam)
    p2p = float(phi.max() - phi.min())
    ok = abs(p2p - 20.0) <= 4.0
    report(2, "od=20 phase swings 20 rad +-20%", ok, f"peak-to-peak {p2p:.3f} rad", t0, 1.0)


def test_criterion_03_optical_depth_plausibility():
    t0 = time.perf_counter()
    od_hot = optical_depth(CELLS["T1"])
    od_warm = optical_depth(CELLS["T3"])
    ok = 0.5 <= od_hot / 4.6e3 <= 2.0 and 0.5 <= od_warm / 20.0 <= 2.0
    report(3, "cell optical depths match fitted magnitudes", ok,
           f"OD(188C)={od_hot:.0f} vs 4.6e3, OD(86C)={od_warm:.1f} vs 20", t0, 1.0)


def test_criterion_04_amplitude_and_cosine_paths_agree():
    t0 = time.perf_counter()
    worst = 0.0
    for od in (0.0, 20.0, 2.6e3):
        model = DispersionModel(od=od, tau=doppler_lifetime(447.15))
        via_amplitude = coincidence_probability(apply_signal_phase(JSA, model))
        via_cosine = coincidence_probability_cosine(JSA, model)
        worst = max(worst, float(np.max(np.abs(via_amplitude.values - via_cosine.values))))
    ok = worst < 1e-10
    report(4, "antisymmetrized and fringe forms agree", ok,
           f"max per-bin discrepancy {worst:.2e}", t0, 5.0)


def test_criterion_05_probability_conservation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2718)
    worst = 0.0
    for _ in range(5):
        phase = rng.uniform(-np.pi, np.pi, GRID.n_bins)
        phased = JointSpectralAmplitude(
            GRID, JSA.amplitude * np.exp(1j * phase)[:, None]
        )
        jsi = phased.intensity()
        total = coincidence_probability(phased).values + bunching_probability(phased).values
        worst = max(worst, float(np.max(np.abs(total - 0.5 * (jsi + jsi.T)))))
    ok = worst < 1e-12
    report(5, "coincidence + bunching conserve the pair budget", ok,
           f"max per-bin violation {worst:.2e}", t0, 5.0)


def test_criterion_06_hom_null():
    t0 = time.perf_counter()
    total_amplitude = coincidence_probability(JSA).total()
    zero_model = DispersionModel(od=0.0, tau=220e-12)
    total_cosine = coincidence_probability_cosine(JSA, zero_model).total()
    worst = max(total_amplitude, total_cosine)
    ok = worst < 1e-12
    report(6, "identical photons never coincide", ok, f"total probability {worst:.2e}", t0, 1.0)


def test_criterion_07_statistics_round_trip():
    t0 = time.perf_counter()
    od_true = 2.6e3
    tau = doppler_lifetime(CELLS["T2"].temperature)
    pc = coincidence_probability_cosine(JSA64, DispersionModel(od=od_true, tau=tau))
    marginals = port_spectra(JSA64)
    # chi*eta tuned for 0.2 detected photons per 880-repetition frame
    params = DetectionParams(chi=1.893939e-4, eta=0.6, f_rep=80e6, t_exp=11e-6,
                             seed=20260808)
    batch = simulate_frames(pc, marginals, params, 1_000_000)
    mean_photons = batch.n_events / batch.n_frames
    cov = covariance_map(batch)
    result = fit(cov, JSA64, FitConfig(tau=tau))
    mc_err = abs(result.od_hat / od_true - 1.0)

    noiseless = fit(pc, JSA64, FitConfig(tau=tau))
    clean_err = abs(noiseless.od_hat / od_true - 1.0)

    control = join(simulate_uncorrelated_chunks(GRID64, marginals, params, 1_000_000))
    control_cov = covariance_map(control).values.sum()
    occ_p = np.bincount(control.frames[control.regions == 0], minlength=control.n_frames)
    occ_m = np.bincount(control.frames[control.regions == 1], minlength=control.n_frames)
    se = np.sqrt(occ_p.var() * occ_m.var() / control.n_frames)
    z = abs(control_cov) / se

    ok = (
        abs(mean_photons - 0.2) < 0.02
        and mc_err < 0.15
        and clean_err < 0.05
        and z < 5.0
    )
    report(7, "simulate -> estimate -> fit round trip", ok,
           f"od_hat={result.od_hat:.0f} ({mc_err * 100:.2f}% off), "
           f"noiseless {clean_err * 100:.3f}% off, control z={z:.2f}, "
           f"{mean_photons:.3f} photons/frame", t0, 600.0)


def test_criterion_08_three_temperature_maps():
    t0 = time.perf_counter()
    centers_ok = True
    diag_ok = True
    details = []
    counts = {}
    for label, cell in CELLS.items():
        od = optical_depth(cell)
        tau = doppler_lifetime(cell.temperature)
        model = DispersionModel(od=od, tau=tau)
        pc = coincidence_probability_cosine(JSA, model)
        center = cross_center(pc.values, JSA.intensity(), GRID)
        offset_bins = abs(center - 795e-9) / GRID.step
        centers_ok &= offset_bins <= 2.0
        diag_ok &= float(np.max(np.abs(np.diag(pc.values)))) == 0.0
        counts[label] = fringe_count(model, GRID)
        details.append(f"{label}: cross off {offset_bins:.2f} bins, {counts[label]} fringes")
    ordered = counts["T3"] < counts["T2"] < counts["T1"]
    ok = centers_ok and diag_ok and ordered
    report(8, "three-temperature maps show the resonance signature", ok,
           "; ".join(details), t0, 60.0)


def test_criterion_09_gradient_check():
    t0 = time.perf_counter()
    data = fringe_map(300.0, 0.85, 5e-15, JSA, tau=doppler_lifetime(359.15))
    _, _, cost, gradient = prepare_objective(
        data, JSA, FitConfig(tau=doppler_lifetime(359.15))
    )
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(5):
        theta = np.array(
            [rng.uniform(10.0, 2e3), rng.uniform(0.3, 0.99), rng.uniform(-20.0, 20.0)]
        )
        analytic = gradient(theta)
        numeric = np.zeros(3)
        for k in range(3):
            h = 1e-6 * max(abs(theta[k]), 1.0)
            up, down = theta.copy(), theta.copy()
            up[k] += h
            down[k] -= h
            numeric[k] = (cost(up) - cost(down)) / (2.0 * h)
        rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-30)
        worst = max(worst, float(np.max(rel)))
    ok = worst < 1e-4
    report(9, "objective gradient matches central differences", ok,
           f"worst relative error {worst:.2e}", t0, 30.0)


def test_criterion_10_pipeline_determinism(tmp_path):
    t0 = time.perf_counter()
    args = [
        "--override", "grid_bins = 64",
        "--override", "temperature = 174 C",
        "--override", "od = 2600",
        "--override", "eta = 0.6",
        "--override", "chi = 1.893939e-4",
    ]
    digests = {}
    for run in ("first", "second"):
        out = tmp_path / run
        assert main(["theory", "--out", str(out), *args]) == 0
        assert main(["simulate", "--frames", "300000", "--seed", "4242", "--out", str(out),
                     *args]) == 0
        assert main(["estimate", str(out / "frames.zhf"), "--out", str(out)]) == 0
        assert main(["fit", str(out / "covariance.csv"), "--out", str(out), *args]) == 0
        digests[run] = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("pc_map.csv", "frames.zhf", "covariance.csv",
                         "fit_report.json", "fit_report.txt")
        }
    ok = digests["first"] == digests["second"]
    fitted = json.loads((tmp_path / "first" / "fit_report.json").read_text())
    report(10, "identical seeds give byte-identical artifacts", ok,
           f"5 files compared, od_hat={fitted['od_hat']:.0f}", t0, 300.0)
