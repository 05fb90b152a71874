import math

import numpy as np
import pytest

from helpers import fringe_map
from homspec.constants import CODATA
from homspec.detector import DetectionParams, covariance_map, simulate_frames
from homspec.errors import DegenerateMap
from homspec.interference import (
    CoincidenceMap,
    MapKind,
    coincidence_probability_cosine,
    phase_difference,
    port_spectra,
)
from homspec.retrieval import (
    FitConfig,
    _Profile,
    _weighted_problem,
    fit,
    phase_profile_mod_2pi,
    prepare_objective,
    resonance_mask,
)
from homspec.spectra import WavelengthGrid, gaussian_jsa
from homspec.vapor import DispersionModel, doppler_lifetime

GRID = WavelengthGrid.from_edges(790e-9, 803e-9, 140)
JSA = gaussian_jsa(796.7e-9, 10e-9, -0.9, GRID)
GRID64 = WavelengthGrid.from_edges(790e-9, 803e-9, 64)
JSA64 = gaussian_jsa(796.7e-9, 10e-9, -0.9, GRID64)
TAU_86 = doppler_lifetime(359.15)
TAU_174 = doppler_lifetime(447.15)
TAU_188 = doppler_lifetime(461.15)


class TestForwardModel:
    def test_delay_fringes_match_analytic_cosine(self):
        # od = 0 with a residual delay leaves a pure linear-phase fringe;
        # check raw (unnormalized) map values against the closed form.
        delay = 50e-15
        raw = coincidence_probability_cosine(
            JSA, DispersionModel(od=0.0, tau=TAU_86), residual_delay=delay
        )
        lam = GRID.centers
        jsi = JSA.intensity()
        for i, j in ((10, 100), (30, 60), (5, 130)):
            phase = 2.0 * math.pi * CODATA.c * delay * (1.0 / lam[i] - 1.0 / lam[j])
            expected = 0.5 * (1.0 - math.cos(phase)) * jsi[i, j]
            assert raw.values[i, j] == pytest.approx(expected, rel=1e-12)


class TestNoiselessRoundTrip:
    @pytest.mark.parametrize(
        "od_true,tau", [(5.0, TAU_86), (20.0, TAU_86), (2.6e3, TAU_174), (4.66e3, TAU_188)]
    )
    def test_recovers_od_and_visibility(self, od_true, tau):
        data = fringe_map(od_true, 0.8, 0.0, JSA, tau=tau)
        result = fit(data, JSA, FitConfig(tau=tau))
        assert result.od_hat == pytest.approx(od_true, rel=1e-2)
        assert result.visibility_hat == pytest.approx(0.8, rel=1e-2)
        assert abs(result.delay_fs) < 0.5
        assert result.converged

    def test_recovers_residual_delay(self):
        data = fringe_map(20.0, 0.9, 30e-15, JSA64, tau=TAU_86)
        result = fit(data, JSA64, FitConfig(tau=TAU_86))
        assert result.delay_fs == pytest.approx(30.0, rel=1e-2)

    def test_boxcar_model(self):
        data = fringe_map(300.0, 0.8, 10e-15, JSA64, tau=TAU_86, kernel_width=3)
        result = fit(data, JSA64, FitConfig(tau=TAU_86, kernel_width=3))
        assert result.od_hat == pytest.approx(300.0, rel=1e-2)
        assert result.visibility_hat == pytest.approx(0.8, rel=1e-2)
        assert result.delay_fs == pytest.approx(10.0, rel=1e-2)
        assert result.converged

    @pytest.mark.parametrize("od_true,od_bounds", [(2.5e5, (2e5, 1e6)), (0.3, (0.0, 0.5))])
    def test_od_bounds_outside_default_scan_range(self, od_true, od_bounds):
        # bounds that miss [1, 1e5] are scanned over their whole width
        data = fringe_map(od_true, 0.8, 10e-15, JSA64, tau=TAU_86)
        result = fit(data, JSA64, FitConfig(tau=TAU_86, od_bounds=od_bounds))
        assert result.od_hat == pytest.approx(od_true, rel=1e-2)
        assert result.visibility_hat == pytest.approx(0.8, rel=1e-2)
        assert result.delay_fs == pytest.approx(10.0, rel=1e-2)
        assert result.converged

    def test_fixed_delay_variant(self):
        data = fringe_map(20.0, 0.8, 0.0, JSA64, tau=TAU_86)
        result = fit(data, JSA64, FitConfig(tau=TAU_86, fit_delay=False))
        assert result.delay_fs == 0.0
        assert result.od_hat == pytest.approx(20.0, rel=1e-2)


class TestObjective:
    def test_gradient_matches_central_differences(self):
        data = fringe_map(300.0, 0.85, 5e-15, JSA, tau=TAU_86)
        _, _, cost, gradient, n_params = prepare_objective(data, JSA, FitConfig(tau=TAU_86))
        assert n_params == 3
        rng = np.random.default_rng(42)
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
            assert np.max(rel) < 1e-4

    @pytest.mark.parametrize("kernel_width", [1, 3])
    def test_profile_matches_objective(self, kernel_width):
        # The scan's closed-form profile is the objective at the best
        # visibility: equal to it there and no larger than at any other.
        data = fringe_map(150.0, 0.7, 5e-15, JSA64, tau=TAU_86, kernel_width=kernel_width)
        noise = 0.05 * data.values.max() * np.random.default_rng(3).standard_normal((64, 64))
        noisy = CoincidenceMap(GRID64, GRID64, data.values + noise, MapKind.COVARIANCE)
        config = FitConfig(tau=TAU_86, kernel_width=kernel_width)
        _, _, cost, _, _ = prepare_objective(noisy, JSA64, config)
        profile = _Profile(*_weighted_problem(noisy, JSA64, config))
        ods, delays = np.array([20.0, 150.0, 900.0]), np.array([-40.0, 5.0])
        costs = profile.costs(ods, delays)
        for i, od in enumerate(ods):
            for k, delay in enumerate(delays):
                vis = profile.visibility(od, delay)
                best = cost(np.array([od, vis, delay]))
                assert costs[i, k] == pytest.approx(best, rel=1e-9)
                for other in (0.0, 0.5 * vis, min(1.5 * vis, 1.0), 1.0):
                    assert cost(np.array([od, other, delay])) >= best * (1 - 1e-12)

    @pytest.mark.parametrize("kernel_width", [1, 3])
    @pytest.mark.parametrize("od,visibility,delay", [
        (20.0, 0.5, 10e-15), (150.0, 0.7, -25e-15), (4.66e3, 0.9, 40e-15),
    ])
    def test_model_matches_theory_path(self, od, visibility, delay, kernel_width):
        # The fit's fringe model at the true parameters reproduces the map the
        # theory command writes, to roundoff.
        data = fringe_map(od, visibility, delay, JSA64, tau=TAU_86, kernel_width=kernel_width)
        residuals, _, _, _, _ = prepare_objective(
            data, JSA64, FitConfig(tau=TAU_86, kernel_width=kernel_width))
        fringe = np.max(np.abs(residuals(np.array([od, 0.0, delay / 1e-15]))))
        mismatch = np.max(np.abs(residuals(np.array([od, visibility, delay / 1e-15]))))
        assert mismatch <= 1e-12 * fringe

    def test_scale_invariance(self):
        data = fringe_map(150.0, 0.8, 0.0, JSA64, tau=TAU_86)
        base = fit(data, JSA64, FitConfig(tau=TAU_86))
        # power-of-two scaling commutes exactly with the normalization
        doubled = CoincidenceMap(GRID64, GRID64, data.values * 2.0, MapKind.PROBABILITY)
        res2 = fit(doubled, JSA64, FitConfig(tau=TAU_86))
        assert res2.od_hat == base.od_hat
        assert res2.visibility_hat == base.visibility_hat
        assert res2.delay_fs == base.delay_fs
        scaled = CoincidenceMap(GRID64, GRID64, data.values * 0.37, MapKind.PROBABILITY)
        res3 = fit(scaled, JSA64, FitConfig(tau=TAU_86))
        assert res3.od_hat == pytest.approx(base.od_hat, rel=1e-6)
        assert res3.visibility_hat == pytest.approx(base.visibility_hat, rel=1e-6)

    def test_degenerate_map_rejected(self):
        zero = CoincidenceMap(GRID64, GRID64, np.zeros((64, 64)), MapKind.COVARIANCE)
        with pytest.raises(DegenerateMap):
            fit(zero, JSA64, FitConfig(tau=TAU_86))


@pytest.fixture(scope="module")
def simulated_covariance():
    pc = coincidence_probability_cosine(JSA64, DispersionModel(od=2.6e3, tau=TAU_174))
    params = DetectionParams(chi=1.893939e-4, eta=0.6, f_rep=80e6, t_exp=11e-6, seed=777)
    batch = simulate_frames(pc, port_spectra(JSA64), params, 500_000)
    return covariance_map(batch)


class TestNoisyFits:
    def test_monte_carlo_map_recovers_od(self, simulated_covariance):
        result = fit(simulated_covariance, JSA64, FitConfig(tau=TAU_174))
        assert result.od_hat == pytest.approx(2.6e3, rel=0.05)
        assert result.converged

    def test_fit_is_stationary_point_of_objective(self, simulated_covariance):
        config = FitConfig(tau=TAU_174)
        result = fit(simulated_covariance, JSA64, config)
        residuals, jacobian, _, gradient, _ = prepare_objective(
            simulated_covariance, JSA64, config
        )
        theta = np.array([result.od_hat, result.visibility_hat, result.delay_fs])
        grad = gradient(theta)
        # |dC/dtheta_k| against its Cauchy-Schwarz bound 2*|r|*|J_k|
        scale = 2.0 * np.linalg.norm(residuals(theta)) * np.linalg.norm(jacobian(theta), axis=0)
        bounds = np.array([config.od_bounds, (0.0, 1.0), config.delay_bounds_fs])
        # the solver keeps iterates strictly inside, a hair from an active bound
        at_upper = bounds[:, 1] - theta <= 1e-8 * (bounds[:, 1] - bounds[:, 0])
        # a parameter held at its upper bound only needs the cost to fall outward
        assert np.all(grad[at_upper] <= 0.0)
        assert np.all(np.abs(grad[~at_upper]) < 1e-8 * scale[~at_upper])

    def test_mask_radius_invariance(self, simulated_covariance):
        results = {
            r: fit(simulated_covariance, JSA64, FitConfig(tau=TAU_174, mask_radius=r))
            for r in (1, 2, 3)
        }
        for r in (1, 3):
            allowance = results[2].param_sigma["od"] + results[r].param_sigma["od"]
            assert abs(results[r].od_hat - results[2].od_hat) <= allowance

    def test_degradation_monotonic_with_noise(self):
        clean = fringe_map(2.6e3, 1.0, 0.0, JSA64, tau=TAU_174)
        rng = np.random.default_rng(5)
        noise = rng.standard_normal(clean.values.shape)
        errors = []
        for level in (0.0, 0.02, 0.1):
            values = clean.values + level * clean.values.max() * noise
            cmap = CoincidenceMap(GRID64, GRID64, values, MapKind.COVARIANCE)
            result = fit(cmap, JSA64, FitConfig(tau=TAU_174))
            errors.append(abs(result.od_hat - 2.6e3))
        assert errors[0] <= errors[1] <= errors[2]


class TestPhaseMaps:
    def test_zero_od_gives_zero_matrix(self):
        dphi = phase_difference(DispersionModel(0.0, TAU_86, 795e-9), GRID.centers)
        assert np.all(dphi == 0.0)

    def test_antisymmetric_under_axis_swap(self):
        dphi = phase_difference(DispersionModel(321.0, TAU_86, 795e-9), GRID.centers)
        assert np.array_equal(dphi, -dphi.T)

    def test_peak_excursion_matches_od(self):
        # Resolving the +-od/2 extrema needs bins much finer than the
        # resonance; a dense grid over +-0.1 nm sees the full 20 rad swing.
        dense = WavelengthGrid.from_edges(794.9e-9, 795.1e-9, 3001)
        dphi = phase_difference(DispersionModel(20.0, TAU_86, 795e-9), dense.centers)
        assert np.max(np.abs(dphi)) == pytest.approx(20.0, rel=0.05)

    def test_profile_wrapped_to_two_pi(self):
        profile = phase_profile_mod_2pi(4.6e3, doppler_lifetime(461.15), 795e-9, GRID)
        assert np.all(profile >= 0.0)
        assert np.all(profile < 2.0 * math.pi)


class TestFitConfigValidation:
    def test_resonance_mask_shape(self):
        mask = resonance_mask(GRID64, GRID64, 795e-9, 2)
        i0 = GRID64.nearest_bin(795e-9)
        assert mask[i0, 0] and mask[0, i0]
        assert not mask[0, 0]
        assert mask.sum() == 64 * 5 * 2 - 25

    def test_invalid_settings(self):
        with pytest.raises(ValueError):
            FitConfig(tau=0.0)
        with pytest.raises(ValueError):
            FitConfig(tau=TAU_86, od_bounds=(5.0, 5.0))
        with pytest.raises(ValueError):
            FitConfig(tau=TAU_86, delay_bounds_fs=(-100.0, math.inf))
