import math
import tracemalloc

import numpy as np
import pytest

from helpers import fringe_map
from homspec import retrieval
from homspec.constants import CODATA, RB87
from homspec.detector import DetectionParams, covariance_map, simulate_frames
from homspec.errors import ConfigError, DegenerateMap
from homspec.interference import (
    CoincidenceMap,
    MapKind,
    boxcar_matrix,
    coincidence_probability_cosine,
    phase_difference,
    port_spectra,
)
from homspec.retrieval import (
    FitConfig,
    _coherent_scores,
    _hologram,
    _scan_grid,
    _weighted_problem,
    fit,
    prepare_objective,
    resonance_mask,
)
from homspec.spectra import WavelengthGrid, gaussian_jsa
from homspec.vapor import DispersionModel, doppler_lifetime, spectral_phase

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

    def test_fringe_free_map(self):
        # V = 0 leaves od and delay no effect, so their Jacobian columns vanish:
        # neither can be identified, and neither has a finite error.
        data = fringe_map(300.0, 0.0, 0.0, JSA64, tau=TAU_174)
        result = fit(data, JSA64, FitConfig(tau=TAU_174))
        assert result.visibility_hat == 0.0
        assert math.copysign(1.0, result.visibility_hat) == 1.0
        assert result.param_sigma["od"] == math.inf
        assert result.param_sigma["delay_fs"] == math.inf
        assert math.isnan(result.od_visibility_correlation)
        assert result.converged

    def test_refine_out_of_evaluations_reports_nonconvergence(self, monkeypatch):
        monkeypatch.setattr(retrieval, "_MAX_NFEV", 2)
        config = FitConfig(tau=TAU_86)
        result = fit(fringe_map(300.0, 0.8, 10e-15, JSA64, tau=TAU_86), JSA64, config)
        assert not result.converged
        assert config.od_bounds[0] <= result.od_hat <= config.od_bounds[1]


class TestObjective:
    @pytest.mark.parametrize("kernel_width", [1, 3])
    def test_gradient_matches_central_differences(self, kernel_width):
        data = fringe_map(300.0, 0.85, 5e-15, JSA, tau=TAU_86, kernel_width=kernel_width)
        config = FitConfig(tau=TAU_86, kernel_width=kernel_width)
        _, _, cost, gradient = prepare_objective(data, JSA, config)
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
        # The refine's visibility minimizes the objective over V, at any kernel.
        data = fringe_map(150.0, 0.7, 5e-15, JSA64, tau=TAU_86, kernel_width=kernel_width)
        noise = 0.05 * data.values.max() * np.random.default_rng(3).standard_normal((64, 64))
        noisy = CoincidenceMap(GRID64, data.values + noise, MapKind.COVARIANCE)
        config = FitConfig(tau=TAU_86, kernel_width=kernel_width)
        _, _, cost, _ = prepare_objective(noisy, JSA64, config)
        model = _weighted_problem(noisy, JSA64, config)
        for od in (20.0, 150.0, 900.0):
            for delay in (-40.0, 5.0):
                vis = model.evaluate(np.array([od, delay]))[0][1]
                best = cost(np.array([od, vis, delay]))
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
        residuals, _, _, _ = prepare_objective(
            data, JSA64, FitConfig(tau=TAU_86, kernel_width=kernel_width))
        fringe = np.max(np.abs(residuals(np.array([od, 0.0, delay / 1e-15]))))
        mismatch = np.max(np.abs(residuals(np.array([od, visibility, delay / 1e-15]))))
        assert mismatch <= 1e-12 * fringe

    def test_scale_invariance(self):
        data = fringe_map(150.0, 0.8, 0.0, JSA64, tau=TAU_86)
        base = fit(data, JSA64, FitConfig(tau=TAU_86))
        # power-of-two scaling commutes exactly with the normalization
        doubled = CoincidenceMap(GRID64, data.values * 2.0, MapKind.PROBABILITY)
        res2 = fit(doubled, JSA64, FitConfig(tau=TAU_86))
        assert res2.od_hat == base.od_hat
        assert res2.visibility_hat == base.visibility_hat
        assert res2.delay_fs == base.delay_fs
        scaled = CoincidenceMap(GRID64, data.values * 0.37, MapKind.PROBABILITY)
        res3 = fit(scaled, JSA64, FitConfig(tau=TAU_86))
        assert res3.od_hat == pytest.approx(base.od_hat, rel=1e-6)
        assert res3.visibility_hat == pytest.approx(base.visibility_hat, rel=1e-6)

    def test_degenerate_map_rejected(self):
        zero = CoincidenceMap(GRID64, np.zeros((64, 64)), MapKind.COVARIANCE)
        with pytest.raises(DegenerateMap):
            fit(zero, JSA64, FitConfig(tau=TAU_86))

    @pytest.mark.parametrize("entry", [fit, prepare_objective])
    def test_grid_mismatch_is_a_config_error(self, entry):
        # The rule `homspec fit` exits 2 on lives here, for every caller.
        data = fringe_map(150.0, 0.7, 5e-15, JSA64, tau=TAU_86)
        with pytest.raises(ConfigError, match=r"map grid \(64 bins\) does not match the "
                                              r"configured grid \(140 bins\); adjust grid_\*"):
            entry(data, JSA, FitConfig(tau=TAU_86))


def elementwise_visibility(model, config, od, delay_fs):
    """The visibility that minimizes the objective on the model's 64-bin data
    and weights, from the smoothed S = 2*sin^2(phi/2)*J with phi from
    interference.phase_difference on every bin pair."""
    data, sqrt_w = model.data, model.sqrt_w
    keep = ~resonance_mask(GRID64, RB87.d1_wavelength, config.mask_radius)
    box = boxcar_matrix(GRID64.n_bins, config.kernel_width)
    jsi = JSA64.intensity()
    phase_unit = phase_difference(DispersionModel(od=1.0, tau=config.tau), GRID64.centers)
    delay_unit = phase_difference(DispersionModel(od=0.0, tau=config.tau), GRID64.centers, 1e-15)

    def smooth(arr):
        return (box @ arr @ box.T)[..., keep]

    j = smooth(jsi)
    u = j / np.sum(j)
    a, w = sqrt_w * (u - data), sqrt_w**2
    s = smooth(2.0 * np.sin(0.5 * (od * phase_unit + delay_fs * delay_unit)) ** 2 * jsi)
    s_sum = np.sum(s)
    p = s @ (sqrt_w * a) / s_sum - sqrt_w * a @ u
    q = np.square(s) @ w / s_sum**2 - 2.0 * (s @ (w * u)) / s_sum + w * u @ u
    t = np.clip(-p / q, 0.0, 1.0)
    return t * np.sum(j) / ((1.0 - t) * s_sum + t * np.sum(j))


class TestScan:
    @pytest.mark.parametrize("od_true,tau,delay,kernel_width", [
        pytest.param(od, tau, delay, kernel, id=f"od{od:g}-delay{delay / 1e-15:g}fs-kernel{kernel}")
        for od, tau in ((1.0, TAU_86), (5.0, TAU_86), (300.0, TAU_86),
                        (2.6e3, TAU_174), (4.66e3, TAU_188))
        for delay in (0.0, 10e-15)
        for kernel in ((1, 3) if od in (1.0, 2.6e3) and delay else (1,))
    ])
    def test_matches_elementwise_reference(self, od_true, tau, delay, kernel_width):
        # The refine's visibility, at the scan's start and at the truth,
        # against the direct evaluation of the smoothed model.
        cmap = fringe_map(od_true, 0.8, delay, JSA64, tau=tau, kernel_width=kernel_width)
        config = FitConfig(tau=tau, kernel_width=kernel_width)
        model = _weighted_problem(cmap, JSA64, config)
        ods, delays = _scan_grid(model, config)
        scores = _coherent_scores(model, ods, delays)
        i, k = np.unravel_index(np.argmax(scores), scores.shape)
        for od, delay_fs in ((ods[i], delays[k]), (od_true, delay / 1e-15)):
            expected = elementwise_visibility(model, config, od, delay_fs)
            np.testing.assert_allclose(model.evaluate(np.array([od, delay_fs]))[0][1],
                                       expected, rtol=1e-12, atol=1e-14)

    def test_grid_does_not_depend_on_kernel(self):
        # The grid steps follow the phase rates of the unmasked bins, so
        # neither the grid nor its bound grows with kernel_width.
        data = fringe_map(2.6e3, 0.8, 10e-15, JSA64, tau=TAU_174)
        configs = [FitConfig(tau=TAU_174, kernel_width=kernel) for kernel in (1, 31)]
        (ods1, delays1), (ods31, delays31) = (
            _scan_grid(_weighted_problem(data, JSA64, config), config) for config in configs)
        assert np.array_equal(ods1, ods31) and np.array_equal(delays1, delays31)

    def test_wide_boxcar_fit_finds_the_true_fringe(self):
        # The 140-bin kernel-7 map once drew the fit into a neighbouring fringe.
        data = fringe_map(2586.16, 0.8, 10e-15, JSA, tau=TAU_174, kernel_width=7)
        result = fit(data, JSA, FitConfig(tau=TAU_174, kernel_width=7))
        assert result.od_hat == pytest.approx(2586.16, rel=1e-6)
        assert result.visibility_hat == pytest.approx(0.8, rel=1e-6)
        assert result.delay_fs == pytest.approx(10.0, rel=1e-6)
        assert result.converged

    @pytest.mark.parametrize("kernel_width", [3, 7])
    def test_boxcar_fit_at_dense_fringes(self, kernel_width):
        # At kernel 7 a start that ignored the boxcar ended at od 2012.
        data = fringe_map(2.6e3, 0.8, 10e-15, JSA64, tau=TAU_174, kernel_width=kernel_width)
        result = fit(data, JSA64, FitConfig(tau=TAU_174, kernel_width=kernel_width))
        assert result.od_hat == pytest.approx(2.6e3, rel=1e-6)
        assert result.visibility_hat == pytest.approx(0.8, rel=1e-6)
        assert result.delay_fs == pytest.approx(10.0, rel=1e-6)
        assert result.converged


    @pytest.mark.parametrize("od,tau", [(4.66e3, TAU_188), (2586.16, TAU_174)])
    def test_fit_memory_on_a_140_bin_map(self, od, tau):
        # The scan's complex blocks set the fit's traced peak.  Measured on
        # these maps: 4.5 MB with blocks of 128 grid values, 5.8 MB with 512.
        data = fringe_map(od, 0.8, 10e-15, JSA, tau=tau)
        tracemalloc.start()
        try:
            result = fit(data, JSA, FitConfig(tau=tau))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.od_hat == pytest.approx(od, rel=1e-9)
        assert peak <= 5.0e6


class TestHologram:
    @pytest.mark.parametrize("visibility", [1.0, 0.8])
    @pytest.mark.parametrize("od,tau", [(4.66e3, TAU_188), (2586.16, TAU_174)])
    def test_reads_phase_off_noiseless_map(self, od, tau, visibility):
        data = fringe_map(od, visibility, 0.0, JSA, tau=tau)
        config = FitConfig(tau=tau)
        model = _weighted_problem(data, JSA, config)
        theta = _hologram(model)
        truth = spectral_phase(DispersionModel(od=od, tau=tau), GRID.centers)[model.bins]
        weight = np.sum(model.j.reshape(model.bins.size, -1), axis=1)
        errors = []
        for sign in (1.0, -1.0):  # the hologram holds the phase up to offset and sign
            phasor = np.exp(1j * (theta - sign * truth))
            offset = np.angle(weight @ phasor)
            wrapped = np.angle(phasor * np.exp(-1j * offset))
            errors.append(math.sqrt(weight @ wrapped**2 / np.sum(weight)))
        assert min(errors) <= 0.5
        result = fit(data, JSA, config)
        assert result.od_hat == pytest.approx(od, rel=1e-9)


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
        residuals, jacobian, _, gradient = prepare_objective(
            simulated_covariance, JSA64, config
        )
        theta = np.array([result.od_hat, result.visibility_hat, result.delay_fs])
        grad = gradient(theta)
        # |dC/dtheta_k| against its Cauchy-Schwarz bound 2*|r|*|J_k|
        scale = 2.0 * np.linalg.norm(residuals(theta)) * np.linalg.norm(jacobian(theta), axis=0)
        bounds = np.array([config.od_bounds, (0.0, 1.0), config.delay_bounds_fs])
        # a clipped refine step can land on a bound, or stop a hair inside it
        at_upper = bounds[:, 1] - theta <= 1e-8 * (bounds[:, 1] - bounds[:, 0])
        # a parameter held at its upper bound only needs the cost to fall outward
        assert np.all(grad[at_upper] <= 0.0)
        assert np.all(np.abs(grad[~at_upper]) < 1e-8 * scale[~at_upper])

    def test_cost_is_objective_at_reported_parameters(self, simulated_covariance):
        config = FitConfig(tau=TAU_174)
        result = fit(simulated_covariance, JSA64, config)
        _, _, cost, _ = prepare_objective(simulated_covariance, JSA64, config)
        theta = np.array([result.od_hat, result.visibility_hat, result.delay_fs])
        assert result.cost == cost(theta)

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
            cmap = CoincidenceMap(GRID64, values, MapKind.COVARIANCE)
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


class TestFitConfigValidation:
    def test_resonance_mask_shape(self):
        mask = resonance_mask(GRID64, 795e-9, 2)
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

    @pytest.mark.parametrize("kernel_width", [0, 2, -1])
    def test_even_or_nonpositive_kernel_rejected(self, kernel_width):
        message = f"kernel_width must be odd and >= 1, got {kernel_width}"
        with pytest.raises(ValueError, match=message):
            FitConfig(tau=TAU_86, kernel_width=kernel_width)
