import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homspec.errors import GridTooNarrow
from homspec.spectra import JointSpectralAmplitude, WavelengthGrid, apply_signal_phase, gaussian_jsa
from homspec.vapor import DispersionModel

CENTER = 796.7e-9
FWHM = 10e-9

GRID = WavelengthGrid.from_edges(790e-9, 803e-9, 140)
JSA = gaussian_jsa(CENTER, FWHM, -0.9, GRID)


@pytest.fixture
def grid():
    return GRID


@pytest.fixture
def jsa():
    return JSA


class TestWavelengthGrid:
    def test_from_edges(self, grid):
        assert grid.n_bins == 140
        assert grid.step == pytest.approx(13e-9 / 140, rel=1e-12)
        centers = grid.centers
        assert centers[0] == pytest.approx(790e-9 + grid.step / 2)
        assert np.all(np.diff(centers) > 0.0)

    def test_nearest_bin(self, grid):
        i = grid.nearest_bin(795e-9)
        assert abs(grid.centers[i] - 795e-9) <= grid.step / 2

    def test_validation(self):
        with pytest.raises(ValueError):
            WavelengthGrid(start=790e-9, step=0.0, n_bins=10)
        with pytest.raises(ValueError):
            WavelengthGrid(start=790e-9, step=1e-10, n_bins=1)
        with pytest.raises(ValueError):
            WavelengthGrid.from_edges(803e-9, 790e-9, 10)


class TestGaussianJsa:
    def test_normalization(self, jsa):
        total = np.sum(np.abs(jsa.amplitude) ** 2) * jsa.area_nm2
        assert abs(total - 1.0) < 1e-9

    def test_exact_symmetry(self, jsa):
        assert np.array_equal(jsa.amplitude, jsa.amplitude.T)

    def test_real_nonnegative(self, jsa):
        assert np.all(jsa.amplitude.imag == 0.0)
        assert np.all(jsa.amplitude.real >= 0.0)

    def test_zero_correlation_factorizes(self, grid):
        jsa0 = gaussian_jsa(CENTER, FWHM, 0.0, grid)
        marginal = np.sqrt(np.diag(jsa0.amplitude.real))
        product = np.outer(marginal, marginal)
        assert np.max(np.abs(jsa0.amplitude.real - product)) < 1e-12

    def test_marginal_fwhm_within_one_percent(self, grid):
        # Wider grid so the marginal is fully sampled for the width estimate.
        wide = WavelengthGrid.from_edges(770e-9, 823e-9, 560)
        for rho in (0.0, -0.9):
            jsa_w = gaussian_jsa(CENTER, FWHM, rho, wide)
            marginal = np.sum(jsa_w.intensity(), axis=1)
            half = marginal.max() / 2.0
            above = np.where(marginal >= half)[0]
            lam = wide.centers
            # linear interpolation at both half crossings
            i, j = above[0], above[-1]
            left = lam[i - 1] + (lam[i] - lam[i - 1]) * (half - marginal[i - 1]) / (
                marginal[i] - marginal[i - 1]
            )
            right = lam[j] + (lam[j + 1] - lam[j]) * (marginal[j] - half) / (
                marginal[j] - marginal[j + 1]
            )
            assert (right - left) == pytest.approx(FWHM, rel=0.01)

    def test_anticorrelated_ridge(self, jsa, grid):
        # Energy-conservation-like anticorrelation: the empirical wavelength
        # correlation of the JSI reproduces the requested coefficient.
        jsi = jsa.intensity()
        w = jsi / jsi.sum()
        lam = grid.centers_nm
        mu_s = np.sum(w.sum(axis=1) * lam)
        mu_i = np.sum(w.sum(axis=0) * lam)
        var_s = np.sum(w.sum(axis=1) * (lam - mu_s) ** 2)
        var_i = np.sum(w.sum(axis=0) * (lam - mu_i) ** 2)
        cov = np.sum(w * np.outer(lam - mu_s, lam - mu_i))
        rho = cov / np.sqrt(var_s * var_i)
        assert rho < -0.8

    def test_grid_too_narrow(self):
        narrow = WavelengthGrid.from_edges(794e-9, 798e-9, 40)
        with pytest.raises(GridTooNarrow):
            gaussian_jsa(CENTER, FWHM, -0.9, narrow)
        offcenter = WavelengthGrid.from_edges(810e-9, 830e-9, 100)
        with pytest.raises(GridTooNarrow):
            gaussian_jsa(CENTER, FWHM, -0.9, offcenter)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("grid_stop,correlation", [(1.0, -0.9), (803e-9, -(1.0 - 1e-12))])
    def test_unsampled_jsa_rejected(self, grid_stop, correlation):
        # Bins far coarser than the JSA, or a ridge thinner than the bins
        # that falls between them, leave nothing to normalize.
        grid = WavelengthGrid.from_edges(790e-9, grid_stop, 140)
        with pytest.raises(GridTooNarrow, match="no bin samples the JSA"):
            gaussian_jsa(CENTER, FWHM, correlation, grid)

    def test_parameter_validation(self, grid):
        with pytest.raises(ValueError):
            gaussian_jsa(CENTER, -1e-9, 0.0, grid)
        with pytest.raises(ValueError):
            gaussian_jsa(CENTER, FWHM, 1.0, grid)

    def test_constructor_rejects_unnormalized(self, grid):
        with pytest.raises(ValueError):
            JointSpectralAmplitude(grid, grid, np.ones((140, 140), dtype=complex))

    def test_amplitude_readonly(self, jsa):
        with pytest.raises(ValueError):
            jsa.amplitude[0, 0] = 1.0


class TestApplySignalPhase:
    def test_zero_od_is_identity(self, jsa):
        model = DispersionModel(od=0.0, tau=220e-12)
        phased = apply_signal_phase(jsa, model)
        assert np.array_equal(phased.amplitude, jsa.amplitude)

    @given(od=st.floats(0.0, 5e3))
    @settings(max_examples=25, deadline=None)
    def test_modulus_preserved(self, od):
        model = DispersionModel(od=od, tau=220e-12)
        phased = apply_signal_phase(JSA, model)
        assert np.max(np.abs(np.abs(phased.amplitude) - np.abs(JSA.amplitude))) < 1e-12

    def test_opposite_od_restores(self, jsa):
        model = DispersionModel(od=123.4, tau=220e-12)
        inverse = DispersionModel(od=-123.4, tau=220e-12)
        restored = apply_signal_phase(apply_signal_phase(jsa, model), inverse)
        assert np.max(np.abs(restored.amplitude - jsa.amplitude)) < 1e-12

    def test_normalization_preserved(self, jsa):
        model = DispersionModel(od=2.6e3, tau=216e-12)
        phased = apply_signal_phase(jsa, model)
        total = np.sum(np.abs(phased.amplitude) ** 2) * phased.area_nm2
        assert abs(total - 1.0) < 1e-9
