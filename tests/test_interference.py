import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from homspec.errors import NonRealAmplitude
from homspec.interference import (
    CoincidenceMap,
    MapKind,
    boxcar_matrix,
    bunching_probability,
    coincidence_probability,
    coincidence_probability_cosine,
    pixel_average,
    port_spectra,
)
from homspec.spectra import JointSpectralAmplitude, WavelengthGrid, apply_signal_phase, gaussian_jsa
from homspec.vapor import DispersionModel, doppler_lifetime

GRID = WavelengthGrid.from_edges(790e-9, 803e-9, 140)
JSA = gaussian_jsa(796.7e-9, 10e-9, -0.9, GRID)
TAU_86 = doppler_lifetime(359.15)


def random_phased_jsa(seed: int) -> JointSpectralAmplitude:
    """Symmetric-modulus amplitude with an arbitrary signal-arm phase."""
    rng = np.random.default_rng(seed)
    phase = rng.uniform(-np.pi, np.pi, GRID.n_bins)
    amp = JSA.amplitude * np.exp(1j * phase)[:, None]
    return JointSpectralAmplitude(GRID, amp)


class TestCoincidenceProbability:
    def test_perfect_suppression_for_identical_photons(self):
        pc = coincidence_probability(JSA)
        assert pc.total() == 0.0
        assert np.all(pc.values == 0.0)

    @pytest.mark.parametrize("od", [0.0, 20.0, 2.6e3])
    def test_diagonal_is_zero_for_any_phase(self, od):
        phased = apply_signal_phase(JSA, DispersionModel(od=od, tau=TAU_86))
        pc = coincidence_probability(phased)
        assert np.all(np.diag(pc.values) == 0.0)

    def test_symmetric_under_axis_swap(self):
        pc = coincidence_probability(random_phased_jsa(3))
        assert np.array_equal(pc.values, pc.values.T)

    @pytest.mark.parametrize("od", [0.0, 20.0, 2.6e3])
    def test_agrees_with_cosine_path(self, od):
        model = DispersionModel(od=od, tau=TAU_86)
        via_amplitude = coincidence_probability(apply_signal_phase(JSA, model))
        via_cosine = coincidence_probability_cosine(JSA, model)
        assert np.max(np.abs(via_amplitude.values - via_cosine.values)) < 1e-10


class TestCosinePath:
    def test_zero_map_at_full_visibility_no_phase(self):
        pc = coincidence_probability_cosine(JSA, DispersionModel(od=0.0, tau=TAU_86))
        assert np.all(pc.values == 0.0)

    def test_zero_visibility_gives_half_jsi(self):
        pc = coincidence_probability_cosine(JSA, DispersionModel(od=2.6e3, tau=TAU_86), 0.0)
        assert np.max(np.abs(pc.values - 0.5 * JSA.intensity())) < 1e-15

    def test_fringe_bounds(self):
        pc = coincidence_probability_cosine(JSA, DispersionModel(od=300.0, tau=TAU_86), 0.7)
        jsi = JSA.intensity()
        assert np.all(pc.values <= 0.5 * (1 + 0.7) * jsi + 1e-15)
        assert np.all(pc.values >= 0.5 * (1 - 0.7) * jsi - 1e-15)

    def test_rejects_phased_amplitude(self):
        phased = apply_signal_phase(JSA, DispersionModel(od=5.0, tau=TAU_86))
        with pytest.raises(NonRealAmplitude):
            coincidence_probability_cosine(phased, DispersionModel(od=5.0, tau=TAU_86))

    def test_visibility_validation(self):
        model = DispersionModel(od=300.0, tau=TAU_86)
        with pytest.raises(ValueError):
            coincidence_probability_cosine(JSA, model, 1.5)
        with pytest.raises(ValueError):
            coincidence_probability_cosine(JSA, model, -0.1)


class TestBunching:
    def test_no_phase_all_pairs_bunch(self):
        bunch = bunching_probability(JSA)
        assert np.max(np.abs(bunch.values - JSA.intensity())) < 1e-15

    def test_diagonal_equals_jsi_for_any_phase(self):
        phased = random_phased_jsa(11)
        bunch = bunching_probability(phased)
        jsi_diag = np.diag(phased.intensity())
        assert np.max(np.abs(np.diag(bunch.values) - jsi_diag)) < 1e-15

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_conservation_per_bin(self, seed):
        phased = random_phased_jsa(seed)
        pc = coincidence_probability(phased)
        bunch = bunching_probability(phased)
        jsi = phased.intensity()
        budget = 0.5 * (jsi + jsi.T)
        assert np.max(np.abs(pc.values + bunch.values - budget)) < 1e-12

    @given(od=st.floats(0.0, 5e3), tau=st.floats(150e-12, 300e-12))
    @settings(max_examples=25, deadline=None)
    def test_conservation_for_dispersive_phases(self, od, tau):
        phased = apply_signal_phase(JSA, DispersionModel(od=od, tau=tau))
        total = (
            coincidence_probability(phased).values + bunching_probability(phased).values
        )
        jsi = phased.intensity()
        assert np.max(np.abs(total - 0.5 * (jsi + jsi.T))) < 1e-12

    def test_all_probability_accounted(self):
        phased = random_phased_jsa(7)
        total = coincidence_probability(phased).total() + bunching_probability(phased).total()
        assert total == pytest.approx(1.0, abs=1e-9)


class TestPixelAverage:
    def test_identity_kernel(self):
        pc = coincidence_probability_cosine(JSA, DispersionModel(od=20.0, tau=TAU_86))
        assert pixel_average(pc, 1) is pc

    def test_total_conserved(self):
        pc = coincidence_probability_cosine(JSA, DispersionModel(od=2.6e3, tau=TAU_86))
        for width in (3, 5, 9):
            averaged = pixel_average(pc, width)
            assert averaged.values.sum() == pytest.approx(pc.values.sum(), rel=1e-12)

    def test_kernel_validation(self):
        pc = coincidence_probability_cosine(JSA, DispersionModel(od=20.0, tau=TAU_86))
        for width in (0, 2, -3):
            with pytest.raises(ValueError):
                pixel_average(pc, width)

    def test_near_resonance_band_tends_to_phase_average(self):
        # Bin-center sampling aliases the fast phase near resonance; the
        # boxcar pulls that band toward the incoherent level JSI/2.
        model = DispersionModel(od=4.6e3, tau=doppler_lifetime(461.15))
        pc = coincidence_probability_cosine(JSA, model)
        averaged = pixel_average(pc, 5)
        reference = coincidence_probability_cosine(JSA, model, 0.0)
        i0 = GRID.nearest_bin(795e-9)
        band = slice(i0 - 1, i0 + 2)
        sel = reference.values[band, :] > reference.values.max() * 0.05
        ratio_avg = averaged.values[band, :][sel] / reference.values[band, :][sel]
        ratio_raw = pc.values[band, :][sel] / reference.values[band, :][sel]
        assert 0.6 < ratio_avg.mean() < 1.5
        assert np.sqrt(np.mean((ratio_avg - 1.0) ** 2)) < np.sqrt(
            np.mean((ratio_raw - 1.0) ** 2)
        )


class TestBoxcarMatrix:
    @pytest.mark.parametrize("n", [1, 2, 5, 64, 140])
    def test_matches_uniform_filter_and_conserves_total(self, n):
        rng = np.random.default_rng(n)
        for width in range(1, n + 1, 2):
            box = boxcar_matrix(n, width)
            x = rng.standard_normal((n, n))
            reference = ndimage.uniform_filter(x, size=width, mode="reflect")
            assert np.max(np.abs(box @ x @ box.T - reference)) < 1e-14
            # Exact column sums of the stored entries, free of summation roundoff.
            assert max(abs(math.fsum(col) - 1.0) for col in box.T) < 1e-15

    def test_width_one_is_identity(self):
        assert np.array_equal(boxcar_matrix(140, 1), np.eye(140))


class TestPortSpectra:
    def test_unit_photon_per_port(self):
        for jsa in (JSA, random_phased_jsa(5)):
            s_plus, s_minus = port_spectra(jsa)
            assert np.sum(s_plus) * jsa.grid.step_nm == pytest.approx(1.0, abs=1e-9)
            assert np.array_equal(s_plus, s_minus)

    def test_coincidences_never_exceed_port_rate(self):
        phased = random_phased_jsa(9)
        pc = coincidence_probability(phased)
        s_plus, _ = port_spectra(phased)
        rowsum = pc.values.sum(axis=1) * GRID.step_nm
        assert np.all(rowsum <= s_plus + 1e-12)


class TestCoincidenceMapType:
    def test_probability_rejects_negative(self):
        values = np.full((GRID.n_bins, GRID.n_bins), -1e-3)
        with pytest.raises(ValueError):
            CoincidenceMap(GRID, values, MapKind.PROBABILITY)

    def test_probability_rejects_total_above_one(self):
        values = np.full((GRID.n_bins, GRID.n_bins), 1.0)
        with pytest.raises(ValueError):
            CoincidenceMap(GRID, values, MapKind.PROBABILITY)

    def test_covariance_may_be_negative(self):
        values = np.full((GRID.n_bins, GRID.n_bins), -1e-3)
        cmap = CoincidenceMap(GRID, values, MapKind.COVARIANCE)
        assert np.all(cmap.values == -1e-3)

    def test_values_readonly(self):
        pc = coincidence_probability(JSA)
        with pytest.raises(ValueError):
            pc.values[0, 0] = 1.0
