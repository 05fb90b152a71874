import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homspec.constants import CODATA
from homspec.errors import OutOfModelRange
from homspec.vapor import (
    DispersionModel,
    VaporCell,
    absorption_negligible,
    doppler_lifetime,
    optical_depth,
    reduced_detuning,
    spectral_phase,
    transfer_function,
    vapor_pressure,
)

# Reference values computed with 40-digit arithmetic (mpmath) from the same
# closed-form expressions, frozen here as oracles.
PRESSURE_TORR_86C = 6.8757332737e-05
TAU_80C = 243.362796e-12
TAU_180C = 214.838840e-12
OD_188C_5CM = 4658.74150626
OD_86C_5CM = 20.2499269317


class TestVaporPressure:
    def test_value_at_86c(self):
        assert vapor_pressure(359.15) == pytest.approx(PRESSURE_TORR_86C, rel=1e-9)

    def test_monotone_in_temperature(self):
        assert vapor_pressure(400.0) > vapor_pressure(350.0)

    @pytest.mark.parametrize("temperature", [200.0, 249.9, 600.1, 1000.0])
    def test_outside_model_window(self, temperature):
        with pytest.raises(OutOfModelRange):
            vapor_pressure(temperature)


class TestDopplerLifetime:
    def test_endpoint_values(self):
        assert doppler_lifetime(353.15) == pytest.approx(TAU_80C, rel=1e-8)
        assert doppler_lifetime(453.15) == pytest.approx(TAU_180C, rel=1e-8)

    def test_inverse_sqrt_scaling(self):
        assert doppler_lifetime(4 * 320.0) == pytest.approx(
            doppler_lifetime(320.0) / 2.0, rel=1e-12
        )

    def test_monotone_decreasing(self):
        temps = np.linspace(300.0, 500.0, 41)
        taus = np.array([doppler_lifetime(t) for t in temps])
        assert np.all(np.diff(taus) < 0.0)

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ValueError):
            doppler_lifetime(0.0)

    @pytest.mark.parametrize("temperature", [5e-324, 1e-320])
    def test_rejects_temperature_whose_width_underflows(self, temperature):
        with pytest.raises(ValueError, match="Doppler width is 0"):
            doppler_lifetime(temperature)


class TestOpticalDepth:
    def test_hot_cell_value(self):
        assert optical_depth(VaporCell(461.15, 0.05)) == pytest.approx(OD_188C_5CM, rel=1e-9)

    def test_warm_cell_value(self):
        assert optical_depth(VaporCell(359.15, 0.05)) == pytest.approx(OD_86C_5CM, rel=1e-9)

    def test_agreement_with_fitted_magnitudes(self):
        # Reported fits for these cell temperatures are 4.6e3 and about 20.
        assert 0.5 < optical_depth(VaporCell(461.15, 0.05)) / 4.6e3 < 2.0
        assert 0.5 < optical_depth(VaporCell(359.15, 0.05)) / 20.0 < 2.0

    def test_zero_length_cell(self):
        assert optical_depth(VaporCell(400.0, 0.0)) == 0.0

    def test_strictly_increasing_with_temperature(self):
        temps = np.linspace(80.0, 190.0, 23) + 273.15
        ods = np.array([optical_depth(VaporCell(t, 0.05)) for t in temps])
        assert np.all(np.diff(ods) > 0.0)

    def test_propagates_model_range(self):
        with pytest.raises(OutOfModelRange):
            optical_depth(VaporCell(200.0, 0.05))


@pytest.fixture
def warm_model():
    return DispersionModel(od=20.0, tau=doppler_lifetime(359.15))


class TestSpectralPhase:
    def test_zero_on_resonance(self, warm_model):
        assert spectral_phase(warm_model, warm_model.lambda0) == 0.0

    def test_maximum_at_unit_detuning(self, warm_model):
        lam = warm_model.lambda0 + warm_model.lambda0**2 / (
            2.0 * math.pi * warm_model.tau * CODATA.c
        )
        x = reduced_detuning(warm_model, lam)
        assert spectral_phase(warm_model, lam) == pytest.approx(
            warm_model.od * x / (1 + x * x), rel=1e-15
        )
        assert spectral_phase(warm_model, lam) == pytest.approx(warm_model.od / 2, rel=1e-9)

    def test_peak_to_peak_near_od(self, warm_model):
        lam = np.linspace(790e-9, 803e-9, 2_000_001)
        phi = spectral_phase(warm_model, lam)
        assert phi.max() - phi.min() == pytest.approx(20.0, rel=1e-4)

    @given(delta=st.floats(1e-15, 6e-9), od=st.floats(0.0, 20.0))
    @settings(max_examples=60, deadline=None)
    def test_odd_in_detuning(self, delta, od):
        model = DispersionModel(od=od, tau=220e-12)
        mirror = 2.0 * model.lambda0 - (model.lambda0 + delta)
        total = spectral_phase(model, model.lambda0 + delta) + spectral_phase(model, mirror)
        assert abs(total) < 1e-12

    @given(
        lam=st.floats(700e-9, 900e-9),
        od=st.floats(0.0, 5e3),
        tau=st.floats(100e-12, 400e-12),
    )
    @settings(max_examples=80, deadline=None)
    def test_bounded_by_half_od(self, lam, od, tau):
        model = DispersionModel(od=od, tau=tau)
        assert abs(spectral_phase(model, lam)) <= od / 2.0 + 1e-12

    def test_rejects_nonpositive_wavelength(self, warm_model):
        with pytest.raises(ValueError):
            spectral_phase(warm_model, -1e-9)


def linearized_detuning(wavelength, lambda0: float) -> np.ndarray:
    """Angular detuning under the linearized wavelength map.

    omega - omega0 = -2*pi*c*(lambda - lambda0)/lambda0**2, the same
    first-order map that defines the reduced detuning x.  The exact relation
    omega = 2*pi*c/lambda differs from this by O((lambda-lambda0)/lambda0).
    """
    lam = np.asarray(wavelength, dtype=float)
    return -2.0 * math.pi * CODATA.c * (lam - lambda0) / lambda0**2


class TestTransferFunction:
    def test_pure_attenuation_on_resonance(self, warm_model):
        value = transfer_function(warm_model, warm_model.omega0)
        assert value == pytest.approx(math.exp(-warm_model.od), rel=1e-12)

    def test_far_detuned_limit(self, warm_model):
        # |H - 1| falls off as od/(detuning*tau): ~7e-5 at 1.5*omega0 and
        # vanishing in the extreme limit.
        assert abs(transfer_function(warm_model, warm_model.omega0 * 1.5) - 1.0) < 1e-4
        assert abs(transfer_function(warm_model, warm_model.omega0 * 1e3) - 1.0) < 1e-7

    @given(rel_detuning=st.floats(-1e-3, 1e-3), od=st.floats(0.0, 50.0))
    @settings(max_examples=60, deadline=None)
    def test_modulus_at_most_one(self, rel_detuning, od):
        model = DispersionModel(od=od, tau=220e-12)
        omega = model.omega0 * (1.0 + rel_detuning)
        assert abs(transfer_function(model, omega)) <= 1.0 + 1e-15

    @pytest.mark.parametrize("od", [0.0, 20.0, 2.6e3])
    def test_argument_matches_phase_under_matched_conversion(self, od):
        # The two code paths describe the same Lorentzian dispersion when the
        # wavelength enters through the same first-order detuning map.  The
        # comparison is limited by the grid of representable omega values:
        # one ulp of omega near 2.4e15 rad/s moves the true phase by
        # |dphi/domega| * ulp, which dominates right at the resonance bins.
        model = DispersionModel(od=od, tau=doppler_lifetime(359.15))
        lam = np.linspace(790e-9, 803e-9, 140)
        detuning = linearized_detuning(lam, model.lambda0)
        omega = model.omega0 + detuning
        phase_from_transfer = np.angle(transfer_function(model, omega))
        phase_direct = spectral_phase(model, lam)
        ulp = np.spacing(model.omega0)
        x = detuning * model.tau
        slope = np.abs(model.od * model.tau * (1 - x**2) / (1 + x**2) ** 2)
        allowance = 1e-12 + 4.0 * slope * ulp
        mismatch = np.abs(
            np.exp(1j * phase_from_transfer) - np.exp(1j * phase_direct)
        )
        assert np.all(mismatch <= allowance)

    def test_exact_conversion_discrepancy_at_grid_edges(self, warm_model):
        # Eq-style x(lambda) linearizes the detuning; the exact conversion
        # omega = 2*pi*c/lambda differs by O((lambda-lambda0)/lambda0),
        # about 1% in phase at the edges of the 790-803 nm span.
        lam = np.array([790e-9, 803e-9])
        omega_exact = 2.0 * math.pi * CODATA.c / lam
        arg = np.angle(transfer_function(warm_model, omega_exact))
        phi = spectral_phase(warm_model, lam)
        rel = np.abs((arg - phi) / phi)
        assert np.all(rel > 1e-4)
        assert np.all(rel < 2e-2)

    def test_rejects_nonpositive_frequency(self, warm_model):
        with pytest.raises(ValueError):
            transfer_function(warm_model, 0.0)


class TestAbsorptionNegligible:
    def test_broadband_photon_margin(self):
        # 5 THz detuning (10 nm bandwidth scale), tau = 220 ps, od = 4.6e3:
        # lhs = (2*pi*5e12 * 220e-12)^2 = 4.777e7, margin computed exactly.
        model = DispersionModel(od=4.6e3, tau=220e-12)
        omega = model.omega0 + 2.0 * math.pi * 5e12
        ok, margin = absorption_negligible(model, omega)
        assert ok
        assert margin == pytest.approx(10384.54, rel=1e-4)

    def test_false_on_resonance(self):
        model = DispersionModel(od=1.0, tau=220e-12)
        ok, margin = absorption_negligible(model, model.omega0)
        assert not ok and margin == 0.0

    def test_zero_od_always_negligible(self):
        model = DispersionModel(od=0.0, tau=220e-12)
        ok, margin = absorption_negligible(model, model.omega0 + 1.0)
        assert ok and margin == math.inf

    def test_kappa_threshold(self):
        model = DispersionModel(od=1.0, tau=220e-12)
        omega = model.omega0 + math.sqrt(50.0) / model.tau
        ok, margin = absorption_negligible(model, omega, kappa=100.0)
        assert not ok
        assert margin == pytest.approx(50.0, rel=1e-9)
        ok, _ = absorption_negligible(model, omega, kappa=10.0)
        assert ok


def test_cell_validation():
    with pytest.raises(ValueError):
        VaporCell(-1.0, 0.05)
    with pytest.raises(ValueError):
        VaporCell(300.0, -0.01)


def test_model_validation():
    with pytest.raises(ValueError):
        DispersionModel(od=math.nan, tau=220e-12)
    with pytest.raises(ValueError):
        DispersionModel(od=1.0, tau=0.0)
