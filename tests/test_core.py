import math

import pytest
from hypothesis import given, strategies as st

from kerrsqueeze import (
    DriveState,
    InvalidEfficiency,
    NonPositive,
    PumpConfig,
    ResonatorParams,
    db_from_linear,
    drive_state,
    linear_from_db,
    omega_from_wavelength,
    quality_factor,
    threshold_power,
    total_loss,
)


def test_omega_from_wavelength_telecom():
    assert omega_from_wavelength(1550e-9) == 1215259075683131.0


def test_omega_from_wavelength_rejects_nonpositive():
    with pytest.raises(NonPositive):
        omega_from_wavelength(0.0)
    with pytest.raises(NonPositive):
        omega_from_wavelength(-1e-6)


def test_total_loss_is_sum(device_params):
    assert total_loss(device_params) == 707e6


def test_quality_factor_values(device_params, strong_params):
    assert quality_factor(device_params) == pytest.approx(1718895.4394386576, rel=1e-14)
    assert quality_factor(strong_params) == pytest.approx(2209561.955787511, rel=1e-14)


def test_quality_factor_needs_resonance():
    p = ResonatorParams(kappa=5e8, gamma=5e7)
    with pytest.raises(ValueError):
        quality_factor(p)


class TestResonatorParams:
    def test_rejects_bad_rates(self):
        with pytest.raises(NonPositive):
            ResonatorParams(kappa=0.0, gamma=1e6)
        with pytest.raises(NonPositive):
            ResonatorParams(kappa=1e8, gamma=-1.0)
        with pytest.raises(NonPositive):
            ResonatorParams(kappa=1e8, gamma=1e6, g_opt=-0.1)
        with pytest.raises(NonPositive):
            ResonatorParams(kappa=1e8, gamma=1e6, g_th=-0.1)
        for field in ("kappa", "gamma", "g_opt", "g_th", "lambda_r", "omega_r", "radius", "n_eff"):
            for bad in (math.nan, math.inf):
                with pytest.raises(NonPositive, match=field):
                    ResonatorParams(**{"kappa": 1e8, "gamma": 1e6, field: bad})
        for field in ("lambda_r", "omega_r", "radius", "n_eff"):
            for bad in (0.0, -1.0):
                with pytest.raises(NonPositive, match=f"{field} must be > 0"):
                    ResonatorParams(**{"kappa": 1e8, "gamma": 1e6, field: bad})

    def test_zero_gamma_allowed(self):
        p = ResonatorParams(kappa=1e8, gamma=0.0, g_opt=1.0)
        assert total_loss(p) == 1e8

    def test_wavelength_omega_consistency(self):
        om = omega_from_wavelength(1550e-9)
        p = ResonatorParams(kappa=1e8, gamma=1e6, lambda_r=1550e-9, omega_r=om)
        assert p.resonance_omega == om
        with pytest.raises(ValueError):
            ResonatorParams(kappa=1e8, gamma=1e6, lambda_r=1550e-9, omega_r=om * 1.001)

    def test_frozen(self, device_params):
        with pytest.raises(Exception):
            device_params.kappa = 1.0


class TestPumpConfig:
    def test_direction_validation(self):
        PumpConfig(p_in=1e-3, delta_p=0.0, direction="up")
        with pytest.raises(ValueError):
            PumpConfig(p_in=1e-3, delta_p=0.0, direction="sideways")

    def test_negative_power_rejected(self):
        with pytest.raises(NonPositive):
            PumpConfig(p_in=-1e-3, delta_p=0.0)


class TestThresholdPower:
    def test_known_device_point(self, device_params):
        p = threshold_power(device_params, omega_from_wavelength(1550e-9))
        assert p == pytest.approx(0.007851959007109836, rel=1e-14)
        assert 7.7e-3 <= p <= 8.0e-3

    def test_strong_point(self, strong_params):
        p = threshold_power(strong_params, omega_from_wavelength(1550e-9))
        assert p == pytest.approx(0.0035537089169962615, rel=1e-14)

    def test_zero_gain_raises(self):
        # without Kerr gain the threshold is absent: inf, not an error
        p = ResonatorParams(kappa=5e8, gamma=5e7)
        assert threshold_power(p, 1.2e15) == math.inf

    def test_scaling_in_loss(self):
        # P_th ~ (kappa+gamma)^3 / kappa at fixed gain
        base = ResonatorParams(kappa=4e8, gamma=1e8, g_opt=2.0)
        double = ResonatorParams(kappa=8e8, gamma=2e8, g_opt=2.0)
        r = threshold_power(double, 1.2e15) / threshold_power(base, 1.2e15)
        assert r == pytest.approx(8.0 / 2.0, rel=1e-12)


class TestDriveState:
    def test_fields_at_locked_drive(self, device_params):
        om = omega_from_wavelength(1550e-9)
        p_th = threshold_power(device_params, om)
        d = drive_state(device_params, 0.962 * p_th, om)
        assert d.sigma_tilde == pytest.approx(0.962, rel=1e-14)
        assert d.x == pytest.approx(0.693281523433618, rel=1e-14)
        assert d.n_fluct_out == pytest.approx(2.8029985855728428, rel=1e-13)
        assert d.r == pytest.approx(1.7542369559201036, rel=1e-13)
        assert d.r == pytest.approx(math.asinh(d.n_fluct_out), rel=1e-15)

    def test_threshold_override(self, device_params):
        om = omega_from_wavelength(1550e-9)
        d = drive_state(device_params, 7.59e-3, om, p_th=7.89e-3)
        assert d.sigma_tilde == pytest.approx(7.59 / 7.89, rel=1e-14)
        with pytest.raises(NonPositive):
            drive_state(device_params, 7.59e-3, om, p_th=0.0)

    def test_zero_gain_means_zero_drive(self):
        p = ResonatorParams(kappa=5e8, gamma=5e7)
        d = drive_state(p, 1e-3, 1.2e15)
        assert d == DriveState(sigma_tilde=0.0, x=0.0, n_fluct_out=0.0, r=0.0)

    def test_eta_scales_flux_only(self, device_params):
        om = omega_from_wavelength(1550e-9)
        full = drive_state(device_params, 1e-3, om, eta=1.0)
        half = drive_state(device_params, 1e-3, om, eta=0.5)
        assert half.n_fluct_out == pytest.approx(0.5 * full.n_fluct_out, rel=1e-15)
        assert half.x == full.x
        with pytest.raises(InvalidEfficiency):
            drive_state(device_params, 1e-3, om, eta=1.5)

    def test_negative_power_rejected(self, device_params):
        with pytest.raises(NonPositive):
            drive_state(device_params, -1e-3, 1.2e15)


class TestDecibels:
    def test_known_values(self):
        assert db_from_linear(0.09091) == pytest.approx(-10.413883422351207, abs=1e-12)
        assert linear_from_db(-1.219) == pytest.approx(0.7552661140948065, rel=1e-15)
        assert linear_from_db(-3.010) == pytest.approx(0.5000345349769785, rel=1e-15)
        assert db_from_linear(1.0) == 0.0

    def test_nonpositive_rejected(self):
        with pytest.raises(NonPositive):
            db_from_linear(0.0)
        with pytest.raises(NonPositive):
            db_from_linear(-2.0)
        # NaN compares false with 0, so a plain v <= 0 test let it through
        for v in (math.nan, math.inf, -math.inf):
            with pytest.raises(NonPositive, match="finite and > 0"):
                db_from_linear(v)

    @given(st.floats(min_value=-60.0, max_value=60.0))
    def test_round_trip(self, db):
        assert db_from_linear(linear_from_db(db)) == pytest.approx(db, abs=1e-10)
