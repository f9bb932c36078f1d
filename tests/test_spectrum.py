import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kerrsqueeze import (
    InvalidEfficiency,
    LinearizationWarning,
    NonPositive,
    ResonatorParams,
    SingularMatrix,
    SteadyStateBranch,
    UnstablePoint,
    ZeroPower,
    db_from_linear,
    fluctuation_flux,
    injection_locking_point,
    locked_extrema,
    locked_raw_variance,
    locked_variances,
    omega_from_wavelength,
    optimal_phase,
    steady_roots,
    threshold_power,
    total_loss,
    variance_extrema,
    variance_spectrum,
)
from kerrsqueeze.spectrum import _output_moments

from oracles import locked_closed_forms, phase_extrema_scan, two_call_moments

OM = omega_from_wavelength(1550e-9)


def lock(params, p_in):
    _, branch = injection_locking_point(params, p_in, OM)
    return branch


class TestVacuumLimit:
    def test_no_gain_means_unit_variance(self):
        # thermal shift present but no parametric gain
        p = ResonatorParams(kappa=5e8, gamma=5e7, g_th=120.0, lambda_r=1550e-9)
        for dp in (-2e9, 0.0, 1.5e9):
            b = steady_roots(p, dp, 2e-3)[0]
            for w in (0.0, 3e8, -1.1e9):
                for phi in (0.0, 0.6, -1.2):
                    for eta in (1.0, 0.62):
                        pt = variance_spectrum(p, b, w, phi, eta)
                        assert pt.v == pytest.approx(1.0, abs=1e-12)

    def test_zero_drive_is_vacuum(self, device_params):
        b = lock(device_params, 0.0)
        pt = variance_spectrum(device_params, b, 2e8, 0.3)
        assert pt.v == pytest.approx(1.0, abs=1e-14)


class TestAgainstClosedForms:
    def test_locked_point_all_phases_frequencies(self, device_params):
        p_th = threshold_power(device_params, OM)
        loss = total_loss(device_params)
        for frac in (0.05, 0.4, 0.962, 1.6):
            b = lock(device_params, frac * p_th)
            for w in (0.0, 0.2 * loss, -1.3 * loss):
                for phi in (-0.7, -0.2, 0.0, 0.45, 1.3):
                    pt = variance_spectrum(device_params, b, w, phi)
                    ref = locked_raw_variance(pt.sigma_tilde, pt.y, pt.c, phi)
                    assert pt.v == pytest.approx(ref, rel=1e-12)

    def test_extrema_match_scan(self, device_params):
        p_th = threshold_power(device_params, OM)
        loss = total_loss(device_params)
        for frac, w in ((0.3, 0.0), (0.9, 0.8 * loss), (2.5, 0.0)):
            b = lock(device_params, frac * p_th)
            v_min, v_max, phi_min = variance_extrema(device_params, b, w)
            ref_min, ref_max = phase_extrema_scan(
                lambda phi: variance_spectrum(device_params, b, w, phi).v
            )
            assert v_min == pytest.approx(ref_min, rel=1e-10)
            assert v_max == pytest.approx(ref_max, rel=1e-10)
            assert variance_spectrum(device_params, b, w, phi_min).v == pytest.approx(
                v_min, rel=1e-12
            )

    def test_extrema_on_detuned_branch(self, strong_params):
        # away from the locking point the closed forms no longer apply,
        # but the scan oracle still does
        b = steady_roots(strong_params, -8e9, 2e-3)[-1]
        v_min, v_max, _ = variance_extrema(strong_params, b, 3e8)
        ref_min, ref_max = phase_extrema_scan(
            lambda phi: variance_spectrum(strong_params, b, 3e8, phi).v
        )
        assert v_min == pytest.approx(ref_min, rel=1e-10)
        assert v_max == pytest.approx(ref_max, rel=1e-10)

    def test_matches_zero_frequency_closed_form(self, device_params):
        p_th = threshold_power(device_params, OM)
        for frac in (0.1, 0.5, 0.962, 3.0):
            for eta in (1.0, 0.291):
                b = lock(device_params, frac * p_th)
                v_min, v_max, _ = variance_extrema(device_params, b, 0.0, eta)
                ref_s, ref_as = locked_closed_forms(frac, 515e6, 192e6, eta)
                assert v_min == pytest.approx(ref_s, rel=1e-11)
                assert v_max == pytest.approx(ref_as, rel=1e-11)


class TestLockedVariances:
    def test_measured_operating_point(self):
        res = locked_variances(7.59e-3, 7.89e-3, 515e6, 192e6, eta=0.291)
        assert res.v_s == pytest.approx(0.8006844886037046, rel=1e-13)
        assert res.v_as == pytest.approx(4.3378747653302945, rel=1e-13)
        assert db_from_linear(res.v_s) == pytest.approx(-0.9653858485497481, abs=1e-12)
        assert db_from_linear(res.v_as) == pytest.approx(6.37277009754917, abs=1e-12)
        assert res.phi_opt == pytest.approx(-0.23966629855821403, abs=1e-14)

    def test_in_chip_estimate(self):
        res = locked_variances(7.59e-3, 7.89e-3, 515e6, 192e6, eta=1.0)
        assert db_from_linear(res.v_s) == pytest.approx(-5.015971220578182, abs=1e-10)

    def test_deep_drive_floor(self):
        # this far above threshold the guard has to fire, but the asymptote
        # is still the right number
        with pytest.warns(LinearizationWarning):
            res = locked_variances(1e4, 1.0, 500e6, 50e6, eta=1.0)
        assert db_from_linear(res.v_s) == pytest.approx(-10.41, abs=0.05)
        floor = 1.0 - 500.0 / 550.0
        assert res.v_s > floor
        assert res.v_s == pytest.approx(floor, rel=5e-5)

    def test_zero_power_is_vacuum(self):
        res = locked_variances(0.0, 7.89e-3, 515e6, 192e6)
        assert res.v_s == 1.0
        assert res.v_as == 1.0
        assert res.phi_opt == 0.0

    def test_squeezing_needs_no_threshold_crossing(self):
        # monotone improvement with drive, always between floor and 1
        prev = 1.0
        for frac in np.linspace(0.05, 3.0, 30):
            v_s = locked_variances(frac, 1.0, 515e6, 192e6).v_s
            assert 0.0 < v_s < prev
            prev = v_s

    def test_validation(self):
        with pytest.raises(InvalidEfficiency):
            locked_variances(1e-3, 7.89e-3, 515e6, 192e6, eta=1.2)
        with pytest.raises(NonPositive):
            locked_variances(1e-3, 0.0, 515e6, 192e6)
        with pytest.raises(NonPositive):
            locked_variances(-1e-3, 7.89e-3, 515e6, 192e6)


class TestOptimalPhase:
    def test_known_values(self):
        assert optimal_phase(7.89e-3, 7.89e-3) == pytest.approx(
            -0.23182380450040305, abs=1e-15
        )
        assert optimal_phase(7.59e-3, 7.89e-3) == pytest.approx(
            -0.23966629855821403, abs=1e-15
        )

    def test_range_and_limits(self):
        # shallow drive: phase from below; deep drive: approaches zero
        assert -math.pi / 4 < optimal_phase(1e-9, 1.0) < -math.pi / 4 + 1e-6
        assert -1e-4 < optimal_phase(1e4, 1.0) < 0.0
        with pytest.raises(ZeroPower):
            optimal_phase(0.0, 1.0)

    def test_agrees_with_locked_variances(self):
        res = locked_variances(2e-3, 7.89e-3, 515e6, 192e6, eta=0.8)
        assert res.phi_opt == optimal_phase(2e-3, 7.89e-3)

    def test_tiny_ratio_rounds_to_minus_pi_over_4(self):
        # below a drive ratio of about 1e-16 the atan rounds to the closed end
        assert repr(optimal_phase(1e-20, 8e-3)) == "-0.7853981633974483"
        assert optimal_phase(1e-20, 8e-3) == -math.pi / 4
        assert locked_variances(1e-20, 8e-3, 515e6, 192e6).phi_opt == -math.pi / 4

    def test_huge_power_stays_below_zero(self):
        # 2 * p_in overflowed to inf here and gave -0.0, the excluded end
        with pytest.warns(LinearizationWarning):
            res = locked_variances(1e308, 1e200, 5e8, 1e8)
        assert res.phi_opt == optimal_phase(1e308, 1e200) < 0.0

    @settings(max_examples=500, deadline=None)
    @given(p_in=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
           p_th=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    def test_range_over_positive_ratios(self, p_in, p_th):
        try:
            phi = optimal_phase(p_in, p_th)
        except (ZeroPower, NonPositive):  # ratio underflows to 0, or its square overflows
            return
        assert -math.pi / 4 <= phi < 0.0


class TestLockedRawVariance:
    def test_phase_structure(self):
        st_, y, c = 0.9, 1.0, 4.0 * 515.0 / 707.0
        phi0 = 0.5 * math.atan(-1.0 / (2.0 * st_))
        v_at_min = locked_raw_variance(st_, y, c, phi0)
        v_at_max = locked_raw_variance(st_, y, c, phi0 + math.pi / 2)
        ref_s, ref_as = locked_closed_forms(st_, 515e6, 192e6, 1.0)
        assert v_at_min == pytest.approx(ref_s, rel=1e-12)
        assert v_at_max == pytest.approx(ref_as, rel=1e-12)
        # pi periodicity
        assert locked_raw_variance(st_, y, c, 0.3) == pytest.approx(
            locked_raw_variance(st_, y, c, 0.3 + math.pi), rel=1e-12
        )

    def test_min_over_grid_not_below_closed_form(self):
        st_, y, c = 1.4, 1.0, 3.5
        vals = [locked_raw_variance(st_, y, c, p) for p in np.linspace(-1.6, 1.6, 400)]
        root = math.sqrt(st_ * st_ + 0.25)
        closed_min = 1.0 + 2.0 * c * st_ * st_ - 2.0 * c * st_ * root
        assert min(vals) >= closed_min - 1e-12
        assert min(vals) == pytest.approx(closed_min, abs=5e-3)

    def test_high_frequency_returns_to_vacuum(self):
        v = locked_raw_variance(0.9, 1e8, 2.9, -0.2)
        assert v == pytest.approx(1.0, abs=1e-6)

    def test_validation(self):
        with pytest.raises(NonPositive):
            locked_raw_variance(0.9, 0.5, 2.9, 0.0)
        with pytest.raises(NonPositive):
            locked_raw_variance(-0.1, 1.0, 2.9, 0.0)
        with pytest.raises(NonPositive):
            locked_raw_variance(0.9, 1.0, -0.1, 0.0)


class TestLockedExtrema:
    @pytest.mark.parametrize("st_,y,c", [(0.9, 1.0, 2.9), (1.4, 3.0, 3.5),
                                         (0.05, 1.2, 0.4), (0.0, 2.0, 2.9)])
    def test_matches_phase_grid(self, st_, y, c):
        vals = [locked_raw_variance(st_, y, c, p)
                for p in np.linspace(-math.pi / 2, math.pi / 2, 20001)]
        v_min, v_max = locked_extrema(st_, y, c)
        assert min(vals) >= v_min - 1e-12
        assert max(vals) <= v_max + 1e-12
        assert min(vals) == pytest.approx(v_min, rel=1e-7)
        assert max(vals) == pytest.approx(v_max, rel=1e-7)

    def test_validation(self):
        for args in ((0.9, 0.5, 2.9), (-0.1, 1.0, 2.9), (0.9, 1.0, -0.1)):
            with pytest.raises(NonPositive):
                locked_extrema(*args)


class TestUncertaintyProduct:
    def test_lossless_chain_is_minimum_uncertainty(self):
        import warnings as _w

        p = ResonatorParams(kappa=5e8, gamma=0.0, g_opt=1.5, lambda_r=1550e-9)
        p_th = threshold_power(p, OM)
        loss = total_loss(p)
        with _w.catch_warnings():
            # frac = 8 is past the guard threshold on purpose
            _w.simplefilter("ignore", LinearizationWarning)
            for frac in (0.1, 0.9, 2.0, 8.0):
                res = locked_variances(frac * p_th, p_th, p.kappa, p.gamma, eta=1.0)
                assert res.v_s * res.v_as == pytest.approx(1.0, rel=1e-12)
                b = lock(p, frac * p_th)
                for w in (0.0, 0.6 * loss):
                    v_min, v_max, _ = variance_extrema(p, b, w)
                    assert v_min * v_max == pytest.approx(1.0, rel=1e-9)

    def test_product_exceeds_one_with_loss(self, device_params):
        res = locked_variances(4e-3, 7.89e-3, 515e6, 192e6, eta=0.9)
        assert res.v_s * res.v_as > 1.0


class TestLossLaw:
    def test_variance_interpolates_to_vacuum(self, device_params):
        p_th = threshold_power(device_params, OM)
        b = lock(device_params, 0.7 * p_th)
        rng = np.random.default_rng(7)
        for _ in range(40):
            w = float(rng.uniform(-2e9, 2e9))
            phi = float(rng.uniform(-math.pi / 2, math.pi / 2))
            eta = float(rng.uniform(0.0, 1.0))
            full = variance_spectrum(device_params, b, w, phi, 1.0).v
            lossy = variance_spectrum(device_params, b, w, phi, eta).v
            assert lossy == pytest.approx((1.0 - eta) + eta * full, rel=1e-12)

    def test_eta_zero_is_vacuum(self, device_params):
        b = lock(device_params, 5e-3)
        assert variance_spectrum(device_params, b, 0.0, -0.2, 0.0).v == pytest.approx(
            1.0, abs=1e-15
        )


class TestSpectralShape:
    def test_even_in_frequency(self, device_params):
        b = lock(device_params, 6e-3)
        for w in (1e8, 7.77e8, 2.3e9):
            for phi in (-0.4, 0.0, 0.9):
                v_pos = variance_spectrum(device_params, b, w, phi).v
                v_neg = variance_spectrum(device_params, b, -w, phi).v
                assert v_pos == pytest.approx(v_neg, rel=1e-12)

    def test_squeezing_degrades_off_resonance(self, device_params):
        b = lock(device_params, 6e-3)
        loss = total_loss(device_params)
        v0 = variance_extrema(device_params, b, 0.0)[0]
        v1 = variance_extrema(device_params, b, loss)[0]
        v2 = variance_extrema(device_params, b, 5 * loss)[0]
        assert v0 < v1 < v2 < 1.0 + 1e-12


class TestCommutatorInvariant:
    def test_moment_difference_is_one(self, device_params, strong_params):
        cases = [
            (device_params, lock(device_params, 5e-3), 0.0, 1.0),
            (device_params, lock(device_params, 5e-3), 8e8, 0.73),
            (strong_params, steady_roots(strong_params, -8e9, 2e-3)[-1], 3e8, 1.0),
        ]
        for params, b, w, eta in cases:
            g11, g12, g21 = _output_moments(params, b, w, eta)
            assert g12 - g21 == pytest.approx(1.0, rel=1e-12)


class TestFluctuationFlux:
    def test_locked_value_both_routes(self, device_params):
        p_th = threshold_power(device_params, OM)
        b = lock(device_params, 7.59e-3)
        flux = fluctuation_flux(device_params, b, eta=0.291)
        st_ = 7.59e-3 / p_th
        simple = 4.0 * 0.291 * 515e6 / 707e6 * st_ * st_
        assert flux == pytest.approx(simple, rel=1e-12)

    def test_equals_phase_averaged_excess(self, device_params):
        # mean over four equally spaced phases isolates the isotropic part
        b = lock(device_params, 5e-3)
        eta = 0.8
        flux = fluctuation_flux(device_params, b, eta=eta)
        phases = (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4)
        mean_v = sum(
            variance_spectrum(device_params, b, 0.0, p, eta).v for p in phases
        ) / 4.0
        assert flux == pytest.approx((mean_v - 1.0) / 2.0, rel=1e-10)

    def test_unstable_branch_rejected(self):
        p = ResonatorParams(kappa=5e8, gamma=5e7, g_opt=20.0, lambda_r=1550e-9)
        loss = total_loss(p)
        p_in = 4e-3
        # locking detuning sits inside the three-root window at this drive
        dpl, _ = injection_locking_point(p, p_in, OM)
        roots = steady_roots(p, dpl, p_in)
        assert len(roots) == 3
        with pytest.raises(UnstablePoint):
            fluctuation_flux(p, roots[1])
        # the variance code rejects the middle root too, though its matrix is regular
        assert not roots[1].stable
        with pytest.raises(UnstablePoint), pytest.warns(LinearizationWarning):
            variance_spectrum(p, roots[1], 0.0, 0.0)
        with pytest.raises(UnstablePoint), pytest.warns(LinearizationWarning):
            variance_extrema(p, roots[1], 0.0)


class TestGuards:
    def test_linearization_warning_near_critical(self, device_params):
        p_th = threshold_power(device_params, OM)
        b = lock(device_params, 7.5 * p_th)
        with pytest.warns(LinearizationWarning):
            variance_spectrum(device_params, b, 0.0, 0.0)
        b_ok = lock(device_params, 6.5 * p_th)
        import warnings as _w

        with _w.catch_warnings():
            _w.simplefilter("error")
            variance_spectrum(device_params, b_ok, 0.0, 0.0)

    def test_singular_matrix_at_critical_point(self):
        p = ResonatorParams(kappa=5e8, gamma=5e7, g_opt=2.0, lambda_r=1550e-9)
        loss = total_loss(p)
        # handcrafted marginal branch: 4 delta_f^2 + loss^2 = sigma^2
        n = 1e9
        sigma = 2.0 * p.g_opt * n
        delta_f = -math.sqrt(sigma * sigma - loss * loss) / 2.0
        b = SteadyStateBranch(
            n=n, delta_cl=delta_f - p.g_opt * n, delta_f=delta_f, stable=False,
            alpha_phase=0.0,
        )
        with pytest.raises(SingularMatrix), pytest.warns(LinearizationWarning):
            variance_spectrum(p, b, 0.0, 0.0)

    def test_singular_matrix_independent_of_scale(self):
        # the same drive far above threshold is ill-conditioned at any loss
        # rate, also where |Q|^4 leaves the float range
        for kappa in (5e8, 1e80):
            p = ResonatorParams(kappa=kappa, gamma=0.0, g_opt=1.0, lambda_r=1550e-9)
            b = lock(p, 1e7 * threshold_power(p, OM))
            with pytest.raises(SingularMatrix), pytest.warns(LinearizationWarning):
                variance_extrema(p, b, 0.0)

    def test_eta_validation(self, device_params):
        b = lock(device_params, 1e-3)
        with pytest.raises(InvalidEfficiency):
            variance_spectrum(device_params, b, 0.0, 0.0, eta=-0.1)


@settings(max_examples=40, deadline=None)
@given(
    frac=st.floats(min_value=0.01, max_value=3.0),
    w_rel=st.floats(min_value=-3.0, max_value=3.0),
    phi=st.floats(min_value=-1.5707, max_value=1.5707),
    eta=st.floats(min_value=0.0, max_value=1.0),
)
def test_variance_positive_and_lossy_floor_property(frac, w_rel, phi, eta):
    params = ResonatorParams(kappa=515e6, gamma=192e6, g_opt=1.4, lambda_r=1550e-9)
    p_th = threshold_power(params, OM)
    _, b = injection_locking_point(params, frac * p_th, OM)
    loss = total_loss(params)
    pt = variance_spectrum(params, b, w_rel * loss, phi, eta)
    assert pt.v > 0.0
    assert pt.v >= (1.0 - eta) - 1e-12


@settings(max_examples=300, deadline=None)
@given(
    kappa=st.floats(min_value=1e6, max_value=1e11),
    gamma=st.floats(min_value=0.0, max_value=1e11),
    g_opt=st.floats(min_value=0.0, max_value=1e3),
    g_th=st.sampled_from([0.0, 0.0, 50.0, 500.0]),
    p_in=st.floats(min_value=0.0, max_value=0.1),
    frac=st.one_of(st.none(), st.floats(min_value=-40.0, max_value=5.0)),
    omega=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(min_value=-1e11, max_value=-1e-3),
                    st.floats(min_value=1e-3, max_value=1e11)),
    eta=st.floats(min_value=0.0, max_value=1.0),
)
def test_one_solve_moments_match_two_solves(kappa, gamma, g_opt, g_th, p_in, frac, omega, eta):
    # Q(-w) has Q(w)'s diagonal swapped and conjugated and the same
    # off-diagonal, so one solve gives the moments that solving at w and
    # again at -w gave, bit for bit; frac None takes the locked branch,
    # otherwise the stable roots at frac linewidths from the cold line
    params = ResonatorParams(kappa=kappa, gamma=gamma, g_opt=g_opt, g_th=g_th,
                             lambda_r=1550e-9)
    if frac is None:
        branches = [lock(params, p_in)]
    else:
        roots = steady_roots(params, frac * total_loss(params), p_in, OM)
        branches = [b for b in roots if b.stable]
    for b in branches:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LinearizationWarning)
            try:
                got = _output_moments(params, b, omega, eta)
            except SingularMatrix:
                continue
        assert repr(got) == repr(two_call_moments(params, b, omega, eta))

