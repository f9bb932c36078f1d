import math
import warnings

import numpy as np
import pytest

from kerrsqueeze import (
    Degenerate,
    EmptyTrace,
    MetadataMismatch,
    ModelError,
    NoDip,
    PoorFit,
    RankDeficient,
    ResonanceList,
    TransmissionTrace,
    ZeroSpanTrace,
    dispersion_regime,
    fit_dispersion,
    fit_linear_resonance,
    fit_shift_coefficient,
    g_opt_from_threshold,
    locked_raw_variance,
    locked_variances,
    omega_from_wavelength,
    reduce_homodyne_trace,
    threshold_power,
)

import oracles
from kerrsqueeze import characterize
from kerrsqueeze.cli import read_resonance_csv, read_transmission_csv
from oracles import shifted_trace, synth_lineshape

OM = omega_from_wavelength(1550e-9)


def make_trace(center=-2.35e8, kappa=515e6, gamma=192e6, span=1e10, n=201,
               noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    freq, t = synth_lineshape(rng, center, kappa, gamma, span, n, noise)
    return TransmissionTrace(freq=freq, transmission=t)


class TestTraceContainers:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            TransmissionTrace(freq=np.array([1.0, 2.0]), transmission=np.array([1.0]))
        with pytest.raises(ValueError):
            TransmissionTrace(
                freq=np.array([0.0, 1.0, 0.5]), transmission=np.ones(3)
            )
        for bad in (math.nan, math.inf):
            with pytest.raises(ModelError):
                TransmissionTrace(freq=np.arange(4.0), transmission=np.array([0.9, bad, 0.4, 0.9]))
            with pytest.raises(ModelError):
                TransmissionTrace(freq=np.array([0.0, bad, 2.0]), transmission=np.ones(3))

    def test_zero_span_validation(self):
        with pytest.raises(ValueError):
            ZeroSpanTrace(
                t=np.array([0.0, 0.0]), power_dbm=np.zeros(2),
                center_hz=1e8, rbw_hz=3e5, vbw_hz=3e2,
            )
        for bad in (math.nan, math.inf):
            with pytest.raises(ModelError):
                ZeroSpanTrace(
                    t=np.arange(3.0), power_dbm=np.array([-80.0, bad, -80.0]),
                    center_hz=1e8, rbw_hz=3e5, vbw_hz=3e2,
                )

    def test_resonance_list_distinct_modes(self):
        with pytest.raises(ValueError):
            ResonanceList(((0, 1e15), (0, 1.1e15)))


class TestLinearResonanceFit:
    def test_noiseless_exact(self):
        fit = fit_linear_resonance(make_trace(), "over")
        assert fit.omega_r == pytest.approx(-2.35e8, rel=1e-9)
        assert fit.kappa == pytest.approx(515e6, rel=1e-9)
        assert fit.gamma == pytest.approx(192e6, rel=1e-9)
        assert fit.residual < 1e-12

    def test_regime_selects_assignment(self):
        # the lineshape is symmetric under kappa <-> gamma; the declared
        # regime resolves which rate is which
        over = fit_linear_resonance(make_trace(), "over")
        under = fit_linear_resonance(make_trace(), "under")
        assert over.kappa > over.gamma
        assert under.kappa < under.gamma
        assert over.kappa == pytest.approx(under.gamma, rel=1e-9)
        assert over.gamma == pytest.approx(under.kappa, rel=1e-9)

    def test_noisy_recovery(self):
        fit = fit_linear_resonance(make_trace(noise=0.01, seed=3), "over")
        assert fit.kappa == pytest.approx(515e6, rel=0.05)
        assert fit.gamma == pytest.approx(192e6, rel=0.05)
        assert 0.0 < fit.residual < 0.05

    def test_stderr_scales_with_noise(self):
        tr = make_trace(noise=0.01, seed=5)
        fit = fit_linear_resonance(tr, "over")
        se = fit.stderr
        assert all(s > 0 for s in se)
        # one-sigma intervals should be sane: within a few percent of rate
        assert se[1] < 0.05 * fit.kappa

    def test_no_dip_raises(self):
        flat = TransmissionTrace(
            freq=np.linspace(-1e9, 1e9, 50), transmission=np.full(50, 0.99)
        )
        with pytest.raises(NoDip):
            fit_linear_resonance(flat, "over")

    def test_poor_fit_raises(self):
        with pytest.raises(PoorFit):
            fit_linear_resonance(make_trace(noise=0.02, seed=1), "over",
                                 max_residual=1e-4)

    @pytest.mark.parametrize("column,value", [
        ("freq", -1e300),  # the residual at the starting point is NaN
        ("transmission", -1e300),  # the residual norms overflow
        ("transmission", 1e300),
    ])
    def test_out_of_range_sample_is_poor_fit(self, column, value):
        trace = make_trace()
        fields = {"freq": trace.freq.copy(), "transmission": trace.transmission.copy()}
        fields[column][0] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no numpy warning on the way
            with pytest.raises(PoorFit):
                fit_linear_resonance(TransmissionTrace(**fields), "over")

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(EmptyTrace):
            fit_linear_resonance(
                TransmissionTrace(freq=np.array([]), transmission=np.array([])), "over"
            )
        with pytest.raises(ValueError):
            fit_linear_resonance(
                TransmissionTrace(freq=np.arange(3.0), transmission=np.ones(3)), "over"
            )
        with pytest.raises(ValueError):
            fit_linear_resonance(make_trace(), "critical")


class TestShiftCoefficientFit:
    def make_set(self, g_sum, powers, kappa=500e6, gamma=50e6, noise=0.0, seed=0):
        rng = np.random.default_rng(seed)
        traces = []
        for p in powers:
            freq = np.linspace(-6e9, 2e9, 120)
            t = shifted_trace(g_sum, kappa, gamma, p, OM, freq)
            t = t * (1.0 + noise * rng.standard_normal(freq.size))
            traces.append(
                TransmissionTrace(freq=freq, transmission=t, p_in=p, direction="down")
            )
        return traces

    def test_noiseless_recovery(self):
        traces = self.make_set(1.6, (2e-5, 6e-5, 1.2e-4))
        got = fit_shift_coefficient(traces, 500e6, 50e6, OM)
        assert got == pytest.approx(1.6, rel=1e-6)

    def test_only_sum_is_identifiable(self):
        # same total shift split differently produces identical traces
        a = self.make_set(1.6, (2e-5, 1.2e-4))
        got = fit_shift_coefficient(a, 500e6, 50e6, OM)
        assert got == pytest.approx(1.6, rel=1e-6)

    def test_zero_power_degenerate(self):
        traces = self.make_set(1.6, (0.0, 0.0))
        with pytest.raises(Degenerate):
            fit_shift_coefficient(traces, 500e6, 50e6, OM)

    def test_insensitive_power_degenerate(self):
        traces = self.make_set(1.6, (1e-15, 2e-15))
        with pytest.raises(Degenerate):
            fit_shift_coefficient(traces, 500e6, 50e6, OM)

    def test_needs_two_traces(self):
        traces = self.make_set(1.6, (1e-4,))
        with pytest.raises(ValueError):
            fit_shift_coefficient(traces, 500e6, 50e6, OM)


class TestThresholdInverse:
    def test_known_device_band(self):
        g = g_opt_from_threshold(7.89e-3, 515e6, 192e6, 1550e-9)
        assert 1.35 <= g <= 1.45

    def test_round_trip(self, device_params):
        p_th = threshold_power(device_params, OM)
        g = g_opt_from_threshold(p_th, 515e6, 192e6, 1550e-9)
        assert g == pytest.approx(1.4, rel=1e-12)


class TestDispersionFit:
    OM0 = OM
    D1 = 0.68e12
    D2 = 7.76e6

    def entries(self, mus):
        return ResonanceList(
            tuple(
                (mu, self.OM0 + self.D1 * mu + 0.5 * self.D2 * mu * mu) for mu in mus
            )
        )

    def test_exact_recovery(self):
        fit = fit_dispersion(self.entries(range(-40, 41, 4)))
        assert fit.omega_0 == pytest.approx(self.OM0, rel=1e-12)
        assert fit.d1 == pytest.approx(self.D1, rel=1e-10)
        assert fit.d2 == pytest.approx(self.D2, rel=1e-10)

    def test_integrated_dispersion_is_pure_quadratic(self):
        mus = list(range(-40, 41, 4))
        fit = fit_dispersion(self.entries(mus))
        for mu, d in zip(mus, fit.d_int):
            assert d == pytest.approx(0.5 * self.D2 * mu * mu, abs=1e-2)

    def test_regimes(self):
        assert dispersion_regime(7.76e6) == "anomalous"
        assert dispersion_regime(-1.0) == "normal"
        assert dispersion_regime(0.0) == "flat"

    def test_rank_deficient(self):
        with pytest.raises(RankDeficient):
            fit_dispersion(self.entries((0, 1)))
        with pytest.raises(RankDeficient):
            fit_dispersion(self.entries((0, 4)))

    def test_mode_numbers_beyond_int64_are_read_exactly(self, sample_dir, tmp_path):
        lines = (sample_dir / "resonances.csv").read_text().splitlines()
        lines[1] = "1e20," + lines[1].split(",")[1]
        (tmp_path / "r.csv").write_text("\n".join(lines) + "\n")
        resonances = read_resonance_csv(tmp_path / "r.csv")
        assert resonances.entries[0][0] == 10**20  # an int64 cast would wrap it
        fit = fit_dispersion(resonances)
        assert all(map(math.isfinite, (fit.omega_0, fit.d1, fit.d2, fit.residual_norm,
                                       *fit.stderr, *fit.d_int)))

    def test_out_of_range_frequency_is_poor_fit(self):
        entries = list(self.entries(range(-40, 41, 4)).entries)
        entries[0] = (entries[0][0], 1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no numpy warning on the way
            with pytest.raises(PoorFit):
                fit_dispersion(entries)

    def test_singular_normal_matrix_is_rank_deficient(self):
        with pytest.raises(RankDeficient):
            characterize._inverse(np.zeros((3, 3)))

    def test_stderr_near_zero_when_exact(self):
        se = fit_dispersion(self.entries(range(-40, 41, 4))).stderr
        assert all(abs(s) < 1e-3 for s in se)

    def test_unsorted_modes_accepted(self):
        mus = [8, -12, 0, 4, -4, 12, -8]
        fit = fit_dispersion(self.entries(mus))
        assert fit.d2 == pytest.approx(self.D2, rel=1e-9)


class TestFitErrorBars:
    """Fits carry exactly the error bars the stand-alone reference helpers give."""

    @pytest.mark.parametrize("regime", ["over", "under"])
    @pytest.mark.parametrize("noise", [0.0, 1e-3, 1e-2])
    def test_resonance_stderr_matches_reference(self, regime, noise):
        tr = make_trace(noise=noise, seed=7)
        fit = fit_linear_resonance(tr, regime)
        assert fit.stderr == oracles.resonance_fit_stderr(tr.freq, tr.transmission, fit)

    @pytest.mark.parametrize("noise", [0.0, 1e3, 1e6])
    @pytest.mark.parametrize("mus", [range(-40, 41, 4), [8, -12, 0, 4, -4, 12, -8], range(4),
                                     [-1, 0, 2]],
                             ids=["ladder-21", "unsorted-7", "ladder-4", "ladder-3"])
    def test_dispersion_stderr_and_residual_match_reference(self, mus, noise):
        rng = np.random.default_rng(11)
        entries = [(mu, OM + 0.68e12 * mu + 0.5 * 7.76e6 * mu * mu + noise * rng.standard_normal())
                   for mu in mus]
        fit = fit_dispersion(entries)
        # three modes leave no degrees of freedom: the reference gives zeros
        assert fit.stderr == oracles.dispersion_fit_stderr(entries, fit)
        assert fit.residual_norm == oracles.dispersion_residual_norm(entries, fit)

    def test_sample_inputs_match_reference(self, sample_dir):
        tr = read_transmission_csv(sample_dir / "transmission_trace.csv")
        fit = fit_linear_resonance(tr, "over")
        assert fit.stderr == oracles.resonance_fit_stderr(tr.freq, tr.transmission, fit)
        entries = read_resonance_csv(sample_dir / "resonances.csv").entries
        dfit = fit_dispersion(entries)
        assert dfit.stderr == oracles.dispersion_fit_stderr(entries, dfit)
        assert dfit.residual_norm == oracles.dispersion_residual_norm(entries, dfit)


class TestHomodyneReduction:
    META = dict(center_hz=1e8, rbw_hz=3e5, vbw_hz=3e2)

    def make_pair(self, sigma_tilde, c, n=20000, ref_dbm=-60.0, drift=0.0):
        t = np.arange(n) * 5e-5
        phi = 2.0 * math.pi * np.arange(n) / n
        v = locked_raw_variance(sigma_tilde, 1.0, c, phi)
        trace = ZeroSpanTrace(
            t=t, power_dbm=ref_dbm + 10.0 * np.log10(v) + drift * t, **self.META
        )
        ref = ZeroSpanTrace(t=t, power_dbm=np.full(n, ref_dbm) + drift * t, **self.META)
        return trace, ref

    def test_recovers_extrema(self):
        kappa, gamma, eta = 515e6, 192e6, 0.85
        st_ = 0.8
        c = 4.0 * eta * kappa / (kappa + gamma)
        trace, ref = self.make_pair(st_, c)
        v_s_db, v_as_db = reduce_homodyne_trace(trace, ref)
        want = locked_variances(st_, 1.0, kappa, gamma, eta=eta)
        assert v_s_db == pytest.approx(10 * math.log10(want.v_s), abs=0.05)
        assert v_as_db == pytest.approx(10 * math.log10(want.v_as), abs=0.05)

    def test_detrend_removes_linear_drift(self):
        trace, ref = self.make_pair(0.8, 2.4, drift=3.0)
        raw = reduce_homodyne_trace(trace, ref)
        detrended = reduce_homodyne_trace(trace, ref, detrend=True)
        clean, clean_ref = self.make_pair(0.8, 2.4, drift=0.0)
        want = reduce_homodyne_trace(clean, clean_ref)
        assert detrended[0] == pytest.approx(want[0], abs=1e-6)
        assert detrended[1] == pytest.approx(want[1], abs=1e-6)
        # without detrending the drift smears both percentiles
        assert abs(raw[1] - want[1]) > 0.1

    def test_percentile_bounds_raw_extrema(self):
        trace, ref = self.make_pair(0.5, 2.0)
        v_s_db, v_as_db = reduce_homodyne_trace(trace, ref)
        rel = trace.power_dbm + 60.0
        assert v_s_db >= float(np.min(rel)) - 1e-12
        assert v_as_db <= float(np.max(rel)) + 1e-12
        assert v_s_db < v_as_db

    def test_metadata_mismatch(self):
        trace, _ = self.make_pair(0.8, 2.4)
        other = ZeroSpanTrace(
            t=trace.t, power_dbm=trace.power_dbm,
            center_hz=1e8, rbw_hz=1e5, vbw_hz=3e2,
        )
        with pytest.raises(MetadataMismatch):
            reduce_homodyne_trace(trace, other)

    def test_percentile_validation(self):
        trace, ref = self.make_pair(0.8, 2.4)
        with pytest.raises(ValueError):
            reduce_homodyne_trace(trace, ref, low_percentile=60.0, high_percentile=40.0)
