"""Acceptance gate: twelve numbered criteria, one test each.

Run with ``pytest -v tests/test_acceptance.py`` to get one PASSED/FAILED
line per criterion. Stated tolerances and runtime budgets appear inline;
where a criterion carries a runtime bound the measured wall time is
asserted, not just observed.
"""

import math
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from kerrsqueeze import (
    LinearizationWarning,
    LossBudget,
    ResonatorParams,
    TransmissionTrace,
    ZeroSpanTrace,
    db_from_linear,
    efficiency_from_budget,
    fit_dispersion,
    fit_linear_resonance,
    fit_shift_coefficient,
    g_opt_from_threshold,
    injection_locking_point,
    locked_raw_variance,
    locked_variances,
    omega_from_wavelength,
    quality_factor,
    reduce_homodyne_trace,
    steady_roots,
    sweep,
    threshold_power,
    total_loss,
    variance_extrema,
    variance_spectrum,
    PumpConfig,
    HBAR,
)

from oracles import (
    locked_closed_forms,
    phase_extrema_scan,
    scaled_discriminant,
    scaled_roots_brute,
    shifted_trace,
    synth_lineshape,
)

OM = omega_from_wavelength(1550e-9)
DEVICE = ResonatorParams(kappa=515e6, gamma=192e6, g_opt=1.4, lambda_r=1550e-9)


def test_criterion_01_threshold_power_and_inverse():
    """P_th in [7.7, 8.0] mW; inverse gain in [1.35, 1.45]; under 1 ms."""
    p_th = threshold_power(DEVICE, OM)
    assert 7.7e-3 <= p_th <= 8.0e-3
    g = g_opt_from_threshold(7.89e-3, 515e6, 192e6, 1550e-9)
    assert 1.35 <= g <= 1.45
    best = math.inf
    for _ in range(200):
        t0 = time.perf_counter()
        threshold_power(DEVICE, OM)
        g_opt_from_threshold(7.89e-3, 515e6, 192e6, 1550e-9)
        best = min(best, time.perf_counter() - t0)
    assert best < 1e-3


def test_criterion_02_quality_factor():
    """Loaded Q of the overcoupled device lands in [1.65e6, 1.75e6]."""
    q = quality_factor(DEVICE)
    assert 1.65e6 <= q <= 1.75e6


def test_criterion_03_asymptotic_squeezing_floor():
    """Deep drive at full efficiency approaches 1 - kappa/loss: -10.41 dB."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinearizationWarning)
        res = locked_variances(1e4, 1.0, 500e6, 50e6, eta=1.0)
    assert db_from_linear(res.v_s) == pytest.approx(-10.41, abs=0.05)


def test_criterion_04_measured_operating_point_bands():
    """Locked extrema at 7.59 mW drive with a 7.89 mW threshold."""
    meas = locked_variances(7.59e-3, 7.89e-3, 515e6, 192e6, eta=0.291)
    assert -1.5 <= db_from_linear(meas.v_s) <= -0.7
    assert 6.0 <= db_from_linear(meas.v_as) <= 7.1
    chip = locked_variances(7.59e-3, 7.89e-3, 515e6, 192e6, eta=1.0)
    assert -5.3 <= db_from_linear(chip.v_s) <= -4.4


def test_criterion_05_matrix_path_equals_closed_forms():
    """Phase extrema of the full spectrum match the closed forms to 1e-9."""
    p_th = threshold_power(DEVICE, OM)
    fracs = np.logspace(math.log10(0.01), math.log10(10.0), 50)
    branches = [injection_locking_point(DEVICE, f * p_th, OM)[1] for f in fracs]

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinearizationWarning)
        t0 = time.perf_counter()
        got = [variance_extrema(DEVICE, b, 0.0) for b in branches]
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0

        for frac, (v_min, v_max, _) in zip(fracs, got):
            ref_s, ref_as = locked_closed_forms(float(frac), 515e6, 192e6, 1.0)
            assert abs(v_min - ref_s) <= 1e-9 * abs(ref_s)
            assert abs(v_max - ref_as) <= 1e-9 * abs(ref_as)

        # independent check that the extrema really are the phase extrema
        for i in (0, 12, 25, 37, 49):
            b = branches[i]
            ref_min, ref_max = phase_extrema_scan(
                lambda phi: variance_spectrum(DEVICE, b, 0.0, phi)
            )
            assert got[i][0] == pytest.approx(ref_min, rel=1e-9)
            assert got[i][1] == pytest.approx(ref_max, rel=1e-9)


def test_criterion_06_minimum_uncertainty_product():
    """Without intrinsic loss the locked state saturates V_s * V_as = 1."""
    ideal = ResonatorParams(kappa=5e8, gamma=0.0, g_opt=1.5, lambda_r=1550e-9)
    p_th = threshold_power(ideal, OM)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinearizationWarning)
        for frac in np.logspace(math.log10(0.01), math.log10(10.0), 50):
            res = locked_variances(frac * p_th, p_th, ideal.kappa, 0.0, eta=1.0)
            assert abs(res.v_s * res.v_as - 1.0) <= 1e-9
            _, b = injection_locking_point(ideal, frac * p_th, OM)
            v_min, v_max, _ = variance_extrema(ideal, b, 0.0)
            assert abs(v_min * v_max - 1.0) <= 1e-9


def test_criterion_07_vacuum_invariance_without_gain():
    """No parametric gain: unit variance everywhere, to 1e-12."""
    p = ResonatorParams(kappa=5e8, gamma=5e7, g_opt=0.0, g_th=100.0,
                        lambda_r=1550e-9)
    detunings = np.linspace(-2e9, 2e9, 20)
    freqs = np.linspace(-2e9, 2e9, 20)
    phases = np.linspace(-math.pi / 2, math.pi / 2, 20, endpoint=False)
    for dp in detunings:
        b = steady_roots(p, float(dp), 2e-3)[0]
        for w in freqs:
            for phi in phases:
                v = variance_spectrum(p, b, float(w), float(phi))
                assert abs(v - 1.0) <= 1e-12


def test_criterion_08_bistability_oracle_and_hysteresis():
    """Roots match a companion-matrix solver; hysteresis iff 3-root window."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260814)

    for _ in range(1000):
        kappa = 10.0 ** rng.uniform(7.0, 9.0)
        gamma = 10.0 ** rng.uniform(5.0, 8.0)
        p_in = 10.0 ** rng.uniform(-6.0, -2.0)
        g_scaled = 10.0 ** rng.uniform(-4.0, math.log10(50.0))
        delta = rng.uniform(-25.0, 5.0)
        th_frac = rng.uniform(0.0, 1.0)
        loss = kappa + gamma
        n_lock = 4.0 * kappa * (p_in / (HBAR * OM)) / loss**2
        g_sum = g_scaled * loss / n_lock
        params = ResonatorParams(
            kappa=kappa, gamma=gamma,
            g_opt=(1.0 - th_frac) * g_sum, g_th=th_frac * g_sum,
            lambda_r=1550e-9,
        )
        mine = [b.n / n_lock for b in steady_roots(params, delta * loss, p_in)]
        ref = scaled_roots_brute(g_scaled, delta)
        assert len(mine) == len(ref), (g_scaled, delta)
        for u, v in zip(mine, ref):
            assert abs(u - v) <= 1e-9 * abs(v), (g_scaled, delta, u, v)

    # hysteresis exactly where the discriminant is positive on the grid
    seen_window = 0
    for _ in range(150):
        kappa, gamma, p_in = 500e6, 50e6, 4e-3
        g_scaled = 10.0 ** rng.uniform(-2.0, 1.5)
        loss = kappa + gamma
        n_lock = 4.0 * kappa * (p_in / (HBAR * OM)) / loss**2
        g_sum = g_scaled * loss / n_lock
        params = ResonatorParams(kappa=kappa, gamma=gamma, g_opt=g_sum,
                                 lambda_r=1550e-9)
        lo = min(-2.0, -1.5 * g_scaled) * loss
        grid = np.linspace(lo, 0.5 * loss, 601)
        down = sweep(params, PumpConfig(p_in=p_in, delta_p=grid, direction="down"))
        up = sweep(params, PumpConfig(p_in=p_in, delta_p=grid, direction="up"))
        differs = bool(
            np.any(np.abs(down.n - up.n) > 1e-6 * np.maximum(down.n, 1.0))
        )
        window = bool(np.any(scaled_discriminant(g_scaled, grid / loss) > 0))
        assert differs == window, g_scaled
        seen_window += window
    # the draw range must actually exercise both regimes
    assert 0 < seen_window < 150

    assert time.perf_counter() - t0 < 10.0


def test_criterion_09_fit_round_trips():
    """1% noise: kappa/gamma within 1%, shift within 5% (medians); exact
    dispersion recovery."""
    err_k, err_g = [], []
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        freq, t = synth_lineshape(rng, -2.35e8, 515e6, 192e6, 1e10, 201, 0.01)
        fit = fit_linear_resonance(
            TransmissionTrace(freq=freq, transmission=t), "over", max_residual=0.2
        )
        err_k.append(abs(fit.kappa - 515e6) / 515e6)
        err_g.append(abs(fit.gamma - 192e6) / 192e6)
    assert float(np.median(err_k)) < 0.01
    assert float(np.median(err_g)) < 0.01

    # powers chosen to drag the line by 0.1..0.5 linewidths while staying
    # below the bistability onset, so the shift dominates 1% noise
    err_s = []
    powers = (1e-3, 2e-3, 4e-3)
    base = {
        p: shifted_trace(1.6, 500e6, 50e6, p, OM, np.linspace(-6e9, 2e9, 120))
        for p in powers
    }
    for seed in range(100):
        rng = np.random.default_rng(3000 + seed)
        traces = [
            TransmissionTrace(
                freq=np.linspace(-6e9, 2e9, 120),
                transmission=base[p] * (1.0 + 0.01 * rng.standard_normal(120)),
                p_in=p,
            )
            for p in powers
        ]
        got = fit_shift_coefficient(traces, 500e6, 50e6, OM)
        err_s.append(abs(got - 1.6) / 1.6)
    assert float(np.median(err_s)) < 0.05

    from kerrsqueeze import ResonanceList

    om0, d1, d2 = OM, 0.68e12, 7.76e6
    entries = ResonanceList(
        tuple((mu, om0 + d1 * mu + 0.5 * d2 * mu * mu) for mu in range(-40, 41, 4))
    )
    fit = fit_dispersion(entries)
    assert abs(fit.omega_0 - om0) <= 1e-10 * om0
    assert abs(fit.d1 - d1) <= 1e-10 * d1
    assert abs(fit.d2 - d2) <= 1e-10 * d2


def test_criterion_10_zero_span_pipeline():
    """Synthesized phase sweep reduces back to the locked extrema, 0.05 dB."""
    kappa, gamma, eta, st_ = 515e6, 192e6, 0.85, 0.8
    c = 4.0 * eta * kappa / (kappa + gamma)
    n = 20000
    t = np.arange(n) * 5e-5
    phi = 2.0 * math.pi * np.arange(n) / n
    v = np.array([locked_raw_variance(st_, 1.0, c, float(p)) for p in phi])
    meta = dict(center_hz=1e8, rbw_hz=3e5, vbw_hz=3e2)
    trace = ZeroSpanTrace(t=t, power_dbm=-60.0 + 10.0 * np.log10(v), **meta)
    ref = ZeroSpanTrace(t=t, power_dbm=np.full(n, -60.0), **meta)
    v_s_db, v_as_db = reduce_homodyne_trace(trace, ref)
    want = locked_variances(st_, 1.0, kappa, gamma, eta=eta)
    assert v_s_db == pytest.approx(db_from_linear(want.v_s), abs=0.05)
    assert v_as_db == pytest.approx(db_from_linear(want.v_as), abs=0.05)


def test_criterion_11_loss_law_and_budget():
    """Variance interpolates linearly to vacuum with efficiency; the
    shipped loss table gives eta = 0.2913."""
    p_th = threshold_power(DEVICE, OM)
    rng = np.random.default_rng(99)
    for _ in range(100):
        frac = 10.0 ** rng.uniform(-2.0, 0.5)
        _, b = injection_locking_point(DEVICE, frac * p_th, OM)
        w = float(rng.uniform(-2e9, 2e9))
        phi = float(rng.uniform(-math.pi / 2, math.pi / 2))
        eta = float(rng.uniform(0.0, 1.0))
        full = variance_spectrum(DEVICE, b, w, phi, 1.0)
        lossy = variance_spectrum(DEVICE, b, w, phi, eta)
        assert abs(lossy - ((1.0 - eta) + eta * full)) <= 1e-12 * max(1.0, full)

    table = LossBudget((
        ("fiber_chip_coupling", -3.9),
        ("optical_path", -0.457),
        ("photodiode_quantum_efficiency", -1.0),
    ))
    assert efficiency_from_budget(table) == pytest.approx(0.2913, abs=1e-4)


CLI_RUNS = [
    ("sweep", "config_sweep.json"),
    ("spectrum", "config_spectrum_locking.json"),
    ("spectrum", "config_spectrum_optimized.json"),
    ("spectrum", "config_spectrum_detuning.json"),
    ("locking", "config_locking.json"),
    ("threshold", "config_threshold.json"),
    ("report", "config_report.json"),
    ("fit-transmission", "config_fit_transmission.json"),
    ("fit-dispersion", "config_fit_dispersion.json"),
    ("reduce-trace", "config_reduce_trace.json"),
    ("losses", "config_losses.json"),
]


def test_criterion_12_cli_determinism(sample_dir, tmp_path):
    """Every subcommand, run twice in fresh processes, emits identical bytes."""
    for i, (cmd, config) in enumerate(CLI_RUNS):
        outs = []
        for run_idx in (0, 1):
            out = tmp_path / f"{i}_{run_idx}.txt"
            proc = subprocess.run(
                [sys.executable, "-m", "kerrsqueeze", cmd,
                 "--config", str(sample_dir / config), "--out", str(out)],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, (cmd, config, proc.stderr)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1], (cmd, config)
        assert len(outs[0]) > 0
