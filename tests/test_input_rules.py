"""Each input rule lives in one function; these tests reach it through every
public entry point that relies on it."""

import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from kerrsqueeze import (
    EmptyTrace,
    InvalidEfficiency,
    ModelError,
    NonPositive,
    PumpConfig,
    ResonatorParams,
    TransmissionTrace,
    ZeroPower,
    ZeroSpanTrace,
    cli,
    drive_state,
    fit_shift_coefficient,
    fluctuation_flux,
    g_opt_from_threshold,
    infer_chip_variance,
    injection_locking_point,
    linear_from_db,
    locked_variances,
    optimal_phase,
    propagate_variance,
    steady_roots,
    sweep,
    threshold_power,
    transmission,
    variance_extrema,
    variance_spectrum,
)
from kerrsqueeze.core import locked_photon_number
from kerrsqueeze.spectrum import locked_raw_variance
from kerrsqueeze.steady_state import check_axis

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kerrsqueeze"
PARAMS = ResonatorParams(kappa=515e6, gamma=192e6, g_opt=1.4, lambda_r=1550e-9)
OMEGA_P = PARAMS.resonance_omega
TINY_KAPPA = ResonatorParams(kappa=1e-300, gamma=192e6, g_opt=1.4, lambda_r=1550e-9)


def _fit_shift(p_in, omega_p, kappa=PARAMS.kappa, gamma=PARAMS.gamma):
    freq = np.linspace(-6e9, 2e9, 8)
    traces = [TransmissionTrace(freq=freq, transmission=np.full(8, 0.5), p_in=p)
              for p in (1e-4, p_in)]
    return fit_shift_coefficient(traces, kappa, gamma, omega_p)


PUMP_ENTRY_POINTS = {
    "steady_roots": lambda p_in, omega_p: steady_roots(PARAMS, 0.0, p_in, omega_p),
    "sweep": lambda p_in, omega_p: sweep(
        PARAMS, PumpConfig(p_in=p_in, delta_p=[-1e9, 0.0, 1e9], omega_p=omega_p)),
    "injection_locking_point": lambda p_in, omega_p: injection_locking_point(
        PARAMS, p_in, omega_p),
    "fit_shift_coefficient": _fit_shift,
}


@pytest.mark.parametrize("entry", sorted(PUMP_ENTRY_POINTS))
@pytest.mark.parametrize("p_in,omega_p", [
    (-1.0, OMEGA_P), (math.nan, OMEGA_P), (math.inf, OMEGA_P), (1e-3, 0.0), (1e-3, math.inf),
], ids=["negative-power", "nan-power", "inf-power", "zero-omega_p", "inf-omega_p"])
def test_pump_rule_rejects_bad_power_and_frequency(entry, p_in, omega_p):
    # an infinite omega_p must not give a locked photon number of 0.0 (n = 0)
    with pytest.raises(NonPositive):
        PUMP_ENTRY_POINTS[entry](p_in, omega_p)


@pytest.mark.parametrize("make", [
    lambda omega_p: locked_photon_number(PARAMS, 1e-3, omega_p),
    lambda omega_p: threshold_power(PARAMS, omega_p),
    lambda omega_p: drive_state(PARAMS, 1e-3, omega_p),
    lambda omega_p: PumpConfig(p_in=1e-3, delta_p=[0.0], omega_p=omega_p),
], ids=["locked_photon_number", "threshold_power", "drive_state", "PumpConfig"])
@pytest.mark.parametrize("omega_p", [0.0, -1.0, math.inf, math.nan],
                         ids=["zero", "negative", "inf", "nan"])
def test_omega_p_rule_is_finite_and_positive(make, omega_p):
    # one rule for all three: NaN and inf pass a bare `omega_p <= 0` test
    with pytest.raises(NonPositive):
        make(omega_p)


DRIVE_ENTRY_POINTS = {
    "drive_state": lambda p_in, p_th: drive_state(PARAMS, p_in, OMEGA_P, p_th=p_th),
    "locked_variances": lambda p_in, p_th: locked_variances(
        p_in, p_th, PARAMS.kappa, PARAMS.gamma),
    "optimal_phase": optimal_phase,
}


@pytest.mark.parametrize("entry", sorted(DRIVE_ENTRY_POINTS))
@pytest.mark.parametrize("p_in,p_th", [
    (-1.0, 8e-3), (math.nan, 8e-3), (math.inf, 8e-3), (1e-3, 0.0), (1e-3, -1.0), (1e-3, math.nan),
], ids=["negative-power", "nan-power", "inf-power", "zero-p_th", "negative-p_th", "nan-p_th"])
def test_drive_rule_rejects_bad_power_and_threshold(entry, p_in, p_th):
    with pytest.raises(NonPositive):
        DRIVE_ENTRY_POINTS[entry](p_in, p_th)


def test_drive_rule_rejects_infinite_power_without_threshold():
    # the absent threshold is inf, and inf / inf is not a drive ratio
    no_gain = ResonatorParams(kappa=515e6, gamma=192e6, lambda_r=1550e-9)
    with pytest.raises(NonPositive):
        drive_state(no_gain, math.inf, OMEGA_P)


@pytest.mark.parametrize("p_in", [math.nan, math.inf, -1.0], ids=["nan", "inf", "negative"])
def test_pump_config_rejects_power_not_finite_and_non_negative(p_in):
    with pytest.raises(NonPositive):
        PumpConfig(p_in=p_in, delta_p=[0.0])


@pytest.mark.parametrize("fields", [
    {"delta_p": math.nan}, {"delta_p": [-1e9, math.nan, 1e9]},
    {"delta_p": np.array([0.0, math.nan])}, {"omega_p": math.nan},
], ids=["delta_p-scalar", "delta_p-list", "delta_p-array", "omega_p"])
def test_pump_config_rejects_nan_placement(fields):
    with pytest.raises(ModelError):
        PumpConfig(p_in=1e-3, **{"delta_p": [0.0], **fields})


AXIS_ENTRY_POINTS = {
    "PumpConfig": lambda axis: PumpConfig(p_in=1e-3, delta_p=axis),
    "TransmissionTrace": lambda axis: TransmissionTrace(
        freq=axis, transmission=np.full(np.shape(axis), 0.5)),
    "ZeroSpanTrace": lambda axis: ZeroSpanTrace(
        t=axis, power_dbm=np.full(np.shape(axis), -80.0), center_hz=1e8, rbw_hz=3e5,
        vbw_hz=3e2),
    # JSON has no NaN or infinity, so the config reader rejects those first
    "cli-grid": lambda axis: cli._grid({"delta_p_rad_s": axis}, "delta_p_rad_s", "grid"),
}


@pytest.mark.parametrize("entry", sorted(AXIS_ENTRY_POINTS))
@pytest.mark.parametrize("axis", [
    [0.0, math.nan, 2.0], [0.0, math.inf, 2.0], [-math.inf, 0.0, 1.0], [],
    [[0.0, 1.0], [2.0, 3.0]], [0.0, 2.0, 1.0], [0.0, 1.0, 1.0],
], ids=["nan", "inf", "minus-inf", "empty", "2-d", "non-monotone", "repeated"])
def test_axis_rule_rejects_bad_sample_axes(entry, axis):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the rule tests finiteness before taking steps
        with pytest.raises(ModelError):
            AXIS_ENTRY_POINTS[entry](axis)


def test_axis_rule_checks_in_order_and_keeps_both_directions():
    with pytest.raises(ModelError, match="must be 1-d"):
        check_axis(np.empty((0, 2)), "x")
    with pytest.raises(EmptyTrace):
        check_axis([], "x")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ModelError, match="x must be finite"):
            check_axis([math.inf, math.inf], "x")
    for axis in ([3.0], [1.0, 2.0], [2.0, 1.0]):
        got = check_axis(axis, "x")
        assert got.dtype == np.float64 and got.tolist() == axis
    # a scalar detuning is a one-point grid; a sample time axis runs forward only
    assert PumpConfig(p_in=1e-3, delta_p=-2e9).delta_p.tolist() == [-2e9]
    with pytest.raises(ModelError, match="time axis must be strictly monotone"):
        AXIS_ENTRY_POINTS["ZeroSpanTrace"]([2.0, 1.0])


@pytest.mark.parametrize("p_in,p_th", [(1e-3, math.inf), (0.0, 8e-3), (5e-324, 1e10)],
                         ids=["absent-threshold", "zero-power", "underflowed-ratio"])
def test_optimal_phase_rejects_zero_drive_ratio(p_in, p_th):
    # the phase is undefined without drive; atan(-inf) would give the limit -pi/4
    with pytest.raises(ZeroPower):
        optimal_phase(p_in, p_th)
    assert locked_variances(p_in, p_th, PARAMS.kappa, PARAMS.gamma).phi_opt == 0.0


RATE_ENTRY_POINTS = {
    "locked_variances": lambda kappa, gamma: locked_variances(1e-3, 8e-3, kappa, gamma),
    "g_opt_from_threshold": lambda kappa, gamma: g_opt_from_threshold(
        8e-3, kappa, gamma, 1550e-9),
    "fit_shift_coefficient": lambda kappa, gamma: _fit_shift(1e-3, OMEGA_P, kappa, gamma),
}


@pytest.mark.parametrize("entry", sorted(RATE_ENTRY_POINTS))
@pytest.mark.parametrize("kappa,gamma", [
    (0.0, 192e6), (math.nan, 192e6), (math.inf, 192e6), (515e6, -1.0), (515e6, math.nan),
], ids=["zero-kappa", "nan-kappa", "inf-kappa", "negative-gamma", "nan-gamma"])
def test_rate_rule_rejects_bad_loss_rates(entry, kappa, gamma):
    with pytest.raises(ModelError):
        RATE_ENTRY_POINTS[entry](kappa, gamma)


@pytest.mark.parametrize("make", [
    lambda: locked_variances(1e-3, 8e-3, 1e308, 1e308),
    lambda: drive_state(ResonatorParams(kappa=1e308, gamma=1e308, g_opt=1.0), 1e-3, 1.2e15,
                        p_th=8e-3),
], ids=["locked_variances", "drive_state"])
def test_rate_rule_rejects_overflowing_total_loss(make):
    # each rate is finite, but kappa + gamma is inf; this once gave NaN variances
    with pytest.raises(NonPositive, match="kappa \\+ gamma must be finite"):
        make()


OUT_OF_RANGE = {
    # no finite root: the detuning or the pull overflows the scaled cubic
    "steady_roots-delta_p": lambda: steady_roots(PARAMS, 1e300, 1e-3, OMEGA_P),
    "steady_roots-g_opt": lambda: steady_roots(
        ResonatorParams(kappa=515e6, gamma=192e6, g_opt=1e300), 0.0, 1e-3, OMEGA_P),
    "sweep-delta_p": lambda: sweep(
        PARAMS, PumpConfig(p_in=1e-3, delta_p=[-1e300, 0.0, 1e300], omega_p=OMEGA_P)),
    # g**3 on a Python float raises OverflowError
    "sweep-p_in": lambda: sweep(
        PARAMS, PumpConfig(p_in=1e200, delta_p=[-1e9, 0.0, 1e9], omega_p=OMEGA_P)),
    # (p_in / p_th)**2 overflows
    "drive_state": lambda: drive_state(PARAMS, 1e160, OMEGA_P),
    "locked_variances": lambda: locked_variances(1e300, 8e-3, PARAMS.kappa, PARAMS.gamma),
    # finite roots, but delta_cl * delta_cl overflows in the transmission
    "sweep-transmission": lambda: sweep(
        PARAMS, PumpConfig(p_in=1e-3, delta_p=[-1e155, 0.0, 1e155], omega_p=OMEGA_P)),
    "transmission": lambda: transmission(PARAMS, steady_roots(PARAMS, 1e155, 1e-3, OMEGA_P)[0]),
    # P_th underflows to 0 with a huge gain; Gamma**3 overflows with a huge loss
    "threshold_power-g_opt": lambda: threshold_power(
        ResonatorParams(kappa=515e6, gamma=192e6, g_opt=1e300), OMEGA_P),
    "threshold_power-kappa": lambda: threshold_power(
        ResonatorParams(kappa=1e300, gamma=192e6, g_opt=1.4), OMEGA_P),
    "g_opt_from_threshold-kappa": lambda: g_opt_from_threshold(8e-3, 1e300, 192e6, 1550e-9),
    # 10**(db / 10) raises OverflowError above about 3082 dB; NaN dB is no ratio
    "linear_from_db-overflow": lambda: linear_from_db(40060.0),
    "linear_from_db-nan": lambda: linear_from_db(math.nan),
    # the locking detuning -(g_opt + g_th) * n_lock overflows
    "injection_locking_point": lambda: injection_locking_point(
        ResonatorParams(kappa=515e6, gamma=192e6, g_th=1e300), 1.0, OMEGA_P),
    # |Q|**2 overflows a Python float at a locked point this strongly driven
    "variance_spectrum-p_in": lambda: variance_spectrum(
        PARAMS, injection_locking_point(PARAMS, 1e150, OMEGA_P)[1], 0.0, 0.0),
    "variance_extrema-p_in": lambda: variance_extrema(
        PARAMS, injection_locking_point(PARAMS, 1e150, OMEGA_P)[1], 2.5),
    # gamma / kappa overflows and inf * 0 makes the moments NaN, even undriven
    "variance_spectrum-kappa": lambda: variance_spectrum(
        TINY_KAPPA, injection_locking_point(TINY_KAPPA, 0.0, OMEGA_P)[1], 1e8, 0.3),
    "variance_extrema-kappa": lambda: variance_extrema(
        TINY_KAPPA, injection_locking_point(TINY_KAPPA, 7.59e-3, OMEGA_P)[1], -0.0),
}


@pytest.mark.parametrize("entry", sorted(OUT_OF_RANGE))
def test_out_of_range_inputs_raise_model_error(entry):
    with pytest.raises(ModelError):
        OUT_OF_RANGE[entry]()


def _locked_branch():
    return injection_locking_point(PARAMS, 1e-3, OMEGA_P)[1]


ETA_ENTRY_POINTS = {
    "drive_state": lambda eta: drive_state(PARAMS, 1e-3, OMEGA_P, eta=eta),
    "variance_spectrum": lambda eta: variance_spectrum(PARAMS, _locked_branch(), 1e8, 0.0, eta),
    "variance_extrema": lambda eta: variance_extrema(PARAMS, _locked_branch(), 1e8, eta),
    "locked_variances": lambda eta: locked_variances(1e-3, 8e-3, PARAMS.kappa, PARAMS.gamma, eta),
    "fluctuation_flux": lambda eta: fluctuation_flux(PARAMS, _locked_branch(), eta),
    "propagate_variance": lambda eta: propagate_variance(0.5, eta),
    "infer_chip_variance": lambda eta: infer_chip_variance(0.9, eta),
}


@pytest.mark.parametrize("entry", sorted(ETA_ENTRY_POINTS))
@pytest.mark.parametrize("eta", [1.5, math.nan])
def test_eta_rule_rejects_outside_unit_interval(entry, eta):
    with pytest.raises(InvalidEfficiency):
        ETA_ENTRY_POINTS[entry](eta)


@pytest.mark.parametrize("make", [
    lambda direction: PumpConfig(p_in=1e-3, delta_p=[0.0], direction=direction),
    lambda direction: TransmissionTrace(freq=np.arange(4.0), transmission=np.ones(4),
                                        direction=direction),
], ids=["PumpConfig", "TransmissionTrace"])
@pytest.mark.parametrize("direction", ["sideways", "", "Up"])
def test_direction_rule_takes_up_or_down(make, direction):
    with pytest.raises(ModelError, match=re.escape(f"got {direction!r}")):
        make(direction)


@pytest.mark.parametrize("p_in", [-1.0, math.nan, math.inf])
def test_transmission_trace_rejects_power_not_finite_and_non_negative(p_in):
    with pytest.raises(NonPositive):
        TransmissionTrace(freq=np.arange(4.0), transmission=np.ones(4), p_in=p_in)


@pytest.mark.parametrize("p_th", [0.0, -8e-3, math.nan])
def test_g_opt_from_threshold_rejects_threshold_not_positive(p_th):
    with pytest.raises(NonPositive, match=re.escape(f"p_th must be > 0, got {p_th}")):
        g_opt_from_threshold(p_th, 515e6, 192e6, 1550e-9)


@pytest.mark.parametrize("phi_lo,bad", [(math.nan, "nan"), ([0.0, math.inf], "inf"),
                                        ([-math.inf, math.nan], "-inf")])
def test_lo_phase_must_be_finite(phi_lo, bad):
    # the first phase that is not finite is named, in C order
    message = re.escape(f"LO phase must be finite, got {bad} rad")
    with pytest.raises(ModelError, match=message):
        variance_spectrum(PARAMS, _locked_branch(), 1e8, phi_lo)
    with pytest.raises(ModelError, match=message):
        locked_raw_variance(0.5, 1.2, 2.9, phi_lo)


def test_package_raises_no_plain_value_error():
    # every deliberate failure must subclass ModelError so the CLI reports it
    # as a one-line error instead of a traceback
    offenders = [
        f"{path.name}:{lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if re.search(r"raise ValueError\(", line)
    ]
    assert not offenders, offenders
