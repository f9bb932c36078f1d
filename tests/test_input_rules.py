"""Each input rule lives in one function; these tests reach it through every
public entry point that relies on it."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from kerrsqueeze import (
    InvalidEfficiency,
    ModelError,
    NonPositive,
    PumpConfig,
    ResonatorParams,
    TransmissionTrace,
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
    (-1.0, OMEGA_P), (math.nan, OMEGA_P), (math.inf, OMEGA_P), (1e-3, 0.0),
], ids=["negative-power", "nan-power", "inf-power", "zero-omega_p"])
def test_pump_rule_rejects_bad_power_and_frequency(entry, p_in, omega_p):
    with pytest.raises(NonPositive):
        PUMP_ENTRY_POINTS[entry](p_in, omega_p)


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
