"""Inverse problems: parameter fits and measurement trace reduction.

Covers the classical characterization workflow: fit the linear resonance
lineshape for (omega_r, kappa, gamma), fit the power-dependent resonance
shift for the summed per-photon gain, invert the threshold power for the
Kerr gain alone, fit mode dispersion coefficients, and reduce zero-span
homodyne traces to squeezing / anti-squeezing dB values.

Only the SUM g_opt + g_th is identifiable from classical transmission
traces (the classical detuning shift depends on nothing else), so the shift
fitter returns that sum and the Kerr part must come from the threshold
route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Sequence, Tuple, Union

import numpy as np

from .core import (HBAR, PumpConfig, ResonatorParams, check_axis, locked_photon_number,
                   omega_from_wavelength)
from .errors import (
    Degenerate,
    MetadataMismatch,
    ModelError,
    NoDip,
    NonPositive,
    PoorFit,
    RankDeficient,
)
from .steady_state import lineshape, sweep


@dataclass(frozen=True)
class TransmissionTrace:
    """Sampled transmission against pump frequency (absolute or detuning).

    ``freq`` may be the absolute pump frequency or the detuning from a
    nominal resonance, both in rad/s; fitted centers come back in the same
    coordinates. For shift fitting the axis must be the detuning from the
    cold resonance found by the linear fit.
    """

    freq: np.ndarray
    transmission: np.ndarray
    p_in: float = 0.0
    direction: str = "down"

    def __post_init__(self) -> None:
        freq = check_axis(self.freq, "frequency axis")
        trans = np.asarray(self.transmission, dtype=float)
        object.__setattr__(self, "freq", freq)
        object.__setattr__(self, "transmission", trans)
        if trans.shape != freq.shape or not np.isfinite(trans).all():
            raise ModelError("transmission must hold one finite sample per frequency")


@dataclass(frozen=True)
class ResonanceList:
    """Measured resonance frequencies per relative mode number."""

    entries: Tuple[Tuple[int, float], ...]

    def __post_init__(self) -> None:
        entries = tuple((int(m), float(w)) for m, w in self.entries)
        object.__setattr__(self, "entries", entries)
        mus = [m for m, _ in entries]
        if len(set(mus)) != len(mus):
            raise ModelError("mode numbers must be distinct")


@dataclass(frozen=True)
class ZeroSpanTrace:
    """Spectrum-analyzer noise power against time at a fixed frequency."""

    t: np.ndarray
    power_dbm: np.ndarray
    center_hz: float
    rbw_hz: float
    vbw_hz: float

    def __post_init__(self) -> None:
        t = check_axis(self.t, "time axis")
        p = np.asarray(self.power_dbm, dtype=float)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "power_dbm", p)
        if t[0] > t[-1]:  # time runs forward
            raise ModelError("time axis must be strictly monotone")
        if p.shape != t.shape or not np.isfinite(p).all():
            raise ModelError("power_dbm must hold one finite sample per time")


class ResonanceFit(NamedTuple):
    omega_r: float
    kappa: float
    gamma: float
    residual: float
    stderr: Tuple[float, float, float]  # of (omega_r, kappa, gamma)


class DispersionFit(NamedTuple):
    omega_0: float
    d1: float
    d2: float
    d_int: np.ndarray
    stderr: Tuple[float, float, float]  # of (omega_0, d1, d2)
    residual_norm: float  # 2-norm of the misfit [rad/s]


# out-of-range samples overflow the norms and the covariance: numpy stays
# quiet, and the solver and the checks below raise typed errors instead
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def fit_linear_resonance(
    trace: TransmissionTrace,
    coupling_regime: str,
    *,
    max_residual: float = 0.05,
) -> ResonanceFit:
    """Least-squares fit of the linear-cavity lineshape.

    The lineshape only determines |kappa - gamma| and kappa + gamma; the
    caller's ``coupling_regime`` ("over": kappa > gamma, "under": kappa <
    gamma) picks the physical assignment. ``residual`` is the 2-norm of the
    misfit relative to the 2-norm of the data; ``stderr`` comes from the
    local Jacobian of the lineshape at the fitted parameters.

    Raises NoDip when the trace never dips below 0.95 and PoorFit when the
    converged relative residual exceeds ``max_residual`` or the parameters
    come out unphysical.
    """
    from ._lm import least_squares_lm  # on use: only the two fits need the solver

    if coupling_regime not in ("over", "under"):
        raise ModelError(f"coupling_regime must be 'over' or 'under', got {coupling_regime!r}")
    if trace.freq.size < 4:
        raise RankDeficient("need at least 4 samples to fit 3 parameters")
    data = trace.transmission
    if float(np.min(data)) > 0.95:
        raise NoDip(f"no resonance dip: min transmission {np.min(data):.4f} > 0.95")

    i0 = int(np.argmin(data))
    center0 = float(trace.freq[i0])
    depth = 1.0 - float(data[i0])
    below = np.flatnonzero(data < float(data[i0]) + 0.5 * depth)
    width = abs(float(trace.freq[below[-1]] - trace.freq[below[0]]))
    grid_step = float(np.min(np.abs(np.diff(trace.freq))))
    loss0 = max(width, grid_step)  # FWHM of the dip equals kappa + gamma
    split0 = loss0 * math.sqrt(max(float(data[i0]), 0.0))
    kappa0 = (loss0 + split0) / 2.0
    gamma0 = (loss0 - split0) / 2.0

    def model(theta: np.ndarray) -> np.ndarray:
        return lineshape(trace.freq - theta[0], theta[1], theta[2])

    x = least_squares_lm(lambda th: model(th) - data, [center0, kappa0, gamma0],
                         [loss0, loss0, loss0])
    center, k_fit, g_fit = x
    # the model sees only |k - g| and |k + g|; canonicalize, then assign
    loss_fit = abs(k_fit + g_fit)
    split_fit = abs(k_fit - g_fit)
    if split_fit > loss_fit:
        raise PoorFit("fit converged to an unphysical (negative-rate) lineshape")
    hi = (loss_fit + split_fit) / 2.0
    lo = (loss_fit - split_fit) / 2.0
    kappa, gamma = (hi, lo) if coupling_regime == "over" else (lo, hi)

    rel = float(np.linalg.norm(model(x) - data) / np.linalg.norm(data))
    if not rel <= max_residual:  # NaN too, where the norms overflow
        raise PoorFit(f"relative residual {rel:.3g} exceeds {max_residual:.3g}")

    # standard errors from the local Jacobian at the reported parameters
    theta = np.array([float(center), float(kappa), float(gamma)])
    r0 = model(theta) - data
    m, n = data.size, 3
    jac = np.empty((m, n))
    for j in range(n):
        # a step below the rounding of the axis (a centre near 0 on a wide
        # detuning axis) leaves the column all zeros: retake it on the linewidth
        for h in (1e-6 * max(abs(theta[j]), 1e-30), 1e-6 * (kappa + gamma)):
            tp = theta.copy()
            tp[j] += h
            jac[:, j] = (model(tp) - model(theta)) / h
            if jac[:, j].any():
                break
    s2 = float(r0 @ r0) / (m - n)
    cov = s2 * _inverse(jac.T @ jac)
    se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    return ResonanceFit(float(center), float(kappa), float(gamma), rel,
                        (float(se[0]), float(se[1]), float(se[2])))


def _inverse(normal: np.ndarray) -> np.ndarray:
    """Inverse of a normal matrix J^T J; a singular one is RankDeficient."""
    try:
        return np.linalg.inv(normal)
    except np.linalg.LinAlgError as e:
        raise RankDeficient(f"standard errors undefined: {e}") from e


def fit_shift_coefficient(
    traces: Sequence[TransmissionTrace],
    kappa: float,
    gamma: float,
    omega_p: float,
) -> float:
    """Summed per-photon shift g_opt + g_th from multi-power transmission.

    All traces are fit simultaneously by the branch-continued sweep model
    with kappa and gamma held fixed; the trace frequency axes must be
    detunings from the cold resonance. Raises Degenerate when the pump
    powers are too low for the model to show any measurable shift.
    """
    from ._lm import least_squares_lm

    if len(traces) < 2:
        raise ModelError("need traces at two or more pump powers")
    cold = ResonatorParams(kappa=kappa, gamma=gamma)
    loss = kappa + gamma
    n_locks = [locked_photon_number(cold, tr.p_in, omega_p) for tr in traces]
    n_max = max(n_locks)
    if n_max == 0.0:
        raise Degenerate("all traces at zero pump power")
    # per-photon shift that would move the resonance by half a linewidth
    g_probe = (loss / 2.0) / n_max

    def model(g_sum: float) -> np.ndarray:
        params = ResonatorParams(kappa=kappa, gamma=gamma, g_opt=g_sum, g_th=0.0)
        parts = []
        for tr in traces:
            pump = PumpConfig(
                p_in=tr.p_in, delta_p=tr.freq, omega_p=omega_p, direction=tr.direction
            )
            parts.append(sweep(params, pump).transmission)
        return np.concatenate(parts)

    # initial guess from the observed dip offset of the strongest trace
    strongest = int(np.argmax([tr.p_in for tr in traces]))
    dip = float(traces[strongest].freq[int(np.argmin(traces[strongest].transmission))])
    g0 = -dip / n_locks[strongest]
    if not math.isfinite(g0) or g0 <= g_probe * 1e-9:
        g0 = g_probe * 1e-3

    data = np.concatenate([tr.transmission for tr in traces])
    # g >= 0: the residual sees max(g, 0), and the result is clamped the same way
    x = least_squares_lm(lambda th: model(max(float(th[0]), 0.0)) - data, [g0],
                         [max(g0, g_probe * 1e-3)])
    g_sum = max(float(x[0]), 0.0)
    # identifiability: the fitted shift must explain the data measurably
    # better than no shift at all, otherwise the powers were too low and
    # any g_sum in a flat cost valley would do
    r_hat = model(g_sum) - data
    r_null = model(0.0) - data
    improvement = float(np.dot(r_null, r_null) - np.dot(r_hat, r_hat))
    if improvement < 1e-10 * max(float(np.dot(data, data)), 1e-300):
        raise Degenerate(
            "pump powers too low: fit indistinguishable from the zero-shift model"
        )
    return g_sum


def g_opt_from_threshold(p_th: float, kappa: float, gamma: float, lambda_p: float) -> float:
    """Kerr gain per photon from an observed threshold power."""
    if not p_th > 0:
        raise NonPositive(f"p_th must be > 0, got {p_th}")
    ResonatorParams(kappa=kappa, gamma=gamma)  # the loss-rate rules
    omega_p = omega_from_wavelength(lambda_p)
    try:
        g_opt = (kappa + gamma) ** 3 * HBAR * omega_p / (8.0 * kappa * p_th)
    except (OverflowError, ZeroDivisionError):  # Python floats raise out of range
        g_opt = math.inf
    if not 0.0 < g_opt < math.inf:
        raise NonPositive(f"Kerr gain out of float range: {g_opt!r} rad/s")
    return g_opt


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def fit_dispersion(
    resonances: Union[ResonanceList, Sequence[Tuple[int, float]]],
) -> DispersionFit:
    """Ordinary least squares of resonance frequencies against mode number.

    Fits omega_mu = omega_0 + d1 * mu + d2 * mu^2 / 2 and reports the
    per-mode integrated dispersion d_int = omega_mu - omega_0 - d1 * mu,
    the standard errors of (omega_0, d1, d2) from the OLS covariance (zero
    for three modes) and the 2-norm of the misfit. The design matrix is
    centered and scaled, so exact quadratic data is recovered at rounding
    level.
    """
    if not isinstance(resonances, ResonanceList):
        resonances = ResonanceList(tuple(resonances))
    entries = resonances.entries
    if len(entries) < 3:
        raise RankDeficient(f"need >= 3 distinct mode numbers, got {len(entries)}")
    mus = np.array([m for m, _ in entries], dtype=float)
    omegas = np.array([w for _, w in entries], dtype=float)

    # centered and scaled quadratic design matrix for conditioning
    k = float(np.mean(mus))
    s = float(np.max(np.abs(mus - k))) or 1.0
    t = (mus - k) / s
    design = np.column_stack([np.ones_like(t), t, t * t])
    w_mean = float(np.mean(omegas))
    coef, *_ = np.linalg.lstsq(design, omegas - w_mean, rcond=None)
    a, b, c = (float(v) for v in coef)
    d2 = 2.0 * c / (s * s)
    d1 = b / s - 2.0 * c * k / (s * s)
    omega_0 = w_mean + a - b * k / s + c * k * k / (s * s)
    d_int = omegas - (omega_0 + d1 * mus)

    resid = omegas - (omega_0 + d1 * mus + 0.5 * d2 * mus * mus)
    residual_norm = float(np.linalg.norm(resid))
    if not (np.isfinite([omega_0, d1, d2, residual_norm]).all() and np.isfinite(d_int).all()):
        raise PoorFit("dispersion fit out of float range: a coefficient or the residual "
                      "is not finite")
    dof = len(entries) - 3
    if dof == 0:
        return DispersionFit(omega_0, d1, d2, d_int, (0.0, 0.0, 0.0), residual_norm)
    s2 = float(resid @ resid) / dof
    cov_scaled = s2 * _inverse(design.T @ design)
    # map scaled-basis coefficients (a, b, c) to (omega_0, d1, d2)
    lmap = np.array(
        [
            [1.0, -k / s, k * k / (s * s)],
            [0.0, 1.0 / s, -2.0 * k / (s * s)],
            [0.0, 0.0, 2.0 / (s * s)],
        ]
    )
    cov = lmap @ cov_scaled @ lmap.T
    se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    if not np.isfinite(se).all():
        raise PoorFit("dispersion fit error bars out of float range")
    return DispersionFit(omega_0, d1, d2, d_int, (float(se[0]), float(se[1]), float(se[2])),
                         residual_norm)


def dispersion_regime(d2: float) -> str:
    """Classify the quadratic coefficient: anomalous (> 0) or normal (< 0)."""
    if d2 > 0:
        return "anomalous"
    if d2 < 0:
        return "normal"
    return "flat"


def reduce_homodyne_trace(
    trace: ZeroSpanTrace,
    reference: ZeroSpanTrace,
    *,
    low_percentile: float = 1.0,
    high_percentile: float = 99.0,
    detrend: bool = False,
) -> Tuple[float, float]:
    """Squeezing and anti-squeezing dB relative to the reference noise level.

    Robust percentiles (1st / 99th by default) of the trace stand in for its
    extrema, because raw min/max are contaminated by phase noise. The
    reference enters as its mean level, or, with ``detrend``, as a linear
    drift fit evaluated on the trace's own time axis.
    """
    meta_a = (trace.center_hz, trace.rbw_hz, trace.vbw_hz)
    meta_b = (reference.center_hz, reference.rbw_hz, reference.vbw_hz)
    if meta_a != meta_b:
        raise MetadataMismatch(
            f"trace metadata {meta_a} does not match reference metadata {meta_b}"
        )
    if not 0.0 <= low_percentile < high_percentile <= 100.0:
        raise ModelError("percentiles must satisfy 0 <= low < high <= 100")

    if detrend and reference.t.size > 1:
        slope, intercept = np.polyfit(reference.t, reference.power_dbm, 1)
        level = intercept + slope * trace.t
    else:
        level = float(np.mean(reference.power_dbm))
    rel = trace.power_dbm - level
    v_s_db = float(np.percentile(rel, low_percentile))
    v_as_db = float(np.percentile(rel, high_percentile))
    return v_s_db, v_as_db
