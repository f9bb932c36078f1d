"""Scalar physics of a single Kerr microring mode.

Holds the parameter records shared by every other module and the closed-form
scalar quantities derived from them: total loss rate, loaded quality factor,
parametric threshold power, the dimensionless drive numbers, the locked-point
variances, and dB helpers.

Unit convention
---------------
All rates, detunings and gains are angular frequencies in rad/s, stored as
plain floats. Published linewidth-style values quoted in "MHz" or "Hz" enter
numerically as x1e6 / x1 rad/s; this is the only convention under which the
loaded quality factor and the threshold power cross-checks agree, so the
package refuses to guess anything else. Powers are watts, wavelengths metres.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

from .errors import InvalidEfficiency, LinearizationWarning, ModelError, NonPositive, ZeroPower

# CODATA values; fixed rather than imported so results are bit-stable.
HBAR = 1.054571817e-34   # reduced Planck constant [J s]
C_VACUUM = 2.99792458e8  # speed of light in vacuum [m/s]


def omega_from_wavelength(lambda_m: float) -> float:
    """Angular frequency [rad/s] of a vacuum wavelength [m]."""
    if lambda_m <= 0:
        raise NonPositive(f"wavelength must be positive, got {lambda_m}")
    return 2.0 * math.pi * C_VACUUM / lambda_m


@dataclass(frozen=True)
class ResonatorParams:
    """One ring mode: loss rates, per-photon gains, and its cold resonance.

    Parameters
    ----------
    kappa : float
        Waveguide coupling rate [rad/s], > 0.
    gamma : float
        Intrinsic loss rate [rad/s], >= 0.
    g_opt : float
        Kerr gain per intracavity photon [rad/s], >= 0.
    g_th : float
        Thermal shift per intracavity photon [rad/s], >= 0.
    lambda_r : float, optional
        Cold resonance wavelength [m], > 0.
    omega_r : float, optional
        Cold resonance angular frequency [rad/s], > 0. If both this and
        ``lambda_r`` are given they must agree to 1e-12 relative.
    radius : float, optional
        Ring radius [m], > 0; only used for circulating-power reporting.
    n_eff : float, optional
        Effective mode index, > 0; only used for circulating-power reporting.
    """

    kappa: float
    gamma: float
    g_opt: float = 0.0
    g_th: float = 0.0
    lambda_r: Optional[float] = None
    omega_r: Optional[float] = None
    radius: Optional[float] = None
    n_eff: Optional[float] = None

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if value is not None and not math.isfinite(value):
                raise NonPositive(f"{name} must be finite, got {value}")
        if self.kappa <= 0:
            raise NonPositive(f"kappa must be > 0, got {self.kappa}")
        if self.gamma < 0:
            raise NonPositive(f"gamma must be >= 0, got {self.gamma}")
        # one home for the total loss rate: every Gamma-based formula needs it finite
        if not math.isfinite(self.kappa + self.gamma):
            raise NonPositive(f"kappa + gamma must be finite, got {self.kappa} + {self.gamma}")
        if self.g_opt < 0:
            raise NonPositive(f"g_opt must be >= 0, got {self.g_opt}")
        if self.g_th < 0:
            raise NonPositive(f"g_th must be >= 0, got {self.g_th}")
        for name in ("lambda_r", "omega_r", "radius", "n_eff"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise NonPositive(f"{name} must be > 0, got {value}")
        if self.lambda_r is not None and self.omega_r is not None:
            expected = omega_from_wavelength(self.lambda_r)
            if abs(self.omega_r - expected) > 1e-12 * expected:
                raise ModelError(
                    "lambda_r and omega_r disagree: "
                    f"2*pi*c/lambda_r = {expected!r}, omega_r = {self.omega_r!r}"
                )

    @property
    def resonance_omega(self) -> float:
        """Cold resonance angular frequency [rad/s]."""
        if self.omega_r is not None:
            return self.omega_r
        if self.lambda_r is not None:
            return omega_from_wavelength(self.lambda_r)
        raise ModelError("resonance unspecified: set lambda_r or omega_r")


@dataclass(frozen=True)
class DriveState:
    """Dimensionless drive numbers at the injection-locked operating point."""

    sigma_tilde: float   # P_in / P_th
    x: float             # distance to the critical point, always < 1
    n_fluct_out: float   # detected fluctuation photon flux factor
    r: float             # squeezing parameter, asinh(n_fluct_out)


@dataclass(frozen=True)
class SqueezingResult:
    """Locked-point closed-form variances, both normalized to vacuum."""

    v_s: float       # squeezed quadrature ratio, <= 1
    v_as: float      # anti-squeezed quadrature ratio, >= 1
    phi_opt: float   # LO phase of the variance minimum [rad], in [-pi/4, 0]


def total_loss(params: ResonatorParams) -> float:
    """Total loss rate kappa + gamma [rad/s]."""
    return params.kappa + params.gamma


def quality_factor(params: ResonatorParams) -> float:
    """Loaded quality factor: resonance frequency over total loss rate."""
    return params.resonance_omega / total_loss(params)


def check_eta(eta: float) -> None:
    """Raise InvalidEfficiency unless 0 <= eta <= 1."""
    if not 0.0 <= eta <= 1.0:
        raise InvalidEfficiency(f"eta must be in [0, 1], got {eta}")


def check_power(p_in: float) -> None:
    """Raise NonPositive unless the pump power p_in is finite and >= 0."""
    if not 0.0 <= p_in < math.inf:
        raise NonPositive(f"p_in must be finite and >= 0, got {p_in}")


def check_direction(direction: str) -> None:
    """Raise ModelError unless the sweep direction is 'up' or 'down'."""
    if direction not in ("up", "down"):
        raise ModelError(f"direction must be 'up' or 'down', got {direction!r}")


def check_omega_p(omega_p: float) -> None:
    """Raise NonPositive unless the pump frequency omega_p is finite and > 0."""
    if not omega_p > 0:  # NaN fails here too
        raise NonPositive(f"omega_p must be > 0, got {omega_p}")
    if omega_p == math.inf:
        raise NonPositive(f"omega_p must be finite, got {omega_p}")


def locked_photon_number(params: ResonatorParams, p_in: float, omega_p: float) -> float:
    """Locked-point photon number 4 kappa P_in / (hbar omega_p) / Gamma^2, the largest root."""
    check_power(p_in)
    check_omega_p(omega_p)
    try:
        n_lock = 4.0 * params.kappa * p_in / (HBAR * omega_p) / total_loss(params) ** 2
    except (OverflowError, ZeroDivisionError):  # Python floats raise out of range
        n_lock = math.inf
    if not math.isfinite(n_lock):
        loss = total_loss(params)
        if not math.isfinite(loss * loss):
            raise NonPositive("locked photon number is not finite: (kappa + gamma)**2 "
                              f"overflows at kappa + gamma = {loss!r} rad/s")
        raise NonPositive(f"locked photon number is not finite at p_in = {p_in}")
    return n_lock


def drive_ratio(p_in: float, p_th: float) -> float:
    """Drive ratio sigma_tilde = P_in / P_th; an absent threshold (inf) gives 0.0.

    Rejects NaN for either power, and a ratio whose square is not finite.
    """
    if not p_in >= 0:
        raise NonPositive(f"p_in must be >= 0, got {p_in}")
    if not p_th > 0:
        raise NonPositive(f"p_th must be > 0, got {p_th}")
    sigma_tilde = p_in / p_th
    if not math.isfinite(sigma_tilde * sigma_tilde):
        raise NonPositive(f"p_in / p_th = {sigma_tilde!r}: its square is not finite")
    return sigma_tilde


def threshold_power(params: ResonatorParams, omega_p: float) -> float:
    """Pump power [W] at which classical four-wave mixing reaches threshold.

    With ``g_opt == 0`` the threshold does not exist and this returns
    ``math.inf``, so linear-resonator workflows stay usable.
    """
    check_omega_p(omega_p)
    if params.g_opt == 0:
        return math.inf
    loss = total_loss(params)
    try:
        p_th = loss**3 * HBAR * omega_p / (8.0 * params.g_opt * params.kappa)
    except (OverflowError, ZeroDivisionError):
        p_th = math.inf
    if not 0.0 < p_th < math.inf:
        raise NonPositive(f"threshold power out of float range: {p_th!r} W")
    return p_th


def drive_state(
    params: ResonatorParams,
    p_in: float,
    omega_p: float,
    eta: float = 1.0,
    p_th: Optional[float] = None,
) -> DriveState:
    """Dimensionless drive numbers for a pump locked to the shifted resonance.

    ``n_fluct_out`` uses the locked first-power flux form
    ``(4 eta kappa / Gamma) * (P_in / P_th)``; the general quadratic-in-drive
    flux lives in :func:`kerrsqueeze.spectrum.fluctuation_flux`. Passing
    ``p_th`` substitutes a measured threshold for the modelled one.
    """
    check_eta(eta)
    if p_th is None:
        p_th = threshold_power(params, omega_p)
    sigma_tilde = drive_ratio(p_in, p_th)
    x = sigma_tilde / math.sqrt(1.0 + sigma_tilde * sigma_tilde)
    n_fluct = 4.0 * eta * params.kappa / total_loss(params) * sigma_tilde
    return DriveState(
        sigma_tilde=sigma_tilde,
        x=x,
        n_fluct_out=n_fluct,
        r=math.asinh(n_fluct),
    )


# warn once the distance to the critical point exceeds this; the linearized
# model is known to fail just above it
_X_GUARD = 0.99


def _warn_if_near_critical(x: float, stacklevel: int) -> None:
    if x > _X_GUARD:
        warnings.warn(
            f"distance to critical point x = {x:.4f} > {_X_GUARD}: "
            "linearized fluctuation model is unreliable here",
            LinearizationWarning,
            stacklevel=stacklevel,
        )


def locked_variances(
    p_in: float,
    p_th: float,
    kappa: float,
    gamma: float,
    eta: float = 1.0,
) -> SqueezingResult:
    """Closed-form extremal variances at the injection-locked point, w = 0.

    The squeezed ratio tends to 1 - eta*kappa/Gamma from above as the pump
    power grows; the anti-squeezed ratio diverges. The squeezing term is
    evaluated in a cancellation-free form so the large-drive limit is exact.
    """
    check_eta(eta)
    ResonatorParams(kappa=kappa, gamma=gamma)  # the loss-rate rules
    st = drive_ratio(p_in, p_th)
    _warn_if_near_critical(st / math.sqrt(1.0 + st * st), stacklevel=3)
    loss = kappa + gamma
    c = 4.0 * eta * kappa / loss
    root = math.sqrt(st * st + 0.25)
    # st*root - st^2 == st/(4*(root + st)), exact also for st >> 1
    v_s = 1.0 - 2.0 * c * st * 0.25 / (root + st) if st > 0 else 1.0
    v_as = 1.0 + 2.0 * c * (st * root + st * st)
    phi = optimal_phase(p_in, p_th) if st > 0 else 0.0
    return SqueezingResult(v_s=v_s, v_as=v_as, phi_opt=phi)


def optimal_phase(p_in: float, p_th: float) -> float:
    """LO phase minimizing the locked variance; in [-pi/4, 0).

    Tends to -pi/4 as the drive ratio p_in / p_th goes to 0, and rounds to it
    once the ratio is below about 1e-16. Raises ZeroPower at drive ratio 0:
    zero power, an absent (inf) threshold or a ratio that underflows.
    """
    if drive_ratio(p_in, p_th) == 0.0:
        raise ZeroPower(f"optimal phase undefined at drive ratio 0: p_in = {p_in!r} W, "
                        f"p_th = {p_th!r} W")
    # halving after the division, not doubling p_in, which overflows above ~9e307
    return 0.5 * math.atan(-p_th / p_in / 2.0)


def db_from_linear(v: float) -> float:
    """Power ratio to dB. Raises NonPositive unless 0 < v < inf (so also for NaN)."""
    if not 0.0 < v < math.inf:
        raise NonPositive(f"ratio must be finite and > 0 for dB conversion, got {v}")
    return 10.0 * math.log10(v)


def linear_from_db(db: float) -> float:
    """dB to power ratio; exact inverse of :func:`db_from_linear`.

    Raises NonPositive when the ratio is not finite (so also for NaN).
    """
    try:
        v = 10.0 ** (db / 10.0)
    except OverflowError:  # Python's float ** raises out of range
        v = math.inf
    if not v < math.inf:
        raise NonPositive(f"power ratio of {db!r} dB is not finite")
    return v
