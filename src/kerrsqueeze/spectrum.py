"""Output quadrature variance spectra of the linearized fluctuations.

The fluctuation doublet (b, b-dagger) is propagated through the ring in the
frequency domain. With the convention f(w) = integral e^{iwt} f(t) dt the
time derivative maps to -iw on BOTH rows of the doublet; the system matrix is

    Q(w) = (kappa/2 - i w) I - T,
    T    = [[ i D_f - gamma/2,  i sigma/2      ],
            [-i conj(sigma)/2, -i D_f - gamma/2]],

with D_f the fluctuation detuning and sigma = 2 g_opt alpha_p^2 the complex
injection parameter. The output mode map is M(w) = I - kappa Q(w)^{-1}, and
intrinsic loss enters as sqrt(gamma/kappa) (M - I) acting on its own vacuum.
Using the conjugate frequency sign on the second row instead would break the
spectral symmetry V(w) = V(-w) at the locked point, so it is not offered.

Variances are spectral densities: all two-frequency moments are taken at
(w, -w) with the delta normalization stripped, and everything is reported as
the ratio V / V_vac so the vacuum convention (1/2 per quadrature) cancels.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import Tuple

from .core import ResonatorParams, check_eta, drive_ratio, total_loss
from .errors import (
    LinearizationWarning,
    ModelError,
    NonPositive,
    SingularMatrix,
    UnstablePoint,
    ZeroPower,
)
from .steady_state import SteadyStateBranch

# warn once the distance to the critical point exceeds this; the linearized
# model is known to fail just above it
_X_GUARD = 0.99


@dataclass(frozen=True)
class SqueezingResult:
    """Locked-point closed-form variances, both normalized to vacuum."""

    v_s: float       # squeezed quadrature ratio, <= 1
    v_as: float      # anti-squeezed quadrature ratio, >= 1
    phi_opt: float   # LO phase of the variance minimum [rad], in [-pi/4, 0]
    sigma: float     # injection parameter [rad/s]
    eta: float       # detection efficiency the ratios include


@dataclass(frozen=True)
class SpectrumPoint:
    """One sample of the variance spectrum with its dimensionless internals."""

    omega: float
    phi_lo: float
    v: float
    y: float            # 1 + (2 omega / Gamma)^2
    c: float            # 4 eta kappa / Gamma
    sigma_tilde: float  # |sigma| / Gamma


def _warn_if_near_critical(x: float, stacklevel: int) -> None:
    if x > _X_GUARD:
        warnings.warn(
            f"distance to critical point x = {x:.4f} > {_X_GUARD}: "
            "linearized fluctuation model is unreliable here",
            LinearizationWarning,
            stacklevel=stacklevel,
        )


def spectral_numbers(params: ResonatorParams, omega: float, eta: float) -> Tuple[float, float]:
    """(y, c) = (1 + (2 omega / Gamma)^2, 4 eta kappa / Gamma)."""
    loss = total_loss(params)
    return 1.0 + (2.0 * omega / loss) ** 2, 4.0 * eta * params.kappa / loss


def _output_moments(
    params: ResonatorParams, branch: SteadyStateBranch, omega: float, eta: float
) -> Tuple[complex, float, float]:
    """Detected doublet second moments (G11, G12, G21) at (omega, -omega).

    G22 = conj(G11) by the doublet reality conditions, so it is not returned.
    G12 and G21 are real; their difference is exactly 1 (commutator
    preservation), which the reduced forms below inherit from the identities
    M22(-w) = conj(M11(w)) and M21(w) = conj(M12(-w)). Checks ``eta``, warns
    near the critical point and rejects an unstable branch on behalf of the
    public callers; a system matrix out of the float range is reported first,
    then a singular one. Raises ModelError when a moment is not finite.

    One solve of Q(w) serves both frequencies: Q11(-w) = conj Q22(w),
    Q22(-w) = conj Q11(w) and Q12 Q21 is real, so det Q(-w) = conj det Q(w)
    and M12(-w) = kappa Q12 / conj det Q(w), bit for bit.
    """
    check_eta(eta)
    sigma_c = 2.0 * params.g_opt * branch.n * cmath.exp(2j * branch.alpha_phase)
    half_loss = total_loss(params) / 2.0
    q11 = half_loss - 1j * (omega + branch.delta_f)
    q22 = half_loss - 1j * (omega - branch.delta_f)
    q12 = -1j * sigma_c / 2.0
    q21 = 1j * sigma_c.conjugate() / 2.0
    det = q11 * q22 - q12 * q21
    try:
        absdet = abs(det)
        fro2 = abs(q11) ** 2 + abs(q12) ** 2 + abs(q21) ** 2 + abs(q22) ** 2
    except OverflowError:  # abs and ** of Python numbers raise out of range
        fro2 = math.inf
    if not fro2 < math.inf:
        raise NonPositive(f"fluctuation system matrix out of float range at omega = {omega!r} rad/s")
    _warn_if_near_critical(_critical_distance(params, branch), stacklevel=4)
    # exact 2-norm condition number of a 2x2, s_max^2 / |det|, in its
    # scale-free form (1 + sqrt(1 - 4 r^2)) / (2 r) with r = |det| / fro2,
    # so squaring fro2 cannot overflow for large |Q|
    r = absdet / fro2 if absdet else 0.0
    if r == 0.0 or (1.0 + math.sqrt(max(1.0 - 4.0 * r * r, 0.0))) / (2.0 * r) > 1e12:
        raise SingularMatrix(
            "fluctuation system matrix is ill-conditioned; the operating "
            "point sits at a marginally stable branch fold"
        )
    _check_stable(branch)
    k = params.kappa
    m11_p = 1.0 - k * q22 / det
    m12_m = k * q12 / det.conjugate()
    loss_ratio = params.gamma / params.kappa

    s11 = m12_m * (m11_p + loss_ratio * (m11_p - 1.0))
    s12 = abs(m11_p) ** 2 + loss_ratio * abs(m11_p - 1.0) ** 2
    s21 = (1.0 + loss_ratio) * abs(m12_m) ** 2

    g11 = eta * s11
    g12 = eta * s12 + (1.0 - eta)
    g21 = eta * s21
    if not (cmath.isfinite(g11) and math.isfinite(g12) and math.isfinite(g21)):
        raise ModelError(f"fluctuation moments not finite at omega = {omega!r} rad/s")
    return g11, g12, g21


def _check_stable(branch: SteadyStateBranch) -> None:
    if not branch.stable:
        raise UnstablePoint("the steady-state branch is unstable; its fluctuations do not settle")


def _critical_distance(params: ResonatorParams, branch: SteadyStateBranch) -> float:
    sigma = 2.0 * params.g_opt * branch.n
    return (sigma / 2.0) / math.hypot(branch.delta_f, total_loss(params) / 2.0)


def variance_spectrum(
    params: ResonatorParams,
    branch: SteadyStateBranch,
    omega: float,
    phi_lo: float,
    eta: float = 1.0,
) -> SpectrumPoint:
    """Variance ratio V/V_vac at one sideband frequency and LO phase.

    Valid at any steady-state branch, locked or not. Detection efficiency
    mixes in extra vacuum as (1 - eta) + eta * V.
    """
    g11, g12, g21 = _output_moments(params, branch, omega, eta)
    v = 2.0 * (cmath.exp(-2j * phi_lo) * g11).real + g12 + g21
    y, c = spectral_numbers(params, omega, eta)
    return SpectrumPoint(
        omega=omega,
        phi_lo=phi_lo,
        v=v,
        y=y,
        c=c,
        sigma_tilde=2.0 * params.g_opt * branch.n / total_loss(params),
    )


def variance_extrema(
    params: ResonatorParams,
    branch: SteadyStateBranch,
    omega: float,
    eta: float = 1.0,
) -> Tuple[float, float, float]:
    """(v_min, v_max, phi_min) over the LO phase at one sideband frequency.

    The phase dependence is a pure second harmonic, so the extrema follow
    directly from the moments: v = base +/- 2|G11|, with the minimum at
    phi = (arg G11 - pi) / 2 wrapped into (-pi/2, pi/2].
    """
    g11, g12, g21 = _output_moments(params, branch, omega, eta)
    base = g12 + g21
    amp = 2.0 * abs(g11)
    if amp == 0.0:
        return base, base, 0.0
    phi_min = (cmath.phase(g11) - math.pi) / 2.0
    if phi_min <= -math.pi / 2.0:
        phi_min += math.pi
    return base - amp, base + amp, phi_min


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
    return SqueezingResult(v_s=v_s, v_as=v_as, phi_opt=phi, sigma=loss * st, eta=eta)


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


def _check_locked_numbers(sigma_tilde: float, y: float, c: float) -> None:
    if y < 1.0:
        raise NonPositive(f"y = 1 + (2w/Gamma)^2 must be >= 1, got {y}")
    if c < 0.0:
        raise NonPositive(f"c must be >= 0, got {c}")
    if sigma_tilde < 0.0:
        raise NonPositive(f"sigma_tilde must be >= 0, got {sigma_tilde}")


def locked_raw_variance(
    sigma_tilde: float, y: float, c: float, phi_lo: float
) -> float:
    """Locked-point variance ratio as an explicit function of the
    dimensionless drive, frequency and coupling numbers.

    Evaluated through the complex-exponential form; the result is real by
    construction (the two phase terms are conjugates).
    """
    _check_locked_numbers(sigma_tilde, y, c)
    st = sigma_tilde
    z = (0.5j * st) * (y + 2j * st) * cmath.exp(-2j * phi_lo)
    bracket = 2.0 * z.real + 2.0 * st * st
    return 1.0 + c / (y * y) * bracket


def locked_extrema(sigma_tilde: float, y: float, c: float) -> Tuple[float, float]:
    """(v_min, v_max) of locked_raw_variance over the LO phase, in closed form.

    The phase term is a second harmonic of amplitude (c st / y^2) *
    sqrt(y^2 + 4 st^2) around 1 + 2 c st^2 / y^2.
    """
    _check_locked_numbers(sigma_tilde, y, c)
    st = sigma_tilde
    base = 1.0 + 2.0 * c * st * st / (y * y)
    amp = (c * st / y) * math.sqrt(1.0 + 4.0 * st * st / (y * y))
    return base - amp, base + amp


def fluctuation_flux(
    params: ResonatorParams, branch: SteadyStateBranch, eta: float = 1.0
) -> float:
    """Detected fluctuation photon flux factor (delta-stripped, w = 0).

    General-branch expression 4 eta kappa sigma^2 Gamma / (4 D_f^2 + Gamma^2
    - sigma^2)^2; at the locked point it reduces to (4 eta kappa / Gamma) *
    sigma_tilde^2. Note the quadratic drive dependence; the first-power form
    reported by drive_state is kept separate on purpose.
    """
    check_eta(eta)
    _check_stable(branch)
    loss = total_loss(params)
    sigma = 2.0 * params.g_opt * branch.n
    den = 4.0 * branch.delta_f**2 + loss * loss - sigma * sigma
    if den <= 0.0:
        raise UnstablePoint(
            "operating point at or beyond the parametric instability"
        )
    return 4.0 * eta * params.kappa * sigma * sigma * loss / (den * den)
