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
from itertools import repeat
from typing import Any, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .core import ResonatorParams, _warn_if_near_critical, check_eta, db_from_linear, total_loss
from .errors import ModelError, NonPositive, SingularMatrix, UnstablePoint
from .steady_state import SteadyStateBranch, SweepTrace

Branch = Union[SteadyStateBranch, SweepTrace]

_UNSTABLE = "the steady-state branch is unstable; its fluctuations do not settle"


class _Complex(NamedTuple):
    """Complex float arrays as (re, im), with the arithmetic of CPython 3.11's
    complex type, so an expression gives, element by element, the bits the same
    expression of Python numbers gives: numpy's complex128 rounds apart in the
    sign of zero, in subnormals and in its quotient. A real operand x enters as
    (x, 0.0), as Python promotes it, and a product or quotient is
    _Py_c_prod's or _Py_c_quot's (Smith, CACM 5(8), 1962)."""

    re: Any
    im: Any
    __array_ufunc__ = None  # an array operand hands the operation to these methods

    def __add__(a, b: Any) -> _Complex:
        b = _complex(b)
        return _Complex(a.re + b.re, a.im + b.im)

    def __sub__(a, b: Any) -> _Complex:
        b = _complex(b)
        return _Complex(a.re - b.re, a.im - b.im)

    def __rsub__(a, b: Any) -> _Complex:
        return _complex(b) - a

    def __mul__(a, b: Any) -> _Complex:
        b = _complex(b)
        return _Complex(a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re)

    # IEEE sums and products commute, so b + a and b * a are a + b and a * b
    __radd__ = __add__
    __rmul__ = __mul__

    def __truediv__(a, b: Any) -> _Complex:
        b_re, b_im = (np.asarray(part, dtype=float) for part in _complex(b))
        by_re = np.abs(b_re) >= np.abs(b_im)  # a NaN in b gives NaN either way
        ratio = np.where(by_re, b_im / b_re, b_re / b_im)
        denom = np.where(by_re, b_re + b_im * ratio, b_re * ratio + b_im)
        return _Complex(np.where(by_re, a.re + a.im * ratio, a.re * ratio + a.im) / denom,
                        np.where(by_re, a.im - a.re * ratio, a.im * ratio - a.re) / denom)

    def __neg__(a) -> _Complex:
        return _Complex(-a.re, -a.im)

    def __abs__(a) -> np.ndarray:
        return np.hypot(a.re, a.im)

    def conjugate(a) -> _Complex:
        return _Complex(a.re, -a.im)


def _complex(z: Any) -> _Complex:
    return z if isinstance(z, _Complex) else _Complex(z.real, z.imag)


_J = _Complex(0.0, 1.0)


def _map(fn: Any, x: Any, *rest: Any, dtype: type = float) -> np.ndarray:
    """``fn`` of Python numbers over the elements of ``x`` and of ``rest``,
    each a number or an array of ``x``'s shape."""
    x = np.asarray(x)
    rest = [a.ravel().tolist() if np.ndim(a) else repeat(a) for a in rest]
    out = map(fn, x.ravel().tolist(), *rest)
    return np.fromiter(out, dtype, count=x.size).reshape(x.shape)


def _pow2(x: Any) -> np.ndarray:
    """``x ** 2`` of Python floats (C pow, which x * x rounds apart from on
    some inputs) elementwise, and inf where Python raises OverflowError."""
    # sqrt(DBL_MAX) rounded down: the largest float whose square is finite
    return _map(pow, np.where(np.abs(x) > 1.3407807929942596e154, math.inf, x), 2.0)


def _first_failure(checks: Sequence[Any]) -> Optional[Tuple[int, int]]:
    """(element, check) of the first element in C order that fails any of the
    boolean arrays, and the first of them it fails; None if none fails."""
    bad = np.stack(np.broadcast_arrays(*checks)).reshape(len(checks), -1)
    rows = np.flatnonzero(bad.any(axis=0))
    return (int(rows[0]), int(bad[:, rows[0]].argmax())) if rows.size else None


def _scalar(a: np.ndarray) -> Union[float, np.ndarray]:
    """A 0-d result as a float, so scalars in give floats out."""
    return float(a) if a.ndim == 0 else a


def spectral_numbers(params: ResonatorParams, omega: Any, eta: float) -> Tuple[Any, float]:
    """(y, c) = (1 + (2 omega / Gamma)^2, 4 eta kappa / Gamma), y over ``omega``;
    y is inf where it leaves the float range."""
    loss = total_loss(params)
    with np.errstate(over="ignore", invalid="ignore"):
        y = 1.0 + _pow2(2.0 * np.asarray(omega, dtype=float) / loss)
    return _scalar(y), 4.0 * eta * params.kappa / loss


def _output_moments(
    params: ResonatorParams, branch: Branch, omega: Any, eta: float
) -> Tuple[_Complex, np.ndarray, np.ndarray, List[np.ndarray]]:
    """Detected doublet second moments (G11, G12, G21) at (omega, -omega), each
    of shape np.shape(branch.n) + np.shape(omega): operating point, then omega,
    and their checks.

    G22 = conj(G11) by the doublet reality conditions, so it is not returned.
    G12 and G21 are real; their difference is exactly 1 (commutator
    preservation), which the reduced forms below inherit from the identities
    M22(-w) = conj(M11(w)) and M21(w) = conj(M12(-w)). Checks ``eta``; the
    checks returned are four masks over (point, omega) that broadcast to the
    moments' shape: a system matrix out of the float range, a singular one, an
    unstable point and moments that are not finite. Each point near the
    critical point that has a row past the range check, up to the first row
    in C order that fails a check, gives a LinearizationWarning.

    One solve of Q(w) serves both frequencies: Q11(-w) = conj Q22(w),
    Q22(-w) = conj Q11(w) and Q12 Q21 is real, so det Q(-w) = conj det Q(w)
    and M12(-w) = kappa Q12 / conj det Q(w), bit for bit.
    """
    check_eta(eta)
    omega = np.asarray(omega, dtype=float)
    at = np.shape(branch.n) + (1,) * omega.ndim  # point axes lead, omega axes follow
    n, delta_f, alpha, stable = (np.reshape(getattr(branch, key), at) for key in
                                 ("n", "delta_f", "alpha_phase", "stable"))
    with np.errstate(all="ignore"):
        sigma = 2.0 * params.g_opt * n
        sigma_c = sigma * _complex(_map(lambda a: cmath.exp(2j * a), alpha, dtype=complex))
        half_loss = total_loss(params) / 2.0
        q11 = half_loss - _J * (omega + delta_f)
        q22 = half_loss - _J * (omega - delta_f)
        q12 = -_J * sigma_c / 2.0
        q21 = _J * sigma_c.conjugate() / 2.0
        det = q11 * q22 - q12 * q21
        absdet = abs(det)
        fro2 = _pow2(abs(q11)) + _pow2(abs(q12)) + _pow2(abs(q21)) + _pow2(abs(q22))
        # |det Q| <= fro2 / 2, so where fro2 is finite so is the modulus of det
        out_of_range = ~(fro2 < math.inf)
        # exact 2-norm condition number of a 2x2, s_max^2 / |det|, in its
        # scale-free form (1 + sqrt(1 - 4 r^2)) / (2 r) with r = |det| / fro2,
        # so squaring fro2 cannot overflow for large |Q|
        r = np.where(absdet != 0.0, absdet / fro2, 0.0)
        singular = (r == 0.0) | ((1.0 + np.sqrt(np.maximum(1.0 - 4.0 * r * r, 0.0)))
                                 / (2.0 * r) > 1e12)
        k = params.kappa
        m11_p = 1.0 - k * q22 / det
        m12_m = k * q12 / det.conjugate()
        loss_ratio = params.gamma / params.kappa

        s11 = m12_m * (m11_p + loss_ratio * (m11_p - 1.0))
        s12 = _pow2(abs(m11_p)) + loss_ratio * _pow2(abs(m11_p - 1.0))
        s21 = (1.0 + loss_ratio) * _pow2(abs(m12_m))

        g11 = eta * s11
        g12 = eta * s12 + (1.0 - eta)
        g21 = eta * s21
        finite = np.isfinite(g11.re) & np.isfinite(g11.im) & np.isfinite(g12) & np.isfinite(g21)
        checks = [out_of_range, singular, ~stable, ~finite]
        fail = _first_failure(checks)
        x = (sigma / 2.0) / _map(math.hypot, delta_f, half_loss)

    reached = g12.size if fail is None else fail[0] + (fail[1] > 0)  # rows past the range check
    near = x.ravel()[(np.arange(g12.size) < reached).reshape(x.size, -1).any(axis=1)]
    for x_point in near.tolist():
        _warn_if_near_critical(x_point, stacklevel=4)
    return g11, g12, g21, checks


def _raise_first(omega: Any, checks: List[np.ndarray], ratios: List[np.ndarray]) -> None:
    """Raises for the first element in C order that fails one of _output_moments'
    ``checks`` or whose ratio, in ``ratios`` order, db_from_linear rejects; an
    element's checks come before its ratios. ``omega`` broadcasts to them all."""
    fail = _first_failure([*checks, *(~((v > 0.0) & (v < math.inf)) for v in ratios)])
    if fail is None:
        return
    at, check = fail
    if check >= len(checks):
        db_from_linear(float(np.ravel(ratios[check - len(checks)])[at]))
    at_omega = float(np.broadcast_to(omega, np.broadcast(*checks, *ratios).shape).flat[at])
    raise [NonPositive(f"fluctuation system matrix out of float range at omega = "
                       f"{at_omega!r} rad/s"),
           SingularMatrix("fluctuation system matrix is ill-conditioned; the operating "
                          "point sits at a marginally stable branch fold"),
           UnstablePoint(_UNSTABLE),
           ModelError(f"fluctuation moments not finite at omega = {at_omega!r} rad/s"),
           ][check]


def _lo_factor(phi_lo: Any) -> _Complex:
    """e^{-2i phi_lo}, one cmath.exp per phase. V is pi-periodic in the LO
    phase, so it is first reduced by math.remainder(phi_lo, pi), which leaves
    |phi_lo| <= pi/2 as it is and any finite phase in the range of exp."""
    phi_lo = np.asarray(phi_lo, dtype=float)
    if not np.isfinite(phi_lo).all():
        bad = float(phi_lo.flat[(~np.isfinite(phi_lo)).argmax()])
        raise ModelError(f"LO phase must be finite, got {bad!r} rad")
    return _complex(_map(lambda phi: cmath.exp(-2j * math.remainder(phi, math.pi)), phi_lo,
                         dtype=complex))


def variance_spectrum(
    params: ResonatorParams, branch: Branch, omega: Any, phi_lo: Any, eta: float = 1.0
) -> Union[float, np.ndarray]:
    """Variance ratio V/V_vac at sideband frequencies ``omega`` and LO phases
    ``phi_lo``, which broadcast together.

    Valid at any steady-state branch, locked or not: one SteadyStateBranch, or
    every point of a SweepTrace, whose axis leads the result; all scalars give a
    float. Detection efficiency mixes in extra vacuum as (1 - eta) + eta * V.
    A phase that is not finite raises; then the first element that fails a
    moment check or whose ratio has no dB value (0 < V < inf) raises.
    """
    omega = np.asarray(omega, dtype=float)
    lead = len(np.broadcast_shapes(omega.shape, np.shape(phi_lo))) - omega.ndim
    omega = omega.reshape((1,) * lead + omega.shape)
    g11, g12, g21, checks = _output_moments(params, branch, omega, eta)
    with np.errstate(over="ignore", invalid="ignore"):
        v = 2.0 * (_lo_factor(phi_lo) * g11).re + g12 + g21
    _raise_first(omega, checks, [v])
    return _scalar(v)


def variance_extrema(
    params: ResonatorParams, branch: Branch, omega: Any, eta: float = 1.0
) -> Tuple[Any, Any, Any]:
    """(v_min, v_max, phi_min) over the LO phase at sideband frequencies
    ``omega``, each of shape np.shape(branch.n) + np.shape(omega).

    The phase dependence is a pure second harmonic, so the extrema follow
    directly from the moments: v = base +/- 2|G11|, with the minimum at
    phi = (arg G11 - pi) / 2 wrapped into (-pi/2, pi/2], or 0 where G11 = 0.
    The first element that fails a moment check, or whose v_min and then v_max
    has no dB value (0 < v < inf), raises.
    """
    g11, g12, g21, checks = _output_moments(params, branch, omega, eta)
    with np.errstate(over="ignore", invalid="ignore"):
        base = g12 + g21
        amp = 2.0 * abs(g11)
        v_min, v_max = base - amp, base + amp
        phi_min = (_map(math.atan2, g11.im, g11.re) - math.pi) / 2.0
        phi_min = np.where(phi_min <= -math.pi / 2.0, phi_min + math.pi, phi_min)
    _raise_first(omega, checks, [v_min, v_max])
    return _scalar(v_min), _scalar(v_max), _scalar(np.where(amp == 0.0, 0.0, phi_min))


def _check_locked_numbers(sigma_tilde: Any, y: Any, c: Any) -> Tuple[Any, Any, Any]:
    """The three numbers as arrays; the first element that breaks a rule raises."""
    st, y, c = (np.asarray(a, dtype=float) for a in (sigma_tilde, y, c))
    fail = _first_failure([y < 1.0, c < 0.0, st < 0.0])
    if fail is not None:
        rule, value = [("y = 1 + (2w/Gamma)^2 must be >= 1", y), ("c must be >= 0", c),
                       ("sigma_tilde must be >= 0", st)][fail[1]]
        shape = np.broadcast_shapes(st.shape, y.shape, c.shape)
        raise NonPositive(f"{rule}, got {float(np.broadcast_to(value, shape).flat[fail[0]])}")
    return st, y, c


def locked_raw_variance(sigma_tilde: Any, y: Any, c: Any, phi_lo: Any) -> Union[float, np.ndarray]:
    """Locked-point variance ratio as an explicit function of the
    dimensionless drive, frequency and coupling numbers, which broadcast
    with the LO phase; all scalars give a float.

    Evaluated through the complex-exponential form; the result is real by
    construction (the two phase terms are conjugates).
    """
    st, y, c = _check_locked_numbers(sigma_tilde, y, c)
    with np.errstate(over="ignore", invalid="ignore"):
        z = (_Complex(0.0, 0.5) * st) * (y + _Complex(0.0, 2.0) * st) * _lo_factor(phi_lo)
        bracket = 2.0 * z.re + 2.0 * st * st
        return _scalar(1.0 + c / (y * y) * bracket)


def locked_extrema(sigma_tilde: Any, y: Any, c: Any) -> Tuple[Any, Any]:
    """(v_min, v_max) of locked_raw_variance over the LO phase, in closed form.

    The phase term is a second harmonic of amplitude (c st / y^2) *
    sqrt(y^2 + 4 st^2) around 1 + 2 c st^2 / y^2.
    """
    st, y, c = _check_locked_numbers(sigma_tilde, y, c)
    with np.errstate(over="ignore", invalid="ignore"):
        base = 1.0 + 2.0 * c * st * st / (y * y)
        amp = (c * st / y) * np.sqrt(1.0 + 4.0 * st * st / (y * y))
        return _scalar(base - amp), _scalar(base + amp)


def fluctuation_flux(
    params: ResonatorParams, branch: SteadyStateBranch, eta: float = 1.0
) -> float:
    """Detected fluctuation photon flux factor (delta-stripped, w = 0): the
    moment G21 of _output_moments at w = 0, which equals the general-branch
    expression 4 eta kappa sigma^2 Gamma / (4 D_f^2 + Gamma^2 - sigma^2)^2; at
    the locked point it reduces to (4 eta kappa / Gamma) * sigma_tilde^2. Note
    the quadratic drive dependence; the first-power form reported by
    drive_state is kept separate on purpose. Raises and warns as the moments'
    checks at w = 0 do.
    """
    _, _, g21, checks = _output_moments(params, branch, 0.0, eta)
    _raise_first(0.0, checks, [])
    return float(g21)
