"""Independent reference computations for the test suite.

Nothing here calls into the package's solver paths: roots come from numpy's
companion-matrix eigenvalues plus Newton polish on the defining residual,
phase extrema from a scan plus golden-section refinement. Agreement between
these and the package is then evidence, not tautology.
"""

import cmath
import math

import numpy as np

from kerrsqueeze import SteadyStateBranch

HBAR = 1.054571817e-34
C_VACUUM = 2.99792458e8


def scaled_roots_brute(g: float, delta: float):
    """Positive real roots of g^2 u^3 + 2 g delta u^2 + (1/4 + delta^2) u - 1/4.

    u is the photon number over the locking value, so physical roots sit in
    (0, 1]. Companion eigenvalues are polished with Newton steps on the
    residual to kill the eigensolver's last few digits of error.
    """
    if g == 0.0:
        return [0.25 / (0.25 + delta * delta)]
    coeffs = [g * g, 2.0 * g * delta, 0.25 + delta * delta, -0.25]
    roots = np.roots(coeffs)
    out = []
    for z in roots:
        if abs(z.imag) > 1e-6 * max(1.0, abs(z.real)):
            continue
        u = float(z.real)
        if u <= 0:
            continue
        for _ in range(60):
            f = ((g * g * u + 2.0 * g * delta) * u + 0.25 + delta * delta) * u - 0.25
            fp = 3.0 * g * g * u * u + 4.0 * g * delta * u + 0.25 + delta * delta
            if fp == 0:
                break
            step = f / fp
            u -= step
            if abs(step) <= 1e-17 * abs(u):
                break
        if u > 0:
            out.append(u)
    out.sort()
    # collapse near-double roots the eigensolver may split
    dedup = []
    for u in out:
        if not dedup or abs(u - dedup[-1]) > 1e-10 * max(abs(u), 1e-300):
            dedup.append(u)
    return dedup


def scaled_discriminant(g, delta):
    """Discriminant of the scaled cubic; > 0 means three distinct real roots."""
    g = np.asarray(g, dtype=float)
    delta = np.asarray(delta, dtype=float)
    a = g * g
    b = 2.0 * g * delta
    c = 0.25 + delta * delta
    d = -0.25
    return (
        18.0 * a * b * c * d
        - 4.0 * b**3 * d
        + b * b * c * c
        - 4.0 * a * c**3
        - 27.0 * a * a * d * d
    )


def two_step_branch_pick(u, stable, order):
    """Root index a sweep keeps at each grid point, by the two-step rule.

    The first point visited takes its lowest stable root (else its lowest
    root). Each later point takes the root closest to the previous pick and,
    when that root is unstable, the nearest stable root instead. ``u`` is the
    (K, 3) NaN-padded ascending root table, ``stable`` its flags and
    ``order`` the traversal order.
    """
    chosen = np.empty(len(u), dtype=int)
    prev = None
    for i in order:
        finite = np.flatnonzero(~np.isnan(u[i]))
        stable_j = finite[stable[i, finite]]
        if prev is None:
            pick = stable_j[0] if stable_j.size else finite[0]
        else:
            pick = finite[np.argmin(np.abs(u[i, finite] - prev))]
            if not stable[i, pick] and stable_j.size:
                pick = stable_j[np.argmin(np.abs(u[i, stable_j] - prev))]
        chosen[i] = pick
        prev = u[i, pick]
    return chosen


def loop_sweep(params, grid, u, stable, n_lock, direction):
    """Sweep columns by the per-point loop the package used before its sweep
    became columnar, kept operation for operation so results compare by bytes.

    ``u``, ``stable`` and ``n_lock`` are the package's root table for ``grid``;
    each point keeps the stable root nearest in n to the previous pick (from
    0.0), else the nearest root, and derives its detunings, field phase and
    transmission with Python float arithmetic.
    """
    deltas, u_rows, stable_rows = grid.tolist(), u.tolist(), stable.tolist()
    forward = (len(deltas) == 1 or deltas[1] > deltas[0]) == (direction == "up")
    order = range(len(deltas)) if forward else range(len(deltas) - 1, -1, -1)
    shift_sum = params.g_opt + params.g_th
    half_loss = (params.kappa + params.gamma) / 2.0
    cols = {k: [0.0] * len(deltas) for k in
            ("n", "delta_cl", "delta_f", "stable", "alpha_phase", "transmission")}
    prev = 0.0
    for i in order:
        roots = [(x, s) for x, s in zip(u_rows[i], stable_rows[i]) if not math.isnan(x)]
        pool = [r for r in roots if r[1]] or roots
        prev, is_stable = min(pool, key=lambda r: abs(r[0] - prev))
        n = prev * n_lock
        delta_cl = deltas[i] + shift_sum * n
        cols["n"][i] = n
        cols["delta_cl"][i] = delta_cl
        cols["delta_f"][i] = delta_cl + params.g_opt * n
        cols["stable"][i] = is_stable
        cols["alpha_phase"][i] = math.atan2(delta_cl, half_loss)
        cols["transmission"][i] = (
            ((params.kappa - params.gamma) ** 2 / 4.0 + delta_cl * delta_cl)
            / ((params.kappa + params.gamma) ** 2 / 4.0 + delta_cl * delta_cl))
    return {k: np.array(v) for k, v in cols.items()}


def scalar_branch(params, delta_p, n, stable):
    """One steady-state branch by the per-point rule the package used before
    its scalar calls shared the sweep's columns, kept operation for operation."""
    n = float(n)
    shift_sum = params.g_opt + params.g_th
    delta_cl = float(delta_p) + shift_sum * n
    return SteadyStateBranch(
        n=n,
        delta_cl=delta_cl,
        delta_f=delta_cl + params.g_opt * n,
        stable=stable,
        alpha_phase=math.atan2(delta_cl, (params.kappa + params.gamma) / 2.0),
    )


def _mode_matrix(params, delta_f, sigma_c, w):
    """M11 and M12 of M(w) = I - kappa Q(w)^{-1}, one solve per frequency."""
    half_loss = (params.kappa + params.gamma) / 2.0
    q11 = half_loss - 1j * (w + delta_f)
    q22 = half_loss - 1j * (w - delta_f)
    q12 = -1j * sigma_c / 2.0
    q21 = 1j * sigma_c.conjugate() / 2.0
    det = q11 * q22 - q12 * q21
    k = params.kappa
    return 1.0 - k * q22 / det, k * q12 / det


def two_call_moments(params, branch, omega, eta):
    """Detected moments (G11, G12, G21) with Q solved at omega and again at
    -omega, as the package did before one solve served both; no checks."""
    sigma_c = 2.0 * params.g_opt * branch.n * cmath.exp(2j * branch.alpha_phase)
    m11_p, _ = _mode_matrix(params, branch.delta_f, sigma_c, omega)
    _, m12_m = _mode_matrix(params, branch.delta_f, sigma_c, -omega)
    loss_ratio = params.gamma / params.kappa
    s11 = m12_m * (m11_p + loss_ratio * (m11_p - 1.0))
    s12 = abs(m11_p) ** 2 + loss_ratio * abs(m11_p - 1.0) ** 2
    s21 = (1.0 + loss_ratio) * abs(m12_m) ** 2
    return eta * s11, eta * s12 + (1.0 - eta), eta * s21


def golden_min(f, a: float, b: float, tol: float = 1e-12):
    """Golden-section minimum of a unimodal f on [a, b]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
    x = 0.5 * (a + b)
    return x, f(x)


def phase_extrema_scan(f, n_scan: int = 720):
    """Global min and max of a pi-periodic f(phi) via scan + refinement."""
    phis = np.linspace(-0.5 * math.pi, 0.5 * math.pi, n_scan, endpoint=False)
    vals = np.array([f(p) for p in phis])
    h = math.pi / n_scan
    i_min = int(np.argmin(vals))
    i_max = int(np.argmax(vals))
    _, vmin = golden_min(f, phis[i_min] - 2 * h, phis[i_min] + 2 * h)
    _, neg = golden_min(lambda p: -f(p), phis[i_max] - 2 * h, phis[i_max] + 2 * h)
    return vmin, -neg


def locked_closed_forms(sigma_tilde: float, kappa: float, gamma: float, eta: float):
    """Zero-frequency locked extrema straight from the closed expressions."""
    loss = kappa + gamma
    c = 4.0 * eta * kappa / loss
    root = math.sqrt(sigma_tilde * sigma_tilde + 0.25)
    v_s = 1.0 - 2.0 * c * (sigma_tilde * root - sigma_tilde * sigma_tilde)
    v_as = 1.0 + 2.0 * c * (sigma_tilde * root + sigma_tilde * sigma_tilde)
    return v_s, v_as


def synth_lineshape(rng, center, kappa, gamma, span, n, noise=0.01):
    """Transmission samples with multiplicative noise, as arrays."""
    freq = np.linspace(center - span / 2.0, center + span / 2.0, n)
    loss = kappa + gamma
    d = freq - center
    t = ((kappa - gamma) ** 2 / 4.0 + d * d) / (loss * loss / 4.0 + d * d)
    return freq, t * (1.0 + noise * rng.standard_normal(n))


def shifted_trace(g_sum, kappa, gamma, p_in, omega_p, freq):
    """Down-sweep transmission of the shifted resonance, computed directly.

    Single-root regime only (used below bistability onset): solve the cubic
    for N per grid point via the brute root finder and keep the lowest root,
    which is what a downward adiabatic sweep tracks there.
    """
    loss = kappa + gamma
    beta2 = p_in / (HBAR * omega_p)
    n_lock = 4.0 * kappa * beta2 / (loss * loss)
    out = []
    for dp in freq:
        if n_lock == 0.0:
            dcl = dp
        else:
            g = g_sum * n_lock / loss
            us = scaled_roots_brute(g, dp / loss)
            dcl = dp + g_sum * us[0] * n_lock
        out.append((((kappa - gamma) ** 2) / 4.0 + dcl * dcl)
                   / (loss * loss / 4.0 + dcl * dcl))
    return np.array(out)


def pow_lineshape(delta: float, kappa: float, gamma: float) -> float:
    """Linear-cavity transmission with every square taken by Python ``**`` (libm pow)."""
    num = (kappa - gamma) ** 2 / 4.0 + delta**2
    return num / (((kappa + gamma) / 2.0) ** 2 + delta**2)


def _lineshape(freq, center, kappa, gamma):
    d = freq - center
    num = (kappa - gamma) ** 2 / 4.0 + d * d
    den = (kappa + gamma) ** 2 / 4.0 + d * d
    return num / den


def resonance_fit_stderr(freq, transmission, fit):
    """Standard errors of (omega_r, kappa, gamma) from a forward-difference Jacobian.

    The stand-alone helper the package used before fits carried their own
    error bars, kept operation for operation so results compare with ``==``.
    """
    theta = np.array([fit.omega_r, fit.kappa, fit.gamma])
    r0 = _lineshape(freq, *theta) - transmission
    m, n = freq.size, 3
    jac = np.empty((m, n))
    for j in range(n):
        h = 1e-6 * max(abs(theta[j]), 1e-30)
        tp = theta.copy()
        tp[j] += h
        jac[:, j] = (_lineshape(freq, *tp) - _lineshape(freq, *theta)) / h
    s2 = float(r0 @ r0) / (m - n)
    cov = s2 * np.linalg.inv(jac.T @ jac)
    se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    return (float(se[0]), float(se[1]), float(se[2]))


def dispersion_fit_stderr(entries, fit):
    """Standard errors of (omega_0, d1, d2) from the OLS covariance of the fit.

    Same provenance and operation order as :func:`resonance_fit_stderr`;
    three modes leave no degrees of freedom and give zeros.
    """
    mus = np.array([m for m, _ in entries], dtype=float)
    omegas = np.array([w for _, w in entries], dtype=float)
    dof = len(entries) - 3
    if dof <= 0:
        return (0.0, 0.0, 0.0)
    k = float(np.mean(mus))
    s = float(np.max(np.abs(mus - k))) or 1.0
    t = (mus - k) / s
    design = np.column_stack([np.ones_like(t), t, t * t])
    resid = omegas - (fit.omega_0 + fit.d1 * mus + 0.5 * fit.d2 * mus * mus)
    s2 = float(resid @ resid) / dof
    cov_scaled = s2 * np.linalg.inv(design.T @ design)
    lmap = np.array(
        [
            [1.0, -k / s, k * k / (s * s)],
            [0.0, 1.0 / s, -2.0 * k / (s * s)],
            [0.0, 0.0, 2.0 / (s * s)],
        ]
    )
    cov = lmap @ cov_scaled @ lmap.T
    se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    return (float(se[0]), float(se[1]), float(se[2]))


def dispersion_residual_norm(entries, fit):
    """2-norm of the quadratic misfit, as the CLI computed it before fits carried it."""
    mus = np.array([m for m, _ in entries], dtype=float)
    omegas = np.array([w for _, w in entries])
    model = fit.omega_0 + fit.d1 * mus + 0.5 * fit.d2 * mus * mus
    return float(np.linalg.norm(omegas - model))


def repr_cells(column):
    """CSV cells of a float array as the CLI wrote them before it formatted
    each distinct value once: ``repr`` of every element in turn."""
    return list(map(repr, column.tolist()))


def py_tree(obj):
    """Plain Python tree for JSON output, by the per-element recursion the CLI
    used before numeric arrays went through one ``tolist()``."""
    if isinstance(obj, dict):
        return {k: py_tree(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [py_tree(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [py_tree(v) for v in obj.tolist()]
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def csv_cell(value):
    """A CSV cell by the rules the writer states: a float by repr, a bool as
    true/false, an int in decimal and anything else as its text, quoted as
    RFC 4180 asks when it holds ',', '"', CR or LF."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    text = str(value)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def csv_table(names, columns, meta=()):
    """CSV bytes of a table, one cell and one line at a time, with each
    '# line' of ``meta`` inserted before the row of its index (-1: before the
    header) as the writer did before it assembled tables in numpy."""
    cells = [column.tolist() if isinstance(column, np.ndarray) else column for column in columns]
    lines = [",".join(names), *(",".join(map(csv_cell, row)) for row in zip(*cells))]
    for idx, line in reversed(sorted(meta, key=lambda m: m[0])):
        lines.insert(idx + 1, f"# {line}")
    return ("\n".join(lines) + "\n").encode()


# The branch continuation as it was before its kernels were trimmed: all 3K
# candidates through Newton, and the next pick by argmin over a (K-1, 3, 3)
# distance cube. The package's versions must give these bits.

def dense_solve_scaled(g: float, delta: np.ndarray) -> np.ndarray:
    """All roots u in (0, 1] of the scaled cubic, per detuning grid point,
    (K, 3) ascending and NaN-padded, with Newton run on every slot."""
    delta = np.asarray(delta, dtype=float)
    lin_c = 0.25 + delta * delta
    cand = np.full((delta.size, 3), np.nan)

    rho = (g * g + 2.0 * g * np.abs(delta)) / lin_c
    lin_mask = rho < 1e-8
    cand[lin_mask, 0] = 0.25 / lin_c[lin_mask]

    cub = ~lin_mask
    if np.any(cub):
        d = delta[cub]
        p = (0.25 - d * d / 3.0) / (g * g)
        q = -((2.0 / 27.0) * d**3 + d / 6.0) / g**3 - 0.25 / (g * g)
        shift = 2.0 * d / (3.0 * g)
        disc = -4.0 * p**3 - 27.0 * q * q

        roots = np.full((d.size, 3), np.nan)
        three = disc > 0.0
        if np.any(three):
            pt, qt = p[three], q[three]
            m = 2.0 * np.sqrt(-pt / 3.0)
            cosarg = np.clip(3.0 * qt / (2.0 * pt) * np.sqrt(-3.0 / pt), -1.0, 1.0)
            theta = np.arccos(cosarg)
            for k in range(3):
                roots[three, k] = m * np.cos(theta / 3.0 - 2.0 * math.pi * k / 3.0)
        one = ~three
        if np.any(one):
            po, qo = p[one], q[one]
            s = np.sqrt(np.maximum(qo * qo / 4.0 + po**3 / 27.0, 0.0))
            w = -qo / 2.0 - np.sign(qo) * s
            alpha = np.cbrt(w)
            t = np.where(alpha != 0.0, alpha - po / (3.0 * np.where(alpha != 0.0, alpha, 1.0)), 0.0)
            roots[one, 0] = t
        cand[cub] = roots - shift[:, None]

    dd = delta[:, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        for _ in range(5):
            shifted = dd + g * cand
            f = cand * (0.25 + shifted * shifted) - 0.25
            fp = 0.25 + shifted * shifted + 2.0 * g * cand * shifted
            step = f / fp
            step = np.clip(step, -0.5, 0.5)
            cand = cand - step
        shifted = dd + g * cand
        resid = np.abs(cand * (0.25 + shifted * shifted) - 0.25)
        bad = (cand <= 0.0) | (resid > 1e-9 * 0.25)
    cand[bad] = np.nan

    cand = np.sort(cand, axis=1)
    for j in (1, 2):
        with np.errstate(invalid="ignore"):
            dup = np.abs(cand[:, j] - cand[:, j - 1]) <= 1e-11 * np.abs(cand[:, j])
        cand[dup, j] = np.nan
    return np.sort(cand, axis=1)


def argmin_pick_roots(u: np.ndarray, stable: np.ndarray) -> np.ndarray:
    """Root index a sweep keeps at each row of ``u``, rows in sweep order: the
    stable root nearest the previous pick (the first row measures from 0),
    else the nearest root, the lowest index winning ties."""
    live = ~np.isnan(u)
    pool = stable | (live & ~stable.any(axis=1, keepdims=True))
    dist = np.where(pool[1:, None, :], np.abs(u[1:, None, :] - u[:-1, :, None]), np.inf)
    nxt = dist.argmin(axis=2)
    moves = (pool[:-1] & (nxt != np.arange(3))).any(axis=1)

    pick = np.empty(len(u), dtype=np.intp)
    j = int(np.where(pool[0], u[0], np.inf).argmin())
    start = 0
    for i in (np.flatnonzero(moves) + 1).tolist():
        pick[start:i] = j
        j = int(nxt[i - 1, j])
        start = i
    pick[start:] = j
    return pick
