"""Levenberg–Marquardt least squares: MINPACK ``lmder`` (Moré 1978) in numpy.

``least_squares_lm(fun, x0, x_scale)`` runs ``lmder`` as the C translation
of MINPACK runs it behind a ``method="lm"`` least-squares call with
``x_scale``: mode 2 with ``diag = 1/x_scale``, step bound factor 100,
ftol = xtol = gtol = 1e-8, at most 100·n residual evaluations, and a
forward-difference Jacobian with step ``sqrt(eps)·sign(x)·max(1, |x|)``.
``tests/test_lm.py`` checks that ``x`` comes out bit for bit the same,
which holds because the arithmetic is the same:

- every length-m sum runs in index order (``np.cumsum``; ``np.dot`` and
  ``np.sum`` add pairwise or in blocks);
- each update is one rounded product and one rounded sum per element, as
  in the C loops;
- ``fun`` gets x as a float64 array, so a model that squares an element
  uses numpy's multiply, not libm ``pow``.

The n-length work (n is 1 or 3 here) runs on Python floats. Column j of
the Jacobian is row j of a C-ordered (n, m) array, and after ``_qrfac``
``r[j][i]`` holds R(i, j) for i <= j; ``_qrsolv`` keeps S in the rest.
"""

from __future__ import annotations

import math
from typing import Callable, List, Sequence, Tuple

import numpy as np

EPS = float(np.finfo(float).eps)  # MINPACK dpmpar(1)
DWARF = float(np.finfo(float).tiny)  # dpmpar(2)
# enorm squares |x| in (RDWARF, RGIANT / n) directly; the C translation
# keeps these values (the Fortran has 3.834e-20 and 1.304e19)
RDWARF, RGIANT = 3.833233541708435e-20, 1.3043817825332783e19
TOL = 1e-8  # ftol, xtol and gtol
FACTOR = 100.0

def _sum_of_products(a: np.ndarray, b: np.ndarray) -> float:
    """sum(a[i] * b[i]) added in index order."""
    return float(np.cumsum(a * b)[-1])


def enorm(x) -> float:
    """Euclidean norm, scaled only where squares would under- or overflow."""
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    agiant = RGIANT / x.size
    if np.all(ax < agiant) and np.all((ax > RDWARF) | (ax == 0.0)):
        return math.sqrt(_sum_of_products(x, x))
    s1 = s2 = s3 = x1max = x3max = 0.0
    for xabs in ax.tolist():
        if RDWARF < xabs < agiant:
            s2 += xabs * xabs
        elif xabs > RDWARF:
            if xabs > x1max:
                t = x1max / xabs
                s1 = 1.0 + s1 * (t * t)
                x1max = xabs
            else:
                t = xabs / x1max
                s1 += t * t
        elif xabs > x3max:
            t = x3max / xabs
            s3 = 1.0 + s3 * (t * t)
            x3max = xabs
        elif xabs != 0.0:
            t = xabs / x3max
            s3 += t * t
    if s1 != 0.0:
        return x1max * math.sqrt(s1 + (s2 / x1max) / x1max)
    if s2 != 0.0:
        if s2 >= x3max:  # the Fortran drops s3 here; the C translation keeps it
            return math.sqrt(s2 * (1.0 + (x3max / s2) * (x3max * s3)))
        return math.sqrt(x3max * ((s2 / x3max) + (x3max * s3)))
    return x3max * math.sqrt(s3)


def _qrfac(a: np.ndarray) -> Tuple[List[int], List[float], List[float]]:
    """Householder QR of the columns ``a[j]`` with column pivoting, in place.

    Returns the pivot order, the diagonal of R and the column norms of the
    input; R's strict upper part and the Householder vectors stay in ``a``.
    """
    n = a.shape[0]
    acnorm = [enorm(col) for col in a]
    rdiag, wa, ipvt = acnorm[:], acnorm[:], list(range(n))
    for j in range(n):
        kmax = j
        for k in range(j, n):
            if rdiag[k] > rdiag[kmax]:
                kmax = k
        if kmax != j:
            a[[j, kmax]] = a[[kmax, j]]
            rdiag[kmax], wa[kmax] = rdiag[j], wa[j]
            ipvt[j], ipvt[kmax] = ipvt[kmax], ipvt[j]
        v = a[j, j:]
        ajnorm = enorm(v)
        if ajnorm != 0.0:
            if v[0] < 0.0:
                ajnorm = -ajnorm
            v /= ajnorm
            v[0] += 1.0
            for k in range(j + 1, n):
                col = a[k, j:]
                col -= (_sum_of_products(v, col) / float(v[0])) * v
                if rdiag[k] != 0.0:
                    t = float(a[k, j]) / rdiag[k]
                    rdiag[k] *= math.sqrt(max(0.0, 1.0 - t * t))
                    t = rdiag[k] / wa[k]
                    if 0.05 * (t * t) <= EPS:  # too much cancellation: recompute
                        # the C translation sums m - j entries from row j + 1,
                        # so the next column's first entry too (0 past the last)
                        nxt = a[k + 1, 0] if k + 1 < n else 0.0
                        rdiag[k] = wa[k] = enorm(np.append(a[k, j + 1:], nxt))
        rdiag[j] = -ajnorm
    return ipvt, rdiag, acnorm


def _qrsolv(r: List[List[float]], ipvt: List[int], diag: List[float], qtb: List[float]):
    """x minimizing |[A; D] x - [b; 0]| from A P = Q R, and S's diagonal.

    Givens rotations take D into R, giving P^T (A^T A + D D) P = S^T S.
    """
    n = len(qtb)
    wa = list(qtb)
    x = [r[j][j] for j in range(n)]
    sdiag = [0.0] * n
    for j in range(n):
        for i in range(j, n):
            r[j][i] = r[i][j]
    for j in range(n):
        dl = diag[ipvt[j]]
        if dl != 0.0:
            sdiag[j:] = [dl] + [0.0] * (n - j - 1)
            qtbpj = 0.0
            for k in range(j, n):
                if sdiag[k] == 0.0:
                    continue
                rk = r[k]
                if abs(rk[k]) >= abs(sdiag[k]):
                    tan = sdiag[k] / rk[k]
                    cos = 0.5 / math.sqrt(0.25 + 0.25 * (tan * tan))
                    sin = cos * tan
                else:
                    cotan = rk[k] / sdiag[k]
                    sin = 0.5 / math.sqrt(0.25 + 0.25 * (cotan * cotan))
                    cos = sin * cotan
                rk[k] = cos * rk[k] + sin * sdiag[k]
                wa[k], qtbpj = cos * wa[k] + sin * qtbpj, -sin * wa[k] + cos * qtbpj
                for i in range(k + 1, n):
                    rk[i], sdiag[i] = cos * rk[i] + sin * sdiag[i], -sin * rk[i] + cos * sdiag[i]
        sdiag[j], r[j][j] = r[j][j], x[j]
    nsing = next((j for j in range(n) if sdiag[j] == 0.0), n)
    wa[nsing:] = [0.0] * (n - nsing)
    for j in reversed(range(nsing)):
        s = 0.0
        for i in range(j + 1, nsing):
            s += r[j][i] * wa[i]
        wa[j] = (wa[j] - s) / sdiag[j]
    for j in range(n):
        x[ipvt[j]] = wa[j]
    return x, sdiag


def _lmpar(r: List[List[float]], ipvt, diag, qtb, delta: float, par: float):
    """Levenberg–Marquardt parameter and step for the trust radius ``delta``."""
    n = len(qtb)
    nsing = next((j for j in range(n) if r[j][j] == 0.0), n)
    wa1 = qtb[:nsing] + [0.0] * (n - nsing)
    for j in reversed(range(nsing)):
        wa1[j] /= r[j][j]
        for i in range(j):
            wa1[i] -= r[j][i] * wa1[j]
    x = [0.0] * n
    for j in range(n):
        x[ipvt[j]] = wa1[j]
    wa2 = [d * xj for d, xj in zip(diag, x)]
    dxnorm = enorm(wa2)
    fp = dxnorm - delta
    if fp <= 0.1 * delta:  # the Gauss-Newton step fits
        return 0.0, x
    parl = 0.0  # lower bound from the Newton step, if R has full rank
    if nsing == n:
        wa1 = [diag[l] * (wa2[l] / dxnorm) for l in ipvt]
        for j in range(n):
            s = 0.0
            for i in range(j):
                s += r[j][i] * wa1[i]
            wa1[j] = (wa1[j] - s) / r[j][j]
        t = enorm(wa1)
        parl = ((fp / delta) / t) / t
    for j in range(n):
        s = 0.0
        for i in range(j + 1):
            s += r[j][i] * qtb[i]
        wa1[j] = s / diag[ipvt[j]]
    gnorm = enorm(wa1)
    paru = gnorm / delta
    if paru == 0.0:
        paru = DWARF / min(delta, 0.1)
    par = min(max(par, parl), paru)
    if par == 0.0:
        par = gnorm / dxnorm
    for it in range(1, 11):
        if par == 0.0:
            par = max(DWARF, 0.001 * paru)
        t = math.sqrt(par)
        x, sdiag = _qrsolv(r, ipvt, [t * d for d in diag], qtb)
        wa2 = [d * xj for d, xj in zip(diag, x)]
        dxnorm = enorm(wa2)
        fp_old, fp = fp, dxnorm - delta
        if abs(fp) <= 0.1 * delta or (parl == 0.0 and fp <= fp_old < 0.0) or it == 10:
            break
        wa1 = [diag[l] * (wa2[l] / dxnorm) for l in ipvt]
        for j in range(n):
            wa1[j] /= sdiag[j]
            for i in range(j + 1, n):
                wa1[i] -= r[j][i] * wa1[j]
        t = enorm(wa1)
        parc = ((fp / delta) / t) / t
        if fp > 0.0:
            parl = max(parl, par)
        if fp < 0.0:
            paru = min(paru, par)
        par = max(parl, par + parc)
    return par, x


def _jacobian(fun: Callable, x: np.ndarray, f0: np.ndarray) -> np.ndarray:
    """Forward-difference Jacobian, column j in row j."""
    h = (math.sqrt(EPS) * np.where(x >= 0.0, 1.0, -1.0)) * np.maximum(1.0, np.abs(x))
    cols = np.empty((x.size, f0.size))
    for j in range(x.size):
        xh = x.copy()
        xh[j] = x[j] + h[j]
        cols[j] = (fun(xh) - f0) / (xh[j] - x[j])
    return cols


def least_squares_lm(
    fun: Callable[[np.ndarray], np.ndarray],
    x0: Sequence[float],
    x_scale: Sequence[float],
) -> np.ndarray:
    """x minimizing |fun(x)|, from ``x0`` with variable scales ``x_scale``.

    Stops at MINPACK's ftol/xtol/gtol tests or after 100·n evaluations of
    ``fun`` outside the Jacobian, and returns the last accepted x.
    """
    x = np.array(x0, dtype=float)
    n = x.size
    diag = (1.0 / np.asarray(x_scale, dtype=float)).tolist()
    fvec = np.asarray(fun(x), dtype=float)
    nfev, fnorm, par = 1, enorm(fvec), 0.0
    xnorm = enorm(np.multiply(diag, x))
    delta = FACTOR * xnorm or FACTOR
    first = True
    while True:
        a = _jacobian(fun, x, fvec)
        ipvt, rdiag, acnorm = _qrfac(a)
        wa4 = fvec.copy()
        qtf = []
        for j in range(n):  # Q^T fvec, then R's diagonal back in place
            if a[j, j] != 0.0:
                v = a[j, j:]
                wa4[j:] += v * (-_sum_of_products(v, wa4[j:]) / float(v[0]))
            a[j, j] = rdiag[j]
            qtf.append(float(wa4[j]))
        r = a[:, :n].tolist()
        gnorm = 0.0
        if fnorm != 0.0:
            for j in range(n):
                if acnorm[ipvt[j]] != 0.0:
                    s = 0.0
                    for i in range(j + 1):
                        s += r[j][i] * (qtf[i] / fnorm)
                    gnorm = max(gnorm, abs(s / acnorm[ipvt[j]]))
        if gnorm <= TOL:
            return x
        while True:
            par, step = _lmpar(r, ipvt, diag, qtf, delta, par)
            p = [-s for s in step]
            x_new = x + np.array(p)
            pnorm = enorm([d * pj for d, pj in zip(diag, p)])
            if first:
                delta = min(delta, pnorm)
            f_new = np.asarray(fun(x_new), dtype=float)
            nfev += 1
            fnorm1 = enorm(f_new)
            actred = -1.0
            if 0.1 * fnorm1 < fnorm:
                t = fnorm1 / fnorm
                actred = 1.0 - t * t
            wa3 = [0.0] * n
            for j in range(n):
                for i in range(j + 1):
                    wa3[i] += r[j][i] * p[ipvt[j]]
            temp1 = enorm(wa3) / fnorm
            temp2 = (math.sqrt(par) * pnorm) / fnorm
            prered = temp1 * temp1 + temp2 * temp2 / 0.5
            dirder = -(temp1 * temp1 + temp2 * temp2)
            ratio = actred / prered if prered != 0.0 else 0.0
            if ratio <= 0.25:  # shrink the trust region
                t = 0.5 if actred >= 0.0 else 0.5 * dirder / (dirder + 0.5 * actred)
                if 0.1 * fnorm1 >= fnorm or t < 0.1:
                    t = 0.1
                delta = t * min(delta, pnorm / 0.1)
                par = par / t
            elif par == 0.0 or ratio >= 0.75:
                delta = pnorm / 0.5
                par = 0.5 * par
            if ratio >= 1e-4:  # accept the step
                x, fvec, fnorm = x_new, f_new, fnorm1
                xnorm = enorm(np.multiply(diag, x))
                first = False
            # MINPACK's ftol, xtol and maxfev tests; its eps tests cannot fire
            # first with TOL > EPS, and gnorm <= TOL returned above
            if (abs(actred) <= TOL and prered <= TOL and 0.5 * ratio <= 1.0
                    or delta <= TOL * xnorm or nfev >= 100 * n):
                return x
            if ratio >= 1e-4:
                break
