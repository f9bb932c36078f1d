"""Classical steady states of the driven Kerr ring: bistability and sweeps.

The intracavity photon number N at cold detuning d solves the real cubic

    N * ((Gamma/2)^2 + (d + G*N)^2) = kappa * |beta_in|^2,   G = g_opt + g_th,

with Gamma = kappa + gamma and |beta_in|^2 = P_in / (hbar * omega_p) the input
photon flux. Every physical root satisfies 0 < N <= N_lock = 4*kappa*
|beta_in|^2 / Gamma^2, so the solver works in the scaled variable
u = N / N_lock where all coefficients are O(1):

    g^2 u^3 + 2 g d' u^2 + (1/4 + d'^2) u - 1/4 = 0,

with g = G*N_lock/Gamma (peak shift in linewidths) and d' = d/Gamma. Roots
come from the depressed-cubic closed form and are polished with a few Newton
steps, so the residual is at rounding level rather than at some iteration
tolerance. The middle branch (negative df/dN, equivalently negative slope of
N against drive) is flagged unstable; tangency points count as unstable.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from itertools import repeat
from typing import List, Optional, Tuple

import numpy as np

from .core import PumpConfig, ResonatorParams, locked_photon_number, total_loss
from .errors import ModelError

# Below this nonlinearity ratio the cubic terms are under 1e-8 of the linear
# ones for every u in (0, 1]; the closed form would lose the root to
# cancellation, while one Newton step from the linear solution is exact.
_LINEAR_RATIO = 1e-8


@dataclass(frozen=True)
class SteadyStateBranch:
    """One classical steady-state root with its derived detunings.

    ``delta_cl = delta_p + (g_opt + g_th) * n`` is the detuning seen by the
    coherent field, ``delta_f = delta_cl + g_opt * n`` the one seen by the
    fluctuations, and ``alpha_phase`` the intracavity field phase relative to
    the input field.
    """

    n: float
    delta_cl: float
    delta_f: float
    stable: bool
    alpha_phase: float


@dataclass(frozen=True)
class SweepTrace:
    """Branch-continued solution along a detuning grid, one array per column.

    Entry i of every array belongs to grid point ``delta_p[i]``; the columns
    mean what the same-named :class:`SteadyStateBranch` fields mean, plus the
    power ``transmission`` past the ring.
    """

    delta_p: np.ndarray
    n: np.ndarray
    delta_cl: np.ndarray
    delta_f: np.ndarray
    stable: np.ndarray
    alpha_phase: np.ndarray
    transmission: np.ndarray
    direction: str
    p_in: float
    omega_p: float


def _zip_branches(n: np.ndarray, delta_cl: np.ndarray, delta_f: np.ndarray,
                  stable: np.ndarray, alpha_phase: np.ndarray) -> Tuple[SteadyStateBranch, ...]:
    return tuple(map(SteadyStateBranch, n.tolist(), delta_cl.tolist(), delta_f.tolist(),
                     stable.tolist(), alpha_phase.tolist()))


def _operating_columns(
    params: ResonatorParams, delta_p: np.ndarray, n: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(delta_cl, delta_f, alpha_phase) at cold detunings ``delta_p`` and photon numbers ``n``."""
    # out of the float range these come out inf, as with Python floats
    with np.errstate(over="ignore", invalid="ignore"):
        delta_cl = delta_p + (params.g_opt + params.g_th) * n
        delta_f = delta_cl + params.g_opt * n
    # math.atan2, not np.arctan2: the two differ in the last bit on some inputs
    alpha_phase = np.fromiter(map(math.atan2, delta_cl.tolist(), repeat(total_loss(params) / 2.0)),
                              float, count=delta_cl.size)
    return delta_cl, delta_f, alpha_phase


def _solve_scaled(g: float, delta: np.ndarray) -> np.ndarray:
    """All roots u in (0, 1] of the scaled cubic, per detuning grid point.

    Returns an (K, 3) array, ascending per row, NaN-padded; ``g`` >= 0.
    """
    delta = np.asarray(delta, dtype=float)
    lin_c = 0.25 + delta * delta
    cand = np.full((delta.size, 3), np.nan)

    rho = (g * g + 2.0 * g * np.abs(delta)) / lin_c
    lin_mask = rho < _LINEAR_RATIO
    cand[lin_mask, 0] = 0.25 / lin_c[lin_mask]

    cub = ~lin_mask
    if np.any(cub):
        d = delta[cub]
        # depressed cubic t^3 + p t + q after u = t - 2 d / (3 g)
        p = (0.25 - d * d / 3.0) / (g * g)
        q = -((2.0 / 27.0) * d**3 + d / 6.0) / g**3 - 0.25 / (g * g)
        shift = 2.0 * d / (3.0 * g)
        disc = -4.0 * p**3 - 27.0 * q * q

        roots = np.full((d.size, 3), np.nan)
        three = disc > 0.0  # implies p < 0
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

    # Newton polish on the well-conditioned original form; NaNs pass through.
    dd = delta[:, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        for _ in range(5):
            shifted = dd + g * cand
            f = cand * (0.25 + shifted * shifted) - 0.25
            fp = 0.25 + shifted * shifted + 2.0 * g * cand * shifted
            step = f / fp
            step = np.clip(step, -0.5, 0.5)
            cand = cand - step
        # reject non-physical or unconverged candidates
        shifted = dd + g * cand
        resid = np.abs(cand * (0.25 + shifted * shifted) - 0.25)
        bad = (cand <= 0.0) | (resid > 1e-9 * 0.25)
    cand[bad] = np.nan

    cand = np.sort(cand, axis=1)  # NaNs sort to the end
    # merge numerically identical roots (tangency collapses to a double root)
    for j in (1, 2):
        with np.errstate(invalid="ignore"):
            dup = np.abs(cand[:, j] - cand[:, j - 1]) <= 1e-11 * np.abs(cand[:, j])
        cand[dup, j] = np.nan
    return np.sort(cand, axis=1)


@functools.lru_cache(maxsize=1)
def _scaled_roots(g_bits: bytes, d_bits: bytes) -> Tuple[np.ndarray, np.ndarray]:
    """Read-only (u_roots, stable) of the scaled cubic for ``g`` and grid ``d``
    given by their float64 bytes.

    One entry is kept: a hysteresis sweep solves each power's grid once for
    both directions. Keying on bytes keeps -0.0 and 0.0 apart.
    """
    (g,) = struct.unpack("d", g_bits)
    d = np.frombuffer(d_bits)
    # out of the float range the roots come out NaN and are reported by the caller
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            u = _solve_scaled(g, d)
        except OverflowError:  # g**3 on a Python float
            u = np.full((d.size, 3), np.nan)
        shifted = d[:, None] + g * u
        stable = 0.25 + shifted * shifted + 2.0 * g * u * shifted > 0.0
    u.flags.writeable = False
    stable.flags.writeable = False
    return u, stable


def _grid_roots(
    params: ResonatorParams, delta_p: np.ndarray, p_in: float, omega_p: float
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Scaled roots and stability flags for a whole detuning grid.

    Returns (u_roots, stable, n_lock) where u_roots is (K, 3) NaN-padded and
    both arrays are read-only. Raises ModelError when some grid point has no
    finite root.
    """
    n_lock = locked_photon_number(params, p_in, omega_p)
    loss = total_loss(params)
    g = (params.g_opt + params.g_th) * n_lock / loss
    d = delta_p / loss
    u, stable = _scaled_roots(struct.pack("d", g), d.tobytes())
    empty = np.isnan(u[:, 0])
    if empty.any():
        raise ModelError(f"no finite steady state at delta_p = {float(delta_p[empty][0])!r} rad/s")
    return u, stable, n_lock


def steady_roots(
    params: ResonatorParams,
    delta_p: float,
    p_in: float,
    omega_p: Optional[float] = None,
) -> List[SteadyStateBranch]:
    """All real steady-state branches at one cold detuning, ascending in n.

    Root count is 1, 2 (at a tangency) or 3. Zero pump power returns the
    single vacuum root n = 0.
    """
    if omega_p is None:
        omega_p = params.resonance_omega
    grid = np.array([delta_p], dtype=float)
    u, stable, n_lock = _grid_roots(params, grid, p_in, omega_p)
    live = ~np.isnan(u[0])
    n = u[0, live] * n_lock
    delta_cl, delta_f, alpha_phase = _operating_columns(params, grid, n)
    return list(_zip_branches(n, delta_cl, delta_f, stable[0, live], alpha_phase))


def lineshape(delta: float | np.ndarray, kappa: float, gamma: float) -> float | np.ndarray:
    """Linear-cavity transmission at detuning ``delta`` (a float or an array) from the line."""
    num = (kappa - gamma) ** 2 / 4.0 + delta * delta
    return num / ((kappa + gamma) ** 2 / 4.0 + delta * delta)


def transmission(params: ResonatorParams, branch: SteadyStateBranch) -> float:
    """Power transmission past the ring at the branch's operating point."""
    t = lineshape(branch.delta_cl, params.kappa, params.gamma)
    if not math.isfinite(t):
        raise ModelError(f"transmission not finite at delta_cl = {branch.delta_cl!r} rad/s")
    return t


def _pick_roots(u: np.ndarray, stable: np.ndarray) -> np.ndarray:
    """Root index a sweep keeps at each row of ``u``, rows in sweep order.

    The rule: the stable root nearest in u to the previous pick (the first
    row measures from 0), else the nearest root; the lowest index wins ties.
    ``nxt[i - 1, j]`` is the pick at row i after root j at row i - 1, for all
    rows at once. Where it maps every root that row i - 1 could have picked to
    itself the pick cannot change, so Python walks only the other rows (folds
    and root-count changes) and numpy fills the runs between them.
    """
    live = ~np.isnan(u)
    pool = stable | (live & ~stable.any(axis=1, keepdims=True))
    dist = np.where(pool[1:, None, :], np.abs(u[1:, None, :] - u[:-1, :, None]), np.inf)
    nxt = dist.argmin(axis=2)
    moves = (pool[:-1] & (nxt != np.arange(3))).any(axis=1)

    pick = np.empty(len(u), dtype=np.intp)
    j = int(np.where(pool[0], u[0], np.inf).argmin())  # u > 0 is its distance from 0
    start = 0
    for i in (np.flatnonzero(moves) + 1).tolist():
        pick[start:i] = j
        j = int(nxt[i - 1, j])
        start = i
    pick[start:] = j
    return pick


def sweep(params: ResonatorParams, pump: PumpConfig) -> SweepTrace:
    """Branch-continued steady states along the pump's detuning grid.

    Traversal order follows ``pump.direction`` ("down" = decreasing pump
    frequency); output arrays stay in the grid's stored order. Each step keeps
    the stable root nearest in n to the previous pick (the first point is
    measured from n = 0), or the nearest root when none is stable. A branch is
    therefore followed until it folds away, which is what produces hysteresis
    between directions.
    """
    grid = pump.delta_p
    omega_p = pump.omega_p if pump.omega_p is not None else params.resonance_omega
    u, stable, n_lock = _grid_roots(params, grid, pump.p_in, omega_p)

    ascending = grid.size == 1 or grid[1] > grid[0]
    forward = ascending == (pump.direction == "up")
    order = slice(None) if forward else slice(None, None, -1)
    pick = _pick_roots(u[order], stable[order])[order]

    rows = np.arange(grid.size)
    n = u[rows, pick] * n_lock
    delta_cl, delta_f, alpha_phase = _operating_columns(params, grid, n)
    with np.errstate(over="ignore", invalid="ignore"):
        trans = lineshape(delta_cl, params.kappa, params.gamma)
    bad = ~np.isfinite(trans)
    if bad.any():
        raise ModelError(f"transmission not finite at delta_p = {float(grid[bad][0])!r} rad/s")
    return SweepTrace(
        delta_p=grid.copy(),
        n=n,
        delta_cl=delta_cl,
        delta_f=delta_f,
        stable=stable[rows, pick],
        alpha_phase=alpha_phase,
        transmission=trans,
        direction=pump.direction,
        p_in=pump.p_in,
        omega_p=omega_p,
    )


def injection_locking_point(
    params: ResonatorParams,
    p_in: float,
    omega_p: Optional[float] = None,
) -> Tuple[float, SteadyStateBranch]:
    """Detuning and branch where the shifted resonance meets the pump.

    At this point delta_cl = 0, the photon number takes its global maximum
    n_lock = 4 kappa |beta_in|^2 / Gamma^2, and the intracavity field is in
    phase with the input.
    """
    if omega_p is None:
        omega_p = params.resonance_omega
    n_lock = locked_photon_number(params, p_in, omega_p)
    delta_p_lock = -(params.g_opt + params.g_th) * n_lock
    if not math.isfinite(delta_p_lock):
        raise ModelError(f"locking detuning is not finite at p_in = {p_in}")
    n = np.array([n_lock])
    delta_cl, delta_f, alpha_phase = _operating_columns(params, np.array([delta_p_lock]), n)
    (branch,) = _zip_branches(n, delta_cl, delta_f, np.array([True]), alpha_phase)
    return delta_p_lock, branch
