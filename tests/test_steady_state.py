import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kerrsqueeze import (
    HBAR,
    PumpConfig,
    ResonatorParams,
    SteadyStateBranch,
    injection_locking_point,
    omega_from_wavelength,
    steady_roots,
    sweep,
    threshold_power,
    total_loss,
    transmission,
)

from kerrsqueeze.steady_state import _grid_roots, _pick_roots, _scaled_roots, _solve_scaled
from oracles import (
    argmin_pick_roots,
    dense_solve_scaled,
    loop_sweep,
    pow_lineshape,
    scaled_discriminant,
    scaled_roots_brute,
    scalar_branch,
    two_step_branch_pick,
)

OM = omega_from_wavelength(1550e-9)


def params_for_scaled(g: float, kappa=500e6, gamma=50e6, p_in=4e-3, th_frac=0.0):
    """Raw parameters that realize the dimensionless cubic coefficient g."""
    loss = kappa + gamma
    beta2 = p_in / (HBAR * OM)
    n_lock = 4.0 * kappa * beta2 / (loss * loss)
    g_sum = g * loss / n_lock
    return ResonatorParams(
        kappa=kappa,
        gamma=gamma,
        g_opt=(1.0 - th_frac) * g_sum,
        g_th=th_frac * g_sum,
        lambda_r=1550e-9,
    ), p_in, n_lock


def _point(trace, i):
    """Entry i of a sweep's columns as one branch."""
    return SteadyStateBranch(n=float(trace.n[i]), delta_cl=float(trace.delta_cl[i]),
                             delta_f=float(trace.delta_f[i]), stable=bool(trace.stable[i]),
                             alpha_phase=float(trace.alpha_phase[i]))


def resid(params, p_in, delta_p, n):
    loss = total_loss(params)
    beta2 = p_in / (HBAR * OM)
    g_sum = params.g_opt + params.g_th
    d = delta_p + g_sum * n
    return n * (loss * loss / 4.0 + d * d) - params.kappa * beta2


def test_zero_power_single_zero_root(strong_params):
    roots = steady_roots(strong_params, -1e9, 0.0)
    assert len(roots) == 1
    assert roots[0].n == 0.0
    assert roots[0].stable is True
    assert roots[0].delta_cl == -1e9


def test_roots_satisfy_state_equation():
    for g in (1e-10, 1e-4, 0.05, 0.3, 1.0, 5.0, 40.0):
        params, p_in, n_lock = params_for_scaled(g)
        loss = total_loss(params)
        for delta in (-8.0, -2.0, -0.9, -0.5, 0.0, 0.4, 3.0):
            roots = steady_roots(params, delta * loss, p_in)
            assert 1 <= len(roots) <= 3
            for b in roots:
                scale = params.kappa * p_in / (HBAR * OM)
                assert abs(resid(params, p_in, delta * loss, b.n)) < 1e-9 * scale
                assert 0.0 < b.n <= n_lock * (1.0 + 1e-12)


def test_roots_match_companion_solver():
    for g in (1e-3, 0.08, 0.7, 3.0, 25.0):
        params, p_in, n_lock = params_for_scaled(g, th_frac=0.4)
        loss = total_loss(params)
        for delta in np.linspace(-6.0, 1.0, 29):
            mine = [b.n / n_lock for b in steady_roots(params, delta * loss, p_in)]
            ref = scaled_roots_brute(g, delta)
            assert len(mine) == len(ref)
            for u, v in zip(mine, ref):
                assert u == pytest.approx(v, rel=1e-9)


def test_three_root_window_structure():
    # strong drive well inside the bistable window
    params, p_in, n_lock = params_for_scaled(2.0)
    loss = total_loss(params)
    roots = steady_roots(params, -2.0 * loss, p_in)
    assert len(roots) == 3
    ns = [b.n for b in roots]
    assert ns == sorted(ns)
    assert [b.stable for b in roots] == [True, False, True]


def test_linear_regime_matches_lorentzian():
    params, p_in, _ = params_for_scaled(1e-12)
    loss = total_loss(params)
    beta2 = p_in / (HBAR * OM)
    for delta_p in (-3e8, 0.0, 7e8):
        roots = steady_roots(params, delta_p, p_in)
        assert len(roots) == 1
        linear = params.kappa * beta2 / (loss * loss / 4.0 + delta_p * delta_p)
        assert roots[0].n == pytest.approx(linear, rel=1e-8)


def test_branch_detuning_relations(strong_params):
    b = steady_roots(strong_params, -5e9, 4e-3)[-1]
    g_sum = strong_params.g_opt + strong_params.g_th
    assert b.delta_cl == pytest.approx(-5e9 + g_sum * b.n, rel=1e-12)
    assert b.delta_f - b.delta_cl == pytest.approx(strong_params.g_opt * b.n, rel=1e-12)
    half = total_loss(strong_params) / 2.0
    assert b.alpha_phase == math.atan2(b.delta_cl, half)


class TestTransmission:
    def test_dip_depth(self, device_params):
        b = steady_roots(device_params, 0.0, 1e-15)[0]
        t = transmission(device_params, b)
        assert t == pytest.approx(0.20872103375219317, rel=1e-9)
        assert t == pytest.approx((515e6 - 192e6) ** 2 / 707e6**2, rel=1e-9)

    def test_half_depth_at_half_linewidth(self, device_params):
        loss = total_loss(device_params)
        t0 = transmission(device_params, steady_roots(device_params, 0.0, 1e-15)[0])
        for sign in (-1.0, 1.0):
            b = steady_roots(device_params, sign * loss / 2.0, 1e-15)[0]
            assert transmission(device_params, b) == pytest.approx(
                (1.0 + t0) / 2.0, rel=1e-9
            )

    def test_far_detuned_is_transparent(self, device_params):
        b = steady_roots(device_params, 1e12, 1e-15)[0]
        assert transmission(device_params, b) == pytest.approx(1.0, abs=1e-6)

    def test_critical_coupling_extinguishes(self):
        p = ResonatorParams(kappa=3e8, gamma=3e8, lambda_r=1550e-9)
        b = steady_roots(p, 0.0, 0.0)[0]
        assert transmission(p, b) == 0.0


class TestSweep:
    def grid(self, loss):
        return np.linspace(-60.0 * loss, 10.0 * loss, 401)

    def test_output_in_grid_order(self, strong_params):
        loss = total_loss(strong_params)
        grid = self.grid(loss)
        tr = sweep(strong_params, PumpConfig(p_in=4e-3, delta_p=grid, direction="down"))
        assert np.array_equal(tr.delta_p, grid)
        for name in ("n", "delta_cl", "delta_f", "stable", "alpha_phase", "transmission"):
            assert getattr(tr, name).shape == grid.shape, name
        assert tr.direction == "down"
        assert tr.n.shape == grid.shape

    def test_hysteresis_inside_window_only(self, strong_params):
        loss = total_loss(strong_params)
        p_in = 4e-3
        grid = self.grid(loss)
        down = sweep(strong_params, PumpConfig(p_in=p_in, delta_p=grid, direction="down"))
        up = sweep(strong_params, PumpConfig(p_in=p_in, delta_p=grid, direction="up"))
        beta2 = p_in / (HBAR * OM)
        n_lock = 4.0 * strong_params.kappa * beta2 / loss**2
        g = (strong_params.g_opt + strong_params.g_th) * n_lock / loss
        disc = scaled_discriminant(g, grid / loss)
        differs = np.abs(down.n - up.n) > 1e-6 * np.maximum(down.n, 1.0)
        assert np.any(differs)
        # sweeps may only disagree where three roots exist, and the down
        # sweep tracks the high branch there
        assert np.all(disc[differs] > 0)
        assert np.all(down.n[differs] > up.n[differs])
        # and they agree everywhere outside the window
        outside = disc < 0
        np.testing.assert_allclose(down.n[outside], up.n[outside], rtol=1e-9)

    def test_selected_branches_are_stable(self, strong_params):
        loss = total_loss(strong_params)
        grid = self.grid(loss)
        for direction in ("down", "up"):
            tr = sweep(strong_params, PumpConfig(p_in=4e-3, delta_p=grid, direction=direction))
            assert tr.stable.dtype == bool and tr.stable.all()

    def test_zero_power_sweep_flat(self, strong_params):
        grid = np.linspace(-1e9, 1e9, 21)
        tr = sweep(strong_params, PumpConfig(p_in=0.0, delta_p=grid, direction="up"))
        assert np.all(tr.n == 0.0)

    def test_non_monotone_grid_rejected(self, strong_params):
        bad = np.array([0.0, 1.0, 0.5])
        with pytest.raises(ValueError):
            sweep(strong_params, PumpConfig(p_in=1e-3, delta_p=bad, direction="down"))

    def test_transmission_column_matches_pointwise(self, strong_params):
        loss = total_loss(strong_params)
        grid = self.grid(loss)
        tr = sweep(strong_params, PumpConfig(p_in=4e-3, delta_p=grid, direction="down"))
        for i in (0, 100, 200, 400):
            assert tr.transmission[i] == pytest.approx(
                transmission(strong_params, _point(tr, i)), rel=1e-12
            )


class TestInjectionLocking:
    def test_known_point(self, strong_params):
        dpl, b = injection_locking_point(strong_params, 4e-3, OM)
        assert b.n == pytest.approx(206357175.12653685, rel=1e-13)
        assert dpl == pytest.approx(-20945253275.34349, rel=1e-13)
        assert b.delta_cl == 0.0
        assert b.stable is True

    def test_lock_root_is_largest_steady_root(self, strong_params):
        dpl, b = injection_locking_point(strong_params, 4e-3, OM)
        roots = steady_roots(strong_params, dpl, 4e-3)
        assert b.n == pytest.approx(max(r.n for r in roots), rel=1e-9)

    def test_lock_maximizes_circulating_power(self, strong_params):
        dpl, b = injection_locking_point(strong_params, 4e-3, OM)
        loss = total_loss(strong_params)
        for off in (-0.5 * loss, 0.5 * loss):
            roots = steady_roots(strong_params, dpl + off, 4e-3)
            assert max(r.n for r in roots) < b.n

    def test_zero_power_locks_at_origin(self, strong_params):
        dpl, b = injection_locking_point(strong_params, 0.0, OM)
        assert dpl == 0.0
        assert b.n == 0.0

    def test_transmission_at_lock_is_dip_minimum(self, strong_params):
        _, b = injection_locking_point(strong_params, 4e-3, OM)
        t = transmission(strong_params, b)
        k, g = strong_params.kappa, strong_params.gamma
        assert t == pytest.approx((k - g) ** 2 / (k + g) ** 2, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    g=st.floats(min_value=1e-6, max_value=100.0),
    delta=st.floats(min_value=-30.0, max_value=5.0),
)
def test_root_count_and_residual_property(g, delta):
    params, p_in, n_lock = params_for_scaled(g)
    loss = total_loss(params)
    roots = steady_roots(params, delta * loss, p_in)
    assert 1 <= len(roots) <= 3
    scale = params.kappa * p_in / (HBAR * OM)
    for b in roots:
        assert abs(resid(params, p_in, delta * loss, b.n)) < 1e-9 * scale
    ns = [b.n for b in roots]
    assert ns == sorted(ns)


# sweeps whose grid spans lo..lo+width hundredths of (g + 1) linewidths, so
# it often cuts the three-root window that lies between about -g and -1
_random_sweeps = given(
    tenth_g=st.integers(min_value=0, max_value=600),
    th_frac=st.floats(min_value=0.0, max_value=1.0),
    zero_power=st.sampled_from([False, False, False, True]),
    lo=st.integers(min_value=-120, max_value=10),
    width=st.integers(min_value=1, max_value=150),
    points=st.integers(min_value=1, max_value=400),
    descending=st.booleans(),
    direction=st.sampled_from(["up", "down"]),
)


def _random_sweep(tenth_g, th_frac, zero_power, lo, width, points, descending, direction):
    g = tenth_g / 10.0
    params, p_in, _ = params_for_scaled(g, th_frac=th_frac)
    p_in = 0.0 if zero_power else p_in
    span = (g + 1.0) * total_loss(params) / 100.0
    grid = np.linspace(lo * span, (lo + width) * span, points)
    if descending:
        grid = grid[::-1]
    return params, p_in, grid, sweep(params, PumpConfig(p_in=p_in, delta_p=grid,
                                                         direction=direction))


@settings(max_examples=300, deadline=None)
@_random_sweeps
def test_sweep_matches_two_step_rule(tenth_g, th_frac, zero_power, lo, width, points,
                                     descending, direction):
    # "nearest stable root, else nearest root, from n = 0" must pick exactly
    # what the two-step rule picks: same n, stability and transmission bits.
    params, p_in, grid, tr = _random_sweep(tenth_g, th_frac, zero_power, lo, width, points,
                                           descending, direction)

    u, stable, n_lock = _grid_roots(params, grid, p_in, OM)
    forward = (points == 1 or grid[1] > grid[0]) == (direction == "up")
    order = range(points) if forward else range(points - 1, -1, -1)
    chosen = two_step_branch_pick(u, stable, order)
    ref = [scalar_branch(params, grid[i], u[i, j] * n_lock, bool(stable[i, j]))
           for i, j in enumerate(chosen)]
    assert tr.n.tobytes() == np.array([b.n for b in ref]).tobytes()
    assert tr.stable.tolist() == [b.stable for b in ref]
    assert tr.transmission.tobytes() == np.array([transmission(params, b) for b in ref]).tobytes()


@settings(max_examples=300, deadline=None)
@_random_sweeps
def test_sweep_columns_match_the_per_point_loop(tenth_g, th_frac, zero_power, lo, width, points,
                                                descending, direction):
    # the columnar pick and arithmetic give the loop's exact bits in every column
    params, p_in, grid, tr = _random_sweep(tenth_g, th_frac, zero_power, lo, width, points,
                                           descending, direction)
    u, stable, n_lock = _grid_roots(params, grid, p_in, OM)
    ref = loop_sweep(params, grid, u, stable, n_lock, direction)
    for name, column in ref.items():
        got = getattr(tr, name)
        assert got.dtype == column.dtype, name
        assert got.tobytes() == column.tobytes(), name


def _fresh_loop_sweep(params, trace):
    """loop_sweep columns for ``trace`` from a root table solved anew."""
    _scaled_roots.cache_clear()
    u, stable, n_lock = _grid_roots(params, trace.delta_p, trace.p_in, trace.omega_p)
    return loop_sweep(params, trace.delta_p, u, stable, n_lock, trace.direction)


@pytest.mark.parametrize("runs", [
    [(4e-3, "down"), (4e-3, "up"), (2e-3, "down"), (2e-3, "up")],
    [(0.0, "down"), (-0.0, "down"), (0.0, "up"), (-0.0, "up")],
], ids=["down-then-up", "zero-then-minus-zero"])
def test_sweep_sequences_match_the_loop_by_bytes(strong_params, runs):
    # the second direction at a power reuses the first one's root table, and
    # p_in -0.0 (whose n column is -0.0) never shares 0.0's
    grid = np.linspace(-30e9, 5e9, 701)
    traces = [sweep(strong_params, PumpConfig(p_in=p_in, delta_p=grid, direction=direction))
              for p_in, direction in runs]
    for tr in traces:
        ref = _fresh_loop_sweep(strong_params, tr)
        for name, column in ref.items():
            assert getattr(tr, name).tobytes() == column.tobytes(), (tr.p_in, tr.direction, name)
        assert np.signbit(tr.n).all() == (math.copysign(1.0, tr.p_in) < 0)


def test_second_direction_reuses_the_roots(strong_params):
    grid = np.linspace(-30e9, 5e9, 301)
    _scaled_roots.cache_clear()
    for p_in in (4e-3, 0.0, -0.0):
        for direction in ("down", "up"):
            sweep(strong_params, PumpConfig(p_in=p_in, delta_p=grid, direction=direction))
    info = _scaled_roots.cache_info()
    assert (info.hits, info.misses) == (3, 3)
    u, stable, _ = _grid_roots(strong_params, grid, 4e-3, OM)
    with pytest.raises(ValueError):
        u[0, 0] = 1.0
    with pytest.raises(ValueError):
        stable[0, 0] = False


def test_mutating_a_trace_leaves_the_next_sweep_alone(strong_params):
    grid = np.linspace(-30e9, 5e9, 301)
    pump = PumpConfig(p_in=4e-3, delta_p=grid, direction="down")
    first = sweep(strong_params, pump)
    for name in ("delta_p", "n", "delta_cl", "delta_f", "alpha_phase", "transmission"):
        getattr(first, name)[:] = 7.0
    first.stable[:] = ~first.stable
    for direction in ("down", "up"):
        tr = sweep(strong_params, PumpConfig(p_in=4e-3, delta_p=grid, direction=direction))
        assert tr.delta_p.tobytes() == grid.tobytes()
        for name, column in _fresh_loop_sweep(strong_params, tr).items():
            assert getattr(tr, name).tobytes() == column.tobytes(), (direction, name)


def test_sweep_alpha_phase_is_math_atan2(strong_params):
    # np.arctan2 differs from math.atan2 in the last bit on some inputs, and
    # the phase feeds the detuning spectrum's bytes
    loss = total_loss(strong_params)
    grid = np.linspace(-60.0 * loss, 10.0 * loss, 2001)
    for direction in ("up", "down"):
        tr = sweep(strong_params, PumpConfig(p_in=4e-3, delta_p=grid, direction=direction))
        for alpha_phase, delta_cl in zip(tr.alpha_phase.tolist(), tr.delta_cl.tolist()):
            assert alpha_phase == math.atan2(delta_cl, loss / 2.0)
        # computed on the first read, then kept
        assert tr.alpha_phase is tr.alpha_phase


@settings(max_examples=300, deadline=None)
@given(
    kappa=st.floats(min_value=1e6, max_value=1e11),
    gamma=st.floats(min_value=0.0, max_value=1e11),
    tenth_g=st.integers(min_value=0, max_value=300),
    zero_power=st.sampled_from([False, False, False, True]),
    lo=st.integers(min_value=-120, max_value=10),
    width=st.integers(min_value=1, max_value=150),
    decades=st.integers(min_value=0, max_value=8),
    points=st.integers(min_value=1, max_value=200),
    direction=st.sampled_from(["up", "down"]),
)
def test_sweep_transmission_is_the_scalar_lineshape(kappa, gamma, tenth_g, zero_power, lo, width,
                                                    decades, points, direction):
    # the sweep's array lineshape and the scalar transmission() share one
    # kernel, so they agree bit for bit; squaring with d*d instead of libm
    # pow moves a value by at most a few ulp
    g = tenth_g / 10.0
    params, p_in, _ = params_for_scaled(g, kappa=kappa, gamma=gamma)
    p_in = 0.0 if zero_power else p_in
    span = (g + 1.0) * total_loss(params) / 100.0 * 10.0**decades
    grid = np.linspace(lo * span, (lo + width) * span, points)
    tr = sweep(params, PumpConfig(p_in=p_in, delta_p=grid, direction=direction))

    scalar = np.array([transmission(params, _point(tr, i)) for i in range(points)])
    assert tr.transmission.tobytes() == scalar.tobytes()
    ref = np.array([pow_lineshape(d, kappa, gamma) for d in tr.delta_cl.tolist()])
    ulps = np.abs(tr.transmission.view(np.int64) - ref.view(np.int64))
    assert ulps.max() <= 4, (ulps.max(), tr.transmission[ulps.argmax()])


@settings(max_examples=300, deadline=None)
@given(
    kappa=st.floats(min_value=1e6, max_value=1e11),
    gamma=st.floats(min_value=0.0, max_value=1e11),
    tenth_g=st.integers(min_value=0, max_value=600),
    th_frac=st.floats(min_value=0.0, max_value=1.0),
    power=st.sampled_from([0.0, 1e-6, 1.0, 1.7, 250.0]),
    frac=st.floats(min_value=-1.5, max_value=0.2),
)
def test_scalar_calls_match_the_per_point_rule(kappa, gamma, tenth_g, th_frac, power, frac):
    # steady_roots and injection_locking_point derive delta_cl, delta_f and
    # alpha_phase with the sweep's column helper; each field keeps the bits
    # the per-point rule gave, -0.0 included
    g = tenth_g / 10.0
    params, p_in, _ = params_for_scaled(g, kappa=kappa, gamma=gamma, th_frac=th_frac)
    p_in *= power
    delta_p = frac * (g + 1.0) * total_loss(params)

    u, stable, n_lock = _grid_roots(params, np.array([delta_p]), p_in, OM)
    ref = [scalar_branch(params, delta_p, u[0, j] * n_lock, bool(stable[0, j]))
           for j in range(3) if not math.isnan(u[0, j])]
    got = steady_roots(params, delta_p, p_in, OM)
    assert [repr(astuple(b)) for b in got] == [repr(astuple(b)) for b in ref]

    delta_p_lock, branch = injection_locking_point(params, p_in, OM)
    ref_lock = -(params.g_opt + params.g_th) * n_lock
    assert repr(delta_p_lock) == repr(ref_lock)
    assert repr(astuple(branch)) == repr(astuple(scalar_branch(params, ref_lock, n_lock, True)))


@settings(max_examples=300, deadline=None)
@given(g=st.one_of(st.floats(min_value=0.0, max_value=400.0), st.sampled_from([0.0, 1e-9, 1.0])),
       ends=st.tuples(st.floats(min_value=-1.5, max_value=0.5),
                      st.floats(min_value=-1.5, max_value=0.5)),
       points=st.integers(min_value=1, max_value=300))
def test_continuation_kernels_give_the_dense_argmin_bits(g, ends, points):
    # grids through the fold, ascending and descending: Newton runs on the
    # candidates only and the pick compares three distances per root, and
    # both must give what all 3K slots and a (K-1, 3, 3) argmin gave
    d = np.linspace(ends[0] * (g + 1.0), ends[1] * (g + 1.0), points)
    u = _solve_scaled(g, d)
    assert u.tobytes() == dense_solve_scaled(g, d).tobytes()
    if np.isnan(u[:, 0]).any():
        return
    shifted = d[:, None] + g * u
    with np.errstate(invalid="ignore"):
        stable = 0.25 + shifted * shifted + 2.0 * g * u * shifted > 0.0
    for order in (slice(None), slice(None, None, -1)):
        assert (_pick_roots(u[order], stable[order]).tolist()
                == argmin_pick_roots(u[order], stable[order]).tolist())


@st.composite
def _root_tables(draw):
    """(u, stable): rows of 1 to 3 ascending roots, NaN-padded, on a grid of
    eighths so that a root is often as far from the last pick as another."""
    rows = draw(st.integers(min_value=1, max_value=40))
    u, stable = np.full((rows, 3), np.nan), np.zeros((rows, 3), dtype=bool)
    for i in range(rows):
        roots = sorted(draw(st.sets(st.integers(min_value=1, max_value=16),
                                    min_size=1, max_size=3)))
        u[i, :len(roots)] = np.array(roots) / 8.0
        stable[i, :len(roots)] = draw(st.lists(st.booleans(), min_size=len(roots),
                                               max_size=len(roots)))
    return u, stable


@settings(max_examples=500, deadline=None)
@given(table=_root_tables())
def test_pick_roots_breaks_ties_as_the_argmin(table):
    u, stable = table
    for order in (slice(None), slice(None, None, -1)):
        assert (_pick_roots(u[order], stable[order]).tolist()
                == argmin_pick_roots(u[order], stable[order]).tolist())
