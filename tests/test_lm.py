"""The in-repo Levenberg–Marquardt solver against its reference.

``fit_linear_resonance`` once called ``scipy.optimize.least_squares(
method="lm", x_scale=...)``, and the pinned ``fit-transmission`` digests come
from it. ``_lm.least_squares_lm`` must give the same ``x`` bit for bit, so
the fits keep their bytes without scipy at run time. The comparisons are
the only tests that need scipy, and skip without it.
"""

import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kerrsqueeze import PoorFit, TransmissionTrace, characterize
from kerrsqueeze._lm import DWARF, _lmpar, enorm, least_squares_lm

SAMPLE_TRACE = Path(__file__).resolve().parent.parent / "sample_data" / "transmission_trace.csv"


class _Solved(Exception):
    """Ends the fit once its solver returned; only the solver is compared."""


def _assert_same_x_as_reference(trace):
    optimize = pytest.importorskip("scipy.optimize")
    calls = []

    def recording(fun, x0, x_scale):
        calls.append((fun, x0, x_scale, least_squares_lm(fun, x0, x_scale)))
        raise _Solved

    # the fits import the solver when they run, so it is replaced where it lives
    with mock.patch("kerrsqueeze._lm.least_squares_lm", recording), \
            pytest.raises(_Solved):
        characterize.fit_linear_resonance(trace, "over")
    (fun, x0, x_scale, x), = calls
    ref = optimize.least_squares(fun, x0, method="lm", x_scale=x_scale).x
    assert x.tobytes() == ref.tobytes(), (x.tolist(), ref.tolist())


def test_sample_trace_fit_is_the_reference_fit():
    lines = [l for l in SAMPLE_TRACE.read_text().splitlines() if not l.startswith("#")]
    freq, trans = np.array([[float(v) for v in l.split(",")] for l in lines[1:]]).T
    _assert_same_x_as_reference(TransmissionTrace(freq=freq, transmission=trans))


# over-coupled lines (kappa 1.5 to 10 times gamma): at kappa ~ gamma the two
# rate columns of the Jacobian become parallel, and there the reference's QR
# reads one element past its Jacobian array, so its x depends on the heap
@settings(max_examples=150, deadline=None)
@given(
    points=st.integers(min_value=20, max_value=400),
    gamma=st.floats(min_value=1e7, max_value=1e9),
    ratio=st.floats(min_value=1.5, max_value=10.0),
    offset=st.floats(min_value=-0.5, max_value=0.5),
    span=st.floats(min_value=2.0, max_value=30.0),
    noise=st.sampled_from([0.0, 0.001, 0.01, 0.03]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(points=201, gamma=192e6, ratio=515 / 192, offset=-0.33, span=14.1, noise=0.0, seed=0)
@example(points=201, gamma=192e6, ratio=515 / 192, offset=-0.33, span=14.1, noise=0.01, seed=1)
def test_random_lineshape_fits_are_the_reference_fits(points, gamma, ratio, offset, span,
                                                      noise, seed):
    kappa = ratio * gamma
    loss = kappa + gamma
    half = min(span, points / 8.0) * loss  # at least 4 samples per linewidth
    freq = np.linspace(-half, half, points)
    d = freq - offset * loss
    t = ((kappa - gamma) ** 2 / 4.0 + d * d) / (loss * loss / 4.0 + d * d)
    t = t * (1.0 + noise * np.random.default_rng(seed).standard_normal(points))
    _assert_same_x_as_reference(TransmissionTrace(freq=freq, transmission=t))


@pytest.mark.parametrize("x", [
    [3e-20, 4e-20],  # one entry below RDWARF, one above: the Fortran dropped the first
    [1e-30, 2e-30, 0.0],
    [1e200, -1e200, 3.0],
    [1e-30, 1.0, 1e30],
    [0.0, 0.0],
], ids=["small-and-mid", "all-small", "large", "every-range", "zeros"])
def test_enorm_scales_out_of_range_entries(x):
    # math.hypot scales too, and rounds within an ulp or two of the true norm
    assert enorm(x) == pytest.approx(math.hypot(*x), rel=4e-16, abs=0.0)


def _wall(fill):
    """Residual x - 3 up to x = 2 and ``fill`` beyond: the first step lands past 2."""
    return lambda x: np.array([fill if x[0] > 2.0 else x[0] - 3.0, 0.0])


def test_infinite_residual_mid_run_is_a_rejected_step():
    x = least_squares_lm(_wall(math.inf), [0.0], [1.0])
    assert 1.9 < x[0] <= 2.0


def test_an_underflowing_gradient_gives_the_smallest_positive_parameter():
    # R^T Q^T f = 1e-200 * 1e-200 underflows to 0 while the Gauss-Newton step
    # (1.0) leaves the trust radius 0.1: the bound on the parameter takes its
    # safety value, and the search starts from DWARF, not from 0
    par, x = _lmpar([[1e-200]], [0], [1.0], [1e-200], 0.1, 0.0)
    assert par == DWARF and 0.0 < x[0] <= 0.1


@pytest.mark.parametrize("fun,x0", [
    (_wall(math.nan), [0.0]),  # NaN once the first step is taken
    (lambda x: np.array([math.nan, x[0]]), [1.0]),
    (lambda x: np.array([math.inf, x[0]]), [1.0]),
    (lambda x: np.array([x[0], -math.inf]), [1.0]),
], ids=["nan-mid-run", "nan-at-x0", "inf-at-x0", "minus-inf-at-x0"])
def test_nan_or_non_finite_start_is_poor_fit(fun, x0):
    with pytest.raises(PoorFit):
        least_squares_lm(fun, x0, [1.0])
