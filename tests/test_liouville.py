"""The exact Liouville solution against an independent RK4 oracle."""

import numpy as np
import pytest

from epdiff_radial.grid import RadialGrid
from epdiff_radial.liouville import (
    liouville_blowup_time,
    liouville_exact,
    liouville_picard_oracle,
    theta_tail,
)
from conftest import neg_exp_bump


@pytest.fixture(scope="module")
def grid():
    return RadialGrid.uniform(512, 20.0)


def test_theta_tail_closed_form(grid):
    # z0 = -2 r e^{-r^2} has tail integral -e^{-r^2} + e^{-R^2}
    r = grid.r
    z0 = -2.0 * r * np.exp(-(r**2))
    theta = theta_tail(z0, r)
    np.testing.assert_allclose(
        theta, -np.exp(-(r**2)) + np.exp(-400.0), rtol=0, atol=5e-6
    )
    assert theta[-1] == 0.0


def test_exact_formula_is_perfect_square():
    theta = np.array([-2.0, -0.5, 0.0, 1.0])
    q = liouville_exact(theta, 0.7)
    np.testing.assert_allclose(q, (1.0 + 0.35 * theta) ** 2, rtol=1e-15)
    assert np.all(q >= 0.0)
    np.testing.assert_allclose(liouville_exact(theta, 0.0), 1.0)


def test_blowup_time():
    assert liouville_blowup_time(np.array([-4.0, -1.0, 0.0])) == pytest.approx(0.5)
    # nonnegative tails never blow up
    assert liouville_blowup_time(np.array([0.0, 2.0, 5.0])) == np.inf
    # t = T zeroes q exactly at the minimizer
    theta = np.array([-4.0, -1.0])
    assert liouville_exact(theta, 0.5)[0] == pytest.approx(0.0, abs=1e-30)


def test_oracle_matches_exact_solution(grid):
    r = grid.r
    z0 = neg_exp_bump(r, 2.0, 8.0)
    theta = theta_tail(z0, r)
    t_star = liouville_blowup_time(theta)
    horizon = 0.5 * t_star
    times, q_hist = liouville_picard_oracle(z0, horizon, grid)
    err = np.max(np.abs(q_hist[-1] - liouville_exact(theta, horizon)))
    assert err < 1e-7, err


def test_oracle_matches_exact_mixed_sign(grid):
    # a momentum with positive part: q grows somewhere, still exact
    r = grid.r
    z0 = neg_exp_bump(r, 2.0, 6.0) - neg_exp_bump(r, 8.0, 12.0, amplitude=0.5)
    theta = theta_tail(z0, r)
    times, q_hist = liouville_picard_oracle(z0, 0.4 * liouville_blowup_time(theta), grid)
    err = np.max(np.abs(q_hist[-1] - liouville_exact(theta, times[-1])))
    assert err < 1e-7, err


def test_oracle_aborts_near_blowup(grid):
    z0 = neg_exp_bump(grid.r, 2.0, 8.0)
    t_star = liouville_blowup_time(theta_tail(z0, grid.r))
    with pytest.raises(RuntimeError, match="aborted"):
        liouville_picard_oracle(z0, 0.999 * t_star, grid, dt=1e-4)


def test_oracle_zero_momentum_is_constant(grid):
    times, q_hist = liouville_picard_oracle(np.zeros(grid.num), 1.0, grid)
    np.testing.assert_allclose(q_hist, 1.0, rtol=0, atol=1e-15)


def reference_oracle(z0, horizon, grid, dt=None):
    """The oracle as a loop of out-of-place operations: each RHS is one
    ``quadrature.tail`` call on the support of z_0, each stage a new array."""
    z0 = np.asarray(z0, dtype=float)
    tail = grid.quadrature.tail
    nonzero = z0.nonzero()[0]
    a, b = (nonzero[0], nonzero[-1] + 1) if len(nonzero) else (0, len(z0))
    z0_support = z0[a:b]

    def rhs(lnq):
        return tail(z0_support * np.exp(-lnq[a:b]), start=a)

    lnq = np.zeros_like(z0)
    if dt is None:
        scale = float(np.max(np.abs(rhs(lnq))))
        dt = horizon / 16.0 if scale == 0.0 else min(1e-3 / scale, horizon)
    steps = max(1, int(np.ceil(horizon / dt - 1e-12)))
    dt = horizon / steps
    q_hist = np.empty((steps + 1, len(z0)))
    q_hist[0] = 1.0
    for m in range(steps):
        k1 = rhs(lnq)
        k2 = rhs(lnq + 0.5 * dt * k1)
        k3 = rhs(lnq + 0.5 * dt * k2)
        k4 = rhs(lnq + dt * k3)
        lnq = lnq + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        q_hist[m + 1] = np.exp(lnq)
    return np.linspace(0.0, horizon, steps + 1), q_hist


@pytest.mark.parametrize(
    "case", ["bump", "mixed_sign", "edge", "zero", "given_dt"])
def test_oracle_equals_the_out_of_place_loop(case):
    # the window set up once and the stages built in place give the
    # history of the plain loop byte for byte
    grid = RadialGrid.uniform(256, 20.0)
    r = grid.r
    z0, fraction, dt = neg_exp_bump(r, 2.0, 8.0), 0.5, None
    if case == "mixed_sign":
        z0 = z0 - neg_exp_bump(r, 8.0, 12.0, amplitude=0.5)
    elif case == "edge":
        z0 = -np.exp(-((r - 15.0) ** 2))  # nonzero on every node
    elif case == "zero":
        z0 = np.zeros(grid.num)
    elif case == "given_dt":
        fraction, dt = 0.3, 0.01
    t_star = liouville_blowup_time(theta_tail(z0, r))
    horizon = 1.0 if np.isinf(t_star) else fraction * t_star
    times, q_hist = liouville_picard_oracle(z0, horizon, grid, dt=dt)
    ref_times, ref_hist = reference_oracle(z0, horizon, grid, dt=dt)
    assert times.tobytes() == ref_times.tobytes()
    assert q_hist.shape == ref_hist.shape and len(q_hist) > 2
    assert q_hist.tobytes() == ref_hist.tobytes()
