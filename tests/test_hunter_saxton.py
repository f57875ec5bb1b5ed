"""Exact radial Hunter-Saxton flow: internal identities and oracles.

The n = 1 case has a fully independent pencil-and-paper oracle for a piecewise
test profile; higher n is checked through the defining relations
d/dr gamma^n = n r^{n-1} q and rho = gamma^{n-1} q / ... rather than a second
closed form.
"""

import numpy as np
import pytest

from epdiff_radial.grid import RadialGrid
from epdiff_radial.hunter_saxton import HSExactSolution
from epdiff_radial.kernels import KernelSpec, invert_operator
from epdiff_radial.quadrature import deriv1_uniform
from conftest import neg_exp_bump


@pytest.fixture(scope="module")
def grid():
    return RadialGrid.uniform(1024, 20.0)


def test_time_zero_is_identity(grid):
    sol = HSExactSolution(3, grid, neg_exp_bump(grid.r))
    gamma, rho = sol.flow(0.0)
    np.testing.assert_allclose(gamma, grid.r, rtol=0, atol=1e-12)
    np.testing.assert_allclose(rho, 1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(sol.q(0.0), 1.0)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_flow_satisfies_defining_ode(grid, n):
    # d/dr gamma(t,r)^n = n r^{n-1} q(t,r), gamma(t,0) = 0
    sol = HSExactSolution(n, grid, neg_exp_bump(grid.r, 2.0, 8.0))
    t = 0.3 * sol.breakdown_time()
    gamma, rho = sol.flow(t)
    r = grid.r
    lhs = deriv1_uniform(gamma**n, r[1] - r[0], parity=(-1) ** n)
    rhs = n * r ** (n - 1.0) * sol.q(t)
    np.testing.assert_allclose(lhs[4:-4], rhs[4:-4], rtol=1e-6, atol=2e-5)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_rho_consistency(grid, n):
    # rho must equal r^{n-1} q / gamma^{n-1} wherever gamma > 0
    sol = HSExactSolution(n, grid, neg_exp_bump(grid.r, 1.0, 6.0))
    t = 0.4 * sol.breakdown_time()
    gamma, rho = sol.flow(t)
    q = sol.q(t)
    m = grid.r > 0
    np.testing.assert_allclose(
        rho[m], grid.r[m] ** (n - 1.0) * q[m] / gamma[m] ** (n - 1.0), rtol=1e-10
    )


def test_breakdown_iff_negative_theta(grid):
    r = grid.r
    neg = neg_exp_bump(r, 2.0, 8.0)

    def breakdown_time(omega0):
        return HSExactSolution(3, grid, omega0).breakdown_time()

    assert np.isfinite(breakdown_time(neg))
    # positive momentum: tail integrals are >= -1e-9 up to quadrature
    # roundoff, so the reported time is effectively infinite
    assert breakdown_time(-neg) > 1e8
    assert breakdown_time(np.zeros_like(r)) == np.inf


def test_rho_vanishes_at_breakdown(grid):
    sol = HSExactSolution(3, grid, neg_exp_bump(grid.r, 2.0, 8.0))
    t_star = sol.breakdown_time()
    # q hits zero exactly at the minimizer of Theta_0 at t = T*
    assert np.min(sol.q(t_star)) == pytest.approx(0.0, abs=1e-25)
    _, rho = sol.flow(0.99 * t_star)
    assert 0.0 < np.min(rho) < 0.1
    _, rho_half = sol.flow(0.5 * t_star)
    assert np.min(rho_half) > 0.2


def test_n1_piecewise_oracle():
    # omega_0 = -1 on [1, 2]: Theta_0 = -(2 - r) on [1, 2], -1 below, 0 above,
    # and everything is hand-integrable.  The profile is discontinuous, so the
    # code's quadrature only sees it to O(h) near the jumps; tolerances here
    # reflect that, not the exact formulas.
    grid = RadialGrid.uniform(4001, 4.0)
    r = grid.r
    omega0 = np.where((r >= 1.0) & (r <= 2.0), -1.0, 0.0)
    t = 0.8  # breakdown at T* = 2
    sol = HSExactSolution(1, grid, omega0)
    assert sol.breakdown_time() == pytest.approx(2.0, rel=5e-3)
    gamma, rho = sol.flow(t)
    a = 1.0 - t / 2.0  # 0.6
    # hand-integrated gamma on the inner and middle pieces
    mask_lo = r <= 1.0
    np.testing.assert_allclose(gamma[mask_lo], a**2 * r[mask_lo], rtol=5e-3)
    mid = (r > 1.0) & (r < 2.0)
    x = r[mid]
    # int_1^x (1 - (t/2)(2 - s))^2 ds with u = 1 - (t/2)(2 - s)
    upper = 1.0 - (t / 2.0) * (2.0 - x)
    gam_mid = a**2 + (upper**3 - a**3) / (3.0 * t / 2.0)
    np.testing.assert_allclose(gamma[mid], gam_mid, rtol=0, atol=5e-3)
    np.testing.assert_allclose(rho[mask_lo], a**2, rtol=5e-3)


def test_theta_identity_with_velocity(grid):
    # Theta_0 = u_0' + (n - 1) u_0 / r when u_0 solves the (0,1) operator
    # problem for omega_0 -- an independent cross-check of the kernel layer
    n = 3
    r = grid.r
    omega0 = neg_exp_bump(r, 2.0, 8.0)
    sol = HSExactSolution(n, grid, omega0)
    u0 = invert_operator(KernelSpec(0, 1, n), grid, omega0)
    du0 = deriv1_uniform(u0, r[1] - r[0])
    theta_from_u = du0.copy()
    theta_from_u[1:] += (n - 1.0) * u0[1:] / r[1:]
    theta_from_u[0] = n * du0[0]
    np.testing.assert_allclose(theta_from_u, sol.theta0, rtol=0, atol=1e-6)

