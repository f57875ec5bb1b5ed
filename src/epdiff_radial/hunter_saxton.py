"""Closed-form radial Hunter-Saxton flow: exact ground truth for the solver.

For the homogeneous first-order metric (sigma = 0, k = 1) in any dimension n
the Lagrangian flow is explicit: with Theta_0(r) = int_r^inf omega_0 and

    q(t, r) = (1 + (t/2) Theta_0(r))^2 = gamma^{n-1} rho / r^{n-1},

the flow is recovered from d/dr gamma^n = n r^{n-1} q.  The solution breaks
down (rho reaches 0) at T* = 2/K, K = max(-min Theta_0, 0), exactly at the
minimizers of Theta_0; it exists globally iff Theta_0 >= 0 everywhere.
"""

from dataclasses import dataclass, field

import numpy as np

from .grid import RadialGrid
from .liouville import liouville_blowup_time, liouville_exact

__all__ = ["HSExactSolution"]


@dataclass
class HSExactSolution:
    """Exact Hunter-Saxton solution for one (n, omega_0) on a grid.

    Theta_0 is computed once from omega_0 samples as the tail sums of the
    grid's corrected trapezoid rule (never from derivatives of u_0; the identity
    Theta_0 = u_0' + (n-1) u_0 / r is a test, not a code path).
    """

    n: int
    grid: RadialGrid
    omega0: np.ndarray
    theta0: np.ndarray = field(init=False)

    def __post_init__(self):
        self.omega0 = np.asarray(self.omega0, dtype=float)
        self.theta0 = self.grid.quadrature.tail(self.omega0)

    def q(self, t):
        return liouville_exact(self.theta0, t)

    def flow(self, t):
        """(gamma, rho) at time t, stable down to r = 0.

        gamma = [n int_0^r s^{n-1} q ds]^{1/n} is evaluated as
        r (q(t,0) + J(r))^{1/n} with J = n r^{-n} int_0^r s^{n-1}(q - q(t,0)),
        so rho = q / (q(t,0) + J)^{(n-1)/n} involves no explicit powers of r
        and no 0^{1/n} cancellation near the origin.
        """
        r = self.grid.r
        n = self.n
        q = self.q(t)
        q0 = q[0]
        inner = self.grid.quadrature.prefix(r ** (n - 1.0) * (q - q0))
        base = np.full_like(q, q0)
        base[1:] += n * inner[1:] / r[1:] ** n
        gamma = r * base ** (1.0 / n)
        rho = q * base ** (-(n - 1.0) / n)
        return gamma, rho

    def breakdown_time(self):
        return liouville_blowup_time(self.theta0)

