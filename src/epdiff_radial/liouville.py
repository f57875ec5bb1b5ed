"""Exact Liouville-equation solutions and a Picard/RK4 cross-check oracle.

The scalar field q(t, r) with q(0, .) = 1 obeying

    d/dt ln q(t, r) = int_r^inf z_0(s) / q(t, s) ds

has the closed-form solution q(t, r) = (1 + (t/2) Theta_0(r))^2 with
Theta_0(r) = int_r^inf z_0, blowing up (q -> 0 somewhere) at T = 2/K,
K = max(-inf_r Theta_0, 0).  The exact formula is what the blowup
certificates are built on; the independent time-stepping oracle here exists
to validate it and is only used in tests.
"""

import numpy as np

from .quadrature import CorrectedTrapezoid

__all__ = [
    "theta_tail",
    "liouville_exact",
    "liouville_blowup_time",
    "liouville_picard_oracle",
]


def theta_tail(z0, r):
    """Tail integrals Theta_0(r_i) = int_{r_i}^{R_max} z_0, computed once."""
    return CorrectedTrapezoid(r).tail(np.asarray(z0, dtype=float))


def liouville_exact(theta0, t):
    """q(t, r) = (1 + (t/2) Theta_0(r))^2 on the sampled tail integrals.

    The formula remains valid past the blowup time (it is a perfect square);
    callers interpret zeros.
    """
    theta0 = np.asarray(theta0, dtype=float)
    return (1.0 + 0.5 * t * theta0) ** 2


def liouville_blowup_time(theta0):
    """T = 2/K with K = max(-min Theta_0, 0); returns inf when K = 0."""
    k = max(-float(np.min(theta0)), 0.0)
    return np.inf if k == 0.0 else 2.0 / k


def liouville_picard_oracle(z0, horizon, grid, dt=None):
    """Integrate the Liouville equation directly by RK4 from q = 1.

    Fixed step chosen so max|RHS| dt <= 1e-3 unless ``dt`` is given.
    Aborts (RuntimeError) if min q drops below 1e-3, where the oracle's
    tolerance claim no longer holds.  Raises ValueError unless the horizon
    is finite and positive and ``dt`` is None or finite and positive.

    Returns
    -------
    times : ndarray, shape (m+1,)
    q : ndarray, shape (m+1, N)
    """
    # NaN fails both comparisons, 0 divides by 0, a negative value runs backward
    if not (0.0 < horizon < np.inf and (dt is None or 0.0 < dt < np.inf)):
        raise ValueError("the horizon and dt must be finite and positive")
    z0 = np.asarray(z0, dtype=float)
    num = len(z0)
    nonzero = z0.nonzero()[0]
    a, b = (nonzero[0], nonzero[-1] + 1) if len(nonzero) else (0, num)
    z0_support = z0[a:b]
    # The right-hand side is quadrature.tail of z_0 e^-lnq over the support
    # [a, b) of z_0, formed as tail forms it but with its set-up done once:
    # one window, whose samples take the integrand, and a kept full-length
    # prefix (0 up to node i0, the running sums on i0 + 1 to i1, their
    # total beyond), so a call is its ufuncs alone.
    window = grid.quadrature.window(a, b, (), np.float64)
    i0, i1 = window.reach
    prefix = np.zeros(num)
    running, beyond = prefix[i0 + 1 : i1 + 1], prefix[i1 + 1 :]
    decay = np.empty(b - a)

    def rhs(lnq, out):
        np.negative(lnq[a:b], out=decay)
        np.exp(decay, out=decay)
        np.multiply(z0_support, decay, out=window.samples)
        window.sums(out=running)
        beyond[...] = running[-1]
        return np.subtract(prefix[-1:], prefix, out=out)

    lnq = np.zeros_like(z0)
    k1, k2, k3, k4, y = np.empty((5, num))
    if dt is None:
        scale = float(np.max(np.abs(rhs(lnq, k1))))
        dt = horizon / 16.0 if scale == 0.0 else min(1e-3 / scale, horizon)
    steps = max(1, int(np.ceil(horizon / dt - 1e-12)))
    dt = horizon / steps
    times = np.linspace(0.0, horizon, steps + 1)
    q_hist = np.empty((steps + 1, len(z0)))
    q_hist[0] = 1.0
    for m in range(steps):
        # the stages and the combination in place, with the operations of
        # lnq + 0.5 * dt * k and lnq + dt / 6 * (k1 + 2 k2 + 2 k3 + k4) in
        # their order
        rhs(lnq, k1)
        np.multiply(k1, 0.5 * dt, out=y)
        y += lnq
        rhs(y, k2)
        np.multiply(k2, 0.5 * dt, out=y)
        y += lnq
        rhs(y, k3)
        np.multiply(k3, dt, out=y)
        y += lnq
        rhs(y, k4)
        k2 *= 2
        k2 += k1
        k3 *= 2
        k2 += k3
        k2 += k4
        k2 *= dt / 6.0
        lnq += k2
        np.exp(lnq, out=q_hist[m + 1])
        if np.min(q_hist[m + 1]) < 1e-3:
            raise RuntimeError(
                f"Liouville oracle aborted at t = {times[m + 1]:.6g}: "
                "q below 1e-3 (approaching blowup)"
            )
    return times, q_hist
