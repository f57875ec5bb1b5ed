"""RK4 time integration of the Lagrangian particle-trajectory system.

The flow gamma(t, r) and its radial Jacobian rho = gamma_r obey the
autonomous ODE system

    d gamma/dt (r) = int_0^r delta(gamma(s), gamma(r)) z_0(s)/rho(s) ds
                   + int_r^inf delta(gamma(r), gamma(s)) z_0(s)/rho(s) ds,
    d ln rho/dt (r) = same with d2_delta on [0, r] and d1_delta on [r, inf),

with gamma(0, r) = r, rho(0, r) = 1.  Integrating ln rho keeps rho > 0
structurally; blowup is detected when min rho falls to a threshold.

Because every kernel delta factors into separable products f(r) g(s), each
RHS evaluation is O(N) per term: one corrected prefix sum of f(gamma) z_0/rho
and one suffix sum of g(gamma) z_0/rho serve all output nodes, with the
quadrature split landing exactly on the diagonal node.  The nodes are
Lagrangian and rho > 0, so z_0/rho keeps the support [a, b] of z_0 for the
whole run (``InitialData.support_start``/``support_index``).  One windowed
pass (``kernels.kernel_sums``) therefore sums over that window only: below
it the prefix sums vanish and above it the suffix sums do, so f and df are
evaluated only up to the window's end and g and dg only from its start.
For sigma = 1, f and df come from their power series in gamma^2 (one table
of powers and one contraction) while the window's nodes lie below
``bessel.SERIES_RADIUS``, and g and dg from Laurent polynomials in
1/gamma times e^-gamma (one more table and contraction), so a stage of odd
n calls no Bessel function and one of even n only the two start values
``bessel.beta_hat_start``.  Everything of that pass but the values (the
window's reach, bands and sample buffer, the factor buffers the kernel's
formulas write into, and every slice that assembles the sums) depends only
on the kernel, the grid and the window, so the run's first RHS sets it up
as one plan and every later stage reuses it and makes only its ufunc calls
(for sigma = 1 the plan also keeps the tables of powers and the buffers of
the start values and of e^-gamma; for sigma = 0 it writes the factor rows
that do not depend on the radius, such as H1dot's df = 1/n, once).
``step`` builds its stage states and the RK4 combination in place, and
``_validate`` checks a stage state with one comparison, one count and one
sum.  ``step`` hands the ``rhs`` of its end state, which validates it, to
the state it returns as ``rate``: that is the next step's first stage and
the energy ``run`` records, so s accepted steps cost 4 s + 1 ``rhs`` calls.
The state it returns also holds its rows (gamma, ln rho) as ``y``, so the
next step starts from them and takes no log of rho.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .kernels import apply_operator, kernel_case, kernel_sums

__all__ = [
    "FlowState",
    "TrajectoryRecord",
    "GuardError",
    "StepRejected",
    "NonFiniteState",
    "rhs",
    "step",
    "run",
    "energy",
    "transport_residual",
]

GUARD_FRACTION = 0.9
MAX_HALVINGS = 20


class GuardError(RuntimeError):
    """Support has advected too close to the truncation radius R_max."""


class StepRejected(RuntimeError):
    """A stage state lost strict monotonicity of gamma."""


class NonFiniteState(RuntimeError):
    """A stage state holds NaN or inf (e.g. a kernel factor overflowed)."""


@dataclass
class FlowState:
    """Lagrangian flow sampled on the grid at one time.

    ``rate`` is ``rhs`` at this state, rows (d gamma/dt, d ln rho/dt), once
    it has been evaluated: ``step`` sets it on the state it returns, and
    ``run`` on its initial state.  ``step`` uses it as its first stage
    instead of evaluating it again, and ``run`` takes the energy from it.

    ``y`` holds the rows (gamma, ln rho) the state was integrated as, when
    ``step`` made it: ``gamma`` is a view of its first row and ``rho`` =
    exp of its second.  ``step`` starts from it instead of taking log rho,
    and only reads it.  A state built from gamma and rho alone has none.
    """

    t: float
    gamma: np.ndarray
    rho: np.ndarray
    rate: np.ndarray | None = None
    y: np.ndarray | None = None


@dataclass
class TrajectoryRecord:
    """Per-step diagnostics of one solver run."""

    times: list = field(default_factory=list)
    min_rho: list = field(default_factory=list)
    argmin_rho_r: list = field(default_factory=list)
    energy: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)  # (gamma, rho) pairs
    status: str = "running"

    def append(self, t, grid, gamma, rho, e, keep_snapshot):
        i = int(np.argmin(rho))
        self.times.append(t)
        self.min_rho.append(float(rho[i]))
        self.argmin_rho_r.append(float(grid.r[i]))
        self.energy.append(e)
        if keep_snapshot:
            self.snapshots.append((gamma.copy(), rho.copy()))


def _validate(grid, init, gamma, rho):
    # NaN fails the strict increase, and a strictly increasing gamma is
    # finite exactly when its two ends are, so a state that passes the order
    # check needs no full pass over gamma.  One NaN or inf makes a sum
    # non-finite, and these sums are far from overflowing.  A state that
    # fails the order check gets the full finiteness check first, so a NaN
    # or inf state is NonFiniteState and never StepRejected.
    if np.count_nonzero(gamma[1:] > gamma[:-1]) != len(gamma) - 1:
        if not np.isfinite(np.add.reduce(gamma) + np.add.reduce(rho)):
            raise NonFiniteState("gamma or rho is not finite")
        raise StepRejected("gamma lost strict monotonicity")
    if not math.isfinite(gamma[0] + gamma[-1] + np.add.reduce(rho)):
        raise NonFiniteState("gamma or rho is not finite")
    guard = GUARD_FRACTION * grid.r[-1]
    if gamma[init.support_index] >= guard:
        raise GuardError(
            f"support reached the truncation guard radius {guard:g}; "
            "increase R_max"
        )


def rhs(spec, grid, init, gamma, rho):
    """(d gamma/dt, d ln rho/dt) at one state as the rows of one (2, N) array."""
    _validate(grid, init, gamma, rho)
    a, b = init.support_start, init.support_index + 1
    return kernel_sums(
        kernel_case(spec), grid.quadrature, gamma, init.z0[a:b] / rho[a:b],
        start=a, derivatives=True,
    )


def step(spec, grid, init, state, dt):
    """One RK4 step on (gamma, ln rho), held as the rows of one array.

    It starts from ``state.y`` when set, else from gamma and log rho.  The
    first stage is ``state.rate`` when set, else ``rhs`` at the state.  The
    returned state carries its own ``rate``: ``rhs`` at the end state,
    which validates it and is the next step's first stage (first same as
    last), so a step from a state with a rate makes four ``rhs`` calls.  It
    also carries its ``y``, so the next step takes no log of rho.

    Raises StepRejected, GuardError or NonFiniteState, from any stage or
    the end state.
    """
    y0 = state.y
    if y0 is None:
        y0 = np.empty((2, len(state.gamma)))
        y0[0] = state.gamma
        np.log(state.rho, out=y0[1])

    def f(y):
        return rhs(spec, grid, init, y[0], np.exp(y[1]))

    # The stage states and the combination are built in place, with the
    # operations of y0 + 0.5 * dt * k and y0 + dt / 6 * (k1 + 2 k2 + 2 k3 +
    # k4) in their order.  y0 and k1 may be state.y and state.rate, which
    # run reuses when it retries a halved step, so they are only read.
    k1 = state.rate if state.rate is not None else f(y0)
    y = np.multiply(k1, 0.5 * dt)
    y += y0
    k2 = f(y)
    np.multiply(k2, 0.5 * dt, out=y)
    y += y0
    k3 = f(y)
    np.multiply(k3, dt, out=y)
    y += y0
    k4 = f(y)
    k2 *= 2
    k2 += k1
    k3 *= 2
    k2 += k3
    k2 += k4
    np.multiply(k2, dt / 6.0, out=y)
    y += y0
    gamma, rho = y[0], np.exp(y[1])
    # rhs validates the end state, and its rate is the next step's k1
    return FlowState(state.t + dt, gamma, rho, rhs(spec, grid, init, gamma, rho), y)


def energy(grid, init, rho, dgamma):
    """E(t) = int z_0 (d gamma/dt) / rho dr, the pulled-back metric energy."""
    a, b = init.support_start, init.support_index + 1
    if a == b:
        return 0.0
    integrand = init.z0[a:b] * dgamma[a:b] / rho[a:b]
    q = grid.quadrature
    return float(q.running(integrand, a, q.reach(a, b))[-1])


def run(
    spec,
    grid,
    init,
    dt,
    horizon,
    blowup_threshold=0.05,
    record_every=10,
    record_snapshots=True,
):
    """Integrate until the horizon or until min rho <= blowup_threshold.

    Fixed-step RK4 with step rejection: a step whose stages lose
    monotonicity of gamma is retried at half the step, up to MAX_HALVINGS
    halvings.  The final step is shortened to land on the horizon exactly.

    The record's status is ``completed``, ``blowup_detected``,
    ``guard_tripped`` (the support reached 0.9 R_max), ``step_rejected``
    (a step was still rejected after MAX_HALVINGS halvings) or
    ``nonfinite_state`` (a stage produced NaN or inf).  On the last three
    the terminal state is the last accepted one.

    Raises ValueError unless dt is finite and positive, the horizon finite
    and >= 0, record_every an integer >= 1 and blowup_threshold in (0, 1).

    Returns (TrajectoryRecord, terminal FlowState).
    """
    # NaN fails every comparison, dt = 0 never advances, an infinite
    # horizon ends at t = 0 as "completed" and record_every = 0 divides by 0
    if not 0.0 < blowup_threshold < 1.0:
        raise ValueError("blowup_threshold must lie in (0, 1)")
    for name, value in (("dt", dt), ("horizon", horizon)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if horizon < 0.0:
        raise ValueError("horizon must be >= 0")
    if not (isinstance(record_every, numbers.Integral) and record_every >= 1):
        raise ValueError("record_every must be an integer >= 1")
    gamma, rho = grid.r.copy(), np.ones_like(grid.r)
    state = FlowState(0.0, gamma, rho, rhs(spec, grid, init, gamma, rho))
    record = TrajectoryRecord()
    # the energy takes d gamma/dt from the rate each state carries
    record.append(0.0, grid, gamma, rho, energy(grid, init, rho, state.rate[0]),
                  record_snapshots)
    accepted = 0
    while state.t < horizon - 1e-12 * max(horizon, 1.0):
        h = min(dt, horizon - state.t)
        for _ in range(MAX_HALVINGS + 1):
            try:
                new_state = step(spec, grid, init, state, h)
                break
            except StepRejected:
                h *= 0.5
            except GuardError:
                record.status = "guard_tripped"
                return record, state
            except NonFiniteState:
                record.status = "nonfinite_state"
                return record, state
        else:
            record.status = "step_rejected"
            return record, state
        state = new_state
        accepted += 1
        blew_up = float(np.minimum.reduce(state.rho)) <= blowup_threshold
        at_end = state.t >= horizon - 1e-12 * max(horizon, 1.0)
        if blew_up or at_end or accepted % record_every == 0:
            record.append(
                state.t, grid, state.gamma, state.rho,
                energy(grid, init, state.rho, state.rate[0]), record_snapshots,
            )
        if blew_up:
            record.status = "blowup_detected"
            return record, state
    record.status = "completed"
    return record, state


def transport_residual(spec, grid, init, state):
    """Sup-norm residual of the transport law gamma^{n-1} rho^2 omega(gamma) = z_0.

    Reconstructs u on Eulerian points from d gamma/dt = u(gamma), interpolates
    to the fixed grid with a C^2 cubic spline, applies the operator by finite
    differences, and compares against the conserved z_0.  Diagnostic only:
    accuracy is interpolation-limited, especially outside the image of gamma.
    The spline is scipy's ``CubicSpline``, imported here rather than with
    the module: ``scipy.interpolate`` loads a few hundred scipy modules,
    which no other part of the library needs.
    """
    from scipy.interpolate import CubicSpline

    dgamma, _ = rhs(spec, grid, init, state.gamma, state.rho)
    z_max = float(np.max(np.abs(init.z0)))
    if z_max == 0.0:
        return 0.0
    u_fixed = CubicSpline(state.gamma, dgamma)(grid.r)
    omega_fixed = apply_operator(spec, grid, u_fixed)
    omega_at_gamma = CubicSpline(grid.r, omega_fixed)(state.gamma)
    lhs = state.gamma ** (spec.n - 1.0) * state.rho**2 * omega_at_gamma
    return float(np.max(np.abs(lhs - init.z0))) / z_max
