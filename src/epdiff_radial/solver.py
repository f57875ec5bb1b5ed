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
quadrature split landing exactly on the diagonal node.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from .kernels import apply_operator, kernel_case, separable_sums

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

    ``rate`` is (d gamma/dt, d ln rho/dt) at this state once some caller has
    evaluated it (``run`` does for the energy); ``step`` then uses it as its
    first stage instead of evaluating it again.
    """

    t: float
    gamma: np.ndarray
    rho: np.ndarray
    rate: tuple | None = None


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
    # NaN compares False, so it would pass the two checks below.  One NaN or
    # inf makes a sum non-finite, and these sums are far from overflowing.
    if not np.isfinite(gamma.sum() + rho.sum()):
        raise NonFiniteState("gamma or rho is not finite")
    if (gamma[1:] <= gamma[:-1]).any():
        raise StepRejected("gamma lost strict monotonicity")
    if gamma[init.support_index] >= GUARD_FRACTION * grid.r_max:
        raise GuardError(
            "support reached the truncation guard radius "
            f"{GUARD_FRACTION * grid.r_max:g}; increase R_max"
        )


def rhs(spec, grid, init, gamma, rho):
    """(d gamma/dt, d ln rho/dt) at one state, via prefix/suffix sums."""
    _validate(grid, init, gamma, rho)
    w = init.z0 / rho  # zero off the support of z_0
    case = kernel_case(spec)
    inner, outer, pre, suf = separable_sums(case, grid.quadrature, gamma, w)
    dgamma = np.zeros_like(gamma)
    dlnrho = np.zeros_like(gamma)
    for (f, df), (g, dg), p, q, df0 in zip(inner, outer, pre, suf, case.df_origin):
        dgamma[1:] += g * p[1:] + f * q[1:]
        dlnrho[1:] += dg * p[1:] + df * q[1:]
        # Origin node: gamma(t,0) = 0 and f(0) = 0 for every kernel, so
        # dgamma(0) = 0 exactly; only the upper d1 term moves ln rho there.
        dlnrho[0] += df0 * q[0]
    return dgamma, dlnrho


def step(spec, grid, init, state, dt):
    """One RK4 step on (gamma, ln rho).

    Raises StepRejected, GuardError or NonFiniteState.
    """
    g0, lr0 = state.gamma, np.log(state.rho)

    def f(gamma, lnrho):
        return rhs(spec, grid, init, gamma, np.exp(lnrho))

    k1g, k1r = state.rate if state.rate is not None else f(g0, lr0)
    k2g, k2r = f(g0 + 0.5 * dt * k1g, lr0 + 0.5 * dt * k1r)
    k3g, k3r = f(g0 + 0.5 * dt * k2g, lr0 + 0.5 * dt * k2r)
    k4g, k4r = f(g0 + dt * k3g, lr0 + dt * k3r)
    gamma = g0 + dt / 6.0 * (k1g + 2 * k2g + 2 * k3g + k4g)
    rho = np.exp(lr0 + dt / 6.0 * (k1r + 2 * k2r + 2 * k3r + k4r))
    _validate(grid, init, gamma, rho)
    return FlowState(t=state.t + dt, gamma=gamma, rho=rho)


def energy(grid, init, rho, dgamma):
    """E(t) = int z_0 (d gamma/dt) / rho dr, the pulled-back metric energy."""
    integrand = np.zeros_like(rho)
    m = init.z0 != 0.0
    integrand[m] = init.z0[m] * dgamma[m] / rho[m]
    return float(grid.quadrature.prefix(integrand)[-1])


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

    Returns (TrajectoryRecord, terminal FlowState).
    """
    if not 0.0 < blowup_threshold < 1.0:
        raise ValueError("blowup_threshold must lie in (0, 1)")
    state = FlowState(t=0.0, gamma=grid.r.copy(), rho=np.ones_like(grid.r))
    record = TrajectoryRecord()

    def diagnose(st):
        st.rate = rhs(spec, grid, init, st.gamma, st.rho)
        return energy(grid, init, st.rho, st.rate[0])

    record.append(0.0, grid, state.gamma, state.rho, diagnose(state), record_snapshots)
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
        blew_up = float(np.min(state.rho)) <= blowup_threshold
        at_end = state.t >= horizon - 1e-12 * max(horizon, 1.0)
        if blew_up or at_end or accepted % record_every == 0:
            record.append(
                state.t, grid, state.gamma, state.rho, diagnose(state),
                record_snapshots,
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
    """
    dgamma, _ = rhs(spec, grid, init, state.gamma, state.rho)
    z_max = float(np.max(np.abs(init.z0)))
    if z_max == 0.0:
        return 0.0
    u_fixed = CubicSpline(state.gamma, dgamma)(grid.r)
    omega_fixed = apply_operator(spec, grid, u_fixed)
    omega_at_gamma = CubicSpline(grid.r, omega_fixed)(state.gamma)
    lhs = state.gamma ** (spec.n - 1.0) * state.rho**2 * omega_at_gamma
    return float(np.max(np.abs(lhs - init.z0))) / z_max
