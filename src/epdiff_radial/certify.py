"""Blowup certificates: numerical verification of the comparison hypotheses.

A certificate for a kernel spec checks, on sampled meshes,

  (a) positivity of phi on the wedge D,
  (b) log-supermodularity d^2 ln phi / dr ds >= 0,
  (c) a uniform lower bound S(r) >= C > 0 of the diagonal criterion,

and from C, the weight Q and a nonpositive momentum omega_0 builds the
Liouville majorant

    q_tilde(t, r) = (1 - (C t / 2) M(r))^2,
    M(r) = int_r^{R_max} s^{n-1} |omega_0(s)| / Q(s) ds,

which dominates the monitored quantity q = Q(gamma) rho / Q(r) and bounds
the blowup time by T_bound = 2 / (C M(0)).

Conditions (a) and (b) are sampled on one mesh of D that depends on R_max
only.  The mesh of the latest R_max is kept, read only, with the distinct
values of its two radius arrays: its 20,897 points lie on about 400
distinct r and 1,000 distinct s, so the scaled kernel factors are
evaluated once per certificate, on the distinct radii, and both conditions
come from the same products of their rows, gathered by index one block of
mesh points at a time.  With delta = r s phi = sum_t f_t(r) g_t(s), phi =
e^{sigma (r - s)} sum_t [f_hat_t(r) / r] [g_hat_t(s) / s], as
``kernels.phi`` forms it, and condition (b) is exact: d^2 ln phi / dr ds =
sum_{t<u} Wf_tu(r) Wg_tu(s) / delta^2, with the Wronskians Wf_tu = f_t
df_u - df_t f_u and Wg_tu = g_t dg_u - dg_t g_u.  Nothing that depends on
the kernel spec is kept between calls.
"""

from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import combinations

import numpy as np

from .kernels import KernelSpec, kernel_case, s_criterion

__all__ = [
    "BlowupCertificate",
    "certify",
    "majorant",
    "monitored_quantity",
    "check_dominance",
    "h2_ratio_bounds",
]

SAFETY_MARGIN = 1e-9
DOMINANCE_TOL = 1e-4
# Mesh points per block of the condition checks: each float64 temporary of a
# block (32 kB) stays below the 128 kB from which glibc's malloc maps fresh
# pages, so a certificate's page faults do not depend on what else the
# process keeps alive.
BLOCK = 4096


@dataclass
class BlowupCertificate:
    """Outcome of the kernel-condition checks plus the majorant data.

    ``applicable`` records whether omega_0 was admissible (nonpositive, not
    identically zero); the kernel conditions are checked either way.
    """

    spec: object
    grid: object
    applicable: bool
    passed: bool
    c_bound: float
    s_min_location: float
    conditions: dict
    m_tail: np.ndarray = field(repr=False)
    t_bound: float = np.inf

    def report(self):
        """Human-readable key: value lines."""
        lines = [
            f"spec = sigma={self.spec.sigma} k={self.spec.k} n={self.spec.n}",
            f"applicable = {'yes' if self.applicable else 'no (omega0 not <= 0)'}",
            f"passed = {'yes' if self.passed else 'no'}",
        ]
        for name, cond in self.conditions.items():
            lines.append(
                f"condition_{name} = {'pass' if cond['passed'] else 'FAIL'} "
                f"(worst {cond['worst_value']:.6e} at {cond['worst_point']})"
            )
        lines.append(f"C = {self.c_bound:.12g}")
        lines.append(f"S_min_location = {self.s_min_location:.6g}")
        lines.append(f"M0 = {self.m_tail[0]:.12g}")
        lines.append(f"T_bound = {self.t_bound:.12g}")
        return "\n".join(lines)


@dataclass(frozen=True)
class _Radii:
    """Read-only mesh radii and their distinct values: values = distinct[index]."""

    values: np.ndarray
    distinct: np.ndarray
    index: np.ndarray


def _radii(values):
    distinct, index = np.unique(values, return_inverse=True)
    for a in (values, distinct, index):
        a.flags.writeable = False
    return _Radii(values, distinct, index)


@dataclass(frozen=True)
class _ConditionMesh:
    """Where the kernel conditions are sampled for one r_max; geometry only.

    The points (r, s) are a log-spaced sample of D with a refined
    near-diagonal band, followed by the exact diagonal.
    """

    r: _Radii
    s: _Radii


@lru_cache(maxsize=1)
def _condition_mesh(r_max):
    """The condition mesh for r_max, built on first use."""
    v = np.geomspace(1e-3, r_max, 200)
    r, s = np.meshgrid(v, v, indexing="ij")
    keep = s >= r
    pairs = [(r[keep], s[keep])]
    # near-diagonal band: separations small enough to probe phi near the
    # boundary of D
    for gap in (4e-3, 1e-2, 1e-1):
        rv = v[v + gap <= r_max]
        pairs.append((rv, rv + gap))
    r = np.concatenate([p[0] for p in pairs])
    s = np.concatenate([p[1] for p in pairs])
    diag = np.geomspace(1e-3, s[-1], 200)
    return _ConditionMesh(r=_radii(np.concatenate([r, diag])),
                          s=_radii(np.concatenate([s, diag])))


def _condition_values(case, mesh):
    """phi, and d^2 ln phi / dr ds unless the case is ``separable`` (else
    None), at every point of the mesh, in one pass.

    ``KernelCase.scaled_factors`` on the distinct radii (the solver's own
    factors, scaled) gives per radius the rows of phi (``phi_rows``: a_t =
    f_hat_t / r, b_t = g_hat_t / s) and, for each pair t < u, Wf_tu / r^2
    and Wg_tu / s^2.  Each block of mesh points gathers both and multiplies
    them once: phi_hat = sum_t a_t b_t gives phi (``phi_from_sum``), and
    since ln(r s) is separable, d^2 ln phi / dr ds = sum_{t<u} (Wf_tu / r^2)
    (Wg_tu / s^2) / phi_hat^2.

    Where max_t |g_hat_t / s| passes 2^256 (H2dot from n = 53, near s =
    1e-3), the Wronskians and phi_hat^2 would overflow: there the outer rows
    of that s are scaled by 2^-e, e the binary exponent of that maximum.
    That is exact, cancels in the mixed derivative and is undone on phi_hat.
    """
    r, s = mesh.r, mesh.s
    f, g = case.scaled_factors(r.distinct, s.distinct)
    shift = None
    # max |g_hat| / min s bounds every |g_hat_t / s|, in two calls
    if not case.separable and np.abs(g[:, 0]).max() > 2.0**256 * s.distinct[0]:
        top = np.max(np.abs(g[:, 0]), axis=0) / s.distinct
        shift = np.where(top > 2.0**256, np.frexp(top)[1], 0)
        g = np.ldexp(g, -shift)
    a, b = case.phi_rows(r.distinct, s.distinct, (f, g))
    terms = len(f)
    pairs = list(combinations(range(terms), 2))
    rows_r, rows_s = ([*rows, *[
        (x[t, 0] * x[u, 1] - x[t, 1] * x[u, 0]) / (v * v) for t, u in pairs]]
        for rows, x, v in ((a, f, r.distinct), (b, g, s.distinct)))
    size = len(r.values)
    phi = np.empty(size)
    mixed = None if case.separable else np.empty(size)
    for start in range(0, size, BLOCK):
        block = slice(start, start + BLOCK)
        i, j = r.index[block], s.index[block]
        # row by row: indexing one row takes about as long per row as
        # np.take of the stacked rows, and less for the one row of a
        # separable case
        products = [x[i] * y[j] for x, y in zip(rows_r, rows_s)]
        phi_hat = reduce(np.add, products[:terms])
        if mixed is not None:
            np.divide(reduce(np.add, products[terms:]), phi_hat**2, out=mixed[block])
        if shift is not None:
            phi_hat = np.ldexp(phi_hat, shift[j])
        phi[block] = case.phi_from_sum(phi_hat, r.values[block], s.values[block])
    return phi, mixed


def _minimum(values, mesh, passed):
    """A condition from its values on the mesh: their minimum, where it is,
    and whether ``passed`` holds there."""
    i = int(np.argmin(values))
    return {
        "passed": bool(passed(values[i])),
        "worst_value": float(values[i]),
        "worst_point": (float(mesh.r.values[i]), float(mesh.s.values[i])),
    }


def _s_bound(spec, r_max):
    r = np.concatenate([[0.0], np.geomspace(1e-3, r_max, 500)])
    vals = s_criterion(spec, r)
    i = int(np.argmin(vals))
    c = float(vals[i]) - SAFETY_MARGIN
    return c, float(r[i]), {
        "passed": bool(c > 0.0),
        "worst_value": float(vals[i]),
        "worst_point": float(r[i]),
    }


def certify(spec, grid, omega0):
    """Check conditions (a)-(c) and assemble the majorant for omega_0.

    Failures are recorded in the certificate, never raised.  C is taken
    from the sampled minimum of S (minus a 1e-9 safety margin), not from
    closed forms, so the certificate only claims what it verified.
    """
    omega0 = np.asarray(omega0, dtype=float)
    applicable = bool(np.all(omega0 <= 0.0)) and bool(np.any(omega0 != 0.0))
    case = kernel_case(spec)
    mesh = _condition_mesh(grid.r_max)
    phi, mixed = _condition_values(case, mesh)
    cond_a = _minimum(phi, mesh, lambda v: v > 0.0)
    # a separable ln phi is a function of r plus one of s, whose mixed
    # derivative is identically zero
    cond_b = ({"passed": True, "worst_value": 0.0, "worst_point": None}
              if mixed is None else _minimum(mixed, mesh, lambda v: v >= -1e-9))
    c_bound, s_loc, cond_c = _s_bound(spec, grid.r_max)
    conditions = {
        "positivity": cond_a,
        "log_supermodularity": cond_b,
        "S_bound": cond_c,
    }
    passed = all(c["passed"] for c in conditions.values())
    tail_weight = case.weights(grid.r)[1]
    m_tail = grid.quadrature.tail(tail_weight * np.abs(omega0))
    t_bound = np.inf
    if passed and applicable and m_tail[0] > 0.0:
        t_bound = 2.0 / (c_bound * m_tail[0])
    return BlowupCertificate(
        spec=spec,
        grid=grid,
        applicable=applicable,
        passed=passed,
        c_bound=c_bound,
        s_min_location=s_loc,
        conditions=conditions,
        m_tail=m_tail,
        t_bound=t_bound,
    )


def h2_ratio_bounds(n, r):
    """Pointwise checks of the Bessel-ratio inequalities behind the H^2 case.

    The second-order full-metric S bound rests on two monotone ratios of the
    Bessel pair:

        lam_a = alpha_{n-2} / alpha_n:        1 at r = 0, nondecreasing,
                                              <= 1/2 + sqrt(1/4 + r^2/n^2);
        lam_b = beta_{n-2} / (n^2 beta_n):    nondecreasing,
                                              >= sqrt(1/4 + r^2/n^2) - 1/2.

    Both are read from the rows of H2's kernel at (r, r), the factors the
    solver integrates, scaled (``KernelCase.scaled_factors``): f_1 = -r^3
    alpha_{n+2} / (2(n + 2)), f_2 = r alpha_n / (2n), g_1 = r beta_n and g_2
    = r beta_{n-2}.  With n^2 (alpha_{n-2} - alpha_n) = n r^2 alpha_{n+2} /
    (n + 2),

        lam_a = 1 - f_1 / (n^2 f_2),          lam_b = g_2 / (n^2 g_1),

    and the scales e^{-+r} of the rows cancel in each ratio.  So the domain
    is the rows': n is that of ``KernelSpec(1, 2, n)`` (an integer >= 3),
    at most 17 where a radius reaches ``bessel.SERIES_RADIUS`` (the Hankel
    expansion of alpha_{n+4} stops at order 21), and every radius is at
    most ``KernelSpec.r_max_limit`` (600).  ``r`` must also be finite,
    strictly positive and increasing, a one-dimensional array of at least
    two radii (the monotone checks compare neighbours).  Raises ValueError
    outside that domain; returns per-inequality pass flags and worst slacks
    (>= 0 means the inequality holds with that margin).
    """
    spec = KernelSpec(1, 2, n)
    r = np.asarray(r, dtype=float)
    if r.ndim != 1 or r.size < 2:
        raise ValueError("r must be a one-dimensional array of at least two radii")
    if not (np.isfinite(r).all() and (r > 0.0).all() and (np.diff(r) > 0.0).all()):
        raise ValueError("r must be finite, strictly positive and increasing")
    if (r > spec.r_max_limit).any():
        raise ValueError(f"r must be at most KernelSpec.r_max_limit = {spec.r_max_limit}")
    f, g = kernel_case(spec).scaled_factors(r, r)
    lam_a = 1.0 - f[0, 0] / (n**2 * f[1, 0])
    lam_b = g[1, 0] / (n**2 * g[0, 0])
    root = np.sqrt(0.25 + (r / n) ** 2)
    checks = {
        "lam_a_upper": float(np.min(0.5 + root - lam_a)),
        "lam_a_monotone": float(np.min(np.diff(lam_a))),
        "lam_b_lower": float(np.min(lam_b - (root - 0.5))),
        "lam_b_monotone": float(np.min(np.diff(lam_b))),
    }
    tol = 1e-12
    return {
        "lam_a": lam_a,
        "lam_b": lam_b,
        "slacks": checks,
        "passed": bool(all(v >= -tol for v in checks.values())),
    }


def majorant(cert, t):
    """Liouville majorant q_tilde(t, .) = (1 - (C t / 2) M)^2 on the grid."""
    return (1.0 - 0.5 * cert.c_bound * t * cert.m_tail) ** 2


def monitored_quantity(cert, state):
    """q(t, r_i) = Q(gamma_i) rho_i / Q(r_i) with stable r -> 0 extension.

    With Q = 1/G (``KernelCase.weights``), q = rho G(r)/G(gamma) = rho
    e^{sigma (gamma - r)} G_hat(r)/G_hat(gamma), a ratio of the same outer
    rows, so q = rho exactly where gamma = r.  Specs with Q(0) = 0 need no
    special treatment; at the origin node q = rho^{q_power+1}.
    """
    case = kernel_case(cert.spec)
    return _monitored(case, cert.grid.r, state.gamma, state.rho,
                      case.origin_factor(cert.grid.r[1:]))


def _monitored(case, r, gamma, rho, big_g):
    """monitored_quantity at (gamma, rho), given G_hat on the nodes r past 0."""
    q = np.empty_like(rho)
    q[0] = rho[0] ** (case.q_power + 1)
    ratio = big_g / case.origin_factor(gamma[1:])
    q[1:] = case.rescaled(ratio, gamma[1:] - r[1:]) * rho[1:]
    return q


def check_dominance(cert, record):
    """Margins min_i [q_tilde - q] at every recorded time of a trajectory.

    Passes when every margin is >= -1e-4 (discretization slack); the
    comparison theorem gives margin >= 0 in the continuum, with equality
    at t = 0.  G_hat on the fixed grid is evaluated once for every snapshot.
    """
    if not record.snapshots:
        raise ValueError("trajectory was recorded without snapshots")
    case = kernel_case(cert.spec)
    big_g = case.origin_factor(cert.grid.r[1:])
    margins = []
    for t, (gamma, rho) in zip(record.times, record.snapshots):
        q = _monitored(case, cert.grid.r, gamma, rho, big_g)
        margins.append(float(np.min(majorant(cert, t) - q)))
    margins = np.asarray(margins)
    return {
        "margins": margins,
        "min_margin": float(np.min(margins)),
        "passed": bool(np.min(margins) >= -DOMINANCE_TOL),
    }
