"""Radial grids on [0, R_max] and sampled initial momenta."""

from dataclasses import dataclass, field

import numpy as np

from .quadrature import CorrectedTrapezoid

__all__ = ["RadialGrid", "InitialData"]


@dataclass
class RadialGrid:
    """Strictly increasing nodes r_0 = 0 < ... < r_{N-1} = R_max.

    ``quadrature`` is the corrected cumulative trapezoid rule bound to these
    nodes, built once with the grid.
    """

    r: np.ndarray
    quadrature: CorrectedTrapezoid = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=float)
        # NaN fails every comparison, so a NaN node fails the strict
        # increase; strictly increasing nodes from 0 are finite exactly when
        # the last one is
        if (self.r[0] != 0.0 or not (self.r[1:] > self.r[:-1]).all()
                or not np.isfinite(self.r[-1])):
            raise ValueError(
                "grid nodes must start at 0, strictly increase and be finite")
        self.quadrature = CorrectedTrapezoid(self.r)

    @property
    def r_max(self):
        return float(self.r[-1])

    @property
    def r_support(self):
        """0.6 R_max, the radius inside which initial momenta must be
        supported: the infinite upper integration limits are truncated at
        R_max, which is only valid while the flow keeps the data's support
        well inside the grid (the solver guards gamma(t, r_support) < 0.9
        R_max)."""
        return 0.6 * self.r_max

    @property
    def num(self):
        return len(self.r)

    @classmethod
    def uniform(cls, num, r_max):
        """Equally spaced nodes."""
        return cls(np.linspace(0.0, r_max, num))

    @classmethod
    def graded(cls, num, r_max, grade):
        """Nodes clustered near the origin: r_i = R_max (i/(N-1))^g, g in [1, 2]."""
        if not 1.0 <= grade <= 2.0:
            raise ValueError("grade must lie in [1, 2]")
        return cls(r_max * np.linspace(0.0, 1.0, num) ** grade)


@dataclass
class InitialData:
    """Initial momentum omega_0 and its weighted form z_0 = r^{n-1} omega_0.

    z_0 vanishes off the nodes support_start to support_index (its first
    and last nonzero node); for z_0 = 0 that range is empty, with
    support_start = support_index + 1 = 1.  The solver's nodes are
    Lagrangian and rho > 0, so z_0/rho keeps this support for a whole run.
    ``from_omega0`` raises ValueError unless omega_0 and z_0 are finite (r^(n-1)
    overflows for large n) and z_0 vanishes past ``grid.r_support``.
    """

    omega0: np.ndarray
    z0: np.ndarray
    support_index: int
    support_start: int

    @classmethod
    def from_omega0(cls, omega0, grid, n):
        omega0 = np.asarray(omega0, dtype=float)
        if omega0.shape != grid.r.shape:
            raise ValueError("omega0 must be sampled on the grid nodes")
        if not np.isfinite(omega0).all():
            raise ValueError("omega0 must be finite")
        # r^(n-1) overflows for large n, and inf * 0 is NaN past the support
        with np.errstate(over="ignore", invalid="ignore"):
            z0 = grid.r ** (n - 1) * omega0
        if not np.isfinite(z0).all():
            raise ValueError(
                f"r^(n-1) omega_0 overflows for n = {n} on r_max = {grid.r_max:g}")
        nz = np.nonzero(z0)[0]
        support_index = int(nz[-1]) if len(nz) else 0
        support_start = int(nz[0]) if len(nz) else 1
        if len(nz) and grid.r[support_index] > grid.r_support:
            raise ValueError(
                "initial momentum must be supported inside r_support "
                f"(= {grid.r_support:g})"
            )
        return cls(
            omega0=omega0,
            z0=z0,
            support_index=support_index,
            support_start=support_start,
        )
