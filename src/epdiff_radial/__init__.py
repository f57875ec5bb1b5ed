"""Radial EPDiff (Euler-Arnold) equations in Lagrangian coordinates.

Numerical library and CLI for the particle-trajectory formulation of the
geodesic equations on the diffeomorphism group with inertia operator
A = (sigma - Delta)^k, restricted to radial vector fields u(r) d/dr.

Subpackage layout:

* ``bessel``        -- the Bessel tables the sigma = 1 kernel rows are built from
* ``quadrature``    -- trapezoid rules with prefix/suffix cumulative sums
* ``kernels``       -- Green kernels phi/delta, the weight Q and criterion S,
                       and the apply/invert operator pair
* ``liouville``     -- exact Liouville solutions and a Picard/RK4 oracle
* ``hunter_saxton`` -- closed-form radial Hunter-Saxton flow
* ``solver``        -- RK4 time integration of the (gamma, ln rho) system
* ``certify``       -- blowup certificates (kernel conditions, majorant)
* ``scenario``      -- configs, initial-data families, run orchestration
* ``cli``           -- command line entry point
"""

__version__ = "0.1.0"

from .kernels import KernelSpec
from .grid import RadialGrid, InitialData
from .solver import FlowState, TrajectoryRecord, run
from .certify import BlowupCertificate, certify
from .scenario import ScenarioConfig, run_scenario

__all__ = [
    "KernelSpec",
    "RadialGrid",
    "InitialData",
    "FlowState",
    "TrajectoryRecord",
    "run",
    "BlowupCertificate",
    "certify",
    "ScenarioConfig",
    "run_scenario",
    "__version__",
]
