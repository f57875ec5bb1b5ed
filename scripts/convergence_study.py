#!/usr/bin/env python3
"""Convergence study of the trajectory solver against exact Hunter-Saxton.

Prints max-norm errors of rho at half the breakdown time under grid
refinement (fixed small dt) and under time-step refinement (fixed grid,
against a fine-step reference), with the observed orders.

Usage:
    python3 scripts/convergence_study.py [--n 3]
"""

import argparse
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from epdiff_radial.grid import RadialGrid
from epdiff_radial.hunter_saxton import HSExactSolution
from epdiff_radial.kernels import KernelSpec
from epdiff_radial.scenario import builtin_initial_data
from epdiff_radial.solver import run

BUMP = {"amplitude": 1.0, "r_lo": 2.0, "r_hi": 8.0}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=3, help="spatial dimension")
    ap.add_argument("--r-max", type=float, default=20.0)
    args = ap.parse_args(argv)
    spec = KernelSpec(0, 1, args.n)

    print("spatial refinement (dt = 5e-4, error vs exact rho at t = T*/2):")
    prev = None
    for num in (256, 512, 1024, 2048):
        grid = RadialGrid.uniform(num, args.r_max)
        init = builtin_initial_data("neg_bump", BUMP, grid, args.n)
        exact = HSExactSolution(args.n, grid, init.omega0)
        t_half = 0.5 * exact.breakdown_time()
        _, state = run(spec, grid, init, dt=5e-4, horizon=t_half)
        err = np.max(np.abs(state.rho - exact.flow(t_half)[1]))
        order = "" if prev is None else f"  order {np.log2(prev / err):.2f}"
        print(f"  N = {num:5d}  err = {err:.3e}{order}")
        prev = err

    print("temporal refinement (N = 512, error vs dt = T/4096 reference):")
    grid = RadialGrid.uniform(512, args.r_max)
    init = builtin_initial_data("neg_bump", BUMP, grid, args.n)
    exact = HSExactSolution(args.n, grid, init.omega0)
    t_half = 0.5 * exact.breakdown_time()
    _, ref = run(spec, grid, init, dt=t_half / 4096, horizon=t_half)
    prev = None
    for m in (16, 32, 64, 128):
        _, state = run(spec, grid, init, dt=t_half / m, horizon=t_half)
        err = np.max(np.abs(state.gamma - ref.gamma))
        order = "" if prev is None else f"  order {np.log2(prev / err):.2f}"
        print(f"  M = {m:5d}  err = {err:.3e}{order}")
        prev = err
    return 0


if __name__ == "__main__":
    sys.exit(main())
