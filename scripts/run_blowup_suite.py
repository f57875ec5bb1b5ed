#!/usr/bin/env python3
"""Run the full blowup suite and print one summary line per inertia operator.

For every operator with a certified comparison bound, integrates the standard
negative-bump initial momentum until either the blowup threshold is reached or
the certified time bound (plus 5% slack) expires, then reports the certified
bound T_bound, the detection time, and the worst dominance margin.

Usage:
    python3 scripts/run_blowup_suite.py [--grid-n 1024] [--r-max 20]
                                        [--dt 1e-3] [--amplitude 1]
"""

import argparse
import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from epdiff_radial.certify import certify, check_dominance
from epdiff_radial.grid import InitialData, RadialGrid
from epdiff_radial.kernels import KernelSpec
from epdiff_radial.solver import run

SPECS = [
    KernelSpec(0, 2, 3),
    KernelSpec(0, 2, 4),
    KernelSpec(1, 1, 1),
    KernelSpec(1, 1, 2),
    KernelSpec(1, 1, 3),
    KernelSpec(1, 2, 3),
    KernelSpec(1, 2, 4),
]


def neg_bump(r, lo=2.0, hi=8.0, amplitude=1.0):
    x = 2.0 * (r - lo) / (hi - lo) - 1.0
    out = np.zeros_like(r)
    inside = np.abs(x) < 1.0
    out[inside] = -amplitude * np.exp(1.0 - 1.0 / (1.0 - x[inside] ** 2))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--grid-n", type=int, default=1024)
    ap.add_argument("--r-max", type=float, default=20.0)
    ap.add_argument("--dt", type=float, default=1e-3)
    ap.add_argument("--amplitude", type=float, default=1.0)
    args = ap.parse_args(argv)

    grid = RadialGrid.uniform(args.grid_n, args.r_max)
    omega0 = neg_bump(grid.r, amplitude=args.amplitude)
    print(f"{'spec':>10} {'C':>10} {'T_bound':>10} {'t_detect':>10} "
          f"{'min_margin':>11} {'status':>16} {'secs':>6}")
    for spec in SPECS:
        t0 = time.time()
        cert = certify(spec, grid, omega0)
        if not (cert.passed and cert.applicable):
            print(f"{spec.label():>10}  certificate not applicable -- skipped")
            continue
        init = InitialData.from_omega0(omega0, grid, spec.n)
        record, _ = run(spec, grid, init, dt=args.dt,
                        horizon=1.05 * cert.t_bound, record_every=10)
        margin = check_dominance(cert, record)["min_margin"]
        print(f"{spec.label():>10} {cert.c_bound:>10.4g} {cert.t_bound:>10.4g} "
              f"{record.times[-1]:>10.4g} {margin:>11.3e} "
              f"{record.status:>16} {time.time() - t0:>6.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
