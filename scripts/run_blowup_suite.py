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

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from epdiff_radial.certify import certify, check_dominance
from epdiff_radial.grid import RadialGrid
from epdiff_radial.kernels import KernelSpec
from epdiff_radial.scenario import builtin_initial_data
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


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--grid-n", type=int, default=1024)
    ap.add_argument("--r-max", type=float, default=20.0)
    ap.add_argument("--dt", type=float, default=1e-3)
    ap.add_argument("--amplitude", type=float, default=1.0)
    args = ap.parse_args(argv)

    grid = RadialGrid.uniform(args.grid_n, args.r_max)
    bump = {"amplitude": args.amplitude, "r_lo": 2.0, "r_hi": 8.0}
    print(f"{'spec':>10} {'C':>10} {'T_bound':>10} {'t_detect':>10} "
          f"{'min_margin':>11} {'status':>16} {'secs':>6}")
    for spec in SPECS:
        t0 = time.time()
        init = builtin_initial_data("neg_bump", bump, grid, spec.n)
        cert = certify(spec, grid, init.omega0)
        if not (cert.passed and cert.applicable):
            print(f"{spec.label():>10}  certificate not applicable -- skipped")
            continue
        record, _ = run(spec, grid, init, dt=args.dt,
                        horizon=1.05 * cert.t_bound, record_every=10)
        margin = check_dominance(cert, record)["min_margin"]
        print(f"{spec.label():>10} {cert.c_bound:>10.4g} {cert.t_bound:>10.4g} "
              f"{record.times[-1]:>10.4g} {margin:>11.3e} "
              f"{record.status:>16} {time.time() - t0:>6.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
