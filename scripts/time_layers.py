#!/usr/bin/env python3
"""Time a cold import, the cumulative quadrature, then rhs, a short solver
run, the Bessel rows, the certificate's scaled factors, invert_operator and
certify for every in-scope kernel, the H2 ratio bounds and the Liouville
oracle.

First comes the cold start: the median wall time, launch to exit, of 7
fresh interpreters that import ``epdiff_radial`` and its CLI, in
milliseconds, and the number of ``scipy`` modules such an import loads.
With ``--against DIR`` the fresh interpreters alternate between this
checkout and DIR (put first on their ``PYTHONPATH``).

Then it prints the best-of-k time of ``CorrectedTrapezoid.prefix`` and
``tail`` of a (2, L) stack on the standard support window (z_0 of the
standard negative bump on [2, 8], n = 1, and z_0 r, on the nodes of its
support) at N = 512 and 2048 nodes on [0, 20].

Then, for each of the 16 in-scope operators (H1dot n = 1-5, H2dot
n = 3-5, H1 n = 1-5, H2 n = 3-5) at N = 256, 512 and 2048 nodes on
[0, 20], it prints the best-of-k wall time of one ``solver.rhs`` on a
deformed state (the standard negative bump on [2, 8] after ``solver.run``
to t = 0.2 in steps of 0.02), and the time per step of a short fixed-step
``solver.run`` of 20 RK4 steps of 1e-3 with ``record_every`` = 20: 81 rhs
calls, as each step hands the rate of its end state to the next step and
to the energy.  ``run`` takes no initial state, so this run starts from
the undeformed state gamma = r, rho = 1.  Then prints, for each sigma = 1
operator but Camassa-Holm (H1 n = 1, whose factors are e^{-s} and sinh r),
the best-of-k time of ``KernelCase.inner``
and ``KernelCase.outer`` on the radii where its rhs evaluates them (the
deformed nodes 1 to max(i1, stop) - 1 for the inner factors and i0 + 1 to
N - 1 for the outer factors, with (i0, i1) the quadrature's reach of the
support start to stop - 1) at N = 256 and 2048, and of
``KernelCase.inner`` on 1,400 geometric radii of [1e-3, 600] (the row
``inner600``), across both of its branches: the power series below r = 30
and the rows' Hankel table, a polynomial in 1/r, at and past it.  Then
prints, for every in-scope operator, the best-of-k time of
``KernelCase.scaled_factors`` on the distinct r and s of the certificates'
condition mesh (r_max = 20), as ``certify`` forms them.  Then prints the best-of-k time of
``invert_operator`` at N = 4096 for a negative bump on [0.5, 2], and of
``certify.certify`` at N = 512 for the standard bump, after the time of the
first ``certify`` call of the process (H1dot_n1), which builds the
condition mesh, and of ``certify.h2_ratio_bounds`` for n = 3, 4 and 5 on
500 geometric radii of [1e-4, 30], as the benchmark's ``certify_invert``
workload calls it.  Last comes the time of one
``liouville.liouville_picard_oracle`` run at N = 512 with z_0 the standard
bump (n = 1), to half its blowup time.

Each sample is the mean over enough calls (at least one) to take about
10 ms; the best of 7 samples is reported, in microseconds.  ``--against
DIR`` also loads the library from DIR (a ``src`` directory of another
checkout) and times both versions in this one process, alternating sample
by sample, with a column for each and their ratio: this machine's speed
drifts by up to 2x between processes, so timings from separate runs do
not compare.  The ratio is the median of the 7 ratios of samples taken
side by side, so a slow stretch that covers the best sample of one
version alone does not show up as a gain or a loss.  Both versions
evaluate rhs and the factor rows on the deformed state of this checkout.
It also compares what the two versions return: a column after each
compared time says ``same`` when every output of that call is byte for
byte equal (the prefix and tail sums, ``rhs``, the run's end state and
energy series, the inner and outer factors, the inner factors on [1e-3,
600], the scaled factors on the mesh, ``invert_operator``, the certificate
report, the ratio bounds' lam_a, lam_b and verdict (their slacks follow
from lam_a and lam_b), the oracle's times and q history) and ``DIFFER``
otherwise, followed by the largest relative difference: over the outputs
and their rows, max |this - vs| / max |vs| along the row (for a
certificate report, over its numbers one by one, and inf if its text
differs), and the script exits with status 1 if any row differs.

Usage:
    python3 scripts/time_layers.py [--against DIR]
"""

import argparse
import importlib
import importlib.util
import os
import pathlib
import re
import statistics
import subprocess
import sys
import time
import timeit

import numpy as np

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
IN_SCOPE = (
    [(0, 1, n) for n in range(1, 6)]
    + [(0, 2, n) for n in range(3, 6)]
    + [(1, 1, n) for n in range(1, 6)]
    + [(1, 2, n) for n in range(3, 6)]
)
QUADRATURE_GRID_N = (512, 2048)
RHS_GRID_N = (256, 512, 2048)
BESSEL_GRID_N = (256, 2048)
INVERT_GRID_N = 4096
CERTIFY_GRID_N = 512
ORACLE_GRID_N = 512
RATIO_N = (3, 4, 5)
RATIO_RADII = np.geomspace(1e-4, 30.0, 500)
R_MAX = 20.0
BUMP = {"amplitude": 1.0, "r_lo": 2.0, "r_hi": 8.0}
INVERT_BUMP = {"amplitude": 1.0, "r_lo": 0.5, "r_hi": 2.0}
WARP_STEPS, WARP_DT = 10, 0.02
RUN_STEPS, STEP_DT = 20, 1e-3
SAMPLE_S = 0.01
REPEAT = 7
LAYERS = ("certify", "grid", "kernels", "liouville", "scenario", "solver")
# what a cold start runs: the package's path and its count of scipy modules
COLD_PROBE = (
    "import sys, epdiff_radial, epdiff_radial.cli; "
    "print(epdiff_radial.__file__, "
    "sum(m.partition('.')[0] == 'scipy' for m in sys.modules))"
)


def load(src, name):
    """The library's layers from src/epdiff_radial, imported as package name."""
    package = pathlib.Path(src).resolve() / "epdiff_radial"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    if spec is None:
        raise SystemExit(f"no epdiff_radial package in {src}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return {layer: importlib.import_module(f"{name}.{layer}") for layer in LAYERS}


def cold_starts(srcs):
    """REPEAT rounds of one fresh interpreter per src running COLD_PROBE,
    in turn: the wall times in ms per round, and the scipy module count of
    each src."""
    rounds, counts = [], [None] * len(srcs)
    for _ in range(REPEAT):
        times = []
        for i, src in enumerate(srcs):
            env = dict(os.environ, PYTHONPATH=str(src))
            start = time.perf_counter()
            # no timeout: with one, subprocess polls the child in sleeps of
            # up to 50 ms, which would round every time up to that grid
            done = subprocess.run([sys.executable, "-c", COLD_PROBE], env=env,
                                  capture_output=True, text=True)
            times.append((time.perf_counter() - start) * 1e3)
            if done.returncode:
                raise SystemExit(f"cold import from {src} failed:\n{done.stderr}")
            path, count = done.stdout.split()
            if not pathlib.Path(path).resolve().is_relative_to(src):
                raise SystemExit(f"cold import from {src} loaded {path}")
            counts[i] = int(count)
        rounds.append(times)
    return rounds, counts


def samples_us(funcs):
    """REPEAT rounds of the mean time of one call of each function, in us;
    within a round the functions are sampled in turn."""
    timers = [timeit.Timer(f) for f in funcs]
    number, took = timers[0].autorange()
    number = max(1, int(number * SAMPLE_S / max(took, 1e-9)))
    return [[timer.timeit(number) / number * 1e6 for timer in timers]
            for _ in range(REPEAT)]


def cells(rounds, per=1):
    """The best sample per version, divided by ``per``, then with two
    versions the median of the per-round ratios this/against."""
    out = "".join(f" {min(times) / per:>10.1f}" for times in zip(*rounds))
    if len(rounds[0]) == 2:
        out += f" {statistics.median(a / b for a, b in rounds):>6.2f}"
    return out


def heading(what, names):
    cols = "".join(f" {f'{what}_{name}':>10}" for name in names)
    return cols + (f" {'ratio':>6}" if len(names) == 2 else "")


def output_heading(names):
    return f" {'output':>6}" if len(names) == 2 else ""


def as_bytes(*arrays):
    return b"".join(a.dtype.str.encode() + a.tobytes() for a in arrays)


def text_bytes(text):
    return np.frombuffer(text.encode(), np.uint8)


def report_numbers(report):
    """A certificate report as its text without numbers, and its numbers,
    one per row."""
    number = r"[-+]?(?:\d+\.?\d*(?:e[-+]?\d+)?|inf|nan)"
    return (re.sub(number, "#", report),
            np.array(re.findall(number, report), float)[:, None])


def largest_difference(this, vs):
    """max |this - vs| / max |vs| over the arrays and their rows (last axis);
    inf when a shape differs or an array that is not of floats does."""
    worst = 0.0
    for a, b in zip(this, vs):
        a, b = np.atleast_1d(a), np.atleast_1d(b)
        if a.shape != b.shape or (
                a.dtype.kind != "f" and not np.array_equal(a, b)):
            return np.inf
        if not a.size or a.dtype.kind != "f":
            continue
        a, b = a.reshape(-1, a.shape[-1]), b.reshape(-1, b.shape[-1])
        same = (a == b) | (np.isnan(a) & np.isnan(b))
        with np.errstate(divide="ignore", invalid="ignore"):
            rows = (np.where(same, 0.0, np.abs(a - b)).max(axis=-1)
                    / np.abs(b).max(axis=-1))
        rows[same.all(axis=-1)] = 0.0
        worst = max(worst, float(np.nan_to_num(rows, nan=np.inf).max()))
    return worst


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", type=pathlib.Path,
                    help="src directory of another checkout to time alongside")
    args = ap.parse_args(argv)
    srcs = [SRC] + ([args.against.resolve()] if args.against else [])
    names = ["this", "vs"][: len(srcs)]
    print(f"# this = {SRC}"
          + (f", vs = {srcs[1]}, ratio = median of {REPEAT}"
             " rounds of this/vs" if args.against else ""))

    print(f"# cold start: median of {REPEAT} fresh interpreters importing "
          "epdiff_radial.cli, ms; scipy = modules loaded")
    rounds, counts = cold_starts(srcs)
    print(f"{'job':<10} {'':>5}" + heading("import", names)
          + "".join(f" {f'scipy_{name}':>10}" for name in names))
    medians = "".join(f" {statistics.median(times):>10.1f}"
                      for times in zip(*rounds))
    if len(srcs) == 2:
        medians += f" {statistics.median(a / b for a, b in rounds):>6.2f}"
    print(f"{'import':<10} {'':>5}" + medians
          + "".join(f" {count:>10}" for count in counts))

    versions = [load(src, name) for src, name in
                zip(srcs, ("epdiff_radial", "epdiff_against"))]
    print(f"# best of {REPEAT}, us per call")
    differing = []

    def compare(row, outputs, numbers=None):
        """The output column for one tuple of arrays per version: '' for
        one version, else same, or DIFFER and the largest relative
        difference of ``numbers`` (the outputs themselves by default)."""
        if len(outputs) < 2:
            return ""
        if as_bytes(*outputs[0]) == as_bytes(*outputs[1]):
            return f" {'same':>6}"
        differing.append(row)
        return f" {'DIFFER':>6} {largest_difference(*(numbers or outputs)):.1e}"

    print(f"{'job':<10} {'N':>5}" + heading("prefix", names) + output_heading(names)
          + heading("tail", names) + output_heading(names))
    for num in QUADRATURE_GRID_N:
        grid = versions[0]["grid"].RadialGrid.uniform(num, R_MAX)
        init = versions[0]["scenario"].builtin_initial_data("neg_bump", BUMP, grid, 1)
        start, stop = init.support_start, init.support_index + 1
        z0 = init.z0[start:stop]
        stack = np.stack([z0, z0 * grid.r[start:stop]])
        quadratures = [lib["grid"].RadialGrid.uniform(num, R_MAX).quadrature
                       for lib in versions]
        prefix = [lambda f=q.prefix: f(stack, start) for q in quadratures]
        tail = [lambda f=q.tail: f(stack, start) for q in quadratures]
        print(f"{'quadrature':<10} {num:>5}" + cells(samples_us(prefix))
              + compare(f"prefix {num}", [(f(),) for f in prefix])
              + cells(samples_us(tail))
              + compare(f"tail {num}", [(f(),) for f in tail]))

    print(f"{'spec':<10} {'N':>5}" + heading("rhs", names) + output_heading(names)
          + heading("run", names) + output_heading(names))
    bessel_rows = []
    for num in RHS_GRID_N:
        for sigma, k, n in IN_SCOPE:
            rhs_calls, run_calls, rates, runs, bessel_args = [], [], [], [], []
            warped = None
            for lib in versions:
                solver = lib["solver"]
                spec = lib["kernels"].KernelSpec(sigma, k, n)
                grid = lib["grid"].RadialGrid.uniform(num, R_MAX)
                init = lib["scenario"].builtin_initial_data("neg_bump", BUMP, grid, n)
                if warped is None:
                    _, warped = solver.run(spec, grid, init, dt=WARP_DT,
                                           horizon=WARP_STEPS * WARP_DT,
                                           record_snapshots=False)
                call = (spec, grid, init)
                rhs_calls.append(lambda s=solver, a=call, w=warped:
                                 s.rhs(*a, w.gamma, w.rho))
                run_calls.append(lambda s=solver, a=call: s.run(
                    *a, dt=STEP_DT, horizon=RUN_STEPS * STEP_DT,
                    record_every=RUN_STEPS, record_snapshots=False))
                rates.append((rhs_calls[-1](),))
                record, end = run_calls[-1]()
                runs.append((end.gamma, end.rho, np.array(record.energy)))
                case = lib["kernels"].kernel_case(spec)
                start, stop = init.support_start, init.support_index + 1
                i0, i1 = grid.quadrature.reach(start, stop)
                bessel_args.append((case, warped.gamma[1:max(i1, stop)],
                                    warped.gamma[i0 + 1:]))
            print(f"{spec.label():<10} {num:>5}"
                  + cells(samples_us(rhs_calls))
                  + compare(f"rhs {spec.label()} {num}", rates)
                  + cells(samples_us(run_calls), per=RUN_STEPS)
                  + compare(f"run {spec.label()} {num}", runs))
            if num in BESSEL_GRID_N and sigma == 1 and (k, n) != (1, 1):
                bessel_rows.append((spec.label(), num, bessel_args))

    print(f"{'spec':<10} {'N':>5}" + heading("inner", names) + output_heading(names)
          + heading("outer", names) + output_heading(names))
    for label, num, bessel_args in bessel_rows:
        inner = [lambda f=case.inner, r=r: f(r) for case, r, _ in bessel_args]
        outer = [lambda f=case.outer, s=s: f(s) for case, _, s in bessel_args]
        print(f"{label:<10} {num:>5}" + cells(samples_us(inner))
              + compare(f"inner {label} {num}", [(f(),) for f in inner])
              + cells(samples_us(outer))
              + compare(f"outer {label} {num}", [(f(),) for f in outer]))

    # the inner factors on radii across both of their branches, the power
    # series below 30 and the rows' Hankel table from there on
    wide = np.geomspace(1e-3, 600.0, 1400)
    print(f"{'spec':<10} {'N':>5}" + heading("inner600", names)
          + output_heading(names))
    for label, num, bessel_args in bessel_rows:
        if num == BESSEL_GRID_N[0]:
            calls = [lambda f=case.inner: f(wide) for case, _, _ in bessel_args]
            print(f"{label:<10} {wide.size:>5}" + cells(samples_us(calls))
                  + compare(f"inner600 {label}", [(f(),) for f in calls]))

    # the scaled factors each certificate forms on the condition mesh's
    # distinct radii
    mesh = versions[0]["certify"]._condition_mesh(R_MAX)
    radii = mesh.r.distinct, mesh.s.distinct
    print(f"{'spec':<10} {'N':>5}" + heading("scaled", names)
          + output_heading(names))
    for sigma, k, n in IN_SCOPE:
        calls = []
        for lib in versions:
            spec = lib["kernels"].KernelSpec(sigma, k, n)
            calls.append(lambda f=lib["kernels"].kernel_case(spec).scaled_factors:
                         f(*radii))
        print(f"{spec.label():<10} {radii[1].size:>5}" + cells(samples_us(calls))
              + compare(f"scaled_factors {spec.label()}",
                        [call() for call in calls]))

    print(f"{'spec':<10} {'N':>5}" + heading("invert", names)
          + output_heading(names))
    for sigma, k, n in IN_SCOPE:
        calls = []
        for lib in versions:
            spec = lib["kernels"].KernelSpec(sigma, k, n)
            grid = lib["grid"].RadialGrid.uniform(INVERT_GRID_N, R_MAX)
            omega = lib["scenario"].builtin_initial_data(
                "neg_bump", INVERT_BUMP, grid, n).omega0
            calls.append(lambda f=lib["kernels"].invert_operator,
                         a=(spec, grid, omega): f(*a))
        print(f"{spec.label():<10} {INVERT_GRID_N:>5}"
              + cells(samples_us(calls))
              + compare(f"invert {spec.label()}", [(call(),) for call in calls]))

    print(f"{'spec':<10} {'N':>5}" + heading("certify", names)
          + output_heading(names))
    certify_calls = []
    for sigma, k, n in IN_SCOPE:
        calls = []
        for lib in versions:
            spec = lib["kernels"].KernelSpec(sigma, k, n)
            grid = lib["grid"].RadialGrid.uniform(CERTIFY_GRID_N, R_MAX)
            omega = lib["scenario"].builtin_initial_data(
                "neg_bump", BUMP, grid, n).omega0
            calls.append(lambda f=lib["certify"].certify,
                         a=(spec, grid, omega): f(*a))
        certify_calls.append((spec.label(), calls))
    first = []
    for call in certify_calls[0][1]:
        start = time.perf_counter()
        call()
        first.append((time.perf_counter() - start) * 1e6)
    print(f"{'first':<10} {CERTIFY_GRID_N:>5}" + cells([first]))
    for label, calls in certify_calls:
        reports = [call().report() for call in calls]
        print(f"{label:<10} {CERTIFY_GRID_N:>5}" + cells(samples_us(calls))
              + compare(f"certify {label}",
                        [(text_bytes(report),) for report in reports],
                        [(text_bytes(text), numbers) for text, numbers
                         in map(report_numbers, reports)]))

    print(f"{'spec':<10} {'N':>5}" + heading("ratio", names)
          + output_heading(names))
    for n in RATIO_N:
        calls = [lambda f=lib["certify"].h2_ratio_bounds, n=n: f(n, RATIO_RADII)
                 for lib in versions]
        bounds = [call() for call in calls]
        print(f"{f'H2_n{n}':<10} {RATIO_RADII.size:>5}" + cells(samples_us(calls))
              + compare(f"ratio H2_n{n}", [
                  (b["lam_a"], b["lam_b"], np.array([b["passed"]])) for b in bounds]))

    print(f"{'job':<10} {'N':>5}" + heading("oracle", names)
          + output_heading(names))
    calls = []
    for lib in versions:
        liouville = lib["liouville"]
        grid = lib["grid"].RadialGrid.uniform(ORACLE_GRID_N, R_MAX)
        z0 = lib["scenario"].builtin_initial_data("neg_bump", BUMP, grid, 1).z0
        horizon = 0.5 * liouville.liouville_blowup_time(
            liouville.theta_tail(z0, grid.r))
        calls.append(lambda f=liouville.liouville_picard_oracle,
                     a=(z0, horizon, grid): f(*a))
    print(f"{'liouville':<10} {ORACLE_GRID_N:>5}" + cells(samples_us(calls))
          + compare("oracle", [tuple(call()) for call in calls]))
    if differing:
        print(f"# outputs differ in {len(differing)} rows: " + ", ".join(differing))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
