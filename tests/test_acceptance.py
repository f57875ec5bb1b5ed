"""Acceptance gate: one test per headline claim, at the stated tolerances.

Each test prints a single [acceptance NN] PASS/FAIL line (run with ``-s`` to
see them on passing runs).  The blowup suite (criteria 05/07/08) shares one
module-scoped set of trajectories; it is by far the most expensive part.
"""

import math
import time

import numpy as np
import pytest

from epdiff_radial.certify import certify, check_dominance, h2_ratio_bounds
from epdiff_radial.grid import InitialData, RadialGrid
from epdiff_radial.hunter_saxton import HSExactSolution
from epdiff_radial.kernels import (
    KernelSpec,
    apply_operator,
    invert_operator,
    kernel_case,
)
from epdiff_radial.liouville import (
    liouville_blowup_time,
    liouville_exact,
    liouville_picard_oracle,
    theta_tail,
)
from epdiff_radial.scenario import (
    ScenarioConfig,
    builtin_initial_data,
    run_scenario,
)
from epdiff_radial.solver import run
from conftest import neg_cos_bump, neg_exp_bump


def report(num, name, ok, detail):
    line = f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


# ------------------------------------------------------------------ 01


def test_01_bessel_identities():
    # the Wronskian beta_p alpha_p' - alpha_p beta_p' = r^{-p-1} as the jump
    # condition of H1_p's rows f = r alpha_p, g = r beta_p, the factors the
    # solver integrates: r^(p-1) (f dg - df g) = -1
    r = np.geomspace(0.1, 30.0, 200)
    worst = 0.0
    ok = True
    for p in range(1, 9):
        case = kernel_case(KernelSpec(1, 1, p))
        ((f, df),), ((g, dg),) = case.inner(r), case.outer(r)
        worst = max(worst, np.max(np.abs(r ** (p - 1) * (f * dg - df * g) + 1.0)))
        # alpha_p(0) = df(0) = 1 exactly
        ok &= case.inner(np.zeros(1))[0, 1, 0] == 1.0
        # r^p beta_p = r^(p-1) g -> 1/p at the origin; p = 1 approaches its
        # limit only linearly (r beta_1 = e^{-r} exactly), so it is checked
        # in closed form
        g_near = float(case.outer(1e-6)[0, 0]) * 1e-6 ** (p - 1)
        ok &= (abs(g_near - 1.0 / p) < 1e-8 if p > 1
               else abs(g_near - math.exp(-1e-6)) < 1e-14)
    ok &= worst <= 1e-10
    report(1, "bessel identities", ok, f"worst Wronskian rel err {worst:.3e}")


# ------------------------------------------------------------------ 02


def test_02_operator_roundtrip():
    t0 = time.perf_counter()
    grid = RadialGrid.uniform(4096, 20.0)
    om = neg_cos_bump(grid.r, 0.5, 2.0)
    specs = [
        KernelSpec(0, 1, 3),
        KernelSpec(0, 2, 3),
        KernelSpec(1, 1, 3),
        KernelSpec(1, 2, 3),
        KernelSpec(0, 1, 1),
        KernelSpec(1, 1, 1),
    ]
    worst = 0.0
    for spec in specs:
        u = invert_operator(spec, grid, om)
        back = apply_operator(spec, grid, u)
        err = np.max(np.abs(back - om)) / np.max(np.abs(om))
        worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 30.0
    report(2, "invert/apply roundtrip", ok,
           f"worst rel err {worst:.3e}, {elapsed:.1f}s")


# ------------------------------------------------------------------ 03


def test_03_liouville_oracle():
    t0 = time.perf_counter()
    grid = RadialGrid.uniform(512, 20.0)
    z0 = neg_exp_bump(grid.r, 2.0, 8.0)
    theta = theta_tail(z0, grid.r)
    t_star = liouville_blowup_time(theta)
    # exact vs independent RK4 oracle at half the blowup time
    _, q_hist = liouville_picard_oracle(z0, 0.5 * t_star, grid)
    err = np.max(np.abs(q_hist[-1] - liouville_exact(theta, 0.5 * t_star)))
    # locate the oracle's abort time by bisection; it aborts when
    # min q < 1e-3, i.e. at t_hit = T*(1 - sqrt(1e-3)) for the exact flow
    def completes(h):
        try:
            liouville_picard_oracle(z0, h, grid)
            return True
        except RuntimeError:
            return False

    lo, hi = 0.5 * t_star, 1.05 * t_star
    assert completes(lo) and not completes(hi)
    for _ in range(16):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if completes(mid) else (lo, mid)
    t_est = 0.5 * (lo + hi) / (1.0 - math.sqrt(1e-3))
    rel = abs(t_est - t_star) / t_star
    elapsed = time.perf_counter() - t0
    ok = err <= 1e-6 and rel <= 0.01 and elapsed < 10.0
    report(3, "liouville exact vs oracle", ok,
           f"q err {err:.3e}, T rel err {rel:.3e}, {elapsed:.1f}s")


# ------------------------------------------------------------------ 04


def test_04_hunter_saxton_convergence():
    t0 = time.perf_counter()
    details = []
    ok = True
    for n in (1, 3):
        grid = RadialGrid.uniform(2048, 20.0)
        omega0 = neg_exp_bump(grid.r, 2.0, 8.0)
        init = InitialData.from_omega0(omega0, grid, n)
        exact = HSExactSolution(n, grid, omega0)
        t_half = 0.5 * exact.breakdown_time()
        spec = KernelSpec(0, 1, n)
        _, state = run(spec, grid, init, dt=5e-4, horizon=t_half)
        _, rho_e = exact.flow(t_half)
        err = np.max(np.abs(state.rho - rho_e))
        ok &= err <= 1e-4
        details.append(f"n={n} rho err {err:.3e}")
    # spatial order (n = 3): grid refinement at fixed small dt
    errs = []
    for num in (256, 512, 1024):
        g = RadialGrid.uniform(num, 20.0)
        om = neg_exp_bump(g.r, 2.0, 8.0)
        ini = InitialData.from_omega0(om, g, 3)
        ex = HSExactSolution(3, g, om)
        th = 0.5 * ex.breakdown_time()
        _, st = run(KernelSpec(0, 1, 3), g, ini, dt=5e-4, horizon=th)
        errs.append(np.max(np.abs(st.rho - ex.flow(th)[1])))
    sp_orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    ok &= min(sp_orders) >= 2.0
    details.append(f"spatial orders {sp_orders[0]:.2f}/{sp_orders[1]:.2f}")
    # temporal order (n = 3): step refinement against a fine-step reference.
    # Measured orders are 3.99+ and approach 4 under further refinement; the
    # assertion allows the expected pre-asymptotic slack.
    g = RadialGrid.uniform(512, 20.0)
    om = neg_exp_bump(g.r, 2.0, 8.0)
    ini = InitialData.from_omega0(om, g, 3)
    ex = HSExactSolution(3, g, om)
    th = 0.5 * ex.breakdown_time()
    _, ref = run(KernelSpec(0, 1, 3), g, ini, dt=th / 2048, horizon=th)
    terrs = []
    for m in (16, 32, 64):
        _, st = run(KernelSpec(0, 1, 3), g, ini, dt=th / m, horizon=th)
        terrs.append(np.max(np.abs(st.gamma - ref.gamma)))
    t_orders = [np.log2(terrs[i] / terrs[i + 1]) for i in range(2)]
    ok &= t_orders[0] >= 3.8 and t_orders[1] >= 3.9
    details.append(f"temporal orders {t_orders[0]:.2f}/{t_orders[1]:.2f}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 300.0
    report(4, "hunter-saxton vs solver", ok,
           "; ".join(details) + f", {elapsed:.0f}s")


# ------------------------------------------------------- 05/07/08 fixture


BLOWUP_SPECS = [
    KernelSpec(0, 2, 3),
    KernelSpec(0, 2, 4),
    KernelSpec(1, 1, 1),
    KernelSpec(1, 1, 2),
    KernelSpec(1, 1, 3),
    KernelSpec(1, 2, 3),
    KernelSpec(1, 2, 4),
]


@pytest.fixture(scope="module")
def blowup_suite():
    grid = RadialGrid.uniform(1024, 20.0)
    omega0 = neg_exp_bump(grid.r, 2.0, 8.0)
    results = {}
    t0 = time.perf_counter()
    for spec in BLOWUP_SPECS:
        init = InitialData.from_omega0(omega0, grid, spec.n)
        cert = certify(spec, grid, omega0)
        assert cert.passed and cert.applicable
        record, state = run(
            spec, grid, init, dt=1e-3, horizon=1.05 * cert.t_bound,
            record_every=10,
        )
        results[spec.label()] = (cert, record, state)
    return results, time.perf_counter() - t0


def test_05_blowup_before_certified_bound(blowup_suite):
    results, elapsed = blowup_suite
    ok = elapsed < 900.0
    details = []
    for label, (cert, record, _) in results.items():
        detected = record.status == "blowup_detected"
        in_time = record.times[-1] <= 1.05 * cert.t_bound
        ok &= detected and in_time
        details.append(f"{label} t={record.times[-1]:.3g}/T<={cert.t_bound:.3g}")
    report(5, "finite-time blowup within bound", ok,
           "; ".join(details) + f", {elapsed:.0f}s")


def test_07_dominance_margins(blowup_suite):
    results, _ = blowup_suite
    ok = True
    worst = np.inf
    for label, (cert, record, _) in results.items():
        out = check_dominance(cert, record)
        ok &= out["passed"]
        ok &= abs(out["margins"][0]) < 1e-12  # equality at t = 0
        worst = min(worst, out["min_margin"])
    report(7, "majorant dominates monitored q", ok,
           f"worst margin {worst:.3e} >= -1e-4, zero at t=0")


def test_08_energy_conservation(blowup_suite):
    results, _ = blowup_suite
    ok = True
    worst = 0.0
    for label, (cert, record, _) in results.items():
        times = np.asarray(record.times)
        e = np.asarray(record.energy)
        half = times <= 0.5 * times[-1]
        drift = np.max(np.abs(e[half] - e[0])) / abs(e[0])
        worst = max(worst, drift)
        ok &= drift <= 1e-5
    report(8, "energy conservation", ok,
           f"worst rel drift {worst:.3e} over [0, 0.5 t_blowup]")


# ------------------------------------------------------------------ 06


def test_06_certification():
    t0 = time.perf_counter()
    grid = RadialGrid.uniform(512, 20.0)
    omega0 = neg_exp_bump(grid.r, 2.0, 8.0)
    in_scope = (
        [KernelSpec(0, 1, n) for n in range(1, 6)]
        + [KernelSpec(0, 2, n) for n in range(3, 6)]
        + [KernelSpec(1, 1, n) for n in range(1, 6)]
        + [KernelSpec(1, 2, n) for n in range(3, 6)]
    )
    ok = True
    c_err = 0.0
    for spec in in_scope:
        cert = certify(spec, grid, omega0)
        ok &= cert.passed
        if spec.sigma == 0:
            closed = spec.n if spec.k == 1 else 2.0 * (spec.n - 2.0) / (spec.n + 2.0)
            c_err = max(c_err, abs(cert.c_bound - closed))
        elif spec == KernelSpec(1, 1, 1):
            c_err = max(c_err, abs(cert.c_bound - 1.0))
            ok &= cert.c_bound >= 1.0 - 1e-6
    ok &= c_err <= 1e-6
    r = np.geomspace(1e-4, 30.0, 500)
    for n in (3, 4, 5):
        ok &= h2_ratio_bounds(n, r)["passed"]
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    report(6, "certificates + closed-form C + ratio bounds", ok,
           f"worst C err {c_err:.3e}, {elapsed:.1f}s")


# ------------------------------------------------------------------ 09


def test_09_nonnegative_momentum_global():
    # scale time := 1/max Theta_0, the natural rate of the Liouville growth
    ok = True
    details = []
    for n, (lo, hi) in ((1, (0.5, 2.5)), (3, (1.0, 4.0))):
        grid = RadialGrid.uniform(1024, 20.0)
        data = builtin_initial_data(
            "hs_mixed_sign",
            {"amplitude": 0.5, "r_lo": lo, "r_hi": hi, "bias": 1.0},
            grid, n,
        )
        assert np.all(data.omega0 >= 0.0)
        theta = theta_tail(data.z0, grid.r)
        horizon = 3.0 / float(np.max(theta))
        record, state = run(
            KernelSpec(0, 1, n), grid, data, dt=1e-3, horizon=horizon
        )
        min_rho = float(np.min(state.rho))
        ok &= record.status == "completed" and min_rho >= 0.5
        details.append(f"n={n} min rho {min_rho:.3f}")
        if n == 3:
            exact = HSExactSolution(n, grid, data.omega0)
            err = np.max(np.abs(state.rho - exact.flow(horizon)[1]))
            ok &= err < 1e-4
            details.append(f"exact rho err {err:.2e}")
    report(9, "nonnegative momentum runs globally", ok, "; ".join(details))


# ------------------------------------------------------------------ 10


def test_10_determinism(tmp_path):
    config = ScenarioConfig(
        sigma=1, k=1, n=2, grid_n=512, dt=2e-3, horizon=0.2,
        record_every=10,
    )
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_scenario(config, output_path=str(p1), quiet=True)
    run_scenario(config, output_path=str(p2), quiet=True)

    def strip(path):
        return [l for l in path.read_text().splitlines()
                if not l.startswith("# timestamp:")]

    ok = strip(p1) == strip(p2)
    report(10, "byte-identical reruns", ok,
           f"{len(strip(p1))} lines compared, timestamp excluded")
