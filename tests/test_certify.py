"""Blowup certificates: kernel conditions, majorant algebra, dominance."""

import dataclasses
import functools
import importlib
import json
import pathlib
import tracemalloc

import numpy as np
import pytest

from epdiff_radial import bessel
from epdiff_radial.certify import (
    certify,
    check_dominance,
    h2_ratio_bounds,
    majorant,
    monitored_quantity,
)
from epdiff_radial.grid import InitialData, RadialGrid
from epdiff_radial.kernels import KernelSpec, kernel_case, phi
from epdiff_radial.solver import FlowState, run
from conftest import neg_exp_bump

# the module, not the certify() function the package exports under its name
certify_module = importlib.import_module("epdiff_radial.certify")

IN_SCOPE = (
    [KernelSpec(0, 1, n) for n in range(1, 6)]
    + [KernelSpec(0, 2, n) for n in range(3, 6)]
    + [KernelSpec(1, 1, n) for n in range(1, 6)]
    + [KernelSpec(1, 2, n) for n in range(3, 6)]
)


@pytest.fixture(scope="module")
def grid():
    return RadialGrid.uniform(512, 20.0)


@pytest.fixture(scope="module")
def omega0(grid):
    return neg_exp_bump(grid.r, 2.0, 8.0)


@pytest.mark.parametrize("spec", IN_SCOPE, ids=lambda s: s.label())
def test_conditions_pass_in_scope(grid, omega0, spec):
    cert = certify(spec, grid, omega0)
    assert cert.applicable
    assert cert.passed, cert.report()
    assert cert.c_bound > 0.0
    assert np.isfinite(cert.t_bound) and cert.t_bound > 0.0


def test_certified_c_matches_closed_forms(grid, omega0):
    # S is constant (= n, resp. 2(n-2)/(n+2)) for the homogeneous metrics,
    # and min_r e^r = 1 for the n = 1 full metric
    for n in (1, 3, 5):
        c = certify(KernelSpec(0, 1, n), grid, omega0).c_bound
        assert c == pytest.approx(n, abs=1e-6)
    for n in (3, 4):
        c = certify(KernelSpec(0, 2, n), grid, omega0).c_bound
        assert c == pytest.approx(2.0 * (n - 2.0) / (n + 2.0), abs=1e-6)
    c_ch = certify(KernelSpec(1, 1, 1), grid, omega0).c_bound
    assert c_ch == pytest.approx(1.0, abs=1e-6)
    assert c_ch >= 1.0 - 1e-6


@pytest.mark.parametrize("n", [3, 4, 5])
def test_h2_ratio_bounds(n):
    r = np.geomspace(1e-4, 30.0, 500)
    out = h2_ratio_bounds(n, r)
    assert out["passed"], out["slacks"]
    # lam_a -> 1 at the origin
    assert out["lam_a"][0] == pytest.approx(1.0, abs=1e-7)
    # not positive, or not finite (NaN and inf passed the check and gave
    # RuntimeWarnings and passed = False)
    for bad in ([0.0, 1.0], [0.1, np.nan, 0.3], [0.1, 0.2, np.inf]):
        with pytest.raises(ValueError):
            h2_ratio_bounds(n, np.array(bad))


def test_h2_ratio_bounds_domain_is_the_rows():
    # the ratios are read from H2's rows, so n is that of KernelSpec(1, 2,
    # n), at most 17 from SERIES_RADIUS on (the Hankel expansion of
    # alpha_{n+4} stops at order 21), and r at most r_max_limit
    r = np.geomspace(1e-4, 30.0, 500)
    for n in (2, True, 3.0):
        with pytest.raises(ValueError):
            h2_ratio_bounds(n, r)
    for n in (18, 21):
        with pytest.raises(ValueError):
            h2_ratio_bounds(n, r)
        assert h2_ratio_bounds(n, r[r < bessel.SERIES_RADIUS])["passed"]
    assert h2_ratio_bounds(17, r)["passed"]
    limit = KernelSpec(1, 2, 3).r_max_limit
    assert h2_ratio_bounds(3, np.array([1.0, limit]))["passed"]
    with pytest.raises(ValueError, match="r_max_limit"):
        h2_ratio_bounds(3, np.array([1.0, 800.0]))
    # the monotone checks compare neighbours: a 1-D array of two radii or more
    for few in (np.array([]), np.array([1.0]), np.array(1.0), 1.0,
                np.array([[1.0, 2.0], [3.0, 4.0]])):
        with pytest.raises(ValueError, match="at least two radii"):
            h2_ratio_bounds(3, few)


def test_mixed_sign_momentum_not_applicable(grid, omega0):
    mixed = omega0 - neg_exp_bump(grid.r, 9.0, 11.0, amplitude=0.3)
    cert = certify(KernelSpec(1, 1, 3), grid, mixed)
    assert not cert.applicable
    assert cert.t_bound == np.inf
    # the kernel conditions themselves do not depend on omega_0
    assert cert.passed


@pytest.mark.parametrize("r_max", [5e-4, 1e-3, np.nextafter(1e-3, 1.0)])
def test_certify_requires_r_max_past_the_condition_mesh_start(r_max):
    # the conditions are sampled on geomspace(1e-3, r_max), which runs
    # backwards, outside the grid, for r_max < 1e-3
    grid = RadialGrid.uniform(64, r_max)
    omega0 = -np.exp(-((grid.r / r_max - 0.3) / 0.1) ** 2)
    spec = KernelSpec(1, 2, 3)
    if r_max > 1e-3:
        assert certify(spec, grid, omega0).passed
    else:
        with pytest.raises(ValueError, match="requires r_max > 1e-3"):
            certify(spec, grid, omega0)


def test_zero_momentum_not_applicable(grid):
    cert = certify(KernelSpec(0, 1, 3), grid, np.zeros(grid.num))
    assert not cert.applicable
    assert cert.t_bound == np.inf


def test_majorant_t0_is_one_and_h2dot_n3_specialization(grid, omega0):
    # Q = 6 for (0,2) in n = 3, so the majorant at the origin reduces to
    # (1 - (t/30) int s^2 |omega_0| ds)^2 and T_bound = 30 / int s^2 |omega_0|
    spec = KernelSpec(0, 2, 3)
    cert = certify(spec, grid, omega0)
    np.testing.assert_allclose(majorant(cert, 0.0), 1.0)
    integral = np.trapezoid(grid.r**2 * np.abs(omega0), grid.r)
    t = 0.7
    assert majorant(cert, t)[0] == pytest.approx(
        (1.0 - t / 30.0 * integral) ** 2, rel=1e-4
    )
    assert cert.t_bound == pytest.approx(30.0 / integral, rel=1e-4)


def test_monitored_quantity_identity_state(grid, omega0):
    # q = rho G(r) / G(gamma) is a ratio of the same row at gamma = r, so the
    # margin at t = 0 is 0 to the last bit, not only to roundoff
    state = FlowState(t=0.0, gamma=grid.r.copy(), rho=np.ones(grid.num))
    for spec in IN_SCOPE:
        cert = certify(spec, grid, omega0)
        assert np.all(monitored_quantity(cert, state) == 1.0), spec.label()


def test_dominance_along_trajectory(grid, omega0):
    spec = KernelSpec(1, 1, 2)
    cert = certify(spec, grid, omega0)
    init = InitialData.from_omega0(omega0, grid, spec.n)
    record, _ = run(spec, grid, init, dt=2e-3, horizon=0.5 * cert.t_bound,
                    record_every=20)
    out = check_dominance(cert, record)
    assert out["passed"], out["min_margin"]
    # equality at t = 0 up to roundoff
    assert abs(out["margins"][0]) < 1e-12


def test_dominance_evaluates_g_on_the_grid_once(grid, omega0, monkeypatch):
    # G_hat(r) on the fixed grid is the same for every snapshot: one
    # evaluation per snapshot at gamma and one at r, with the margins unchanged
    spec = KernelSpec(1, 2, 3)
    cert = certify(spec, grid, omega0)
    init = InitialData.from_omega0(omega0, grid, spec.n)
    record, _ = run(spec, grid, init, dt=1e-2, horizon=0.1, record_every=2)
    expected = [float(np.min(majorant(cert, t) - monitored_quantity(
        cert, FlowState(t=t, gamma=gamma, rho=rho))))
        for t, (gamma, rho) in zip(record.times, record.snapshots)]
    calls = []
    case = kernel_case(spec)
    origin_factor = case.origin_factor
    monkeypatch.setattr(case, "origin_factor",
                        lambda *args: calls.append(args) or origin_factor(*args))
    out = check_dominance(cert, record)
    assert len(calls) == len(record.snapshots) + 1
    assert out["margins"].tobytes() == np.array(expected).tobytes()


def test_dominance_requires_snapshots(grid, omega0):
    spec = KernelSpec(0, 1, 3)
    cert = certify(spec, grid, omega0)
    init = InitialData.from_omega0(omega0, grid, spec.n)
    record, _ = run(spec, grid, init, dt=5e-3, horizon=0.05,
                    record_snapshots=False)
    with pytest.raises(ValueError):
        check_dominance(cert, record)


def test_report_format(grid, omega0):
    cert = certify(KernelSpec(1, 2, 3), grid, omega0)
    text = cert.report()
    for key in ("condition_positivity", "condition_log_supermodularity",
                "condition_S_bound", "T_bound", "applicable = yes"):
        assert key in text


# The reports of the 16 in-scope certificates on the grid fixture, written
# when every condition value was evaluated point by point.
REPORTS = json.loads(
    (pathlib.Path(__file__).parent / "certify_reports_n512.json").read_text())


@pytest.mark.parametrize("spec", IN_SCOPE, ids=lambda s: s.label())
def test_reports_equal_the_point_by_point_reports(grid, omega0, spec):
    lines = certify(spec, grid, omega0).report().split("\n")
    assert lines == REPORTS[spec.label()]


@pytest.mark.parametrize("spec", IN_SCOPE, ids=lambda s: s.label())
def test_distinct_radius_values_equal_point_by_point(spec):
    # a kernel factor depends only on its radius, so the factors gathered
    # from the distinct radii are the point-by-point ones, byte for byte,
    # and so is everything built from them: phi equals kernels.phi at every
    # point, and condition (b) its formula from the factors at the points
    mesh = certify_module._condition_mesh(20.0)
    case = kernel_case(spec)
    f, g = case.scaled_factors(mesh.r.distinct, mesh.s.distinct)
    f_at, g_at = case.scaled_factors(mesh.r.values, mesh.s.values)
    assert f[..., mesh.r.index].tobytes() == f_at.tobytes()
    assert g[..., mesh.s.index].tobytes() == g_at.tobytes()

    vals, mixed = certify_module._condition_values(case, mesh)
    ref = phi(spec, mesh.r.values, mesh.s.values)
    assert vals.tobytes() == ref.tobytes()
    if case.separable:
        assert mixed is None
        return

    r, s = mesh.r.values, mesh.s.values
    (f1, df1), (f2, df2) = f_at
    (g1, dg1), (g2, dg2) = g_at
    phi_hat = f1 / r * (g1 / s) + f2 / r * (g2 / s)
    ref = ((f1 * df2 - df1 * f2) / (r * r)) * ((g1 * dg2 - dg1 * g2) / (s * s)) / phi_hat**2
    assert mixed.tobytes() == ref.tobytes()


@pytest.mark.parametrize("r_max", [20.0, 600.0])
@pytest.mark.parametrize("spec", [s for s in IN_SCOPE if s.sigma],
                         ids=lambda s: s.label())
def test_certificate_factors_are_the_solvers_rescaled(spec, r_max):
    # the certificate checks the factors the solver integrates: its scaled
    # inner factors are inner(r) e^-r, byte for byte, on the condition
    # mesh's distinct r and on the radii of the S bound, and below
    # SERIES_RADIUS those of a batch with no radius past it, as a solver
    # stage on [0, 20] forms them
    case = kernel_case(spec)
    for r in (certify_module._condition_mesh(r_max).r.distinct,
              np.geomspace(1e-3, r_max, 500)):
        f, _ = case.scaled_factors(r, r)
        assert f.tobytes() == (case.inner(r) * np.exp(-r)).tobytes()
        near = r < bessel.SERIES_RADIUS
        assert f[..., near].tobytes() == (
            case.inner(r[near]) * np.exp(-r[near])).tobytes()


def mixed_log_delta_by_mpmath(n, r, s):
    """d^2 ln delta / dr ds of H2_n at (r, s), by mpmath.diff at 30 digits.

    delta = f_1 g_1 + f_2 g_2 with f_1 = -r^3 alpha_{n+2}(r) / (2(n + 2)),
    f_2 = r alpha_n(r) / (2n), g_1 = s beta_n(s) and g_2 = s beta_{n-2}(s),
    from besseli and besselk at 60 digits: central differences with the
    step 1e-15 leave about 30 digits of them.  (mpmath's own step takes the
    working precision of the nested differences past 150 digits, where its
    besselk of integer order takes seconds.)
    """
    mpmath = pytest.importorskip("mpmath")

    def scale(p):
        nu = mpmath.mpf(p) / 2
        return nu, 2**nu * mpmath.gamma(nu + 1)

    @functools.lru_cache(maxsize=None)
    def inner(x):
        nu, c = scale(n)
        up, c_up = scale(n + 2)
        alpha, alpha_up = (c * x**-nu * mpmath.besseli(nu, x),
                           c_up * x**-up * mpmath.besseli(up, x))
        return -x**3 * alpha_up / (2 * (n + 2)), x * alpha / (2 * n)

    @functools.lru_cache(maxsize=None)
    def outer(y):
        return tuple(y * y**-nu * mpmath.besselk(nu, y) / c
                     for nu, c in (scale(n), scale(n - 2)))

    def log_delta(x, y):
        with mpmath.workdps(60):
            return mpmath.log(sum(f * g for f, g in zip(inner(x), outer(y))))

    with mpmath.workdps(30):
        return mpmath.diff(log_delta, (mpmath.mpf(r), mpmath.mpf(s)), (1, 1),
                           h=mpmath.mpf("1e-15"))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_h2_log_supermodularity_matches_mpmath(n):
    # from the far corner to the near-diagonal and diagonal points that a
    # difference stencil of step 1e-3 could not reach
    points = [(1e-3, 600.0), (1e-3, 1e-3 + 1e-6), (2.0, 2.0), (29.9, 31.0),
              (100.0, 100.0), (300.0, 599.0)]
    r, s = (certify_module._radii(np.array(v)) for v in zip(*points))
    _, got = certify_module._condition_values(
        kernel_case(KernelSpec(1, 2, n)), certify_module._ConditionMesh(r, s))
    for value, (r, s) in zip(got, points):
        exact = mixed_log_delta_by_mpmath(n, r, s)
        assert abs(float((value - exact) / exact)) <= 1e-10, (r, s)


@pytest.mark.parametrize("r_max", [20.0, 600.0])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_h2dot_log_supermodularity_matches_closed_form(n, r_max):
    # phi = s^-n Phi with Phi = s^2/c1 - r^2/c2, so the mixed derivative of
    # ln phi is -Phi_r Phi_s / Phi^2 = 4 r s / (c1 c2 Phi^2)
    mesh = certify_module._condition_mesh(r_max)
    r, s = mesh.r.values, mesh.s.values
    c1, c2 = 2.0 * n * (n - 2.0), 2.0 * n * (n + 2.0)
    exact = 4.0 * r * s / (c1 * c2 * (s**2 / c1 - r**2 / c2)**2)
    _, got = certify_module._condition_values(kernel_case(KernelSpec(0, 2, n)), mesh)
    assert np.max(np.abs(got / exact - 1.0)) <= 1e-13


@pytest.mark.parametrize("n", [53, 60, 100])
def test_h2dot_log_supermodularity_stays_finite_for_large_n(n):
    # the outer rows pass 2^256 near s = 1e-3 from n = 53 on, where their
    # Wronskians and phi_hat^2 overflowed and condition (b) read NaN; scaled
    # by powers of two, it keeps the closed form and phi stays s^-n Phi
    grid = RadialGrid.uniform(256, 20.0)
    spec = KernelSpec(0, 2, n)
    cond = certify(spec, grid, neg_exp_bump(grid.r, 2.0, 8.0)).conditions[
        "log_supermodularity"]
    assert cond["passed"] and np.isfinite(cond["worst_value"])
    mesh = certify_module._condition_mesh(grid.r_max)
    r, s = mesh.r.values, mesh.s.values
    c1, c2 = 2.0 * n * (n - 2.0), 2.0 * n * (n + 2.0)
    exact = 4.0 * r * s / (c1 * c2 * (s**2 / c1 - r**2 / c2)**2)
    vals, got = certify_module._condition_values(kernel_case(spec), mesh)
    assert np.max(np.abs(got / exact - 1.0)) <= 1e-13
    assert vals.tobytes() == phi(spec, r, s).tobytes()


def test_warm_certificate_keeps_its_temporaries_small(grid, omega0):
    # the conditions are evaluated one block of mesh points at a time, so a
    # certificate holds a few block-sized temporaries next to its outputs
    # (the mesh is built by the first call and kept)
    spec = KernelSpec(1, 2, 3)
    certify(spec, grid, omega0)
    tracemalloc.start()
    try:
        certify(spec, grid, omega0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_warm_certificate_evaluates_even_start_values_once_on_the_mesh(
        grid, omega0, monkeypatch):
    # conditions (a) and (b) come from one evaluation of the scaled factors
    # on the mesh's distinct s, and Q and the majorant's tail weight from one
    # of G_hat on the grid's radii past 0, so scipy's k0e/k1e run once on each
    spec = KernelSpec(1, 2, 4)
    certify(spec, grid, omega0)
    distinct_s = certify_module._condition_mesh(grid.r_max).s.distinct
    assert distinct_s.size == 995
    radii = []
    start = bessel.beta_hat_start

    def counted(out, r):
        radii.append(np.array(r))
        return start(out, r)

    monkeypatch.setattr(bessel, "beta_hat_start", counted)
    certify(spec, grid, omega0)
    for where in (distinct_s, grid.r[1:]):
        on = [r for r in radii if r.shape == where.shape and np.array_equal(r, where)]
        assert len(on) == 1


def test_condition_mesh_is_shared_read_only_geometry():
    mesh = certify_module._condition_mesh(20.0)
    assert certify_module._condition_mesh(20.0) is mesh
    # geometry only: certifying specs of every case leaves it as built
    grid = RadialGrid.uniform(256, 20.0)
    for spec in (KernelSpec(0, 2, 3), KernelSpec(1, 1, 1), KernelSpec(1, 2, 4)):
        certify(spec, grid, neg_exp_bump(grid.r))
    assert certify_module._condition_mesh(20.0) is mesh
    assert certify_module._condition_mesh(15.0) is not mesh
    fresh = certify_module._condition_mesh.__wrapped__(20.0)
    arrays = []
    for field in dataclasses.fields(mesh):
        value, built = getattr(mesh, field.name), getattr(fresh, field.name)
        if isinstance(value, np.ndarray):
            arrays.append((value, built))
        else:
            arrays += [(getattr(value, f.name), getattr(built, f.name))
                       for f in dataclasses.fields(value)]
    for value, built in arrays:
        assert isinstance(value, np.ndarray)
        np.testing.assert_array_equal(value, built)
        assert not value.flags.writeable
        with pytest.raises(ValueError):
            value[0] = 0
    assert [f.name for f in dataclasses.fields(mesh)] == ["r", "s"]
    for radii in (mesh.r, mesh.s):
        np.testing.assert_array_equal(radii.distinct[radii.index], radii.values)
        assert np.all(np.diff(radii.distinct) > 0.0)


@pytest.mark.parametrize("spec", [KernelSpec(0, 2, 4), KernelSpec(1, 1, 3),
                                  KernelSpec(1, 2, 3)], ids=lambda s: s.label())
def test_conditions_depend_on_r_max_only(spec):
    conditions = []
    for num in (256, 1024):
        grid = RadialGrid.uniform(num, 20.0)
        conditions.append(certify(spec, grid, neg_exp_bump(grid.r)).conditions)
    assert conditions[0] == conditions[1]
