"""Green kernels: closed-form values, structural identities, and the
invert/apply operator pair.

High-precision reference values were frozen from an mpmath oracle (50 digits)
built directly from the Bessel-pair definition of the kernels; rational values
come from evaluating the power-law kernels by hand.
"""

import functools
import operator
import os
import pathlib
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epdiff_radial import bessel, kernels, solver
from epdiff_radial.certify import SAFETY_MARGIN, certify
from epdiff_radial.grid import InitialData, RadialGrid
from epdiff_radial.kernels import (
    KernelSpec,
    apply_operator,
    d1_delta,
    d2_delta,
    delta,
    invert_operator,
    kernel_case,
    phi,
    phi0_weight,
    q_weight,
    s_criterion,
    kernel_sums,
)
from epdiff_radial.quadrature import deriv1_uniform
from conftest import neg_cos_bump, neg_exp_bump

ALL_SPECS = [
    KernelSpec(0, 1, 1),
    KernelSpec(0, 1, 2),
    KernelSpec(0, 1, 3),
    KernelSpec(0, 2, 3),
    KernelSpec(0, 2, 4),
    KernelSpec(1, 1, 1),
    KernelSpec(1, 1, 2),
    KernelSpec(1, 1, 3),
    KernelSpec(1, 2, 3),
    KernelSpec(1, 2, 4),
]


def test_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(2, 1, 3)
    with pytest.raises(ValueError):
        KernelSpec(0, 3, 3)
    with pytest.raises(ValueError):
        KernelSpec(0, 2, 2)  # second-order homogeneous needs n >= 3
    with pytest.raises(ValueError):
        KernelSpec(0, 1, 0)


@pytest.mark.parametrize("kind", [float, bool, str, np.int64],
                         ids=lambda kind: kind.__name__)
@pytest.mark.parametrize("field", ["sigma", "k", "n"])
def test_spec_takes_only_integer_values(field, kind):
    # a float n was accepted and labelled H1_n3.0, then raised a TypeError
    # in the kernel factors; a bool is an int but not an order
    values = {"sigma": 1, "k": 1, "n": 3}
    given = dict(values, **{field: kind(values[field])})
    if kind is np.int64:
        spec = KernelSpec(**given)
        assert spec == KernelSpec(**values) and spec.label() == "H1_n3"
    else:
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            KernelSpec(**given)


def test_phi_closed_form_values():
    assert phi(KernelSpec(0, 1, 3), 1.0, 2.0) == pytest.approx(1.0 / 24.0, rel=1e-14)
    assert phi(KernelSpec(0, 2, 3), 1.0, 2.0) == pytest.approx(19.0 / 240.0, rel=1e-14)
    # sinh(1) e^{-2} / 2, the n = 1 nonhomogeneous kernel
    assert phi(KernelSpec(1, 1, 1), 1.0, 2.0) == pytest.approx(
        0.079523093200894594654, rel=1e-13
    )
    # mpmath oracle for the full second-order kernel, n = 3
    assert phi(KernelSpec(1, 2, 3), 1.0, 2.0) == pytest.approx(
        0.010630833098553980675, rel=1e-12
    )


IN_SCOPE = (
    [KernelSpec(0, 1, n) for n in range(1, 6)]
    + [KernelSpec(0, 2, n) for n in range(3, 6)]
    + [KernelSpec(1, 1, n) for n in range(1, 6)]
    + [KernelSpec(1, 2, n) for n in range(3, 6)]
)


@pytest.mark.parametrize("spec", IN_SCOPE, ids=lambda s: s.label())
def test_phi_at_the_origin_is_its_limit(spec):
    # phi(0, s) = e^{-sigma s} sum_t df_t(0) g_hat_t(s) / s: s^-n / n for
    # H1dot and s^(2-n) / (2n(n-2)) for H2dot, and 1 / (s Q(s)) for every case
    s = np.geomspace(1e-3, 20.0, 50)
    at_origin = phi(spec, 0.0, s)
    n = spec.n
    if spec.sigma == 0:
        exact = s**-float(n) / n if spec.k == 1 else s ** (2.0 - n) / (2 * n * (n - 2))
        np.testing.assert_allclose(at_origin, exact, rtol=1e-15, atol=0)
    np.testing.assert_allclose(s * at_origin * q_weight(spec, s), 1.0, rtol=0, atol=1e-13)


def test_delta_d1_d2_closed_forms():
    ch = KernelSpec(1, 1, 1)
    # delta = e^{-s} sinh r and its partial derivatives
    assert delta(ch, 1.0, 2.0) == pytest.approx(np.exp(-2.0) * np.sinh(1.0), rel=1e-14)
    assert d1_delta(ch, 1.0, 2.0) == pytest.approx(
        np.exp(-2.0) * np.cosh(1.0), rel=1e-14
    )
    assert d2_delta(ch, 1.0, 2.0) == pytest.approx(
        -np.exp(-2.0) * np.sinh(1.0), rel=1e-14
    )
    # delta = (1/n) r s^{1-n} for the first-order homogeneous kernel
    h1 = KernelSpec(0, 1, 4)
    assert delta(h1, 1.5, 3.0) == pytest.approx(1.5 * 3.0**-3.0 / 4.0, rel=1e-14)
    assert d2_delta(h1, 1.5, 3.0) == pytest.approx(
        (-3.0 / 4.0) * 1.5 * 3.0**-4.0, rel=1e-14
    )
    # symbolic oracle: delta = r s^0/6 - r^3 s^{-2}/30 for (0,2), n = 3,
    # so d1_delta at r = s = 1 is 1/6 - 3/30 = 1/15
    assert d1_delta(KernelSpec(0, 2, 3), 1.0, 1.0) == pytest.approx(
        1.0 / 15.0, rel=1e-13
    )


def test_domain_errors():
    spec = KernelSpec(0, 1, 3)
    with pytest.raises(ValueError):
        phi(spec, 2.0, 1.0)  # s < r
    with pytest.raises(ValueError):
        phi(spec, 0.0, 0.0)
    with pytest.raises(ValueError):
        delta(spec, -1.0, 1.0)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
def test_delta_terms_reproduce_rs_phi(spec):
    rng = np.random.default_rng(7)
    r = rng.uniform(0.01, 10.0, 300)
    s = r + rng.uniform(0.0, 10.0, 300)
    np.testing.assert_allclose(
        delta(spec, r, s), r * s * phi(spec, r, s), rtol=5e-12, atol=1e-300
    )


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
def test_d1_d2_match_finite_differences(spec):
    r = np.array([0.5, 1.0, 2.5, 6.0])
    s = r + 3.0
    h = 1e-6
    fd1 = (delta(spec, r + h, s) - delta(spec, r - h, s)) / (2.0 * h)
    fd2 = (delta(spec, r, s + h) - delta(spec, r, s - h)) / (2.0 * h)
    np.testing.assert_allclose(d1_delta(spec, r, s), fd1, rtol=1e-7)
    np.testing.assert_allclose(d2_delta(spec, r, s), fd2, rtol=1e-7)


# the sigma = 1 cases whose inner factors come from the power series
SERIES_SPECS = ([KernelSpec(1, 1, n) for n in range(2, 6)]
                + [KernelSpec(1, 2, n) for n in range(3, 6)])
SERIES_RADII = np.concatenate([
    [0.0, 1e-3, 4.0],
    np.geomspace(1e-2, bessel.SERIES_RADIUS, 60)[:-1],
    [bessel.SERIES_RADIUS * (1.0 - 1e-12),
     np.nextafter(bessel.SERIES_RADIUS, 0.0)],
])


def inner_by_mpmath(spec, r):
    """[(f_t, df_t)] at r from mpmath's besseli at 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        r = mpmath.mpf(float(r))

        def alpha(p):  # c_p r^{-p/2} I_{p/2}(r), 1 at r = 0
            if r == 0:
                return mpmath.mpf(1)
            nu = mpmath.mpf(p) / 2
            return 2**nu * mpmath.gamma(nu + 1) * r**-nu * mpmath.besseli(nu, r)

        n = spec.n
        h1 = (r * alpha(n), alpha(n) + r**2 * alpha(n + 2) / (n + 2))
        if spec.k == 1:
            return [h1]
        c = 2 * (n + 2)
        return [(-(r**3) * alpha(n + 2) / c,
                 -(3 * r**2 * alpha(n + 2) + r**4 * alpha(n + 4) / (n + 4)) / c),
                (h1[0] / (2 * n), h1[1] / (2 * n))]


def spy_hankel(monkeypatch, seen=None):
    """Record in ``seen`` the radii of every ``KernelCase._hankel_factors``
    call, the inner factors past SERIES_RADIUS; without ``seen`` a call
    fails the test."""
    hankel = kernels.KernelCase._hankel_factors

    def spy(case, r):
        if seen is None:
            raise AssertionError("the inner Hankel table was read")
        seen.append(r)
        return hankel(case, r)

    monkeypatch.setattr(kernels.KernelCase, "_hankel_factors", spy)


def largest_relative_error(got, radii, spec):
    worst = 0.0
    for i, r in enumerate(radii):
        for t, pair in enumerate(inner_by_mpmath(spec, r)):
            for d, exact in enumerate(pair):
                if exact == 0:  # f_t(0)
                    assert got[t, d, i] == 0.0
                else:
                    worst = max(worst, abs(float((got[t, d, i] - exact) / exact)))
    return worst


@pytest.mark.parametrize("spec", SERIES_SPECS, ids=lambda s: s.label())
def test_series_inner_factors_match_mpmath(spec, monkeypatch):
    # below SERIES_RADIUS no Hankel table is read, and every factor is
    # within 4e-15 relative of the 40-digit value
    spy_hankel(monkeypatch)
    got = kernel_case(spec).inner(SERIES_RADII)
    assert largest_relative_error(got, SERIES_RADII, spec) <= 4e-15


@pytest.mark.parametrize("spec", SERIES_SPECS, ids=lambda s: s.label())
def test_inner_factors_past_series_radius_take_the_bessel_path(spec, monkeypatch):
    # a batch that reaches SERIES_RADIUS reads the Hankel table once, and
    # equals the series on the radii below it
    case = kernel_case(spec)
    calls = []
    spy_hankel(monkeypatch, calls)
    below = np.geomspace(1e-3, bessel.SERIES_RADIUS, 50)[:-1]
    both = case.inner(np.append(below, [bessel.SERIES_RADIUS, 40.0]))
    assert len(calls) == 1
    series = case.inner(below)
    assert len(calls) == 1
    assert both[..., :-2].tobytes() == series.tobytes()


# every sigma = 1 row whose orders the Hankel table admits (up to 21)
HANKEL_SPECS = ([KernelSpec(1, 1, n) for n in range(2, 20)]
                + [KernelSpec(1, 2, n) for n in range(3, 18)])


@pytest.mark.parametrize("spec", HANKEL_SPECS, ids=lambda s: s.label())
def test_inner_factors_past_series_radius_match_mpmath(spec):
    # from the Hankel table of the case's rows
    radii = np.array([bessel.SERIES_RADIUS, 40.0, 600.0])
    got = kernel_case(spec).inner(radii)
    assert largest_relative_error(got, radii, spec) <= 4e-15


@pytest.mark.parametrize("spec", SERIES_SPECS[:2] + SERIES_SPECS[-2:],
                         ids=lambda s: s.label())
def test_series_inner_factor_depends_only_on_its_radius(spec):
    # the number of terms follows the largest radius of a call, and the
    # terms past those a radius needs leave its sum unchanged
    case = kernel_case(spec)
    r = SERIES_RADII[np.argsort(SERIES_RADII)]
    full = case.inner(r)
    for part in (slice(0, 1), slice(5, 6), slice(0, 2), slice(10, 30), slice(40, None)):
        assert case.inner(r[part]).tobytes() == full[..., part].tobytes()


# radii on both sides of SERIES_RADIUS, 68 of them
STRADDLING_RADII = np.concatenate(
    [SERIES_RADII, [bessel.SERIES_RADIUS, 35.0, 40.0, 600.0]])


@pytest.mark.parametrize("spec", [s for s in IN_SCOPE if s.sigma],
                         ids=lambda s: s.label())
def test_inner_factor_of_a_straddling_batch_depends_only_on_its_radius(
        spec, monkeypatch):
    # each radius takes the series below SERIES_RADIUS and the Hankel table
    # past it, whatever the other radii of the call, their order and their
    # shape
    case = kernel_case(spec)
    seen = []
    spy_hankel(monkeypatch, seen)
    rng = np.random.default_rng(11)
    for r in (np.sort(STRADDLING_RADII), rng.permutation(STRADDLING_RADII)):
        full = case.inner(r)
        near = r < bessel.SERIES_RADIUS
        assert full[..., near].tobytes() == case.inner(r[near]).tobytes()
        assert full[..., ~near].tobytes() == case.inner(r[~near]).tobytes()
        for i in range(0, len(r), 9):
            assert full[..., i].tobytes() == case.inner(r[i]).tobytes()
        square = case.inner(r.reshape(4, -1))
        assert square.tobytes() == full.reshape(square.shape).tobytes()
    assert bool(seen) == bool(case._bessel_rows)
    assert all((x >= bessel.SERIES_RADIUS).all() for x in seen)


@pytest.mark.parametrize("spec", [KernelSpec(1, 1, 2), KernelSpec(1, 2, 3)],
                         ids=lambda s: s.label())
def test_sigma1_rhs_makes_no_alpha_call_below_series_radius(spec, monkeypatch):
    grid = RadialGrid.uniform(256, 20.0)
    init = InitialData.from_omega0(neg_exp_bump(grid.r, 2.0, 8.0), grid, spec.n)
    calls = []
    spy_hankel(monkeypatch, calls)
    rate = solver.rhs(spec, grid, init, grid.r * 1.1, np.full(grid.num, 1.1))
    assert np.isfinite(rate).all() and not calls


# grid-like radii (a uniform grid on [0, 20] from its node 1, and its images
# under a compression and a stretch), geometric ones across [1e-3, 600] and
# the ends
OUTER_RADII = np.unique(np.concatenate([
    np.linspace(0.0, 20.0, 49)[1:],
    0.4 * np.linspace(0.0, 20.0, 17)[1:] ** 1.5,
    np.geomspace(1e-3, 600.0, 30),
    [1.0, 4.0, bessel.SERIES_RADIUS, 599.0],
]))


@functools.lru_cache(maxsize=None)
def beta_by_mpmath(p, s):
    """c_p^-1 s^{-p/2} K_{p/2}(s) from mpmath's besselk at 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        s, nu = mpmath.mpf(s), mpmath.mpf(p) / 2
        return s**-nu * mpmath.besselk(nu, s) / (2**nu * mpmath.gamma(nu + 1))


def outer_by_mpmath(spec, s):
    """[(g_t, dg_t)] at s: g = s beta_q(s), dg = beta_q - (q + 2) s^2
    beta_{q+2} for q = n and, for H2, q = n - 2."""
    mpmath = pytest.importorskip("mpmath")
    s = float(s)
    with mpmath.workdps(40):
        x = mpmath.mpf(s)
        return [(x * beta_by_mpmath(q, s),
                 beta_by_mpmath(q, s) - (q + 2) * x**2 * beta_by_mpmath(q + 2, s))
                for q in (spec.n, spec.n - 2)[: spec.k]]


@pytest.mark.parametrize("spec", SERIES_SPECS, ids=lambda s: s.label())
def test_outer_factors_match_mpmath(spec, monkeypatch):
    # every outer factor is within 4e-15 relative of the 40-digit value,
    # with no Hankel table read
    spy_hankel(monkeypatch)
    got = kernel_case(spec).outer(OUTER_RADII)
    worst = 0.0
    for i, s in enumerate(OUTER_RADII):
        for t, pair in enumerate(outer_by_mpmath(spec, s)):
            for d, exact in enumerate(pair):
                worst = max(worst, abs(float((got[t, d, i] - exact) / exact)))
    assert worst <= 4e-15


@pytest.mark.parametrize("spec", SERIES_SPECS[:2] + SERIES_SPECS[-2:],
                         ids=lambda s: s.label())
def test_outer_factor_depends_only_on_its_radius(spec):
    # a subset of the radii, a stacked (terms, 2, len) view into a wider
    # buffer, as a kernel-sum plan passes, and a fresh call give the same bits
    case = kernel_case(spec)
    s = OUTER_RADII
    full = case.outer(s)
    for part in (slice(0, 1), slice(5, 6), slice(0, 2), slice(10, 30), slice(40, None)):
        assert case.outer(s[part]).tobytes() == full[..., part].tobytes()
    buffer = np.full((case._terms, 2, len(s) + 7), np.nan)
    view = buffer[..., 7:]
    case._outer(s, view)
    assert view.tobytes() == full.tobytes()


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
def test_scaled_factors_are_the_factors_times_their_scales(spec):
    # inner(r) e^{-sigma r} and outer(s) e^{sigma s}, on radii up to 600
    # where the unscaled factors are still finite
    case = kernel_case(spec)
    radii = OUTER_RADII
    f, g = case.scaled_factors(radii, radii)
    np.testing.assert_allclose(
        f, case.inner(radii) * np.exp(-spec.sigma * radii), rtol=1e-14, atol=0)
    np.testing.assert_allclose(
        g, case.outer(radii) * np.exp(spec.sigma * radii), rtol=1e-14, atol=0)


JUMP_SPECS = ([KernelSpec(0, 1, n) for n in range(1, 20)]
              + [KernelSpec(0, 2, n) for n in range(3, 18)]
              + [KernelSpec(1, 1, n) for n in range(1, 20)]
              + [KernelSpec(1, 2, n) for n in range(3, 18)])


@pytest.mark.parametrize("spec", JUMP_SPECS, ids=lambda s: s.label())
def test_rows_jump_by_the_green_condition_on_the_diagonal(spec):
    # the (2k - 1)-th derivative of delta jumps by (-1)^k / s^(n-1) across r
    # = s and the lower ones are continuous, so s^(n-1) sum_t (f_t dg_t -
    # df_t g_t)(r, r) is -1 for k = 1 and 0 for k = 2: a check of every
    # derivative row without mpmath.  The scaled rows keep the products
    # finite to r = 600.  Relative to s^(n-1) sum_t (|f_t dg_t| + |df_t g_t|)
    # the worst value on these radii is 3.1e-15 (H1_n18 at r = 511 and
    # H1_n19 at r = 2.0), and 1.1e-15 for H2 (H2_n17)
    r = np.geomspace(1e-3, 600.0, 2000)
    f, g = kernel_case(spec).scaled_factors(r, r)
    power = r ** (spec.n - 1)
    cross = power * (f[:, 0] * g[:, 1] - f[:, 1] * g[:, 0]).sum(axis=0)
    scale = power * (np.abs(f[:, 0] * g[:, 1]) + np.abs(f[:, 1] * g[:, 0])).sum(axis=0)
    target = -1.0 if spec.k == 1 else 0.0
    assert np.max(np.abs(cross - target) / scale) < 1e-14


def test_outer_coefficients_have_one_sign():
    # every factor of H1 and H2 for n <= 11 sums terms of one sign, and the
    # construction refuses a factor with a positive power of s
    specs = ([KernelSpec(1, 1, n) for n in range(2, 12)]
             + [KernelSpec(1, 2, n) for n in range(3, 12)])
    for spec in specs:
        laurent = kernel_case(spec)._laurent
        assert laurent.shape[0] == (2 - spec.n % 2) * (spec.n + 1)
        for t in range(spec.k):
            for d in range(2):
                column = laurent[:, t, d]
                assert (column >= 0).all() or (column <= 0).all(), spec.label()
                assert column.any()
    # beta_hat_3 = (1 + s) / 3
    with pytest.raises(ValueError, match="positive power"):
        kernels._outer_laurent(((3, 0, 1),))


@pytest.mark.parametrize("spec", SERIES_SPECS[:2] + SERIES_SPECS[-2:],
                         ids=lambda s: s.label())
def test_outer_factors_of_longdouble_radii_are_the_float64_values_cast(spec):
    case = kernel_case(spec)
    s = np.linspace(0.0, 20.0, 301)[1:]
    wide = case.outer(s.astype(np.longdouble))
    assert wide.dtype == np.longdouble
    # values, not bytes: a longdouble's padding bytes are not part of it
    np.testing.assert_array_equal(wide, case.outer(s).astype(np.longdouble))


@pytest.mark.parametrize("spec", [KernelSpec(1, 1, 2), KernelSpec(1, 1, 3),
                                  KernelSpec(1, 2, 3), KernelSpec(1, 2, 4)],
                         ids=lambda s: s.label())
def test_sigma1_rhs_makes_no_beta_call(spec, monkeypatch):
    # of the Bessel functions the outer factors call only the start values:
    # even n evaluates its two once per rhs, and no Hankel table is read
    grid = RadialGrid.uniform(256, 20.0)
    init = InitialData.from_omega0(neg_exp_bump(grid.r, 2.0, 8.0), grid, spec.n)
    calls = {name: [] for name in bessel.__all__}
    for name, calls_of in calls.items():
        func = getattr(bessel, name)
        monkeypatch.setattr(bessel, name, lambda *args, f=func, c=calls_of:
                            c.append(args) or f(*args))
    spy_hankel(monkeypatch)
    for _ in range(2):
        rate = solver.rhs(spec, grid, init, grid.r * 1.1, np.full(grid.num, 1.1))
        assert np.isfinite(rate).all()
    assert len(calls["beta_hat_start"]) == (0 if spec.n % 2 else 2)


def test_q_weight_closed_forms():
    r = np.array([0.0, 0.5, 1.0, 3.0, 10.0])
    np.testing.assert_allclose(q_weight(KernelSpec(0, 1, 3), r), 3.0 * r**2)
    np.testing.assert_allclose(
        q_weight(KernelSpec(0, 2, 3), r), np.full_like(r, 6.0)
    )
    np.testing.assert_allclose(
        q_weight(KernelSpec(1, 1, 1), r), np.exp(r), rtol=1e-13
    )
    pos = r[1:]
    np.testing.assert_allclose(
        q_weight(KernelSpec(1, 1, 3), pos),
        # r^3 beta_3 = e^-r (1 + r) / 3
        3.0 * pos**2 / (np.exp(-pos) * (1.0 + pos)),
        rtol=1e-13,
    )


def test_phi0_weight_is_inverse_q():
    # s^n phi(0, s) = s^{n-1}/Q(s), finite at the origin; up to r = 600 the
    # sigma = 1 weights are e^{+-r} times the same scaled row
    full = [spec for spec in ALL_SPECS if spec.sigma]
    for r_max, specs in ((15.0, ALL_SPECS), (600.0, full)):
        r = np.geomspace(1e-2, r_max, 50)
        for spec in specs:
            np.testing.assert_allclose(
                phi0_weight(spec, r),
                r ** (spec.n - 1) / q_weight(spec, r),
                rtol=1e-12,
            )
            assert np.isfinite(phi0_weight(spec, 0.0))


def test_s_criterion_closed_forms():
    r = np.geomspace(1e-3, 30.0, 400)
    # constant for the homogeneous kernels
    np.testing.assert_allclose(
        s_criterion(KernelSpec(0, 1, 4), r), 4.0, rtol=1e-9
    )
    np.testing.assert_allclose(
        s_criterion(KernelSpec(0, 2, 5), r), 2.0 * 3.0 / 7.0, rtol=1e-9
    )
    # 1/(r^n beta_n) for the first-order full metric, 3 e^r / (1 + r) for
    # n = 3; e^r in dimension 1
    np.testing.assert_allclose(
        s_criterion(KernelSpec(1, 1, 1), r), np.exp(r), rtol=1e-9
    )
    np.testing.assert_allclose(
        s_criterion(KernelSpec(1, 1, 3), r),
        3.0 * np.exp(r) / (1.0 + r),
        rtol=1e-9,
    )
    # exactly n and 2(n - 2)/(n + 2) for sigma = 0 at every n, where G^2 ~
    # r^(2 - 2n) overflows at r = 1e-3 from n = 53; and a certificate on a
    # 256-node grid takes C = S - SAFETY_MARGIN from it
    grid = RadialGrid.uniform(256, 20.0)
    omega0 = neg_exp_bump(grid.r)
    for k, lowest, closed_form in ((1, 1, lambda n: float(n)),
                                   (2, 3, lambda n: 2.0 * (n - 2) / (n + 2))):
        for n in range(lowest, 201):
            spec = KernelSpec(0, k, n)
            assert s_criterion(spec, r).tolist() == [closed_form(n)] * len(r)
            if n in (53, 56, 200):
                with np.errstate(all="ignore"):
                    cert = certify(spec, grid, omega0)
                assert cert.conditions["S_bound"]["passed"]
                assert cert.c_bound == closed_form(n) - SAFETY_MARGIN


def s_by_mpmath(spec, r):
    """The paper's S(r) = r [d1_phi(r, r) phi(0, r) - phi(r, r) d2_phi(0, r)]
    / phi(0, r)^2 of a sigma = 1 spec at 40 digits, with phi = sum_t a_t(r)
    b_t(s) from besseli and besselk and the derivatives from alpha_p' = r
    alpha_{p+2} / (p + 2) and beta_p' = -(p + 2) r beta_{p+2}."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        x, n = mpmath.mpf(r), spec.n

        def c(p):
            return 2 ** (mpmath.mpf(p) / 2) * mpmath.gamma(mpmath.mpf(p) / 2 + 1)

        def alpha(p):
            return c(p) * x ** (-mpmath.mpf(p) / 2) * mpmath.besseli(mpmath.mpf(p) / 2, x)

        def beta(p):
            return x ** (-mpmath.mpf(p) / 2) * mpmath.besselk(mpmath.mpf(p) / 2, x) / c(p)

        # (a_t(r), a_t'(r), a_t(0)) and (b_t(r), b_t'(r)) for each term t
        if spec.k == 1:
            a = [(alpha(n), x * alpha(n + 2) / (n + 2), 1)]
            b = [(beta(n), -(n + 2) * x * beta(n + 2))]
        else:
            d = 2 * (n + 2)
            a = [(-x**2 * alpha(n + 2) / d,
                  -(2 * x * alpha(n + 2) + x**3 * alpha(n + 4) / (n + 4)) / d, 0),
                 (alpha(n) / (2 * n), x * alpha(n + 2) / ((n + 2) * 2 * n),
                  mpmath.mpf(1) / (2 * n))]
            b = [(beta(n), -(n + 2) * x * beta(n + 2)),
                 (beta(n - 2), -n * x * beta(n))]
        diag = sum(at[0] * bt[0] for at, bt in zip(a, b))
        d1 = sum(at[1] * bt[0] for at, bt in zip(a, b))
        phi0 = sum(at[2] * bt[0] for at, bt in zip(a, b))
        d2_0 = sum(at[2] * bt[1] for at, bt in zip(a, b))
        return x * (d1 * phi0 - diag * d2_0) / phi0**2


@pytest.mark.parametrize("spec", [KernelSpec(1, 1, n) for n in range(2, 6)]
                         + [KernelSpec(1, 2, n) for n in range(3, 6)],
                         ids=lambda s: s.label())
def test_s_criterion_matches_mpmath(spec):
    # from the radius where the rows take over from S(0) to r = 300, where S
    # grows like e^r
    for r in (1e-3, 1e-2, 0.3, 5.0, 50.0, 300.0):
        exact = s_by_mpmath(spec, r)
        got = s_criterion(spec, r)
        assert abs(float((got - exact) / exact)) <= 1e-12, r


def test_s_criterion_origin_limits():
    for spec in ALL_SPECS:
        expected = spec.n if spec.k == 1 else 2.0 * (spec.n - 2.0) / (spec.n + 2.0)
        assert kernel_case(spec).s_origin == pytest.approx(expected)
        assert s_criterion(spec, 0.0) == pytest.approx(expected)
        # S(0) comes from the sigma = 0 power rows, and S from the rows at
        # r > 0 approaches it (S itself varies O(r) near 0, e.g. e^r for
        # the n = 1 full metric)
        assert s_criterion(spec, 2e-3) == pytest.approx(expected, rel=5e-3)


@pytest.mark.parametrize("spec", [s for s in ALL_SPECS if s.sigma],
                         ids=lambda s: s.label())
def test_sigma1_origin_constants_are_the_limits_of_the_rows(spec):
    # kappa, q_power and S(0) of a sigma = 1 case are those of its sigma = 0
    # twin; the Bessel rows themselves must tend to them as r -> 0, within
    # O(r) (S below r = 1e-3 taken from the rows, not from s_criterion)
    case = kernel_case(spec)
    for r in (1e-3, 1e-4, 1e-5):
        q = q_weight(spec, r) / r**case.q_power
        assert q == pytest.approx(case.kappa, rel=2 * r)
        s = float(case.s_diagonal(np.array([r]))[0])
        assert s == pytest.approx(case.s_origin, rel=2 * r)


def test_sigma1_case_builds_no_other_case():
    # its origin constants come from the sigma = 0 class's power rows, with
    # no sigma = 0 case built and cached beside it
    kernel_case.cache_clear()
    kernel_case(KernelSpec(1, 2, 3))
    assert kernel_case.cache_info().currsize == 1


@pytest.mark.parametrize("name", ["s_criterion", "q_weight", "phi0_weight"])
@pytest.mark.parametrize("r", [np.nan, -1.0, [0.5, np.nan]],
                         ids=["nan", "negative", "nan_in_array"])
def test_weights_and_criterion_reject_radii_that_are_not_nonnegative(name, r):
    # neither a NaN nor a negative radius may pass for r = 0 or give 0
    for spec in (KernelSpec(1, 1, 3), KernelSpec(0, 2, 3)):
        with pytest.raises(ValueError, match="r >= 0"):
            getattr(kernels, name)(spec, r)


def _same_values(got, ref):
    # equal bit for bit: equal values and signs (no NaN here), in one dtype,
    # without the padding bytes of longdouble
    assert got.dtype == ref.dtype
    assert np.array_equal(got, ref)
    assert np.array_equal(np.signbit(got), np.signbit(ref))


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble],
                         ids=["float64", "longdouble"])
@pytest.mark.parametrize(
    "spec", [KernelSpec(0, 1, n) for n in range(1, 6)]
    + [KernelSpec(0, 2, n) for n in range(3, 6)], ids=lambda s: s.label())
def test_power_rows_equal_their_closed_forms(spec, dtype):
    # the factors written from the power rows are, bit for bit, the numpy
    # expressions of the closed forms, the powers of s being products of 1/s
    r = np.linspace(0.0, 30.0, 61).astype(dtype)
    s = np.geomspace(1e-3, 30.0, 61).astype(dtype)
    n = spec.n

    def recip(k):
        return functools.reduce(operator.mul, [1.0 / s] * k, np.ones_like(s))

    if spec.k == 1:
        inner = [(r / n, np.full_like(r, 1.0 / n))]
        outer = [(recip(n - 1), recip(n) * (1 - n))]
    else:
        c1, c2 = 2 * n * (n - 2), 2 * n * (n + 2)
        inner = [(r / c1, np.full_like(r, 1.0 / c1)),
                 (-(r**3) / c2, -3 * r**2 / c2)]
        outer = [(recip(n - 3), recip(n - 2) * (3 - n)),
                 (recip(n - 1), recip(n) * (1 - n))]
    case = kernel_case(spec)
    for rows, refs in ((case.inner(r), inner), (case.outer(s), outer)):
        assert rows.shape[:2] == (len(refs), 2)
        for row, ref in zip(rows, refs):
            _same_values(row[0], ref[0])
            _same_values(row[1], ref[1])


def test_invert_zero_is_zero(grid_512):
    u = invert_operator(KernelSpec(1, 2, 3), grid_512, np.zeros(grid_512.num))
    assert np.all(u == 0.0)


def test_invert_apply_linearity(grid_512):
    spec = KernelSpec(1, 1, 2)
    r = grid_512.r
    om1 = neg_exp_bump(r, 2.0, 6.0)
    om2 = neg_exp_bump(r, 4.0, 9.0, amplitude=0.3)
    lhs = invert_operator(spec, grid_512, 2.0 * om1 - 5.0 * om2)
    rhs = 2.0 * invert_operator(spec, grid_512, om1) - 5.0 * invert_operator(
        spec, grid_512, om2
    )
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
def test_roundtrip_moderate_grid(spec):
    # the acceptance-grade 1e-6 roundtrip runs at N = 4096; this is the
    # cheap smoke version of the same self-consistency
    grid = RadialGrid.uniform(2048, 20.0)
    om = neg_cos_bump(grid.r, 0.5, 2.5)
    u = invert_operator(spec, grid, om)
    back = apply_operator(spec, grid, u)
    err = np.max(np.abs(back - om)) / np.max(np.abs(om))
    assert err < 5e-5, err


def test_h1dot_n1_antiderivative_identity(grid_1024):
    # for (0,1) in dimension 1 the operator is -d^2/dr^2, so u' must equal
    # the tail integral of omega
    spec = KernelSpec(0, 1, 1)
    r = grid_1024.r
    om = neg_exp_bump(r, 2.0, 8.0)
    u = invert_operator(spec, grid_1024, om)
    du = deriv1_uniform(u, r[1] - r[0])
    tail = grid_1024.quadrature.tail(om)
    np.testing.assert_allclose(du, tail, rtol=0, atol=5e-6)


def test_apply_operator_symbolic_oracle(grid_1024):
    # u = r e^{-r^2}: (1 - Delta)u for n = 1 is u - u''
    r = grid_1024.r
    u = r * np.exp(-(r**2))
    d2u = (4.0 * r**3 - 6.0 * r) * np.exp(-(r**2))
    expected = u - d2u
    out = apply_operator(KernelSpec(1, 1, 1), grid_1024, u)
    np.testing.assert_allclose(out[:-8], expected[:-8], rtol=0, atol=1e-6)


def test_apply_operator_linear_field_window():
    # u(r) = r is annihilated by the vector Laplacian, so (sigma - Delta)^k
    # maps it to sigma^k r away from the outer boundary stencils
    grid = RadialGrid.uniform(512, 10.0)
    r = grid.r
    for spec in (KernelSpec(0, 1, 3), KernelSpec(1, 2, 4)):
        out = apply_operator(spec, grid, r)
        window = slice(0, -8)
        np.testing.assert_allclose(
            out[window], float(spec.sigma**spec.k) * r[window], rtol=0, atol=1e-9
        )


def test_apply_requires_uniform_grid():
    grid = RadialGrid.graded(256, 10.0, 1.5)
    with pytest.raises(ValueError):
        apply_operator(KernelSpec(0, 1, 3), grid, np.zeros(grid.num))


@pytest.mark.parametrize("num", [3, 4, 5])
def test_apply_requires_six_nodes(num):
    # the origin value and the stencils read nodes 0 to 5
    grid = RadialGrid.uniform(num, 1.0)
    with pytest.raises(ValueError, match="at least 6 nodes"):
        apply_operator(KernelSpec(0, 1, 3), grid, np.zeros(num))


def test_underresolved_momentum_warns():
    grid = RadialGrid.uniform(256, 20.0)
    om = np.zeros(grid.num)
    om[64:70] = np.array([-1.0, 1.0, -1.0, 1.0, -1.0, 1.0])  # 1-cell features
    with pytest.warns(UserWarning, match="under-resolved"):
        invert_operator(KernelSpec(0, 1, 2), grid, om)


@given(
    amp=st.floats(min_value=0.1, max_value=10.0),
    lo=st.floats(min_value=0.5, max_value=4.0),
    width=st.floats(min_value=1.0, max_value=6.0),
)
@settings(max_examples=25, deadline=None)
def test_inverted_field_of_negative_momentum_is_negative(amp, lo, width):
    # the kernel is positive, so nonpositive momentum gives a nonpositive
    # velocity field (this is what drives inward collapse)
    grid = RadialGrid.uniform(512, 20.0)
    om = neg_exp_bump(grid.r, lo, min(lo + width, 11.9), amplitude=amp)
    u = invert_operator(KernelSpec(1, 1, 2), grid, om)
    assert np.all(u <= 1e-14)


def full_grid_kernel_sums(case, grid, weight, r):
    """The kernel sums the long way: every factor on every node, full-grid
    prefix and tail sums, accumulated into zeros term by term."""
    q = grid.quadrature
    dtype = np.result_type(r, weight)
    inner, outer = case.inner(r[1:]), case.outer(r[1:])
    with np.errstate(divide="ignore", invalid="ignore"):
        at_origin = case.inner(r[:1]), case.outer(r[:1])
    out = np.zeros((2, grid.num), dtype=dtype)
    for t in range(len(inner)):
        lower = np.zeros(grid.num, dtype=dtype)
        upper = np.zeros(grid.num, dtype=dtype)
        (f, df), (g, dg) = inner[t], outer[t]
        lower[1:] = f * weight[1:]
        upper[1:] = g * weight[1:]
        if weight[0] != 0.0:
            lower[0] = at_origin[0][t][0][0] * weight[0]
            upper[0] = at_origin[1][t][0][0] * weight[0]
        pre, suf = q.prefix(lower), q.tail(upper)
        out[0, 1:] += g * pre[1:] + f * suf[1:]
        out[1, 1:] += dg * pre[1:] + df * suf[1:]
        # node 0 as a one-element slice: array arithmetic, which leaves the
        # padding bytes of a longdouble zero (a scalar store copies them)
        out[1, :1] += case.df_origin[t] * suf[:1]
    return out


@pytest.mark.parametrize(
    "spec,a,b,dtype",
    [
        # support on the origin node
        pytest.param(KernelSpec(0, 1, 1), 0, 80, float, id="H1dot_n1_origin"),
        pytest.param(KernelSpec(1, 1, 1), 0, 80, float, id="H1_n1_origin"),
        pytest.param(KernelSpec(0, 1, 3), 1, 60, float, id="H1dot_n3_node1"),
        pytest.param(KernelSpec(1, 2, 3), 1, 60, float, id="H2_n3_node1"),
        pytest.param(KernelSpec(0, 2, 3), 100, 101, float, id="H2dot_n3_one_node"),
        pytest.param(KernelSpec(1, 1, 2), 100, 101, float, id="H1_n2_one_node"),
        pytest.param(KernelSpec(0, 1, 2), 150, 152, float, id="H1dot_n2_two_nodes"),
        pytest.param(KernelSpec(1, 2, 4), 150, 152, float, id="H2_n4_two_nodes"),
        # support ending on the last node
        pytest.param(KernelSpec(0, 2, 4), 200, 300, float, id="H2dot_n4_edge"),
        pytest.param(KernelSpec(1, 1, 3), 200, 300, float, id="H1_n3_edge"),
        # two terms, support inside
        pytest.param(KernelSpec(1, 2, 3), 30, 120, float, id="H2_n3"),
        pytest.param(KernelSpec(0, 2, 5), 30, 120, float, id="H2dot_n5"),
        # longdouble radii and weight, as invert_operator sums
        pytest.param(KernelSpec(1, 2, 3), 30, 120, np.longdouble,
                     id="H2_n3_longdouble"),
        pytest.param(KernelSpec(0, 2, 5), 30, 120, np.longdouble,
                     id="H2dot_n5_longdouble"),
        pytest.param(KernelSpec(1, 1, 1), 0, 80, np.longdouble,
                     id="H1_n1_origin_longdouble"),
        pytest.param(KernelSpec(0, 1, 1), 0, 80, np.longdouble,
                     id="H1dot_n1_origin_longdouble"),
        # no support (z_0 = 0)
        pytest.param(KernelSpec(0, 2, 3), 100, 100, float, id="H2dot_n3_empty"),
        pytest.param(KernelSpec(1, 1, 2), 100, 100, np.longdouble,
                     id="H1_n2_empty_longdouble"),
    ],
)
def test_separable_sums_window_equals_full_grid_sums(spec, a, b, dtype):
    # one windowed pass over the support [a, b) of the weight gives, bit for
    # bit, the sums built from every factor on every node and the full-grid
    # prefix and tail sums: on the call that sets up the window's plan, on
    # the next one, which reuses it, and with one row on the same plan
    grid = RadialGrid.uniform(300, 20.0)
    r = grid.r.astype(dtype)
    weight = np.zeros(grid.num, dtype=dtype)
    weight[a:b] = -np.exp(-((r[a:b] - r[a]) ** 2)) - 0.5
    case = kernel_case(spec)
    ref = full_grid_kernel_sums(case, grid, weight, r)
    kernels._spare_window.clear()
    plans = []
    for _ in range(2):
        got = kernel_sums(case, grid.quadrature, r, weight[a:b], start=a,
                          derivatives=True)
        assert got.shape == ref.shape and got.dtype == ref.dtype == dtype
        assert got.tobytes() == ref.tobytes()
        plans.append([plan for _, plan in kernels._spare_window])
    alone = kernel_sums(case, grid.quadrature, r, weight[a:b], start=a)
    assert alone.tobytes() == got[:1].tobytes()
    plans.append([plan for _, plan in kernels._spare_window])
    if a == b:
        assert plans == [[], [], []]  # nothing to set up
    else:
        assert len(plans[0]) == 1 and plans[1] == plans[2] == plans[0]


@pytest.mark.parametrize("spec,dtype", [
    pytest.param(KernelSpec(*s), dtype, id=KernelSpec(*s).label() + suffix)
    for dtype, suffix in ((np.float64, ""), (np.longdouble, "-longdouble"))
    for s in ((1, 1, 2), (1, 1, 3), (1, 2, 3), (1, 2, 4), (0, 1, 1), (0, 1, 3),
              (0, 2, 3))])
def test_kept_tables_of_powers_follow_each_call_term_count(spec, dtype):
    # two states share one plan: for sigma = 1 their largest inner radii
    # need different numbers of series terms, and the plan's table of powers
    # keeps the views of each row count; for sigma = 0 the plan writes the
    # constant rows once, and the stages leave them alone.  In either order
    # and in float64 and longdouble (as invert_operator sums), every call
    # gives the bytes of the sums from factors evaluated without a plan
    grid = RadialGrid.uniform(300, 20.0)
    case = kernel_case(spec)
    a, b = 30, 280
    weight = np.zeros(grid.num, dtype=dtype)
    weight[a:b] = -np.exp(-((grid.r[a:b] - 6.0) ** 2)) - 0.5
    states = (grid.r.astype(dtype), (0.3 * grid.r).astype(dtype))
    refs = [full_grid_kernel_sums(case, grid, weight, x).tobytes() for x in states]
    for order in ((0, 1), (1, 0)):
        kernels._spare_window.clear()
        plans = set()
        for i in order + order:
            got = kernel_sums(case, grid.quadrature, states[i], weight[a:b],
                              start=a, derivatives=True)
            assert got.dtype == dtype and got.tobytes() == refs[i]
            [(_, plan)] = kernels._spare_window
            plans.add(plan)
        [plan] = plans
        if spec.sigma:
            _, powers = plan.inner
            assert len(powers[1]) == 2  # the views of two row counts
    # without a plan, inner and outer still give every row, the constant
    # ones included, with the values their formulas give (+0, not -0)
    inner, outer = case.constant_rows
    assert inner if spec.sigma == 0 else inner == outer == {}
    for factors, constants in ((case.inner, inner), (case.outer, outer)):
        rows = factors(states[1][1:])
        for (t, d), value in constants.items():
            assert rows[t, d].astype(float).tobytes() == np.full(
                grid.num - 1, value).tobytes()


def test_kernel_sums_results_never_share_memory():
    # the window's buffers are reused from call to call; the results are not
    grid = RadialGrid.uniform(300, 20.0)
    case = kernel_case(KernelSpec(1, 2, 3))
    weight = -np.exp(-((grid.r[30:120] - 4.0) ** 2))
    results, copies = [], []
    for scale in (1.0, 1.1, 0.9):
        for derivatives in (True, False):
            out = kernel_sums(case, grid.quadrature, grid.r * scale,
                              weight / scale, start=30, derivatives=derivatives)
            assert not any(np.shares_memory(out, prev) for prev in results)
            results.append(out)
            copies.append(out.copy())
    for out, copy in zip(results, copies):
        assert out.tobytes() == copy.tobytes()


def test_kernel_sums_from_threads_equal_the_serial_results():
    # threads summing over one window never write into each other's buffers:
    # two terms and two rows, with power factors (sigma = 0) and with Bessel
    # factors (sigma = 1).  Each thread also takes turns between two
    # windows, so plans replace each other in the one-entry slot.
    grid = RadialGrid.uniform(2048, 20.0)
    weights = [-np.exp(-((grid.r[200:800] - c) ** 2)) for c in (3.0, 4.0, 5.0, 6.0)]
    starts = (200, 210)
    for spec, calls in ((KernelSpec(0, 2, 3), 100), (KernelSpec(1, 2, 3), 20)):
        case = kernel_case(spec)
        serial = {
            (i, start): kernel_sums(case, grid.quadrature, grid.r, w, start=start,
                                    derivatives=True).tobytes()
            for i, w in enumerate(weights) for start in starts
        }
        wrong = []

        def work(i):
            for k in range(calls):
                start = starts[(i + k) % 2]
                got = kernel_sums(case, grid.quadrature, grid.r, weights[i],
                                  start=start, derivatives=True)
                if got.tobytes() != serial[i, start]:
                    wrong.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong, spec.label()
        assert len(kernels._spare_window) <= 1


FRESH_PROCESS = """
import sys
import numpy as np
from epdiff_radial import kernels, solver
from epdiff_radial.grid import InitialData, RadialGrid
sys.path.insert(0, {tests!r})
from conftest import neg_exp_bump
spec = kernels.KernelSpec(1, 2, 3)
grid = RadialGrid.uniform(400, 20.0)
init = InitialData.from_omega0(neg_exp_bump(grid.r, 2.0, 8.0), grid, 3)
out = (kernels.invert_operator(spec, grid, init.omega0) if {what!r} == "invert"
       else solver.rhs(spec, grid, init, grid.r * 0.9, np.full(grid.num, 0.9)))
sys.stdout.write(out.tobytes().hex())
"""


def test_window_cache_keeps_one_window_across_dtypes_and_rows():
    # invert_operator (longdouble, one row) and rhs (float64, two rows) sum
    # over the same support window of one grid; in one process, taking
    # turns, each gives what it gives alone in a fresh process
    tests = pathlib.Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(tests.parent / "src"), env.get("PYTHONPATH")]))
    children = {
        what: subprocess.Popen(
            [sys.executable, "-c", FRESH_PROCESS.format(tests=str(tests), what=what)],
            stdout=subprocess.PIPE, text=True, env=env)
        for what in ("invert", "rhs")
    }
    fresh = {what: child.communicate(timeout=120)[0]
             for what, child in children.items()}
    assert all(child.returncode == 0 for child in children.values())
    spec = KernelSpec(1, 2, 3)
    grid = RadialGrid.uniform(400, 20.0)
    init = InitialData.from_omega0(neg_exp_bump(grid.r, 2.0, 8.0), grid, 3)
    nodes = (init.support_start, init.support_index + 1)
    for _ in range(2):
        u = kernels.invert_operator(spec, grid, init.omega0)
        assert u.tobytes().hex() == fresh["invert"]
        [(key, _)] = kernels._spare_window
        assert key[2:4] == nodes and key[4] == np.longdouble
        rate = solver.rhs(spec, grid, init, grid.r * 0.9, np.full(grid.num, 0.9))
        assert rate.tobytes().hex() == fresh["rhs"]
        [(key, _)] = kernels._spare_window
        assert key[2:4] == nodes and key[4] == np.float64
