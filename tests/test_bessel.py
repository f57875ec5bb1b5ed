"""Bessel layer: the kernel rows against frozen high-precision oracle values,
closed forms and structural identities.

Every Bessel value is read from the factor rows the solver integrates: with
H1_p the kernel KernelSpec(1, 1, p), its rows are f = r alpha_p(r), df =
alpha_p + r^2 alpha_{p+2} / (p + 2), g = r beta_p(r) and dg = beta_p -
(p + 2) r^2 beta_{p+2}, and ``KernelCase.scaled_factors`` gives f e^-r and
g e^r.  From SERIES_RADIUS on the inner rows come from their Hankel table
(``kernels._inner_hankel``, built from ``bessel._alpha_coefficients``),
whose exact coefficients and order cap are checked here too, and
``bessel.beta_hat_start`` is checked directly.

The reference values below were generated once with mpmath at 50 digits:

    from mpmath import mp, besseli, besselk, gamma, mpf
    mp.dps = 50
    c = lambda p: 2**(mpf(p)/2) * gamma(mpf(p)/2 + 1)
    alpha = lambda p, r: c(p) * mpf(r)**(-mpf(p)/2) * besseli(mpf(p)/2, r)
    beta  = lambda p, r: mpf(r)**(-mpf(p)/2) * besselk(mpf(p)/2, r) / c(p)
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epdiff_radial import bessel, kernels
from epdiff_radial.kernels import KernelSpec, delta, kernel_case, phi

# (p, r, value) triples from the mpmath oracle
ALPHA_ORACLE = [
    (3, 0.1, 1.0010003572090022252),
    (3, 1.0, 1.1036383235143269648),
    (3, 5.0, 7.1243167691076111178),
    (3, 20.0, 1728401.0086473778734),
]

BETA_ORACLE = [
    (3, 0.1, 331.77371994651851016),
    (3, 1.0, 0.24525296078096154773),
    (3, 5.0, 0.00010780715198536747355),
    (3, 20.0, 1.8035094196337380995e-12),
]


# (p, r, alpha_p, e^{-r} alpha_p, r^p beta_p) from the same oracle, for the
# even orders and the odd orders above 3, at r = 1e-3, around r = 4, just
# below and just above SERIES_RADIUS (30), where the inner rows turn from
# their power series to their Hankel table, and at r = 40
ORDER_ORACLE = [
    (2, 1e-3, 1.0000001250000052083, 0.99900062470844267397, 0.49999811907804278714),
    (2, 3.999, 4.876522717543828549, 0.089405990429573065077, 0.0249893268229685456),
    (2, 4.001, 4.882944907572318101, 0.08934486608726323568, 0.024944688113265932466),
    (2, 29.999, 51186796649.60308398, 0.0047946597034692989112, 3.2547982920842641419e-13),
    (2, 30.001, 51284188241.485108309, 0.0047941843959810329716, 3.2484008585647650416e-13),
    (2, 40, 735369808162967.63694, 0.0031241114537221030374, 1.6994263909722077302e-17),
    (4, 1e-3, 1.0000000833333359375, 0.99900058308341924601, 0.24999993750012146387),
    (4, 3.999, 3.2094266122709525872, 0.058841510970267504598, 0.034827826096921692202),
    (4, 4.001, 3.2127638883105281297, 0.058785008801954838419, 0.034777892098630123992),
    (4, 29.999, 6486808864.8386850368, 0.00060761843100393825031, 2.564056941405101901e-12),
    (4, 30.001, 6498740252.5203354114, 0.00060751978690702577507, 2.5591795436679142874e-12),
    (4, 40, 70797024926284.661436, 0.00030077084210756613613, 1.7635435395685237933e-16),
    (5, 1e-3, 1.0000000714285734127, 0.99900057119055553334, 0.19999996666667499556),
    (5, 3.999, 2.7937558762370130735, 0.051220618789450964535, 0.037876747938450521528),
    (5, 4.001, 2.7963709159417513769, 0.051166128175578474441, 0.037827906233119173671),
    (5, 29.999, 2679092030.0154985094, 0.00025095015587971313845, 6.2005508430467116378e-12),
    (5, 30.001, 2683937225.4844974925, 0.00025090169908942267206, 6.1889473888809776144e-12),
    (5, 40, 25567115531198.777224, 0.0001086181640625, 4.8799429212449385593e-16),
    (6, 1e-3, 1.0000000625000015625, 0.99900056227090779219, 0.1666666458333359375),
    (6, 3.999, 2.5018949490153873229, 0.04586965114767898348, 0.039869773212207786643),
    (6, 4.001, 2.5040193627101197277, 0.045816874627094384506, 0.039823369409997131002),
    (6, 29.999, 1192079144.8788435115, 0.00011166187793353643346, 1.3914051203574696951e-11),
    (6, 30.001, 1194198998.4456097939, 0.00011163694698813326415, 1.38884350291461232e-11),
    (6, 40, 9968591748550.2446326, 0.000042350109174218053519, 1.2505204966193734063e-15),
    (7, 1e-3, 1.0000000555555568182, 0.99900055533340402155, 0.1428571285714297619),
    (7, 3.999, 2.2872727580597365235, 0.041934775691952685339, 0.041013778350667482197),
    (7, 4.001, 2.2890469200506066999, 0.041883452385921656632, 0.040970518555726273411),
    (7, 29.999, 564779154.17755622814, 0.000052902780192157251496, 2.9315920799021063504e-11),
    (7, 30.001, 565766733.34614211341, 0.00005288940193420306311, 2.9262822965497299887e-11),
    (7, 40, 4147275342372.1988197, 0.0000176190948486328125, 3.0027772481568121647e-15),
    (8, 1e-3, 1.0000000500000010417, 0.99900054978340102396, 0.12499998958333398437),
    (8, 3.999, 2.1236566853808433782, 0.038935044556603580359, 0.041505801362693294121),
    (8, 4.001, 2.1251708585487721607, 0.038884957615463778885, 0.041465954796930413324),
    (8, 29.999, 282404411.71152296986, 0.000026452779653006319928, 5.8508401036267779925e-11),
    (8, 30.001, 282890007.23584741284, 0.00002644532174484092036, 5.8404141743378810674e-11),
    (8, 40, 1824852995332.0325041, 7.7526219880004424782e-6, 6.8163688376929426989e-15),
    (9, 1e-3, 1.0000000454545463287, 0.99900054524248949371, 0.11111110317460357143),
    (9, 3.999, 1.995274790513608813, 0.03658129555784742568, 0.041514287779224687403),
    (9, 4.001, 1.9965898141274550553, 0.036532267504754623762, 0.041477850318067704165),
    (9, 29.999, 148011768.59543813491, 0.000013864240565428562252, 1.1137466430228635914e-10),
    (9, 30.001, 148262050.14827271375, 0.000013859936789679464229, 1.1117940187832583801e-10),
    (9, 40, 843406207435.04652465, 3.5830883502960205078e-6, 1.4728999246966253422e-14),
]


def _h1(p, r):
    """(f, df, g, dg) of H1_p at the radii r > 0, each of the shape of r."""
    case = kernel_case(KernelSpec(1, 1, p))
    r = np.asarray(r, dtype=float)
    ((f, df),), ((g, dg),) = case.inner(r), case.outer(r)
    return f, df, g, dg


def _h1_scaled(p, r):
    """(f e^-r, g e^r) of H1_p at the radii r > 0."""
    r = np.asarray(r, dtype=float)
    f, g = kernel_case(KernelSpec(1, 1, p)).scaled_factors(r, r)
    return f[0, 0], g[0, 0]


@pytest.mark.parametrize("p,r,expected", ALPHA_ORACLE)
def test_alpha_against_mpmath(p, r, expected):
    # alpha_p = f / r
    assert float(_h1(p, r)[0] / r) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("p,r,expected", BETA_ORACLE)
def test_beta_against_mpmath(p, r, expected):
    # beta_p = g / r
    assert float(_h1(p, r)[2] / r) == pytest.approx(expected, rel=1e-13)


def test_scaled_variants_against_mpmath():
    # e^{-40} alpha_3(40) and e^{40} beta_3(40) from the scaled rows: the
    # unscaled values would overflow/underflow in these products, the
    # scaled ones are O(1)
    f_hat, g_hat = _h1_scaled(3, 40.0)
    assert float(f_hat / 40.0) == pytest.approx(0.0009140625, rel=1e-13)
    assert float(g_hat / 40.0) == pytest.approx(
        0.00021354166666666666667, rel=1e-13
    )
    # r^p beta_p = r^(p - 1) g near the origin: 0.24999375085486763279 at
    # r = 0.01, p = 4
    assert float(0.01**3 * _h1(4, 0.01)[2]) == pytest.approx(
        0.24999375085486763279, rel=1e-13
    )


@pytest.mark.parametrize("p,r,a,a_scaled,b_scaled", ORDER_ORACLE)
def test_orders_against_mpmath(p, r, a, a_scaled, b_scaled):
    f, _, g, _ = _h1(p, r)
    assert float(f / r) == pytest.approx(a, rel=1e-13)
    assert float(_h1_scaled(p, r)[0] / r) == pytest.approx(a_scaled, rel=1e-13)
    assert float(r ** (p - 1) * g) == pytest.approx(b_scaled, rel=1e-13)


def test_order_oracle_brackets_the_series_cutoff():
    assert 29.999 < bessel.SERIES_RADIUS < 30.001


@pytest.mark.parametrize("parity", [0, 1])
def test_multi_order_alpha_hat_equals_single_order_calls(parity):
    # a value does not depend on which other orders were asked for: each
    # row's column of an inner Hankel table (orders p to p + 4 for H2) is
    # the table of that row alone, and the outer row of beta_p in H1_p
    # (orders p, p + 2) and in H2_{p+2} (orders p to p + 4) has the same
    # bytes
    for n in range(max(parity, 1) + 2, 12, 2):
        rows = kernel_case(KernelSpec(1, 2, n))._series_rows(n)
        table = kernels._inner_hankel(rows)
        for t, row in enumerate(rows):
            alone = kernels._inner_hankel((row,))
            assert table[: len(alone), t].tobytes() == alone[:, 0].tobytes()
            assert not table[len(alone) :, t].any()
    s = np.geomspace(1e-3, 600.0, 400)
    for p in range(max(parity, 1), 12, 2):
        h2 = kernel_case(KernelSpec(1, 2, p + 2)).outer(s)[1]
        assert kernel_case(KernelSpec(1, 1, p)).outer(s)[0].tobytes() == h2.tobytes()


def _split_cases(rng, low):
    """Radii from low on that the split at SERIES_RADIUS can get wrong."""
    cut = bessel.SERIES_RADIUS
    mixed = np.concatenate([[low, cut, cut], rng.uniform(low, 2.0 * cut, 147)])
    rng.shuffle(mixed)
    return {
        "reversed": np.sort(mixed)[::-1],
        "below": rng.uniform(low, cut, 150),
        "above": rng.uniform(cut, 3.0 * cut, 150),
        "at cutoff": np.array([cut, 1.0, cut, 2.0 * cut, low, cut]),
        "empty": np.array([]),
        "2-D": mixed.reshape(10, 15),
    }


def _assert_value_depends_only_on_radius(values, rng, r):
    # radii evaluated in one batch, one by one, permuted, as a slice at an
    # offset and inside a wider batch: every value, values(x)[..., i] at
    # x[i], is byte for byte the same
    batch = values(r)
    for i in range(0, r.size, 37):
        assert values(r[i : i + 1]).tobytes() == batch[..., i : i + 1].tobytes()
    perm = rng.permutation(r.size)
    assert values(r[perm]).tobytes() == batch[..., perm].tobytes()
    wider = values(np.concatenate([rng.permutation(r)[:333], r]))
    assert wider[..., 333:].tobytes() == batch.tobytes()
    for offset in (1, 5, 511):
        assert values(r[offset:]).tobytes() == batch[..., offset:].tobytes()


def _assert_rows_depend_only_on_radius(rows, rng, low):
    # the kernel rows on sorted, reversed and unsorted radii, on one side
    # of SERIES_RADIUS or both, at it, none and in two dimensions
    for name, radii in _split_cases(rng, low).items():
        values = rows(radii)
        assert values.shape[2:] == radii.shape, name
        flat = values.reshape(values.shape[:2] + (-1,))
        for i, x in enumerate(radii.ravel()):
            assert flat[..., i].tobytes() == rows(np.array([x]))[..., 0].tobytes(), name


@pytest.mark.parametrize("parity", [0, 1])
def test_alpha_value_depends_only_on_order_and_radius(parity):
    # the inner rows of H2_{4 + parity} (orders 4 + parity to 8 + parity)
    # on many radii past SERIES_RADIUS, and on both sides of it
    rng = np.random.default_rng(7)
    cut, size = bessel.SERIES_RADIUS, 2348
    inner = kernel_case(KernelSpec(1, 2, 4 + parity)).inner
    _assert_value_depends_only_on_radius(inner, rng, rng.uniform(cut, 20.0 * cut, size))
    _assert_value_depends_only_on_radius(inner, rng, rng.uniform(0.0, 1.5 * cut, size))
    _assert_rows_depend_only_on_radius(inner, rng, 0.0)


@pytest.mark.parametrize("parity", [0, 1])
def test_beta_value_depends_only_on_order_and_radius(parity):
    # the outer rows of H2_{4 + parity}: for even n from the start values
    # beta_hat_0 and beta_hat_2
    rng = np.random.default_rng(8)
    outer = kernel_case(KernelSpec(1, 2, 4 + parity)).outer
    r = rng.uniform(1e-3, 1.5 * bessel.SERIES_RADIUS, 2348)
    _assert_value_depends_only_on_radius(outer, rng, r)
    _assert_rows_depend_only_on_radius(outer, rng, 1e-3)


def test_alpha_at_series_radius_takes_the_hankel_table(monkeypatch):
    # r = SERIES_RADIUS is the first radius of the Hankel branch, whose odd
    # orders are exact (e^{-2r} of the value is far below an ulp): H1_3's
    # row f = r alpha_3 = 3 (r cosh r - sinh r) / r^2 has e^{-r} f = 3 (r -
    # 1) / (2 r^2) and e^{-r} df = 3 (r^2 - 2r + 2) / (2 r^3) there, in u =
    # 1/r.  The inner rows take the Hankel table at it and the series just
    # below it, and their value at it has the same bytes in any batch order
    cut = bessel.SERIES_RADIUS
    below = np.nextafter(cut, 0.0)
    assert kernels._inner_hankel(((3, 0, 1),)).tolist() == [
        [[0.0, 0.0]], [[1.5, 1.5]], [[-1.5, -3.0]], [[0.0, 3.0]]]
    seen = []
    hankel = kernels.KernelCase._hankel_factors
    monkeypatch.setattr(kernels.KernelCase, "_hankel_factors",
                        lambda case, r: seen.extend(r) or hankel(case, r))
    inner = kernel_case(KernelSpec(1, 1, 2)).inner
    at_cut = {}
    for radii in ([cut], [cut, 1.0, 45.0], [45.0, cut, below, 1.0]):
        rows = inner(np.array(radii))[..., radii.index(cut)]
        assert at_cut.setdefault(2, rows.tobytes()) == rows.tobytes(), radii
    assert cut in seen and below not in seen


def _largest_error(got, exact, radii):
    """max |value - exact| / exact over the values got at the radii, with
    exact(mpmath, r) at 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    with mpmath.workdps(40):
        for value, r in zip(got, radii):
            e = exact(mpmath, mpmath.mpf(float(r)))
            worst = max(worst, abs(float((value - e) / e)))
    return worst


def _alpha_by_mpmath(mpmath, p, r):
    """alpha_p(r) = c_p r^{-p/2} I_{p/2}(r)."""
    nu = mpmath.mpf(p) / 2
    return 2**nu * mpmath.gamma(nu + 1) * r**-nu * mpmath.besseli(nu, r)


def _beta_by_mpmath(mpmath, p, r):
    """beta_p(r) = c_p^{-1} r^{-p/2} K_{p/2}(r)."""
    nu = mpmath.mpf(p) / 2
    return r**-nu * mpmath.besselk(nu, r) / (2**nu * mpmath.gamma(nu + 1))


def test_alpha_hat_of_high_orders_around_four_against_mpmath():
    # the power series of the rows holds on both sides of r = 4, where a
    # recurrence in p started from p = 0, 2 lost up to 3.5e-12 at p = 14
    radii = [3.999, 4.0, 4.001, 6.0, 10.0]
    worst = max(_largest_error(_h1(p, radii)[0], lambda m, r, p=p: r * _alpha_by_mpmath(m, p, r),
                               radii)
                for p in range(8, 15))
    assert worst <= 4e-15


def test_alpha_hat_hankel_branch_against_mpmath():
    # alpha_p = f / r of H1_p from its Hankel table, for every order whose
    # H1 rows it admits; orders 20 and 21 enter the rows of H1_18 and H1_19
    # as the alpha_{p+2} of df (test_kernels checks every factor)
    radii = np.array([30.0, 30.5, 31.0, 35.0, 40.0, 60.0, 100.0, 300.0, 600.0])
    worst = max(_largest_error(_h1(p, radii)[0] / radii, lambda m, r, p=p: _alpha_by_mpmath(m, p, r),
                               radii)
                for p in range(2, 20))
    assert worst <= 4e-15


def test_beta_hat_against_mpmath():
    # the scaled outer rows g e^r = r^(1 - p) beta_hat_p of H1_p, from the
    # exact coefficient tables times the start values of scipy's k0e and
    # k1e for even orders, and those start values beta_hat_0, beta_hat_2:
    # orders 0 to 7
    radii = np.geomspace(1e-3, 600.0, 66)
    worst = max(_largest_error(_h1_scaled(p, radii)[1],
                               lambda m, r, p=p: m.exp(r) * r * _beta_by_mpmath(m, p, r),
                               radii)
                for p in range(2, 8))
    # p = 1: H2_3's second outer row g_2 = r beta_1
    g2_hat = kernel_case(KernelSpec(1, 2, 3)).scaled_outer(radii)[1, 0]
    worst = max(worst, _largest_error(
        g2_hat, lambda m, r: m.exp(r) * r * _beta_by_mpmath(m, 1, r), radii))
    starts = np.empty((2, radii.size))
    bessel.beta_hat_start(starts, radii)
    for row, p in zip(starts, (0, 2)):
        worst = max(worst, _largest_error(
            row, lambda m, r, p=p: m.exp(r) * r**p * _beta_by_mpmath(m, p, r), radii))
    assert worst <= 1e-15


def test_hankel_table_admits_orders_up_to_21():
    # at r = 30 the term (p^2 - 1) / (8 r) of p = 22 passes twice the first,
    # so the rows of H1_20 (orders 20 and 22) raise there; below
    # SERIES_RADIUS their series needs no Hankel table
    cut = np.array([bessel.SERIES_RADIUS])
    with pytest.raises(ValueError):
        bessel._alpha_coefficients(22)
    h1_20 = kernel_case(KernelSpec(1, 1, 20))
    with pytest.raises(ValueError):
        h1_20.inner(cut)
    assert np.isfinite(h1_20.inner(np.array([29.0]))).all()
    assert all(bessel._alpha_coefficients(21).values())
    assert all(bessel._alpha_coefficients(20).values())
    assert np.isfinite(kernel_case(KernelSpec(1, 1, 19)).inner(cut)).all()


def test_orders_must_be_nonnegative_integers_of_one_parity():
    # the rows' orders are n, n + 2 (and n - 2, n + 4 for H2) of a
    # KernelSpec, whose n is a positive integer
    for n in (2.5, -1, 0, True, 3.0):
        with pytest.raises(ValueError):
            KernelSpec(1, 1, n)
    # a numpy integer is an integer order
    r = np.geomspace(1e-3, 40.0, 30)
    assert (kernel_case(KernelSpec(1, 1, np.int64(3))).inner(r).tobytes()
            == kernel_case(KernelSpec(1, 1, 3)).inner(r).tobytes())
    # every case's orders are of one parity, each step 2 from the last, as
    # the Hankel and Laurent tables take them
    for spec in ([KernelSpec(1, 1, n) for n in range(2, 12)]
                 + [KernelSpec(1, 2, n) for n in range(3, 12)]):
        case = kernel_case(spec)
        for orders in (case.alpha_orders, case.beta_orders):
            assert orders == tuple(range(orders[0], orders[-1] + 1, 2)), spec


def test_half_integer_closed_forms():
    # p = 1: alpha_1 = sinh(r)/r (H1_1's f = sinh r) and beta_1 = e^{-r}/r
    # (H2_3's second outer row g_2 = r beta_1)
    r = np.array([0.3, 1.0, 2.5, 7.0])
    ((f, _),) = kernel_case(KernelSpec(1, 1, 1)).inner(r)
    np.testing.assert_allclose(f / r, np.sinh(r) / r, rtol=1e-14)
    g2 = kernel_case(KernelSpec(1, 2, 3)).outer(r)[1, 0]
    np.testing.assert_allclose(g2 / r, np.exp(-r) / r, rtol=1e-14)
    # p = 3: alpha_3 = 3 (r cosh r - sinh r)/r^3, beta_3 = e^{-r}(1+r)/(3 r^3)
    f, _, g, _ = _h1(3, r)
    np.testing.assert_allclose(
        f / r, 3.0 * (r * np.cosh(r) - np.sinh(r)) / r**3, rtol=1e-13
    )
    np.testing.assert_allclose(
        g / r, np.exp(-r) * (1.0 + r) / (3.0 * r**3), rtol=1e-13
    )


def test_normalization_at_origin():
    # f = r alpha_p vanishes at r = 0 and df = alpha_p(0) = 1, exact by
    # construction, scaled too
    zero = np.zeros(1)
    for p in (1, 2, 3, 4, 5, 6):
        case = kernel_case(KernelSpec(1, 1, p))
        assert case.inner(zero).tolist() == [[[0.0], [1.0]]]
        assert case.scaled_factors(zero, np.ones(1))[0].tolist() == [[[0.0], [1.0]]]
        assert case.df_origin == (1.0,)


def test_beta_scaled_small_r_limit():
    # r^p beta_p(r) = r^(p - 1) g -> 1/p; for p >= 2 the defect at r = 1e-6
    # is below 1e-8.  p = 1 approaches its limit only linearly (r beta_1 =
    # e^{-r} exactly, H2_3's g_2), so it is checked against the closed form
    # instead.
    for p in (2, 3, 4, 5, 8):
        assert abs(float(1e-6 ** (p - 1) * _h1(p, 1e-6)[2]) - 1.0 / p) < 1e-8
    g2 = kernel_case(KernelSpec(1, 2, 3)).outer(1e-6)[1, 0]
    assert float(g2) == pytest.approx(math.exp(-1e-6), rel=1e-13)


def test_derivative_recurrences_against_mpmath():
    # alpha_p' = r alpha_{p+2} / (p+2) and beta_p' = -(p+2) r beta_{p+2}:
    # alpha_1'(1) = alpha_3(1)/3 = cosh(1) - sinh(1) = e^{-1};
    # beta_1'(1) = -3 beta_3(1), with alpha_3(1) = f(1) and beta_3(1) =
    # g(1) of H1_3
    f, _, g, _ = _h1(3, 1.0)
    assert float(f) / 3.0 == pytest.approx(0.3678794411714423216, rel=1e-13)
    assert -3.0 * float(g) == pytest.approx(-0.73575888234288464319, rel=1e-13)


def test_wronskian_identity_sweep():
    # beta_p alpha_p' - alpha_p beta_p' = r^{-p-1} is the rows' jump
    # condition r^(p-1) (f dg - df g) = -1; |r^(p-1) (f dg - df g) + 1| <=
    # 1e-10 for H1_p
    r = np.geomspace(0.1, 30.0, 200)
    for p in range(1, 9):
        f, df, g, dg = _h1(p, r)
        rel = np.abs(r ** (p - 1) * (f * dg - df * g) + 1.0)
        assert rel.max() < 1e-10, (p, rel.max())


def test_domain_errors():
    # the kernel built from the rows is defined on s >= r >= 0 but (0, 0)
    spec = KernelSpec(1, 1, 3)
    with pytest.raises(ValueError):
        phi(spec, -0.5, 1.0)
    with pytest.raises(ValueError):
        delta(spec, 0.0, 0.0)
    with pytest.raises(ValueError):
        delta(spec, np.array([0.5, 2.0]), np.array([1.0, 1.0]))


@given(
    p=st.integers(min_value=1, max_value=8),
    r=st.floats(min_value=1e-3, max_value=50.0),
)
@settings(max_examples=200, deadline=None)
def test_positivity_and_scaling_consistency(p, r):
    f, _, g, _ = _h1(p, r)
    a, b = float(f / r), float(g / r)
    assert a >= 1.0  # alpha is increasing from alpha(0) = 1
    assert b > 0.0
    # the scaled rows are consistent with the plain ones
    f_hat, g_hat = _h1_scaled(p, r)
    assert float(f_hat / r) == pytest.approx(a * math.exp(-r), rel=1e-12)
    assert float(g_hat / r) == pytest.approx(b * math.exp(r), rel=1e-12)


@given(
    p=st.integers(min_value=1, max_value=6),
    r=st.floats(min_value=1e-2, max_value=20.0),
    h=st.floats(min_value=1e-5, max_value=1e-4),
)
@settings(max_examples=100, deadline=None)
def test_prime_matches_central_difference(p, r, h):
    # df = alpha_p + r alpha_p' with alpha_p' = r alpha_{p+2} / (p+2), the
    # recurrence the rows use
    f_lo, f_hi = _h1(p, [r - h, r + h])[0]
    fd = (f_hi - f_lo) / (2.0 * h)
    assert float(_h1(p, r)[1]) == pytest.approx(fd, rel=1e-5, abs=1e-10)
