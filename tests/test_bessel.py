"""Bessel layer: frozen high-precision oracle values and structural identities.

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

from epdiff_radial import bessel

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
# below and just above SERIES_RADIUS (30), where alpha_hat turns from its
# power series to its Hankel expansion, and at r = 40
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


@pytest.mark.parametrize("p,r,expected", ALPHA_ORACLE)
def test_alpha_against_mpmath(p, r, expected):
    assert bessel.alpha(p, r) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("p,r,expected", BETA_ORACLE)
def test_beta_against_mpmath(p, r, expected):
    assert bessel.beta(p, r) == pytest.approx(expected, rel=1e-13)


def _alpha_hat_at(p, r):
    """e^{-r} alpha_p(r) as a float."""
    return float(bessel.alpha_hat((p,), r)[p])


def _escaled_beta_at(p, r):
    """e^{r} beta_p(r) = beta_hat_p(r) / r^p as a float (r > 0)."""
    return float(bessel.beta_hat((p,), r)[p] / r**p)


def test_scaled_variants_against_mpmath():
    # e^{-40} alpha_3(40) and e^{40} beta_3(40): the unscaled values would
    # overflow/underflow in these products, the scaled ones are O(1)
    assert _alpha_hat_at(3, 40.0) == pytest.approx(0.0009140625, rel=1e-13)
    assert _escaled_beta_at(3, 40.0) == pytest.approx(
        0.00021354166666666666667, rel=1e-13
    )
    # r^p beta_p near the origin: 0.24999375085486763279 at r = 0.01, p = 4
    assert bessel.beta_scaled(4, 0.01) == pytest.approx(
        0.24999375085486763279, rel=1e-13
    )


@pytest.mark.parametrize("p,r,a,a_scaled,b_scaled", ORDER_ORACLE)
def test_orders_against_mpmath(p, r, a, a_scaled, b_scaled):
    assert bessel.alpha(p, r) == pytest.approx(a, rel=1e-13)
    assert _alpha_hat_at(p, r) == pytest.approx(a_scaled, rel=1e-13)
    assert bessel.beta_scaled(p, r) == pytest.approx(b_scaled, rel=1e-13)


def test_order_oracle_brackets_the_series_cutoff():
    assert 29.999 < bessel.SERIES_RADIUS < 30.001


@pytest.mark.parametrize("parity", [0, 1])
def test_multi_order_calls_equal_single_order_wrappers(parity):
    r = np.concatenate([[0.0], np.geomspace(1e-4, 50.0, 400)])
    pos = r[1:]
    orders = tuple(range(parity, 12, 2))
    a = bessel.alpha_hat(orders, r)
    b = bessel.beta_hat(orders, r)
    for p in orders:
        np.testing.assert_array_equal(a[p] * np.exp(r), bessel.alpha(p, r))
        np.testing.assert_array_equal(
            b[p][1:] * np.exp(-pos) / pos**p, bessel.beta(p, pos)
        )
        if p > 0:
            np.testing.assert_array_equal(
                b[p] * np.exp(-r), bessel.beta_scaled(p, r)
            )
        # a value does not depend on which other orders were asked for
        np.testing.assert_array_equal(bessel.alpha_hat((p,), r)[p], a[p])
        np.testing.assert_array_equal(bessel.beta_hat((p,), pos)[p], b[p][1:])


def _one_by_one(hat, orders, r):
    """hat's values at each radius of r evaluated alone, in the shape of r."""
    alone = [hat(orders, v) for v in np.ravel(r)]
    return {p: np.array([a[p] for a in alone], dtype=float).reshape(np.shape(r))
            for p in orders}


def _split_cases(rng):
    """Radii that the split at SERIES_RADIUS can get wrong."""
    cut = bessel.SERIES_RADIUS
    mixed = np.concatenate([[0.0, cut, cut], rng.uniform(0.0, 2.0 * cut, 147)])
    rng.shuffle(mixed)
    return {
        "reversed": np.sort(mixed)[::-1],
        "below": rng.uniform(0.0, cut, 150),
        "above": rng.uniform(cut, 3.0 * cut, 150),
        "at cutoff": np.array([cut, 1.0, cut, 2.0 * cut, 0.0, cut]),
        "empty": np.array([]),
        "2-D": mixed.reshape(10, 15),
    }


def _assert_value_depends_only_on_order_and_radius(hat, parity, rng, r):
    # radii evaluated in one batch, one by one, permuted, as a slice at an
    # offset and inside a wider batch: every value is byte for byte the same
    orders = tuple(range(parity, 10, 2))
    batch = hat(orders, r)
    for i in range(0, r.size, 37):
        alone = hat(orders, r[i])
        for p in orders:
            assert alone[p].tobytes() == batch[p][i].tobytes()
    perm = rng.permutation(r.size)
    permuted = hat(orders, r[perm])
    wider = hat(orders, np.concatenate([rng.uniform(0, 30, 333), r]))
    for offset in (1, 5, 511):
        sliced = hat(orders, r[offset:])
        for p in orders:
            assert sliced[p].tobytes() == batch[p][offset:].tobytes()
    for p in orders:
        assert permuted[p].tobytes() == batch[p][perm].tobytes()
        assert wider[p][333:].tobytes() == batch[p].tobytes()
    # sorted, reversed and unsorted radii, on one side of SERIES_RADIUS or
    # both, at it, none and in two dimensions
    for name, radii in _split_cases(rng).items():
        values, alone = hat(orders, radii), _one_by_one(hat, orders, radii)
        for p in orders:
            assert values[p].shape == radii.shape, name
            assert values[p].tobytes() == alone[p].tobytes(), name


@pytest.mark.parametrize("parity", [0, 1])
def test_alpha_value_depends_only_on_order_and_radius(parity):
    # on both sides of SERIES_RADIUS, over more than two blocks of the
    # series
    rng = np.random.default_rng(7)
    r = rng.uniform(0.0, 1.5 * bessel.SERIES_RADIUS, 2 * bessel.SERIES_BLOCK + 300)
    _assert_value_depends_only_on_order_and_radius(bessel.alpha_hat, parity, rng, r)


@pytest.mark.parametrize("parity", [0, 1])
def test_beta_value_depends_only_on_order_and_radius(parity):
    # with radii at the origin, where beta_hat is 1/p
    rng = np.random.default_rng(8)
    r = rng.uniform(0.0, 1.5 * bessel.SERIES_RADIUS, 2 * bessel.SERIES_BLOCK + 300)
    r[rng.choice(r.size, 40, replace=False)] = 0.0
    _assert_value_depends_only_on_order_and_radius(bessel.beta_hat, parity, rng, r)


def test_alpha_at_series_radius_takes_the_hankel_table():
    # r = SERIES_RADIUS is the first radius of the Hankel branch: there
    # e^{-r} alpha_1 is its one term 1 / (2r) (e^{-2r} / (2r) is far below
    # an ulp), which the series just below does not give, and alpha_2 has
    # the same bytes in any batch order
    cut = bessel.SERIES_RADIUS
    below = np.nextafter(cut, 0.0)
    assert _alpha_hat_at(1, below) != 0.5 / below
    at_cut = {}
    for radii in ([cut], [cut, 1.0, 45.0], [45.0, cut, below, 1.0]):
        values = bessel.alpha_hat((1,), radii)[1], bessel.alpha_hat((2,), radii)[2]
        at = radii.index(cut)
        assert values[0][at].tobytes() == np.float64(0.5 / cut).tobytes(), radii
        assert at_cut.setdefault(2, values[1][at].tobytes()) == values[1][at].tobytes()


def _largest_error(hat, orders, radii):
    """max |value - exact| / exact over the orders and radii of
    bessel.alpha_hat or bessel.beta_hat, against mpmath's besseli or
    besselk at 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    with mpmath.workdps(40):
        for p in orders:
            got = hat((p,), np.array(radii, dtype=float))[p]
            nu = mpmath.mpf(p) / 2
            c = 2**nu * mpmath.gamma(nu + 1)
            for value, r in zip(got, radii):
                r = mpmath.mpf(float(r))
                if hat is bessel.alpha_hat:
                    exact = mpmath.exp(-r) * c * r**-nu * mpmath.besseli(nu, r)
                else:
                    exact = mpmath.exp(r) * r**p * r**-nu * mpmath.besselk(nu, r) / c
                worst = max(worst, abs(float((value - exact) / exact)))
    return worst


def test_alpha_hat_of_high_orders_around_four_against_mpmath():
    # the power series holds on both sides of r = 4, where a recurrence in p
    # started from p = 0, 2 lost up to 3.5e-12 at p = 14
    assert _largest_error(bessel.alpha_hat, range(8, 15),
                          [3.999, 4.0, 4.001, 6.0, 10.0]) <= 4e-15


def test_alpha_hat_hankel_branch_against_mpmath():
    radii = [30.0, 30.5, 31.0, 35.0, 40.0, 60.0, 100.0, 300.0, 600.0]
    assert _largest_error(bessel.alpha_hat, range(22), radii) <= 4e-15


def test_beta_hat_against_mpmath():
    # the exact coefficient tables, times the start values of scipy's k0e
    # and k1e for even orders
    radii = np.geomspace(1e-3, 600.0, 66)
    assert _largest_error(bessel.beta_hat, range(8), radii) <= 1e-15


def test_hankel_table_admits_orders_up_to_21():
    # at r = 30 the term (p^2 - 1) / (8 r) of p = 22 passes twice the first,
    # and the series below SERIES_RADIUS needs no Hankel table
    with pytest.raises(ValueError):
        bessel.alpha_hat((22,), bessel.SERIES_RADIUS)
    assert np.isfinite(bessel.alpha_hat((22,), 29.0)[22])
    assert np.isfinite(bessel.alpha_hat((21,), bessel.SERIES_RADIUS)[21])


def test_orders_must_be_nonnegative_integers_of_one_parity():
    with pytest.raises(ValueError):
        bessel.alpha(2.5, 1.0)
    with pytest.raises(ValueError):
        bessel.beta_scaled(-1, 1.0)
    with pytest.raises(ValueError):
        bessel.alpha_hat((2, 3), np.ones(3))
    # an integral float order is an integer order
    assert bessel.alpha(3.0, 1.0) == bessel.alpha(3, 1.0)


def test_half_integer_closed_forms():
    # p = 1: alpha_1 = sinh(r)/r, beta_1 = e^{-r}/r
    r = np.array([0.3, 1.0, 2.5, 7.0])
    np.testing.assert_allclose(bessel.alpha(1, r), np.sinh(r) / r, rtol=1e-14)
    np.testing.assert_allclose(bessel.beta(1, r), np.exp(-r) / r, rtol=1e-14)
    # p = 3: alpha_3 = 3 (r cosh r - sinh r)/r^3, beta_3 = e^{-r}(1+r)/(3 r^3)
    np.testing.assert_allclose(
        bessel.alpha(3, r), 3.0 * (r * np.cosh(r) - np.sinh(r)) / r**3, rtol=1e-13
    )
    np.testing.assert_allclose(
        bessel.beta(3, r), np.exp(-r) * (1.0 + r) / (3.0 * r**3), rtol=1e-13
    )


def test_normalization_at_origin():
    for p in (1, 2, 3, 4, 5, 6):
        assert bessel.alpha(p, 0.0) == 1.0  # exact by construction
        assert _alpha_hat_at(p, 0.0) == 1.0
        assert bessel.beta_scaled(p, 0.0) == 1.0 / p


def test_beta_scaled_small_r_limit():
    # r^p beta_p(r) -> 1/p; for p >= 2 the defect at r = 1e-6 is below 1e-8.
    # p = 1 approaches its limit only linearly (r beta_1 = e^{-r} exactly),
    # so it is checked against the closed form instead.
    for p in (2, 3, 4, 5, 8):
        assert abs(bessel.beta_scaled(p, 1e-6) - 1.0 / p) < 1e-8
    assert bessel.beta_scaled(1, 1e-6) == pytest.approx(math.exp(-1e-6), rel=1e-13)


def test_derivative_recurrences_against_mpmath():
    # alpha_p' = r alpha_{p+2} / (p+2) and beta_p' = -(p+2) r beta_{p+2}:
    # alpha_1'(1) = alpha_3(1)/3 = cosh(1) - sinh(1) = e^{-1};
    # beta_1'(1) = -3 beta_3(1)
    assert bessel.alpha(3, 1.0) / 3.0 == pytest.approx(
        0.3678794411714423216, rel=1e-13
    )
    assert -3.0 * bessel.beta(3, 1.0) == pytest.approx(
        -0.73575888234288464319, rel=1e-13
    )


def test_wronskian_identity_sweep():
    # |beta_p alpha_p' - alpha_p beta_p' - r^{-p-1}| <= 1e-10 r^{-p-1}
    r = np.geomspace(0.1, 30.0, 200)
    for p in range(1, 9):
        rel = np.abs(bessel.wronskian_residual(p, r)) * r ** (p + 1)
        assert rel.max() < 1e-10, (p, rel.max())


def test_domain_errors():
    with pytest.raises(ValueError):
        bessel.alpha(3, -0.5)
    with pytest.raises(ValueError):
        bessel.beta(3, 0.0)
    with pytest.raises(ValueError):
        bessel.beta(3, np.array([1.0, 0.0]))


@given(
    p=st.integers(min_value=1, max_value=8),
    r=st.floats(min_value=1e-3, max_value=50.0),
)
@settings(max_examples=200, deadline=None)
def test_positivity_and_scaling_consistency(p, r):
    a = bessel.alpha(p, r)
    b = bessel.beta(p, r)
    assert a >= 1.0  # alpha is increasing from alpha(0) = 1
    assert b > 0.0
    # scaled variants are consistent with the plain ones
    assert _alpha_hat_at(p, r) == pytest.approx(a * math.exp(-r), rel=1e-12)
    assert _escaled_beta_at(p, r) == pytest.approx(b * math.exp(r), rel=1e-12)
    assert bessel.beta_scaled(p, r) == pytest.approx(r**p * b, rel=1e-12)


@given(
    p=st.integers(min_value=1, max_value=6),
    r=st.floats(min_value=1e-2, max_value=20.0),
    h=st.floats(min_value=1e-5, max_value=1e-4),
)
@settings(max_examples=100, deadline=None)
def test_prime_matches_central_difference(p, r, h):
    # alpha_p' = r alpha_{p+2} / (p+2), the recurrence the kernels use
    fd = (bessel.alpha(p, r + h) - bessel.alpha(p, r - h)) / (2.0 * h)
    prime = r / (p + 2.0) * bessel.alpha(p + 2, r)
    assert prime == pytest.approx(fd, rel=1e-5, abs=1e-10)
