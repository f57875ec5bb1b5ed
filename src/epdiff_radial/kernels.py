"""Green kernels for the radial inertia operators (sigma - Delta)^k.

For a radial field u(r) d/dr the operator A = (sigma - Delta)^k acts through
the vector Laplacian Delta u = u'' + (n-1)u'/r - (n-1)u/r^2, and its inverse
is an integral operator with kernel delta(r, s) = r s phi(r, s) on the wedge
D = {s >= r >= 0} \\ {(0,0)}:

    u(r) = int_0^r delta(s, r) s^{n-1} w(s) ds
         + int_r^inf delta(r, s) s^{n-1} w(s) ds.

The four cases (sigma, k) in {0,1} x {1,2} have closed-form kernels: a
homogeneous one is a table of exact power terms, a nonhomogeneous one is
built from the Bessel pair alpha/beta.  Every delta factors into at most
two separable products f(r) g(s), phi is formed from those factors, and
one pass of prefix and suffix sums gives the kernel integral at every node
in O(N) (``kernel_sums``, which works over the support window of the
weight only).  Each case is one subclass of ``KernelCase`` holding all of
its formulas (Camassa-Holm, n = 1 of H^1, has its own, e^{-s} and sinh r);
``kernel_case`` builds the spec's instance once, its class picked from one
table by (sigma, k).  A sigma = 1 case with Bessel orders sums each factor,
radius by radius, from an exact coefficient table per kernel row, rounded
once, and one table of powers: an inner factor is a power series in r^2
with coefficients of one sign below bessel.SERIES_RADIUS and e^r times a
polynomial in 1/r (times r^{-1/2} for even n; the Hankel expansion) past
it, an outer factor e^{-s} times a Laurent polynomial in 1/s (times the
start values beta_hat_0, beta_hat_2 for even n) with coefficients of one
sign.  So the inner side calls no Bessel function, and the outer side
only the start values.  The certificate checks these same factors,
scaled (``KernelCase.scaled_factors``).

Also evaluates the comparison weight Q(r) = 1/(r phi(0, r)) and the diagonal
criterion

    S(r) = [r d1_phi(r,r) phi(0,r) - r phi(r,r) d2_phi(0,r)] / phi(0,r)^2,

whose uniform lower bound C > 0 drives the blowup certificates, from the same
factor rows: with G(s) = sum_t df_t(0) g_t(s) = d_r delta(0, s) = s phi(0, s),
exactly

    S(r) = [d_r delta(r,r) G(r) - delta(r,r) G'(r)] / G(r)^2,   Q = 1/G,

so S is e^{sigma r} times a ratio of the scaled rows at (r, r), for
sigma = 0 a rational constant of the kernel's power terms.
"""

import bisect
import numbers
import warnings
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from . import bessel
from .quadrature import deriv1_uniform, deriv2_uniform

__all__ = [
    "KernelSpec",
    "KernelCase",
    "kernel_case",
    "phi",
    "delta",
    "d1_delta",
    "d2_delta",
    "q_weight",
    "phi0_weight",
    "s_criterion",
    "kernel_sums",
    "invert_operator",
    "apply_operator",
]

@dataclass(frozen=True)
class KernelSpec:
    """Which inertia operator: (sigma - Delta)^k in dimension n.

    sigma = 0 gives the homogeneous (Hdot^k) metric, sigma = 1 the full H^k
    metric.  k = 2 requires n >= 3 (the second-order homogeneous kernel is
    not defined below that).  Each field is an integer (``numbers.Integral``,
    so numpy integers too, but not bool).
    """

    sigma: int
    k: int
    n: int

    def __post_init__(self):
        for name in ("sigma", "k", "n"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer")
        if self.sigma not in (0, 1):
            raise ValueError("sigma must be 0 or 1")
        if self.k not in (1, 2):
            raise ValueError("k must be 1 or 2")
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if self.k == 2 and self.n < 3:
            raise ValueError("k = 2 requires n >= 3")

    def label(self):
        name = {(0, 1): "H1dot", (0, 2): "H2dot", (1, 1): "H1", (1, 2): "H2"}
        return f"{name[(self.sigma, self.k)]}_n{self.n}"

    @property
    def r_max_limit(self):
        """The largest grid radius a run may use: inf for sigma = 0, and 600
        for sigma = 1, whose inner factors grow like e^r.  The solver forms
        them at the support's image, which the guard lets reach 0.9 r_max,
        and certify forms them times e^-r, and S as e^r times a ratio, up
        to r_max; e^r overflows past 709."""
        return 600.0 if self.sigma else np.inf


def _fresh_factors(method, terms, x, constants):
    """method(x, out) on a fresh array of shape (terms, 2) + x.shape, after
    ``_fill_rows(out, constants)``."""
    x = np.asarray(x)
    factors = np.empty((terms, 2, x.size), dtype=np.result_type(x, float))
    _fill_rows(factors, constants)
    method(x.reshape(-1), factors)
    return factors.reshape((terms, 2) + x.shape)


def _fill_rows(out, constants):
    """out[t][d] = value for each (t, d): value of ``constants``."""
    for (t, d), value in constants.items():
        out[t][d].fill(value)


def _scale(x, numerator, denominator, out):
    """out = x numerator / denominator; -1 negates, a 1 is skipped if x is out."""
    if numerator == -1.0:
        x = np.negative(x, out=out)
    elif numerator != 1.0:
        x = np.multiply(x, numerator, out=out)
    if denominator != 1.0 or x is not out:
        np.divide(x, denominator, out=out)


def _power_factors(terms):
    """The rows f_t = a r^p, df_t = p a r^(p-1), g_t = b s^-q, dg_t = -q b
    s^-(q+1) of the power terms (a, p, b, q), coefficients unreduced: maps
    {(t, d): value} per side of those of power or coefficient 0; the other
    inner ones as (power, t, d, numerator, denominator); and for the other
    outer ones, the pairs of terms t0, t0 + 1, ... in consecutive powers of
    s, (lowest power or 0, t0, (t, d, numerator, denominator) not 1)."""
    constants, rows = ({}, {}), ([], [])
    for t, (a, p, b, q) in enumerate(terms):
        for side, d, power, c, e in (
                (0, 0, p, a.numerator, a.denominator),
                (0, 1, p - 1, p * a.numerator, a.denominator),
                (1, 0, q, b.numerator, b.denominator),
                (1, 1, q + 1, -q * b.numerator, b.denominator)):
            if power and c:
                rows[side].append((power, t, d, float(c), float(e)))
            else:
                constants[side][t, d] = c / e
    inner, outer = rows
    lo, first = outer[0][:2] if outer else (0, 0)
    if any(row[:3] != (lo + j, first + j // 2, j % 2) for j, row in enumerate(outer)):
        raise ValueError("the outer rows are not consecutive powers of s")
    return constants, inner, (lo, first, [row[1:] for row in outer if row[3:] != (1, 1)])


def _fraction(numerator, denominator):
    # imported here, not at the top: importing fractions takes a few ms
    from fractions import Fraction
    return Fraction(numerator, denominator)


def _power_origin(terms):
    """(kappa, q_power, S) of the power terms (a, p, b, q), in fractions.

    G = sum_t df_t(0) g_t is the one term with p = 1, c s^-m: Q = 1/G =
    kappa r^q_power, kappa = 1/c, q_power = m, and S = [d_r delta(r,r) G -
    delta(r,r) G'] / G^2 = sum_t a_t b_t (p_t + m) / c r^(p_t - q_t + m - 1).
    """
    [(m, c)] = [(q, a * b) for a, p, b, q in terms if p == 1]
    if any(p - q + m != 1 for _, p, _, q in terms):
        raise ValueError("the power of r in S does not cancel")
    # exact for Fraction and integer coefficients (int / int rounds once)
    return float(1 / c), m, float(sum(a * b * (p + m) for a, p, b, _ in terms) / c)


def _outer_laurent(rows):
    """The outer factors as one contraction in u = 1/s, exactly.

    ``rows[t][d]`` gives factor d (g_t, dg_t) of term t as the entries
    (p, w, c) of sum c s^w beta_hat_p(s) e^-s, with integer c.  beta_hat_p
    is a polynomial in s for odd p and A_p(s) beta_hat_0 + B_p(s)
    beta_hat_2 with polynomials A_p, B_p for even p
    (``bessel._beta_coefficients``).  So each factor is

        e^-s sum_{i, k} C[i, k, t, d] u^k R_i(s),

    with R = (1) for odd orders and (beta_hat_0, beta_hat_2) for even ones.
    Each coefficient is summed in fractions and rounded once (``_rounded``,
    which raises on a positive power of s).  Raises unless the coefficients
    of each factor have one sign, so that its sum adds terms of one sign.
    Returns C as an (R K, T, 2) array.
    """
    orders = {p for term in rows for factor in term for p, _, _ in factor}
    # beta_hat_p as {(i, power of s): coefficient} over the start values R_i
    beta = bessel._beta_coefficients(max(orders))
    sums = Counter()
    for t, term in enumerate(rows):
        for d, factor in enumerate(term):
            for p, w, c in factor:
                for (i, v), b in beta[p].items():
                    sums[i, -(w + v), t, d] += c * b
    table = _rounded(sums, "an outer factor has a positive power of s")
    table = table.reshape((-1, len(rows), 2))
    if ((table > 0).any(axis=0) & (table < 0).any(axis=0)).any():
        raise ValueError("the coefficients of an outer factor mix signs")
    return table


@lru_cache(maxsize=None)
def _inner_hankel(rows):
    """The inner factors at and past bessel.SERIES_RADIUS as one contraction
    in u = 1/r, exactly.  For the rows (p, shift, divisor) of
    ``bessel._inner_series``, f_t = r^(2 shift + 1) alpha_p / divisor and
    df_t = ((2 shift + 1) r^(2 shift) alpha_p + r^(2 shift + 2) alpha_{p+2}
    / (p + 2)) / divisor, and with alpha_hat_p = e^-r alpha_p = R(u) sum c
    u^j (``bessel._alpha_coefficients``; R = u^(1/2) for even orders and 1
    for odd ones),

        e^-r f_t = R(u) sum_j C[j, t, 0] u^j,  e^-r df_t = R(u) sum_j C[j, t, 1] u^j,

    each coefficient summed in fractions and rounded once (``_rounded``).
    Returns C as a (J, T, 2) array.  Built once per rows, on the first
    radius that needs it.
    """
    sums = Counter()
    for t, (p, shift, divisor) in enumerate(rows):
        # (d, order, power of r, numerator, denominator) of each part
        for d, q, w, numerator, denominator in (
                (0, p, 2 * shift + 1, 1, 1), (1, p, 2 * shift, 2 * shift + 1, 1),
                (1, p + 2, 2 * shift + 2, 1, p + 2)):
            for j, c in bessel._alpha_coefficients(q).items():
                sums[j - w, t, d] += c * numerator / (denominator * divisor)
    return _rounded(sums, "an inner factor has a positive power of r")


def _rounded(sums, rising):
    """{(..., power, t, d): c} as a float table, each Fraction c rounded once;
    raises ValueError(rising) if a power is negative (the factor grows)."""
    coefficients = {key: c for key, c in sums.items() if c}
    if min(key[-3] for key in coefficients) < 0:
        raise ValueError(rising)
    table = np.zeros([1 + max(index) for index in zip(*coefficients)])
    for key, c in coefficients.items():
        table[key] = float(c)  # correctly rounded
    return table


class KernelCase:
    """Every formula of one spec's kernel; one subclass per case (sigma, k).

    ``inner(r)`` and ``outer(s)`` give the separable factors delta(r, s) =
    sum_t f_t(r) g_t(s) of the ``_terms`` terms at once, as fresh pairs
    (f_t, df_t) or (g_t, dg_t).  A ``kernel_sums`` plan has the case write
    them into the plan's rows through ``_inner(r, out)`` and
    ``_outer(s, out)``.

    A sigma = 0 case (``_Homogeneous``) is its table ``_power_rows(n)`` of
    exact power terms (a, p, b, q), f_t = a r^p and g_t = b s^-q, and its
    rows of power or coefficient 0 (H1dot's df = 1/n) are ``constant_rows``,
    which ``inner`` and ``outer`` fill on every call and a plan once.

    A sigma = 1 case with Bessel orders gives each term's inner factor as a
    row (p, shift, divisor) of ``_series_rows``, f_t = r^(2 shift + 1)
    alpha_p(r) / divisor (orders ``alpha_orders``), radius by radius from
    the rows' power series below ``bessel.SERIES_RADIUS`` and their Hankel
    table past it, and its outer factors as Laurent polynomials in 1/s
    (``_outer_rows``, orders ``beta_orders``), as ``inner`` and ``outer`` say.

    ``scaled_factors(r, s)`` gives the solver's inner(r) times e^{-sigma r},
    finite for r <= 709, and outer(s) e^{sigma s}, finite where it underflows.
    A case is ``separable`` (ln phi is a function of r plus one of s) when
    it has one term.  phi = delta / (r s) is formed from those rows for
    every case: ``phi_rows`` gives a_t(r) = f_hat_t(r) / r and b_t(s) =
    g_hat_t(s) / s per radius, and ``phi_from_sum`` turns sum_t a_t b_t at
    each point into phi, so that a caller with many points on few radii
    (``certify``) evaluates the rows once per distinct radius.  G(s) =
    sum_t df_t(0) g_t(s) = s phi(0, s) needs the outer rows alone
    (``origin_factor``), Q = 1/G and the tail weight s^(n-1) G come from one
    evaluation of it (``weights``), and ``s_diagonal(r)`` is the diagonal
    criterion S for r > 0 from the rows at (r, r).

    ``g`` and ``dg`` may be singular at s = 0 for n >= 2, where
    ``kernel_sums`` does not evaluate them; ``df_origin`` holds df_t(0), the
    only factor the solver needs at the origin node.  kappa, q_power and
    ``s_origin`` serve r = 0, where G is singular for most cases: Q ~ kappa
    r^q_power and S -> ``s_origin`` (``_power_origin``), from the power
    rows of the sigma = 0 class of its k (``_CASES``) at its n, which a
    sigma = 1 case reads without building that case.
    """

    _series_rows = _outer_rows = _power_rows = None
    _terms = 1
    constant_rows = ({}, {})

    def __init__(self, spec):
        n = self.n = spec.n
        self.spec = spec
        self.alpha_orders = self.beta_orders = ()
        if self._series_rows:
            rows = self._series_rows(n)
            self.alpha_orders = tuple(sorted({q for p, _, _ in rows for q in (p, p + 2)}))
            self._series, self._reach = bessel._inner_series(rows)
        if self._outer_rows:
            rows = self._outer_rows(n)
            self.beta_orders = tuple(sorted(
                {p for term in rows for factor in term for p, _, _ in factor}))
            self._laurent = _outer_laurent(rows)
        if self._power_rows:
            terms = self._power_rows(n)
            self._terms = len(terms)
            self.constant_rows, self._inner_powers, self._outer_powers = (
                _power_factors(terms))
        # (sigma - Delta)^k and (-Delta)^k agree at leading order at r = 0
        self.kappa, self.q_power, self.s_origin = _power_origin(
            _CASES[0, spec.k]._power_rows(n))
        self.separable = self._terms == 1
        self.df_origin = tuple(float(df[0]) for _, df in self.inner(np.zeros(1)))

    def inner(self, r):
        """(f_t(r), df_t(r)) for each term t, r >= 0, fresh, of shape
        (terms, 2) + r.shape.

        A case with Bessel orders sums the factors at the radii below
        ``bessel.SERIES_RADIUS`` from the power series of its rows: the
        powers r^(2j) the largest of them needs, one product per doubling of
        their count (``bessel._power_table``, in a table made for the call
        or kept by a ``kernel_sums`` plan), one contraction with the
        coefficients and one product of the value rows with r.  A factor is
        summed over j in order for its radius on its own, and terms past
        those it needs leave it unchanged.  The other radii, split off by a
        mask, take the rows' Hankel table (``_inner_hankel``) the same way,
        in powers of u = 1/r, then times u^(1/2) for even n and e^r, in
        float64 and cast as ``outer`` does.  So every factor depends only
        on its radius, not on the other radii of the call.
        """
        return _fresh_factors(self._inner, self._terms, r, self.constant_rows[0])

    def outer(self, s):
        """(g_t(s), dg_t(s)) for each term t, s > 0, fresh, of shape
        (terms, 2) + s.shape.

        A case with Bessel orders sums every factor from its Laurent
        polynomial (``_outer_laurent``): the powers of u = 1/s (one product
        per doubling of their count), for even n one product with the start
        values beta_hat_0 and beta_hat_2, one contraction and one product
        with e^-s.  It works in float64 whatever the dtype of s, as the
        Bessel values always did, and casts the result.  Each factor is
        summed over the same terms for each radius on its own, so it depends
        only on its radius.  The tables it sums from (``_outer_buffers``)
        are made for the call, or kept by a ``kernel_sums`` plan.
        """
        return _fresh_factors(self._outer, self._terms, s, self.constant_rows[1])

    def _inner(self, r, out, powers=None):
        # the rows of a case with Bessel orders on 1-D radii; powers is a table
        # from bessel._power_buffer of len(self._series) rows on len(r) radii
        hi = float(np.maximum.reduce(r, initial=0.0))
        if hi < bessel.SERIES_RADIUS:
            terms = bisect.bisect_left(self._reach, hi * hi) + 1
            table = bessel._power_table(
                np.multiply, (r, r), terms,
                powers or bessel._power_buffer(terms, len(r), out.dtype))
            np.einsum("jm,jtd->tdm", table, self._series[:terms], out=out)
            out[:, 0] *= r
            return
        near = r < bessel.SERIES_RADIUS  # NaN takes the Hankel table
        out[..., ~near] = self._hankel_factors(r[~near])
        if near.any():
            out[..., near] = self.inner(r[near])

    def _hankel_factors(self, r):
        # fresh float64 factors of the series rows from their Hankel table,
        # on 1-D radii at and past SERIES_RADIUS
        r, hankel = np.asarray(r, dtype=float), _inner_hankel(self._series_rows(self.n))
        table = bessel._power_table(np.divide, (1.0, r), len(hankel),
                                    bessel._power_buffer(len(hankel), r.size, float))
        # hankel is never contiguous along j, so einsum sums each value over
        # j in order on its own, whatever the number of radii
        factors = np.einsum("jm,jtd->tdm", table, hankel)
        if self.n % 2 == 0:
            factors *= np.sqrt(table[1])
        factors *= np.exp(r)
        return factors

    def _outer_buffers(self, width, dtype):
        """The tables ``_outer`` sums with on ``width`` radii into an out
        of ``dtype``: the powers of 1/s, for even n the start values (2, 1,
        width) and their products with the powers (2, K, width; and flat),
        e^-s, and float64 factors unless dtype is float64."""
        rows = len(self._laurent) // (2 - self.n % 2)
        starts = products = flat = None
        if self.n % 2 == 0:
            starts = np.empty((2, 1, width))
            products = np.empty((2, rows, width))
            flat = products.reshape(2 * rows, width)
        factors = None if dtype == float else np.empty((self._terms, 2, width))
        return (bessel._power_buffer(rows, width, float), starts, products, flat,
                np.empty(width), factors)

    def _outer(self, s, out, buffers=None):
        # the Laurent polynomials of a case with Bessel orders, times e^-s
        s = np.asarray(s, dtype=float)
        buffers = buffers or self._outer_buffers(len(s), out.dtype)
        factors, e = self._laurent_sums(s, out, buffers), buffers[4]
        np.negative(s, out=e)
        np.exp(e, out=e)
        factors *= e
        if factors is not out:
            out[...] = factors

    def _laurent_sums(self, s, out, buffers=None):
        # e^s g_t and e^s dg_t on float64 s, into out or the buffers' float64
        # factors when they have them; returns what it wrote
        powers, starts, products, flat, _, factors = (
            buffers or self._outer_buffers(len(s), out.dtype))
        table = bessel._power_table(np.divide, (1.0, s), len(powers[0]), powers)
        if starts is not None:
            bessel.beta_hat_start(starts, s)
            np.multiply(starts, table, out=products)
            table = flat
        if factors is None:
            factors = out
        np.einsum("jm,jtd->tdm", table, self._laurent, out=factors)
        return factors

    def scaled_factors(self, r, s):
        """inner(r) e^{-sigma r}, the solver's factors rescaled, finite for r
        <= 709 and so up to ``KernelSpec.r_max_limit``, and
        ``scaled_outer(s)``, fresh."""
        return self.rescaled(self.inner(r), -np.asarray(r)), self.scaled_outer(s)

    def scaled_outer(self, s):
        """outer(s) e^{sigma s}, fresh, as in ``scaled_factors``."""
        if self.beta_orders:
            return _fresh_factors(self._laurent_sums, self._terms,
                                  np.asarray(s, dtype=float), {})
        return self.rescaled(self.outer(s), np.asarray(s))

    def rescaled(self, value, x):
        """value e^{sigma x}, in place, returned."""
        if self.spec.sigma:
            value *= np.exp(x)
        return value

    def _at_origin(self, g):
        # sum_t df_t(0) g_t over each row of g, the terms in order; only the
        # terms with df_t(0) != 0 (one in every case)
        return reduce(np.add, [c * x for c, x in zip(self.df_origin, g) if c])

    def origin_factor(self, s):
        """G_hat(s) = e^{sigma s} G(s), s > 0, fresh, with G(s) = sum_t
        df_t(0) g_t(s) = d_r delta(0, s) = s phi(0, s); from the scaled outer
        rows alone."""
        return self._at_origin(self.scaled_outer(s)[:, 0])

    def weights(self, r):
        """(Q(r), r^(n-1) / Q(r)) at r >= 0, fresh, from one ``origin_factor``
        evaluation: Q = 1 / G = e^{sigma r} / G_hat and r^(n-1) G = r^(n-1)
        e^{-sigma r} G_hat for r > 0, and at r = 0 their limits kappa
        0^q_power and 0^(n-1-q_power) / kappa.  Raises unless r >= 0."""
        r = np.asarray(r, dtype=float)
        if not np.all(r >= 0):  # NaN too
            raise ValueError("the weights require r >= 0")
        positive = r > 0.0
        x = r[positive]
        big_g = self.origin_factor(x)
        q = np.full(r.shape, self.kappa * 0.0**self.q_power)
        w = np.full(r.shape, 0.0 ** (self.n - 1 - self.q_power) / self.kappa)
        q[positive] = self.rescaled(1.0 / big_g, x)
        w[positive] = x ** (self.n - 1) * self.rescaled(big_g, -x)
        return q, w

    def s_diagonal(self, r):
        """S(r) at r > 0 from the rows at (r, r).  With G = s phi(0, s) as in
        ``origin_factor``, the paper's S is exactly

            S = [d_r delta(r, r) G(r) - delta(r, r) G'(r)] / G(r)^2
              = e^{sigma r} [sum_t df_hat_t g_hat_t G_hat
                             - sum_t f_hat_t g_hat_t dG_hat] / G_hat^2,

        every factor scaled as in ``scaled_factors`` and dG_hat = sum_t
        df_t(0) dg_hat_t."""
        f, g = self.scaled_factors(r, r)
        big_g, big_dg = self._at_origin(g)
        d, d_r = reduce(np.add, f * g[:, :1])  # delta_hat and d_r delta_hat
        return self.rescaled((d_r * big_g - d * big_dg) / (big_g * big_g), r)

    def phi_rows(self, r, s, factors=None):
        """(a, b), the rows of phi(r, s) = e^{sigma (r - s)} sum_t a_t(r)
        b_t(s) (see ``phi_from_sum``): a_t = f_hat_t(r) / r, with its limit
        df_t(0) at r = 0, and b_t = g_hat_t(s) / s, s > 0, fresh and of
        shapes (T,) + r.shape and (T,) + s.shape.  From
        ``scaled_factors(r, s)``, or the caller's ``factors`` of them.
        """
        r, s = np.asarray(r, dtype=float), np.asarray(s, dtype=float)
        f, g = factors or self.scaled_factors(r, s)
        origin = np.reshape(self.df_origin, (-1,) + (1,) * r.ndim)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(r == 0.0, origin, f[:, 0] / r), g[:, 0] / s

    def phi_from_sum(self, phi_hat, r, s):
        """phi at the points (r, s) from phi_hat = sum_t a_t(r) b_t(s) of the
        ``phi_rows`` there, the terms added in order: times e^{sigma (r -
        s)}, which is at most 1 on D."""
        return phi_hat * np.exp(r - s) if self.spec.sigma else phi_hat


class _Homogeneous(KernelCase):
    """A sigma = 0 case.  Each power row is r^p (r itself for p = 1, np.square
    for p = 2) or s^-q by products of 1/s, times numerator, over denominator:
    the ufuncs of its closed form, equal to it bit for bit, no temporaries."""

    def _inner(self, r, out):
        for p, t, d, numerator, denominator in self._inner_powers:
            row = out[t][d]
            x = (r if p == 1 else np.square(r, out=row) if p == 2
                 else np.power(r, p, out=row))
            _scale(x, numerator, denominator, row)

    def _outer(self, s, out):
        # the pairs (g_t, dg_t) from t0 on: s^-lo, s^-(lo + 1), ... by products
        # (a power costs several), with 1/s in the last row until it is written
        lo, first, coefficients = self._outer_powers
        if lo:
            pairs = out[first:]
            inv = np.divide(1.0, s, out=pairs[-1][1])
            below = None if lo == 1 else inv
            for _ in range(lo - 2):
                below = np.multiply(below, inv, out=pairs[0][0])
            for g, dg in pairs:
                if below is None:
                    np.copyto(g, inv)
                else:
                    np.multiply(below, inv, out=g)
                below = np.multiply(g, inv, out=dg)
            for t, d, numerator, denominator in coefficients:
                _scale(out[t][d], numerator, denominator, out[t][d])


class _H1dot(_Homogeneous):
    """sigma = 0, k = 1: delta = (r/n) s^{1-n}."""

    _power_rows = staticmethod(lambda n: ((_fraction(1, n), 1, 1, n - 1),))


class _H2dot(_Homogeneous):
    """sigma = 0, k = 2 (n >= 3): delta = r s^{3-n}/c1 - r^3 s^{1-n}/c2."""

    _power_rows = staticmethod(lambda n: (
        (_fraction(1, 2 * n * (n - 2)), 1, 1, n - 3),
        (_fraction(-1, 2 * n * (n + 2)), 3, 1, n - 1)))


def _h1_outer_rows(n):
    # g = s beta_n(s) = s^(1-n) beta_hat_n e^-s and, from beta_p' =
    # -(p + 2) s beta_{p+2}, dg = s^-n (beta_hat_n - (n + 2) beta_hat_{n+2}) e^-s
    return ((n, 1 - n, 1),), ((n, -n, 1), (n + 2, -n, -(n + 2)))


class _H1(KernelCase):
    """sigma = 1, k = 1: delta = [r alpha_n(r)] [s beta_n(s)]."""

    # f = r alpha_n(r)
    _series_rows = staticmethod(lambda n: ((n, 0, 1),))
    _outer_rows = staticmethod(lambda n: (_h1_outer_rows(n),))


class _CamassaHolm(KernelCase):
    """sigma = 1, k = 1, n = 1: the kernel e^{-s} sinh r, from its own
    factors: the rows of ``_H1`` give the same kernel, but a certificate took
    about 1.5x as long from them, and a run about 1.45x."""

    def _inner(self, r, out):
        (f, df), = out
        np.sinh(r, out=f)
        np.cosh(r, out=df)

    def _outer(self, s, out):
        (g, dg), = out
        np.negative(s, out=g)
        np.exp(g, out=g)
        np.negative(g, out=dg)


class _H2(KernelCase):
    """sigma = 1, k = 2 (n >= 3).  Using j(r) = n^2 (alpha_{n-2} - alpha_n)
    = n r^2 alpha_{n+2}(r)/(n+2) (exact, cancellation-free):

        delta = -[r j(r)/(2n)] [s beta_n(s)] + [r alpha_n(r)/(2n)] [s beta_{n-2}(s)]
    """

    _terms = 2
    # f1 = -r^3 alpha_{n+2}(r) / (2(n + 2)) and f2 = r alpha_n(r) / (2n)
    _series_rows = staticmethod(
        lambda n: ((n + 2, 1, -2 * (n + 2)), (n, 0, 2 * n)))
    # g1 and dg1 as for H1, g2 = s beta_{n-2}(s) = s^(3-n) beta_hat_{n-2} e^-s
    # and dg2 = s^(2-n) (beta_hat_{n-2} - n beta_hat_n) e^-s
    _outer_rows = staticmethod(lambda n: (
        _h1_outer_rows(n),
        (((n - 2, 3 - n, 1),), ((n - 2, 2 - n, 1), (n, 2 - n, -n)))))


_CASES = {(0, 1): _H1dot, (0, 2): _H2dot, (1, 1): _H1, (1, 2): _H2}


@lru_cache(maxsize=None)
def kernel_case(spec):
    """The spec's KernelCase, built once."""
    if (spec.sigma, spec.k, spec.n) == (1, 1, 1):
        return _CamassaHolm(spec)
    return _CASES[spec.sigma, spec.k](spec)


def _check_domain(r, s):
    r = np.asarray(r, dtype=float)
    s = np.asarray(s, dtype=float)
    if np.any(r < 0) or np.any(s < r):
        raise ValueError("kernel points must satisfy s >= r >= 0")
    if np.any((r == 0) & (s == 0)):
        raise ValueError("kernel undefined at (0, 0)")
    return r, s


def phi(spec, r, s):
    """phi(r, s) on D = {s >= r >= 0} minus the origin; strictly positive.

    Formed from the scaled factors: e^{sigma (r - s)} (at most 1 on D) sum_t
    [f_hat_t(r) / r] [g_hat_t(s) / s] (``KernelCase.phi_rows``), so nothing
    overflows for radii up to 600, and at r = 0 it is the limit e^{-sigma s}
    sum_t df_t(0) g_hat_t(s) / s.
    """
    r, s = np.broadcast_arrays(*_check_domain(r, s))
    case = kernel_case(spec)
    a, b = case.phi_rows(r, s)
    return case.phi_from_sum(reduce(np.add, a * b), r, s)


def delta(spec, r, s):
    """delta(r, s) = r s phi(r, s), the kernel of the operator inverse."""
    r, s = _check_domain(r, s)
    case = kernel_case(spec)
    return sum(f * g for (f, _), (g, _) in zip(case.inner(r), case.outer(s)))


def d1_delta(spec, r, s):
    """d delta / dr; at the diagonal this is the one-sided limit s -> r."""
    r, s = _check_domain(r, s)
    case = kernel_case(spec)
    return sum(df * g for (_, df), (g, _) in zip(case.inner(r), case.outer(s)))


def d2_delta(spec, r, s):
    """d delta / ds; at the diagonal this is the one-sided limit s -> r."""
    r, s = _check_domain(r, s)
    case = kernel_case(spec)
    return sum(f * dg for (f, _), (_, dg) in zip(case.inner(r), case.outer(s)))


def q_weight(spec, r):
    """Comparison weight Q(r) = 1/(r phi(0, r)), continuously extended to r=0.

    Q = e^{sigma r} / G_hat(r) from the kernel's own outer rows
    (``KernelCase.weights``), kappa 0^q_power at r = 0; ValueError unless r >= 0.
    """
    out = kernel_case(spec).weights(r)[0]
    return out if np.ndim(out) else float(out)


def phi0_weight(spec, s):
    """s^n phi(0, s) = s^{n-1}/Q(s): the integrand weight of the majorant tail.

    s^{n-1} e^{-sigma s} G_hat(s) (``KernelCase.weights``), finite at s = 0
    for every case, unlike 1/Q itself; ValueError unless s >= 0.
    """
    out = kernel_case(spec).weights(s)[1]
    return out if np.ndim(out) else float(out)


def s_criterion(spec, r):
    """Diagonal criterion S(r) from the kernel's factor rows; ValueError
    unless r >= 0.  The exact constant ``KernelCase.s_origin`` for sigma = 0.
    For sigma = 1 e^r times a ratio of the scaled rows at (r, r)
    (``KernelCase.s_diagonal``), in which the e^{+-r} of the Bessel pair
    cancel, and the limit S(0) below r = 1e-3."""
    r = np.asarray(r, dtype=float)
    if not np.all(r >= 0):  # NaN too
        raise ValueError("s_criterion requires r >= 0")
    case = kernel_case(spec)
    out = np.full(r.shape, case.s_origin)
    if spec.sigma:
        m = r >= 1e-3
        if np.any(m):
            out[m] = case.s_diagonal(r[m])
    return out if r.ndim else float(out)


class _SumPlan:
    """Everything a ``kernel_sums`` call over one window needs besides the
    values of x and the weight, set up once.

    For a case with T terms, samples on the nodes start to stop - 1 of an
    N-node grid and (i0, i1) the reach of their window, the plan holds

    - the ``quadrature.SumWindow`` of the 2T integrands and a buffer for
      their running sums;
    - one factor buffer of shape (2, T, 2, N), indexed (inner or outer,
      term, value or derivative, node): f_t and df_t on the nodes 0 to
      max(i1, stop) - 1, where node 0 holds f_t(0) = 0 and df_t(0), which
      the formulas never write, and g_t and dg_t on the nodes i0 + 1 to
      N - 1, its constant rows (``KernelCase.constant_rows``) filled in
      here once, with the views the case writes into: stacked (T, 2, nodes)
      views for the factors a case with Bessel orders sums from its tables
      of powers, and else one row view per term and row;
    - for a case with Bessel orders, the tables its ``_inner`` and
      ``_outer`` sum from: a table of powers of r^2 on the inner nodes with
      a row for every series term, one of powers of 1/s on the outer nodes,
      and for the outer side the buffers of e^-s and, for even n, of the
      start values and their products with the powers.  Each table keeps
      the views of each doubling once per row count, set up the first time
      that count is needed, so a stage makes only its ufunc calls;
    - the integrand source (f_t and g_t on the nodes lo = max(start, 1) to
      stop - 1) and the window's samples viewed as (2, T, L), so that the
      2T integrands are one multiply;
    - a buffer for the tail sums inside the window;
    - a (T, 2, N) buffer of the products of each term and row, and for each
      row count the factor and sum views of its three regions (nodes 0 to
      i0, i0 + 1 to i1 - 1 and i1 to N - 1), so that each region product
      is one ufunc over all terms and rows;
    - how a result array is made: ``np.empty``, or ``np.zeros`` for
      longdouble, whose padding bytes no sum writes.
    """

    def __init__(self, case, quadrature, num, start, stop, x_dtype, w_dtype):
        terms = case._terms
        fdtype = np.result_type(x_dtype, float)
        dtype = np.result_type(w_dtype, fdtype)
        self.window = quadrature.window(start, stop, (2 * terms,), dtype)
        i0, i1 = self.window.reach
        m, width = max(i1, stop), i1 - i0 - 1
        factors = np.empty((2, terms, 2, num), fdtype)
        inner, outer = factors
        inner[:, 0, 0] = 0.0
        inner[:, 1, 0] = case.df_origin
        self.nodes = slice(1, m), slice(i0 + 1, None)
        for side, nodes, constants in zip(factors, self.nodes, case.constant_rows):
            _fill_rows(side[..., nodes], constants)
        # what the case's _inner and _outer take after the radii: a case
        # with Bessel orders sums its factors straight into the stacked rows,
        # from tables it keeps here; the others take their rows split once
        # here: unpacking the stacked view on every call made a sigma = 0
        # rhs about 6 % slower
        self.inner = (
            (inner[..., 1:m], bessel._power_buffer(len(case._series), m - 1, fdtype))
            if case.alpha_orders
            else (tuple((f[1:m], df[1:m]) for f, df in inner),))
        self.outer = (
            (outer[..., i0 + 1 :], case._outer_buffers(num - i0 - 1, fdtype))
            if case.beta_orders
            else (tuple((g[i0 + 1 :], dg[i0 + 1 :]) for g, dg in outer),))
        lo = max(start, 1)
        self.weight = slice(lo - start, None)
        samples = self.window.samples
        self.integrands = (factors[:, :, 0, lo:stop],
                           samples.reshape((2, terms, -1))[..., lo - start :])
        self.origin = samples[:, 0] if start == 0 else None
        # the running sums: pre_t on the nodes i0 + 1 to i1 - 1 in row t
        # (its total last), those of g_t in row T + t
        run = self.run = np.empty((2 * terms, i1 - i0), dtype)
        self.suf = np.empty((terms, width), dtype)
        self.suf_parts = run[terms:, -1:], run[terms:, :width]
        # each sum as a (T, 1, nodes) view, to broadcast over the rows
        suf_total, pre, suf, pre_total = (
            run[terms:, None, -1:], run[:terms, None, :width], self.suf[:, None],
            run[:terms, None, -1:])
        products = np.empty((terms, 2, num), dtype)
        self.blank = np.zeros if dtype == np.longdouble else np.empty
        f_suf = np.empty((terms, 2, width), dtype)
        self.regions = {}
        for rows in (1, 2):
            f, g, p = inner[:, :rows], outer[:, :rows], products[:, :rows]
            self.regions[rows] = (
                f[..., : i0 + 1], suf_total, p[..., : i0 + 1],
                g[..., i0 + 1 : i1], pre, p[..., i0 + 1 : i1],
                f[..., i0 + 1 : i1], suf, f_suf[:, :rows],
                g[..., i1:], pre_total, p[..., i1:],
                tuple(p),
            )

    def sums(self, case, x, weight, rows):
        """The kernel sums of ``kernel_sums``, into a fresh (rows, N) array."""
        case._inner(x[self.nodes[0]], *self.inner)
        case._outer(x[self.nodes[1]], *self.outer)
        source, samples = self.integrands
        np.multiply(source, weight[self.weight], out=samples)
        if self.origin is not None:
            # n = 1 data with z_0(0) != 0 puts weight on the origin node,
            # where only f and g are needed (dg may be singular there, and
            # g too for n >= 2, where z_0(0) = 0)
            self.origin[:] = 0.0
            if weight[0] != 0.0:
                with np.errstate(divide="ignore", invalid="ignore"):
                    at_origin = case.inner(x[:1]), case.outer(x[:1])
                self.origin[:] = [
                    f[0] * weight[0] for factors in at_origin for f, _ in factors]
        self.window.sums(out=self.run)
        # nodes i0 + 1 to i1 - 1 see both sums: pre on them, and suf = total - pre
        np.subtract(*self.suf_parts, out=self.suf)
        # row 0 pairs f with g, row 1 df with dg; node 0 takes f_t(0)
        # suf_t(0) = 0 and df_t(0) suf_t(0)
        (f_below, suf_total, below, g_both, pre, both, f_both, suf, f_suf,
         g_above, pre_total, above, terms) = self.regions[rows]
        np.multiply(f_below, suf_total, out=below)
        np.multiply(g_both, pre, out=both)
        both += np.multiply(f_both, suf, out=f_suf)
        np.multiply(g_above, pre_total, out=above)
        # 0 + the first term, then each later term added in order: bit for
        # bit the terms added in order into zeros (-0 turns into +0), and a
        # longdouble result keeps the zero padding bytes of its np.zeros
        first = terms[0]
        out = np.add(first, 0.0, out=self.blank(first.shape, first.dtype))
        for term in terms[1:]:
            out += term
        return out


# The plan of the latest kernel_sums call and its key: a solver run sums
# over one window with one key on every stage.  A call takes the plan out
# of the slot while it writes into its buffers, so two threads never share
# them, and puts it back (replacing any other) when done: at most one plan
# is kept.
_spare_window = []


def kernel_sums(case, quadrature, x, weight, start=0, derivatives=False):
    """The split kernel integrals at every node image x (x_0 = 0), in one pass.

    ``weight`` holds the samples on the nodes start to start + L - 1 and is
    zero on every other node.  Row 0 of the output gives, at node i,
    sum_t g_t(x_i) pre_t(i) + f_t(x_i) suf_t(i), where pre_t(i) integrates
    f_t(x) weight up to node i and suf_t(i) integrates g_t(x) weight from
    node i on; with ``derivatives`` a row 1 gives the same with dg_t and
    df_t.  Only the window does work.  With (i0, i1) the quadrature's reach
    of the samples, pre_t is 0 up to node i0 and suf_t is 0 from node i1
    on, so f and df are evaluated on nodes 1 to i1 - 1 (and on the
    samples), g and dg on nodes i0 + 1 to N - 1, and the 2T integrands are
    summed over intervals i0 to i1 - 1 only, in one pass of a
    ``quadrature.SumWindow``.  Node i0 and below take the tail term alone,
    node i1 and above the prefix term alone.  At node 0, where every f_t
    vanishes, row 0 is 0 and row 1 is sum_t df_t(0) suf_t(0).  The sums
    keep the dtype of the integrands (longdouble weights give longdouble
    sums).

    Everything but the values (the window, the factor buffers, the sample
    slots, the output regions and every slice between them) depends only
    on the case, the quadrature, the node range and the dtypes of x and
    weight, and the output regions on the row count too.  It is set up as
    one plan on the first call for them and kept until a call with another
    key, so the stages of a solver run set it up once and a call is its
    ufuncs alone: the case's factor formulas write into the plan's buffers
    (a sigma = 1 case from the plan's tables of powers), one multiply
    writes the 2T integrands into the window, then come the window's sums,
    one subtraction for the tail sums, one product per region over every
    term and row, and the terms added in order into a fresh array.
    """
    num = len(x)
    stop = start + len(weight)
    rows = 2 if derivatives else 1
    if stop == start:
        return np.zeros((rows, num), dtype=np.result_type(x, weight))
    key = (case, quadrature, start, stop, x.dtype, weight.dtype)
    try:
        spare_key, plan = _spare_window.pop()
    except IndexError:  # none kept yet, or another thread holds it
        spare_key = None
    if spare_key != key:
        plan = _SumPlan(case, quadrature, num, start, stop, x.dtype, weight.dtype)
    out = plan.sums(case, x, weight, rows)
    _spare_window[:] = [(key, plan)]
    return out


def invert_operator(spec, grid, omega):
    """u = A^{-1} omega on the grid via the split kernel quadrature.

    u(r_i) = int_0^{r_i} delta(s, r_i) s^{n-1} omega ds
           + int_{r_i}^{R_max} delta(r_i, s) s^{n-1} omega ds,
    evaluated with corrected cumulative trapezoid sums on the separable
    factors (the split lands exactly on the node r_i).
    """
    omega = np.asarray(omega, dtype=float)
    # The radii, the weighted momentum, the kernel factors built from them
    # (the Bessel values inside are float64), the window's running sums and
    # the final products g pre + f suf are longdouble: the separable split
    # can produce intermediate products much larger than u itself
    # (opposite-sign terms cancel), and downstream finite differences
    # amplify any rounding noise left in u.
    r = grid.r.astype(np.longdouble)
    # r^(n-1) by products: a general longdouble power is a powl per point
    power = np.ones_like(r)
    for _ in range(spec.n - 1):
        power = power * r
    z = power * omega
    _warn_if_underresolved(grid, omega)
    support = np.flatnonzero(z)
    a, b = (int(support[0]), int(support[-1]) + 1) if len(support) else (0, 0)
    u = kernel_sums(kernel_case(spec), grid.quadrature, r, z[a:b], start=a)[0]
    # node 0: f(0) = 0 for every case, so u(0) = 0 exactly
    return u.astype(float)


def _warn_if_underresolved(grid, omega):
    sgn = np.sign(omega)
    changes = np.nonzero(np.diff(sgn))[0]
    if len(changes) > 1 and np.min(np.diff(changes)) < 8:
        warnings.warn(
            "omega features narrower than 8 grid cells; quadrature may be "
            "under-resolved",
            stacklevel=3,
        )


def apply_operator(spec, grid, u):
    """omega = (sigma - Delta)^k u by 4th-order finite differences.

    Requires a uniform grid (the centered stencils assume constant spacing).
    Written in terms of the even profile v = u/r, for which the vector
    Laplacian collapses to

        Delta u = r v'' + (n + 1) v',

    with no division by r anywhere: the 1/r and 1/r^2 terms of the raw
    formula cancel exactly against the expansion of u = r v.  This keeps
    full 4th-order accuracy down to the origin even when the operator is
    applied twice (k = 2).  v(0) = u'(0) is filled in by an O(h^8)
    odd-symmetric one-sided formula: each Laplacian amplifies an origin
    error by 1/h^2, so the composed k = 2 operator needs the origin value
    well beyond the interior stencil order to stay 4th order there.
    """
    u = np.asarray(u, dtype=float)
    if grid.num < 6:
        raise ValueError("apply_operator requires at least 6 nodes")
    h = float(grid.r[1] - grid.r[0])
    if not np.allclose(np.diff(grid.r), h):
        raise ValueError("apply_operator requires a uniform grid")
    n = spec.n
    # Extended-precision intermediates: the composed k = 2 stencil amplifies
    # rounding noise by ~1/h^4, which would swamp the 4th-order truncation
    # error on fine grids if the differences were taken in float64.
    r = grid.r.astype(np.longdouble)
    w = u.astype(np.longdouble)
    for _ in range(spec.k):
        v = np.empty_like(w)
        v[1:] = w[1:] / r[1:]
        v[0] = (
            8.0 / 5.0 * w[1]
            - 2.0 / 5.0 * w[2]
            + 8.0 / 105.0 * w[3]
            - w[4] / 140.0
        ) / h
        d1 = deriv1_uniform(v, h, parity=+1)
        d2 = deriv2_uniform(v, h, parity=+1)
        lap = r * d2 + (n + 1.0) * d1
        w = spec.sigma * w - lap
    return w.astype(float)
