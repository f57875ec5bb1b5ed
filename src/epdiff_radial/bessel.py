"""The Bessel tables the sigma = 1 kernel factors are built from.

The Green kernels of the nonhomogeneous inertia operators (``kernels``,
H^1 and H^2) are built from the pair

    alpha_p(r) = c_p r^{-p/2} I_{p/2}(r),   c_p = 2^{p/2} Gamma(p/2 + 1),
    beta_p(r)  = c_p^{-1} r^{-p/2} K_{p/2}(r),

normalized so that alpha_p(0) = 1 and r^p beta_p(r) -> 1/p as r -> 0, with
integer orders p = n, n +- 2, n + 4 in dimension n.  alpha_p grows like e^r
and beta_p decays like e^{-r}; the derivatives follow from alpha_p' = r
alpha_{p+2} / (p + 2) and beta_p' = -(p + 2) r beta_{p+2}.

This module holds only what ``kernels.KernelCase`` forms its factor rows
from.  Every other Bessel value of the library, such as the certificate's
and ``certify.h2_ratio_bounds``', is read from those rows.

* ``_inner_series``: the inner factors' power series in r^2 below
  SERIES_RADIUS (DLMF 10.25.2), with coefficients of one sign.
* ``_alpha_coefficients``: alpha_hat_p(r) = e^{-r} alpha_p(r) at and past
  SERIES_RADIUS from the Hankel expansion (DLMF 10.40.1), a polynomial in
  1/r (times r^{-1/2} for even p), for p <= 21.  The kernels' inner
  factors past SERIES_RADIUS are polynomials in 1/r built from it.
* ``_beta_coefficients``: beta_hat_p(r) = e^r r^p beta_p(r) as a polynomial
  in r for odd p and A_p(r) beta_hat_0 + B_p(r) beta_hat_2 for even p, with
  positive coefficients from the recurrence DLMF 10.29.1.  The kernels'
  outer factors are Laurent polynomials built from it.
* :func:`beta_hat_start`: beta_hat_0 and beta_hat_2 from scipy's
  ``k0e``/``k1e``, the one place that imports scipy.  Only the outer
  factors of even n call it, so a sigma = 0 or odd-n run loads no scipy.
* ``_power_buffer`` and ``_power_table``: the tables of powers that each
  of these sums is contracted with.

Every coefficient is exact before it is rounded once: the correctly
rounded quotient of two integers, or for even p of the Hankel expansion
one with (2 pi)^(-1/2) to 40 digits; ``_alpha_coefficients`` and
``_beta_coefficients`` leave the rounding to the ``kernels`` tables that
combine them.  Each table is built once, on first use.
"""

import bisect
import math
from collections import Counter
from functools import lru_cache

import numpy as np

__all__ = ["beta_hat_start"]

# Below SERIES_RADIUS the inner kernel factors come from their power series
# in r^2 (_inner_series), summed until the tail is below SERIES_TAIL of the
# sum.  Their term count grows with r, so it is a hard limit: from it on,
# alpha comes from its Hankel expansion (_alpha_coefficients).
SERIES_RADIUS = 30.0
SERIES_TAIL = 2.0**-64


@lru_cache(maxsize=None)
def _inner_series(rows):
    """The power series in r^2 of r^(2 shift + 1) alpha_p(r) / divisor, for
    radii below SERIES_RADIUS.

    ``rows`` gives each term's f_t(r) = r^(2 shift + 1) alpha_p(r) / divisor
    as (p, shift, divisor), with integer divisor.  From alpha_p(r) =
    sum_j r^(2j) / prod_{i <= j} 2i (p + 2i) (DLMF 10.25.2),

        f_t(r) = r sum_j A[j, t, 0] r^(2j),  df_t(r) = sum_j A[j, t, 1] r^(2j),

    with A[j, t, 1] = (2j + 1) A[j, t, 0], each coefficient the correctly
    rounded quotient of two integers.  All the coefficients of a row have
    one sign, so every sum adds terms of one sign.  Returns (A, reach): A
    for the terms that SERIES_RADIUS needs, and reach[i], the largest r^2
    on a grid of [0, SERIES_RADIUS] at which the terms 0 to i leave a tail
    below SERIES_TAIL of every row's sum.  The relative tail grows with r,
    so i + 1 terms are enough for every r^2 <= reach[i].  Built once per
    rows.
    """
    cap = 64
    coefficients = np.zeros((cap, len(rows), 2))
    for t, (p, shift, divisor) in enumerate(rows):
        d = divisor
        for j in range(shift, cap):
            if j > shift:
                d *= 2 * (j - shift) * (p + 2 * (j - shift))
            coefficients[j, t] = 1 / d, (2 * j + 1) / d
    x = np.linspace(0.0, SERIES_RADIUS, 257)[1:] ** 2
    terms = np.abs(coefficients.reshape(cap, -1, 1)) * x ** np.arange(cap)[:, None, None]
    tails = np.cumsum(terms[::-1], axis=0)[::-1]
    enough = (tails[1:] <= SERIES_TAIL * tails[0]).all(axis=1).sum(axis=1)
    reach = [float(x[k - 1]) if k else 0.0 for k in enough]
    needed = bisect.bisect_left(reach, x[-1]) + 1
    if needed > len(reach):
        raise ValueError(f"{cap} terms do not reach r = {SERIES_RADIUS}")
    return coefficients[:needed].copy(), reach[:needed]


@lru_cache(maxsize=None)
def _alpha_coefficients(p):
    """{j: c}, alpha_hat_p(r) = e^-r alpha_p(r) = R(u) sum c u^j at r >=
    SERIES_RADIUS, u = 1/r, exactly, with R = u^(1/2) for even p and 1 for
    odd p.

    From e^-r I_nu(r) = (2 pi r)^(-1/2) sum_k (-1)^k a_k(nu) r^-k (DLMF
    10.40.1; it leaves out less than e^-2r relative), with a_k(p/2) =
    prod_{i <= k} (p^2 - (2i - 1)^2) / (k! 8^k),

        alpha_hat_p(r) = c_p (2 pi)^(-1/2) r^(-(p+1)/2) sum_k (-1)^k a_k(p/2) r^-k,

    so c at j = (p + 1) // 2 + k is c_p (2 pi)^(-1/2) (-1)^k a_k(p/2): p!! /
    2 times a ratio of integers for odd p (ending after k = (p - 1) / 2),
    and 2^(p/2) (p/2)! (2 pi)^(-1/2) times one for even p, with (2 pi)^(-1/2)
    to 40 digits.  It keeps the terms that leave a tail below SERIES_TAIL
    of the sum at r = SERIES_RADIUS, where the relative tail is largest.
    The terms alternate in sign: raises unless none at SERIES_RADIUS
    exceeds twice the first, which admits every p <= 21.  Built once per
    order.
    """
    # here, not at the top: importing fractions takes a few ms, which only
    # the callers that build these tables should pay
    from fractions import Fraction

    cap = 64
    inverse_sqrt_2pi = Fraction("0.3989422804014326779399460599343818684759")
    # exactly, so that too large an order raises here, not on an overflow
    x = Fraction(SERIES_RADIUS)
    row = [Fraction(math.prod(range(p, 0, -2)), 2) if p % 2
           else 2 ** (p // 2) * math.factorial(p // 2) * inverse_sqrt_2pi]
    for k in range(1, cap):
        row.append(row[-1] * (p * p - (2 * k - 1) ** 2) / (-8 * k))
    terms = [abs(c / row[0]) / x**k for k, c in enumerate(row)]
    if max(terms) > 2:
        raise ValueError(f"the Hankel expansion of alpha_{p} has a term larger "
                         f"than twice its first at r = {SERIES_RADIUS}")
    tails = np.cumsum(np.array(terms, dtype=float)[::-1])[::-1]
    # the last term holds for every order the check above admits
    needed = int((tails <= SERIES_TAIL * tails[0]).argmax())
    return {(p + 1) // 2 + k: c for k, c in enumerate(row[:needed]) if c}


@lru_cache(maxsize=None)
def _beta_coefficients(hi):
    """{p: {(i, w): c}}, beta_hat_p(r) = sum c r^w R_i(r) exactly for the
    orders p <= hi of the parity of hi, each c > 0 a Fraction, with R = (1)
    for odd orders and (beta_hat_0, beta_hat_2) for even ones: the
    recurrence beta_hat_{p+2} = (p beta_hat_p + r^2 beta_hat_{p-2} / p) /
    (p + 2) (DLMF 10.29.1) from beta_hat_1 = 1 and beta_hat_3 = (1 + r)/3
    (DLMF 10.49.12), or from R, adds positive terms.  Built once per hi.
    """
    # here, not at the top: importing fractions takes a few ms, which only
    # the callers that build these tables should pay
    from fractions import Fraction

    one = Fraction(1)
    odd = hi % 2
    beta = ({1: {(0, 0): one}, 3: {(0, 0): one / 3, (0, 1): one / 3}} if odd
            else {0: {(0, 0): one}, 2: {(1, 0): one}})
    for p in range(odd + 2, hi - 1, 2):
        up = beta[p + 2] = Counter()
        for (i, w), c in beta[p].items():
            up[i, w] += c * Fraction(p, p + 2)
        for (i, w), c in beta[p - 2].items():
            up[i, w + 2] += c / (p * (p + 2))
    return beta


def _power_buffer(rows, width, dtype):
    """A table for ``_power_table`` on ``width`` radii, of up to ``rows``
    rows: a (rows, width) buffer whose row 0 holds ones, and a dict for the
    views of each row count."""
    buffer = np.empty((rows, width), dtype=dtype)
    buffer[0] = 1.0
    return buffer, {}


def _power_table(first, operands, terms, table):
    """Rows x^0 to x^(terms - 1) of ``table`` (from ``_power_buffer``), with
    x = first(*operands) written into row 1, and one product per doubling
    of the row count.

    The views of each doubling are set up the first time a row count is
    needed and kept in the table, so a caller that keeps the table (a
    ``kernels`` sum plan) pays for them once; a direct call makes a table
    of ``terms`` rows and drops it.
    """
    buffer, views = table
    kept = views.get(terms)
    if kept is None:
        # rows k to 2k - 2 are rows 1 to k - 1 times row k - 1
        doublings, k = [], 2
        while k < terms:
            top = min(2 * k - 1, terms)
            doublings.append((buffer[1 : top - k + 1], buffer[k - 1], buffer[k:top]))
            k = top
        kept = views[terms] = (
            buffer[:terms], buffer[1] if terms > 1 else None, doublings)
    head, row, doublings = kept
    if row is not None:
        first(*operands, out=row)
    for below, last, rows in doublings:
        np.multiply(below, last, out=rows)
    return head


@lru_cache(maxsize=None)
def _scipy_k():
    """scipy's ``k0e`` and ``k1e``, imported on the first call only."""
    from scipy.special import k0e, k1e

    return k0e, k1e


def beta_hat_start(out, r):
    """Write beta_hat_0(r) and beta_hat_2(r) into out[0] and out[1].

    The start values every even order is formed from
    (``_beta_coefficients``), from scipy's ``k0e`` and ``k1e``: beta_hat_0 =
    e^r K_0(r) and beta_hat_2 = r e^r K_1(r) / 2.  r is a one-dimensional
    float array with r > 0, taken as it is: no checks and no sorting, for
    callers that form the even orders from these two themselves.  The
    factor 1/2 is exact, so beta_hat_2 is (r K_1) / 2 as well as (r / 2) K_1
    to the bit.
    """
    k0e, k1e = _scipy_k()
    k0e(r, out=out[0])
    second = k1e(r, out=out[1])
    second *= r
    second *= 0.5
