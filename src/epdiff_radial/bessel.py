"""Scaled modified Bessel functions.

The radial Green kernels for the nonhomogeneous inertia operators are built
from the pair

    alpha_p(r) = c_p r^{-p/2} I_{p/2}(r),   c_p = 2^{p/2} Gamma(p/2 + 1),
    beta_p(r)  = c_p^{-1} r^{-p/2} K_{p/2}(r),

normalized so that alpha_p(0) = 1 and r^p beta_p(r) -> 1/p as r -> 0.
alpha_p grows like e^r and beta_p decays like e^{-r}; every kernel only ever
needs products alpha_p(r) beta_q(s) with s >= r, so the kernels compose the
exponentially scaled pair below with e^{r-s}, which never overflows.

Only nonnegative integer orders p occur (p = n, n +- 2, n + 4 for dimension
n), so every value comes from the scaled pair

    alpha_hat_p(r) = e^{-r} alpha_p(r),   beta_hat_p(r) = e^{r} r^p beta_p(r),

evaluated for a whole set of orders of one parity at once by
:func:`alpha_hat` and :func:`beta_hat`.  ``alpha``, ``beta`` and
``beta_scaled`` (r^p beta_p, finite at r = 0) give one order unscaled.  The
derivatives follow from alpha_p' = r alpha_{p+2} / (p + 2) and beta_p' =
-(p + 2) r beta_{p+2}.

Both are one table of powers contracted with a table of exact
coefficients, each the correctly rounded quotient of two integers.
alpha_hat_p is, below SERIES_RADIUS, the power series of alpha_p in r^2
(DLMF 10.25.2, terms of one sign; ``_inner_series``, whose rows also give
the kernels' inner factors), and at and above it the Hankel expansion (DLMF
10.40.1; ``_hankel_table``), a polynomial in 1/r (times r^{-1/2} for even
p).  Against mpmath at 40 digits the relative error is at most 1.2e-15
below SERIES_RADIUS and 1.8e-15 on [SERIES_RADIUS, 600] for every p <= 21;
larger orders have no Hankel table.  beta_hat_p is, at every r > 0, a
polynomial in r for odd p and A_p(r) beta_hat_0 + B_p(r) beta_hat_2 for even
p, with positive coefficients from the recurrence DLMF 10.29.1
(``_beta_coefficients``, which the kernels' outer factors are built from
too), and beta_hat_0, beta_hat_2 from scipy's ``k0e``/``k1e``
(:func:`beta_hat_start`, the one place that imports scipy: a sigma = 0 or
odd-n run and every alpha call load none).  Against mpmath at 40 digits its
relative error is at most 1e-15 on [1e-3, 600] for p <= 7.

Every caller in the library passes increasing radii: the solver's nodes (to
``alpha_hat`` only when they reach SERIES_RADIUS; the outer factors call
only :func:`beta_hat_start`, for even n), a grid, or distinct certificate
radii.  Each function writes into one output with a row per order.
:func:`alpha_hat` splits the radii once at SERIES_RADIUS with a binary
search and sums each side in blocks of SERIES_BLOCK radii into slices of
its rows; :func:`beta_hat` sets the radii at the origin, which come first,
and sums its table on the others.  Radii in any other order are sorted
first and their values mapped back.  A value depends only on its order and
radius, not on the other radii of the call, so the same radius gives the
same bits either way.
"""

import bisect
import math
from collections import Counter
from functools import lru_cache

import numpy as np

__all__ = [
    "alpha_hat",
    "beta_hat",
    "beta_hat_start",
    "alpha",
    "beta",
    "beta_scaled",
    "wronskian_residual",
]

# Below SERIES_RADIUS alpha and the inner kernel factors come from their
# power series in r^2 (_inner_series), summed until the tail is below
# SERIES_TAIL of the sum.  Their term count grows with r, so it is a hard
# limit: alpha on larger radii comes from its Hankel expansion.  Both sides
# are summed in blocks of SERIES_BLOCK radii.
SERIES_RADIUS = 30.0
SERIES_TAIL = 2.0**-64
SERIES_BLOCK = 1024


@lru_cache(maxsize=None)
def _check_orders(orders):
    """Orders as a sorted tuple of ints; nonnegative integers of one parity.

    Checked once per tuple of orders: the kernels ask for the same few on
    every call.
    """
    out = []
    for p in orders:
        if p < 0 or p != int(p):
            raise ValueError(f"Bessel order p must be a nonnegative integer, got {p!r}")
        out.append(int(p))
    if len({p % 2 for p in out}) != 1:
        raise ValueError("give one or more orders, all of one parity")
    return tuple(sorted(set(out)))


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
def _hankel_table(lo, hi):
    """The Hankel expansion of alpha_hat_p for r >= SERIES_RADIUS and the
    orders p = lo, lo + 2, ..., hi, as coefficients of powers of u = 1/r.

    From e^-r I_nu(r) = (2 pi r)^(-1/2) sum_k (-1)^k a_k(nu) r^-k (DLMF
    10.40.1; it leaves out less than e^-2r relative), with a_k(p/2) =
    prod_{i <= k} (p^2 - (2i - 1)^2) / (k! 8^k),

        alpha_hat_p(r) = c_p (2 pi)^(-1/2) r^(-(p+1)/2) sum_k (-1)^k a_k(p/2) r^-k
                       = u^((p % 2 - 1) / 2) sum_j H[j, t] u^j,

    with H[(p + 1) // 2 + k, t] = c_p (2 pi)^(-1/2) (-1)^k a_k(p/2): p!! / 2
    times a ratio of integers for odd p (ending after k = (p - 1) / 2), and
    2^(p/2) (p/2)! (2 pi)^(-1/2) times one for even p, with (2 pi)^(-1/2)
    to 40 digits; each is rounded once.  The terms kept leave a tail below
    SERIES_TAIL of each row's sum at r = SERIES_RADIUS, where the relative
    tail is largest.  The terms alternate in sign: raises unless none at
    SERIES_RADIUS exceeds twice the first, which admits every p <= 21.
    Built once per pair of orders, on the first radius that needs it.
    """
    # here, not at the top: importing fractions takes a few ms, which only
    # calls with a radius past SERIES_RADIUS should pay
    from fractions import Fraction

    cap = 64
    inverse_sqrt_2pi = Fraction("0.3989422804014326779399460599343818684759")
    rows = []
    for p in range(lo, hi + 1, 2):
        c = (Fraction(math.prod(range(p, 0, -2)), 2) if p % 2
             else 2 ** (p // 2) * math.factorial(p // 2) * inverse_sqrt_2pi)
        row = [c]
        for k in range(1, cap):
            row.append(row[-1] * (p * p - (2 * k - 1) ** 2) / (-8 * k))
        rows.append(row)
    # exactly, so that too large an order raises here, not on an overflow
    x = Fraction(SERIES_RADIUS)
    terms = [[abs(c / row[0]) / x**k for k, c in enumerate(row)] for row in rows]
    if max(map(max, terms)) > 2:
        raise ValueError(
            f"the Hankel expansion of alpha_{hi} has a term larger than twice "
            f"its first at r = {SERIES_RADIUS}")
    tails = np.cumsum(np.array(terms, dtype=float)[:, ::-1], axis=1)[:, ::-1]
    # the last column holds for every order the check above admits
    needed = int((tails <= SERIES_TAIL * tails[:, :1]).all(axis=0).argmax())
    # a view with a stride of two along j: einsum sums over j with several
    # accumulators when both operands are contiguous along j (one order and
    # one radius), which would make a value depend on the batch size
    table = np.zeros(((hi + 1) // 2 + needed, len(rows), 2))[..., 0]
    for t, (p, row) in enumerate(zip(range(lo, hi + 1, 2), rows)):
        table[(p + 1) // 2 : (p + 1) // 2 + needed, t] = [float(c) for c in row[:needed]]
    return table


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


@lru_cache(maxsize=None)
def _beta_table(lo, hi):
    """``_beta_coefficients`` of p = lo, lo + 2, ..., hi, correctly rounded,
    as B[i W + w, t] for r^w R_i(r) with W powers of r: a view with a stride
    of two along j, as in ``_hankel_table``.  Built once per pair of orders.
    """
    coefficients = _beta_coefficients(hi)
    orders = range(lo, hi + 1, 2)
    width = 1 + max(w for p in orders for _, w in coefficients[p])
    table = np.zeros(((2 - hi % 2) * width, len(orders), 2))[..., 0]
    for t, p in enumerate(orders):
        for (i, w), c in coefficients[p].items():
            table[i * width + w, t] = float(c)  # correctly rounded
    return table


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


def _sorted_radii(r, name):
    """(radii, perm): r flattened and increasing, and the permutation that
    sorted it (None when it already was).  Raises unless r >= 0."""
    flat = np.asarray(r, dtype=float).reshape(-1)
    perm = None
    # NaN fails every comparison, so radii with a NaN are sorted (to the end)
    if flat.size > 1 and np.count_nonzero(flat[:-1] <= flat[1:]) < flat.size - 1:
        perm = np.argsort(flat, kind="stable")
        flat = flat[perm]
    if flat.size and flat[0] < 0:
        raise ValueError(f"{name} requires r >= 0")
    return flat, perm


def _by_order(orders, first, out, perm, shape):
    """{p: the row of out for order p}, back in the order and shape of the radii."""
    if perm is not None:
        unsorted = np.empty_like(out)
        unsorted[:, perm] = out
        out = unsorted
    rows = out.reshape(out.shape[:1] + shape)
    return {p: rows[(p - first) // 2, ...] for p in orders}


def alpha_hat(orders, r):
    """{p: e^{-r} alpha_p(r)} for nonnegative integer orders of one parity,
    p <= 21 where a radius reaches SERIES_RADIUS.

    r >= 0, any shape; each value has the shape of r and is an array of its
    own.  Exactly 1 at r = 0.
    """
    orders = _check_orders(tuple(orders))
    flat, perm = _sorted_radii(r, "alpha")
    lo, hi = orders[0], orders[-1]
    out = np.empty(((hi - lo) // 2 + 1, flat.size))
    # the left side, so that r = SERIES_RADIUS takes the Hankel table
    cut = int(flat.searchsorted(SERIES_RADIUS))
    # in blocks of radii, so that the table of powers stays small on large
    # inputs.  einsum, not BLAS (whose rounding depends on where a radius
    # falls in its block), sums each value over j in order on its own, and
    # series terms past those a radius needs leave its sum unchanged, so a
    # value depends only on its order and radius.
    if cut:
        series, reach = _inner_series(tuple((p, 0, 1) for p in range(lo, hi + 1, 2)))
        for start in range(0, cut, SERIES_BLOCK):
            x = flat[start : min(start + SERIES_BLOCK, cut)]
            terms = bisect.bisect_left(reach, x[-1] * x[-1]) + 1
            powers = _power_table(np.multiply, (x, x), terms,
                                  _power_buffer(terms, x.size, float))
            np.einsum("jm,jt->tm", powers, series[:terms, :, 0],
                      out=out[:, start : start + x.size])
        out[:, :cut] *= np.exp(-flat[:cut])
    if cut < flat.size:
        hankel = _hankel_table(lo, hi)
        for start in range(cut, flat.size, SERIES_BLOCK):
            x = flat[start : start + SERIES_BLOCK]
            u = _power_table(np.divide, (1.0, x), len(hankel),
                             _power_buffer(len(hankel), x.size, float))
            block = out[:, start : start + SERIES_BLOCK]
            np.einsum("jm,jt->tm", u, hankel, out=block)
            if lo % 2 == 0:
                block *= np.sqrt(u[1])
    return _by_order(orders, lo, out, perm, np.shape(r))


def beta_hat(orders, r):
    """{p: e^{r} r^p beta_p(r)} for nonnegative integer orders of one parity.

    r >= 0, any shape; each value has the shape of r and is an array of its
    own.  Equal to 1/p at r = 0 (infinite for p = 0, whose beta_0 diverges
    logarithmically).  At r > 0 one table of powers of r (times the start
    values for even orders) contracted with ``_beta_table``.
    """
    orders = _check_orders(tuple(orders))
    flat, perm = _sorted_radii(r, "beta")
    lo, hi = orders[0], orders[-1]
    out = np.empty(((hi - lo) // 2 + 1, flat.size))
    # the radii at the origin come first, where beta_hat_p = 1/p; the table
    # is summed on the others
    zeros = int(flat.searchsorted(0.0, side="right"))
    for t, p in enumerate(range(lo, hi + 1, 2)):
        out[t, :zeros] = 1.0 / p if p else np.inf
    s = flat[zeros:]
    if s.size:
        table = _beta_table(lo, hi)
        width = len(table) // (2 - hi % 2)
        powers = _power_table(np.positive, (s,), width,
                              _power_buffer(width, s.size, float))
        if hi % 2 == 0:
            starts = np.empty((2, 1, s.size))
            beta_hat_start(starts, s)
            powers = (starts * powers).reshape(-1, s.size)
        # einsum, as in alpha_hat: each value is summed over j on its own
        np.einsum("jm,jt->tm", powers, table, out=out[:, zeros:])
    return _by_order(orders, lo, out, perm, np.shape(r))


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


def _like(out, r):
    """A value of one order, as a float when r is a scalar."""
    return float(out) if np.ndim(r) == 0 else out


def alpha(p, r):
    """alpha_p(r) = c_p r^{-p/2} I_{p/2}(r), continuously extended to 1 at r=0.

    Parameters
    ----------
    p : int
        Order, a nonnegative integer (n, n +- 2 or n + 4 for dimension n).
    r : float or ndarray
        Radius, r >= 0.
    """
    return _like(alpha_hat((p,), r)[p] * np.exp(r), r)


def beta(p, r):
    """beta_p(r) = c_p^{-1} r^{-p/2} K_{p/2}(r); diverges at r = 0.

    Raises
    ------
    ValueError
        If any r <= 0 (use :func:`beta_scaled` for the product r^p beta_p
        near the origin).
    """
    if np.any(np.asarray(r) <= 0):
        raise ValueError("beta requires r > 0; use beta_scaled near r = 0")
    b = beta_hat((p,), r)[p]
    r = np.asarray(r, dtype=float)
    return _like(b * np.exp(-r) / r**p, r)


def beta_scaled(p, r):
    """Regularized product r^p beta_p(r), continuously extended to 1/p at r=0,
    where beta_p itself diverges like r^{-p}/p."""
    if p <= 0 and np.any(np.asarray(r) == 0):
        raise ValueError("beta_scaled undefined at r = 0 for p = 0")
    return _like(beta_hat((p,), r)[p] * np.exp(-np.asarray(r, dtype=float)), r)


def wronskian_residual(p, r):
    """Residual of the Wronskian identity beta_p alpha_p' - alpha_p beta_p' = r^{-p-1}.

    Evaluated through the exponentially scaled pair so the e^{+-r} factors
    cancel analytically; should vanish to roundoff for all p >= 0, r > 0.
    """
    r = np.asarray(r, dtype=float)
    a = alpha_hat((p, p + 2), r)
    b = beta_hat((p, p + 2), r)
    # e^r beta_q = beta_hat_q / r^q
    # beta_p * alpha_p' = [e^r beta_p] * (r/(p+2)) [e^-r alpha_{p+2}]
    term1 = b[p] / r**p * r / (p + 2.0) * a[p + 2]
    # alpha_p * beta_p' = -[e^-r alpha_p] * (p+2) r [e^r beta_{p+2}]
    term2 = -a[p] * (p + 2.0) * r * b[p + 2] / r ** (p + 2)
    return _like(term1 - term2 - r ** (-p - 1.0), r)
