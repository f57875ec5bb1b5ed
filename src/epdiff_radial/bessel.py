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
``beta_scaled`` (r^p beta_p, finite at r = 0) give one order unscaled.  Both
families obey three-term recurrences in p (DLMF 10.29.1 in this
normalization):

    alpha_{p+2} = p (p + 2) (alpha_{p-2} - alpha_p) / r^2,
    beta_hat_{p+2} = (p beta_hat_p + r^2 beta_hat_{p-2} / p) / (p + 2),

and the derivatives follow from alpha_p' = r alpha_{p+2} / (p + 2) and
beta_p' = -(p + 2) r beta_{p+2}.

The beta recurrence adds positive terms and is run upward from the
elementary half-integer forms (DLMF 10.49: beta_hat_1 = 1,
beta_hat_3 = (1 + r)/3) for odd p and from scipy's ``k0e``/``k1e`` for even
p (:func:`beta_hat_start`).  The alpha recurrence cancels at small r, so
it is used only for r >= SERIES_CUTOFF, started from alpha_{-1} = cosh r,
alpha_1 = sinh r / r (odd p) or from ``i0e``/``i1e`` (even p); below the
cutoff alpha_p is the hypergeometric series 0F1(; p/2 + 1; r^2/4) with
positive terms, summed for all requested orders from one table of powers
of r^2/4.  Against mpmath the relative error is below 1e-14 for p <= 9 on
1e-4 <= r <= 40; frozen mpmath values pin it in the test suite.

Every caller in the library passes increasing radii: the solver's nodes
(to ``alpha_hat`` only when they reach ``kernels.SERIES_RADIUS``, below
which the inner kernel factors are summed from their own power series;
the outer factors are Laurent polynomials in 1/r and call only
:func:`beta_hat_start`, for even n), a grid, or distinct certificate
radii.  Each function writes into one output with a row per order.
:func:`alpha_hat` splits the radii once at SERIES_CUTOFF with a binary
search and writes the series block and the recurrence block into slices of
its rows; :func:`beta_hat` sets the radii at the origin, which come first,
and runs its recurrence on the others.  Radii in any other order are
sorted first and their values mapped back.  A value depends only on its
order and radius, not on the other radii of the call, so the same radius
gives the same bits either way.

The scipy functions are imported inside the even-order branches, so
``scipy.special`` loads on the first even-order call and never for odd
orders: importing the library loads numpy alone, and a sigma = 0 or odd-n
run never loads scipy.
"""

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

# Below the cutoff alpha is summed from its series; SERIES_TERMS terms reach
# double precision there for every order p >= 0.
SERIES_CUTOFF = 4.0
SERIES_TERMS = 18
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
def _series_coefficients(lo, hi):
    """Row i holds 1 / (j! (p/2 + 1)_j) for j < SERIES_TERMS, p = lo + 2i <= hi."""
    j = np.arange(1, SERIES_TERMS, dtype=float)
    return np.array([
        np.cumprod(np.concatenate([[1.0], 1.0 / (j * (0.5 * p + j))]))
        for p in range(lo, hi + 1, 2)
    ])


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


def _rows(first, orders, size):
    """An empty output with a row (p - first) / 2 for each order p = first,
    first + 2, ... up to the largest of orders, and at least for the two
    orders a recurrence starts from."""
    return np.empty(((max(orders[-1], first + 2) - first) // 2 + 1, size))


def _by_order(orders, first, out, perm, shape):
    """{p: the row of out for order p}, back in the order and shape of the radii."""
    if perm is not None:
        unsorted = np.empty_like(out)
        unsorted[:, perm] = out
        out = unsorted
    rows = out.reshape(out.shape[:1] + shape)
    return {p: rows[(p - first) // 2, ...] for p in orders}


def _alpha_recurrence(first, r, out):
    """Fill the rows of out, of the orders first = -1 or 0, first + 2, ...,
    with e^{-r} alpha_p(r), r >= SERIES_CUTOFF."""
    if first:  # odd orders, from -1
        # e^{-r} cosh r and e^{-r} sinh r / r; e^{-2r} < 1e-3 here, so
        # 1 - e^{-2r} loses nothing
        e2 = np.exp(-2.0 * r)
        np.add(1.0, e2, out=out[0])
        out[0] *= 0.5
        np.subtract(1.0, e2, out=out[1])
        out[1] /= 2.0 * r
    else:
        from scipy.special import i0e, i1e

        i0e(r, out=out[0])
        i1e(r, out=out[1])
        out[1] *= 2.0
        out[1] /= r
    rr = r * r
    p = first + 2  # the order of row 1
    for below, prev, row in zip(out, out[1:], out[2:]):
        # p (p + 2) (alpha_{p-2} - alpha_p) / r^2
        np.subtract(below, prev, out=row)
        row *= p * (p + 2.0)
        row /= rr
        p += 2


def alpha_hat(orders, r):
    """{p: e^{-r} alpha_p(r)} for nonnegative integer orders of one parity.

    r >= 0, any shape; each value has the shape of r and is an array of its
    own.  Exactly 1 at r = 0.
    """
    orders = _check_orders(tuple(orders))
    flat, perm = _sorted_radii(r, "alpha")
    first = -(orders[-1] % 2)
    out = _rows(first, orders, flat.size)
    # the left side, so that r = SERIES_CUTOFF takes the recurrence
    cut = int(flat.searchsorted(SERIES_CUTOFF))
    if cut:
        # the rows of orders[0] to orders[-1]
        series = out[(orders[0] - first) // 2 : (orders[-1] - first) // 2 + 1]
        coefficients = _series_coefficients(orders[0], orders[-1])
        # in blocks of radii, so that the table of powers stays small on
        # large inputs
        for lo in range(0, cut, SERIES_BLOCK):
            hi = min(lo + SERIES_BLOCK, cut)
            x = 0.25 * flat[lo:hi] ** 2
            powers = np.empty((x.size, SERIES_TERMS))
            powers[:, 0] = 1.0
            powers[:, 1:] = x[:, None]
            np.multiply.accumulate(powers, axis=1, out=powers)
            # one sum per order and radius, without BLAS (whose rounding
            # depends on where a radius falls in its block), so that a value
            # depends only on its order and radius
            np.einsum("ij,kj->ki", powers, coefficients, out=series[:, lo:hi])
        series[:, :cut] *= np.exp(-flat[:cut])
    if cut < flat.size:
        _alpha_recurrence(first, flat[cut:], out[:, cut:])
    return _by_order(orders, first, out, perm, np.shape(r))


def beta_hat(orders, r):
    """{p: e^{r} r^p beta_p(r)} for nonnegative integer orders of one parity.

    r >= 0, any shape; each value has the shape of r and is an array of its
    own.  Equal to 1/p at r = 0 (infinite for p = 0, whose beta_0 diverges
    logarithmically).
    """
    orders = _check_orders(tuple(orders))
    flat, perm = _sorted_radii(r, "beta")
    first = orders[-1] % 2
    out = _rows(first, orders, flat.size)
    zeros = 0
    if flat.size and flat[0] == 0.0:
        # the radii at the origin come first, where beta_hat_p = 1/p; the
        # recurrence runs on the others
        zeros = int(flat.searchsorted(0.0, side="right"))
        for q in orders:
            out[(q - first) // 2, :zeros] = 1.0 / q if q else np.inf
    s, rows = flat[zeros:], out[:, zeros:]
    if first:  # beta_hat_1 = 1, beta_hat_3 = (1 + r) / 3
        rows[0].fill(1.0)
        np.add(1.0, s, out=rows[1])
        rows[1] /= 3.0
    else:
        beta_hat_start(rows, s)
    if len(rows) > 2:
        ss = s * s
        term = np.empty_like(s)
    p = first + 2  # the order of row 1
    for below, prev, row in zip(rows, rows[1:], rows[2:]):
        # (p beta_hat_p + r^2 beta_hat_{p-2} / p) / (p + 2)
        np.multiply(ss, below, out=row)
        row /= p
        row += np.multiply(p, prev, out=term)
        row /= p + 2.0
        p += 2
    return _by_order(orders, first, out, perm, np.shape(r))


def beta_hat_start(out, r):
    """Write beta_hat_0(r) and beta_hat_2(r) into out[0] and out[1].

    The start values of the even-order recurrence, from scipy's ``k0e`` and
    ``k1e``: beta_hat_0 = e^r K_0(r) and beta_hat_2 = r e^r K_1(r) / 2.
    r is a one-dimensional float array with r > 0, taken as it is: no
    checks and no sorting, for callers that evaluate every even order from
    these two themselves.
    """
    from scipy.special import k0e, k1e

    k0e(r, out=out[0])
    np.multiply(0.5, r, out=out[1])
    out[1] *= k1e(r)


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
    """Regularized product r^p beta_p(r), continuously extended to 1/p at r=0.

    Needed by the weight Q and criterion S near the origin, where beta_p
    itself diverges like r^{-p}/p.
    """
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
