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
p.  The alpha recurrence cancels at small r, so it is used only for
r >= SERIES_CUTOFF, started from alpha_{-1} = cosh r, alpha_1 = sinh r / r
(odd p) or from ``i0e``/``i1e`` (even p); below the cutoff alpha_p is the
hypergeometric series 0F1(; p/2 + 1; r^2/4) with positive terms, summed for
all requested orders from one table of powers of r^2/4.  Against mpmath the
relative error is below 1e-14 for p <= 9 on 1e-4 <= r <= 40; frozen mpmath
values pin it in the test suite.
"""

from functools import lru_cache

import numpy as np
from scipy.special import i0e, i1e, k0e, k1e

__all__ = [
    "alpha_hat",
    "beta_hat",
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


def _check_orders(orders):
    """Orders as a sorted tuple of ints; nonnegative integers of one parity."""
    out = []
    for p in orders:
        if p < 0 or p != int(p):
            raise ValueError(f"Bessel order p must be a nonnegative integer, got {p!r}")
        out.append(int(p))
    if len({p % 2 for p in out}) != 1:
        raise ValueError("give one or more orders, all of one parity")
    return tuple(sorted(set(out)))


@lru_cache(maxsize=None)
def _series_coefficients(orders):
    """Row i holds 1 / (j! (p/2 + 1)_j) for j < SERIES_TERMS, p = orders[i]."""
    j = np.arange(1, SERIES_TERMS, dtype=float)
    return np.array([
        np.cumprod(np.concatenate([[1.0], 1.0 / (j * (0.5 * p + j))]))
        for p in orders
    ])


def _alpha_recurrence(pmax, r):
    """{p: e^{-r} alpha_p(r)} for p <= pmax of pmax's parity, r >= SERIES_CUTOFF."""
    if pmax % 2:
        # e^{-r} cosh r and e^{-r} sinh r / r; e^{-2r} < 1e-3 here, so
        # 1 - e^{-2r} loses nothing
        e2 = np.exp(-2.0 * r)
        prev, cur, p = 0.5 * (1.0 + e2), (1.0 - e2) / (2.0 * r), 1
    else:
        prev, cur, p = i0e(r), 2.0 * i1e(r) / r, 2
    out = {p - 2: prev, p: cur}
    rr = r * r
    while p < pmax:
        prev, cur = cur, p * (p + 2.0) * (prev - cur) / rr
        p += 2
        out[p] = cur
    return out


def alpha_hat(orders, r):
    """{p: e^{-r} alpha_p(r)} for nonnegative integer orders of one parity.

    r >= 0, any shape; each value has the shape of r.  Exactly 1 at r = 0.
    """
    orders = _check_orders(orders)
    r = np.asarray(r, dtype=float)
    flat = r.reshape(-1)
    if (flat < 0).any():
        raise ValueError("alpha requires r >= 0")
    out = np.empty((len(orders), flat.size))
    small = flat < SERIES_CUTOFF
    if small.any():
        rs = flat[small]
        series = np.empty((len(orders), rs.size))
        # in blocks of rows, so that the table of powers stays small on the
        # large meshes of the certificates
        for lo in range(0, rs.size, SERIES_BLOCK):
            rows = slice(lo, lo + SERIES_BLOCK)
            x = 0.25 * rs[rows] ** 2
            powers = np.empty((x.size, SERIES_TERMS))
            powers[:, 0] = 1.0
            powers[:, 1:] = x[:, None]
            np.cumprod(powers, axis=1, out=powers)
            # one sum per order and row, without BLAS (whose rounding
            # depends on where a row falls in its block), so that a value
            # depends only on its order and radius
            series[:, rows] = np.einsum(
                "ij,kj->ki", powers, _series_coefficients(orders))
        series *= np.exp(-rs)
        out[:, small] = series
    if not small.all():
        big = ~small
        rec = _alpha_recurrence(orders[-1], flat[big])
        for i, p in enumerate(orders):
            out[i, big] = rec[p]
    return {p: out[i].reshape(r.shape) for i, p in enumerate(orders)}


def beta_hat(orders, r):
    """{p: e^{r} r^p beta_p(r)} for nonnegative integer orders of one parity.

    r >= 0, any shape; each value has the shape of r.  Equal to 1/p at r = 0
    (infinite for p = 0, whose beta_0 diverges logarithmically).
    """
    orders = _check_orders(orders)
    r = np.asarray(r, dtype=float)
    flat = r.reshape(-1)
    if (flat < 0).any():
        raise ValueError("beta requires r >= 0")
    if orders[-1] % 2:
        prev, cur, p = np.ones_like(flat), (1.0 + flat) / 3.0, 3
    else:
        with np.errstate(invalid="ignore"):  # 0 * inf at r = 0, reset below
            prev, cur, p = k0e(flat), 0.5 * flat * k1e(flat), 2
    out = {p - 2: prev, p: cur}
    rr = flat * flat
    with np.errstate(invalid="ignore"):  # r^2 * inf for p = 2 at r = 0
        while p < orders[-1]:
            prev, cur = cur, (p * cur + rr * prev / p) / (p + 2.0)
            p += 2
            out[p] = cur
    origin = flat == 0.0
    if origin.any():
        for q in orders:
            if q > 0:
                out[q][origin] = 1.0 / q
    return {p: out[p].reshape(r.shape) for p in orders}


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
