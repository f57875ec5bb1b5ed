"""Trapezoid quadrature with cumulative prefix/suffix sums.

All kernel integrals in the solver and the operator inversion are cumulative:
every output node needs the integral of a smooth integrand from 0 up to that
node (prefix) or from that node to R_max (suffix).  The workhorse here is a
cumulative trapezoid rule with the Euler-Maclaurin endpoint correction

    int_a^b f = h/2 (f_a + f_b) - h^2/12 (f'_b - f'_a) + O(h^4),

applied per interval, which upgrades plain trapezoid from O(h^2) to O(h^4)
on smooth integrands.  It works on non-uniform (graded) grids as well.
The rule is ``CorrectedTrapezoid``, built once for one set of nodes with the
second-order gradient stencil for f' folded into four weights per interval;
every grid carries one as ``RadialGrid.quadrature``.  Its ``prefix`` and
``tail`` take samples only: f' is never passed in.  One call integrates a
whole stack of integrands, and an integrand that vanishes outside a node
range is passed on that range only (the solver's integrands vanish off the
support of z_0); the sums are the full-grid ones bit for bit.  Its one
entry point to the sums over such a range is ``window``: a ``SumWindow``
holds the range's set-up and gives the running sums that change across
it.  ``prefix`` builds one per call; the kernel-sum plan and the Liouville
oracle, which sum over one range again and again, keep theirs.

Also houses the 4th-order uniform-grid finite differences used by the
operator application path (odd extension through r = 0, polynomial
extrapolation ghosts at the outer edge).
"""

import numpy as np

__all__ = ["CorrectedTrapezoid", "SumWindow", "deriv1_uniform", "deriv2_uniform"]


def _as_float_array(u):
    u = np.asarray(u)
    return u if u.dtype.kind == "f" else u.astype(float)


class CorrectedTrapezoid:
    """Endpoint-corrected cumulative trapezoid rule bound to fixed nodes.

    Everything that depends only on the nodes is built once.  With f'
    estimated by the edge-order-2 gradient stencil (three interior
    coefficient arrays and two 3-point edge rows, the same ones NumPy's
    ``gradient`` uses with ``edge_order=2`` on non-uniform spacing), the
    integral over interval i = [r_i, r_{i+1}] is a fixed linear form in four
    samples,

        seg_i = W0_i f_{i-1} + W1_i f_i + W2_i f_{i+1} + W3_i f_{i+2},

    so the rule is a four-band linear map (on a uniform grid the bands are
    h/24 (-1, 13, 13, -1)).  The first interval has no f_{-1} and the last no
    f_N: there the one-sided edge rows of the stencil fold into the other
    three bands.  A solver run or an oracle integrates thousands of
    integrands on one grid, so ``prefix`` costs a few vector operations per
    call whatever the number of integrands stacked in it.

    An integrand that vanishes outside the nodes [a, b] can be passed as its
    samples on [a, b] only (``start = a``).  Only the intervals a - 2 to
    b + 1 are summed; every other interval adds an exact zero, so the
    result equals the full-grid one bit for bit.  ``reach`` checks the node
    range and names those intervals, ``window`` sets them up as a
    ``SumWindow``, which gives just their running sums, and ``prefix`` and
    ``tail`` spread those over all N nodes.

    Fewer than three nodes are accepted, but then f' cannot be estimated and
    every integral raises ``ValueError``.  Nodes so spaced that a band weight
    is not finite (products of spacings underflow or overflow) raise it here.
    """

    # in numpy scalars and with errors ignored, spacings whose products
    # underflow or overflow give weights that are not finite, checked below
    @np.errstate(all="ignore")
    def __init__(self, r):
        r = np.asarray(r, dtype=float)
        h = np.diff(r)
        self._num = len(r)
        self._bands = None
        if len(r) >= 3:
            dx1, dx2 = h[:-1], h[1:]
            lo = -dx2 / (dx1 * (dx1 + dx2))
            mid = (dx2 - dx1) / (dx1 * dx2)
            hi = dx1 / (dx2 * (dx1 + dx2))
            d1, d2 = h[0], h[1]
            first = (
                -(2.0 * d1 + d2) / (d1 * (d1 + d2)),
                (d1 + d2) / (d1 * d2),
                -d1 / (d2 * (d1 + d2)),
            )
            d1, d2 = h[-2], h[-1]
            last = (
                d2 / (d1 * (d1 + d2)),
                -(d2 + d1) / (d1 * d2),
                (2.0 * d2 + d1) / (d2 * (d1 + d2)),
            )
            # seg_i = h_i/2 (f_i + f_{i+1}) - h_i^2/12 (f'_{i+1} - f'_i) on the
            # bands (f_{i-1}, f_i, f_{i+1}, f_{i+2}): the interior row
            # (lo, mid, hi) of the left node i sits on bands 0-2 and that of
            # the right node i + 1 on bands 1-3.  The one-sided rows of nodes
            # 0 and N - 1 sit on bands 1-3 and 0-2, inside the grid.
            bands = np.empty((4, len(h)))
            w0, w1, w2, w3 = bands
            w0[0] = 0.0
            w0[1:] = lo
            w1[0] = -lo[0]
            np.subtract(mid[:-1], lo[1:], out=w1[1:-1])
            w1[-1] = mid[-1]
            w2[0] = -mid[0]
            np.subtract(hi[:-1], mid[1:], out=w2[1:-1])
            w2[-1] = hi[-1]
            np.negative(hi, out=w3[:-1])
            w3[-1] = 0.0
            bands[1:, 0] += first
            bands[:3, -1] -= last
            bands *= h * h / 12.0
            bands[1:3] += 0.5 * h
            if not np.isfinite(bands).all():
                raise ValueError("the node spacing is too small or too large "
                                 "for finite quadrature weights")
            self._bands = bands

    def reach(self, start, stop):
        """(i0, i1): the intervals i0 <= i < i1 that samples on nodes start to
        stop - 1 enter (the four bands reach two nodes back and one ahead).

        The integrals of such an integrand are 0 up to node i0 and constant
        from node i1 on.
        """
        if self._bands is None:
            raise ValueError("need at least 3 nodes to estimate f'")
        if not 0 <= start < stop <= self._num:
            raise ValueError("samples must lie on a node range inside the grid")
        return max(start - 2, 0), min(stop + 1, self._num - 1)

    def window(self, start, stop, stack, dtype):
        """A ``SumWindow`` for samples on the nodes start to stop - 1, in a
        stack of shape ``stack`` (a tuple) and of float dtype ``dtype``."""
        reach = self.reach(start, stop)
        return SumWindow(self._bands, reach, start, stop, stack, dtype)

    def prefix(self, f, start=0):
        """out[..., i] = int_{r_0}^{r_i} f, out[..., 0] = 0 (O(h^4) on smooth f).

        ``f`` holds the samples on the nodes start to start + L - 1 and the
        integrand is zero on every other node.  Works on a 1-D array or an
        (m, L) stack and keeps the float dtype of ``f`` (longdouble samples
        give longdouble sums).  With (i0, i1) the ``reach`` of the samples,
        the window's running sums are written straight into the nodes
        i0 + 1 to i1 of the zeroed output, and their total into every node
        past i1.

        f' is the gradient stencil's, folded into the bands.  Second order
        is enough, but it matters that the one-sided edge estimates are
        second order too: the cumulative correction telescopes to the
        endpoint f' values, so a first-order edge estimate would drop the
        whole rule to O(h^3).
        """
        f = _as_float_array(f)
        # the dtype of the band products, which the sums keep
        window = self.window(start, start + f.shape[-1], f.shape[:-1],
                             np.promote_types(f.dtype, float))
        window.samples[...] = f
        i0, i1 = window.reach
        out = np.zeros(f.shape[:-1] + (self._num,), window.samples.dtype)
        sums = window.sums(out=out[..., i0 + 1 : i1 + 1])
        out[..., i1 + 1 :] = sums[..., -1:]
        return out

    def tail(self, f, start=0):
        """Suffix integrals out[..., i] = int_{r_i}^{r_max} f; out[..., -1] = 0."""
        pre = self.prefix(f, start)
        return pre[..., -1:] - pre


class SumWindow:
    """The set-up of the running sums over one node range, built once.

    Holds what depends only on the rule, the node range start to stop - 1,
    the stack shape and the dtype: the reach (i0, i1), the bands of the
    intervals i0 to i1 - 1, and a zero-padded sample buffer over the nodes
    i0 - 1 to i1 + 1 with its four-tap view.  ``samples`` is the writable
    part of the buffer on the nodes start to stop - 1; write the integrands
    there (every entry, on every use) and ``sums()`` gives their running
    sums, the prefix integrals on the nodes i0 + 1 to i1 (the last is the
    total).  Nothing writes the padding, so it stays zero from one use to
    the next.  Each ``sums()`` returns a fresh array, or writes into a
    caller's buffer (``CorrectedTrapezoid.prefix`` its output, a kernel-sum
    plan one it keeps, and the Liouville oracle its full-length prefix).
    """

    def __init__(self, bands, reach, start, stop, stack, dtype):
        i0, i1 = self.reach = reach
        self._bands = bands[:, i0:i1]
        padded = np.zeros(stack + (i1 - i0 + 3,), dtype=dtype)
        self.samples = padded[..., start - i0 + 1 : stop - i0 + 1]
        # taps[..., k, j] is node i0 - 1 + j + k, the sample that band k of
        # interval i0 + j weighs: a view of padded (the constructor checks
        # that it lies inside padded).  One multiply and one reduce over it
        # take about 5 us less per call than four slices and seven ufuncs
        step = padded.strides[-1]
        self._taps = np.ndarray(
            stack + (4, i1 - i0), padded.dtype, padded, 0,
            padded.strides[:-1] + (step, step),
        )

    def sums(self, out=None):
        """out[..., j] = int_{r_i0}^{r_{i0+j+1}} of the samples: fresh, or
        written into ``out`` (shape stack + (i1 - i0,)) when it is given."""
        # seg = ((W0 f_{i-1} + W1 f_i) + W2 f_{i+1}) + W3 f_{i+2}: the reduce
        # adds the four products in band order
        seg = np.add.reduce(self._bands * self._taps, axis=-2, out=out)
        return np.add.accumulate(seg, axis=-1, out=seg)


# 4th-order centered stencils on a uniform grid including r_0 = 0.
# Left ghosts come from the symmetry of radial profiles through the origin
# (u(-r) = -u(r) for velocities, v(-r) = v(r) for profiles like u/r); right
# ghosts from degree-4 polynomial extrapolation (vanishing 5th difference),
# which preserves the interior order at the outer edge.


def _padded(u, parity):
    if len(u) < 6:
        raise ValueError("need at least 6 nodes for 4th-order differences")
    g = np.empty(len(u) + 4, dtype=u.dtype)
    g[2:-2] = u
    g[1] = parity * u[1]
    g[0] = parity * u[2]
    g[-2] = 5 * g[-3] - 10 * g[-4] + 10 * g[-5] - 5 * g[-6] + g[-7]
    g[-1] = 5 * g[-2] - 10 * g[-3] + 10 * g[-4] - 5 * g[-5] + g[-6]
    return g


def deriv1_uniform(u, h, parity=-1):
    """4th-order first derivative on a uniform grid starting at r = 0.

    ``parity`` selects the left ghost extension: -1 for odd profiles
    (velocities), +1 for even ones.  The input float dtype is preserved,
    so extended-precision callers keep their precision.
    """
    g = _padded(_as_float_array(u), parity)
    return (g[:-4] - 8 * g[1:-3] + 8 * g[3:-1] - g[4:]) / (12.0 * h)


def deriv2_uniform(u, h, parity=-1):
    """4th-order second derivative; ``parity`` as in deriv1_uniform."""
    g = _padded(_as_float_array(u), parity)
    return (-g[:-4] + 16 * g[1:-3] - 30 * g[2:-2] + 16 * g[3:-1] - g[4:]) / (
        12.0 * h * h
    )
