import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from epdiff_radial.grid import RadialGrid
from epdiff_radial.kernels import KernelSpec, kernel_case, kernel_sums
from epdiff_radial.quadrature import (
    CorrectedTrapezoid,
    deriv1_uniform,
    deriv2_uniform,
)


def test_corrected_rule_is_fourth_order():
    exact = lambda r: np.sin(r)  # integral of cos
    errs = []
    for num in (101, 201, 401):
        r = np.linspace(0.0, 3.0, num)
        errs.append(
            np.max(np.abs(CorrectedTrapezoid(r).prefix(np.cos(r)) - exact(r)))
        )
    order1 = np.log2(errs[0] / errs[1])
    order2 = np.log2(errs[1] / errs[2])
    assert order1 > 3.7 and order2 > 3.7
    # and it beats plain trapezoid by orders of magnitude on this grid
    plain = np.max(
        np.abs(cumulative_trapezoid(np.cos(r), r, initial=0.0) - exact(r))
    )
    assert errs[-1] < 1e-3 * plain


def test_corrected_rule_on_graded_grid():
    x = np.linspace(0.0, 1.0, 400)
    r = 3.0 * x**1.7
    out = CorrectedTrapezoid(r).prefix(np.cos(r))
    assert np.max(np.abs(out - np.sin(r))) < 1e-7


def test_tail_is_complement_of_prefix():
    r = np.linspace(0.0, 5.0, 123)
    f = np.exp(-(r**2))
    q = CorrectedTrapezoid(r)
    suf = q.tail(f)
    pre = q.prefix(f)
    np.testing.assert_allclose(suf + pre, pre[-1], rtol=0, atol=1e-15)
    assert suf[-1] == 0.0


def _reference_prefix(f, r):
    # the rule as written with numpy's own edge-order-2 gradient
    df = np.gradient(f, r, edge_order=2)
    h = np.diff(r)
    seg = 0.5 * h * (f[:-1] + f[1:]) - h * h / 12.0 * (df[1:] - df[:-1])
    return np.concatenate(([0.0], np.cumsum(seg)))


@pytest.mark.parametrize(
    "grid",
    [RadialGrid.uniform(512, 20.0), RadialGrid.graded(400, 20.0, 1.7)],
    ids=["uniform", "graded"],
)
def test_stencil_rule_matches_numpy_gradient(grid):
    r = grid.r
    f = np.exp(-((r - 5.0) ** 2)) * np.sin(3.0 * r) - 0.2 * np.cos(r)
    pre = _reference_prefix(f, r)
    tail = pre[-1] - pre
    scale = np.max(np.abs(np.concatenate((pre, tail))))
    assert np.max(np.abs(grid.quadrature.prefix(f) - pre)) <= 1e-14 * scale
    assert np.max(np.abs(grid.quadrature.tail(f) - tail)) <= 1e-14 * scale


def test_fewer_than_three_nodes():
    # a two-node grid can be built, but f' cannot be estimated on it
    grid = RadialGrid(np.array([0.0, 1.0]))
    f = np.array([1.0, 2.0])
    with pytest.raises(ValueError):
        grid.quadrature.prefix(f)
    with pytest.raises(ValueError):
        grid.quadrature.tail(f)
    with pytest.raises(ValueError):
        grid.quadrature.prefix(f[1:], start=1)


@pytest.mark.parametrize(
    "nodes",
    [
        [0.0, 1.0, np.nan, 3.0, 4.0, 5.0],
        [0.0, 1.0, 2.0, 3.0, 4.0, np.inf],
        [np.nan, 1.0, 2.0, 3.0, 4.0, 5.0],
        [0.0, 1.0, 2.0, 3.0, 4.0, np.nan],
        [0.0, 1.0, 1.0, 3.0, 4.0, 5.0],
        [0.0, 2.0, 1.0, 3.0, 4.0, 5.0],
        [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
    ],
    ids=["nan_inside", "inf_last", "nan_first", "nan_last", "repeated",
         "decreasing", "not_from_zero"],
)
def test_grid_rejects_nodes_that_are_not_finite_and_increasing(nodes):
    # a NaN fails every comparison, so a check for a decrease let it through
    # and built NaN quadrature bands; an infinite last node gave r_max = inf
    with pytest.raises(ValueError, match="strictly increase and be finite"):
        RadialGrid(np.array(nodes))


BAND_GRIDS = [RadialGrid.uniform(96, 20.0), RadialGrid.graded(81, 20.0, 1.7)]


@pytest.mark.parametrize("grid", BAND_GRIDS, ids=["uniform", "graded"])
def test_stacked_prefix_equals_each_row(grid):
    rng = np.random.default_rng(3)
    stack = rng.standard_normal((3, grid.num))
    pre = grid.quadrature.prefix(stack)
    tail = grid.quadrature.tail(stack)
    assert pre.shape == tail.shape == stack.shape
    for row, got_pre, got_tail in zip(stack, pre, tail):
        np.testing.assert_array_equal(got_pre, grid.quadrature.prefix(row))
        np.testing.assert_array_equal(got_tail, grid.quadrature.tail(row))


@pytest.mark.parametrize("grid", BAND_GRIDS, ids=["uniform", "graded"])
@pytest.mark.parametrize(
    "window",
    [(0, 11), (30, -1), (0, -1), (40, 40), (0, 0), (-1, -1), (1, 1), (2, 3),
     (25, 60)],
    ids=lambda w: f"{w[0]}:{w[1]}",
)
def test_windowed_prefix_is_the_full_grid_prefix_bit_for_bit(grid, window):
    # the integrand vanishes off nodes [a, b]; passing only those samples
    # must give exactly the full-grid sums (the skipped intervals add zeros)
    a, b = (i % grid.num for i in window)
    rng = np.random.default_rng(a + 7 * b)
    samples = rng.standard_normal((2, b - a + 1))
    full = np.zeros((2, grid.num))
    full[:, a : b + 1] = samples
    q = grid.quadrature
    np.testing.assert_array_equal(q.prefix(samples, start=a), q.prefix(full))
    np.testing.assert_array_equal(q.tail(samples, start=a), q.tail(full))
    np.testing.assert_array_equal(
        q.prefix(samples[0], start=a), q.prefix(full[0])
    )


def test_window_must_lie_on_the_grid():
    q = BAND_GRIDS[0].quadrature
    for start, width in [(-1, 3), (95, 2), (0, 97), (5, 0)]:
        with pytest.raises(ValueError):
            q.prefix(np.ones(width), start=start)


@pytest.mark.parametrize("spec", [KernelSpec(0, 1, 3), KernelSpec(1, 2, 3)],
                         ids=lambda s: s.label())
def test_zero_weight_gives_zero_sums(spec):
    grid = BAND_GRIDS[0]
    assert not grid.quadrature.prefix(np.zeros(grid.num)).any()
    case = kernel_case(spec)
    # an empty support window, and a window of zeros
    for weight, start in [(np.zeros(0), 1), (np.zeros(grid.num), 0)]:
        sums = kernel_sums(case, grid.quadrature, grid.r, weight, start=start,
                           derivatives=True)
        assert sums.shape == (2, grid.num)
        assert not sums.any() and not np.signbit(sums).any()


@pytest.mark.parametrize("grid", BAND_GRIDS, ids=["uniform", "graded"])
@pytest.mark.parametrize(
    "window", [(0, 11), (30, -1), (0, -1), (40, 41), (0, 1), (-2, -1), (1, 2),
               (2, 4), (25, 61)],
    ids=lambda w: f"{w[0]}:{w[1]}",
)
def test_running_sums_are_the_window_of_the_prefix(grid, window):
    # the running sums are the prefix on nodes i0 + 1 to i1, and the prefix
    # is 0 up to node i0 and the total from node i1 on (-1 stands for N)
    start, stop = (i if i >= 0 else grid.num + 1 + i for i in window)
    q = grid.quadrature
    i0, i1 = q.reach(start, stop)
    assert (i0, i1) == (max(start - 2, 0), min(stop + 1, grid.num - 1))
    samples = np.random.default_rng(start).standard_normal((2, stop - start))
    pre = q.prefix(samples, start=start)
    run = q.running(samples, start, (i0, i1))
    assert run.shape == (2, i1 - i0)
    assert run.tobytes() == pre[:, i0 + 1 : i1 + 1].tobytes()
    assert not pre[:, : i0 + 1].any()
    assert (pre[:, i1:] == run[:, -1:]).all()


@pytest.mark.parametrize("grid", BAND_GRIDS, ids=["uniform", "graded"])
@pytest.mark.parametrize("start,stop", [(0, 11), (20, 50), (70, 81)])
def test_reused_window_gives_fresh_running_sums(grid, start, stop):
    # nothing writes the window's padding, so every use equals a fresh
    # running call, and no result shares memory with another
    q = grid.quadrature
    window = q.window(start, stop, (3,), float)
    assert window.reach == q.reach(start, stop)
    rng = np.random.default_rng(stop)
    results = []
    for _ in range(3):
        samples = rng.standard_normal((3, stop - start))
        window.samples[...] = samples
        got = window.sums()
        assert got.tobytes() == q.running(samples, start, window.reach).tobytes()
        assert not any(np.shares_memory(got, prev) for prev in results)
        results.append(got)


def test_running_adds_the_four_bands_in_order():
    # seg_i = ((W0 f_{i-1} + W1 f_i) + W2 f_{i+1}) + W3 f_{i+2}, then a
    # cumulative sum: the order the rule has always summed in
    q = BAND_GRIDS[1].quadrature
    scales = 10.0 ** np.linspace(-6, 6, 81)  # so that rounding differs by order
    f = np.random.default_rng(5).standard_normal((3, 81)) * scales
    # nodes -1 to N: one zero past each end of the grid
    padded = np.zeros((3, 83))
    padded[:, 1:-1] = f
    w0, w1, w2, w3 = q._bands
    seg = w0 * padded[:, :-3]
    seg += w1 * padded[:, 1:-2]
    seg += w2 * padded[:, 2:-1]
    seg += w3 * padded[:, 3:]
    run = q.running(f, 0, q.reach(0, 81))
    assert run.tobytes() == np.cumsum(seg, axis=-1).tobytes()


@pytest.mark.parametrize("grid", BAND_GRIDS, ids=["uniform", "graded"])
def test_longdouble_in_gives_longdouble_out(grid):
    f = np.exp(-grid.r) * np.cos(grid.r)
    q = grid.quadrature
    ld = f.astype(np.longdouble)
    windowed = np.zeros_like(f)
    windowed[10:50] = f[10:50]
    for got, ref in [
        (q.prefix(ld), q.prefix(f)),
        (q.tail(ld), q.tail(f)),
        (q.prefix(ld[10:50], start=10), q.prefix(windowed)),
    ]:
        assert got.dtype == np.longdouble
        np.testing.assert_allclose(got.astype(float), ref, rtol=0, atol=1e-15)
    # integer samples are integrated as float64
    assert q.prefix(np.ones(grid.num, dtype=int)).dtype == np.float64


@pytest.mark.parametrize("parity", [-1, +1])
def test_derivatives_fourth_order(parity):
    # odd test profile r e^{-r^2}, even test profile e^{-r^2}
    errs1, errs2 = [], []
    for num in (200, 400, 800):
        r = np.linspace(0.0, 6.0, num)
        h = r[1] - r[0]
        if parity == -1:
            u = r * np.exp(-(r**2))
            d1 = (1.0 - 2.0 * r**2) * np.exp(-(r**2))
            d2 = (4.0 * r**3 - 6.0 * r) * np.exp(-(r**2))
        else:
            u = np.exp(-(r**2))
            d1 = -2.0 * r * np.exp(-(r**2))
            d2 = (4.0 * r**2 - 2.0) * np.exp(-(r**2))
        errs1.append(np.max(np.abs(deriv1_uniform(u, h, parity=parity) - d1)))
        errs2.append(np.max(np.abs(deriv2_uniform(u, h, parity=parity) - d2)))
    for errs in (errs1, errs2):
        assert np.log2(errs[0] / errs[1]) > 3.5
        assert np.log2(errs[1] / errs[2]) > 3.5


def test_derivatives_exact_on_cubics():
    # degree <= 4 polynomials are differentiated exactly by the 4-th order
    # stencils (the outer ghost extrapolation is degree-4 as well); an odd
    # cubic keeps the origin extension consistent
    r = np.linspace(0.0, 2.0, 40)
    h = r[1] - r[0]
    u = r**3 - 2.0 * r
    np.testing.assert_allclose(
        deriv1_uniform(u, h), 3.0 * r**2 - 2.0, rtol=1e-12, atol=1e-11
    )
    np.testing.assert_allclose(deriv2_uniform(u, h), 6.0 * r, rtol=1e-12, atol=1e-10)


def test_minimum_node_count():
    with pytest.raises(ValueError):
        deriv1_uniform(np.zeros(5), 0.1)
