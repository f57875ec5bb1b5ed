"""Particle-trajectory solver: structure, convergence order, exact limits."""

import numpy as np
import pytest
from scipy.special import erfc

from epdiff_radial.grid import InitialData, RadialGrid
from epdiff_radial.hunter_saxton import HSExactSolution
from epdiff_radial.kernels import KernelSpec
from epdiff_radial import solver
from epdiff_radial.solver import (
    FlowState,
    GuardError,
    NonFiniteState,
    StepRejected,
    energy,
    rhs,
    run,
    step,
    transport_residual,
)
from conftest import neg_exp_bump


@pytest.fixture(scope="module")
def grid():
    return RadialGrid.uniform(512, 20.0)


def make_init(grid, n, amplitude=1.0, lo=2.0, hi=8.0):
    return InitialData.from_omega0(
        neg_exp_bump(grid.r, lo, hi, amplitude), grid, n
    )


def test_support_window_is_recorded(grid):
    # z_0 vanishes off nodes support_start .. support_index; the range is
    # empty for z_0 = 0
    init = make_init(grid, 3)
    nonzero = np.flatnonzero(init.z0)
    assert (init.support_start, init.support_index) == (nonzero[0], nonzero[-1])
    zero = InitialData.from_omega0(np.zeros(grid.num), grid, 3)
    assert zero.support_start == zero.support_index + 1 == 1


def test_energy_over_the_window_is_the_full_grid_integral(grid):
    spec = KernelSpec(1, 2, 3)
    init = make_init(grid, 3)
    _, state = run(spec, grid, init, dt=0.01, horizon=0.05,
                   record_snapshots=False)
    dgamma, _ = rhs(spec, grid, init, state.gamma, state.rho)
    inside = init.z0 != 0.0
    integrand = np.zeros(grid.num)
    integrand[inside] = init.z0[inside] * dgamma[inside] / state.rho[inside]
    full = float(grid.quadrature.prefix(integrand)[-1])
    assert energy(grid, init, state.rho, dgamma) == full


def test_zero_momentum_is_stationary(grid):
    spec = KernelSpec(1, 1, 2)
    init = InitialData.from_omega0(np.zeros(grid.num), grid, spec.n)
    record, state = run(spec, grid, init, dt=0.05, horizon=0.5)
    assert record.status == "completed"
    np.testing.assert_allclose(state.gamma, grid.r, rtol=0, atol=1e-14)
    np.testing.assert_allclose(state.rho, 1.0, rtol=0, atol=1e-14)
    assert record.energy[0] == 0.0


def test_rhs_signs_for_negative_momentum(grid):
    # nonpositive momentum: everything moves inward and compresses at the
    # origin (dgamma <= 0, d ln rho(0) <= 0)
    spec = KernelSpec(0, 1, 3)
    init = make_init(grid, 3)
    dgamma, dlnrho = rhs(spec, grid, init, grid.r.copy(), np.ones(grid.num))
    assert np.all(dgamma <= 1e-14)
    assert dgamma[0] == 0.0
    assert dlnrho[0] < 0.0


def test_initial_dgamma_is_velocity_field(grid):
    # at t = 0 the trajectory RHS must equal u_0 = A^{-1} omega_0
    from epdiff_radial.kernels import invert_operator

    spec = KernelSpec(1, 1, 3)
    init = make_init(grid, 3)
    dgamma, _ = rhs(spec, grid, init, grid.r.copy(), np.ones(grid.num))
    u0 = invert_operator(spec, grid, init.omega0)
    np.testing.assert_allclose(dgamma, u0, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "spec,expected",
    [
        # int_0^inf -e^{-s^2} ds
        (KernelSpec(0, 1, 1), -0.5 * np.sqrt(np.pi)),
        # int_0^inf -e^{-s} e^{-s^2} ds
        (KernelSpec(1, 1, 1), -0.5 * np.sqrt(np.pi) * np.exp(0.25) * erfc(0.5)),
    ],
    ids=lambda v: v.label() if isinstance(v, KernelSpec) else "",
)
def test_momentum_on_the_origin_node(grid, spec, expected):
    # n = 1 data with omega_0(0) != 0: the origin node carries weight, and
    # d ln rho/dt(0) = df(0) int_0^inf g z_0 ds with df(0) = 1, g = 1 or e^{-s}
    omega0 = np.where(grid.r < 6.0, -np.exp(-grid.r**2), 0.0)  # jump 2e-16
    init = InitialData.from_omega0(omega0, grid, 1)
    _, dlnrho = rhs(spec, grid, init, grid.r.copy(), np.ones(grid.num))
    assert dlnrho[0] == pytest.approx(expected, rel=1e-5)


def test_rk4_temporal_order(grid):
    # local refinement study against a fine-step reference
    spec = KernelSpec(0, 1, 3)
    init = make_init(grid, 3)
    horizon = 0.05
    ref_record, ref = run(spec, grid, init, dt=horizon / 64, horizon=horizon)
    errs = []
    for m in (2, 4, 8):
        _, st = run(spec, grid, init, dt=horizon / m, horizon=horizon)
        errs.append(np.max(np.abs(st.gamma - ref.gamma)))
    o1 = np.log2(errs[0] / errs[1])
    o2 = np.log2(errs[1] / errs[2])
    assert o1 > 3.7 and o2 > 3.7, (o1, o2)


@pytest.mark.parametrize("n", [1, 3])
def test_matches_exact_hunter_saxton(grid, n):
    spec = KernelSpec(0, 1, n)
    init = make_init(grid, n)
    exact = HSExactSolution(n, grid, init.omega0)
    t = 0.4 * exact.breakdown_time()
    record, state = run(spec, grid, init, dt=t / 200, horizon=t)
    assert record.status == "completed"
    gamma_e, rho_e = exact.flow(t)
    assert np.max(np.abs(state.gamma - gamma_e)) < 2e-5
    assert np.max(np.abs(state.rho - rho_e)) < 2e-4


def test_blowup_detection_threshold(grid):
    spec = KernelSpec(0, 2, 3)
    init = make_init(grid, 3)
    record, state = run(
        spec, grid, init, dt=2e-3, horizon=10.0, blowup_threshold=0.2
    )
    assert record.status == "blowup_detected"
    assert np.min(state.rho) <= 0.2
    assert record.times[-1] < 10.0


def test_guard_trips_on_expanding_flow(grid):
    # positive momentum pushes the support outward toward R_max
    spec = KernelSpec(0, 1, 1)
    omega0 = -neg_exp_bump(grid.r, 2.0, 8.0, amplitude=12.0)
    init = InitialData.from_omega0(omega0, grid, 1)
    record, state = run(spec, grid, init, dt=5e-3, horizon=50.0)
    assert record.status == "guard_tripped"


def test_energy_conservation_moderate_run(grid):
    spec = KernelSpec(1, 1, 2)
    init = make_init(grid, 2)
    record, _ = run(spec, grid, init, dt=2e-3, horizon=0.5, record_every=25)
    e = np.asarray(record.energy)
    assert np.max(np.abs(e - e[0])) / abs(e[0]) < 1e-6


def test_energy_quadratic_in_amplitude(grid):
    spec = KernelSpec(0, 1, 3)
    e = []
    for amp in (1.0, 2.0):
        init = make_init(grid, 3, amplitude=amp)
        dgamma, _ = rhs(spec, grid, init, grid.r.copy(), np.ones(grid.num))
        e.append(energy(grid, init, np.ones(grid.num), dgamma))
    assert e[1] / e[0] == pytest.approx(4.0, rel=1e-10)


def test_transport_residual_small_at_t0_and_midrun(grid):
    spec = KernelSpec(1, 1, 3)
    init = make_init(grid, 3)
    state0 = FlowState(t=0.0, gamma=grid.r.copy(), rho=np.ones(grid.num))
    assert transport_residual(spec, grid, init, state0) < 1e-4
    record, state = run(spec, grid, init, dt=2e-3, horizon=0.6)
    assert record.status == "completed"
    assert transport_residual(spec, grid, init, state) < 1e-3


def test_step_raises_guard_directly(grid):
    spec = KernelSpec(0, 1, 1)
    init = make_init(grid, 1)
    gamma = grid.r.copy() * 2.5  # support node already past 0.9 R_max
    state = FlowState(t=0.0, gamma=gamma, rho=np.ones(grid.num))
    with pytest.raises(GuardError):
        step(spec, grid, init, state, 1e-3)


def test_energy_rhs_is_the_next_first_stage(grid, monkeypatch):
    # the RHS of each step's end state (which the energy of a recorded state
    # reads) is the first RK4 stage of the next step: s accepted steps cost
    # 4 s + 1 RHS evaluations, not 5 s + 1, whether or not each is recorded
    calls = []

    def counting_rhs(*args):
        calls.append(args)
        return rhs(*args)

    monkeypatch.setattr(solver, "rhs", counting_rhs)
    for record_every, recorded in ((1, 6), (10, 2)):
        calls.clear()
        record, _ = run(KernelSpec(0, 1, 3), grid, make_init(grid, 3), dt=1e-2,
                        horizon=0.05, record_every=record_every)
        assert record.status == "completed" and len(record.times) == recorded
        assert len(calls) == 4 * 5 + 1


@pytest.mark.parametrize("spec", [KernelSpec(0, 1, 3), KernelSpec(1, 2, 3)],
                         ids=lambda s: s.label())
def test_step_rate_is_the_rhs_of_its_end_state(grid, spec):
    init = make_init(grid, 3)
    state = FlowState(0.0, grid.r.copy(), np.ones(grid.num))
    for _ in range(3):
        state = step(spec, grid, init, state, 1e-2)
        fresh = rhs(spec, grid, init, state.gamma, state.rho)
        assert state.rate.tobytes() == fresh.tobytes()


@pytest.mark.parametrize(
    "fault,error",
    [("unordered", StepRejected), ("guard", GuardError),
     ("nan_gamma", NonFiniteState), ("inf_rho", NonFiniteState)],
)
def test_a_faulty_end_state_raises_what_validate_raises(grid, monkeypatch,
                                                        fault, error):
    # the first three rates are 0, so every stage state is the start state,
    # and the fourth moves the end state alone: the rhs that would give the
    # end state its rate validates it first and raises, without summing
    init = make_init(grid, 3)
    dt = 1e-2
    jump = np.zeros((2, grid.num))
    if fault == "unordered":
        jump[0, 100] = 6.0 * 0.1 / dt  # past nodes 101 and 102
    elif fault == "guard":
        jump[0, init.support_index :] = 6.0 * 0.9 * grid.r_max / dt
    elif fault == "nan_gamma":
        jump[0, 200] = np.nan
    elif fault == "inf_rho":
        jump[1, 300] = np.inf
    rates = iter([np.zeros((2, grid.num)) for _ in range(3)] + [jump])
    sums = []

    def scripted(*args, **kwargs):
        sums.append(args)
        return next(rates)

    monkeypatch.setattr(solver, "kernel_sums", scripted)
    state = FlowState(0.0, grid.r.copy(), np.ones(grid.num))
    with pytest.raises(error):
        step(KernelSpec(0, 1, 3), grid, init, state, dt)
    assert len(sums) == 4


def test_run_validates_threshold(grid):
    spec = KernelSpec(0, 1, 3)
    init = make_init(grid, 3)
    with pytest.raises(ValueError):
        run(spec, grid, init, dt=1e-3, horizon=0.1, blowup_threshold=1.5)


@pytest.mark.parametrize(
    "key,value,message",
    [
        ("dt", 0.0, "dt must be positive"),  # would never advance
        ("dt", -1e-3, "dt must be positive"),
        ("dt", np.nan, "dt must be finite"),  # would end as nonfinite_state
        ("dt", np.inf, "dt must be finite"),
        ("horizon", np.inf, "horizon must be finite"),  # would complete at t = 0
        ("horizon", np.nan, "horizon must be finite"),
        ("horizon", -0.1, "horizon must be >= 0"),
        ("record_every", 0, "record_every must be an integer >= 1"),  # 0 divides
        ("record_every", 2.5, "record_every must be an integer >= 1"),
    ],
    ids=["dt=0", "dt<0", "dt=nan", "dt=inf", "horizon=inf", "horizon=nan",
         "horizon<0", "record_every=0", "record_every=2.5"],
)
def test_run_rejects_arguments_that_break_it(grid, key, value, message):
    args = {"dt": 1e-2, "horizon": 0.05, key: value}
    with pytest.raises(ValueError, match=message):
        run(KernelSpec(0, 1, 3), grid, make_init(grid, 3), **args)


def test_rhs_results_are_not_overwritten_by_the_next_call(grid):
    spec = KernelSpec(1, 2, 3)
    init = make_init(grid, 3)
    first = rhs(spec, grid, init, grid.r.copy(), np.ones(grid.num))
    kept = first.copy()
    second = rhs(spec, grid, init, 0.9 * grid.r, np.full(grid.num, 0.9))
    assert not np.shares_memory(first, second)
    assert first.tobytes() == kept.tobytes()
    assert second.tobytes() != kept.tobytes()


@pytest.mark.parametrize("spec", [KernelSpec(0, 1, 3), KernelSpec(1, 2, 3)],
                         ids=lambda s: s.label())
def test_step_from_a_stored_rate_equals_a_fresh_step(grid, spec):
    # the first stage taken from state.rate is the stage step would evaluate,
    # and rows (gamma, ln rho) taken from state.y are those it would form
    # from gamma and rho; the step writes into neither (run reuses them for
    # a halved retry)
    init = make_init(grid, 3)
    _, state = run(spec, grid, init, dt=0.02, horizon=0.1,
                   record_snapshots=False)
    # the state step returned carries the rows it was integrated as
    carried = state.y
    assert np.shares_memory(state.gamma, carried)
    assert state.gamma.tobytes() == carried[0].tobytes()
    assert np.exp(carried[1]).tobytes() == state.rho.tobytes()
    bare = FlowState(state.t, state.gamma, state.rho)
    rate = rhs(spec, grid, init, state.gamma, state.rho)
    formed = np.stack([state.gamma, np.log(state.rho)])
    stored = (FlowState(state.t, state.gamma, state.rho, rate=rate),
              FlowState(state.t, state.gamma, state.rho, rate=rate, y=formed))
    kept = [x.copy() for x in (rate, formed, carried, state.rate)]
    for dt in (1e-3, 5e-4):
        fresh = step(spec, grid, init, bare, dt)
        for other in stored:
            reused = step(spec, grid, init, other, dt)
            assert fresh.gamma.tobytes() == reused.gamma.tobytes()
            assert fresh.rho.tobytes() == reused.rho.tobytes()
        # from the carried rows the step skips a log and an exp: it moves
        # only at the rounding level
        on = step(spec, grid, init, state, dt)
        assert np.exp(on.y[1]).tobytes() == on.rho.tobytes()
        # it reads rho only through the rows
        probe = FlowState(state.t, state.gamma, np.full(grid.num, np.nan), y=carried)
        assert step(spec, grid, init, probe, dt).y.tobytes() == on.y.tobytes()
        np.testing.assert_allclose(on.gamma, fresh.gamma, rtol=1e-14, atol=0)
        np.testing.assert_allclose(on.rho, fresh.rho, rtol=1e-14, atol=0)
        assert stored[1].rate is rate and stored[1].y is formed
        for x, copy in zip((rate, formed, carried, state.rate), kept):
            assert x.tobytes() == copy.tobytes()


def test_exhausted_halvings_are_not_a_guard_trip(grid, monkeypatch):
    # a step still rejected after MAX_HALVINGS halvings has its own status;
    # guard_tripped would tell the user to increase R_max
    calls = []

    def always_rejected(spec, grid, init, state, dt):
        calls.append(dt)
        raise StepRejected("gamma lost strict monotonicity")

    monkeypatch.setattr(solver, "step", always_rejected)
    spec = KernelSpec(0, 1, 3)
    record, state = run(spec, grid, make_init(grid, 3), dt=1e-2, horizon=0.1)
    assert record.status == "step_rejected"
    assert len(calls) == solver.MAX_HALVINGS + 1
    assert calls[-1] == 1e-2 * 0.5**solver.MAX_HALVINGS
    assert state.t == 0.0


def test_overflowing_state_is_not_a_success():
    # sigma = 1 with R_max = 2000: the unscaled alpha_3 in f overflows at the
    # far nodes; NaN compares False in the monotonicity and guard checks, so
    # only the finite-state check keeps the run from ending as "completed"
    grid = RadialGrid.uniform(512, 2000.0)
    spec = KernelSpec(1, 1, 3)
    init = make_init(grid, 3, lo=50.0, hi=800.0)
    with np.errstate(all="ignore"):
        record, state = run(spec, grid, init, dt=1e-3, horizon=0.01)
    assert record.status == "nonfinite_state"
    assert np.all(np.isfinite(state.gamma)) and np.all(np.isfinite(state.rho))


@pytest.mark.parametrize("spec", [KernelSpec(1, 1, n) for n in range(1, 6)]
                         + [KernelSpec(1, 2, n) for n in range(3, 6)],
                         ids=lambda s: s.label())
def test_a_support_past_the_overflow_radius_is_not_a_success(spec):
    # the unscaled sigma = 1 inner factors grow like e^gamma and overflow
    # once the support's image passes gamma ~ 709, which the guard (0.9
    # R_max) allows for R_max > 788: this is why KernelSpec.r_max_limit
    # keeps sigma = 1 runs at R_max <= 600
    grid = RadialGrid.uniform(1024, 2000.0)
    init = make_init(grid, spec.n, lo=1000.0, hi=1100.0)
    with np.errstate(all="ignore"):
        record, _ = run(spec, grid, init, dt=1e-3, horizon=0.01)
    assert record.status == "nonfinite_state"


def test_step_raises_on_nonfinite_state(grid):
    spec = KernelSpec(0, 1, 3)
    init = make_init(grid, 3)
    rho = np.ones(grid.num)
    rho[7] = np.nan
    state = FlowState(t=0.0, gamma=grid.r.copy(), rho=rho)
    with pytest.raises(NonFiniteState):
        step(spec, grid, init, state, 1e-3)


@pytest.mark.parametrize(
    "fault,error",
    [
        ("nan_gamma_inside", NonFiniteState),
        ("inf_gamma_last", NonFiniteState),
        ("minus_inf_gamma_first", NonFiniteState),
        ("nan_rho", NonFiniteState),
        ("inf_rho", NonFiniteState),
        ("unordered_and_nan_rho", NonFiniteState),
        ("unordered", StepRejected),
        ("tied", StepRejected),
        ("guard", GuardError),
        ("none", None),
    ],
)
def test_validate_names_each_fault(grid, fault, error):
    # which check a stage state fails decides the run's status: a NaN or
    # inf anywhere is nonfinite_state even where gamma also lost its order
    init = make_init(grid, 3)
    gamma, rho = grid.r.copy(), np.ones(grid.num)
    if fault == "nan_gamma_inside":
        gamma[200] = np.nan
    elif fault == "inf_gamma_last":
        gamma[-1] = np.inf
    elif fault == "minus_inf_gamma_first":
        gamma[0] = -np.inf
    elif fault == "nan_rho":
        rho[300] = np.nan
    elif fault == "inf_rho":
        rho[0] = np.inf
    elif fault in ("unordered", "unordered_and_nan_rho"):
        gamma[100], gamma[101] = gamma[101], gamma[100]
        if fault == "unordered_and_nan_rho":
            rho[5] = np.nan
    elif fault == "tied":
        gamma[101] = gamma[100]
    elif fault == "guard":
        gamma[init.support_index :] += 0.9 * grid.r_max
    if error is None:
        solver._validate(grid, init, gamma, rho)
    else:
        with pytest.raises(error):
            solver._validate(grid, init, gamma, rho)
