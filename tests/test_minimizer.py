import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from hjlab.core import (ModelParams, PathAction, PotentialField, Trajectory, action,
                        constant_potential, el_residual, jensen_lower_bound,
                        zero_potential)
from hjlab.minimizer import (DomainError, GridSpec, WindowTouchError,
                             backtrack, comoving_window, enumerate_paths,
                             lemma_wT_margin, newton_polish, path_cost,
                             progression_margins, refine, solve_dp, solve_dp_batched,
                             terminal_velocity,
                             velocity_bound_lower, velocity_bound_upper)
from hjlab.potentials import PaceCurve, accelerating_potential

P2 = ModelParams(beta=2.0, C=1.0)
K2 = math.sqrt(2.0 / 5.0)


def lattice_potential(rng, grid, n_steps):
    """Random kick potential tabulated on the lattice (deterministic field)."""
    vals = rng.uniform(0, 1, size=(n_steps + 2, grid.n_x))

    def ev(x, t):
        xi = np.clip(np.round((np.asarray(x) - grid.x_min) / grid.dx).astype(int),
                     0, grid.n_x - 1)
        ti = np.clip((np.asarray(t) - grid.t1) / grid.dt_eff, 0, n_steps + 1).astype(int)
        return vals[ti, xi]

    return PotentialField(eval_fn=ev,
                          grad_fn=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
                          bound=1.0)


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(x_min=0, x_max=1, dx=0.5, t1=0, t2=1, dt=0.1, v_max=1.0)  # v dt < dx
    with pytest.raises(ValueError):
        GridSpec(x_min=1, x_max=0, dx=0.5, t1=0, t2=1, dt=0.1, v_max=50.0)
    g = GridSpec(x_min=0, x_max=1, dx=0.25, t1=0, t2=1, dt=0.26, v_max=2.0)
    assert g.n_steps == 4 and g.dt_eff == pytest.approx(0.25)
    assert g.stencil == 2


def test_solve_dp_zero_potential():
    g = GridSpec(x_min=-1, x_max=1, dx=0.5, t1=0, t2=1, dt=0.2, v_max=5)
    tab = solve_dp(zero_potential(), g, None, P2)
    assert np.all(tab.final_values == 0.0)
    tr = backtrack(tab, 0.5)
    assert np.all(tr.positions == 0.5)
    tv = terminal_velocity(tr, 1.0, P2)
    assert tv.speed == 0.0


def test_solve_dp_constant_potential():
    g = GridSpec(x_min=-1, x_max=1, dx=0.5, t1=0, t2=1, dt=0.25, v_max=5)
    tab = solve_dp(constant_potential(0.7), g, None, P2, keep_history=True)
    for k in range(g.n_steps + 1):
        assert np.allclose(tab.slice_values(k), -0.7 * k * g.dt_eff)
    tr = backtrack(tab, -1.0)
    assert np.all(tr.positions == -1.0)


def test_dp_matches_enumeration_exactly():
    rng = np.random.default_rng(7)
    for trial in range(40):
        n_x = int(rng.integers(3, 6))
        n_steps = int(rng.integers(2, 7))
        g = GridSpec(x_min=0.0, x_max=0.5 * (n_x - 1), dx=0.5, t1=0.0,
                     t2=0.25 * n_steps, dt=0.25,
                     v_max=float(rng.uniform(2.2, 8.0)))
        U = lattice_potential(rng, g, n_steps)
        S0 = rng.uniform(-1, 1, size=g.n_x)
        tab = solve_dp(U, g, S0, P2)
        ev_vals, ev_paths = enumerate_paths(U, g, S0, P2)
        assert np.array_equal(tab.final_values, ev_vals)
        xt = float(g.nodes()[int(rng.integers(0, g.n_x))])
        tr = backtrack(tab, xt)
        j = g.nearest_index(xt)
        c = path_cost(tr, U, g, P2) + S0[g.nearest_index(tr.positions[0])]
        assert c == pytest.approx(ev_vals[j], abs=1e-9)


def test_three_point_hand_instance():
    # 3-point grid, 2 steps: richer potential pulls the path left
    g = GridSpec(x_min=0.0, x_max=1.0, dx=0.5, t1=0.0, t2=1.0, dt=0.5, v_max=2.1)
    vals = np.array([[0.9, 0.1, 0.0], [0.8, 0.0, 0.0], [0.0, 0.0, 0.0]])

    def ev(x, t):
        xi = np.clip(np.round(np.asarray(x) / 0.5).astype(int), 0, 2)
        ti = np.clip(np.asarray(t) / 0.5, 0, 2).astype(int)
        return vals[ti, xi]

    U = PotentialField(eval_fn=ev, grad_fn=lambda x, t: 0.0 * np.asarray(x), bound=1.0)
    tab = solve_dp(U, g, None, P2)
    ev_vals, ev_paths = enumerate_paths(U, g, None, P2)
    assert np.array_equal(tab.final_values, ev_vals)


@st.composite
def toy_batched_instances(draw):
    """Toy grid, tabulated kick potential and S0 rows (Dirac, finite or
    partly +inf); the stencil ranges up to three nodes beyond the grid."""
    beta = draw(st.sampled_from([1.25, 1.5, 2.0, 3.0]))
    n_x = draw(st.integers(2, 6))
    n_steps = draw(st.integers(1, 4))
    dt = draw(st.sampled_from([0.1, 0.25, 0.4, 1.0]))
    m = draw(st.integers(1, n_x + 3))
    g = GridSpec(x_min=0.0, x_max=0.5 * (n_x - 1), dx=0.5, t1=0.0,
                 t2=dt * n_steps, dt=dt, v_max=(m + 0.5) * 0.5 / dt)
    vals = draw(arrays(np.float64, (n_steps + 2, n_x), elements=st.floats(0, 1)))

    def ev(x, t):
        xi = np.clip(np.round((np.asarray(x) - g.x_min) / g.dx).astype(int), 0, n_x - 1)
        ti = np.clip(np.round((np.asarray(t) - g.t1) / g.dt_eff), 0, n_steps + 1).astype(int)
        return vals[ti, xi]

    U = PotentialField(eval_fn=ev, grad_fn=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
                       bound=1.0)
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["dirac", "finite", "partial"]))
        if kind == "dirac":
            row = np.full(n_x, np.inf)
            row[draw(st.integers(0, n_x - 1))] = 0.0
        else:
            row = draw(arrays(np.float64, n_x, elements=st.floats(-2, 2)))
            if kind == "partial":
                keep = draw(st.integers(0, n_x - 1))
                mask = draw(arrays(np.bool_, n_x))
                mask[keep] = False
                row[mask] = np.inf
        rows.append(row)
    return U, g, ModelParams(beta=beta, C=1.0), np.array(rows)


@settings(max_examples=150, deadline=None)
@given(toy_batched_instances())
def test_batched_sweep_equals_dp_and_enumeration(instance):
    U, g, p, S0 = instance
    batched = solve_dp_batched(U, g, S0, p)
    for row, got in zip(S0, batched):
        for want in (solve_dp(U, g, row, p).final_values,
                     enumerate_paths(U, g, row, p)[0]):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def test_backtrack_action_consistency_identity():
    rng = np.random.default_rng(3)
    g = GridSpec(x_min=-2.0, x_max=2.0, dx=0.25, t1=0.0, t2=2.0, dt=0.25, v_max=4.0)
    U = lattice_potential(rng, g, g.n_steps)
    S0 = rng.uniform(-0.5, 0.5, size=g.n_x)
    tab = solve_dp(U, g, S0, P2)
    for xt in g.nodes()[::3]:
        tr = backtrack(tab, float(xt))
        lhs = path_cost(tr, U, g, P2)
        rhs = tab.value_at(float(xt)) - S0[g.nearest_index(tr.positions[0])]
        assert lhs == pytest.approx(rhs, abs=1e-9)


def _accel_setup(T, margin=8.0, stencil=24, dx=None):
    U = accelerating_potential(0.0, 0.0, T, K2, 1.0, 2.0)
    curve = PaceCurve(K=K2, T=T, beta=2.0)
    lb = velocity_bound_lower(T, P2)
    dx = dx if dx else min(0.05, lb.R_T / 40)
    v_max = max(4 * K2 * math.log(T), 2.0)
    dt = stencil * dx / v_max
    grid = GridSpec(x_min=-curve.value(T) - margin - 2, x_max=lb.R_T, dx=dx,
                    t1=0.0, t2=T, dt=dt, v_max=v_max)
    return U, curve, grid, lb


def test_windowed_equals_full_and_detach_cap():
    T = 50.0
    U, curve, grid, lb = _accel_setup(T)
    full = solve_dp(U, grid, None, P2, keep_history=False)
    tr_full = backtrack(full, 0.0)

    wgrid = comoving_window(curve, 8.0, grid)
    win = solve_dp(U, wgrid, None, P2, keep_history=False)
    tr_win = backtrack(win, 0.0)
    assert np.array_equal(tr_full.positions, tr_win.positions)
    assert full.value_at(0.0) == win.value_at(0.0)

    capped = comoving_window(curve, 8.0, grid, detach_cap=20.0)
    cap_tab = solve_dp(U, capped, None, P2, keep_history=False)
    tr_cap = backtrack(cap_tab, 0.0)
    assert np.array_equal(tr_full.positions, tr_cap.positions)

    cells_full = grid.n_x * (grid.n_steps + 1)
    cells_cap = int(np.sum(capped.window.width()))
    assert cells_cap < 0.6 * cells_full


def test_window_touch_error():
    T = 50.0
    U, curve, grid, lb = _accel_setup(T)
    tight = comoving_window(curve, 1.9, grid)   # below the bump width
    tab = solve_dp(U, tight, None, P2, keep_history=False)
    with pytest.raises(WindowTouchError):
        backtrack(tab, 0.0)


def test_comoving_cell_reduction_at_1e3():
    T = 1000.0
    U, curve, grid, lb = _accel_setup(T, margin=10.0, stencil=30)
    capped = comoving_window(curve, 10.0, grid,
                             detach_cap=max(40.0, 4 * math.log(T) ** 2))
    cells_full = grid.n_x * (grid.n_steps + 1)
    cells_win = int(np.sum(capped.window.width()))
    assert cells_win < 0.15 * cells_full    # measured ~0.09


def test_refine_straight_line_unchanged():
    tr = Trajectory(np.linspace(0, 1, 21), 2.0 * np.linspace(0, 1, 21))
    out = refine(tr, zero_potential(), P2, passes=3)
    # golden-section float dust only; the optimum is already attained
    assert np.max(np.abs(out.positions - tr.positions)) < 1e-7
    assert action(out, zero_potential(), P2) <= action(tr, zero_potential(), P2) + 1e-15


def test_refine_perturbed_line_approaches_jensen():
    rng = np.random.default_rng(2)
    t = np.linspace(0, 1, 41)
    x = t * 1.5 + 0.08 * rng.standard_normal(41)
    x[0], x[-1] = 0.0, 1.5
    tr = Trajectory(t, x)
    U0 = zero_potential()
    jb = jensen_lower_bound(1.5, 1.0, P2)
    a0 = action(tr, U0, P2)
    out = refine(tr, U0, P2, passes=200, rel_tol=1e-14)
    a1 = action(out, U0, P2)
    assert a1 <= a0
    assert a1 - jb < 0.02 * (a0 - jb)


def test_refine_reduces_el_residual():
    T = 50.0
    U, curve, grid, lb = _accel_setup(T)
    wgrid = comoving_window(curve, 8.0, grid)
    tab = solve_dp(U, wgrid, None, P2, keep_history=False)
    tr = backtrack(tab, 0.0)
    out = refine(tr, U, P2, passes=8)
    r0 = np.max(np.abs(el_residual(tr, U, P2)))
    r1 = np.max(np.abs(el_residual(out, U, P2)))
    assert r1 <= r0


def test_newton_polish_reaches_stationarity():
    T = 8.0
    U = accelerating_potential(0.0, 0.0, T, K2, P2.C, P2.beta)
    edge = PaceCurve(K=K2, T=T, beta=2.0).value(T)
    grid = GridSpec(-edge - 6.0, 1.0, 0.025, 0.0, T, 0.1, 6.0)
    tr = refine(backtrack(solve_dp(U, grid, None, P2), 0.0), U, P2, passes=5,
                free_left=True)
    pa = PathAction(tr.times, U, P2)
    assert np.max(np.abs(pa.grad(tr.positions)[:-1])) > 1e-3   # not yet stationary
    out = newton_polish(tr, U, P2, iters=400, trust=0.5)
    assert out.positions[-1] == tr.positions[-1]                # terminal node pinned
    assert np.max(np.abs(pa.grad(out.positions)[:-1])) < 1e-8
    assert action(out, U, P2) <= action(tr, U, P2)


def test_terminal_velocity_uniform_and_bracket():
    tr = Trajectory(np.linspace(0, 2, 11), 3.0 * np.linspace(0, 2, 11))
    tv = terminal_velocity(tr, 0.7, P2)
    assert tv.speed == pytest.approx(3.0)
    assert tv.lo == pytest.approx(1.5) and tv.hi == pytest.approx(4.5)
    with pytest.raises(ValueError):
        terminal_velocity(tr, 0.05, P2)


def test_terminal_velocity_cross_estimators_T200():
    T = 200.0
    U, curve, grid, lb = _accel_setup(T, margin=10.0, stencil=30)
    wgrid = comoving_window(curve, 10.0, grid,
                            detach_cap=max(40.0, 4 * math.log(T) ** 2))
    tab = solve_dp(U, wgrid, None, P2, keep_history=False)
    tr = refine(backtrack(tab, 0.0), U, P2, passes=8)
    tv = terminal_velocity(tr, 0.5, P2)
    v_last = abs(tr.velocities[-1])
    assert tv.lo * 0.95 <= v_last <= tv.hi * 1.05


def test_velocity_bound_upper_examples():
    assert 1.0 / math.log(4.0 / 3.0) == pytest.approx(3.4761, abs=2e-4)
    b = velocity_bound_upper(1e4, P2)
    assert b == pytest.approx(1.5 * (2 * (1 / math.log(4 / 3)) * math.log(1e4) + 2),
                              rel=1e-12)
    assert b == pytest.approx(99.0, abs=0.1)
    prev = 0.0
    for T in (10, 100, 1000, 10_000, 100_000):
        cur = velocity_bound_upper(T, P2)
        assert cur >= prev
        prev = cur


def test_velocity_bound_lower_examples():
    lb = velocity_bound_lower(1e4, P2)
    assert lb.K2 == pytest.approx(0.63246, abs=1e-5)
    assert lb.bound == pytest.approx(1.4563, abs=1e-3)
    assert lb.R_T == pytest.approx(2.913, abs=1e-3)
    r1 = velocity_bound_lower(100.0, P2)
    r2 = velocity_bound_lower(10_000.0, P2)
    assert r1.bound / math.log(100.0) == pytest.approx(r2.bound / math.log(10_000.0))


def test_free_left_transversality_first_order():
    # zero initial momentum at the free endpoint forces the refined
    # first-segment momentum below the one-step force budget C*dt at every
    # resolution: |v0|^(beta-1) <= C dt, the first-order transversality rate
    T = 20.0
    v0 = {}
    for dt_scale in (1.0, 0.5, 0.25):
        U, curve, grid, lb = _accel_setup(T, margin=8.0, stencil=24, dx=0.02)
        g = GridSpec(grid.x_min, grid.x_max, grid.dx, grid.t1, grid.t2,
                     grid.dt * dt_scale, grid.v_max)
        tab = solve_dp(U, g, None, P2, keep_history=False)
        tr = refine(backtrack(tab, 0.0), U, P2, passes=20, free_left=True)
        v0[dt_scale] = abs(tr.velocities[0])
        assert v0[dt_scale] ** (P2.beta - 1.0) <= P2.C * g.dt_eff * 1.05 + 1e-12
    assert v0[0.25] < v0[1.0]   # decays with dt


def test_wT_lemma_and_progression_on_accelerating_run(random_minimizer_sweep):
    T = 50.0
    U, curve, grid, lb = _accel_setup(T)
    wgrid = comoving_window(curve, 8.0, grid)
    tab = solve_dp(U, wgrid, None, P2, keep_history=False)
    tr = backtrack(tab, 0.0)
    assert lemma_wT_margin(tr, P2, grid.dx) >= 0.0
    margin, pairs = progression_margins(tr, P2, grid.dx)
    assert pairs > 100
    assert margin >= 0.0
    # the random sweep's margins are checked in acceptance; smoke here
    _, margins = random_minimizer_sweep
    assert margins.min() >= 0.0


def test_unreachable_target_raises():
    g = GridSpec(x_min=0.0, x_max=2.0, dx=0.5, t1=0.0, t2=1.0, dt=0.5, v_max=1.1)
    S0 = np.full(g.n_x, np.inf)
    S0[0] = 0.0
    tab = solve_dp(zero_potential(), g, S0, P2)
    with pytest.raises(DomainError):
        backtrack(tab, 2.0)   # beyond the reachable cone from node 0
