import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from hjlab.core import (ModelParams, PathAction, PotentialField, Trajectory,
                        constant_potential, zero_potential)
import hjlab.minimizer as minimizer
from hjlab.minimizer import (DomainError, GridSpec, Window, WindowTouchError,
                             backtrack, comoving_window, enumerate_paths,
                             lemma_wT_margin, newton_polish,
                             progression_margins, refine, solve_dp, solve_dp_batched,
                             terminal_velocity,
                             velocity_bound_lower, velocity_bound_upper)
from hjlab.potentials import (PaceCurve, accelerating_potential, cosine_profile,
                              glued_potential, glued_schedule, periodic_potential,
                              random_potential)
from oracles import el_residual, jensen_lower_bound, path_cost

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

    return PotentialField(lambda ts, deriv: lambda x: (
        np.zeros_like(np.asarray(x, dtype=float)) if deriv else ev(x, ts)), bound=1.0)


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
    # the value after k slices is the final value of a k-slice solve
    g = GridSpec(x_min=-1, x_max=1, dx=0.5, t1=0, t2=1, dt=0.25, v_max=5)
    tab = solve_dp(constant_potential(0.7), g, None, P2)
    for k in range(1, g.n_steps + 1):
        gk = GridSpec(x_min=-1, x_max=1, dx=0.5, t1=0, t2=k * 0.25, dt=0.25, v_max=5)
        assert gk.n_steps == k
        tab_k = solve_dp(constant_potential(0.7), gk, None, P2)
        assert np.allclose(tab_k.final_values, -0.7 * k * gk.dt_eff)
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

    U = PotentialField(lambda ts, deriv: lambda x: (
        0.0 * np.asarray(x) if deriv else ev(x, ts)), bound=1.0)
    tab = solve_dp(U, g, None, P2)
    ev_vals, ev_paths = enumerate_paths(U, g, None, P2)
    assert np.array_equal(tab.final_values, ev_vals)


def _tabulated_field(g, vals, bound):
    """Kick potential U(x_i, t_k) = vals[k, i] on the lattice of g."""
    n_x, n_steps = g.n_x, g.n_steps

    def ev(x, t):
        xi = np.clip(np.round((np.asarray(x) - g.x_min) / g.dx).astype(int), 0, n_x - 1)
        ti = np.clip(np.round((np.asarray(t) - g.t1) / g.dt_eff), 0, n_steps + 1).astype(int)
        return vals[ti, xi]

    return PotentialField(lambda ts, deriv: lambda x: (
        np.zeros_like(np.asarray(x, dtype=float)) if deriv else ev(x, ts)), bound=bound)


@st.composite
def toy_batched_instances(draw, max_rows=4):
    """Toy grid, tabulated kick potential and up to max_rows S0 rows (Dirac,
    finite or partly +inf); the stencil ranges up to three nodes beyond the
    grid."""
    beta = draw(st.sampled_from([1.25, 1.5, 2.0, 3.0]))
    n_x = draw(st.integers(2, 6))
    n_steps = draw(st.integers(1, 4))
    dt = draw(st.sampled_from([0.1, 0.25, 0.4, 1.0]))
    m = draw(st.integers(1, n_x + 3))
    g = GridSpec(x_min=0.0, x_max=0.5 * (n_x - 1), dx=0.5, t1=0.0,
                 t2=dt * n_steps, dt=dt, v_max=(m + 0.5) * 0.5 / dt)
    vals = draw(arrays(np.float64, (n_steps + 2, n_x), elements=st.floats(0, 1)))
    U = _tabulated_field(g, vals, 1.0)
    rows = []
    for _ in range(draw(st.integers(1, max_rows))):
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


@settings(max_examples=100, deadline=None)
@given(toy_batched_instances(max_rows=7))
def test_batched_row_blocks_equal_dp_and_enumeration(instance):
    """Row blocks of 1 and 3 rows split up to 7 rows and leave a remainder;
    every block size gives the rows of solve_dp and enumerate_paths."""
    U, g, p, S0 = instance
    wants = [solve_dp(U, g, row, p).final_values for row in S0]
    assert all(np.array_equal(w, enumerate_paths(U, g, row, p)[0])
               for w, row in zip(wants, S0))
    saved = minimizer._BATCH_ROWS
    try:
        for rows in (1, 3):
            minimizer._BATCH_ROWS = rows
            got = solve_dp_batched(U, g, S0, p)
            assert got.tobytes() == np.array(wants).tobytes()
    finally:
        minimizer._BATCH_ROWS = saved


def _draw_window(draw, g):
    """g, or g with a random window whose slices stay connected."""
    n_x, n_steps, m = g.n_x, g.n_steps, g.stencil
    if draw(st.booleans()):
        lo = np.array(draw(st.lists(st.integers(0, n_x - 1), min_size=n_steps + 1,
                                    max_size=n_steps + 1)))
        width = np.array(draw(st.lists(st.integers(0, n_x - 1), min_size=n_steps + 1,
                                       max_size=n_steps + 1)))
        w = Window(lo=lo, hi=np.minimum(lo + width, n_x - 1))
        assume(not (np.any(w.lo[1:] > w.hi[:-1] + m) or np.any(w.hi[1:] < w.lo[:-1] - m)))
        g = g.with_window(w)
    return g


@st.composite
def tie_heavy_dp_instances(draw):
    """Integer-valued tabulated potential and S0 on a dyadic grid, so that
    candidate sums tie exactly across offsets; S0 partly +inf, an optional
    random window, stencils up to three nodes wider than the grid."""
    beta = draw(st.sampled_from([1.5, 2.0, 3.0]))
    n_x = draw(st.integers(2, 9))
    n_steps = draw(st.integers(1, 5))
    dt = draw(st.sampled_from([0.25, 0.5, 1.0]))
    m = draw(st.integers(1, n_x + 3))
    g = GridSpec(x_min=0.0, x_max=0.5 * (n_x - 1), dx=0.5, t1=0.0,
                 t2=dt * n_steps, dt=dt, v_max=(m + 0.5) * 0.5 / dt)
    vals = draw(arrays(np.float64, (n_steps + 2, n_x),
                       elements=st.integers(0, 2).map(float)))
    U = _tabulated_field(g, vals, 2.0)
    g = _draw_window(draw, g)
    lo0, hi0 = g.slice_range(0)
    S0 = np.array(draw(st.lists(st.integers(-3, 3).map(float), min_size=hi0 - lo0 + 1,
                                max_size=hi0 - lo0 + 1)))
    S0[np.array(draw(arrays(np.bool_, len(S0))))] = np.inf
    S0[draw(st.integers(0, len(S0) - 1))] = draw(st.integers(-3, 3).map(float))
    return U, g, ModelParams(beta=beta, C=2.0), S0


def _dyadic_walk(draw, n, start):
    """start plus a walk of n - 1 steps in {-1, 0, +1} / 16."""
    steps = draw(st.lists(st.integers(-1, 1), min_size=n - 1, max_size=n - 1))
    return start + np.cumsum([0] + steps) / 16.0


@st.composite
def smooth_dp_instances(draw):
    """Smooth-valued sibling of :func:`tie_heavy_dp_instances`: every row of
    the tabulated potential and a finite S0 are dyadic walks with steps of at
    most 1/16, so the first slice's source values step by at most 1/8 and its
    reach is below the stencil (at least 2) on every beta and dt drawn; sums
    still tie exactly.  The optional random window gives target strips past
    the source slice, which keep the full stencil."""
    beta = draw(st.sampled_from([1.5, 2.0, 3.0]))
    n_x = draw(st.integers(3, 12))
    n_steps = draw(st.integers(1, 5))
    dt = draw(st.sampled_from([0.25, 0.5, 1.0]))
    m = draw(st.integers(2, n_x + 3))
    g = GridSpec(x_min=0.0, x_max=0.5 * (n_x - 1), dx=0.5, t1=0.0,
                 t2=dt * n_steps, dt=dt, v_max=(m + 0.5) * 0.5 / dt)
    vals = np.array([_dyadic_walk(draw, n_x, 1.0) for _ in range(n_steps + 2)])
    U = _tabulated_field(g, vals, 2.0)
    g = _draw_window(draw, g)
    lo0, hi0 = g.slice_range(0)
    S0 = _dyadic_walk(draw, hi0 - lo0 + 1, float(draw(st.integers(-3, 3))))
    return U, g, ModelParams(beta=beta, C=2.0), S0


def _priority_argmin_oracle(U, g, S0, p):
    """Pure-Python sweep: each target takes the first strict minimum over the
    offsets in the order (|o|, o), i.e. 0, -1, +1, -2, +2, ...  Returns the
    final values and the offsets per slice."""
    m, dt = g.stencil, g.dt_eff
    xs, times = g.nodes(), g.times()
    cost = {o: abs(o * g.dx) ** p.beta / (p.beta * dt ** (p.beta - 1.0))
            for o in range(-m, m + 1)}
    order = [0] + [s * o for o in range(1, m + 1) for s in (-1, 1)]
    lo, hi = g.slice_range(0)
    prev = {i: float(v) for i, v in zip(range(lo, hi + 1), S0)}
    offsets = []
    for k in range(g.n_steps):
        u = U.value(xs, times[k])
        adjusted = {i: prev[i] - dt * float(u[i]) for i in prev}
        lo, hi = g.slice_range(k + 1)
        nxt, offs = {}, []
        for j in range(lo, hi + 1):
            best, arg = None, None
            for o in order:
                c = adjusted.get(j + o, math.inf) + cost[o]
                if best is None or c < best:
                    best, arg = c, o
            nxt[j] = best
            offs.append(arg)
        prev = nxt
        offsets.append(offs)
    return np.array([prev[j] for j in sorted(prev)]), offsets


@settings(max_examples=200, deadline=None)
@given(tie_heavy_dp_instances())
def test_solve_dp_backpointers_equal_priority_argmin(instance):
    """Values and every offset equal a pure-Python argmin in the order
    (|o|, o), on both relaxation paths of solve_dp."""
    U, g, p, S0 = instance
    values, offsets = _priority_argmin_oracle(U, g, S0, p)
    saved = minimizer._DP_SCAN_WIDTH
    try:
        for scan_width in (1, 10 ** 9):      # every slice scanned / argmin'd
            minimizer._DP_SCAN_WIDTH = scan_width
            try:
                tab = solve_dp(U, g, S0, p)
            except DomainError:
                assume(False)                # a slice cut off from all sources
            assert tab.final_values.tobytes() == values.tobytes()
            assert [o.tolist() for o in tab.offsets] == offsets
    finally:
        minimizer._DP_SCAN_WIDTH = saved


@settings(max_examples=200, deadline=None)
@given(smooth_dp_instances())
def test_solve_dp_pruned_sweep_equals_priority_argmin(instance):
    """On smooth slices the sweep skips offsets past the certified reach, and
    values and every offset still equal the full-stencil priority argmin on
    both relaxation paths."""
    U, g, p, S0 = instance
    values, offsets = _priority_argmin_oracle(U, g, S0, p)
    reach, pruned = minimizer._reach, []

    def spy(costs, a, k, out=None):
        r = reach(costs, a, k, out)
        pruned.append(r < len(costs) - 1)
        return r

    saved = minimizer._DP_SCAN_WIDTH
    try:
        minimizer._reach = spy
        for scan_width in (1, 10 ** 9):
            minimizer._DP_SCAN_WIDTH = scan_width
            try:
                tab = solve_dp(U, g, S0, p)
            except DomainError:
                assume(False)
            assert tab.final_values.tobytes() == values.tobytes()
            assert [o.tolist() for o in tab.offsets] == offsets
    finally:
        minimizer._DP_SCAN_WIDTH = saved
        minimizer._reach = reach
    assert pruned[0] and pruned[g.n_steps]   # the first slice prunes on both paths


@settings(max_examples=300, deadline=None)
@given(beta=st.sampled_from([1.5, 2.0, 3.0]), dt=st.sampled_from([0.25, 0.5, 1.0]),
       m=st.integers(1, 12), start=st.integers(-64, 64),
       steps=st.lists(st.integers(-8, 8), max_size=40),
       scale=st.sampled_from([1 / 64, 1 / 16, 1 / 4, 1.0]))
def test_reach_certifies_skipped_offsets(beta, dt, m, start, steps, scale):
    """Every candidate past the reach is >= the offset-0 candidate in floats,
    on smooth dyadic slices where ties are exact."""
    g = GridSpec(x_min=0.0, x_max=0.5 * m, dx=0.5, t1=0.0, t2=dt, dt=dt,
                 v_max=(m + 0.5) * 0.5 / dt)
    assert g.stencil == m
    half = minimizer._transition_costs(g, beta)[m:]
    a = (start + np.cumsum([0] + steps)) * scale
    r = minimizer._reach(half, a, 0)
    assert 0 <= r <= m
    for j in range(len(a)):
        for o in range(r + 1, m + 1):
            for s in (-o, o):
                if 0 <= j + s < len(a):
                    assert a[j + s] + half[o] >= a[j] + half[0]


def test_reach_pinned_and_non_finite():
    # dx = 0.5, dt = 1, beta = 2: half[o] = o^2 / 8; slope D = 1/2 leaves
    # o <= 4 (o = 4 ties offset 0 exactly, so it stays in play)
    g = GridSpec(x_min=0.0, x_max=5.0, dx=0.5, t1=0.0, t2=1.0, dt=1.0, v_max=5.25)
    m = g.stencil
    half = minimizer._transition_costs(g, 2.0)[m:]
    assert m == 10 and half[4] == 2.0
    a = 0.5 * np.arange(20.0)
    assert minimizer._reach(half, a, 0) == 4
    assert minimizer._reach(half, -a, 0) == 4
    # rows of a block share the largest step, written to the scratch buffer
    out = np.empty((2, 19))
    assert minimizer._reach(half, np.stack([a, 2.0 * a]), 0, out=out) == 8
    assert np.array_equal(out[1], np.ones(19))
    assert minimizer._reach(half, np.zeros(20), 0) == 0
    assert minimizer._reach(half, a[:1], 0) == 0
    for bad in (np.inf, -np.inf):
        b = a.copy()
        b[7] = bad
        assert minimizer._reach(half, b, 0) == m
    cone = np.full(20, np.inf)
    cone[9] = 0.0
    assert minimizer._reach(half, cone, 0) == m
    # a NaN raises, naming the slice: through D, next to +inf cells, and on
    # one node, where there is no difference to carry it
    for b in (a.copy(), cone.copy(), a[:1].copy(), np.stack([a, a])):
        b.flat[b.size // 2] = np.nan
        with pytest.raises(DomainError, match="NaN source value at slice 3"):
            minimizer._reach(half, b, 3)


def test_nan_source_value_raises():
    g = GridSpec(x_min=-1.0, x_max=1.0, dx=0.5, t1=0.0, t2=1.0, dt=0.5, v_max=2.0)
    S0 = np.zeros(g.n_x)
    S0[2] = np.nan
    # a NaN initial value is a configuration error (ValueError, CLI exit 2);
    # a NaN potential value fails the run (DomainError, CLI exit 1); the
    # batched sweep, where np.minimum would spread a NaN, agrees
    for sweep in (lambda U, row: solve_dp(U, g, row, P2),
                  lambda U, row: solve_dp_batched(U, g, np.vstack([np.zeros(g.n_x), row]), P2)):
        with pytest.raises(ValueError, match="is not a number") as err:
            sweep(zero_potential(), S0)
        assert not isinstance(err.value, DomainError)
        for t_nan, k in ((-1.0, 0), (0.2, 1)):
            U = PotentialField(lambda ts, deriv, t_nan=t_nan: lambda x: (
                0.0 * x if deriv else np.where(ts > t_nan, np.nan, 0.0 * x)), bound=1.0)
            with pytest.raises(DomainError, match=f"NaN source value at slice {k}"):
                sweep(U, np.zeros(g.n_x))


def _nan_field(nan_at):
    """Zero potential, NaN at the (x, t) where nan_at holds."""
    return PotentialField(lambda ts, deriv: lambda x: (
        0.0 * x if deriv else np.where(nan_at(x, ts), np.nan, 0.0 * x)), bound=1.0)


def test_nan_guard_rides_the_reach_in_both_sweeps():
    """The NaN guard runs only when the reach's D is not finite or holds no
    difference; each case still raises naming the slice, in both sweeps."""
    g = GridSpec(x_min=-1.0, x_max=1.0, dx=0.5, t1=0.0, t2=1.0, dt=0.5, v_max=2.0)
    one = GridSpec(x_min=0.0, x_max=0.1, dx=1.0, t1=0.0, t2=1.0, dt=0.5, v_max=2.0)
    assert (g.n_x, g.n_steps, g.stencil) == (5, 2, 2) and one.n_x == 1
    dirac = np.full(5, np.inf)
    dirac[0] = 0.0
    # a NaN at slice 0; one at slice 1 next to the +inf cells of a Dirac
    # cone; one on a one-node grid, with no difference to make D NaN
    cases = [(g, np.zeros(5), lambda x, t: (x == 0.0) & (t < 0.25), 0),
             (g, dirac, lambda x, t: (x == -0.5) & (t > 0.25), 1),
             (one, np.zeros(1), lambda x, t: t > 0.25, 1)]
    for grid, S0, nan_at, k in cases:
        U = _nan_field(nan_at)
        for sweep in (lambda: solve_dp(U, grid, S0, P2),
                      lambda: solve_dp_batched(U, grid, np.vstack([S0, S0]), P2)):
            with pytest.raises(DomainError, match=f"NaN source value at slice {k}:"):
                sweep()
    # a one-node window slice carries the NaN alone; a NaN only at nodes
    # outside every window is never a source value
    w = g.with_window(Window(lo=np.array([0, 2, 0]), hi=np.array([4, 2, 4])))
    with pytest.raises(DomainError, match="NaN source value at slice 1:"):
        solve_dp(_nan_field(lambda x, t: (x == 0.0) & (t > 0.25)), w, None, P2)
    tab = solve_dp(_nan_field(lambda x, t: (x == 1.0) & (t > 0.25)), w, None, P2)
    assert np.array_equal(tab.final_values,
                          solve_dp(zero_potential(), w, None, P2).final_values)
    with pytest.raises(ValueError, match="is not a number") as err:
        solve_dp(zero_potential(), one, np.array([np.nan]), P2)
    assert not isinstance(err.value, DomainError)


def _block_test_fields():
    sched = glued_schedule(0.25, 5.0, K2, 1.0, 2.0, 2, cap=30.0)
    profiles = [cosine_profile(0.5, 2.0), cosine_profile(0.3, -1.0, 0.4)]
    return {
        "accelerating": (accelerating_potential(0.0, 0.0, 20.0, K2, 1.0, 2.0), 0.0, 20.0),
        # stage 2 covers (-35, -5], stage 1 (-5, 0]
        "glued": (glued_potential(sched), -sched.S_final, 0.0),
        "periodic-cosine": (periodic_potential(cosine_profile(1.0, 1.0), 3.0), 0.0, 20.0),
        "periodic-constant": (periodic_potential(cosine_profile(1.0, 1.0), 3.0,
                                                 "constant"), 0.0, 20.0),
        "random": (random_potential(3, profiles, 1.5, 0.0, 20.0), 0.0, 20.0),
        "constant": (constant_potential(0.7), 0.0, 20.0),
        "zero": (zero_potential(), 0.0, 20.0),
    }


@pytest.mark.parametrize("kind", list(_block_test_fields()))
def test_block_kicks_equal_per_slice_values(kind, monkeypatch):
    """Each row of a block evaluation is dt * U.value(x, t_k) on its slice's
    nodes, bit for bit, for every potential kind, on ragged windows and on
    the full grid, in one block and in many."""
    U, t1, t2 = _block_test_fields()[kind]
    grid = GridSpec(-12.0, 2.0, 0.25, t1, t2, (t2 - t1) / 60, 10.0)
    rng = np.random.default_rng(11)
    lo = rng.integers(0, grid.n_x, grid.n_steps)
    hi = np.minimum(lo + rng.integers(0, grid.n_x, grid.n_steps), grid.n_x - 1)
    x, times, dt = grid.nodes(), grid.times(), grid.dt_eff
    for bounds in (list(zip(lo.tolist(), hi.tolist())), [(0, grid.n_x - 1)] * grid.n_steps):
        want = [(dt * np.asarray(U.value(x[a:b + 1], times[k]), dtype=float)).tobytes()
                for k, (a, b) in enumerate(bounds)]
        for cells in (minimizer._BLOCK_CELLS, 150):
            monkeypatch.setattr(minimizer, "_BLOCK_CELLS", cells)
            assert [row.tobytes() for row in minimizer._kicks(U, grid, bounds)] == want


def test_sweeps_call_the_potential_once_per_block():
    """On a 200-slice grid both sweeps call the potential fewer times than
    there are slices."""
    base = accelerating_potential(0.0, 0.0, 20.0, K2, 1.0, 2.0)
    calls = []

    def counted(ts, deriv):
        calls.append(np.shape(ts))
        return base.slice_fn(ts, deriv)

    U = PotentialField(counted, bound=1.0, support_hint=base.support_hint)
    grid = GridSpec(-16.0, 1.0, 0.25, 0.0, 20.0, 0.1, 6.0)
    wgrid = comoving_window(U, 2.0, grid)
    assert grid.n_steps == 200 and wgrid.window.width().max() < grid.n_x
    for sweep in (lambda: solve_dp(U, wgrid, None, P2),
                  lambda: solve_dp_batched(U, grid, np.zeros((3, grid.n_x)), P2)):
        calls.clear()
        sweep()
        assert 0 < len(calls) < grid.n_steps


def test_out_of_range_target_raises():
    g = GridSpec(x_min=-1.0, x_max=1.0, dx=0.1, t1=0.0, t2=1.0, dt=0.1, v_max=2.0)
    tab = solve_dp(zero_potential(), g, None, P2)
    for x in (50.0, 1.06, -1.06, math.nan):
        with pytest.raises(DomainError, match="outside the grid"):
            backtrack(tab, x)
        with pytest.raises(DomainError, match="outside the grid"):
            tab.value_at(x)
    # within dx/2 of the end nodes x still snaps to them
    assert backtrack(tab, 1.04).positions[-1] == 1.0
    assert tab.value_at(-1.04) == 0.0
    # on a windowed grid, a target on the grid but past the final slice's
    # window is a window touch (a wider window holds it), off the grid a
    # domain error
    w = Window(lo=np.full(g.n_steps + 1, 5), hi=np.full(g.n_steps + 1, 15))
    wtab = solve_dp(zero_potential(), g.with_window(w), None, P2)
    assert wtab.value_at(0.5) == 0.0
    for x in (0.56, -0.56, 1.0):
        with pytest.raises(WindowTouchError, match="window edge"):
            wtab.value_at(x)
        with pytest.raises(WindowTouchError, match="window edge"):
            backtrack(wtab, x)
    with pytest.raises(DomainError, match="outside the grid"):
        backtrack(wtab, 1.06)


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
    full = solve_dp(U, grid, None, P2)
    tr_full = backtrack(full, 0.0)

    wgrid = comoving_window(U, 8.0, grid)
    win = solve_dp(U, wgrid, None, P2)
    tr_win = backtrack(win, 0.0)
    assert np.array_equal(tr_full.positions, tr_win.positions)
    assert full.value_at(0.0) == win.value_at(0.0)

    capped = comoving_window(U, 8.0, grid, detach_cap=20.0)
    cap_tab = solve_dp(U, capped, None, P2)
    tr_cap = backtrack(cap_tab, 0.0)
    assert np.array_equal(tr_full.positions, tr_cap.positions)

    cells_full = grid.n_x * (grid.n_steps + 1)
    cells_cap = int(np.sum(capped.window.width()))
    assert cells_cap < 0.6 * cells_full


def test_windowed_equals_full_on_glued_field():
    # the window follows the glued field's own edge across the stage join
    sched = glued_schedule(0.25, 5.0, K2, 1.0, 2.0, 2, cap=30.0)
    U, S = glued_potential(sched), sched.S_final
    grid = GridSpec(U.support_hint(-S)[1] - 10.0, 1.0, 0.1, -S, 0.0, 0.05, 6.0)
    wgrid = comoving_window(U, 8.0, grid)
    assert np.sum(wgrid.window.width()) < 0.8 * grid.n_x * (grid.n_steps + 1)
    full = solve_dp(U, grid, None, P2)
    win = solve_dp(U, wgrid, None, P2)
    for x in (-0.5, 0.0, 0.5):
        assert np.array_equal(backtrack(full, x).positions,
                              backtrack(win, x).positions)
        assert full.value_at(x) == win.value_at(x)


@st.composite
def small_accelerating_grids(draw):
    """Accelerating field at 0.5-1.5 times its K2 on a coarse grid from the
    window's bottom at t1 (plus up to 4 below) to x = 2, with a co-moving
    margin, an optional detachment cap and a terminal target."""
    beta = draw(st.sampled_from([1.5, 2.0, 3.0]))
    p = ModelParams(beta=beta, C=1.0)
    T = draw(st.floats(5.0, 30.0))
    K = velocity_bound_lower(T, p).K2 * draw(st.floats(0.5, 1.5))
    U = accelerating_potential(0.0, 0.0, T, K, 1.0, beta)
    dx = draw(st.sampled_from([0.1, 0.2]))
    v_max = max(4.0 * K * math.log(T) ** (2.0 / beta), 2.0)
    margin = draw(st.floats(2.5, 10.0))
    x_min = U.support_hint(0.0)[1] - margin - 2.0 - draw(st.floats(0.0, 4.0))
    grid = GridSpec(x_min, 2.0, dx, 0.0, T, draw(st.integers(4, 24)) * dx / v_max,
                    v_max)
    detach_cap = draw(st.none() | st.floats(2.0, 20.0))
    return U, p, grid, margin, detach_cap, draw(st.floats(-1.0, 1.0))


@settings(max_examples=25, deadline=None)
@given(small_accelerating_grids())
def test_windowed_equals_full_property(instance):
    """A window only removes paths, so its value is never below the full
    grid's.  Without a detachment cap, a windowed path that touches no
    window edge has the full value to rounding.  Bit equality is not a
    property: on the flat plateau near-tied paths can differ in the last
    bits.  A detachment cap can also exclude the static minimizer without
    any touch (README, the windowed-runs caveat), so with a cap only the
    bound is asserted."""
    U, p, grid, margin, detach_cap, x = instance
    full = solve_dp(U, grid, None, p)
    win = solve_dp(U, comoving_window(U, margin, grid, detach_cap=detach_cap),
                   None, p)
    assert win.value_at(x) >= full.value_at(x)
    try:
        backtrack(win, x)
    except WindowTouchError:
        return
    if detach_cap is None:
        assert win.value_at(x) == pytest.approx(full.value_at(x), rel=1e-12, abs=1e-12)


def test_comoving_window_needs_support_hint():
    U = periodic_potential(cosine_profile(1.0), 1.0)
    grid = GridSpec(-5.0, 5.0, 0.1, 0.0, 1.0, 0.05, 6.0)
    with pytest.raises(ValueError, match="support_hint"):
        comoving_window(U, 8.0, grid)


def test_window_touch_error():
    T = 50.0
    U, curve, grid, lb = _accel_setup(T)
    tight = comoving_window(U, 1.9, grid)   # below the bump width
    tab = solve_dp(U, tight, None, P2)
    with pytest.raises(WindowTouchError):
        backtrack(tab, 0.0)


def test_comoving_cell_reduction_at_1e3():
    T = 1000.0
    U, curve, grid, lb = _accel_setup(T, margin=10.0, stencil=30)
    capped = comoving_window(U, 10.0, grid,
                             detach_cap=max(40.0, 4 * math.log(T) ** 2))
    cells_full = grid.n_x * (grid.n_steps + 1)
    cells_win = int(np.sum(capped.window.width()))
    assert cells_win < 0.15 * cells_full    # measured ~0.09


def test_refine_straight_line_unchanged():
    tr = Trajectory(np.linspace(0, 1, 21), 2.0 * np.linspace(0, 1, 21))
    out = refine(tr, zero_potential(), P2, passes=3)
    # golden-section float dust only; the optimum is already attained
    assert np.max(np.abs(out.positions - tr.positions)) < 1e-7
    pa = PathAction(tr.times, zero_potential(), P2)
    assert pa.action(out.positions) <= pa.action(tr.positions) + 1e-15


def test_refine_perturbed_line_approaches_jensen():
    rng = np.random.default_rng(2)
    t = np.linspace(0, 1, 41)
    x = t * 1.5 + 0.08 * rng.standard_normal(41)
    x[0], x[-1] = 0.0, 1.5
    tr = Trajectory(t, x)
    U0 = zero_potential()
    jb = jensen_lower_bound(1.5, 1.0, P2)
    pa = PathAction(t, U0, P2)
    a0 = pa.action(x)
    out = refine(tr, U0, P2, passes=200, rel_tol=1e-14)
    a1 = pa.action(out.positions)
    assert a1 <= a0
    assert a1 - jb < 0.02 * (a0 - jb)


def test_refine_reduces_el_residual():
    T = 50.0
    U, curve, grid, lb = _accel_setup(T)
    wgrid = comoving_window(U, 8.0, grid)
    tab = solve_dp(U, wgrid, None, P2)
    tr = backtrack(tab, 0.0)
    out = refine(tr, U, P2, passes=8)
    r0 = np.max(np.abs(el_residual(tr, U, P2)))
    r1 = np.max(np.abs(el_residual(out, U, P2)))
    assert r1 <= r0


def test_refine_free_left_moves_two_node_path():
    """A two-node path has no interior node; with free_left its first node
    is still moved, and the action on the T = 20 accelerating field falls
    (it stayed at 5.375 when such a path was returned unmoved)."""
    U = accelerating_potential(0.0, 0.0, 20.0, velocity_bound_lower(20.0, P2).K2,
                               1.0, 2.0)
    tr = Trajectory(np.array([19.0, 20.0]), np.array([-3.3, 0.0]))
    pa = PathAction(tr.times, U, P2)
    out = refine(tr, U, P2, passes=30, free_left=True)
    assert out.positions[-1] == 0.0
    assert pa.action(out.positions) < pa.action(tr.positions) - 5.0
    assert refine(tr, U, P2, passes=30).positions.tobytes() == tr.positions.tobytes()


def _coalescing_paths(seed, n, tails):
    """Paths on one time grid of n >= 2 nodes that share a prefix: per path
    a (k, size) pair adds noise of that size to the shared path's nodes k
    and up (size 0 or k = n keeps it equal).  The shared path's first step
    dominates the small noises, so brackets come out equal and unequal."""
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 3.0, n)
    base = 1.5 * t + 0.2 * rng.standard_normal(n)
    base[0] -= 1.0
    paths = []
    for k, size in tails:
        x = base.copy()
        x[k:] += size * rng.standard_normal(n - k)
        paths.append(Trajectory(t, x))
    return paths


@st.composite
def coalescing_paths(draw):
    n = draw(st.integers(2, 64))
    tails = draw(st.lists(st.tuples(st.integers(0, n).map(lambda j: n - j),
                                    st.sampled_from([0.0, 0.01, 0.1, 1.0])),
                          min_size=2, max_size=4))
    return _coalescing_paths(draw(st.integers(0, 2**32 - 1)), n, tails)


@settings(max_examples=30, deadline=None)
@given(paths=coalescing_paths(), passes=st.integers(1, 10),
       rel_tol=st.sampled_from([0.3, 0.1, 0.03, 1e-10]), free_left=st.booleans())
# two paths share a bracket and a trunk, a third has a bracket 2% wider; a
# group's follower stops while its lead runs on; a lead stops and the next
# row takes the trunk over
@example(paths=_coalescing_paths(0, 30, [(30, 0.0), (12, 0.01), (1, 0.01)]),
         passes=3, rel_tol=1e-10, free_left=False)
@example(paths=_coalescing_paths(158, 40, [(39, 0.0), (21, 0.1)]),
         passes=7, rel_tol=0.03, free_left=True)
@example(paths=_coalescing_paths(558, 44, [(33, 0.01), (34, 0.1), (22, 0.01)]),
         passes=7, rel_tol=0.03, free_left=True)
def test_refine_batch_equals_per_path(paths, passes, rel_tol, free_left):
    """A batch refines each path bit for bit as refine does alone, with
    shared trunks, equal and unequal brackets and rows that stop at
    different passes."""
    U = periodic_potential(cosine_profile(1.0, 1.3), 1.0)
    kw = dict(passes=passes, rel_tol=rel_tol, free_left=free_left)
    batch = refine(paths, U, P2, **kw)
    assert len(batch) == len(paths)
    for path, out in zip(paths, batch):
        assert out.positions.tobytes() == refine(path, U, P2, **kw).positions.tobytes()


def test_newton_polish_reaches_stationarity():
    T = 8.0
    U = accelerating_potential(0.0, 0.0, T, K2, P2.C, P2.beta)
    edge = PaceCurve(K=K2, T=T, beta=2.0).value(T)
    grid = GridSpec(-edge - 6.0, 1.0, 0.025, 0.0, T, 0.1, 6.0)
    tr = refine(backtrack(solve_dp(U, grid, None, P2), 0.0), U, P2, passes=5,
                free_left=True)
    pa = PathAction(tr.times, U, P2)
    assert np.max(np.abs(pa.grad(tr.positions)[:-1])) > 1e-3   # not yet stationary
    out = newton_polish(tr, U, P2)
    assert out.positions[-1] == tr.positions[-1]                # terminal node pinned
    assert np.max(np.abs(pa.grad(out.positions)[:-1])) < 1e-8
    assert pa.action(out.positions) <= pa.action(tr.positions)


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
    wgrid = comoving_window(U, 10.0, grid,
                            detach_cap=max(40.0, 4 * math.log(T) ** 2))
    tab = solve_dp(U, wgrid, None, P2)
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
        tab = solve_dp(U, g, None, P2)
        tr = refine(backtrack(tab, 0.0), U, P2, passes=20, free_left=True)
        v0[dt_scale] = abs(tr.velocities[0])
        assert v0[dt_scale] ** (P2.beta - 1.0) <= P2.C * g.dt_eff * 1.05 + 1e-12
    assert v0[0.25] < v0[1.0]   # decays with dt


@pytest.mark.parametrize("beta, digest", [
    (2.0, "4e01603c736f8bf6f1137d16acd953ef4fe9c76b3b2ea682bc392ab54953a0e9"),
    (3.0, "5b1d6b40d58267a554529ae90627a46661303e31a5dc373fdea6eba7ae43bf5a"),
])
def test_refine_free_left_pinned_bits(beta, digest):
    """refine(passes=30, free_left=True) on criterion 12's accelerating
    instance (T = 20, dt = 0.04, dx = 0.01, target 0), each beta with its own
    K2: the refined positions, the moved first node included, keep their
    float64 bytes (SHA-256)."""
    T, dt = 20.0, 0.04
    p = ModelParams(beta, 1.0)
    K = velocity_bound_lower(T, p).K2
    U = accelerating_potential(0.0, 0.0, T, K, p.C, beta)
    edge = PaceCurve(K=K, T=T, beta=beta).value(T)
    grid = GridSpec(-edge - 8.0, 1.0, dt / 4.0, 0.0, T, dt,
                    max(4.0 * K * math.log(T), 4.0 * math.sqrt(2.0)))
    tr = backtrack(solve_dp(U, grid, None, p), 0.0)
    out = refine(tr, U, p, passes=30, free_left=True)
    assert out.positions[0] != tr.positions[0]
    assert hashlib.sha256(out.positions.tobytes()).hexdigest() == digest


def test_wT_lemma_and_progression_on_accelerating_run(random_minimizer_sweep):
    T = 50.0
    U, curve, grid, lb = _accel_setup(T)
    wgrid = comoving_window(U, 8.0, grid)
    tab = solve_dp(U, wgrid, None, P2)
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
