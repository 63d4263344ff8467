import math

import numpy as np
import pytest

from hjlab.core import ModelParams, PotentialField, constant_potential, zero_potential
from hjlab.laxoleinik import (GridFunction, domination_defect, flow_defect,
                              gridfunction_from_csv, gridfunction_to_csv,
                              identity_kernel, kernel, kernel_bounds_defect,
                              kernel_to_csv, lipschitz_in_large_constant,
                              minplus_apply, minplus_compose, truncated_kernel)
from hjlab.minimizer import GridSpec, enumerate_paths
from hjlab.potentials import accelerating_potential, cosine_profile, periodic_potential

P2 = ModelParams(beta=2.0, C=1.0)


def small_grid(x_min=0.0, x_max=4.0, dx=0.1, t1=0.0, t2=1.0, dt=0.1, v_max=9.0):
    return GridSpec(x_min=x_min, x_max=x_max, dx=dx, t1=t1, t2=t2, dt=dt, v_max=v_max)


def test_zero_potential_kernel_matches_formula():
    g = small_grid()
    k = kernel(zero_potential(), 0.0, 1.0, g, P2)
    disp = k.displacement()
    exact = np.abs(disp) ** 2 / 2.0
    fin = np.isfinite(k.entries)
    dev = np.max(np.abs(k.entries - exact)[fin])
    slope = np.max(np.abs(disp)) / 1.0
    assert dev <= 2 * g.dx * slope
    lo, up = kernel_bounds_defect(k, P2)
    assert lo == 0.0
    assert up <= dev + 1e-12


def test_kernel_golden_digest():
    """Criterion 5's accelerating kernel at a coarse dx reproduces pinned
    bytes: the whole-horizon kernel (every entry finite) and a one-unit
    kernel (a band of finite entries, +inf outside it).  Any change to the
    batched sweep's arithmetic shows here.  Recorded with numpy 2.4 /
    scipy 1.17 on x86-64; another libm may round the potential's pow, log
    and incomplete-gamma calls differently and would need its own pin."""
    import hashlib

    T = 50.0
    U = accelerating_potential(0.0, 0.0, T, math.sqrt(2.0 / 5.0), 1.0, 2.0)
    g = GridSpec(-18.0, 2.5, 0.25, 0.0, T, 0.5, 6.0)
    h = hashlib.sha256()
    for t1, t2 in ((0.0, T), (T - 1.0, T)):
        h.update(kernel(U, t1, t2, g, P2).entries.tobytes())
    assert h.hexdigest() == \
        "a5fafa762bb4f88cc2e47563ecc2d604b9935054740a67f0b9adae44de85ff99"


def test_kernel_byte_budget(monkeypatch):
    """kernel() refuses a kernel whose two live rows x n_x float64 matrices
    exceed the byte budget, before it allocates them."""
    import tracemalloc

    import hjlab.laxoleinik as lo

    over = GridSpec(0.0, 8.192, 0.001, 0.0, 1.0, 0.1, 1.0)    # 8193 nodes
    assert 2 * over.n_x ** 2 * 8 > lo._KERNEL_BYTE_BUDGET >= 2 * (over.n_x - 1) ** 2 * 8
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="over the 1073741824-byte budget"):
            kernel(zero_potential(), 0.0, 1.0, over, P2)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()
    # the budget counts both n x n matrices: it passes at 2 n^2 8 bytes and
    # fails one byte under
    g = small_grid(x_max=2.0)                  # 21 nodes
    monkeypatch.setattr(lo, "_KERNEL_BYTE_BUDGET", 2 * 21 * 21 * 8)
    assert kernel(zero_potential(), 0.0, 1.0, g, P2).entries.shape == (21, 21)
    monkeypatch.setattr(lo, "_KERNEL_BYTE_BUDGET", 2 * 21 * 21 * 8 - 1)
    with pytest.raises(ValueError, match="budget"):
        kernel(zero_potential(), 0.0, 1.0, g, P2)


def test_diagonal_range_under_any_potential():
    g = small_grid()
    for U in (zero_potential(), constant_potential(1.0),
              periodic_potential(cosine_profile(1.0, 1.3), 1.0)):
        k = kernel(U, 0.0, 1.0, g, P2)
        d = np.diag(k.entries)
        assert np.all(d <= 1e-12)
        assert np.all(d >= -1.0 * 1.0 - 1e-12)


def test_kernel_matches_path_enumeration_toy():
    rng = np.random.default_rng(5)
    g = GridSpec(x_min=0.0, x_max=1.0, dx=0.5, t1=0.0, t2=0.75, dt=0.25, v_max=2.1)
    vals = rng.uniform(0, 1, size=(g.n_steps + 2, g.n_x))

    def ev(x, t):
        xi = np.clip(np.round(np.asarray(x) / g.dx).astype(int), 0, g.n_x - 1)
        ti = np.clip(np.asarray(t) / g.dt_eff, 0, g.n_steps + 1).astype(int)
        return vals[ti, xi]

    U = PotentialField(lambda ts, deriv: lambda x: (
        0.0 * np.asarray(x) if deriv else ev(x, ts)), bound=1.0)
    k = kernel(U, 0.0, 0.75, g, P2)
    for i in range(g.n_x):
        S0 = np.full(g.n_x, np.inf)
        S0[i] = 0.0
        ev_vals, _ = enumerate_paths(U, g, S0, P2)
        assert np.array_equal(k.entries[i], ev_vals)


def test_minplus_apply_constant_and_deep_minimum():
    g = small_grid()
    k = kernel(zero_potential(), 0.0, 1.0, g, P2)
    S = GridFunction(k.source_nodes, np.full(len(k.source_nodes), 2.5))
    TS, args = minplus_apply(k, S)
    assert np.allclose(TS.values, 2.5)
    assert np.array_equal(args, np.arange(len(k.source_nodes)))

    # single deep minimum spreads as S(y*) + |x-y*|^beta/(beta tau^(beta-1))
    vals = np.full(len(k.source_nodes), 50.0)
    istar = len(vals) // 2
    vals[istar] = -5.0
    S2 = GridFunction(k.source_nodes, vals)
    TS2, _ = minplus_apply(k, S2)
    ystar = k.source_nodes[istar]
    near = np.abs(k.target_nodes - ystar) < 1.5
    predicted = -5.0 + np.abs(k.target_nodes[near] - ystar) ** 2 / 2.0
    assert np.max(np.abs(TS2.values[near] - predicted)) <= 2 * g.dx * 3.0

    # T S <= S pointwise when A(x,x) <= 0
    assert np.all(TS2.values <= S2.values + 1e-12)


def test_minplus_compose_quadratic_and_identity():
    g = small_grid(dt=0.125)
    k1 = kernel(zero_potential(), 0.0, 0.5, g, P2)
    k2 = kernel(zero_potential(), 0.5, 1.0, g, P2)
    comp = minplus_compose(k1, k2)
    disp = comp.target_nodes[None, :] - comp.source_nodes[:, None]
    cont = np.abs(disp) ** 2 / 2.0
    fin = np.isfinite(comp.entries)
    assert np.max(np.abs(comp.entries - cont)[fin]) <= 2 * g.dx * 4.0

    ident = identity_kernel(k1.target_nodes, 0.5)
    same = minplus_compose(k1, ident)
    assert np.array_equal(same.entries, k1.entries)

    with pytest.raises(ValueError):
        minplus_compose(k1, kernel(zero_potential(), 0.75, 1.0, g, P2))


def test_tropical_associativity():
    g = GridSpec(x_min=0.0, x_max=2.0, dx=0.25, t1=0.0, t2=0.75, dt=0.25, v_max=4.1)
    U = periodic_potential(cosine_profile(1.0, 1.1), 1.0)
    k1 = kernel(U, 0.0, 0.25, g, P2)
    k2 = kernel(U, 0.25, 0.5, g, P2)
    k3 = kernel(U, 0.5, 0.75, g, P2)
    left = minplus_compose(minplus_compose(k1, k2), k3)
    right = minplus_compose(k1, minplus_compose(k2, k3))
    fin = np.isfinite(left.entries) & np.isfinite(right.entries)
    assert np.max(np.abs(left.entries - right.entries)[fin]) <= 1e-12


def test_flow_defect_same_table_is_exact():
    g = small_grid(dt=0.125)
    k13 = kernel(zero_potential(), 0.0, 1.0, g, P2)
    k12 = kernel(zero_potential(), 0.0, 0.5, g, P2)
    k23 = kernel(zero_potential(), 0.5, 1.0, g, P2)
    # aligned slicing: the sweep is literally the composition
    assert flow_defect(k13, k12, k23) <= 1e-12


def _flow_misaligned(U, g, t_mid, n13_odd=True):
    p = P2
    k12 = kernel(U, g.t1, t_mid, g, p)
    k23 = kernel(U, t_mid, g.t2, g, p)
    # deliberately misaligned direct kernel: odd slice count puts no slice at
    # the split time, so the defect probes genuine discretization error
    n = int(round((g.t2 - g.t1) / g.dt))
    if n13_odd and n % 2 == 0:
        n += 1
    g13 = GridSpec(g.x_min, g.x_max, g.dx, g.t1, g.t2, (g.t2 - g.t1) / n, g.v_max)
    k13 = kernel(U, g.t1, g.t2, g13, p)
    return k13, k12, k23


def test_flow_defect_decays_with_resolution():
    # refinement law dt ~ sqrt(dx): the lattice speed quantum squared
    # (dx/dt)^2 is then Theta(dx), so kernel staircase errors halve with dx
    U = zero_potential()
    defects = {}
    for i, scale in enumerate((1.0, 0.5)):
        g = GridSpec(x_min=0.0, x_max=4.0, dx=0.1 * scale, t1=0.0, t2=1.0,
                     dt=0.1 * 2 ** (-i / 2.0), v_max=9.0)
        k13, k12, k23 = _flow_misaligned(U, g, 0.5)
        defects[scale] = flow_defect(k13, k12, k23)
    assert defects[0.5] <= 0.65 * defects[1.0] + 1e-9


def test_kernel_bounds_equality_cases():
    g = small_grid()
    k0 = kernel(zero_potential(), 0.0, 1.0, g, P2)
    lo, up = kernel_bounds_defect(k0, P2)
    assert lo <= 1e-9            # U = 0 sits on the upper branch
    kc = kernel(constant_potential(1.0), 0.0, 1.0, g, P2)
    lo, up = kernel_bounds_defect(kc, P2)
    assert up <= 1e-9            # U = C sits on the lower branch
    assert lo <= 2 * g.dx * 4.0


def test_domination_and_liplarge():
    g = small_grid()
    kc = kernel(constant_potential(1.0), 0.0, 1.0, g, P2)
    nodes = kc.source_nodes
    S_const = GridFunction(nodes, np.full(len(nodes), 1.23))
    assert domination_defect(S_const, kc, 1.0) <= 1e-12

    S_steep = GridFunction(nodes, 100.0 * nodes)
    assert domination_defect(S_steep, kc, 1.0) > 0.0

    # domination is preserved by the operator
    k0 = kernel(zero_potential(), 0.0, 1.0, g, P2)
    S = S_const
    d_prev = domination_defect(S, k0, 1.0)
    for _ in range(3):
        S, _ = minplus_apply(k0, S)
        d = domination_defect(S, k0, 1.0)
        assert d <= max(d_prev, 0.0) + 1e-9
        d_prev = d

    assert lipschitz_in_large_constant(S_const) == 0.0
    nodes01 = np.array([0.0, 0.25, 0.5, 1.0, 2.0])
    S_abs = GridFunction(nodes01, np.abs(nodes01))
    c = lipschitz_in_large_constant(S_abs)
    assert 0.5 <= c <= 1.0

    # dominated functions are Lipschitz in the large with the lemma constant
    tau = kc.tau
    bound = 1.0 / (P2.beta * tau ** (P2.beta - 1.0)) + 1.0 * tau
    S_dom, _ = minplus_apply(kc, S_const)
    assert lipschitz_in_large_constant(S_dom) <= bound + 1e-9


def test_truncated_kernel():
    g = small_grid()
    k = kernel(zero_potential(), 0.0, 1.0, g, P2)
    fin = np.isfinite(k.entries)
    tk = truncated_kernel(k, 1e9)
    assert np.array_equal(tk.entries[fin], k.entries[fin])

    # operator equality on Lipschitz-in-the-large inputs
    K_lip = 0.6
    nodes = k.source_nodes
    S = GridFunction(nodes, K_lip * np.abs(nodes - 1.7))
    assert lipschitz_in_large_constant(S) <= K_lip
    tk2 = truncated_kernel(k, K_lip)
    a1, _ = minplus_apply(k, S)
    a2, _ = minplus_apply(tk2, S)
    assert np.max(np.abs(a1.values - a2.values)) <= 1e-12

    # crossover radius: far pairs take the cap K(|x-y|+1)
    cap = K_lip * (np.abs(tk2.displacement()) + 1.0)
    far = np.abs(tk2.displacement()) > 2.5   # beyond R(K, tau) for tau = 1
    assert np.all(tk2.entries[far] == cap[far])
    assert np.any(tk2.entries[~far] < cap[~far])

    with pytest.raises(ValueError):
        truncated_kernel(k, 0.0)


def test_kernel_reflection_symmetry():
    g = GridSpec(x_min=-2.0, x_max=2.0, dx=0.2, t1=0.0, t2=1.0, dt=0.2, v_max=5.0)
    T = 30.0
    U = accelerating_potential(0.3, 0.0, 30.0, 0.5, 1.0, 2.0)
    U_ref = PotentialField(lambda ts, deriv: lambda x: (
        -np.asarray(U.grad(-np.asarray(x, dtype=float), ts)) if deriv
        else U.value(-np.asarray(x, dtype=float), ts)), bound=U.bound)
    k = kernel(U, 0.0, 1.0, g, P2)
    k_ref = kernel(U_ref, 0.0, 1.0, g, P2)
    assert np.array_equal(k_ref.entries, k.entries[::-1, ::-1])


def test_periodic_iteration_regularity():
    # from S = 0 under a period-1 potential: iterates stay C-dominated and
    # the Lipschitz-in-the-large constant stays bounded over 20 steps
    U = periodic_potential(cosine_profile(1.0, 1.0), 1.0)
    g = GridSpec(x_min=-7.0, x_max=7.0, dx=0.1, t1=0.0, t2=1.0, dt=0.1, v_max=6.0)
    k = kernel(U, 0.0, 1.0, g, P2)
    S = GridFunction(k.source_nodes, np.zeros(len(k.source_nodes)))
    tau = 1.0
    lip_bound = 1.0 / (P2.beta * tau ** (P2.beta - 1.0)) + P2.C * tau
    for n in range(20):
        assert domination_defect(S, k, P2.C) <= 1e-9
        assert lipschitz_in_large_constant(S) <= lip_bound + 1e-9
        S, _ = minplus_apply(k, S)


def test_csv_round_trips():
    g = small_grid(x_max=1.0)
    k = kernel(zero_potential(), 0.0, 1.0, g, P2)
    text = kernel_to_csv(k)
    assert text.startswith("y,x,A\n")
    S = GridFunction(np.array([0.0, 0.5, 1.0]), np.array([1.0, -2.0, 0.25]))
    rt = gridfunction_from_csv(gridfunction_to_csv(S))
    assert np.array_equal(rt.nodes, S.nodes)
    assert np.array_equal(rt.values, S.values)
