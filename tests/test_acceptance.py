"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Grid resolutions, tolerances and refinement protocols are pinned here; the
session fixtures in conftest.py supply the shared experiment pipelines.
"""

import math
import time

import numpy as np
import pytest

from hjlab.core import ModelParams, PathAction, Trajectory, legendre, zero_potential
from hjlab.experiments import ExperimentConfig, run_conjecture_probe, run_scaling
from hjlab.laxoleinik import flow_defect, kernel
from hjlab.minimizer import (GridSpec, backtrack, enumerate_paths,
                             newton_polish, progression_margins, refine,
                             solve_dp)
from hjlab.potentials import (PaceCurve, accelerating_potential, cosine_profile,
                              pace_main_gap, pace_residue, pace_s2_gap,
                              periodic_potential)
from hjlab.reports import emit
from oracles import el_residual, path_cost

P2 = ModelParams(beta=2.0, C=1.0)
K2 = math.sqrt(2.0 / 5.0)

GRID_BETAS = (1.5, 2.0, 3.0)
GRID_FRACTIONS = (0.01, 0.1, 0.5, 1.0)
GRID_HORIZONS = (1e2, 1e4)


def report(num, desc, ok, detail=""):
    line = f"[acceptance] criterion {num:2d} ({desc}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  -- {detail}"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="session")
def probe_report():
    return run_conjecture_probe(ExperimentConfig(kind="conjecture-probe"))


def test_criterion_01_energy_identity():
    t0 = time.monotonic()
    worst = 0.0
    for beta in GRID_BETAS:
        for frac in GRID_FRACTIONS:
            for T in GRID_HORIZONS:
                c = PaceCurve(K=1.0, T=T, beta=beta)
                s = frac * T
                closed = c.energy_closed(s)
                quad = c.energy_quad(s)
                worst = max(worst, abs(closed - quad) / abs(quad))
    elapsed = time.monotonic() - t0
    report(1, "closed energy integral vs quadrature",
           worst <= 1e-8 and elapsed < 5.0,
           f"max rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_residue_remainder():
    t0 = time.monotonic()
    ok = True
    worst = -math.inf
    for beta in (1.5, 3.0):             # beta != 2; s < T per the op domain
        for frac in (0.01, 0.1, 0.5):
            for T in GRID_HORIZONS:
                c = PaceCurve(K=1.0, T=T, beta=beta)
                _, r = pace_residue(frac * T, c)
                z = math.log(1.0 / frac)
                ok &= (0.0 <= r <= z ** -2 + 1e-10)
                worst = max(worst, r - z ** -2)
    elapsed = time.monotonic() - t0
    report(2, "pace expansion remainder in [0, z^-2]",
           ok and elapsed < 5.0, f"max excess {worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_main_gap_and_s2():
    t0 = time.monotonic()
    ok = True
    for beta in GRID_BETAS:
        for frac in GRID_FRACTIONS:
            for T in GRID_HORIZONS:
                c = PaceCurve(K=1.0, T=T, beta=beta)
                s = frac * T
                gap = pace_main_gap(s, c)
                ok &= (-1e-9 <= gap < 4.0 * s / beta)
    ratios = []
    for T in (1e3, 1e4, 1e5):
        c = PaceCurve(K=1.0, T=T, beta=2.0)
        s = math.log(T) ** 2
        ratios.append(pace_s2_gap(s, c) / math.log(T) ** 2)
    bounded = all(abs(r) < 10.0 for r in ratios)
    nonincreasing = all(b <= a + 1e-12 for a, b in zip(ratios, ratios[1:]))
    elapsed = time.monotonic() - t0
    report(3, "energy-Jensen gap window; s2 ratio non-increasing",
           ok and bounded and nonincreasing and elapsed < 10.0,
           f"s2 ratios {[round(r, 4) for r in ratios]}, {elapsed:.2f}s")


def test_criterion_04_zero_potential_kernel():
    t0 = time.monotonic()
    devs, tols = {}, {}
    # refinement law dt ~ sqrt(dx) makes the lattice staircase error Theta(dx)
    for i, scale in enumerate((1.0, 0.5)):
        dx = 0.05 * scale
        dt = 0.05 * 2 ** (-i / 2.0)
        g = GridSpec(0.0, 20.0, dx, 0.0, 1.0, dt, 24.0)
        k = kernel(zero_potential(), 0.0, 1.0, g, P2)
        disp = k.displacement()
        exact = np.abs(disp) ** 2 / 2.0
        fin = np.isfinite(k.entries)
        devs[scale] = float(np.max(np.abs(k.entries - exact)[fin]))
        tols[scale] = 2.0 * dx * float(np.max(np.abs(disp)))  # 2 dx * slope
    ratio = devs[0.5] / devs[1.0]
    elapsed = time.monotonic() - t0
    report(4, "zero-potential kernel vs closed form",
           devs[1.0] <= tols[1.0] and devs[0.5] <= tols[0.5]
           and 0.35 <= ratio <= 0.65 and elapsed < 30.0,
           f"dev {devs[1.0]:.4f}->{devs[0.5]:.4f} ratio {ratio:.3f}, {elapsed:.1f}s")


def _flow_instance(U, x_lo, x_hi, dx, dt, v_max, T):
    g = GridSpec(x_lo, x_hi, dx, 0.0, T, dt, v_max)
    k12 = kernel(U, 0.0, T / 2, g, P2)
    k23 = kernel(U, T / 2, T, g, P2)
    n = int(round(T / dt))
    if n % 2 == 0:
        n += 1    # odd slice count: no slice at the split; defect is genuine
    g13 = GridSpec(x_lo, x_hi, dx, 0.0, T, T / n, v_max)
    k13 = kernel(U, 0.0, T, g13, P2)
    d = flow_defect(k13, k12, k23)
    K_loc = float(np.nanmax(np.abs(np.diff(k13.entries, axis=1))) / dx)
    return d, 5.0 * (dx + dt) * K_loc


def test_criterion_05_flow_property():
    t0 = time.monotonic()
    T = 50.0
    Ua = accelerating_potential(0.0, 0.0, T, K2, 1.0, 2.0)
    results = {}
    for name, U, x_lo, x_hi in (("zero", zero_potential(), -10.0, 10.0),
                                ("accel", Ua, -18.0, 2.5)):
        base, tol_b = _flow_instance(U, x_lo, x_hi, 0.1, 0.2, 6.0, T)
        half, tol_h = _flow_instance(U, x_lo, x_hi, 0.05, 0.2 / math.sqrt(2), 6.0, T)
        results[name] = (base, tol_b, half, tol_h, half / base)
    ok = all(b <= tb and h <= th and r <= 0.65
             for (b, tb, h, th, r) in results.values())
    elapsed = time.monotonic() - t0
    report(5, "flow property at mid-split with decay",
           ok and elapsed < 120.0,
           "; ".join(f"{k}: {v[0]:.4f}<= {v[1]:.3f}, ratio {v[4]:.2f}"
                     for k, v in results.items()) + f", {elapsed:.0f}s")


def test_criterion_06_dp_optimality_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(42)
    from hjlab.core import PotentialField
    ok = True
    for _ in range(100):
        n_x = int(rng.integers(3, 6))
        n_steps = int(rng.integers(2, 7))
        g = GridSpec(x_min=0.0, x_max=0.5 * (n_x - 1), dx=0.5, t1=0.0,
                     t2=0.25 * n_steps, dt=0.25,
                     v_max=float(rng.uniform(2.2, 8.0)))
        vals = rng.uniform(0, 1, size=(n_steps + 2, n_x))

        def ev(x, t, vals=vals, g=g, n_steps=n_steps):
            xi = np.clip(np.round((np.asarray(x) - g.x_min) / g.dx).astype(int),
                         0, g.n_x - 1)
            ti = np.clip((np.asarray(t) - g.t1) / g.dt_eff, 0, n_steps + 1).astype(int)
            return vals[ti, xi]

        U = PotentialField(lambda ts, deriv: lambda x: (
            np.zeros_like(np.asarray(x, dtype=float)) if deriv else ev(x, ts)), bound=1.0)
        S0 = rng.uniform(-1, 1, size=g.n_x)
        tab = solve_dp(U, g, S0, P2)
        ev_vals, _ = enumerate_paths(U, g, S0, P2)
        ok &= bool(np.array_equal(tab.final_values, ev_vals))
        xt = float(g.nodes()[int(rng.integers(0, g.n_x))])
        tr = backtrack(tab, xt)
        c = path_cost(tr, U, g, P2) + S0[g.nearest_index(tr.positions[0])]
        ok &= abs(c - tab.value_at(xt)) <= 1e-9
    elapsed = time.monotonic() - t0
    report(6, "DP equals exhaustive enumeration (100 instances)",
           ok and elapsed < 10.0, f"{elapsed:.1f}s")


def test_criterion_07_wT_lemma_census(scaling_report, periodic_report,
                                      glued_report, probe_report,
                                      random_minimizer_sweep):
    trajs, margins = random_minimizer_sweep
    count = len(trajs)
    worst = float(margins.min())
    for rep in (scaling_report, periodic_report, glued_report, probe_report):
        for r in rep.records:
            if "wT_margin" in r:
                count += len(r.get("speeds", [])) or 1
                worst = min(worst, r["wT_margin"])
    report(7, "full-span average-velocity lemma census",
           worst >= 0.0 and count >= 200,
           f"{count} trajectories, worst margin {worst:.4f}")


def test_criterion_08_beta2_progression(scaling_report, periodic_report,
                                        glued_report, probe_report,
                                        random_minimizer_sweep):
    worst = math.inf
    pairs = 0
    for rep in (scaling_report, periodic_report, glued_report, probe_report):
        for r in rep.records:
            if r.get("progression_margin") is not None:
                worst = min(worst, r["progression_margin"])
                pairs += r["progression_pairs"]
    trajs, _ = random_minimizer_sweep
    for tr in trajs[:40]:
        m, n = progression_margins(tr, P2, 0.1)
        if n:
            worst = min(worst, m)
            pairs += n
    report(8, "beta=2 geometric-progression inequality",
           worst >= 0.0 and pairs > 1000,
           f"{pairs} (s1,s2) pairs, worst margin {worst:.4f}")


def test_criterion_09_blowup_scaling(scaling_report):
    rep = scaling_report
    vs = [r["v"] for r in rep.records]
    monotone = all(b > a for a, b in zip(vs, vs[1:]))
    lower_ok = rep.onset_T is not None and all(
        r["v"] >= r["lower_bound"] - r["grid_slack"]
        for r in rep.records if r["T"] >= rep.onset_T)
    fit_ok = rep.fit["enabled"] and 0.8 <= rep.fit["p"] <= 1.2
    upper_margins = [r["upper_bound_advisory"] - r["v"] for r in rep.records]
    advisory_reported = all(m == m for m in upper_margins)   # present, finite
    runtime = sum(rep.wall_times.values())
    report(9, "blow-up scaling (CI horizons)",
           monotone and lower_ok and fit_ok and advisory_reported
           and runtime <= 300.0,
           f"v={[round(v, 3) for v in vs]}, p={rep.fit['p']:.3f}, "
           f"onset T={rep.onset_T}, advisory margins "
           f"{[round(m, 1) for m in upper_margins]}, {runtime:.0f}s")


def test_criterion_10_periodic_control(periodic_report):
    rep = periodic_report
    recs = {r["T"]: r for r in rep.records if "speeds" in r}
    ratio = max(recs[1000.0]["speeds"]) / max(recs[100.0]["speeds"])
    vmax_series = [max(recs[T]["speeds"]) for T in sorted(recs)]
    no_growth = not all(b > a for a, b in zip(vmax_series, vmax_series[1:]))
    suite = [r for r in rep.records if r.get("suite") == "operator-regularity"][0]
    dom_ok = max(suite["domination_defects"]) <= 1e-9
    lip_ok = max(suite["liplarge_constants"]) <= suite["liplarge_bound"] + 1e-9
    runtime = sum(rep.wall_times.values())
    report(10, "periodic control: no blow-up; operator regularity",
           0.9 <= ratio <= 1.1 and no_growth and dom_ok and lip_ok
           and suite["steps"] == 20 and runtime <= 300.0,
           f"v(1e3)/v(1e2)={ratio:.4f}, max domination defect "
           f"{max(suite['domination_defects']):.2e}, max L "
           f"{max(suite['liplarge_constants']):.3f}<={suite['liplarge_bound']:.3f}")


def _action_grad(tr, U):
    """dA/dx_i at every node of the 4-point midpoint action (beta = 2)."""
    t, x = tr.times, tr.positions
    n, dts = len(x), np.diff(tr.times)
    q = 4
    frac = (np.arange(q) + 0.5) / q
    seg_t = t[:-1, None] + dts[:, None] * frac[None, :]
    seg_x = x[:-1, None] + np.diff(x)[:, None] * frac[None, :]
    gU = np.asarray(U.grad(seg_x, seg_t))
    v = np.diff(x) / dts
    gr = np.zeros(n)
    gr[1:] += v
    gr[:-1] -= v
    gr[:-1] -= np.sum(gU * (dts / q)[:, None] * (1 - frac)[None, :], axis=1)
    gr[1:] -= np.sum(gU * (dts / q)[:, None] * frac[None, :], axis=1)
    return gr


def _action_grad_norm(tr, U):
    return float(np.max(np.abs(_action_grad(tr, U)[:-1])))


@pytest.mark.parametrize("kind", ("accelerating", "periodic"))
def test_path_action_grad_equals_oracle(kind):
    # PathAction weighs gU by (dt/q)(1 - frac), the oracle by dt/q, then by
    # (1 - frac).  With dt a power of two, dt/q is one too, both orders round
    # once at the same exact product, and the gradients agree bit for bit;
    # on other grids they differ by rounding only.
    if kind == "accelerating":
        U = accelerating_potential(0.0, 0.0, 8.0, K2, 1.0, 2.0)
        path = lambda t: np.array([U.support_hint(tk)[1] for tk in t]) - 1.0 + 0.3 * t
    else:
        U = periodic_potential(cosine_profile(1.0, 1.0), 1.0)
        path = lambda t: 1.5 * t + 0.2 * np.sin(5.0 * t)
    for t, exact in ((np.arange(65) * 0.125, True), (np.linspace(0.0, 8.0, 201), False)):
        tr = Trajectory(t, path(t))
        g = PathAction(t, U, P2).grad(tr.positions)
        oracle = _action_grad(tr, U)
        if exact:
            assert g.tobytes() == oracle.tobytes()
        else:
            assert np.max(np.abs(g - oracle)) <= 1e-15 * np.max(np.abs(oracle))


def _polished_minimizer(U, grid, x_target, grad_tol=1e-8):
    """Stationary PL minimizer: DP init, jitter relaxation, polish to a
    gradient-norm criterion (up to 8 rounds)."""
    tab = solve_dp(U, grid, None, P2)
    tr = backtrack(tab, x_target)
    tr = refine(tr, U, P2, passes=30, free_left=True)
    for _ in range(8):
        tr = newton_polish(tr, U, P2)
        if _action_grad_norm(tr, U) < grad_tol:
            break
    return tr


def test_criterion_11_energy_conservation():
    U = periodic_potential(cosine_profile(1.0, 1.0), 1.0, modulation="constant")
    drift, grads = {}, []
    for dt in (0.08, 0.04, 0.02):
        g = GridSpec(-8.0, 8.0, dt / 4.0, 0.0, 12.0, dt, 4.0 * math.sqrt(2.0))
        tr = _polished_minimizer(U, g, 2.5)
        grads.append(_action_grad_norm(tr, U))
        mom = legendre(tr.velocities, P2)
        xm = 0.5 * (tr.positions[:-1] + tr.positions[1:])
        tm = 0.5 * (tr.times[:-1] + tr.times[1:])
        H = np.abs(mom) ** P2.alpha / P2.alpha + np.asarray(U.value(xm, tm))
        drift[dt] = float(np.max(np.abs(H - H[0])))
    first_order = (drift[0.04] <= 0.7 * drift[0.08]
                   and drift[0.02] <= 0.7 * drift[0.04])
    report(11, "autonomous energy conservation",
           drift[0.02] <= 0.05 * P2.C and first_order,
           f"max|dH| {drift[0.08]:.2e} -> {drift[0.04]:.2e} -> {drift[0.02]:.2e}; "
           f"max|grad A| {[f'{gn:.1e}' for gn in grads]}")


def test_criterion_12_el_residual():
    T = 20.0
    Ua = accelerating_potential(0.0, 0.0, T, K2, 1.0, 2.0)
    Ug = periodic_potential(cosine_profile(1.0, 1.0), 1.0, modulation="constant")
    curve = PaceCurve(K=K2, T=T, beta=2.0)
    ok = True
    details = []
    for name, U, x_lo, x_hi, span, xt in (
            ("autonomous", Ug, -8.0, 8.0, 12.0, 2.5),
            ("accelerating", Ua, -curve.value(T) - 8.0, 1.0, T, 0.0)):
        rs, grads = [], []
        for dt in (0.04, 0.02, 0.01):
            g = GridSpec(x_lo, x_hi, dt / 4.0, 0.0, span, dt,
                         max(4.0 * K2 * math.log(T), 4.0 * math.sqrt(2.0)))
            tr = _polished_minimizer(U, g, xt)
            rs.append(float(np.max(np.abs(el_residual(tr, U, P2)))))
            grads.append(_action_grad_norm(tr, U))
        # residual <= c*dt with the coarse-grid constant: each halving must
        # cut the residual by at least 1/2 up to the criterion's 50% slack
        # (a faster-than-first-order decay satisfies the same bound)
        decays = [rs[1] / rs[0], rs[2] / rs[1]]
        ok &= all(r <= 0.75 for r in decays)
        c0 = rs[0] / 0.04
        ok &= all(r <= c0 * dt for r, dt in zip(rs, (0.04, 0.02, 0.01)))
        details.append(f"{name} res={[f'{r:.2e}' for r in rs]} "
                       f"decay={[round(d, 2) for d in decays]} c<={c0:.3f} "
                       f"max|grad A|={[f'{gn:.1e}' for gn in grads]}")
    report(12, "EL residual <= c*dt with stable c", ok, "; ".join(details))


def test_criterion_13_glued_demo(glued_report):
    rep = glued_report
    vs = [r["v"] for r in rep.records]
    margin = vs[1] - vs[0]
    continuity = rep.flags["continuity_ok"]
    labeled = any("mechanism demonstration" in n for n in rep.notes)
    report(13, "glued two-stage demo",
           margin > 0.0 and continuity and rep.flags["capped"] and labeled,
           f"stage speeds {[round(v, 3) for v in vs]}, margin {margin:.3f}")


@pytest.mark.skipif("HJLAB_LARGE" not in __import__("os").environ,
                    reason="large profile is opt-in (set HJLAB_LARGE=1)")
def test_criterion_09_large_profile():
    # The fit sub-criterion is expected red here: the construction's O(1)
    # additive velocity offsets (bump climb + sqrt(2C) stationarity shift)
    # cap the measurable exponent near 0.74-0.79 over {50..1e4}; see the
    # decisions ledger for the analysis.  Asserted as stated regardless.
    cfg = ExperimentConfig(kind="scaling", horizons=[50.0, 200.0, 1000.0, 10000.0])
    rep = run_scaling(cfg)
    vs = [r["v"] for r in rep.records]
    runtime = sum(rep.wall_times.values())
    report(9, "blow-up scaling (large profile incl. T=1e4)",
           all(b > a for a, b in zip(vs, vs[1:]))
           and rep.fit["enabled"] and 0.8 <= rep.fit["p"] <= 1.2
           and rep.onset_T is not None and runtime <= 1800.0,
           f"v={[round(v, 3) for v in vs]}, p={rep.fit['p']:.3f}, {runtime:.0f}s")


def test_criterion_14_determinism(tmp_path):
    outs = []
    for stem in ("run1", "run2"):
        rep = run_scaling(ExperimentConfig(kind="scaling", horizons=[50.0, 100.0]))
        outs.append(emit(rep, out_dir=str(tmp_path), stem=stem))
    j1 = open(outs[0]["json"], "rb").read()
    j2 = open(outs[1]["json"], "rb").read()
    c1 = open(outs[0]["csv"], "rb").read()
    c2 = open(outs[1]["csv"], "rb").read()
    report(14, "byte-identical JSON/CSV across reruns",
           j1 == j2 and c1 == c2,
           f"{len(j1)} json bytes, {len(c1)} csv bytes")
