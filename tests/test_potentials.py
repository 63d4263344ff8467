import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from hjlab.core import certify_potential, constant_potential, zero_potential
from hjlab.potentials import (FEASIBLE_HORIZON_MAX, GluedSchedule, PaceCurve,
                              ScheduleOverflowError, accelerating_potential,
                              bump, cosine_profile, glued_potential,
                              glued_schedule, pace, pace_energy_closed,
                              pace_main_gap, pace_residue, pace_s2_gap,
                              periodic_potential, potential_from_spec,
                              random_potential)

GRID_BETAS = (1.5, 2.0, 3.0)
GRID_FRACTIONS = (0.01, 0.1, 0.5, 1.0)


def test_bump_examples():
    v, d = bump(-2.0, 3.0)
    assert (v, d) == (3.0, 0.0)
    v, d = bump(0.0, 3.0)
    assert (v, d) == (0.0, 0.0)
    v, d = bump(-1.0, 3.0)
    assert v == pytest.approx(1.5)
    assert d == pytest.approx(-0.75 * 3.0)


def test_bump_profile_constraints():
    x = np.linspace(-4, 2, 2001)
    v, d = bump(x, 2.0)
    assert np.all(v >= 0) and np.all(v <= 2.0)
    assert np.all(d <= 0) and np.all(d >= -2.0)
    assert np.all(v[x <= -2] == 2.0) and np.all(v[x >= 0] == 0.0)
    # C1: finite-difference match
    fd = np.gradient(v, x)
    assert np.max(np.abs(fd[1:-1] - d[1:-1])) < 2e-2


def test_pace_examples():
    c = PaceCurve(K=1.0, T=math.e, beta=2.0)
    g, gd = pace(1.0, c)
    assert g == pytest.approx(2.0, rel=1e-12)
    c8 = PaceCurve(K=1.0, T=8.0, beta=2.0)
    g, gd = pace(8.0, c8)
    assert g == pytest.approx(8.0, rel=1e-12)       # g_T(T) = K T Gamma(2)
    assert gd == 0.0
    g0, gd0 = pace(0.0, c8)
    assert g0 == 0.0
    assert gd0 == pytest.approx(math.log(8.0) ** 1.0)
    with pytest.raises(ValueError):
        pace(9.0, c8)


def test_pace_value_vs_quadrature_grid():
    for beta in GRID_BETAS:
        for frac in GRID_FRACTIONS:
            for T in (1e2, 1e4):
                c = PaceCurve(K=1.3, T=T, beta=beta)
                s = frac * T
                exact = c.value(s)
                quad = c.value_quad(s)
                assert exact == pytest.approx(quad, rel=1e-9, abs=1e-12)


def test_pace_energy_closed_examples_and_oracle():
    c = PaceCurve(K=1.0, T=8.0, beta=2.0)
    assert pace_energy_closed(8.0, c) == pytest.approx(8.0)
    assert pace_energy_closed(8.0 / math.e, c) == pytest.approx(5 * 8.0 / (2 * math.e))
    with pytest.raises(ValueError):
        pace_energy_closed(0.0, c)
    for beta in GRID_BETAS:
        for frac in GRID_FRACTIONS:
            c = PaceCurve(K=0.9, T=1e4, beta=beta)
            s = frac * 1e4
            assert pace_energy_closed(s, c) == pytest.approx(c.energy_quad(s), rel=1e-8)


def test_pace_residue_beta2_and_bounds():
    c = PaceCurve(K=1.0, T=100.0, beta=2.0)
    s = 10.0
    main, r = pace_residue(s, c)
    assert r == 0.0
    z = math.log(100.0 / 10.0)
    assert main == pytest.approx(1.0 * s * z * (1 + 1 / z), rel=1e-12)
    # beta=2: g equals the main term exactly
    assert c.value(s) == pytest.approx(main, rel=1e-12)

    c3 = PaceCurve(K=1.0, T=100.0, beta=3.0)
    _, r3 = pace_residue(100.0 / math.e**2, c3)
    assert 0.0 <= r3 <= 0.25
    c15 = PaceCurve(K=1.0, T=100.0, beta=1.5)
    _, r15 = pace_residue(100.0 / math.e, c15)
    assert 0.0 <= r15 <= 1.0

    for beta in (1.5, 3.0):
        for frac in (0.01, 0.1, 0.5):
            for T in (1e2, 1e4):
                cv = PaceCurve(K=1.0, T=T, beta=beta)
                _, r = pace_residue(frac * T, cv)
                z = math.log(1.0 / frac)
                assert -1e-12 <= r <= z**-2 + 1e-10

    with pytest.raises(ValueError):
        pace_residue(100.0, c)


def test_pace_main_gap_window():
    for beta in GRID_BETAS:
        for frac in GRID_FRACTIONS:
            for T in (1e2, 1e4):
                c = PaceCurve(K=1.1, T=T, beta=beta)
                s = frac * T
                gap = pace_main_gap(s, c)
                assert gap >= -1e-9                      # Jensen
                assert gap < 4 * 1.1**beta * s / beta    # closed-form window
    # explicit beta=2, s=T: gap = K^2 T / 2
    c = PaceCurve(K=1.0, T=50.0, beta=2.0)
    assert pace_main_gap(50.0, c) == pytest.approx(25.0, rel=1e-10)


def test_pace_s2_gap_linear_and_sweep():
    # affine g(s) = c*s gives gap exactly -c^beta (the two terms differ by
    # one slope unit); checked against a direct evaluation
    for beta in (1.5, 2.0, 3.0):
        cc = 0.7
        s = 10.0
        gap = (cc * (s - 1.0)) ** beta / (s - 1.0) ** (beta - 1.0) \
            - (cc * s) ** beta / s ** (beta - 1.0)
        assert gap == pytest.approx(-cc**beta, rel=1e-12)

    c = PaceCurve(K=1.0, T=1e4, beta=2.0)
    with pytest.raises(ValueError):
        pace_s2_gap(3.0, c)
    # sweep: ratio bounded across horizons at s = (log T)^2
    ratios = []
    for T in (1e3, 1e4, 1e5):
        cv = PaceCurve(K=1.0, T=T, beta=2.0)
        ratios.append(pace_s2_gap(math.log(T) ** 2, cv) / math.log(T) ** 2)
    assert all(abs(r) < 10.0 for r in ratios)
    assert all(b <= a + 1e-12 for a, b in zip(ratios, ratios[1:]))


def test_accelerating_potential_examples():
    K, C, T = 0.7, 1.2, 40.0
    U = accelerating_potential(y=1.0, t1=0.0, t2=T, K=K, C=C, beta=2.0)
    # at t2 the step edge sits at y
    assert U.value(1.0, T) == pytest.approx(0.0)
    assert U.value(1.0 - 2.0, T) == pytest.approx(C)
    # at t1 the field vanishes for x >= y - g(T)
    g_total = PaceCurve(K=K, T=T, beta=2.0).value(T)
    assert U.value(1.0 - g_total + 0.01, 0.0) == pytest.approx(0.0, abs=1e-12)
    res = certify_potential(U, (1.0 - g_total - 5, 5.0), (0.0, T), n=10_000, seed=3)
    assert res.ok


def test_glued_schedule_examples():
    gs = glued_schedule(0.25, 1.0, 1.0, 1.0, 2.0, 2)
    (T1, S1, X1), (T2, S2, X2) = gs.stages
    assert (T1, S1) == (1.0, 1.0)
    assert T2 == pytest.approx(math.e)
    assert S2 == pytest.approx(1.0 + math.e)
    # X_n = Kbar * S_n with Kbar = K * Gamma(1 + 2/beta) = 1 for beta = 2
    assert X1 == pytest.approx(gs.Kbar * S1, rel=1e-10)
    assert X2 == pytest.approx(gs.Kbar * S2, rel=1e-10)
    assert gs.stages[1][1] - gs.stages[0][1] == pytest.approx(T2)

    for beta in (1.5, 3.0):
        g2 = glued_schedule(0.2, 1.0, 0.8, 1.0, beta, 2)
        curve = PaceCurve(K=0.8, T=g2.stages[1][0], beta=beta)
        direct = curve.value(g2.stages[1][0])
        assert g2.stages[1][2] - g2.stages[0][2] == pytest.approx(direct, rel=1e-8)


def test_glued_schedule_overflow_and_cap():
    with pytest.raises(ScheduleOverflowError):
        glued_schedule(0.25, 1.0, 1.0, 1.0, 2.0, 3)
    gs = glued_schedule(0.25, 1.0, 1.0, 1.0, 2.0, 3, cap=10.0)
    assert gs.capped
    assert gs.stages[2][0] == 10.0
    with pytest.raises(ValueError):
        glued_schedule(0.6, 1.0, 1.0, 1.0, 2.0, 2)   # epsilon >= 2(beta-1)/beta^2


def test_glued_potential_continuity_and_bounds():
    gs = glued_schedule(0.25, 2.0, 0.632, 1.0, 2.0, 3, cap=30.0)
    U = glued_potential(gs)
    # t = 0 is the bare bump
    assert U.value(0.0, 0.0) == pytest.approx(0.0)
    assert U.value(-2.0, 0.0) == pytest.approx(1.0)
    rng = np.random.default_rng(5)
    xs = rng.uniform(-80.0, 5.0, 100)
    # probe at +-1e-12: the field's time variation contributes O(eps log eps)
    # around the boundary, so the probe scale must sit well under 1e-10
    for (_, S_b, _) in gs.stages[:-1]:
        left = np.asarray(U.value(xs, -S_b - 1e-12))
        right = np.asarray(U.value(xs, -S_b + 1e-12))
        assert np.max(np.abs(left - right)) <= 1e-10
    res = certify_potential(U, (-80.0, 5.0), (-gs.S_final + 1e-6, 0.0),
                            n=10_000, seed=8)
    assert res.ok
    with pytest.raises(ValueError):
        U.value(0.0, -gs.S_final - 1.0)


def test_glued_stage1_equals_plain_accelerating():
    gs = glued_schedule(0.25, 20.0, 0.5, 1.0, 2.0, 1)
    Ug = glued_potential(gs)
    Ua = accelerating_potential(y=0.0, t1=-20.0, t2=0.0, K=0.5, C=1.0, beta=2.0)
    rng = np.random.default_rng(0)
    xs = rng.uniform(-15, 3, 200)
    ts = rng.uniform(-20, 0, 200)
    assert np.array_equal(np.asarray(Ug.value(xs, ts)), np.asarray(Ua.value(xs, ts)))


def test_periodic_potential():
    prof = cosine_profile(1.0, 1.0)
    U = periodic_potential(prof, period=1.0)
    rng = np.random.default_rng(2)
    xs = rng.uniform(-10, 10, 500)
    ts = rng.uniform(0, 7, 500)
    assert np.allclose(U.value(xs, ts), U.value(xs, ts + 1.0), rtol=0, atol=1e-12)
    res = certify_potential(U, (-10, 10), (0, 5), n=10_000, seed=4)
    assert res.ok
    # autonomous control
    Ua = periodic_potential(prof, period=1.0, modulation="constant")
    assert np.allclose(Ua.value(xs, ts), prof.value(xs))
    with pytest.raises(ValueError):
        periodic_potential(prof, period=0.0)


def test_random_potential_determinism_and_bounds():
    profiles = [cosine_profile(1.0, 0.7), cosine_profile(0.8, 1.6, 1.0)]
    U1 = random_potential(42, profiles, 2.0, t_min=-30.0, t_max=0.0, C=1.0)
    U2 = random_potential(42, profiles, 2.0, t_min=-30.0, t_max=0.0, C=1.0)
    rng = np.random.default_rng(1)
    xs = rng.uniform(-5, 5, 300)
    ts = rng.uniform(-30, 0, 300)
    assert np.array_equal(np.asarray(U1.value(xs, ts)), np.asarray(U2.value(xs, ts)))
    U3 = random_potential(43, profiles, 2.0, t_min=-30.0, t_max=0.0, C=1.0)
    assert not np.array_equal(np.asarray(U1.value(xs, ts)), np.asarray(U3.value(xs, ts)))

    res = certify_potential(U1, (-5, 5), (-30, 0), n=10_000, seed=9)
    assert res.ok
    # clamped modulations
    tq = np.linspace(-30, 0, 4001)
    for j in range(len(profiles)):
        assert np.max(np.abs(U1.amplitude(j, tq))) <= 1.0

    with pytest.raises(ValueError):
        random_potential(1, [], 2.0, t_min=-1.0, t_max=0.0)


def test_random_potential_autocorrelation_decay():
    profiles = [cosine_profile(1.0, 1.0)]
    tau = 3.0
    U = random_potential(7, profiles, tau, t_min=-4000.0, t_max=0.0, C=1.0)
    ts = np.arange(-4000.0, 0.0, tau / 20.0)
    a = np.asarray(U.amplitude(0, ts))
    a = a - a.mean()
    lag_target = None
    for lag_steps in range(1, 200):
        c = np.corrcoef(a[:-lag_steps], a[lag_steps:])[0, 1]
        if c < math.exp(-1):
            lag_target = lag_steps * (tau / 20.0)
            break
    assert lag_target is not None
    assert 0.7 * tau <= lag_target <= 1.3 * tau


def test_potential_spec_round_trip():
    specs = [
        {"kind": "zero", "beta": 2.0},
        {"kind": "constant", "beta": 2.0, "level": 0.4},
        {"kind": "accelerating", "beta": 2.0, "C": 1.0, "K": 0.5,
         "t1": 0.0, "t2": 50.0, "y": 0.0},
        {"kind": "glued", "beta": 2.0, "C": 1.0, "K": 0.5, "epsilon": 0.25,
         "Tbar": 2.0, "n_max": 2, "cap": None},
        {"kind": "periodic", "beta": 2.0, "period": 1.0, "modulation": "cosine",
         "profile": {"kind": "cosine", "amplitude": 1.0, "wavenumber": 1.0,
                     "phase": 0.0}},
        {"kind": "random", "beta": 2.0, "C": 1.0, "seed": 3,
         "correlation_time": 2.0, "t_min": -10.0, "t_max": 0.0,
         "profiles": [{"kind": "cosine", "amplitude": 1.0, "wavenumber": 1.0,
                       "phase": 0.0}]},
    ]
    for spec in specs:
        U = potential_from_spec(spec)
        text1 = json.dumps(U.spec, sort_keys=True)
        U2 = potential_from_spec(json.loads(text1))
        text2 = json.dumps(U2.spec, sort_keys=True)
        assert text1 == text2
    with pytest.raises(ValueError):
        potential_from_spec({"kind": "nope"})


def test_feasible_horizon_guard_value():
    assert FEASIBLE_HORIZON_MAX == 1e12


def _slice_fields():
    """(field, t_lo, t_hi) for every kind that has a time slice."""
    gs = glued_schedule(0.25, 2.0, 0.632, 1.0, 2.0, 3, cap=30.0)
    profiles = [cosine_profile(1.0, 0.7), cosine_profile(0.8, 1.6, 1.0)]
    return {
        "zero": (zero_potential(), 0.0, 5.0),
        "constant": (constant_potential(0.4), 0.0, 5.0),
        "accelerating": (accelerating_potential(0.5, 0.0, 30.0, 0.632, 1.0, 2.0),
                         0.0, 30.0),
        "glued": (glued_potential(gs), -gs.S_final, 0.0),
        "periodic": (periodic_potential(cosine_profile(1.0, 1.3), 1.0), -3.0, 3.0),
        "random": (random_potential(4, profiles, 2.0, -30.0, 0.0), -30.0, 0.0),
    }


SLICE_FIELDS = _slice_fields()


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(SLICE_FIELDS)),
       t_frac=arrays(np.float64, (40, 4), elements=st.floats(0.0, 1.0)),
       ramp=arrays(np.float64, (40, 4), elements=st.floats(-2.5, 0.5)))
def test_slices_equal_field_bitwise(kind, t_frac, ramp):
    """time_slice / grad_slice reproduce value / grad bit for bit, with
    positions placed across the bump's ramp where the field has an edge."""
    U, t_lo, t_hi = SLICE_FIELDS[kind]
    ts = t_lo + (t_hi - t_lo) * t_frac
    if U.support_hint is not None:
        edge = np.array([U.support_hint(t)[1] for t in ts.ravel()]).reshape(ts.shape)
        xs = edge + ramp
    else:
        xs = 4.0 * ramp
    for sliced, direct in ((U.time_slice(ts)(xs), U.value(xs, ts)),
                           (U.grad_slice(ts)(xs), U.grad(xs, ts))):
        sliced = np.asarray(sliced, dtype=np.float64)
        direct = np.asarray(direct, dtype=np.float64)
        assert sliced.shape == direct.shape
        assert sliced.tobytes() == direct.tobytes()
