import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from hjlab.potentials import (FEASIBLE_HORIZON_MAX, GluedSchedule, PaceCurve,
                              _bump_grad, _bump_value,
                              ScheduleOverflowError, accelerating_potential,
                              bump, cosine_profile, glued_potential,
                              glued_schedule, pace_main_gap, pace_residue,
                              pace_s2_gap,
                              periodic_potential, potential_from_spec,
                              random_potential)
from oracles import certify_potential, pace_value_quad

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
    assert c.value(1.0) == pytest.approx(2.0, rel=1e-12)
    c8 = PaceCurve(K=1.0, T=8.0, beta=2.0)
    assert c8.value(8.0) == pytest.approx(8.0, rel=1e-12)   # g_T(T) = K T Gamma(2)
    assert c8.value(0.0) == 0.0
    with pytest.raises(ValueError):
        c8.value(9.0)


def test_nan_time_gives_nan_pace_and_field():
    """A NaN time reaches the field's values as NaN, where the DP's NaN
    guard sees it, instead of reading as g = 0 (a finished edge)."""
    c = PaceCurve(K=1.0, T=10.0, beta=2.0)
    assert math.isnan(c.value(math.nan))
    assert np.isnan(c.value(np.array([math.nan, 5.0]))).tolist() == [True, False]
    U = accelerating_potential(y=0.0, t1=0.0, t2=10.0, K=1.0, C=1.0, beta=2.0)
    x = np.array([-1.0, 0.5])
    assert np.all(np.isnan(U.value(x, math.nan)))
    assert np.all(np.isnan(U.grad(x, math.nan)))


def test_pace_value_scalar_path_equals_array_path():
    """PaceCurve.value has one path for scalars and arrays: a Python float,
    a numpy float or a 0-d array gets the array's bits as a Python float,
    and the same range errors, on every input."""
    rng = np.random.default_rng(5)
    for K, T, beta in ((0.63, 50.0, 2.0), (1.3, 1000.0, 1.5), (0.9, 1e4, 3.0),
                       (0.5, 60.0, 1.25)):
        c = PaceCurve(K=K, T=T, beta=beta)
        special = [0.0, -0.0, T, 1e-300, 5e-324, -1e-13, T * (1 + 1e-13),
                   np.nextafter(T, 0.0), math.nan]
        ss = np.concatenate([special, rng.uniform(0, T, 500), T * rng.uniform(0, 1, 500) ** 8])
        with np.errstate(over="ignore"):
            want = c.value(ss)
            for s, w in zip(ss, want):
                for arg in (float(s), s, np.asarray(s)):
                    got = c.value(arg)
                    assert type(got) is float
                    assert np.float64(got).tobytes() == w.tobytes()
        assert c.value(7) == c.value(7.0) and c.value(0) == 0.0
        for bad in (-1e-11, -1.0, T * (1 + 1e-11), math.inf, -math.inf):
            for arg in (bad, np.float64(bad), np.array([bad])):
                with pytest.raises(ValueError, match=rf"s outside \[0, T={T}\]"):
                    c.value(arg)


def test_pace_value_vs_quadrature_grid():
    for beta in GRID_BETAS:
        for frac in GRID_FRACTIONS:
            for T in (1e2, 1e4):
                c = PaceCurve(K=1.3, T=T, beta=beta)
                s = frac * T
                exact = c.value(s)
                quad = pace_value_quad(c, s)
                assert exact == pytest.approx(quad, rel=1e-9, abs=1e-12)


def test_pace_energy_closed_examples_and_oracle():
    c = PaceCurve(K=1.0, T=8.0, beta=2.0)
    assert c.energy_closed(8.0) == pytest.approx(8.0)
    assert c.energy_closed(8.0 / math.e) == pytest.approx(5 * 8.0 / (2 * math.e))
    with pytest.raises(ValueError):
        c.energy_closed(0.0)
    for beta in GRID_BETAS:
        for frac in GRID_FRACTIONS:
            c = PaceCurve(K=0.9, T=1e4, beta=beta)
            s = frac * 1e4
            assert c.energy_closed(s) == pytest.approx(c.energy_quad(s), rel=1e-8)


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


def test_periodic_potential_derivative_bound_uses_abs_wavenumber():
    # |dU/dx| reaches a|k|/2 = 1.5 > 1 for k = -3 as for k = 3
    assert cosine_profile(1.0, -3.0).sup_deriv == cosine_profile(1.0, 3.0).sup_deriv == 1.5
    for k in (3.0, -3.0):
        with pytest.raises(ValueError, match="derivative bound"):
            periodic_potential(cosine_profile(1.0, k), 1.0)
    U = periodic_potential(cosine_profile(1.0, -2.0), 1.0)
    assert certify_potential(U, (-10, 10), (0, 5), n=10_000, seed=4).ok


def test_random_potential_rescale_uses_abs_wavenumber():
    # cos is even: a profile with wavenumber -k gives the field of +k, so the
    # joint rescale, which bounds the gradient by sum a|k|/2, must match too
    rng = np.random.default_rng(3)
    xs = rng.uniform(-5, 5, 300)
    ts = rng.uniform(-30, 0, 300)
    fields = [random_potential(8, [cosine_profile(1.0, k), cosine_profile(0.5, 0.4)],
                               2.0, t_min=-30.0, t_max=0.0, C=1.0)
              for k in (3.0, -3.0)]
    for f in ("value", "grad"):
        got = [np.asarray(getattr(U, f)(xs, ts)) for U in fields]
        assert got[0].tobytes() == got[1].tobytes()
    assert certify_potential(fields[1], (-5, 5), (-30, 0), n=10_000, seed=9).ok


def _modulation(U, ts):
    """a(t) of a one-profile random field whose cosine profile has amplitude
    1, phase 0 and wavenumber <= 2: the profile peaks at x = 0 with value 1
    and the field's scale is C, so U(0, t) = C (1 + a(t)) / 2."""
    return 2.0 * np.asarray(U.value(0.0, ts)) / U.bound - 1.0


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
    # clamped modulations, read off one-profile fields with U1's and U3's seeds
    tq = np.linspace(-30, 0, 4001)
    for seed in (42, 43):
        U = random_potential(seed, profiles[:1], 2.0, t_min=-30.0, t_max=0.0, C=1.0)
        assert np.max(np.abs(_modulation(U, tq))) <= 1.0

    with pytest.raises(ValueError):
        random_potential(1, [], 2.0, t_min=-1.0, t_max=0.0)


def test_random_potential_autocorrelation_decay():
    profiles = [cosine_profile(1.0, 1.0)]
    tau = 3.0
    U = random_potential(7, profiles, tau, t_min=-4000.0, t_max=0.0, C=1.0)
    ts = np.arange(-4000.0, 0.0, tau / 20.0)
    a = _modulation(U, ts)
    a = a - a.mean()
    lag_target = None
    for lag_steps in range(1, 200):
        c = np.corrcoef(a[:-lag_steps], a[lag_steps:])[0, 1]
        if c < math.exp(-1):
            lag_target = lag_steps * (tau / 20.0)
            break
    assert lag_target is not None
    assert 0.7 * tau <= lag_target <= 1.3 * tau


SPECS = {
    "zero": {"kind": "zero", "beta": 2.0},
    "constant": {"kind": "constant", "beta": 2.0, "level": 0.4},
    "accelerating": {"kind": "accelerating", "beta": 2.0, "C": 1.0, "K": 0.5,
                     "t1": 0.0, "t2": 50.0, "y": 0.0},
    "glued": {"kind": "glued", "beta": 2.0, "C": 1.0, "K": 0.5, "epsilon": 0.25,
              "Tbar": 2.0, "n_max": 2, "cap": None},
    "periodic": {"kind": "periodic", "beta": 2.0, "period": 1.0, "modulation": "cosine",
                 "profile": {"kind": "cosine", "amplitude": 1.0, "wavenumber": 1.0,
                             "phase": 0.0}},
    "random": {"kind": "random", "beta": 2.0, "C": 1.0, "seed": 3,
               "correlation_time": 2.0, "t_min": -10.0, "t_max": 0.0,
               "profiles": [{"kind": "cosine", "amplitude": 1.0, "wavenumber": 1.0,
                             "phase": 0.0}]},
}


def test_potential_spec_round_trip():
    for spec in SPECS.values():
        U = potential_from_spec(spec)
        text1 = json.dumps(U.spec, sort_keys=True)
        U2 = potential_from_spec(json.loads(text1))
        text2 = json.dumps(U2.spec, sort_keys=True)
        assert text1 == text2
    with pytest.raises(ValueError):
        potential_from_spec({"kind": "nope"})


@pytest.mark.parametrize("kind, key", [
    ("accelerating", "y"), ("glued", "C"), ("glued", "Tbar"), ("periodic", "period"),
    ("periodic", "amplitude"), ("periodic", "wavenumber"), ("periodic", "phase"),
    ("random", "C"), ("random", "correlation_time"),
])
def test_potential_spec_rejects_nan(kind, key):
    """A NaN parameter fails with a message that names it, instead of
    building a field whose bound or values are NaN (or, for Tbar, quietly
    reading it as 1)."""
    spec = json.loads(json.dumps(SPECS[kind]))
    (spec["profile"] if key in spec.get("profile", {}) else spec)[key] = math.nan
    with pytest.raises(ValueError, match=rf"^{key} must be .*, got nan$"):
        potential_from_spec(spec)


def test_feasible_horizon_guard_value():
    assert FEASIBLE_HORIZON_MAX == 1e12


BUMP_SPECIAL_POINTS = [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, -2.0, -3.0,
                       -2.0000000000000004, -1.9999999999999998, math.inf,
                       -math.inf, math.nan]


def _same_bits(got, want):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def _check_bump_kernels(x, C):
    """Each kernel, run in place on a fresh float64 copy of x (as the fields
    run it), returns bump's value or derivative bit for bit, in that copy."""
    for kernel, want in zip((_bump_value, _bump_grad), bump(x, C)):
        z = np.array(x, dtype=float)
        got = kernel(z, C)
        assert type(got) is type(want) and _same_bits(got, want)
        assert z.ndim == 0 or got is z


@pytest.mark.parametrize("C", [0.0, 1.0, 2.5])
@pytest.mark.parametrize("case", ["flat", "ramp", "ramp-minority", "ramp-half",
                                  "special", "0-d", "nan", "fortran", "transposed"])
def test_bump_kernels_equal_bump_bitwise(case, C):
    """The value-only and gradient-only kernels reproduce bump's value and
    derivative bit for bit, sign bits included, on both sides of the
    masking rule (ramp points a minority or not), in place on C, Fortran and
    transposed layouts."""
    rng = np.random.default_rng(7)
    flat = np.concatenate([rng.uniform(0.0, 9.0, 60), rng.uniform(-9.0, -2.0, 60)])
    ramp = rng.uniform(-2.0, 0.0, 120)
    x = {"flat": flat,
         "ramp": ramp,
         "ramp-minority": np.concatenate([flat, ramp[:10]]),
         "ramp-half": np.concatenate([flat[:60], ramp[:60]]),
         "special": np.array(BUMP_SPECIAL_POINTS),
         "0-d": None,
         "nan": np.array([math.nan, -1.0, 3.0]),
         "fortran": np.asfortranarray(np.concatenate([flat, ramp[:40]]).reshape(8, 20)),
         "transposed": np.concatenate([flat, ramp[:8]]).reshape(4, 32).T}[case]
    if x is None:
        for v in BUMP_SPECIAL_POINTS:
            _check_bump_kernels(v, C)
            _check_bump_kernels(np.float64(v), C)
            _check_bump_kernels(np.array(v), C)
    else:
        _check_bump_kernels(x, C)


@settings(max_examples=100, deadline=None)
@given(x=arrays(np.float64, st.integers(0, 50),
                elements=st.one_of(st.floats(-3.0, 1.0),
                                   st.sampled_from(BUMP_SPECIAL_POINTS))),
       C=st.sampled_from([0.0, 0.75, 1.0, 3.0]))
def test_bump_kernels_equal_bump_on_random_mixes(x, C):
    _check_bump_kernels(x, C)


def _glued_argument(sched, x, t):
    """x + X_{n-1} + g_{T_n}(-t - S_{n-1}) in the field's order, per point."""
    curves = [PaceCurve(K=sched.K, T=T_n, beta=sched.beta) for T_n, _, _ in sched.stages]
    S = [st_[1] for st_ in sched.stages]
    out = np.empty(np.shape(x))
    for i, (xi, ti) in enumerate(zip(np.ravel(x), np.ravel(t))):
        u = min(max(-ti, 0.0), sched.S_final)
        n = min(int(np.searchsorted(S, u, side="right")), len(S) - 1)
        s_prev = 0.0 if n == 0 else S[n - 1]
        x_prev = 0.0 if n == 0 else sched.stages[n - 1][2]
        g = curves[n].value(np.array([min(max(u - s_prev, 0.0), sched.stages[n][0])]))[0]
        out.flat[i] = (xi + x_prev) + g
    return out


GLUED_SCHEDULE = glued_schedule(0.25, 2.0, 0.632, 1.0, 2.0, 3, cap=30.0)
BUMP_FIELDS = {   # (field, t_lo, t_hi)
    "accelerating": (accelerating_potential(0.5, 0.0, 30.0, 0.632, 1.0, 2.0), 0.0, 30.0),
    "glued": (glued_potential(GLUED_SCHEDULE), -GLUED_SCHEDULE.S_final, 0.0),
}


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(sorted(BUMP_FIELDS)),
       t_frac=arrays(np.float64, (4, 12), elements=st.floats(0.0, 1.0)),
       ramp=arrays(np.float64, (4, 12), elements=st.floats(-3.0, 1.0)))
def test_fields_equal_bump_of_their_argument(kind, t_frac, ramp):
    """The accelerating and glued fields, their time slices included, give
    bump(argument, C) bit for bit, with the argument built as each field
    defines it; a scalar time (one per DP slice) gives the same bits as that
    time in an array."""
    U, t_lo, t_hi = BUMP_FIELDS[kind]
    ts = t_lo + (t_hi - t_lo) * t_frac
    edge = np.array([U.support_hint(t)[1] for t in ts.ravel()]).reshape(ts.shape)
    xs = edge + ramp

    def argument(x, t):
        if kind == "glued":
            return _glued_argument(GLUED_SCHEDULE, x, t)
        spec = U.spec
        curve = PaceCurve(K=spec["K"], T=spec["t2"] - spec["t1"], beta=spec["beta"])
        return x - spec["y"] + curve.value(np.clip(spec["t2"] - t, 0.0, curve.T))

    want_v, want_d = bump(argument(xs, ts), U.bound)
    for got, want in ((U.value(xs, ts), want_v), (U.time_slice(ts)(xs), want_v),
                      (U.grad(xs, ts), want_d), (U.grad_slice(ts)(xs), want_d)):
        assert _same_bits(got, want)
    t0 = ts[0, 0]
    want_v, want_d = bump(argument(xs[0], np.full(xs.shape[1], t0)), U.bound)
    for t in (t0, float(t0)):
        assert _same_bits(U.value(xs[0], t), want_v)
        assert _same_bits(U.grad(xs[0], t), want_d)


FIELD_KINDS = ("zero", "constant", "accelerating", "glued", "periodic", "random")


def _field(kind):
    """(field, t_lo, t_hi) of each potential kind."""
    if kind in BUMP_FIELDS:
        return BUMP_FIELDS[kind]
    return {"zero": (potential_from_spec({"kind": "zero"}), 0.0, 30.0),
            "constant": (potential_from_spec({"kind": "constant", "level": 0.3}),
                         0.0, 30.0),
            "periodic": (periodic_potential(cosine_profile(1.0, 1.3), 1.0), 0.0, 30.0),
            "random": (random_potential(5, [cosine_profile(1.0, 0.7),
                                            cosine_profile(0.5, 1.9)],
                                        2.0, 0.0, 30.0), 0.0, 30.0)}[kind]


@pytest.mark.parametrize("kind", FIELD_KINDS)
def test_fields_never_write_their_argument(kind):
    """Evaluating a field, its gradient or a time slice leaves x bit for bit
    as it was, for array and scalar times, on ramp-heavy and flat-heavy
    inputs (both sides of the bump kernels' masking rule).  x is read-only
    as well, so any write raises."""
    U, t_lo, t_hi = _field(kind)
    rng = np.random.default_rng(11)
    ts = rng.uniform(t_lo, t_hi, (3, 40))
    edge = (np.array([U.support_hint(t)[1] for t in ts.ravel()]).reshape(ts.shape)
            if U.support_hint is not None else np.zeros(ts.shape))
    for offsets in (rng.uniform(-3.0, 1.0, ts.shape), rng.uniform(-9.0, 9.0, ts.shape)):
        x = edge + offsets
        x.flags.writeable = False
        before = x.tobytes()
        for t in (ts, ts[0, 0], float(ts[0, 0])):
            for got in (U.value(x, t), U.grad(x, t),
                        U.time_slice(t)(x), U.grad_slice(t)(x)):
                assert np.shape(got) == x.shape
        assert x.tobytes() == before
