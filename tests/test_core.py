import numpy as np
import pytest

from hjlab.core import (ModelParams, PathAction, PotentialField, Trajectory,
                        average_speed, constant_potential, legendre, zero_potential)
from hjlab.potentials import (accelerating_potential, cosine_profile,
                              glued_potential, glued_schedule,
                              periodic_potential, random_potential)
from oracles import certify_potential, el_residual, jensen_lower_bound


def test_model_params_alpha_duality():
    for beta in (1.2, 1.5, 2.0, 3.0, 7.0):
        p = ModelParams(beta=beta, C=0.5)
        assert abs(1.0 / p.alpha + 1.0 / p.beta - 1.0) < 1e-15


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(beta=1.0)
    with pytest.raises(ValueError):
        ModelParams(beta=2.0, C=-0.1)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 1.0]), np.array([1.0]))
    tr = Trajectory(np.array([0.0, 1.0, 3.0]), np.array([0.0, 2.0, 2.0]))
    assert np.allclose(tr.velocities, [2.0, 0.0])


def test_legendre_examples_and_inverse():
    assert legendre(-3.0, ModelParams(2.0)) == pytest.approx(-3.0)
    assert legendre(2.0, ModelParams(3.0)) == pytest.approx(4.0)
    assert legendre(0.25, ModelParams(1.5)) == pytest.approx(0.5)
    assert legendre(0.0, ModelParams(1.5)) == 0.0
    rng = np.random.default_rng(0)
    for beta in (1.3, 1.5, 2.0, 2.7, 4.0):
        p = ModelParams(beta)
        v = rng.uniform(-5, 5, 100)
        m = legendre(v, p)
        # inverse map: sign(m) |m|^(1/(beta-1))
        back = np.sign(m) * np.abs(m) ** (1.0 / (beta - 1.0))
        assert np.allclose(back, v, rtol=1e-12, atol=1e-12)


def test_legendre_duality_identity():
    # H(legendre(v)) + L(v) = legendre(v) * v, with H(m) = |m|^alpha / alpha
    # and L(v) = |v|^beta / beta on the zero-potential slice
    rng = np.random.default_rng(1)
    for beta in (1.5, 2.0, 3.0):
        p = ModelParams(beta)
        for v in rng.uniform(-4, 4, 50):
            mom = legendre(float(v), p)
            lhs = abs(mom) ** p.alpha / p.alpha + abs(v) ** beta / beta
            assert lhs == pytest.approx(mom * v, rel=1e-12, abs=1e-12)


def test_action_examples():
    p2 = ModelParams(2.0)
    U0 = zero_potential()
    unit = np.array([0.0, 1.0])
    assert PathAction(unit, U0, p2).action(unit) == pytest.approx(0.5)

    Uc = constant_potential(0.8)
    t = np.linspace(0, 5, 11)
    assert PathAction(t, Uc, p2).action(np.full(11, 2.0)) == pytest.approx(-0.8 * 5.0)

    p3 = ModelParams(3.0)
    assert PathAction(unit, U0, p3).action(2.0 * unit) == pytest.approx(8.0 / 3.0)


def test_action_rejects_bad_quadrature():
    with pytest.raises(ValueError):
        PathAction(np.array([0.0, 1.0]), zero_potential(), ModelParams(2.0),
                   quad_points=0)


def test_average_speed_examples():
    uniform = Trajectory(np.linspace(0, 3, 7), 2.0 * np.linspace(0, 3, 7))
    for s in (0.5, 1.0, 3.0):
        assert average_speed(uniform, s) == pytest.approx(2.0)

    loop = Trajectory(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 0.0]))
    assert average_speed(loop, 2.0) == pytest.approx(0.0)

    two = Trajectory(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 1.0]))
    assert average_speed(two, 2.0) == pytest.approx(0.5)

    with pytest.raises(ValueError):
        average_speed(two, 5.0)


def test_el_residual_straight_line():
    p2 = ModelParams(2.0)
    tr = Trajectory(np.linspace(0, 1, 11), 3.0 * np.linspace(0, 1, 11))
    assert np.max(np.abs(el_residual(tr, zero_potential(), p2))) < 1e-12


def _linear_ramp_potential(c=20.0):
    # U(x,t) = c - x on a region containing the test paths: grad = -1
    def _slice(ts, deriv):
        if deriv:
            return lambda x: np.where(np.asarray(x, dtype=float) < c, -1.0, 0.0)
        return lambda x: np.clip(c - np.asarray(x, dtype=float), 0.0, None)

    return PotentialField(_slice, bound=c)


def test_el_residual_parabola_first_order():
    # x = t^2/2 solves d/dt(v) = 1 = -grad U for U = -x (shifted nonnegative)
    p2 = ModelParams(2.0, C=20.0)
    U = _linear_ramp_potential()
    res_at = {}
    for n in (40, 80):
        t = np.linspace(0, 2, n + 1)
        tr = Trajectory(t, t**2 / 2)
        res_at[n] = np.max(np.abs(el_residual(tr, U, p2)))
    # midpoint velocities make the parabola residual O(dt^2) here; it must
    # at least decay at first order
    assert res_at[80] <= 0.6 * res_at[40] + 1e-12


def test_jensen_lower_bound_examples_and_property():
    p2 = ModelParams(2.0)
    assert jensen_lower_bound(2.0, 1.0, p2) == pytest.approx(2.0)
    assert jensen_lower_bound(0.0, 3.0, p2) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        jensen_lower_bound(1.0, 0.0, p2)

    U0 = zero_potential()
    rng = np.random.default_rng(7)
    for beta in (1.5, 2.0, 3.0):
        p = ModelParams(beta)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            t = np.sort(rng.uniform(0, 5, n))
            while len(np.unique(t)) < n or np.min(np.diff(t)) < 1e-3:
                t = np.sort(rng.uniform(0, 5, n))
            x = rng.uniform(-3, 3, n)
            jb = jensen_lower_bound(x[-1] - x[0], t[-1] - t[0], p)
            assert PathAction(t, U0, p).action(x) >= jb - 1e-12


def test_certify_potential_bounds():
    Uc = constant_potential(0.5)
    res = certify_potential(Uc, (-5, 5), (0, 10), n=10_000)
    assert res.ok and res.max_value <= 0.5

    bad = PotentialField(lambda ts, deriv: lambda x: (
        np.full_like(np.asarray(x, dtype=float), 0.0 if deriv else 2.0)), bound=1.0)
    assert not certify_potential(bad, (-1, 1), (0, 1), n=100).ok


def test_constant_potential_rejects_negative_and_nan_level():
    # NaN < 0 and NaN >= 0 are both false: the check must reject NaN itself
    for level in (-0.5, float("nan")):
        with pytest.raises(ValueError, match=f"level must be >= 0, got {level}"):
            constant_potential(level)
    assert constant_potential(0.0).bound == 0.0


def test_time_slice_default_path():
    Uc = constant_potential(0.3)
    f = Uc.time_slice(np.array([0.0, 1.0]))
    assert np.allclose(f(np.array([5.0, -2.0])), 0.3)


@pytest.mark.parametrize("beta", (1.5, 2.0, 3.0))
@pytest.mark.parametrize("kind", ("accelerating", "periodic"))
def test_path_action_grad_matches_central_differences(kind, beta):
    p = ModelParams(beta)
    t = np.linspace(0.0, 4.0, 31)
    if kind == "accelerating":
        # ride across the moving ramp; speeds stay >= 0.5, away from the
        # kink of |v|^beta at v = 0
        U = accelerating_potential(0.0, 0.0, 4.0, 0.8, 1.0, beta)
        x = np.array([U.support_hint(tk)[1] for tk in t]) - 1.0 + 0.5 * t
    else:
        U = periodic_potential(cosine_profile(1.0, 1.3), 1.0)
        x = 1.5 * t + 0.2 * np.sin(5.0 * t)
    pa = PathAction(t, U, p)
    g = pa.grad(x)
    h = 1e-6
    fd = np.empty(len(x))
    for i in range(len(x)):
        e = np.zeros(len(x))
        e[i] = h
        fd[i] = (pa.action(x + e) - pa.action(x - e)) / (2.0 * h)
    assert np.max(np.abs(g - fd)) <= 1e-7 * (1.0 + np.max(np.abs(g)))


@pytest.mark.parametrize("q", [1, 2, 3, 4, 7])
@pytest.mark.parametrize("kind", ["accelerating", "glued", "periodic", "random"])
def test_path_action_local_equals_node_major_sum(kind, q):
    """local(I) lays the quadrature points out as (q, len(I)), left and right
    segments stacked into one (2q, len(I)) evaluation; its values equal the
    node-major (len(I), q) evaluation with a per-node row sum bit for bit
    (numpy adds rows of fewer than 8 terms in index order), and x is left
    as it was."""
    p = ModelParams(2.0)
    t = np.linspace(0.0, 4.0, 41)
    if kind in ("accelerating", "glued"):
        if kind == "accelerating":
            U = accelerating_potential(0.0, 0.0, 4.0, 0.8, 1.0, 2.0)
        else:   # stages of 2 and 30 time units: the path crosses a stage boundary
            t = t - 4.0
            U = glued_potential(glued_schedule(0.25, 2.0, 0.8, 1.0, 2.0, 2, cap=30.0))
        x = np.array([U.support_hint(tk)[1] for tk in t]) - 1.0 + 0.5 * (t - t[0])
    else:
        if kind == "periodic":
            U = periodic_potential(cosine_profile(1.0, 1.3), 1.0)
        else:
            U = random_potential(3, [cosine_profile(1.0, 0.7), cosine_profile(0.5, 1.9)],
                                 2.0, 0.0, 4.0)
        x = 1.5 * t + 0.2 * np.sin(5.0 * t)
    pa = PathAction(t, U, p, quad_points=q)
    rng = np.random.default_rng(q)
    for I in (np.arange(1, len(x) - 1, 2), np.arange(2, len(x) - 1, 2)):
        xi = x[I] + rng.uniform(-0.3, 0.3, len(I))
        a, b = x[I - 1], x[I + 1]
        frac = pa.frac[None, :]
        xl = a[:, None] + (xi - a)[:, None] * frac
        xr = xi[:, None] + (b - xi)[:, None] * frac
        pot = (np.sum(U.time_slice(pa.seg_times[I - 1])(xl), axis=1) * pa.dt[I - 1] / q
               + np.sum(U.time_slice(pa.seg_times[I])(xr), axis=1) * pa.dt[I] / q)
        kin = (np.abs(xi - a) ** 2.0 / pa.kin_den[I - 1]
               + np.abs(b - xi) ** 2.0 / pa.kin_den[I])
        before = x.tobytes()
        assert pa.local(I)(x, xi).tobytes() == (kin - pot).tobytes()
        assert x.tobytes() == before
