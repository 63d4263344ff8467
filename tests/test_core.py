import numpy as np
import pytest

from hjlab.core import (ModelParams, PathAction, PotentialField, Trajectory,
                        action, average_speed, certify_potential, constant_potential,
                        discrete_action, el_residual, hamiltonian,
                        jensen_lower_bound, lagrangian, legendre, legendre_inv,
                        zero_potential)
from hjlab.potentials import (accelerating_potential, cosine_profile,
                              periodic_potential)


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


def test_lagrangian_examples():
    U0 = zero_potential()
    assert lagrangian(1.0, 0.0, 0.0, U0, ModelParams(2.0)) == pytest.approx(0.5)
    U3 = constant_potential(0.3)
    assert lagrangian(0.0, 1.0, 1.0, U3, ModelParams(2.0)) == pytest.approx(-0.3)
    assert lagrangian(2.0, 0.0, 0.0, U0, ModelParams(3.0)) == pytest.approx(8.0 / 3.0)


def test_hamiltonian_examples():
    U0 = zero_potential()
    p2 = ModelParams(2.0)
    assert hamiltonian(1.0, 0.0, 0.0, U0, p2) == pytest.approx(0.5)
    U7 = constant_potential(0.7)
    assert hamiltonian(0.0, 0.0, 0.0, U7, p2) == pytest.approx(0.7)


def test_legendre_examples_and_inverse():
    assert legendre(-3.0, ModelParams(2.0)) == pytest.approx(-3.0)
    assert legendre(2.0, ModelParams(3.0)) == pytest.approx(4.0)
    assert legendre_inv(0.5, ModelParams(1.5)) == pytest.approx(0.25)
    assert legendre(0.0, ModelParams(1.5)) == 0.0
    rng = np.random.default_rng(0)
    for beta in (1.3, 1.5, 2.0, 2.7, 4.0):
        p = ModelParams(beta)
        v = rng.uniform(-5, 5, 100)
        assert np.allclose(legendre_inv(legendre(v, p), p), v, rtol=1e-12, atol=1e-12)


def test_legendre_duality_identity():
    # H(legendre(v)) + L(v) = legendre(v) * v on the zero-potential slice
    U0 = zero_potential()
    rng = np.random.default_rng(1)
    for beta in (1.5, 2.0, 3.0):
        p = ModelParams(beta)
        for v in rng.uniform(-4, 4, 50):
            mom = legendre(float(v), p)
            lhs = hamiltonian(mom, 0.0, 0.0, U0, p) + lagrangian(float(v), 0.0, 0.0, U0, p)
            assert lhs == pytest.approx(mom * v, rel=1e-12, abs=1e-12)


def test_action_examples():
    p2 = ModelParams(2.0)
    U0 = zero_potential()
    straight = Trajectory(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    assert action(straight, U0, p2) == pytest.approx(0.5)

    Uc = constant_potential(0.8)
    const = Trajectory(np.linspace(0, 5, 11), np.full(11, 2.0))
    assert action(const, Uc, p2) == pytest.approx(-0.8 * 5.0)

    p3 = ModelParams(3.0)
    fast = Trajectory(np.array([0.0, 1.0]), np.array([0.0, 2.0]))
    assert action(fast, U0, p3) == pytest.approx(8.0 / 3.0)


def test_action_rejects_bad_quadrature():
    with pytest.raises(ValueError):
        action(Trajectory(np.array([0.0, 1.0]), np.array([0.0, 1.0])),
               zero_potential(), ModelParams(2.0), quad_points_per_segment=0)


def test_discrete_action_examples():
    p2 = ModelParams(2.0)
    zero_kicks = [lambda x: 0.0, lambda x: 0.0]
    assert discrete_action([0.0, 1.0, 3.0], zero_kicks, p2) == pytest.approx(2.5)

    c_kicks = [lambda x: 0.4] * 5
    assert discrete_action([1.0] * 6, c_kicks, p2) == pytest.approx(-2.0)

    p3 = ModelParams(3.0)
    assert discrete_action([0.0, 1.0], [lambda x: 1.0], p3) == pytest.approx(1 / 3 - 1)

    with pytest.raises(ValueError):
        discrete_action([0.0, 1.0], [lambda x: 0.0, lambda x: 0.0], p2)


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
    return PotentialField(
        eval_fn=lambda x, t: np.clip(c - np.asarray(x, dtype=float), 0.0, None),
        grad_fn=lambda x, t: np.where(np.asarray(x, dtype=float) < c, -1.0, 0.0),
        bound=c,
    )


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
            tr = Trajectory(t, x)
            jb = jensen_lower_bound(x[-1] - x[0], t[-1] - t[0], p)
            assert action(tr, U0, p) >= jb - 1e-12


def test_certify_potential_bounds():
    Uc = constant_potential(0.5)
    res = certify_potential(Uc, (-5, 5), (0, 10), n=10_000)
    assert res.ok and res.max_value <= 0.5

    bad = PotentialField(
        eval_fn=lambda x, t: np.full_like(np.asarray(x, dtype=float), 2.0),
        grad_fn=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
        bound=1.0,
    )
    assert not certify_potential(bad, (-1, 1), (0, 1), n=100).ok


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
