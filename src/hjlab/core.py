"""Model definition and trajectory functionals.

Lagrangian L(v,x,t) = |v|^beta/beta - U(x,t), Hamiltonian |p|^alpha/alpha + U
with 1/alpha + 1/beta = 1, and the action / energy / velocity diagnostics
evaluated on piecewise-linear trajectories.  Everything here is scalar in
space (d = 1); the moving-potential construction only needs one coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "ModelParams",
    "Trajectory",
    "PotentialField",
    "PathAction",
    "CertificationResult",
    "lagrangian",
    "hamiltonian",
    "legendre",
    "legendre_inv",
    "action",
    "discrete_action",
    "average_speed",
    "el_residual",
    "jensen_lower_bound",
    "certify_potential",
    "constant_potential",
    "zero_potential",
]


@dataclass(frozen=True)
class ModelParams:
    """Exponent beta > 1 and potential bound C >= 0.

    The dual exponent alpha is always derived from beta through
    1/alpha + 1/beta = 1; it is never stored on its own.
    """

    beta: float
    C: float = 1.0

    def __post_init__(self):
        if not self.beta > 1.0:
            raise ValueError(f"beta must be > 1, got {self.beta}")
        if not self.C >= 0.0:
            raise ValueError(f"C must be >= 0, got {self.C}")

    @property
    def alpha(self) -> float:
        return self.beta / (self.beta - 1.0)


@dataclass(frozen=True)
class Trajectory:
    """Piecewise-linear path: strictly increasing times, matching positions.

    The velocity on segment i is (x[i+1]-x[i])/(t[i+1]-t[i]); all derived
    quantities (action, average speed, residuals) use this convention.
    """

    times: np.ndarray
    positions: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        x = np.asarray(self.positions, dtype=float)
        if t.ndim != 1 or x.ndim != 1 or len(t) != len(x) or len(t) < 2:
            raise ValueError("need equal-length 1-d times/positions with >= 2 nodes")
        if not np.all(np.diff(t) > 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "positions", x)

    @property
    def velocities(self) -> np.ndarray:
        """Per-segment velocities, length len(times) - 1."""
        return np.diff(self.positions) / np.diff(self.times)

    @property
    def span(self) -> float:
        return float(self.times[-1] - self.times[0])

    def position(self, t):
        """Linear interpolation of the path at time(s) t."""
        return np.interp(t, self.times, self.positions)

    def with_positions(self, x: np.ndarray) -> "Trajectory":
        return Trajectory(self.times.copy(), np.asarray(x, dtype=float))


@dataclass(frozen=True)
class PotentialField:
    """Evaluable forcing U(x,t) with spatial gradient and certified bound.

    ``eval_fn`` and ``grad_fn`` must accept numpy arrays in x (and in t where
    both are arrays of equal shape) and be free of interior mutation so that
    concurrent evaluation is safe.  ``support_hint`` optionally maps a time to
    the spatial interval where U varies.
    """

    eval_fn: Callable
    grad_fn: Callable
    bound: float
    support_hint: Optional[Callable] = None
    kind: str = "custom"
    spec: dict = field(default_factory=dict)
    time_slice_fn: Optional[Callable] = None
    grad_slice_fn: Optional[Callable] = None

    def value(self, x, t):
        return self.eval_fn(x, t)

    def grad(self, x, t):
        return self.grad_fn(x, t)

    def time_slice(self, ts) -> Callable:
        """Partial evaluator for fixed times: returns f with f(x) = U(x, ts).

        ``ts`` is an array; the returned closure maps position arrays of the
        same shape to values.  Constructors may supply a specialized
        ``time_slice_fn`` that hoists time-only work (e.g. pace-curve values)
        out of repeated spatial queries.
        """
        if self.time_slice_fn is not None:
            return self.time_slice_fn(ts)
        ts = np.asarray(ts, dtype=float)
        return lambda x: self.eval_fn(x, ts)

    def grad_slice(self, ts) -> Callable:
        """Gradient counterpart of :meth:`time_slice`: f(x) = grad U(x, ts),
        hoisted by ``grad_slice_fn`` when the constructor supplies one."""
        if self.grad_slice_fn is not None:
            return self.grad_slice_fn(ts)
        ts = np.asarray(ts, dtype=float)
        return lambda x: self.grad_fn(x, ts)

    def __call__(self, x, t):
        return self.eval_fn(x, t)


def zero_potential(beta: float = 2.0) -> PotentialField:
    return PotentialField(
        eval_fn=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
        grad_fn=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
        bound=0.0,
        kind="zero",
        spec={"kind": "zero", "beta": beta},
    )


def constant_potential(level: float, beta: float = 2.0) -> PotentialField:
    if level < 0:
        raise ValueError("constant potential level must be >= 0")
    return PotentialField(
        eval_fn=lambda x, t: np.full_like(np.asarray(x, dtype=float), level),
        grad_fn=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
        bound=level,
        kind="constant",
        spec={"kind": "constant", "beta": beta, "level": level},
    )


def lagrangian(v: float, x: float, t: float, U: PotentialField, p: ModelParams) -> float:
    """L(v,x,t) = |v|^beta / beta - U(x,t)."""
    return float(np.abs(v) ** p.beta / p.beta - U.value(x, t))


def hamiltonian(momentum: float, x: float, t: float, U: PotentialField, p: ModelParams) -> float:
    """H(p,x,t) = |p|^alpha / alpha + U(x,t)."""
    return float(np.abs(momentum) ** p.alpha / p.alpha + U.value(x, t))


def legendre(v, p: ModelParams):
    """Momentum conjugate to velocity: v |v|^(beta-2), continuous at 0."""
    v = np.asarray(v, dtype=float)
    out = np.sign(v) * np.abs(v) ** (p.beta - 1.0)
    return out if out.ndim else float(out)


def legendre_inv(momentum, p: ModelParams):
    """Inverse map: sign(p) |p|^(1/(beta-1))."""
    m = np.asarray(momentum, dtype=float)
    out = np.sign(m) * np.abs(m) ** (1.0 / (p.beta - 1.0))
    return out if out.ndim else float(out)


class PathAction:
    """Action of piecewise-linear paths on one fixed time grid.

    Kinetic part is exact per segment: |dx|^beta / (beta |dt|^(beta-1)).
    The potential integral uses midpoint quadrature with ``quad_points``
    points per segment, evaluated along the linear interpolant.  All
    time-only work (quadrature times, kinetic denominators, weights, and the
    potential's time slices) is done once per grid, not once per evaluation.
    """

    def __init__(self, times, U: PotentialField, p: ModelParams,
                 quad_points: int = 4):
        if quad_points < 1:
            raise ValueError("need at least one quadrature point per segment")
        t = np.asarray(times, dtype=float)
        q = quad_points
        self.U, self.p, self.q = U, p, q
        self.dt = np.diff(t)
        # midpoints (k + 1/2)/q across each segment, shape (n_seg, q)
        self.frac = (np.arange(q) + 0.5) / q
        self.seg_times = t[:-1, None] + self.dt[:, None] * self.frac[None, :]
        self.kin_den = p.beta * self.dt ** (p.beta - 1.0)
        self.weights = self.dt[:, None] / q
        self._value = U.time_slice(self.seg_times)

    @cached_property
    def _grad(self):
        # quadrature weight dt/q times d seg_x/d x_i = 1 - frac, d seg_x/d x_{i+1} = frac
        w = (self.dt / self.q)[:, None]
        return self.U.grad_slice(self.seg_times), w * (1.0 - self.frac), w * self.frac

    def _points(self, x):
        dx = np.diff(x)
        return dx, x[:-1, None] + dx[:, None] * self.frac[None, :]

    def action(self, x) -> float:
        dx, xs = self._points(x)
        kinetic = np.sum(np.abs(dx) ** self.p.beta / self.kin_den)
        pot = np.sum(self._value(xs) * self.weights)
        return float(kinetic - pot)

    def grad(self, x) -> np.ndarray:
        """dA/dx_i at every node, endpoints included; the kinetic part is the
        momentum jump :func:`legendre` (v_left) - legendre(v_right)."""
        grad_slice, w_right, w_left = self._grad
        dx, xs = self._points(x)
        gU = np.asarray(grad_slice(xs), dtype=float)
        mom = legendre(dx / self.dt, self.p)
        g = np.zeros(len(x))
        g[1:] += mom
        g[:-1] -= mom
        g[:-1] -= np.sum(gU * w_right, axis=1)
        g[1:] -= np.sum(gU * w_left, axis=1)
        return g

    def local(self, I) -> Callable:
        """Evaluator f(x, xi): action of the two segments around interior
        nodes I of path x, with those nodes moved to xi (one row per node)."""
        ts, q, frac, beta = self.seg_times, self.q, self.frac, self.p.beta
        left, right = self.U.time_slice(ts[I - 1]), self.U.time_slice(ts[I])
        dtl, dtr = self.dt[I - 1], self.dt[I]
        kl, kr = self.kin_den[I - 1], self.kin_den[I]

        def f(x, xi):
            a, b = x[I - 1], x[I + 1]
            kin = np.abs(xi - a) ** beta / kl + np.abs(b - xi) ** beta / kr
            xl = a[:, None] + (xi - a)[:, None] * frac[None, :]
            xr = xi[:, None] + (b - xi)[:, None] * frac[None, :]
            pot = (np.sum(left(xl), axis=1) * dtl / q
                   + np.sum(right(xr), axis=1) * dtr / q)
            return kin - pot

        return f


def action(traj: Trajectory, U: PotentialField, p: ModelParams,
           quad_points_per_segment: int = 4) -> float:
    """Action of a piecewise-linear path (see :class:`PathAction`)."""
    return PathAction(traj.times, U, p, quad_points_per_segment).action(traj.positions)


def discrete_action(points: Sequence[float], kicks: Sequence[Callable], p: ModelParams) -> float:
    """Frenkel-Kontorova sum: sum_i |x_{i+1}-x_i|^beta/beta - U_i(x_i).

    ``kicks`` holds one spatial snapshot per transition; its length must be
    len(points) - 1.
    """
    x = np.asarray(points, dtype=float)
    if len(kicks) != len(x) - 1:
        raise ValueError(f"need len(points)-1 kicks, got {len(kicks)} for {len(x)} points")
    kinetic = np.sum(np.abs(np.diff(x)) ** p.beta) / p.beta
    pot = sum(float(kicks[i](x[i])) for i in range(len(kicks)))
    return float(kinetic - pot)


def average_speed(traj: Trajectory, s: float) -> float:
    """|gamma(t_N) - gamma(t_N - s)| / s with linear interpolation at t_N - s."""
    if not 0.0 < s <= traj.span + 1e-12:
        raise ValueError(f"s={s} outside (0, span={traj.span}]")
    t_end = traj.times[-1]
    x_end = traj.positions[-1]
    x_back = traj.position(t_end - s)
    return float(abs(x_end - x_back) / s)


def el_residual(traj: Trajectory, U: PotentialField, p: ModelParams) -> np.ndarray:
    """Euler-Lagrange residual at interior nodes.

    Uses the conserved-momentum difference form, well defined at v = 0 for
    beta < 2: [legendre(v_right) - legendre(v_left)] / dt_avg + grad U(x_i, t_i),
    with dt_avg = (t_{i+1} - t_{i-1})/2.  Zero for exact solutions of
    d/dt (v |v|^(beta-2)) = -grad U.
    """
    if len(traj.times) < 3:
        raise ValueError("need at least 3 nodes for interior residuals")
    t, x = traj.times, traj.positions
    v = traj.velocities
    mom = legendre(v, p)
    dt_avg = (t[2:] - t[:-2]) / 2.0
    dmom = (mom[1:] - mom[:-1]) / dt_avg
    g = U.grad(x[1:-1], t[1:-1])
    return np.asarray(dmom + g, dtype=float)


def jensen_lower_bound(displacement: float, duration: float, p: ModelParams) -> float:
    """Kinetic-action floor: duration^(1-beta) |displacement|^beta / beta."""
    if duration <= 0:
        raise ValueError("duration must be positive")
    return float(duration ** (1.0 - p.beta) * abs(displacement) ** p.beta / p.beta)


@dataclass(frozen=True)
class CertificationResult:
    ok: bool
    max_value: float
    min_value: float
    max_grad: float
    max_fd_mismatch: float
    samples: int

    def __bool__(self):
        return self.ok


def certify_potential(U: PotentialField, x_range, t_range, n: int = 10_000,
                      seed: int = 0, fd_step: float = 1e-5,
                      fd_tol_scale: float = 50.0) -> CertificationResult:
    """Random-sample check of 0 <= U <= bound, |grad U| <= bound, and
    agreement of grad with a central finite difference of eval.

    The finite-difference tolerance scales with fd_step**2 times the supplied
    scale factor (third-derivative headroom) plus float rounding noise.
    """
    rng = np.random.default_rng(seed)
    xs = rng.uniform(x_range[0], x_range[1], size=n)
    ts = rng.uniform(t_range[0], t_range[1], size=n)
    vals = np.asarray(U.value(xs, ts), dtype=float)
    grads = np.asarray(U.grad(xs, ts), dtype=float)

    fd = (np.asarray(U.value(xs + fd_step, ts)) - np.asarray(U.value(xs - fd_step, ts))) / (2 * fd_step)
    mismatch = float(np.max(np.abs(fd - grads))) if n else 0.0
    tol = fd_tol_scale * max(U.bound, 1.0) * fd_step ** 2 + 1e-9

    eps = 1e-12 * max(U.bound, 1.0) + 1e-12
    ok = (
        float(vals.min(initial=0.0)) >= -eps
        and float(vals.max(initial=0.0)) <= U.bound + eps
        and float(np.max(np.abs(grads), initial=0.0)) <= U.bound + eps
        and mismatch <= tol
    )
    return CertificationResult(
        ok=bool(ok),
        max_value=float(vals.max(initial=0.0)),
        min_value=float(vals.min(initial=0.0)),
        max_grad=float(np.max(np.abs(grads), initial=0.0)),
        max_fd_mismatch=mismatch,
        samples=n,
    )
