"""Model definition and the path action.

Lagrangian L(v,x,t) = |v|^beta/beta - U(x,t), Hamiltonian |p|^alpha/alpha + U
with 1/alpha + 1/beta = 1; :class:`PathAction` is the one evaluator of the
action and its gradient on piecewise-linear trajectories, and
:func:`average_speed` reads speeds off them.  Everything here is scalar in
space (d = 1); the moving-potential construction only needs one coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

__all__ = [
    "ModelParams",
    "Trajectory",
    "PotentialField",
    "PathAction",
    "legendre",
    "average_speed",
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

    ``slice_fn(ts, deriv)`` is the one evaluator: for fixed times ``ts`` it
    returns f with f(x) = U(x, ts), or dU/dx(x, ts) when ``deriv`` is true,
    so time-only work (e.g. pace-curve values) is done once per slice.  f
    must accept numpy arrays in x that broadcast against ``ts``.
    ``support_hint``, when given, maps times t (a scalar or an array) to the
    bounds (lo, hi) of the spatial interval where U varies; hi is the edge
    that a co-moving window follows.
    """

    slice_fn: Callable
    bound: float
    support_hint: Optional[Callable] = None
    spec: dict = field(default_factory=dict)

    def value(self, x, t):
        return self.slice_fn(t, False)(x)

    def grad(self, x, t):
        return self.slice_fn(t, True)(x)

    def time_slice(self, ts) -> Callable:
        """Partial evaluator for fixed times: returns f with f(x) = U(x, ts)."""
        return self.slice_fn(ts, False)

    def grad_slice(self, ts) -> Callable:
        """Gradient counterpart of :meth:`time_slice`: f(x) = grad U(x, ts)."""
        return self.slice_fn(ts, True)


def zero_potential(beta: float = 2.0) -> PotentialField:
    return PotentialField(
        lambda ts, deriv: lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        bound=0.0,
        spec={"kind": "zero", "beta": beta},
    )


def constant_potential(level: float, beta: float = 2.0) -> PotentialField:
    if not level >= 0:   # a NaN level fails this too
        raise ValueError(f"constant potential level must be >= 0, got {level}")

    def _slice(ts, deriv):
        fill = 0.0 if deriv else level
        return lambda x: np.full_like(np.asarray(x, dtype=float), fill)

    return PotentialField(
        _slice,
        bound=level,
        spec={"kind": "constant", "beta": beta, "level": level},
    )


def legendre(v, p: ModelParams):
    """Momentum conjugate to velocity: v |v|^(beta-2), continuous at 0."""
    v = np.asarray(v, dtype=float)
    out = np.sign(v) * np.abs(v) ** (p.beta - 1.0)
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
        nodes I of x, with those nodes moved to xi (one entry per node).

        x may stack several paths on this time grid, row after row: I are
        flat indices into it, node I at time index I mod n (n nodes a row),
        and each node reads its neighbours I - 1 and I + 1.
        Quadrature points are laid out quadrature-major, (q, len(I)), so every
        elementwise op runs on long contiguous rows.  Summing the q rows adds
        each node's points in index order, as a row sum of the (len(I), q)
        layout does for q < 8 (numpy sums longer rows pairwise).  The left
        segments' points fill the first q rows of one reused (2q, len(I))
        buffer and the right segments' the last q, so each evaluation makes
        one potential call over the stacked times.
        """
        ts, q, frac, beta = self.seg_times, self.q, self.frac[:, None], self.p.beta
        i = I % (len(self.dt) + 1)
        both = self.U.time_slice(np.concatenate((ts[i - 1].T, ts[i].T)))
        pts = np.empty((2 * q, len(I)))
        xl, xr = pts[:q], pts[q:]
        dtl, dtr = self.dt[i - 1], self.dt[i]
        kl, kr = self.kin_den[i - 1], self.kin_den[i]
        before, after = I - 1, I + 1

        def f(x, xi):
            a, b = x[before], x[after]
            dl, dr = xi - a, b - xi
            kin = np.abs(dl) ** beta / kl + np.abs(dr) ** beta / kr
            np.add(a, np.multiply(dl, frac, out=xl), out=xl)   # a + (xi - a) frac
            np.add(xi, np.multiply(dr, frac, out=xr), out=xr)  # xi + (b - xi) frac
            u = both(pts)
            pot = (np.sum(u[:q], axis=0) * dtl / q
                   + np.sum(u[q:], axis=0) * dtr / q)
            return kin - pot

        return f

    def head(self, I) -> Callable:
        """Evaluator f(x, xi) like :meth:`local` for first nodes alone: action
        of the first segment with the nodes I (flat indices of time index 0
        into stacked paths) moved to xi."""
        q, frac, beta = self.q, self.frac[:, None], self.p.beta
        first = self.U.time_slice(self.seg_times[:1].T)
        dt0, k0 = self.dt[:1], self.kin_den[:1]
        after = I + 1

        def f(x, xi):
            dr = x[after] - xi
            u = first(xi + dr * frac)
            return np.abs(dr) ** beta / k0 - np.sum(u, axis=0) * dt0 / q

        return f


def average_speed(traj: Trajectory, s: float) -> float:
    """|gamma(t_N) - gamma(t_N - s)| / s with linear interpolation at t_N - s."""
    if not 0.0 < s <= traj.span + 1e-12:
        raise ValueError(f"s={s} outside (0, span={traj.span}]")
    t_end = traj.times[-1]
    x_end = traj.positions[-1]
    x_back = traj.position(t_end - s)
    return float(abs(x_end - x_back) / s)
