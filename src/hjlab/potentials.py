"""Construction of the forcing potentials.

The moving-step ("accelerating") potential drags minimizers behind an edge
that retreats along the pace curve g_T; glued stages extend it to a
semi-infinite interval; periodic and seeded-random fields serve as controls.
All constructors return immutable :class:`~hjlab.core.PotentialField` objects
whose evaluation is vectorized and reentrant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy import integrate
from scipy.special import gamma as gamma_fn
from scipy.special import gammaincc

from .core import PotentialField

__all__ = [
    "bump",
    "PaceCurve",
    "pace",
    "pace_energy_closed",
    "pace_residue",
    "pace_main_gap",
    "pace_s2_gap",
    "accelerating_potential",
    "GluedSchedule",
    "glued_schedule",
    "glued_potential",
    "ScheduleOverflowError",
    "SpatialProfile",
    "cosine_profile",
    "periodic_potential",
    "random_potential",
    "potential_from_spec",
]

# Glued schedules with uncapped T_n beyond this horizon cannot be simulated;
# float64 would still represent exp(191), but no desk-scale run can use it.
FEASIBLE_HORIZON_MAX = 1e12


def bump(x, C: float):
    """C1 step profile: C for x <= -2, 0 for x >= 0, cubic smoothstep between.

    Returns (value, d/dx).  The smoothstep slope peaks at 0.75*C, inside the
    required [-C, 0] band.
    """
    if C < 0:
        raise ValueError("C must be >= 0")
    x = np.asarray(x, dtype=float)
    u = np.clip(-x / 2.0, 0.0, 1.0)
    val = C * (3.0 * u**2 - 2.0 * u**3)
    der = -3.0 * C * u * (1.0 - u)
    if val.ndim == 0:
        return float(val), float(der)
    return val, der


@dataclass(frozen=True)
class PaceCurve:
    """Pace curve g(s) = K * integral_0^s (log(T/u))^(2/beta) du on [0, T].

    The substitution v = log(T/u) turns g into an incomplete-gamma tail,
    g(s) = K*T*Gamma(1+2/beta)*Q(1+2/beta, log(T/s)), which is what
    :meth:`value` evaluates; :meth:`value_quad` integrates the tail by
    adaptive quadrature instead and serves as the independent cross-check.
    """

    K: float
    T: float
    beta: float
    quad_tol: float = 1e-10

    def __post_init__(self):
        if not (self.K > 0 and self.T > 0 and self.beta > 1):
            raise ValueError("need K > 0, T > 0, beta > 1")

    @property
    def _a(self) -> float:
        return 1.0 + 2.0 / self.beta

    def _check_range(self, s):
        s = np.asarray(s, dtype=float)
        if np.any(s < -1e-12) or np.any(s > self.T * (1 + 1e-12)):
            raise ValueError(f"s outside [0, T={self.T}]")
        return np.clip(s, 0.0, self.T)

    def value(self, s):
        """g(s), vectorized; exact incomplete-gamma evaluation."""
        s = self._check_range(s)
        scalar = s.ndim == 0
        s = np.atleast_1d(s)
        out = np.zeros_like(s)
        pos = s > 0.0
        if np.any(pos):
            z = np.log(self.T / s[pos])
            out[pos] = self.K * self.T * gamma_fn(self._a) * gammaincc(self._a, z)
        return float(out[0]) if scalar else out

    def value_quad(self, s: float, tol: Optional[float] = None) -> float:
        """g(s) by adaptive quadrature of the tail integral (oracle path)."""
        s = float(self._check_range(s))
        if s == 0.0:
            return 0.0
        tol = self.quad_tol if tol is None else tol
        z = math.log(self.T / s)
        p = 2.0 / self.beta
        tail, _ = integrate.quad(lambda v: v**p * math.exp(-v), z, np.inf,
                                 epsabs=0.0, epsrel=tol, limit=200)
        return self.K * self.T * tail

    def deriv(self, s):
        """g'(s) = K (log(T/s))^(2/beta); 0 at s = T.

        At s = 0 the mathematical limit diverges; by convention the value
        K (log T)^(2/beta) is returned there (the scale of the curve's speed
        one unit before the terminal time).
        """
        s = self._check_range(s)
        scalar = s.ndim == 0
        s = np.atleast_1d(s)
        z = np.empty_like(s)
        zero = s <= 0.0
        z[zero] = math.log(self.T) if self.T > 1 else 0.0
        z[~zero] = np.maximum(np.log(self.T / s[~zero]), 0.0)
        out = self.K * z ** (2.0 / self.beta)
        return float(out[0]) if scalar else out

    def energy_closed(self, s: float) -> float:
        """Closed form of integral_0^s (g')^beta / beta du."""
        if s <= 0:
            raise ValueError("s must be > 0")
        s = float(self._check_range(s))
        z = math.log(self.T / s) if s < self.T else 0.0
        return (self.K**self.beta / self.beta) * s * (z * z + 2.0 * z + 2.0)

    def energy_quad(self, s: float, tol: float = 1e-12) -> float:
        """Adaptive quadrature of integral_0^s (g')^beta / beta du (oracle)."""
        s = float(self._check_range(s))
        val, _ = integrate.quad(
            lambda u: self.K**self.beta * math.log(self.T / u) ** 2 / self.beta,
            0.0, s, epsabs=0.0, epsrel=tol, limit=400, points=[0.0, s],
        )
        return val


def pace(s, curve: PaceCurve):
    """(g(s), g'(s)) for 0 <= s <= T."""
    return curve.value(s), curve.deriv(s)


def pace_energy_closed(s: float, curve: PaceCurve) -> float:
    return curve.energy_closed(s)


def pace_residue(s: float, curve: PaceCurve):
    """Split g(s) = K s z^(2/beta) (1 + 2/(beta z) + (2(2-beta)/beta^2) r).

    Returns (main_term, r) with main_term = K s z^(2/beta) (1 + 2/(beta z)).
    The remainder satisfies 0 <= r <= z^(-2).  For beta = 2 the coefficient
    in front of r vanishes and r = 0 is returned by convention (degenerate
    case; g is exactly the main term there).
    """
    s = float(s)
    if not (0.0 < s < curve.T):
        raise ValueError("pace_residue needs 0 < s < T")
    z = math.log(curve.T / s)
    base = curve.K * s * z ** (2.0 / curve.beta)
    main = base * (1.0 + 2.0 / (curve.beta * z))
    if curve.beta == 2.0:
        return main, 0.0
    g = curve.value(s)
    r = (g / base - 1.0 - 2.0 / (curve.beta * z)) * curve.beta**2 / (2.0 * (2.0 - curve.beta))
    return main, float(r)


def pace_main_gap(s: float, curve: PaceCurve) -> float:
    """Energy integral minus its Jensen floor; lies in [0, 4 K^beta s / beta)."""
    g = curve.value(s)
    return curve.energy_closed(s) - s ** (1.0 - curve.beta) * g**curve.beta / curve.beta


def pace_s2_gap(s: float, curve: PaceCurve) -> float:
    """(g(s)-g(1))^beta/(s-1)^(beta-1) - g(s)^beta/s^(beta-1) for 3 < s <= T."""
    s = float(s)
    if s <= 3.0:
        raise ValueError("pace_s2_gap needs s > 3")
    b = curve.beta
    g_s = curve.value(s)
    g_1 = curve.value(min(1.0, curve.T))
    return float((g_s - g_1) ** b / (s - 1.0) ** (b - 1.0) - g_s**b / s ** (b - 1.0))


def accelerating_potential(y: float, t1: float, t2: float, K: float, C: float,
                           beta: float, quad_tol: float = 1e-10) -> PotentialField:
    """Moving-step potential U(x,t) = bump(x - y + g_T(t2 - t)) with T = t2-t1.

    The zero edge starts at y - g_T(T) and advances to y at t2, accelerating
    as it goes; minimizers ride behind it.
    """
    if not t2 > t1:
        raise ValueError("need t2 > t1")
    if not (K > 0 and C > 0):
        raise ValueError("need K > 0 and C > 0")
    curve = PaceCurve(K=K, T=t2 - t1, beta=beta, quad_tol=quad_tol)

    def _slice(ts, which):
        g = curve.value(np.clip(t2 - np.asarray(ts, dtype=float), 0.0, curve.T))
        return lambda x: bump(np.asarray(x, dtype=float) - y + g, C)[which]

    def support_hint(t):
        g = curve.value(float(np.clip(t2 - t, 0.0, curve.T)))
        return (y - g - 2.0, y - g)

    return PotentialField(
        eval_fn=lambda x, t: _slice(t, 0)(x), grad_fn=lambda x, t: _slice(t, 1)(x),
        bound=C, support_hint=support_hint, kind="accelerating",
        spec={"kind": "accelerating", "beta": beta, "C": C, "K": K,
              "t1": t1, "t2": t2, "y": y},
        time_slice_fn=lambda ts: _slice(ts, 0),
        grad_slice_fn=lambda ts: _slice(ts, 1),
    )


class ScheduleOverflowError(OverflowError):
    """Uncapped glued schedule left the desk-scale feasible range."""


@dataclass(frozen=True)
class GluedSchedule:
    """Stage horizons (T_n), cumulative times (S_n) and drag offsets (X_n).

    X_n accumulates the per-stage total displacements g_{T_i}(T_i) and equals
    Kbar * S_n with Kbar = K * Gamma(1 + 2/beta).  ``capped`` flags schedules
    whose horizons were clamped; those demonstrate the gluing mechanism only,
    not the asymptotics.
    """

    epsilon: float
    Tbar: float
    K: float
    C: float
    beta: float
    stages: tuple  # ((T_n, S_n, X_n), ...)
    Kbar: float
    capped: bool = False
    cap: Optional[float] = None

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    @property
    def S_final(self) -> float:
        return self.stages[-1][1]

    def spec_dict(self) -> dict:
        return {"kind": "glued", "beta": self.beta, "C": self.C, "K": self.K,
                "epsilon": self.epsilon, "Tbar": self.Tbar,
                "n_max": self.n_stages, "cap": self.cap}


def glued_schedule(epsilon: float, Tbar: float, K: float, C: float, beta: float,
                   n_max: int, cap: Optional[float] = None) -> GluedSchedule:
    """Stage recursion T_1 = S_1 = max(1, Tbar), T_n = exp(S_{n-1}^(1/epsilon)).

    Uncapped horizons beyond FEASIBLE_HORIZON_MAX raise
    :class:`ScheduleOverflowError`; with ``cap`` they are clamped and the
    schedule is flagged non-asymptotic.
    """
    eps_max = 2.0 * (beta - 1.0) / beta**2
    if not 0.0 < epsilon < eps_max:
        raise ValueError(f"epsilon must lie in (0, {eps_max}) for beta={beta}")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")

    kbar = K * gamma_fn(1.0 + 2.0 / beta)
    T1 = max(1.0, float(Tbar))
    stages = [(T1, T1, kbar * T1)]
    capped = False
    for _ in range(2, n_max + 1):
        S_prev = stages[-1][1]
        exponent = S_prev ** (1.0 / epsilon)
        feasible = exponent < math.log(FEASIBLE_HORIZON_MAX)
        if not feasible and cap is None:
            raise ScheduleOverflowError(
                f"T_n = exp({exponent:.4g}) exceeds the feasible horizon "
                f"{FEASIBLE_HORIZON_MAX:.0e}; supply a cap for a mechanism demo"
            )
        T_n = math.exp(exponent) if feasible else math.inf
        if cap is not None and T_n > cap:
            T_n = float(cap)
            capped = True
        S_n = S_prev + T_n
        stages.append((T_n, S_n, kbar * S_n))
    return GluedSchedule(epsilon=epsilon, Tbar=Tbar, K=K, C=C, beta=beta,
                         stages=tuple(stages), Kbar=kbar, capped=capped, cap=cap)


def glued_potential(schedule: GluedSchedule, C: Optional[float] = None,
                    K: Optional[float] = None, beta: Optional[float] = None,
                    quad_tol: float = 1e-10) -> PotentialField:
    """Concatenated accelerating potential on t in (-S_n_max, 0].

    On stage n (t in (-S_n, -S_{n-1}]) the field is
    bump(x + X_{n-1} + g_{T_n}(-t - S_{n-1})): the edge of stage n starts at
    -X_n and ends at -X_{n-1}, so consecutive stages join continuously and
    stage 1 finishes with bump(x) at t = 0.
    """
    C = schedule.C if C is None else C
    K = schedule.K if K is None else K
    beta = schedule.beta if beta is None else beta
    curves = [PaceCurve(K=K, T=T_n, beta=beta, quad_tol=quad_tol)
              for (T_n, _, _) in schedule.stages]
    S = np.array([st[1] for st in schedule.stages])       # S_1..S_n
    S_prev = np.concatenate(([0.0], S[:-1]))              # S_0..S_{n-1}
    X_prev = np.concatenate(([0.0], [st[2] for st in schedule.stages[:-1]]))
    S_final = schedule.S_final

    def _stage(t):
        """Stage offset X_{n-1} and pace value g_{T_n}(-t - S_{n-1}) at t."""
        u = -np.asarray(t, dtype=float)
        if np.any(u < -1e-9) or np.any(u >= S_final * (1 + 1e-12) + 1e-9):
            raise ValueError(f"t outside covered range (-{S_final}, 0]")
        u = np.clip(u, 0.0, S_final)
        idx = np.minimum(np.searchsorted(S, u, side="right"), len(S) - 1)
        g = np.empty(u.shape)
        for n in np.unique(idx):
            m = idx == n
            g[m] = curves[n].value(np.clip(u[m] - S_prev[n], 0.0, schedule.stages[n][0]))
        return X_prev[idx], g

    def _slice(ts, which):
        # x + X_{n-1} + g, in that order, as the field is defined
        offset, g = _stage(ts)
        return lambda x: bump(np.asarray(x, dtype=float) + offset + g, C)[which]

    def _field(which):
        def fn(x, t):
            v = _slice(t, which)(x)
            return v if np.ndim(x) or np.ndim(t) else float(v)
        return fn

    def support_hint(t):
        offset, g = _stage(t)
        a = float(offset + g)   # the argument at x = 0 gives the edge offset
        return (-a - 2.0, -a)

    spec = schedule.spec_dict()
    return PotentialField(eval_fn=_field(0), grad_fn=_field(1), bound=C,
                          support_hint=support_hint, kind="glued", spec=spec,
                          time_slice_fn=lambda ts: _slice(ts, 0),
                          grad_slice_fn=lambda ts: _slice(ts, 1))


@dataclass(frozen=True)
class SpatialProfile:
    """C1 spatial profile with certified sup-value and sup-|derivative|."""

    value_fn: Callable
    deriv_fn: Callable
    sup_value: float
    sup_deriv: float
    spec: dict = field(default_factory=dict)

    def value(self, x):
        return self.value_fn(np.asarray(x, dtype=float))

    def deriv(self, x):
        return self.deriv_fn(np.asarray(x, dtype=float))


def cosine_profile(amplitude: float, wavenumber: float = 1.0,
                   phase: float = 0.0) -> SpatialProfile:
    """amplitude * (1 + cos(k x + phase)) / 2; derivative bounded by a*k/2."""
    a, k, ph = float(amplitude), float(wavenumber), float(phase)
    return SpatialProfile(
        value_fn=lambda x: a * (1.0 + np.cos(k * x + ph)) / 2.0,
        deriv_fn=lambda x: -a * k * np.sin(k * x + ph) / 2.0,
        sup_value=a,
        sup_deriv=a * k / 2.0,
        spec={"kind": "cosine", "amplitude": a, "wavenumber": k, "phase": ph},
    )


def _profile_from_spec(spec: dict) -> SpatialProfile:
    if spec.get("kind") != "cosine":
        raise ValueError(f"unknown profile kind {spec.get('kind')!r}")
    return cosine_profile(spec["amplitude"], spec["wavenumber"], spec.get("phase", 0.0))


def periodic_potential(profile: SpatialProfile, period: float,
                       modulation: str = "cosine", beta: float = 2.0) -> PotentialField:
    """Time-periodic field U(x,t) = profile(x) * m(t mod period).

    ``modulation`` is either the raised cosine (1 - cos(2 pi t/period))/2 or
    "constant" (m = 1), the autonomous control for energy conservation.
    """
    if period <= 0:
        raise ValueError("period must be > 0")
    if profile.sup_deriv > profile.sup_value + 1e-12:
        raise ValueError("profile derivative bound exceeds value bound")
    if modulation not in ("cosine", "constant"):
        raise ValueError("modulation must be 'cosine' or 'constant'")

    if modulation == "constant":
        def m(t):
            return np.ones_like(np.asarray(t, dtype=float))
    else:
        def m(t):
            return (1.0 - np.cos(2.0 * np.pi * np.asarray(t, dtype=float) / period)) / 2.0

    def _slice(ts, spatial):
        m_pre = m(ts)
        return lambda x: spatial(x) * m_pre

    return PotentialField(
        eval_fn=lambda x, t: _slice(t, profile.value)(x),
        grad_fn=lambda x, t: _slice(t, profile.deriv)(x),
        bound=profile.sup_value, kind="periodic",
        spec={"kind": "periodic", "beta": beta, "period": period,
              "modulation": modulation, "profile": dict(profile.spec)},
        time_slice_fn=lambda ts: _slice(ts, profile.value),
        grad_slice_fn=lambda ts: _slice(ts, profile.deriv),
    )


def random_potential(seed: int, spatial_profiles: Sequence[SpatialProfile],
                     correlation_time: float, t_min: float, t_max: float,
                     C: float = 1.0, beta: float = 2.0) -> PotentialField:
    """Seeded random field U(x,t) = sum_j P_j(x) * (1 + a_j(t)) / 2.

    Each a_j is a stationary AR(1) process sampled at correlation_time/20,
    linearly interpolated and clamped to [-1, 1]; the (1+a)/2 remap keeps the
    sum nonnegative.  Profiles are jointly rescaled so that both U and its
    gradient stay within the bound C.  Identical seeds give bitwise-identical
    fields; all samples are drawn eagerly at construction.
    """
    profiles = list(spatial_profiles)
    if not profiles:
        raise ValueError("need at least one spatial profile")
    if correlation_time <= 0:
        raise ValueError("correlation_time must be > 0")
    if not t_max > t_min:
        raise ValueError("need t_max > t_min")

    joint = max(sum(p.sup_value for p in profiles),
                sum(p.sup_deriv for p in profiles))
    scale = C / joint if joint > 0 else 0.0

    h = correlation_time / 20.0
    n = int(math.ceil((t_max - t_min) / h)) + 3
    ts = t_min - h + h * np.arange(n)
    rho = math.exp(-h / correlation_time)
    sigma = 0.5
    rng = np.random.default_rng(seed)
    amps = []
    for _ in profiles:
        xi = rng.standard_normal(n)
        a = np.empty(n)
        a[0] = sigma * xi[0]
        innov = sigma * math.sqrt(1.0 - rho * rho)
        for k in range(1, n):
            a[k] = rho * a[k - 1] + innov * xi[k]
        amps.append(np.clip(a, -1.0, 1.0))
    amps = tuple(amps)

    def amplitude(j: int, t):
        return np.interp(np.asarray(t, dtype=float), ts, amps[j])

    def _slice(tq, deriv):
        mods = [(1.0 + amplitude(j, tq)) / 2.0 for j in range(len(profiles))]

        def f(x):
            x = np.asarray(x, dtype=float)
            total = np.zeros(np.broadcast(x, mods[0]).shape)
            for p, m in zip(profiles, mods):
                total = total + (p.deriv(x) if deriv else p.value(x)) * m
            return scale * total
        return f

    fld = PotentialField(
        eval_fn=lambda x, t: _slice(t, False)(x),
        grad_fn=lambda x, t: _slice(t, True)(x), bound=C,
        kind="random",
        spec={"kind": "random", "beta": beta, "C": C, "seed": int(seed),
              "correlation_time": correlation_time,
              "t_min": t_min, "t_max": t_max,
              "profiles": [dict(p.spec) for p in profiles]},
        time_slice_fn=lambda tq: _slice(tq, False),
        grad_slice_fn=lambda tq: _slice(tq, True),
    )
    object.__setattr__(fld, "amplitude", amplitude)
    return fld


def potential_from_spec(spec: dict) -> PotentialField:
    """Rebuild a PotentialField from its JSON specification dict."""
    kind = spec.get("kind")
    if kind == "zero":
        from .core import zero_potential
        return zero_potential(beta=spec.get("beta", 2.0))
    if kind == "constant":
        from .core import constant_potential
        return constant_potential(spec["level"], beta=spec.get("beta", 2.0))
    if kind == "accelerating":
        return accelerating_potential(spec["y"], spec["t1"], spec["t2"],
                                      spec["K"], spec["C"], spec["beta"])
    if kind == "glued":
        sched = glued_schedule(spec["epsilon"], spec["Tbar"], spec["K"],
                               spec["C"], spec["beta"], spec["n_max"],
                               cap=spec.get("cap"))
        return glued_potential(sched)
    if kind == "periodic":
        return periodic_potential(_profile_from_spec(spec["profile"]),
                                  spec["period"], spec.get("modulation", "cosine"),
                                  beta=spec.get("beta", 2.0))
    if kind == "random":
        return random_potential(spec["seed"],
                                [_profile_from_spec(p) for p in spec["profiles"]],
                                spec["correlation_time"], spec["t_min"],
                                spec["t_max"], C=spec["C"],
                                beta=spec.get("beta", 2.0))
    raise ValueError(f"unknown potential kind {kind!r}")
