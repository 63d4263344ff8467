"""Reference formulas the tests compare hjlab against.

No pipeline, command or benchmark reads these, so they live beside the
tests rather than in the package: the pace curve by quadrature, the
Euler-Lagrange residual, the DP's kick-form path cost, the kinetic (Jensen)
floor, a sampling certificate of the paper's hypothesis on U, and the
Lipschitz truncation of a kernel.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from hjlab.core import ModelParams, PotentialField, Trajectory, legendre
from hjlab.laxoleinik import Kernel
from hjlab.minimizer import GridSpec
from hjlab.potentials import PaceCurve


def pace_value_quad(curve: PaceCurve, s: float, tol: float = 1e-10) -> float:
    """g(s) for 0 <= s <= T by adaptive quadrature of the tail integral
    K*T*integral_z^inf v^(2/beta) e^(-v) dv, z = log(T/s): the independent
    cross-check of PaceCurve.value's incomplete-gamma closed form."""
    if s == 0.0:
        return 0.0
    z = math.log(curve.T / s)
    p = 2.0 / curve.beta
    tail, _ = integrate.quad(lambda v: v**p * math.exp(-v), z, np.inf,
                             epsabs=0.0, epsrel=tol, limit=200)
    return curve.K * curve.T * tail


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


def path_cost(traj: Trajectory, U: PotentialField, grid: GridSpec, p: ModelParams) -> float:
    """Kick-form discrete action of a slice-aligned trajectory (DP convention)."""
    dt = grid.dt_eff
    x, t = traj.positions, traj.times
    kin = np.sum(np.abs(np.diff(x)) ** p.beta) / (p.beta * dt ** (p.beta - 1.0))
    pot = dt * np.sum(np.asarray(U.value(x[:-1], t[:-1]), dtype=float))
    return float(kin - pot)


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


def truncated_kernel(kern: Kernel, K: float) -> Kernel:
    """Entrywise min with K (|x-y| + 1); bounds +inf entries as well."""
    if K <= 0:
        raise ValueError("K must be > 0")
    cap = K * (np.abs(kern.displacement()) + 1.0)
    return Kernel(source_nodes=kern.source_nodes, target_nodes=kern.target_nodes,
                  t1=kern.t1, t2=kern.t2,
                  entries=np.minimum(kern.entries, cap),
                  meta=dict(kern.meta, truncated_at=K))
