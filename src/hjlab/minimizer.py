"""Dynamic-programming computation of action minimizers.

The solver discretizes the variational problem on a fixed space lattice and
uniform time slices (kick form: the potential is sampled at the segment's
left endpoint with weight dt), sweeps the Bellman recursion forward from the
initial value function, and reads minimizers off stored argmin offsets.
Free-left-endpoint minimizers with zero initial momentum are obtained with
S0 = 0.  A co-moving window confines the sweep to the corridor around the
retreating potential edge; windowed runs are certified by requiring that
backtracked trajectories never touch window edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import ModelParams, PathAction, PotentialField, Trajectory, average_speed
from .potentials import PaceCurve

__all__ = [
    "GridSpec",
    "Window",
    "ValueTable",
    "DomainError",
    "WindowTouchError",
    "solve_dp",
    "backtrack",
    "refine",
    "terminal_velocity",
    "TerminalVelocity",
    "velocity_bound_upper",
    "velocity_bound_lower",
    "LowerBound",
    "comoving_window",
    "lemma_wT_margin",
    "progression_margins",
    "enumerate_paths",
]

# keep whole per-slice value history only below this many total cells
_HISTORY_CELL_LIMIT = 8_000_000


class DomainError(ValueError):
    """Grid/window misconfiguration: some target has no admissible source."""


class WindowTouchError(RuntimeError):
    """A backtracked trajectory touched a window edge; enlarge the margin."""


@dataclass(frozen=True)
class Window:
    """Per-slice inclusive global node index range [lo[k], hi[k]]."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=np.int64)
        hi = np.asarray(self.hi, dtype=np.int64)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("window lo/hi must be equal-length 1-d arrays")
        if np.any(hi < lo):
            raise ValueError("window hi < lo at some slice")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def width(self) -> np.ndarray:
        return self.hi - self.lo + 1


@dataclass(frozen=True)
class GridSpec:
    """Space-time lattice with a transition speed cap.

    Nodes sit at x_min + i*dx; slices at t1 + k*dt_eff where dt_eff divides
    the interval exactly (dt is rounded to the nearest such value).  v_max
    caps the per-step displacement; it must allow at least one nontrivial
    transition (v_max*dt >= dx).
    """

    x_min: float
    x_max: float
    dx: float
    t1: float
    t2: float
    dt: float
    v_max: float
    window: Optional[Window] = None

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.dx > 0 and self.dt > 0
                and self.t1 < self.t2 and self.v_max > 0):
            raise ValueError("invalid grid extents")
        if self.v_max * self.dt < self.dx * (1 - 1e-9):
            raise ValueError("v_max*dt must be >= dx (no transition reachable)")
        if self.window is not None and len(self.window.lo) != self.n_steps + 1:
            raise ValueError("window must have one (lo,hi) pair per slice")
        if self.window is not None:
            if self.window.lo.min() < 0 or self.window.hi.max() > self.n_x - 1:
                raise ValueError("window exceeds grid extent")

    @property
    def n_x(self) -> int:
        return int(round((self.x_max - self.x_min) / self.dx)) + 1

    @property
    def n_steps(self) -> int:
        return max(1, int(round((self.t2 - self.t1) / self.dt)))

    @property
    def dt_eff(self) -> float:
        return (self.t2 - self.t1) / self.n_steps

    @property
    def stencil(self) -> int:
        return max(1, int(math.floor(self.v_max * self.dt_eff / self.dx * (1 + 1e-12))))

    def nodes(self, lo: int = 0, hi: Optional[int] = None) -> np.ndarray:
        hi = self.n_x - 1 if hi is None else hi
        return self.x_min + self.dx * np.arange(lo, hi + 1)

    def times(self) -> np.ndarray:
        return self.t1 + self.dt_eff * np.arange(self.n_steps + 1)

    def slice_range(self, k: int) -> tuple:
        if self.window is None:
            return 0, self.n_x - 1
        return int(self.window.lo[k]), int(self.window.hi[k])

    def nearest_index(self, x: float) -> int:
        i = int(round((x - self.x_min) / self.dx))
        return min(max(i, 0), self.n_x - 1)

    def with_window(self, window: Optional[Window]) -> "GridSpec":
        return GridSpec(self.x_min, self.x_max, self.dx, self.t1, self.t2,
                        self.dt, self.v_max, window)


@dataclass
class ValueTable:
    """Result of a DP sweep: final-slice values plus per-step argmin offsets.

    offsets[k][j] is the signed source offset (source = target + offset) used
    when filling slice k+1; values_history is kept only on small instances.
    """

    grid: GridSpec
    final_values: np.ndarray
    offsets: list
    s0: np.ndarray
    boundary_warning: bool = False
    values_history: Optional[list] = None
    meta: dict = field(default_factory=dict)

    def slice_values(self, k: int) -> np.ndarray:
        if k == self.grid.n_steps:
            return self.final_values
        if self.values_history is None:
            raise ValueError("value history was not kept for this instance")
        return self.values_history[k]

    def value_at(self, x: float) -> float:
        k = self.grid.n_steps
        lo, hi = self.grid.slice_range(k)
        j = self.grid.nearest_index(x)
        j = min(max(j, lo), hi)
        return float(self.final_values[j - lo])


def _transition_costs(grid: GridSpec, beta: float) -> np.ndarray:
    m = grid.stencil
    offs = np.arange(-m, m + 1)
    return np.abs(offs * grid.dx) ** beta / (beta * grid.dt_eff ** (beta - 1.0))


def _priority_order(m: int) -> np.ndarray:
    """Column order implementing the tie-break: smaller |offset| first, then
    the more negative offset (smaller source index)."""
    offs = np.arange(-m, m + 1)
    return np.array(sorted(range(2 * m + 1), key=lambda c: (abs(offs[c]), offs[c])))


def solve_dp(U: PotentialField, grid: GridSpec,
             S0: Union[None, Callable, np.ndarray],
             p: ModelParams, keep_history: Optional[bool] = None) -> ValueTable:
    """Bellman sweep for the kick-form discrete action.

    values[k+1][j] = min over |x_i - x_j| <= v_max*dt of
        values[k][i] + |x_j - x_i|^beta/(beta dt^(beta-1)) - dt U(x_i, t_k),
    ties broken toward the smaller displacement, then the smaller source
    index.  S0 may be None (zeros: free left endpoint), a callable of x, or
    an array over the first slice's nodes.
    """
    n_steps = grid.n_steps
    dt = grid.dt_eff
    m = grid.stencil
    times = grid.times()
    lo0, hi0 = grid.slice_range(0)
    x0 = grid.nodes(lo0, hi0)

    if S0 is None:
        prev = np.zeros(len(x0))
    elif callable(S0):
        prev = np.asarray(S0(x0), dtype=float)
    else:
        prev = np.asarray(S0, dtype=float)
        if len(prev) != len(x0):
            raise ValueError("S0 array length must match the first slice window")
    s0 = prev.copy()

    if grid.window is not None:
        w = grid.window
        # every slice must offer at least one admissible transition pair
        if np.any(w.lo[1:] > w.hi[:-1] + m) or np.any(w.hi[1:] < w.lo[:-1] - m):
            raise DomainError("window excludes all sources for every target slice")

    total_cells = (grid.window.width().sum() if grid.window is not None
                   else (n_steps + 1) * grid.n_x)
    if keep_history is None:
        keep_history = total_cells <= _HISTORY_CELL_LIMIT
    history = [prev.copy()] if keep_history else None

    costs = _transition_costs(grid, p.beta)
    perm = _priority_order(m)
    costs_perm = costs[perm]
    off_of_col = np.arange(-m, m + 1)[perm]
    off_dtype = np.int8 if m <= 127 else np.int16

    offsets = []
    boundary_warning = False
    n_x = grid.n_x

    for k in range(n_steps):
        lo_s, hi_s = grid.slice_range(k)
        lo_t, hi_t = grid.slice_range(k + 1)
        W_t = hi_t - lo_t + 1
        xs = grid.nodes(lo_s, hi_s)
        adjusted = prev - dt * np.asarray(U.value(xs, times[k]), dtype=float)

        buf = np.full(W_t + 2 * m, np.inf)
        shift = lo_s - (lo_t - m)
        b_lo, b_hi = max(0, shift), min(len(buf), shift + len(adjusted))
        if b_lo < b_hi:
            buf[b_lo:b_hi] = adjusted[b_lo - shift:b_hi - shift]

        view = sliding_window_view(buf, 2 * m + 1)          # (W_t, 2m+1)
        cand = view[:, perm] + costs_perm[None, :]
        idx = np.argmin(cand, axis=1)
        best = np.take_along_axis(cand, idx[:, None], axis=1)[:, 0]
        off = off_of_col[idx]

        # +inf targets are cells not yet reachable within the window band
        # (or outside a Dirac cone); they fill in as the cone expands.  A
        # fully disconnected slice is a genuine misconfiguration.
        if not np.any(np.isfinite(best)) and np.any(np.isfinite(prev)):
            raise DomainError(f"window excludes all sources at slice {k + 1}")
        src_global = lo_t + np.arange(W_t) + off
        tgt_global = lo_t + np.arange(W_t)
        hit = ((src_global == 0) & (tgt_global != 0)) | \
              ((src_global == n_x - 1) & (tgt_global != n_x - 1))
        if np.any(hit & np.isfinite(best)):
            boundary_warning = True

        offsets.append(off.astype(off_dtype))
        prev = best
        if keep_history:
            history.append(prev.copy())

    return ValueTable(grid=grid, final_values=prev, offsets=offsets, s0=s0,
                      boundary_warning=boundary_warning, values_history=history,
                      meta={"potential": dict(U.spec), "beta": p.beta, "C": p.C})


def solve_dp_batched(U: PotentialField, grid: GridSpec, S0_matrix: np.ndarray,
                     p: ModelParams) -> np.ndarray:
    """Sweep many initial value functions at once (rows of S0_matrix).

    Used for kernel assembly (Dirac rows).  Full-grid only; returns the
    final-slice value matrix.  No backpointers are kept.

    Each slice is one min-plus convolution, computed as a grey erosion with
    structure -costs and +inf outside the grid.  It equals the sweep of
    :func:`solve_dp` bit for bit: ``a - (-c)`` is exactly ``a + c`` in IEEE
    arithmetic, a minimum does not depend on evaluation order, and the cost
    ``|o dx|^beta`` is symmetric in the offset, so the orientation of the
    structure does not matter.  An asymmetric cost would need the structure
    reversed.
    """
    from scipy.ndimage import grey_erosion   # lazy: adds ~50 ms to `import hjlab`

    if grid.window is not None:
        raise ValueError("batched sweep supports full grids only")
    n_steps, dt = grid.n_steps, grid.dt_eff
    times = grid.times()
    xs = grid.nodes()
    vals = np.asarray(S0_matrix, dtype=float)
    if vals.ndim != 2 or vals.shape[1] != grid.n_x:
        raise ValueError("S0_matrix must be (n_rows, n_x)")
    structure = -_transition_costs(grid, p.beta)[None, :]

    for k in range(n_steps):
        adjusted = vals - dt * np.asarray(U.value(xs, times[k]), dtype=float)[None, :]
        vals = grey_erosion(adjusted, structure=structure, mode="constant",
                            cval=np.inf)
    return vals


def backtrack(table: ValueTable, x: float) -> Trajectory:
    """Follow argmin offsets from the terminal position back to t1.

    ``x`` is snapped to the nearest grid node of the final slice.  On
    windowed grids a trajectory touching any window edge raises
    :class:`WindowTouchError` (the window was too small).
    """
    grid = table.grid
    n_steps = grid.n_steps
    lo_f, hi_f = grid.slice_range(n_steps)
    j = min(max(grid.nearest_index(x), lo_f), hi_f)
    if not np.isfinite(table.final_values[j - lo_f]):
        raise DomainError(f"terminal node x={x} is unreachable on this grid")

    idx_path = np.empty(n_steps + 1, dtype=np.int64)
    idx_path[n_steps] = j
    for k in range(n_steps, 0, -1):
        lo_t, _ = grid.slice_range(k)
        o = int(table.offsets[k - 1][idx_path[k] - lo_t])
        idx_path[k - 1] = idx_path[k] + o

    if grid.window is not None:
        w = grid.window
        interior = slice(0, n_steps)   # terminal node may sit near its edge pad
        lo_hit = np.any(idx_path[interior] <= w.lo[interior])
        hi_hit = np.any(idx_path[interior] >= w.hi[interior])
        if lo_hit or hi_hit:
            raise WindowTouchError(
                "backtracked trajectory touched the co-moving window edge; "
                "enlarge the margin or detachment cap")

    positions = grid.x_min + grid.dx * idx_path
    return Trajectory(grid.times(), positions)


def path_cost(traj: Trajectory, U: PotentialField, grid: GridSpec, p: ModelParams) -> float:
    """Kick-form discrete action of a slice-aligned trajectory (DP convention)."""
    dt = grid.dt_eff
    x, t = traj.positions, traj.times
    kin = np.sum(np.abs(np.diff(x)) ** p.beta) / (p.beta * dt ** (p.beta - 1.0))
    pot = dt * np.sum(np.asarray(U.value(x[:-1], t[:-1]), dtype=float))
    return float(kin - pot)


def enumerate_paths(U: PotentialField, grid: GridSpec, S0, p: ModelParams):
    """Brute-force oracle: exhaustive minimization over all node paths.

    Returns (values, best_paths) on the final slice.  Only sensible for toy
    grids (n_x^n_steps paths).  Respects the same v_max pruning band and the
    same left-endpoint kick convention as :func:`solve_dp`.
    """
    n_steps, dt, m = grid.n_steps, grid.dt_eff, grid.stencil
    xs = grid.nodes()
    n_x = grid.n_x
    times = grid.times()
    if S0 is None:
        start = np.zeros(n_x)
    elif callable(S0):
        start = np.asarray(S0(xs), dtype=float)
    else:
        start = np.asarray(S0, dtype=float)
    costs = _transition_costs(grid, p.beta)

    paths = [[(float(start[i]), (i,)) for i in range(n_x)]]
    frontier = paths[0]
    for k in range(n_steps):
        u_k = np.asarray(U.value(xs, times[k]), dtype=float)
        nxt = []
        for j in range(n_x):
            best = (np.inf, None)
            for val, pth in frontier:
                if pth is None:
                    continue   # unreachable frontier cell (Dirac-style S0)
                i = pth[-1]
                if abs(i - j) > m:
                    continue
                # same association order as the sweep: (val - dt U) + cost
                tot = (val - dt * u_k[i]) + costs[i - j + m]
                if tot < best[0]:
                    best = (tot, pth + (j,))
            nxt.append(best)
        frontier = nxt
    values = np.array([v for v, _ in frontier])
    best_paths = [pth for _, pth in frontier]
    return values, best_paths


def refine(traj: Trajectory, U: PotentialField, p: ModelParams,
           passes: int = 30, bracket: Optional[float] = None,
           quad_points: int = 4, rel_tol: float = 1e-10,
           golden_iters: int = 42, free_left: bool = False) -> Trajectory:
    """Continuum sharpening: coordinate descent on interior node positions.

    Nodes are swept in red-black order (odd then even interior indices, whose
    local objectives are independent within a color) and each is moved by a
    golden-section line search of the two adjacent segments' continuum action
    (midpoint quadrature, times fixed).  Moves are accepted only when they
    strictly decrease the local action, so the total action never increases.
    Stops after ``passes`` sweeps or when a sweep improves the action by less
    than ``rel_tol`` relatively.

    With ``free_left`` the first node is also optimized over its single
    segment (appropriate for free-left-endpoint minimizers with zero initial
    value function, where grid snapping would otherwise pin gamma(t1) a
    half-step off the transversal optimum).
    """
    x = traj.positions.copy()
    n = len(x)
    if n < 3:
        return traj
    pa = PathAction(traj.times, U, p, quad_points)
    if bracket is None:
        bracket = 2.0 * max(float(np.max(np.abs(np.diff(x)))), 1e-3 * float(np.max(pa.dt)))
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    colors = [I for I in (np.arange(1, n - 1, 2), np.arange(2, n - 1, 2)) if len(I)]
    local = [pa.local(I) for I in colors]
    left_slice = U.time_slice(pa.seg_times[0]) if free_left else None

    total = pa.action(x)
    for _ in range(passes):
        improved = 0.0
        for I, f in zip(colors, local):
            x0 = x[I]
            f0 = f(x, x0)
            a_ = x0 - bracket
            b_ = x0 + bracket
            c_ = b_ - gr * (b_ - a_)
            d_ = a_ + gr * (b_ - a_)
            fc = f(x, c_)
            fd = f(x, d_)
            for _ in range(golden_iters):
                mask = fc < fd
                old_c, old_d, old_fc, old_fd = c_, d_, fc, fd
                b_ = np.where(mask, old_d, b_)
                a_ = np.where(mask, a_, old_c)
                c_ = np.where(mask, b_ - gr * (b_ - a_), old_d)
                d_ = np.where(mask, old_c, a_ + gr * (b_ - a_))
                fresh = np.where(mask, c_, d_)
                f_fresh = f(x, fresh)
                fc = np.where(mask, f_fresh, old_fd)
                fd = np.where(mask, old_fc, f_fresh)
            x_new = np.where(fc < fd, c_, d_)
            f_new = np.minimum(fc, fd)
            accept = f_new < f0
            if np.any(accept):
                x[I[accept]] = x_new[accept]
                improved += float(np.sum((f0 - f_new)[accept]))
        if free_left:
            improved += _free_left_step(x, pa, left_slice, bracket, gr,
                                        golden_iters)
        if improved <= rel_tol * (abs(total) + 1.0):
            break
        total -= improved
    return traj.with_positions(x)


def _free_left_step(x, pa, left_slice, bracket, gr, iters):
    """Golden-section move of the free first node over its single segment."""
    beta, dt0, q = pa.p.beta, pa.dt[0], pa.q

    def f(xi):
        kin = abs(x[1] - xi) ** beta / (beta * dt0 ** (beta - 1.0))
        xs = xi + (x[1] - xi) * pa.frac
        return kin - float(np.sum(left_slice(xs))) * dt0 / q

    f0 = f(x[0])
    a_, b_ = x[0] - bracket, x[0] + bracket
    c_ = b_ - gr * (b_ - a_)
    d_ = a_ + gr * (b_ - a_)
    fc, fd = f(c_), f(d_)
    for _ in range(iters):
        if fc < fd:
            b_, d_, fd = d_, c_, fc
            c_ = b_ - gr * (b_ - a_)
            fc = f(c_)
        else:
            a_, c_, fc = c_, d_, fd
            d_ = a_ + gr * (b_ - a_)
            fd = f(d_)
    x_new, f_new = (c_, fc) if fc < fd else (d_, fd)
    if f_new < f0:
        x[0] = x_new
        return f0 - f_new
    return 0.0


def newton_polish(traj: Trajectory, U: PotentialField, p: ModelParams,
                  iters: int = 120, quad_points: int = 4,
                  free_left: bool = True, tol: float = 1e-11,
                  trust: float = 0.25) -> Trajectory:
    """Drive the piecewise-linear action to stationarity (beta = 2).

    Solves grad A = 0 over node positions with a damped quasi-Newton
    iteration preconditioned by the kinetic tridiagonal (the potential's
    curvature contributes O(C dt^2) and is left to the damping).  Steps are
    clipped nodewise to ``trust`` so the quadratic model never jumps across
    potential features (the step profile is 2 wide).  Coordinate descent
    alone stalls on the long-wavelength corner modes of fine grids; this
    polish converges them in O(n) work per iteration.  Terminal position
    stays pinned; with ``free_left`` the first node is a free unknown
    (transversality), otherwise it is pinned too.  The action and its
    gradient come from one :class:`~hjlab.core.PathAction` built for the
    path's time grid, so the potential's time-only work (pace-curve values)
    is done once per call rather than once per line-search step.
    """
    if p.beta != 2.0:
        raise ValueError("newton_polish implements the beta = 2 stationarity")
    x = traj.positions.copy()
    n = len(x)
    if n < 3:
        return traj
    pa = PathAction(traj.times, U, p, quad_points)
    dt = pa.dt
    lo = 0 if free_left else 1

    # kinetic tridiagonal over the free unknowns x[lo : n-1]
    m = (n - 1) - lo
    main = np.zeros(m)
    if lo == 0:
        main[0] = 1.0 / dt[0]
        main[1:] = 1.0 / dt[:m - 1] + 1.0 / dt[1:m]
    else:
        main[:] = 1.0 / dt[:m] + 1.0 / dt[1:m + 1]
    off = -1.0 / dt[lo:lo + m - 1]
    ab = np.zeros((3, m))
    ab[0, 1:] = off
    ab[1] = main
    ab[2, :-1] = off

    from scipy.linalg import solve_banded

    f_cur = pa.action(x)
    slack = 1e-13 * (abs(f_cur) + 1.0)   # rounding allowance for acceptance
    for _ in range(iters):
        g = pa.grad(x)[lo:n - 1]
        if np.max(np.abs(g)) < tol:
            break
        step = solve_banded((1, 1), ab, g)
        step = np.clip(step, -trust, trust)
        scale = 1.0
        for _ in range(30):
            x_new = x.copy()
            x_new[lo:n - 1] -= scale * step
            f_new = pa.action(x_new)
            if f_new <= f_cur + slack:
                x, f_cur = x_new, min(f_new, f_cur)
                break
            scale *= 0.5
        else:
            break
    return traj.with_positions(x)


class TerminalVelocity(NamedTuple):
    speed: float          # short-window average |gamma(t2)-gamma(t2-s)|/s
    lo: float             # sandwich floor  speed * (1/2)^(1/(beta-1))
    hi: float             # sandwich ceiling speed * (3/2)^(1/(beta-1))
    s_window: float


def terminal_velocity(traj: Trajectory, s_window: float,
                      p: Optional[ModelParams] = None) -> TerminalVelocity:
    """Terminal-speed estimate from a short trailing window.

    Reports the average speed over the window together with the sandwich
    bracket factors (1/2)^(1/(beta-1)) and (3/2)^(1/(beta-1)) that relate a
    short-window average to the instantaneous terminal velocity once the
    window satisfies (2 C s)^(1/(beta-1)) << speed.
    """
    dt_last = float(traj.times[-1] - traj.times[-2])
    if s_window < dt_last * (1 - 1e-9):
        raise ValueError(f"s_window={s_window} shorter than one time step {dt_last}")
    w = average_speed(traj, s_window)
    beta = 2.0 if p is None else p.beta
    e = 1.0 / (beta - 1.0)
    return TerminalVelocity(speed=w, lo=w * 0.5 ** e, hi=w * 1.5 ** e,
                            s_window=s_window)


def velocity_bound_upper(T: float, p: ModelParams) -> float:
    """Computable part of the terminal-velocity upper bound.

    (3/2)^(1/(beta-1)) * max(2 (C beta)^(1/beta), (2C)^(1/(beta-1)),
    (2 Ktilde log T + 2)^(2/beta)) with
    Ktilde = 1/log(1 + 2^(2-beta) (beta-1)/(3C)).  The non-constructive
    threshold term of the proof is omitted, so the bound is advisory.
    """
    if T <= 1:
        raise ValueError("T must be > 1")
    b, C = p.beta, p.C
    ktilde = 1.0 / math.log(1.0 + 2.0 ** (2.0 - b) * (b - 1.0) / (3.0 * C))
    core = max(2.0 * (C * b) ** (1.0 / b),
               (2.0 * C) ** (1.0 / (b - 1.0)),
               (2.0 * ktilde * math.log(T) + 2.0) ** (2.0 / b))
    return (1.5) ** (1.0 / (b - 1.0)) * core


class LowerBound(NamedTuple):
    bound: float
    R_T: float
    K2: float


def velocity_bound_lower(T: float, p: ModelParams) -> LowerBound:
    """Constructive lower bound: K2 = (C beta / 5)^(1/beta),
    bound = K2 (log T)^(2/beta) / 2^(beta/(beta-1)),
    R_T = K2 (log T)^(2/beta) / 2."""
    if T <= 1:
        raise ValueError("T must be > 1")
    b, C = p.beta, p.C
    K2 = (C * b / 5.0) ** (1.0 / b)
    scale = K2 * math.log(T) ** (2.0 / b)
    return LowerBound(bound=scale / 2.0 ** (b / (b - 1.0)), R_T=scale / 2.0, K2=K2)


def comoving_window(curve: Union[PaceCurve, Callable], margin: float,
                    grid: GridSpec, y: float = 0.0,
                    detach_cap: Optional[float] = None) -> GridSpec:
    """Attach a per-slice window following the potential edge y - g(t2 - t).

    The lower edge is y - g(s) - margin.  The upper edge is the grid top
    (spec shape) unless ``detach_cap`` is given, in which case slices earlier
    than the cap (s > detach_cap) are clipped to y - g(s) + margin: the
    minimizer provably detaches from the edge O((log T)^2) before the end, so
    earlier slices need only the riding band.  Backtracking certifies the
    choice: trajectories touching an edge raise :class:`WindowTouchError`.
    """
    g = curve.value if isinstance(curve, PaceCurve) else curve
    times = grid.times()
    s = grid.t2 - times
    gs = np.asarray(g(s), dtype=float)
    lower = y - gs - margin
    upper = np.full_like(lower, grid.x_max)
    if detach_cap is not None:
        early = s > detach_cap
        upper[early] = np.minimum(grid.x_max, y - gs[early] + margin)
    lo = np.maximum(0, np.floor((lower - grid.x_min) / grid.dx)).astype(np.int64)
    hi = np.minimum(grid.n_x - 1,
                    np.ceil((upper - grid.x_min) / grid.dx)).astype(np.int64)
    if np.any(hi < lo):
        raise DomainError("empty window slice; grid extent too small")
    win = Window(lo=lo, hi=hi)
    out = grid.with_window(win)
    m = out.stencil
    # the riding band must stay connected slice to slice; the upper edge may
    # jump at the detachment cap (cells above fill in as the cone expands)
    if np.any(win.lo[1:] > win.hi[:-1] + m) or np.any(win.lo[1:] < win.lo[:-1] - m):
        raise DomainError("window band moves faster than the stencil allows")
    return out


def lemma_wT_margin(traj: Trajectory, p: ModelParams, dx: float) -> float:
    """Margin of the full-span average-velocity bound
    w(T) <= (C beta)^(1/beta) + 2 dx / T (nonnegative when the bound holds)."""
    T = traj.span
    w = average_speed(traj, T)
    return (p.C * p.beta) ** (1.0 / p.beta) + 2.0 * dx / T - w


def progression_margins(traj: Trajectory, p: ModelParams, dx: float,
                        n_samples: int = 60):
    """Check the beta=2 geometric-progression inequality on sampled pairs.

    For 0 < s1 < s2 <= T with w(s1) > w(s2) the minimizer must satisfy
    1 + (w1 - w2)^2 / (2C) <= s2/s1 + eps_grid,
    eps_grid = 4 dx (w1 + 1) / (s1 C).  Returns (min margin, pairs tested);
    the margin is s2/s1 + eps_grid - 1 - (w1-w2)^2/(2C), >= 0 when satisfied.
    """
    if p.beta != 2.0:
        raise ValueError("progression inequality is the beta = 2 special case")
    t = traj.times
    t_end = t[-1]
    svals = t_end - t[:-1]
    svals = svals[svals > 0]
    if len(svals) > n_samples:
        idx = np.unique(np.round(np.linspace(0, len(svals) - 1, n_samples)).astype(int))
        svals = svals[idx]
    svals = np.sort(svals)
    w = np.array([average_speed(traj, float(s)) for s in svals])
    worst = np.inf
    count = 0
    for a in range(len(svals)):
        for b in range(a + 1, len(svals)):
            s1, s2 = float(svals[a]), float(svals[b])
            w1, w2 = float(w[a]), float(w[b])
            if w1 <= w2:
                continue
            eps = 4.0 * dx * (w1 + 1.0) / (s1 * p.C)
            margin = s2 / s1 + eps - 1.0 - (w1 - w2) ** 2 / (2.0 * p.C)
            worst = min(worst, margin)
            count += 1
    return (float(worst) if count else math.inf), count
