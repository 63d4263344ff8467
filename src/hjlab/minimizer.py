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
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import ModelParams, PathAction, PotentialField, Trajectory, average_speed

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

# solve_dp relaxes slices narrower than this by a row-wise argmin and wider
# ones by a running scan over shifted rows; on recorded scaling-run slices
# the two cost the same per cell-offset at 2500-2750 targets, measured at the
# full stencil (30).  A shorter reach moves the crossover down: at reach 6 the
# two tie near 500 targets, at reach 15 near 2000 (2-vCPU Xeon), but scaling
# runs' narrow slices sit near 400 targets at reach 6, so a rule gains little
_DP_SCAN_WIDTH = 2600
# solve_dp_batched relaxes this many rows at a time through one padded
# buffer; on 411-node kernel slices (stencil 16, 2 MB L2 per core) 64-128
# rows cost the same per cell-offset, fewer rows pay per-call overhead and
# 192 or more spill the block's three arrays out of L2
_BATCH_ROWS = 128
# both sweeps evaluate the potential on blocks of consecutive slices of at
# most this many cells, one call per block: the 48 us a call cost per slice
# is paid once per block; blocks this small raised peak RSS by under 1% on
# the benchmark's workloads, while blocks of 64 slices of scaling-ci's
# widest window raised it by 10 MB
_BLOCK_CELLS = 32768
# golden-section steps per refine line search: the bracket shrinks by
# 0.618^42, about 2e-9 of its width
_GOLDEN_ITERS = 42


class DomainError(ValueError):
    """The grid, window or potential cannot carry the sweep: some target has
    no admissible source, lies off the grid, or a source value is NaN."""


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
    when filling slice k+1.
    """

    grid: GridSpec
    final_values: np.ndarray
    offsets: list

    def value_at(self, x: float) -> float:
        """Final value at the final-slice node nearest x (see
        :func:`_final_node`)."""
        lo, _ = self.grid.slice_range(self.grid.n_steps)
        return float(self.final_values[_final_node(self.grid, x) - lo])


def _final_node(grid: GridSpec, x: float) -> int:
    """Index of the final-slice node nearest x.

    An x more than dx/2 outside the final slice's node range is not snapped
    to the nearest edge: off the grid it raises :class:`DomainError`; on the
    grid but outside a co-moving window's final slice it raises
    :class:`WindowTouchError`, since a wider window would hold it.
    """
    lo, hi = grid.slice_range(grid.n_steps)
    u = (x - grid.x_min) / grid.dx
    if not -0.5 <= u <= grid.n_x - 0.5:
        raise DomainError(f"x={x} lies outside the grid [{grid.x_min}, {grid.x_max}]")
    if not lo - 0.5 <= u <= hi + 0.5:
        raise WindowTouchError(
            f"x={x} lies past the co-moving window edge: the final slice is "
            f"[{grid.x_min + lo * grid.dx}, {grid.x_min + hi * grid.dx}]; "
            "enlarge the margin")
    return min(max(grid.nearest_index(x), lo), hi)


def _transition_costs(grid: GridSpec, beta: float) -> np.ndarray:
    m = grid.stencil
    offs = np.arange(-m, m + 1)
    return np.abs(offs * grid.dx) ** beta / (beta * grid.dt_eff ** (beta - 1.0))


def _reach(costs, a, k, out=None) -> int:
    """Largest offset the slope of the source values ``a`` of slice k leaves
    in play.

    With D = max |a[i+1] - a[i]| along the last axis, this is the largest o
    with costs[o] < o D (1 + 1e-12), costs[o] the cost of offset o; 0 when no
    o qualifies and m = len(costs) - 1 when D is not finite.  Each offset is
    tested, so float costs need not be convex.  Every offset |o| beyond it
    loses to offset 0 at a target j whose offset-0 source lies in ``a``:
    a[j+o] + costs[o] >= a[j] - |o| D + costs[o] >= a[j] in real arithmetic
    (the factor covers D's rounding; a source past ``a`` is +inf), rounding
    is monotone, and under the (|o|, o) priority a later tie never displaces
    an earlier minimum.  So a sweep that skips those offsets keeps every
    value and argmin bit for bit.  ``out`` receives the differences (the
    shape of ``a[..., 1:]``).

    A NaN in ``a`` raises :class:`DomainError`: the argmin, the scan and
    ``np.minimum`` would each treat a NaN candidate differently.  A NaN makes
    D NaN, so ``a`` is scanned for one only when D is not finite (+inf
    cells, say) or holds no difference (a one-node slice).
    """
    m = len(costs) - 1
    with np.errstate(invalid="ignore", over="ignore"):   # inf - inf: NaN
        d = np.subtract(a[..., 1:], a[..., :-1], out=out)
        D = float(np.abs(d, out=d).max(initial=0.0))
    if not (math.isfinite(D) and d.size):
        if np.isnan(a).any():
            raise DomainError(f"NaN source value at slice {k}: the potential is "
                              "not a number there")
        if not math.isfinite(D):
            return m
    return next((o for o in range(m, 0, -1) if costs[o] < o * D * (1.0 + 1e-12)), 0)


def _kicks(U: PotentialField, grid: GridSpec, bounds):
    """dt U(x, t_k) over the nodes bounds[k] = (lo, hi) of each slice k, one
    row per slice, in slice order; a row is valid until the next is drawn.

    Consecutive slices share one potential call, ``U.time_slice(times[k0:k1,
    None])`` on their node rows (the broadcast contract of
    :class:`~hjlab.core.PotentialField`), while the block, each row as wide
    as its widest slice, holds at most ``_BLOCK_CELLS`` cells.  Each value is
    the one ``dt * U.value(x, t_k)`` gives, bit for bit.
    """
    dt, x, times, last = grid.dt_eff, grid.nodes(), grid.times(), grid.n_x - 1
    widths = [hi - lo + 1 for lo, hi in bounds]
    block = np.empty(max([_BLOCK_CELLS] + widths))
    k0 = 0
    while k0 < len(bounds):
        k1, W = k0 + 1, widths[k0]
        while k1 < len(bounds) and (k1 + 1 - k0) * max(W, widths[k1]) <= _BLOCK_CELLS:
            W = max(W, widths[k1])
            k1 += 1
        rows = bounds[k0:k1]
        if rows.count(rows[0]) == len(rows):     # one node row serves them all
            xs = x[rows[0][0]:rows[0][0] + W]
        else:                                    # rows past hi repeat nodes
            xs = x[np.minimum(np.array([lo for lo, _ in rows])[:, None] + np.arange(W), last)]
        kicks = np.multiply(dt, np.asarray(U.time_slice(times[k0:k1, None])(xs), dtype=float),
                            out=block[:W * len(rows)].reshape(len(rows), W))
        for k in range(k0, k1):
            yield kicks[k - k0, :widths[k]]
        k0 = k1


def _priority_scan(buf, half, best, off):
    """First minimum over the offsets 0, -1, +1, ..., -m, +m of the padded
    slice ``buf`` for each of its W targets, written into ``best`` (values)
    and ``off`` (offsets), both of length W."""
    m, W = len(half) - 1, len(best)
    np.add(buf[m:m + W], half[0], out=best)
    off[:] = 0
    cand = np.empty(W)
    better = np.empty(W, dtype=bool)
    for o in range(1, m + 1):
        for s in (-o, o):
            np.add(buf[m + s:m + s + W], half[o], out=cand)
            np.less(cand, best, out=better)
            np.copyto(best, cand, where=better)
            np.copyto(off, s, where=better)


def solve_dp(U: PotentialField, grid: GridSpec,
             S0: Optional[np.ndarray], p: ModelParams) -> ValueTable:
    """Bellman sweep for the kick-form discrete action.

    values[k+1][j] = min over |x_i - x_j| <= v_max*dt of
        values[k][i] + |x_j - x_i|^beta/(beta dt^(beta-1)) - dt U(x_i, t_k),
    ties broken toward the smaller displacement, then the smaller source
    index.  S0 is None (zeros: free left endpoint) or an array over the
    first slice's nodes.

    Each target takes the first minimum of its 2m+1 candidates in the
    priority order (|offset|, offset): 0, -1, +1, ..., -m, +m.  On narrow
    slices the two half stencils of the padded slice, offsets 0, -1, ..., -m
    (a reversed strided view) and 0, +1, ..., +m, are written interleaved into
    one row per target, 0, 0, -1, +1, ..., -m, +m; the row's ``argmin``
    (its first minimum) is then the priority argmin, column c holding the
    offset (c // 2) with the sign of column parity.  On wide slices a
    strict-``<`` running scan visits the shifted contiguous rows of the
    padded slice in the same order (fewer numpy calls per cell against
    better cache use).  Both give the same values and offsets, bit for bit.
    Both halves use one cost row, since the cost is symmetric in the offset.

    Each slice visits only the offsets up to its certified reach
    (:func:`_reach` of the slice's source values): an offset past it cannot
    beat offset 0, so the values and offsets are those of the full stencil,
    bit for bit.  Two cases keep the full stencil: a slice whose source
    values have a non-finite step (+inf cells still filling in, say after a
    co-moving window's detachment-cap jump), and the targets whose offset-0
    source lies outside the source slice (the strips at moving window edges).
    The potential is evaluated once per block of consecutive slices
    (:func:`_kicks`), and each slice's values and offsets are written in
    place.  A NaN in S0 raises ``ValueError`` and a NaN potential value
    raises :class:`DomainError` (found by :func:`_reach`), since a NaN has no
    place in that order.
    """
    n_steps = grid.n_steps
    m = grid.stencil
    n_x = grid.n_x
    bounds = ([(int(a), int(b)) for a, b in zip(grid.window.lo.tolist(),
                                                 grid.window.hi.tolist())]
              if grid.window is not None else [(0, n_x - 1)] * (n_steps + 1))
    lo0, hi0 = bounds[0]

    if S0 is None:
        prev = np.zeros(hi0 - lo0 + 1)
    else:
        prev = np.asarray(S0, dtype=float)
        if len(prev) != hi0 - lo0 + 1:
            raise ValueError("S0 array length must match the first slice window")
    if np.isnan(prev).any():
        raise ValueError("S0 is not a number at some node")

    if grid.window is not None:
        w = grid.window
        # every slice must offer at least one admissible transition pair
        if np.any(w.lo[1:] > w.hi[:-1] + m) or np.any(w.hi[1:] < w.lo[:-1] - m):
            raise DomainError("window excludes all sources for every target slice")

    half = _transition_costs(grid, p.beta)[m:]     # cost of offsets 0..m
    costs = half.tolist()
    off_dtype = np.int8 if m <= 127 else np.int16
    W_max = max(hi - lo + 1 for lo, hi in bounds[1:])
    buf = np.empty(W_max + 2 * m)
    view = sliding_window_view(buf, 2 * m + 1)     # row j: sources j-m..j+m
    diffs = np.empty(max(hi - lo for lo, hi in bounds[:-1]))
    # narrow pieces: a (W, 2r+2) row j holds the candidates of offsets
    # 0, 0, -1, +1, ..., -r, +r
    W_narrow = min(W_max, _DP_SCAN_WIDTH)
    cells = np.empty(W_narrow * (2 * m + 2))
    row_ids = np.arange(W_narrow)

    def relax(j0, j1, r, best, off):
        """Priority argmin over the offsets -r..r of the targets j0..j1-1,
        written into best[j0:j1] and off[j0:j1]."""
        W = j1 - j0
        if W >= _DP_SCAN_WIDTH:
            _priority_scan(buf[m - r + j0:m + r + j1], half[:r + 1], best[j0:j1], off[j0:j1])
            return
        pairs = cells[:W * (2 * r + 2)].reshape(W, r + 1, 2)
        np.add(view[j0:j1, m - r:m + 1][:, ::-1], half[:r + 1], out=pairs[:, :, 0])
        np.add(view[j0:j1, m:m + r + 1], half[:r + 1], out=pairs[:, :, 1])
        rows = pairs.reshape(W, 2 * r + 2)
        col = np.argmin(rows, axis=1)
        cells.take(row_ids[:W] * (2 * r + 2) + col, out=best[j0:j1])
        o = (col >> 1).astype(off_dtype)
        off[j0:j1] = np.where(col & 1, o, -o)

    offsets = []
    for k, kick in enumerate(_kicks(U, grid, bounds[:-1])):
        lo_s, hi_s = bounds[k]
        lo_t, hi_t = bounds[k + 1]
        W_t = hi_t - lo_t + 1
        adjusted = prev - kick
        r = _reach(costs, adjusted, k, diffs[:len(adjusted) - 1])

        # buf[i] holds source node lo_t - m + i, +inf outside the slice
        buf[:W_t + 2 * m] = np.inf
        shift = lo_s - (lo_t - m)
        b_lo, b_hi = max(0, shift), min(W_t + 2 * m, shift + len(adjusted))
        if b_lo < b_hi:
            buf[b_lo:b_hi] = adjusted[b_lo - shift:b_hi - shift]

        # the reach certifies targets c0..c1-1, whose offset-0 source lies in
        # the source slice; the strips past it, at moving window edges, keep
        # the full stencil
        c0 = min(max(0, lo_s - lo_t), W_t)
        c1 = max(min(W_t, hi_s - lo_t + 1), c0)
        pieces = [(0, c0, m), (c0, c1, r), (c1, W_t, m)] if r < m else [(0, W_t, m)]
        best = np.empty(W_t)
        off = np.empty(W_t, dtype=off_dtype)
        for j0, j1, reach in pieces:
            if j0 < j1:
                relax(j0, j1, reach, best, off)

        # +inf targets are cells not yet reachable within the window band
        # (or outside a Dirac cone); they fill in as the cone expands.  A
        # fully disconnected slice is a genuine misconfiguration.
        if not np.any(np.isfinite(best)) and np.any(np.isfinite(prev)):
            raise DomainError(f"window excludes all sources at slice {k + 1}")
        offsets.append(off)
        prev = best

    return ValueTable(grid=grid, final_values=prev, offsets=offsets)


def solve_dp_batched(U: PotentialField, grid: GridSpec, S0_matrix: np.ndarray,
                     p: ModelParams) -> np.ndarray:
    """Sweep many initial value functions at once (rows of S0_matrix).

    Used for kernel assembly (Dirac rows).  Full-grid only; returns the
    final-slice value matrix.  No backpointers are kept.

    Each slice is one min-plus convolution, run values-only over blocks of
    ``_BATCH_ROWS`` rows.  A block's source values ``a`` (the row minus
    ``dt U(x, t_k)``) go into the centre of one reused buffer padded with
    +inf; the target starts at ``a + c_0`` and, per offset pair +-o, takes
    ``min(best, min(a[j-o], a[j+o]) + c_o)``.  This equals the sweep of
    :func:`solve_dp` bit for bit: rounding is monotone, so
    ``fl(min(a, b) + c) == min(fl(a + c), fl(b + c))``; no candidate is
    -0, since each is ``fl(a + c)`` with ``c >= +0``; and a minimum over
    non-NaN values does not depend on the order it is taken in.  The fold
    needs the cost ``|o dx|^beta`` to be symmetric in the offset.  It does
    not carry over to :func:`solve_dp`: ``fl(a + c) == fl(b + c)`` can hold
    with ``a != b``, and the backpointers' (|o|, o) tie-break would see it.
    A block's rows are folded as one flat run of ``pad``: the m +inf cells
    between consecutive rows keep every candidate of a row's targets inside
    that row, the targets that fall on them are never read, and the rows'
    results are copied back into ``vals``.  Flat, each numpy op of the fold
    runs one inner loop instead of one per row, which made a fold step a
    third cheaper on 128 rows of 411 nodes, stencil 16 (71 against 109 us on
    a 2-vCPU Xeon, with 2m cells between rows).
    A block folds only the offsets up to the certified reach of all its rows
    at once (:func:`_reach`, as in :func:`solve_dp`); a Dirac row's +inf cone
    keeps the full stencil.  On the full grid no target needs the edge
    fallback of :func:`solve_dp`.

    The potential is evaluated once per block of slices, as in
    :func:`solve_dp`.  A NaN in S0_matrix raises ``ValueError`` and a NaN
    source value (a NaN potential value) raises :class:`DomainError`, as in
    :func:`solve_dp`; ``np.minimum`` would spread a NaN rather than skip it.
    """
    if grid.window is not None:
        raise ValueError("batched sweep supports full grids only")
    n_steps, m, n = grid.n_steps, grid.stencil, grid.n_x
    vals = np.array(S0_matrix, dtype=float)          # updated in place
    if vals.ndim != 2 or vals.shape[1] != n:
        raise ValueError("S0_matrix must be (n_rows, n_x)")
    if np.isnan(vals).any():
        raise ValueError("S0_matrix is not a number at some entry")
    half = _transition_costs(grid, p.beta)[m:]     # cost of offsets 0..m
    costs = half.tolist()
    n_rows, w = len(vals), n + m
    B = max(1, min(_BATCH_ROWS, n_rows))
    # a row block's sources, flat: m cells of +inf, then per row its n
    # values and m cells of +inf
    pad = np.full(m + B * w, np.inf)
    rows = pad[m:].reshape(B, w)
    best = np.empty(B * w)          # the block's targets, flat like its sources
    tmp = np.empty(B * w)           # the reach's differences, then the fold's

    for k, du in enumerate(_kicks(U, grid, [(0, n - 1)] * n_steps)):
        for r0 in range(0, n_rows, B):
            b = min(B, n_rows - r0)
            L = b * w - m          # first row's first target .. last row's last
            centre = rows[:b, :n]
            np.subtract(vals[r0:r0 + b], du, out=centre)
            reach = _reach(costs, centre, k, tmp[:b * (n - 1)].reshape(b, n - 1))
            bf, t = best[:L], tmp[:L]
            np.add(pad[m:m + L], half[0], out=bf)
            for o in range(1, reach + 1):
                np.minimum(pad[m - o:m - o + L], pad[m + o:m + o + L], out=t)
                t += half[o]
                np.minimum(bf, t, out=bf)
            vals[r0:r0 + b] = best[:b * w].reshape(b, w)[:, :n]
    return vals


def backtrack(table: ValueTable, x: float) -> Trajectory:
    """Follow argmin offsets from the terminal position back to t1.

    ``x`` is snapped to the nearest grid node of the final slice; an x more
    than dx/2 outside that slice raises as in :func:`_final_node`.  On
    windowed grids a trajectory touching any window edge raises
    :class:`WindowTouchError` (the window was too small).
    """
    grid = table.grid
    n_steps = grid.n_steps
    lows = (grid.window.lo.tolist() if grid.window is not None
            else [0] * (n_steps + 1))
    j = _final_node(grid, x)
    if not np.isfinite(table.final_values[j - lows[n_steps]]):
        raise DomainError(f"terminal node x={x} is unreachable on this grid")

    idx = [j] * (n_steps + 1)
    for k in range(n_steps, 0, -1):
        idx[k - 1] = idx[k] + int(table.offsets[k - 1][idx[k] - lows[k]])
    idx_path = np.array(idx, dtype=np.int64)

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
    start = np.zeros(n_x) if S0 is None else np.asarray(S0, dtype=float)
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


def refine(traj: Trajectory | Sequence[Trajectory], U: PotentialField,
           p: ModelParams, passes: int = 30, rel_tol: float = 1e-10,
           free_left: bool = False) -> Trajectory | list[Trajectory]:
    """Continuum sharpening: coordinate descent on interior node positions.

    Nodes are swept in red-black order (odd then even interior indices, whose
    local objectives are independent within a color) and each is moved by a
    golden-section line search, within twice the path's largest step, of the
    two adjacent segments' continuum action (4-point midpoint quadrature,
    times fixed).  Moves are accepted only when they strictly decrease the
    local action, so the total action never increases.
    Stops after ``passes`` sweeps or when a sweep improves the action by less
    than ``rel_tol`` relatively.

    With ``free_left`` the first node is a third color, moved by the same
    line search over its single segment (appropriate for free-left-endpoint
    minimizers with zero initial value function, where grid snapping would
    otherwise pin gamma(t1) a half-step off the transversal optimum); a
    two-node path moves it too.

    ``traj`` is one :class:`~hjlab.core.Trajectory` or a sequence of them on
    one time grid, and the result has the same shape: each path comes out
    bit for bit as refined alone.  Paths are grouped by the bits of their
    bracket, and a group's rows are stacked into one flat node vector, so
    that each color is one line search over the nodes of every running row.
    A node's move reads only its neighbours and the bracket, so a
    difference at node d reaches at most 2 nodes further back per pass: if
    a group's paths first differ at node d, they agree on [0, s + 1) through
    every pass, s = d - 2 passes - 2.  The group's first running row moves
    that trunk [0, s) once; the others move their nodes from s on and copy
    the trunk after each color.  Each row's stop test sums the same array
    of improvements as alone, and a row that stops leaves its group.
    """
    single = isinstance(traj, Trajectory)
    paths = [traj] if single else list(traj)
    times = paths[0].times
    if any(not np.array_equal(t.times, times) for t in paths[1:]):
        raise ValueError("refine batches paths on one time grid only")
    X = np.array([t.positions for t in paths])    # rows refined in place
    x = X.reshape(-1)
    n = X.shape[1]
    pa = PathAction(times, U, p)
    floor = 1e-3 * float(np.max(pa.dt))
    groups = {}
    for r, row in enumerate(X):
        bracket = 2.0 * max(float(np.max(np.abs(np.diff(row)))), floor)
        groups.setdefault(bracket, []).append(r)

    gr = (math.sqrt(5.0) - 1.0) / 2.0
    for bracket, running in groups.items():
        bits = X[running].view(np.uint64)
        differ = np.any(bits[1:] != bits[0], axis=0)
        d = int(np.argmax(differ)) if differ.any() else n
        s = max(0, d - 2 * passes - 2)
        totals = {r: pa.action(X[r]) for r in running}
        colors = None
        for _ in range(passes):
            if colors is None:
                colors = _refine_colors(pa, n, running, s, free_left)
            improved = dict.fromkeys(running, 0.0)
            for I, f, sums in colors:
                x0 = x[I]
                f0 = f(x, x0)
                a_ = x0 - bracket
                b_ = x0 + bracket
                c_ = b_ - gr * (b_ - a_)
                d_ = a_ + gr * (b_ - a_)
                fc = f(x, c_)
                fd = f(x, d_)
                for _ in range(_GOLDEN_ITERS):
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
                    gain = f0 - f_new
                    for r, sel in zip(running, sums):
                        improved[r] += float(np.sum(gain[sel][accept[sel]]))
                X[running[1:], :s] = X[running[0], :s]   # followers copy the trunk
            stop = [r for r in running if improved[r] <= rel_tol * (abs(totals[r]) + 1.0)]
            if len(stop) == len(running):
                break
            if stop:
                running, colors = [r for r in running if r not in stop], None
            for r in running:
                totals[r] -= improved[r]
    out = [t.with_positions(row) for t, row in zip(paths, X)]
    return out[0] if single else out


def _refine_colors(pa: PathAction, n: int, running, s: int, free_left: bool):
    """:func:`refine`'s colors over the running rows of one group, whose
    first row moves the trunk [0, s) and the others their nodes from s on.

    A color is (I, f, sums): the flat indices of its nodes, row by row, their
    evaluator, and per running row the positions in I of that row's nodes of
    the color in time order (below s, those of the first row).
    """
    colors = []
    for nodes, make in ((np.arange(1, n - 1, 2), pa.local),
                        (np.arange(2, n - 1, 2), pa.local),
                        (np.arange(int(free_left)), pa.head)):
        skip = [0] + [int(np.searchsorted(nodes, s))] * (len(running) - 1)
        ends = np.cumsum([0] + [len(nodes) - k for k in skip]).tolist()
        if not ends[-1]:
            continue
        I = np.concatenate([r * n + nodes[k:] for r, k in zip(running, skip)])
        sums = [np.r_[0:k, ends[j]:ends[j + 1]] for j, k in enumerate(skip)]
        colors.append((I, make(I), sums))
    return colors


def newton_polish(traj: Trajectory, U: PotentialField, p: ModelParams) -> Trajectory:
    """Drive the piecewise-linear action to stationarity (beta = 2).

    Solves grad A = 0 over node positions with a damped quasi-Newton
    iteration preconditioned by the kinetic tridiagonal (the potential's
    curvature contributes O(C dt^2) and is left to the damping).  Steps are
    clipped nodewise to 0.5 so the quadratic model never jumps across
    potential features (the step profile is 2 wide).  Coordinate descent
    alone stalls on the long-wavelength corner modes of fine grids; this
    polish converges them in O(n) work per iteration.  Runs at most 400
    iterations and stops once max |grad A| < 1e-11.  The terminal position
    stays pinned and the first node is a free unknown (transversality).  The
    action and its gradient come from one :class:`~hjlab.core.PathAction`
    built for the path's time grid, so the potential's time-only work
    (pace-curve values) is done once per call rather than once per
    line-search step.
    """
    if p.beta != 2.0:
        raise ValueError("newton_polish implements the beta = 2 stationarity")
    x = traj.positions.copy()
    n = len(x)
    if n < 3:
        return traj
    pa = PathAction(traj.times, U, p)
    dt = pa.dt

    # kinetic tridiagonal over the free unknowns x[0 : n-1]
    m = n - 1
    main = np.empty(m)
    main[0] = 1.0 / dt[0]
    main[1:] = 1.0 / dt[:m - 1] + 1.0 / dt[1:m]
    off = -1.0 / dt[:m - 1]
    ab = np.zeros((3, m))
    ab[0, 1:] = off
    ab[1] = main
    ab[2, :-1] = off

    from scipy.linalg import solve_banded

    f_cur = pa.action(x)
    slack = 1e-13 * (abs(f_cur) + 1.0)   # rounding allowance for acceptance
    for _ in range(400):
        g = pa.grad(x)[:m]
        if np.max(np.abs(g)) < 1e-11:
            break
        step = solve_banded((1, 1), ab, g)
        step = np.clip(step, -0.5, 0.5)
        scale = 1.0
        for _ in range(30):
            x_new = x.copy()
            x_new[:m] -= scale * step
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


def comoving_window(U: PotentialField, margin: float, grid: GridSpec,
                    detach_cap: Optional[float] = None) -> GridSpec:
    """Attach a per-slice window following the edge of U, the upper end of
    ``U.support_hint(t)``.

    The lower edge is edge(t) - margin.  The upper edge is the grid top
    (spec shape) unless ``detach_cap`` is given, in which case slices earlier
    than the cap (t2 - t > detach_cap) are clipped to edge(t) + margin: the
    minimizer provably detaches from the edge O((log T)^2) before the end, so
    earlier slices need only the riding band.  Backtracking certifies the
    choice: trajectories touching an edge raise :class:`WindowTouchError`.
    """
    if U.support_hint is None:
        raise ValueError("comoving_window needs a potential with a support_hint")
    times = grid.times()
    edge = U.support_hint(times)[1]
    lower = edge - margin
    upper = np.full_like(lower, grid.x_max)
    if detach_cap is not None:
        early = grid.t2 - times > detach_cap
        upper[early] = np.minimum(grid.x_max, edge[early] + margin)
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
    # average_speed at every sampled s, elementwise
    w = np.abs(traj.positions[-1] - traj.position(t_end - svals)) / svals
    a, b = np.triu_indices(len(svals), 1)
    keep = w[a] > w[b]
    s1, s2, w1, w2 = svals[a[keep]], svals[b[keep]], w[a[keep]], w[b[keep]]
    eps = 4.0 * dx * (w1 + 1.0) / (s1 * p.C)
    margin = s2 / s1 + eps - 1.0 - (w1 - w2) ** 2 / (2.0 * p.C)
    return (float(margin.min()) if len(margin) else math.inf), len(margin)
