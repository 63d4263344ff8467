"""Min-plus linear-operator layer.

Action kernels A_{t1,t2}(y,x) as tropical matrices, the solution operator
T S(x) = min_y (A(y,x) + S(y)), tropical composition (= the flow property),
and the domination / Lipschitz-in-the-large toolkit that rules out blow-up
for time-periodic forcing.  Unreachable entries are stored as +inf, which is
an exact annihilator for (min, +) in IEEE arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import ModelParams, PotentialField
from .minimizer import GridSpec, solve_dp_batched

__all__ = [
    "Kernel",
    "GridFunction",
    "kernel",
    "minplus_apply",
    "minplus_compose",
    "flow_defect",
    "kernel_bounds_defect",
    "domination_defect",
    "lipschitz_in_large_constant",
    "kernel_to_csv",
    "gridfunction_to_csv",
    "gridfunction_from_csv",
]

# kernel() refuses to start above this many bytes of live rows x n_x
# float64 matrices; it is a memory guard, not a tuning knob
_KERNEL_BYTE_BUDGET = 1 << 30


@dataclass(frozen=True)
class Kernel:
    """Minimal action A(y_i, x_j) between slices t1 and t2.

    entries[i, j] is the action from source y_i to target x_j; +inf marks
    pairs outside the reachable band.
    """

    source_nodes: np.ndarray
    target_nodes: np.ndarray
    t1: float
    t2: float
    entries: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        src = np.asarray(self.source_nodes, dtype=float)
        tgt = np.asarray(self.target_nodes, dtype=float)
        ent = np.asarray(self.entries, dtype=float)
        if ent.shape != (len(src), len(tgt)):
            raise ValueError("entries must be (n_sources, n_targets)")
        object.__setattr__(self, "source_nodes", src)
        object.__setattr__(self, "target_nodes", tgt)
        object.__setattr__(self, "entries", ent)

    @property
    def tau(self) -> float:
        return self.t2 - self.t1

    def displacement(self) -> np.ndarray:
        return self.target_nodes[None, :] - self.source_nodes[:, None]


@dataclass(frozen=True)
class GridFunction:
    """Sampled function S(x) on a node set."""

    nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        n = np.asarray(self.nodes, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if n.shape != v.shape or n.ndim != 1:
            raise ValueError("nodes/values must be equal-length 1-d arrays")
        if not np.all(np.isfinite(v)):
            raise ValueError("grid function values must be finite")
        object.__setattr__(self, "nodes", n)
        object.__setattr__(self, "values", v)


def kernel(U: PotentialField, t1: float, t2: float, grid: GridSpec,
           p: ModelParams) -> Kernel:
    """Action kernel on the grid's node lattice by batched Dirac sweeps.

    One DP row per source node: the sweep starts from 0 at the source and
    +inf elsewhere, so row i of the result is A(y_i, x_j) for every target.

    The sweep holds two ``n_x x n_x`` float64 matrices at once, the Dirac
    starts and the swept values.  A kernel whose two matrices would exceed
    1 GiB (``_KERNEL_BYTE_BUDGET``; 8192 x 8192 nodes) raises
    ``ValueError`` before either is allocated.
    """
    inner = GridSpec(grid.x_min, grid.x_max, grid.dx, t1, t2, grid.dt, grid.v_max)
    nodes = inner.nodes()
    n = inner.n_x
    need = 2 * n * n * 8
    if need > _KERNEL_BYTE_BUDGET:
        raise ValueError(f"a {n} x {n} kernel needs {need} bytes for its two "
                         f"live matrices, over the {_KERNEL_BYTE_BUDGET}-byte "
                         "budget; coarsen dx")
    S0 = np.full((n, n), np.inf)
    np.fill_diagonal(S0, 0.0)
    entries = solve_dp_batched(U, inner, S0, p)
    return Kernel(source_nodes=nodes, target_nodes=nodes, t1=t1, t2=t2,
                  entries=entries,
                  meta={"dx": inner.dx, "dt": inner.dt_eff, "v_max": inner.v_max,
                        "potential": dict(U.spec), "beta": p.beta, "C": p.C})


def minplus_apply(kern: Kernel, S: GridFunction):
    """(T S)(x_j) = min_i (A(y_i, x_j) + S(y_i)).

    Returns (GridFunction on target nodes, argmin source indices).
    """
    if len(S.nodes) != len(kern.source_nodes) or not np.allclose(
            S.nodes, kern.source_nodes, rtol=1e-9, atol=1e-9):
        raise ValueError("S must be defined on the kernel's source nodes")
    mat = kern.entries + S.values[:, None]
    vals = mat.min(axis=0)
    args = mat.argmin(axis=0)
    if not np.all(np.isfinite(vals)):
        raise ValueError("min-plus application produced +inf (empty band column)")
    return GridFunction(kern.target_nodes, vals), args


def minplus_compose(k12: Kernel, k23: Kernel) -> Kernel:
    """Tropical matrix product: entries(y,x) = min_z (k12(y,z) + k23(z,x))."""
    if not np.array_equal(k12.target_nodes, k23.source_nodes):
        raise ValueError("k12 target nodes must equal k23 source nodes")
    if abs(k12.t2 - k23.t1) > 1e-9 * max(1.0, abs(k12.t2)):
        raise ValueError("kernels are not time-adjacent")
    n1 = len(k12.source_nodes)
    n3 = len(k23.target_nodes)
    out = np.empty((n1, n3))
    for i in range(n1):
        out[i] = (k12.entries[i][:, None] + k23.entries).min(axis=0)
    return Kernel(source_nodes=k12.source_nodes, target_nodes=k23.target_nodes,
                  t1=k12.t1, t2=k23.t2, entries=out,
                  meta={"composed": True})


def flow_defect(k13: Kernel, k12: Kernel, k23: Kernel) -> float:
    """Sup-norm mismatch between A_{t1,t3} and the composed kernel, over
    entries finite on both sides."""
    comp = minplus_compose(k12, k23)
    both = np.isfinite(comp.entries) & np.isfinite(k13.entries)
    if not np.any(both):
        return float("inf")
    return float(np.max(np.abs(comp.entries[both] - k13.entries[both])))


def kernel_bounds_defect(kern: Kernel, p: ModelParams):
    """Violations of the kernel sandwich
    jensen(|x-y|, tau) - C tau <= A <= jensen(|x-y|, tau).

    Returns (max lower violation, max upper violation) over finite entries,
    both ~grid tolerance for a correct kernel.
    """
    tau = kern.tau
    disp = kern.displacement()
    jb = tau ** (1.0 - p.beta) * np.abs(disp) ** p.beta / p.beta
    fin = np.isfinite(kern.entries)
    lower = np.max((jb - p.C * tau - kern.entries)[fin], initial=0.0)
    upper = np.max((kern.entries - jb)[fin], initial=0.0)
    return float(max(lower, 0.0)), float(max(upper, 0.0))


def domination_defect(S: GridFunction, kern: Kernel, L: float) -> float:
    """max over pairs of [S(x) - S(y) - A(y,x) - L (t2-t1)]; <= 0 means S is
    (L, t1, t2)-dominated."""
    if S.nodes.shape != kern.source_nodes.shape or \
       S.nodes.shape != kern.target_nodes.shape or \
       not np.allclose(S.nodes, kern.source_nodes, rtol=1e-9, atol=1e-9) or \
       not np.allclose(S.nodes, kern.target_nodes, rtol=1e-9, atol=1e-9):
        raise ValueError("domination needs S on a square kernel's node set")
    diff = S.values[None, :] - S.values[:, None] - kern.entries - L * kern.tau
    fin = np.isfinite(kern.entries)
    return float(np.max(diff[fin]))


def lipschitz_in_large_constant(S: GridFunction) -> float:
    """max over node pairs of |S(x) - S(y)| / (|x - y| + 1)."""
    if len(S.nodes) < 2:
        raise ValueError("need at least 2 nodes")
    dv = np.abs(S.values[:, None] - S.values[None, :])
    dx = np.abs(S.nodes[:, None] - S.nodes[None, :])
    np.fill_diagonal(dv, 0.0)
    return float(np.max(dv / (dx + 1.0)))


def kernel_to_csv(kern: Kernel) -> str:
    """CSV triplets y,x,A for finite entries (17 significant digits)."""
    lines = ["y,x,A"]
    fin = np.isfinite(kern.entries)
    ii, jj = np.nonzero(fin)
    for i, j in zip(ii, jj):
        lines.append(f"{kern.source_nodes[i]:.17g},{kern.target_nodes[j]:.17g},"
                     f"{kern.entries[i, j]:.17g}")
    return "\n".join(lines) + "\n"


def gridfunction_to_csv(S: GridFunction) -> str:
    lines = ["x,S"]
    for x, v in zip(S.nodes, S.values):
        lines.append(f"{x:.17g},{v:.17g}")
    return "\n".join(lines) + "\n"


def gridfunction_from_csv(text: str) -> GridFunction:
    rows = [ln for ln in text.strip().splitlines()[1:] if ln]
    nodes, values = [], []
    for ln in rows:
        a, b = ln.split(",")
        nodes.append(float(a))
        values.append(float(b))
    return GridFunction(np.asarray(nodes), np.asarray(values))
