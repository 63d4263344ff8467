"""Batch experiment harness.

Builds potentials, runs the DP minimizer across horizons, measures terminal
velocities against the (log T)^(2/beta) bounds, exercises every numerical
lemma check, and assembles deterministic report objects (see reports.emit
for serialization).  Every horizon record comes from one path,
_horizon_record, and horizons run one after another.
"""

from __future__ import annotations

import copy
import math
import numbers
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import __version__
from .core import ModelParams, PotentialField, constant_potential, zero_potential
from .laxoleinik import (GridFunction, domination_defect, kernel,
                         kernel_bounds_defect, lipschitz_in_large_constant,
                         minplus_apply, minplus_compose)
from .minimizer import (DomainError, GridSpec, WindowTouchError, backtrack,
                        comoving_window, enumerate_paths, lemma_wT_margin,
                        progression_margins, refine, solve_dp, terminal_velocity,
                        velocity_bound_lower, velocity_bound_upper)
from .potentials import (PaceCurve, accelerating_potential, cosine_profile,
                         glued_potential, glued_schedule, pace_main_gap,
                         pace_residue, pace_s2_gap, periodic_potential,
                         random_potential)

__all__ = [
    "ExperimentConfig",
    "HorizonRecord",
    "ScalingReport",
    "run_scaling",
    "run_periodic_control",
    "run_glued_demo",
    "run_lemma_suite",
    "run_conjecture_probe",
    "Experiment",
    "EXPERIMENTS",
    "run_experiment",
]


def _typed(value, name: str) -> bool:
    """Whether value has the type ExperimentConfig annotates as name."""
    kind = {"str": str, "float": numbers.Real, "int": numbers.Integral}[name]
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass
class ExperimentConfig:
    """Resolved experiment parameters; the defaults are the CI runs."""

    kind: str = "scaling"
    beta: float = 2.0
    C: float = 1.0
    horizons: Optional[list] = None
    seeds: list = field(default_factory=lambda: [1, 2, 3, 4, 5])

    # grid policy; the rest is fixed, as the module constants below
    stencil: int = 30              # v_max * dt / dx
    margin: float = 10.0

    # glued-demo schedule
    glue_Tbar: float = 5.0
    glue_n_max: int = 2

    # periodic / random controls
    period: float = 1.0
    wavenumber: float = 1.0
    modulation: str = "cosine"
    correlation_time: float = 2.0

    def __post_init__(self):
        # a config file's "2", true or 5 must not fail (or run) deep inside
        # an experiment: each value has its field's type, and a bool is no number
        for f in fields(self):
            value = getattr(self, f.name)
            item = {"horizons": "float", "seeds": "int"}.get(f.name)
            if item is None:
                want, ok = f.type, _typed(value, f.type)
            else:   # horizons None takes the kind's default
                want = f"a list of {item}"
                ok = (isinstance(value, list) and all(_typed(v, item) for v in value)
                      or value is None and f.name == "horizons")
            if not ok:
                raise ValueError(f"config key {f.name!r} must be {want}, got {value!r}")
        if self.kind not in EXPERIMENTS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if not self.margin > 0:
            # the window's lower edge would sit on the potential edge and cut
            # the bump off: every minimizer stays static (v = 0)
            raise ValueError(f"margin must be > 0, got {self.margin}")
        if not (math.isfinite(self.wavenumber) and self.wavenumber != 0):
            # the periodic halo spans two wavelengths, 4 pi / |k|
            raise ValueError(f"wavenumber must be finite and nonzero, got {self.wavenumber}")
        if self.horizons is None:
            self.horizons = list(EXPERIMENTS[self.kind].horizons)
        self.horizons = [float(T) for T in self.horizons]
        if any(T <= math.e for T in self.horizons):
            raise ValueError("all horizons must exceed e (log T > 1)")
        if any(b <= a for a, b in zip(self.horizons, self.horizons[1:])):
            raise ValueError("horizons must be strictly increasing")
        if len(set(self.seeds)) < len(self.seeds):
            raise ValueError(f"seeds must be distinct, got {self.seeds}")

    @property
    def params(self) -> ModelParams:
        return ModelParams(beta=self.beta, C=self.C)

    def to_dict(self) -> dict:
        """kind and the fields its runner reads: a report records only those."""
        return {"kind": self.kind,
                **{name: copy.deepcopy(getattr(self, name))
                   for name in EXPERIMENTS[self.kind].reads}}


@dataclass
class HorizonRecord:
    T: float
    dx: float
    dt: float
    s_window: float
    targets: list
    speeds: list
    bracket_lo: list
    bracket_hi: list
    v: float
    lower_bound: float
    upper_bound_advisory: float
    wT_margin: float
    progression_margin: Optional[float]
    progression_pairs: int
    grid_slack: float
    seed: Optional[int] = None
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _disabled_fit(span_decades: float = 0.0) -> dict:
    return {"enabled": False, "p": None, "a": None, "residual": None,
            "span_decades": span_decades}


@dataclass
class ScalingReport:
    kind: str
    config: dict
    records: list                      # HorizonRecord dicts, sorted by (T, seed)
    flags: dict
    notes: list
    fit: dict = field(default_factory=_disabled_fit)
    onset_T: Optional[float] = None
    version: str = __version__
    wall_times: dict = field(default_factory=dict)   # volatile; not serialized

    def to_dict(self) -> dict:
        """Canonical (deterministic) dict; wall times stay out."""
        return {
            "kind": self.kind,
            "version": self.version,
            "config": self.config,
            "records": self.records,
            "fit": self.fit,
            "onset_T": self.onset_T,
            "flags": self.flags,
            "notes": self.notes,
        }


# The fixed grid and measurement policy; each comment names its readers
V_CAP_FACTOR = 4.0        # edge_grid: v_max = V_CAP_FACTOR * K2 (log T)^(2/beta)
DETACH_CAP_FACTOR = 4.0   # edge_grid: window cone depth DETACH_CAP_FACTOR * (log T)^2
REFINE_PASSES = 8         # _horizon_record: refine passes per backtracked path
DX_MAX = 0.05             # every pipeline's dx (2 * DX_MAX: operator suite, probe)
RT_FRACTION = 40          # scaling: dx = min(DX_MAX, R_T / RT_FRACTION)
N_TARGETS = 5             # scaling and glued targets across |x| <= R_T / 2
S_WINDOW_MAX = 0.5        # every pipeline: longest terminal-speed window, floored at dt


def edge_grid(cfg: ExperimentConfig, U, t1: float, t2: float, T_pace: float,
              dx: float, x_hi: float, margin: float) -> GridSpec:
    """Grid on [t1, t2] with a co-moving window riding the edge of U.

    The speed cap and the detachment cap scale with log T_pace.  The grid
    starts the margin plus the bump's ramp (2 wide) below the edge at t1,
    where the retreating edge lies lowest."""
    p = cfg.params
    K2 = velocity_bound_lower(T_pace, p).K2
    v_max = max(V_CAP_FACTOR * K2 * math.log(T_pace) ** (2.0 / cfg.beta),
                2.0 * (p.C * p.beta) ** (1.0 / p.beta), 2.0)
    dt = cfg.stencil * dx / v_max
    grid = GridSpec(x_min=float(U.support_hint(t1)[1]) - margin - 2.0,
                    x_max=x_hi, dx=dx, t1=t1, t2=t2, dt=dt, v_max=v_max)
    cap = max(40.0, DETACH_CAP_FACTOR * math.log(T_pace) ** 2)
    return comoving_window(U, margin, grid, detach_cap=cap)


def _backtrack_inside(table, x: float):
    """backtrack(table, x), failing the run with :class:`DomainError` when
    the path sits on the first or last grid node at any slice before the
    last.  Every grid truncates the unbounded line, and a minimizer that
    reaches the truncation may have been clipped there, so whatever it
    measures is not the unbounded problem's answer.  The final node is the
    chosen target and is exempt, as in backtrack's window check."""
    traj = backtrack(table, x)
    grid = table.grid
    x_last = grid.x_min + grid.dx * (grid.n_x - 1)   # backtrack's node formula
    path = traj.positions[:-1]
    on_edge = (path <= grid.x_min) | (path >= x_last)
    if on_edge.any():
        k = int(np.argmax(on_edge))
        raise DomainError(
            f"the minimizer ending at x={x} reaches the grid edge "
            f"x={path[k]} at t={traj.times[k]}: the truncated domain clipped "
            "it; widen the grid")
    return traj


def _horizon_record(cfg: ExperimentConfig, T: float, U, grid: GridSpec,
                    x_targets, s_window: float, lower_bound: float = 0.0,
                    seed: Optional[int] = None,
                    extra: Optional[dict] = None) -> HorizonRecord:
    """Solve once, backtrack every terminal target in order, refine the paths
    in one batch and measure each.

    The paths coalesce backward, so one :func:`refine` call moves the nodes
    they share once.  v(T) is the median terminal speed over a window of
    s_window, floored at one time step (a short horizon or first glued stage
    would ask for less); the lemma margins are the worst over the targets
    (the beta = 2 progression margin is None at other beta)."""
    p = cfg.params
    s_window = max(s_window, grid.dt_eff)
    table = solve_dp(U, grid, None, p)
    paths = [_backtrack_inside(table, float(xt)) for xt in x_targets]
    del table   # free the offsets before the batch refine, which holds more than one path
    speeds, lows, highs = [], [], []
    wT_margins, prog_margins, prog_pairs = [], [], 0
    for traj in refine(paths, U, p, passes=REFINE_PASSES):
        tv = terminal_velocity(traj, s_window, p)
        speeds.append(float(tv.speed))
        lows.append(float(tv.lo))
        highs.append(float(tv.hi))
        wT_margins.append(lemma_wT_margin(traj, p, grid.dx))
        if cfg.beta == 2.0:
            m, npair = progression_margins(traj, p, grid.dx)
            prog_margins.append(m)
            prog_pairs += npair
    return HorizonRecord(
        T=T, dx=grid.dx, dt=grid.dt_eff, s_window=s_window,
        targets=[float(x) for x in x_targets],
        speeds=speeds, bracket_lo=lows, bracket_hi=highs,
        v=float(np.median(speeds)),
        lower_bound=float(lower_bound),
        # a glued stage ends at S_1 = 1 when Tbar <= 1; the bound needs T > 1
        upper_bound_advisory=float(velocity_bound_upper(max(T, 1.01), p)),
        wT_margin=float(min(wT_margins)),
        progression_margin=(float(min(prog_margins)) if prog_margins else None),
        progression_pairs=prog_pairs,
        grid_slack=4.0 * grid.dx / s_window,
        seed=seed, extra=extra or {},
    )


def _scaling_record(cfg: ExperimentConfig, T: float) -> HorizonRecord:
    lb = velocity_bound_lower(T, cfg.params)
    x_targets = np.linspace(-lb.R_T / 2.0, lb.R_T / 2.0, N_TARGETS)
    U = accelerating_potential(y=0.0, t1=0.0, t2=T, K=lb.K2, C=cfg.C, beta=cfg.beta)
    s_window = min(S_WINDOW_MAX, T / 20.0)
    dx = min(DX_MAX, lb.R_T / RT_FRACTION)
    x_hi = float(max(x_targets.max() + 2 * dx, lb.R_T))
    # the final slice's window starts near -margin: the first attempt holds
    # the lowest target plus the bump's ramp (2 wide) and two cells to spare
    margin = max(cfg.margin, -float(x_targets.min()) + 2.0 + 2.0 * DX_MAX)
    # window-touch certification: move timing is degenerate in the flat
    # potential plateau, so trajectories may park below the riding band;
    # enlarge the margin and resolve when the certificate trips
    for attempt in range(3):
        wgrid = edge_grid(cfg, U, 0.0, T, T, dx, x_hi, margin)
        try:
            return _horizon_record(cfg, T, U, wgrid, x_targets, s_window,
                                   lower_bound=lb.bound)
        except WindowTouchError:
            if attempt == 2:
                raise
            margin *= 2.0


def _fit_exponent(records) -> dict:
    """Least squares of log v against log log T; suppressed when fewer than 3
    horizons or under 1.3 decades of T are available."""
    Ts = np.array([r["T"] for r in records])
    vs = np.array([r["v"] for r in records])
    span_decades = math.log10(Ts.max() / Ts.min()) if len(Ts) > 1 else 0.0
    if len(Ts) < 3 or span_decades < 1.3:
        return _disabled_fit(span_decades)
    X = np.log(np.log(Ts))
    Y = np.log(vs)
    coef = np.polyfit(X, Y, 1)
    resid = float(np.max(np.abs(Y - np.polyval(coef, X))))
    return {"enabled": True, "p": float(coef[0]), "a": float(math.exp(coef[1])),
            "residual": resid, "span_decades": span_decades}


def _onset(records) -> Optional[float]:
    """Smallest tested T from which the lower bound holds at every larger T."""
    ok = [r["v"] >= r["lower_bound"] - r["grid_slack"] for r in records]
    onset = None
    for i in range(len(records)):
        if all(ok[i:]):
            onset = records[i]["T"]
            break
    return onset


def _map_timed(fn, items, key=str):
    """[fn(item) for item in items], plus the wall time of each call under
    key(item) for the volatile timings sidecar."""
    walls, out = {}, []
    for item in items:
        t0 = time.monotonic()
        out.append(fn(item))
        walls[key(item)] = time.monotonic() - t0
    return out, walls


def run_scaling(cfg: ExperimentConfig) -> ScalingReport:
    """Terminal-velocity growth under the accelerating potential.

    v(T) is the median refined terminal speed over the target set
    |x| <= R_T/2; the fit of log v against log log T estimates the growth
    exponent (expected 2/beta)."""
    if cfg.kind != "scaling":
        raise ValueError("config kind must be 'scaling'")
    recs, walls = _map_timed(lambda T: _scaling_record(cfg, T), cfg.horizons)
    records = [r.to_dict() for r in recs]
    fit = _fit_exponent(records)
    onset = _onset(records)
    vs = [r["v"] for r in records]
    p_lo, p_hi = 0.8 * 2.0 / cfg.beta, 1.2 * 2.0 / cfg.beta
    flags = {
        "monotone_v": all(b > a for a, b in zip(vs, vs[1:])),
        "onset_found": onset is not None,
        "lower_bound_from_onset": onset is not None,
        "fit_in_range": (bool(fit["enabled"]) and p_lo <= fit["p"] <= p_hi)
                        if fit["enabled"] else None,
        "upper_advisory_ok": all(r["v"] <= r["upper_bound_advisory"] for r in records),
        "wT_lemma_ok": all(r["wT_margin"] >= 0.0 for r in records),
        "progression_ok": all(r["progression_margin"] is None
                              or r["progression_margin"] >= 0.0 for r in records),
    }
    notes = ["v(T) is the median over terminal targets; per-target speeds "
             "and sandwich brackets are in the records",
             "upper bound is advisory: the proof constant omits a "
             "non-constructive threshold term"]
    return ScalingReport(kind=cfg.kind, config=cfg.to_dict(), records=records,
                         fit=fit, onset_T=onset, flags=flags, notes=notes,
                         wall_times=walls)


PERIODIC_TARGETS = (0.5, 1.5, 2.5)


def _periodic_grid(cfg: ExperimentConfig, T: float):
    p = cfg.params
    x_targets = np.array(PERIODIC_TARGETS)
    halo = 4.0 * math.pi / abs(cfg.wavenumber) + 2.0
    v_env = (p.alpha * p.C) ** (1.0 / p.beta)
    v_max = max(4.0 * v_env, 2.0)
    dt = cfg.stencil * DX_MAX / v_max
    grid = GridSpec(x_min=float(x_targets.min() - halo),
                    x_max=float(x_targets.max() + halo),
                    dx=DX_MAX, t1=0.0, t2=T, dt=dt, v_max=v_max)
    return grid, x_targets


def run_periodic_control(cfg: ExperimentConfig) -> ScalingReport:
    """No-blow-up control with a time-periodic certified potential, plus the
    iterated-operator regularity suite (domination and Lipschitz-in-the-large
    preserved over 20 period steps)."""
    if cfg.kind != "periodic-control":
        raise ValueError("config kind must be 'periodic-control'")
    profile = cosine_profile(cfg.C, cfg.wavenumber)
    U = periodic_potential(profile, cfg.period, cfg.modulation, beta=cfg.beta)

    def one(T):
        grid, x_targets = _periodic_grid(cfg, T)
        return _horizon_record(cfg, T, U, grid, x_targets,
                               min(S_WINDOW_MAX, T / 20.0))

    recs, walls = _map_timed(one, cfg.horizons)
    records = [r.to_dict() for r in recs]
    # no-growth statistic: max over tested terminal x per horizon
    vmax = [max(r["speeds"]) for r in records]
    ratio = vmax[-1] / vmax[-2] if len(vmax) >= 2 and vmax[-2] > 0 else float("nan")
    monotone_growth = all(b > a for a, b in zip(vmax, vmax[1:]))

    suite = _operator_regularity_suite(cfg, U)
    flags = {
        "ratio_within_10pct": bool(0.9 <= ratio <= 1.1),
        "no_monotone_growth": not monotone_growth,
        "domination_preserved": suite["domination_ok"],
        "liplarge_bounded": suite["liplarge_ok"],
        "wT_lemma_ok": all(r["wT_margin"] >= 0.0 for r in records),
    }
    notes = [f"largest-two-horizon max-speed ratio: {ratio:.6f}",
             "operator suite: " + suite["summary"]]
    return ScalingReport(
        kind=cfg.kind, config=cfg.to_dict(),
        records=records + [suite["record"]], flags=flags, notes=notes,
        fit=_disabled_fit(math.log10(cfg.horizons[-1] / cfg.horizons[0])),
        wall_times=walls)


def _operator_regularity_suite(cfg: ExperimentConfig, U):
    """Iterate the period-1 solution operator 20 times from S = 0 and track
    the domination defect and Lipschitz-in-the-large constant."""
    p = cfg.params
    halo = 4.0 * math.pi / abs(cfg.wavenumber) + 2.0
    v_max = 4.0 * (p.alpha * p.C) ** (1.0 / p.beta)
    dx = 2 * DX_MAX
    grid = GridSpec(x_min=-halo, x_max=halo, dx=dx, t1=0.0, t2=cfg.period,
                    dt=cfg.stencil * dx / v_max, v_max=v_max)
    kern = kernel(U, 0.0, cfg.period, grid, p)
    S = GridFunction(kern.source_nodes, np.zeros(len(kern.source_nodes)))
    defects, consts = [], []
    for _ in range(20):
        defects.append(domination_defect(S, kern, p.C))
        consts.append(lipschitz_in_large_constant(S))
        S, _ = minplus_apply(kern, S)
    lip_bound = 1.0 / (p.beta * cfg.period ** (p.beta - 1.0)) + p.C * cfg.period
    ok_dom = all(d <= 1e-9 for d in defects)
    ok_lip = all(c <= lip_bound + 1e-9 for c in consts)
    lo, up = kernel_bounds_defect(kern, p)
    record = {
        "T": float("nan"), "suite": "operator-regularity",
        "domination_defects": [float(d) for d in defects],
        "liplarge_constants": [float(c) for c in consts],
        "liplarge_bound": float(lip_bound),
        "kernel_lower_violation": lo, "kernel_upper_violation": up,
        "steps": len(defects),
    }
    return {"domination_ok": ok_dom, "liplarge_ok": ok_lip, "record": record,
            "summary": (f"max domination defect {max(defects):.3g}, "
                        f"max L-constant {max(consts):.4f} <= {lip_bound:.4f}")}


GLUE_EPSILON = 0.25
GLUE_CAP = 600.0     # caps every stage horizon: a mechanism demo, not asymptotics


def run_glued_demo(cfg: ExperimentConfig) -> ScalingReport:
    """Capped-schedule gluing demonstration.

    Solves on [-S_n, 0] for n = 1..n_max and records terminal speeds; the
    capped schedule shows the mechanism (a long early stage dominating a
    short coda), explicitly not the super-exponential asymptotics.
    """
    if cfg.kind != "glued-demo":
        raise ValueError("config kind must be 'glued-demo'")
    p = cfg.params
    K2 = velocity_bound_lower(math.e, p).K2   # K2 does not depend on T
    full = glued_schedule(GLUE_EPSILON, cfg.glue_Tbar, K2, cfg.C, cfg.beta,
                          cfg.glue_n_max, cap=GLUE_CAP)
    rng = np.random.default_rng(0)   # drawn stage after stage: keep serial

    def stage(n):
        sched = glued_schedule(GLUE_EPSILON, cfg.glue_Tbar, K2, cfg.C,
                               cfg.beta, n, cap=GLUE_CAP)
        U = glued_potential(sched)
        T_top = sched.stages[-1][0]
        S_n = sched.S_final
        # targets and grid share one pace horizon, kept above e so that
        # log T_pace > 1 on a short top stage
        T_pace = max(T_top, 3.0)
        lbtop = velocity_bound_lower(T_pace, p)
        x_targets = np.linspace(-lbtop.R_T / 2.0, lbtop.R_T / 2.0, N_TARGETS)
        wgrid = edge_grid(cfg, U, -S_n, 0.0, T_pace, DX_MAX,
                          float(max(x_targets.max() + 2 * DX_MAX, lbtop.R_T)),
                          cfg.margin)
        rec = _horizon_record(
            cfg, float(S_n), U, wgrid, x_targets,
            min(S_WINDOW_MAX, sched.stages[0][0] / 10.0),
            extra={"stage": n, "T_stage": float(T_top),
                   "stages": [list(map(float, st)) for st in sched.stages],
                   "capped": bool(sched.capped)})

        # stage-boundary continuity certified in situ (+-1e-12 probes keep the
        # field's own O(eps log eps) time variation below the 1e-10 budget)
        defect = 0.0
        for (_, S_b, _) in sched.stages[:-1]:
            xs = rng.uniform(wgrid.x_min, wgrid.x_max, 100)
            lft = np.asarray(U.value(xs, -S_b - 1e-12))
            rgt = np.asarray(U.value(xs, -S_b + 1e-12))
            defect = max(defect, float(np.max(np.abs(lft - rgt))))
        return rec.to_dict(), defect

    stages, walls = _map_timed(stage, range(1, cfg.glue_n_max + 1),
                               key=lambda n: f"stage{n}")
    records = [rec for rec, _ in stages]
    continuity_max = max([0.0] + [defect for _, defect in stages])
    vs = [r["v"] for r in records]
    flags = {
        "per_stage_increase": all(b > a for a, b in zip(vs, vs[1:])),
        "continuity_ok": continuity_max <= 1e-10,
        "capped": bool(full.capped),
    }
    notes = ["capped schedule - mechanism demonstration, not asymptotics",
             f"stage-boundary continuity max defect {continuity_max:.3e}",
             f"schedule stages (T_n, S_n, X_n): "
             f"{[list(map(float, st)) for st in full.stages]}"]
    return ScalingReport(kind=cfg.kind, config=cfg.to_dict(),
                         records=records, flags=flags, notes=notes,
                         wall_times=walls)


def run_lemma_suite(cfg: ExperimentConfig) -> ScalingReport:
    """Numerical verification table for all closed-form lemma checks."""
    if cfg.kind != "lemma-suite":
        raise ValueError("config kind must be 'lemma-suite'")
    p = cfg.params
    rows = []

    def add(check, params, margin, passed):
        rows.append({"check": check, "params": params,
                     "margin": float(margin), "passed": bool(passed)})

    # closed form of the energy integral vs adaptive quadrature
    for beta in (1.5, 2.0, 3.0):
        for st in (0.01, 0.1, 0.5, 1.0):
            for T in (1e2, 1e4):
                cv = PaceCurve(K=1.0, T=T, beta=beta)
                s = st * T
                closed = cv.energy_closed(s)
                quad = cv.energy_quad(s)
                rel = abs(closed - quad) / abs(quad)
                add("energy-closed-vs-quadrature",
                    {"beta": beta, "s_over_T": st, "T": T}, rel, rel <= 1e-8)

    # remainder of the pace expansion
    for beta in (1.5, 3.0):
        for st in (0.01, 0.1, 0.5):
            for T in (1e2, 1e4):
                cv = PaceCurve(K=1.0, T=T, beta=beta)
                s = st * T
                _, r = pace_residue(s, cv)
                z = math.log(T / s)
                ok = -1e-12 <= r <= z ** -2 + 1e-10
                add("residue-remainder-range",
                    {"beta": beta, "s_over_T": st, "T": T}, z ** -2 - r, ok)

    # energy-vs-Jensen gap window
    for beta in (1.5, 2.0, 3.0):
        for st in (0.01, 0.1, 0.5, 1.0):
            for T in (1e2, 1e4):
                cv = PaceCurve(K=1.0, T=T, beta=beta)
                s = st * T
                gap = pace_main_gap(s, cv)
                cap = 4.0 * s / beta
                ok = -1e-9 <= gap < cap
                add("main-gap-window", {"beta": beta, "s_over_T": st, "T": T},
                    cap - gap, ok)

    # two-point pace inequality: calibrated margin, stable in T
    ratios = {}
    for T in (1e3, 1e4, 1e5):
        cv = PaceCurve(K=1.0, T=T, beta=cfg.beta)
        s = math.log(T) ** 2
        ratios[T] = pace_s2_gap(s, cv) / (math.log(T) ** 2)
    mbar_obs = max(max(ratios.values()), 0.0)
    mbar = max(2.0 * mbar_obs, 1.0)   # paper asserts a positive constant
    vals = [ratios[T] for T in sorted(ratios)]
    nonincreasing = all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    add("s2-gap-ratio-nonincreasing",
        {"T0": 1e3, "Mbar": mbar, "ratios": {str(k): v for k, v in ratios.items()}},
        vals[0] - vals[-1], nonincreasing and all(v <= mbar for v in vals))

    # full-span average velocity lemma over random certified potentials
    rng = np.random.default_rng(11)
    worst = math.inf
    prog_worst = math.inf
    trajs = []
    for i in range(50):
        profiles = [cosine_profile(1.0, rng.uniform(0.3, 2.0), rng.uniform(0, 6.28))
                    for _ in range(2)]
        U = random_potential(int(rng.integers(1 << 30)), profiles,
                             cfg.correlation_time, t_min=-20.0, t_max=0.0,
                             C=cfg.C, beta=cfg.beta)
        v_max = 6.0
        grid = GridSpec(x_min=-10.0, x_max=10.0, dx=0.1, t1=-20.0, t2=0.0,
                        dt=cfg.stencil * 0.1 / v_max, v_max=v_max)
        table = solve_dp(U, grid, None, p)
        traj = _backtrack_inside(table, float(rng.uniform(-3, 3)))
        worst = min(worst, lemma_wT_margin(traj, p, grid.dx))
        trajs.append(traj)
    add("wT-lemma-random-potentials", {"count": 50}, worst, worst >= 0.0)

    # geometric-progression inequality on a subsample (beta = 2 only)
    if cfg.beta == 2.0:
        for traj in trajs[:10]:
            m, npair = progression_margins(traj, p, 0.1, n_samples=40)
            if npair:
                prog_worst = min(prog_worst, m)
        add("beta2-progression-random", {"count": 10}, prog_worst,
            prog_worst >= 0.0)

    # DP optimality oracle on toy instances
    oracle_ok = True
    for _ in range(5):
        n_x = int(rng.integers(3, 6))
        n_steps = int(rng.integers(2, 6))
        g = GridSpec(x_min=0.0, x_max=0.5 * (n_x - 1), dx=0.5, t1=0.0,
                     t2=0.25 * n_steps, dt=0.25, v_max=float(rng.uniform(2.2, 6.0)))
        vals = rng.uniform(0, 1, size=(n_steps + 2, n_x))

        def ev(x, t, vals=vals, g=g, n_steps=n_steps):
            xi = np.clip(np.round(np.asarray(x) / g.dx).astype(int), 0, g.n_x - 1)
            ti = np.clip(np.asarray(t) / g.dt_eff, 0, n_steps + 1).astype(int)
            return vals[ti, xi]

        U = PotentialField(lambda ts, deriv: lambda x: (
            0.0 * np.asarray(x) if deriv else ev(x, ts)), bound=1.0)
        tab = solve_dp(U, g, None, p)
        ev_vals, _ = enumerate_paths(U, g, None, p)
        oracle_ok &= bool(np.array_equal(tab.final_values, ev_vals))
    add("dp-enumeration-oracle", {"count": 5}, 0.0, oracle_ok)

    # kernel sandwich equality branches and tropical associativity
    gk = GridSpec(x_min=0.0, x_max=3.0, dx=0.15, t1=0.0, t2=0.75, dt=0.25,
                  v_max=5.0)
    grid_tol = 2.0 * gk.dx * (3.0 / 0.75)   # 2 dx * max slope
    # zero potential saturates the upper branch (violation = lattice error);
    # its lower violation vanishes exactly, and vice versa for U = C
    k0 = kernel(zero_potential(), 0.0, 0.75, gk, p)
    lo0, up0 = kernel_bounds_defect(k0, p)
    add("kernel-sandwich-zero-potential", {"potential": "zero"},
        grid_tol - up0, lo0 <= 1e-9 and up0 <= grid_tol)
    kc = kernel(constant_potential(cfg.C), 0.0, 0.75, gk, p)
    loc, upc = kernel_bounds_defect(kc, p)
    add("kernel-sandwich-constant-potential", {"potential": "constant"},
        grid_tol - loc, upc <= 1e-9 and loc <= grid_tol)
    ka = kernel(zero_potential(), 0.0, 0.25, gk, p)
    kb = kernel(zero_potential(), 0.25, 0.5, gk, p)
    kc2 = kernel(zero_potential(), 0.5, 0.75, gk, p)
    left = minplus_compose(minplus_compose(ka, kb), kc2)
    right = minplus_compose(ka, minplus_compose(kb, kc2))
    fin = np.isfinite(left.entries) & np.isfinite(right.entries)
    assoc = float(np.max(np.abs(left.entries - right.entries)[fin]))
    add("tropical-associativity", {}, assoc, assoc <= 1e-12)

    flags = {"all_passed": all(r["passed"] for r in rows),
             "checks": len(rows)}
    return ScalingReport(kind=cfg.kind, config=cfg.to_dict(), records=rows,
                         flags=flags,
                         notes=[f"calibrated s2 margin constant: {mbar}"])


N_PROFILES = 3


def run_conjecture_probe(cfg: ExperimentConfig) -> ScalingReport:
    """Random-potential probe: growth vs plateau of v(T); exploratory only."""
    if cfg.kind != "conjecture-probe":
        raise ValueError("config kind must be 'conjecture-probe'")
    if len(cfg.seeds) < 5:
        raise ValueError("conjecture probe needs at least 5 seeds")
    T_max = max(cfg.horizons)

    def seed_records(seed):
        rng = np.random.default_rng(seed)
        profiles = [cosine_profile(1.0, rng.uniform(0.3, 2.0), rng.uniform(0, 6.28))
                    for _ in range(N_PROFILES)]
        U = random_potential(seed, profiles, cfg.correlation_time,
                             t_min=-T_max, t_max=0.0, C=cfg.C, beta=cfg.beta)
        x_targets = np.array([0.0, 1.0, 2.0])
        records = []
        for T in cfg.horizons:
            v_max = 6.0
            dx = DX_MAX * 2
            grid = GridSpec(x_min=-14.0, x_max=14.0, dx=dx, t1=-T, t2=0.0,
                            dt=cfg.stencil * dx / v_max, v_max=v_max)
            s_window = min(S_WINDOW_MAX, T / 20.0)
            records.append(_horizon_record(cfg, T, U, grid, x_targets, s_window,
                                           seed=seed).to_dict())
        return records

    per_seed, walls = _map_timed(seed_records, sorted(cfg.seeds))
    records = sorted((r for recs in per_seed for r in recs),
                     key=lambda r: (r["T"], r["seed"]))
    # plateau statistic per seed: v at the largest horizon over v at the smallest
    plateau = {}
    T_lo = min(cfg.horizons)
    for seed in sorted(cfg.seeds):
        v_hi = next(r["v"] for r in records
                    if r["seed"] == seed and r["T"] == T_max)
        v_lo = next(r["v"] for r in records
                    if r["seed"] == seed and r["T"] == T_lo)
        plateau[str(seed)] = float(v_hi / v_lo) if v_lo > 0 else float("nan")
    flags = {"exploratory": True,
             "plateau_statistic": plateau}
    return ScalingReport(kind=cfg.kind, config=cfg.to_dict(),
                         records=records, flags=flags,
                         notes=["exploratory probe: no pass/fail; plateau "
                                "statistic is v(T_max)/v(T_min) per seed"],
                         wall_times=walls)


class Experiment(NamedTuple):
    """One experiment kind: its runner, its ``hjlab`` command, its default
    horizons, the report flags that fail the command when false and the
    ExperimentConfig fields the runner reads.  Only those fields go into
    the report's config, may be set in a config file, and get a flag
    (--horizons, --seeds) when they are lists."""

    run: Callable[[ExperimentConfig], ScalingReport]
    command: str
    horizons: tuple
    hard_flags: tuple
    reads: tuple


# The only list of experiment kinds: config defaults, dispatch, the CLI
# commands, their flags, config keys and hard flags all read it, so a new
# kind is a runner plus a row.
EXPERIMENTS = {
    # fit_in_range is None (not False) when the fit is suppressed: "skipped", not failed
    "scaling": Experiment(run_scaling, "scaling", (50.0, 200.0, 1000.0),
                          ("monotone_v", "onset_found", "wT_lemma_ok",
                           "progression_ok", "fit_in_range"),
                          ("beta", "C", "horizons", "margin", "stencil")),
    "periodic-control": Experiment(run_periodic_control, "periodic-control",
                                   (100.0, 316.0, 1000.0),
                                   ("ratio_within_10pct", "no_monotone_growth",
                                    "domination_preserved", "liplarge_bounded",
                                    "wT_lemma_ok"),
                                   ("beta", "C", "horizons", "stencil", "period",
                                    "wavenumber", "modulation")),
    "glued-demo": Experiment(run_glued_demo, "glued-demo", (),
                             ("per_stage_increase", "continuity_ok"),
                             ("beta", "C", "margin", "stencil", "glue_Tbar",
                              "glue_n_max")),
    "lemma-suite": Experiment(run_lemma_suite, "check-lemmas", (),
                              ("all_passed",),
                              ("beta", "C", "stencil", "correlation_time")),
    "conjecture-probe": Experiment(run_conjecture_probe, "conjecture-probe",
                                   (20.0, 50.0, 200.0), (),
                                   ("beta", "C", "horizons", "seeds", "stencil",
                                    "correlation_time")),
}


def run_experiment(cfg: ExperimentConfig) -> ScalingReport:
    return EXPERIMENTS[cfg.kind].run(cfg)
