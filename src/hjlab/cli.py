"""Command-line interface.

Subcommands build potentials, compute single minimizers and kernels, apply
the solution operator, and run the batch experiments.  Each subcommand takes
only the flags its handler reads: `--config` (or HJLAB_CONFIG) on `potential`
and the experiments, `--out-dir` (or HJLAB_OUT_DIR, or the config file's
`out_dir`) on the experiments, and `--horizons` and `--seeds` on the
experiments whose `EXPERIMENTS` row reads that config key.  An experiment's
config file may set only the keys its row reads.  Explicit flags win over
the environment, which wins over the config file.  `minimize`, `kernel` and
`evolve` share their potential, time, speed-cap and output flags.

Exit codes: 0 all hard assertions pass, 1 assertion failure or failed run
(a domain that misses the potential, a trajectory that touches its window),
2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .core import ModelParams
from .experiments import (EXPERIMENTS, REFINE_PASSES, ExperimentConfig,
                          _backtrack_inside, run_experiment)
from .laxoleinik import (gridfunction_from_csv, gridfunction_to_csv, kernel,
                         kernel_to_csv, minplus_apply)
from .minimizer import (DomainError, GridSpec, WindowTouchError, refine,
                        solve_dp, velocity_bound_upper)
from .potentials import potential_from_spec
from .reports import canonical_json, emit

ENV_PREFIX = "HJLAB_"

HARD_FLAGS = {kind: list(e.hard_flags) for kind, e in EXPERIMENTS.items()}

# `hjlab potential` flags: each sets the spec key of its name (--n-max sets n_max)
_SPEC_FLAGS = {"kind": str, "beta": float, "C": float, "K": float, "t1": float,
               "t2": float, "y": float, "level": float, "period": float,
               "seed": int, "epsilon": float, "Tbar": float, "n_max": int,
               "cap": float, "correlation_time": float, "t_min": float,
               "t_max": float, "modulation": str}
# the list-valued config keys an experiment command takes as comma-separated flags
_LIST_FLAGS = {"horizons": float, "seeds": int}


class ConfigError(Exception):
    pass


def _env(flag, name, default=None):
    """An explicit flag's value, else the HJLAB_<name> variable's, else default."""
    return flag if flag is not None else os.environ.get(ENV_PREFIX + name, default)


def _load_config(args) -> dict:
    """The JSON object in the --config (or HJLAB_CONFIG) file; {} without one."""
    path = _env(args.config, "CONFIG")
    if path is None:
        return {}
    try:
        with open(path) as f:
            config = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    if not isinstance(config, dict):
        raise ConfigError(f"config file {path} must hold a JSON object, got {config!r}")
    return config


def _cmd_potential(args) -> int:
    spec = _load_config(args).get("potential", {})
    if not isinstance(spec, dict):
        raise ConfigError(f"config key 'potential' must be an object, got {spec!r}")
    for key in _SPEC_FLAGS:
        v = getattr(args, key)
        if v is not None:
            spec[key] = v
    if spec.get("kind") == "periodic" and "profile" not in spec:
        spec["profile"] = {"kind": "cosine", "amplitude": spec.get("C", 1.0),
                           "wavenumber": 1.0, "phase": 0.0}
    if spec.get("kind") == "random" and "profiles" not in spec:
        spec["profiles"] = [{"kind": "cosine", "amplitude": 1.0,
                             "wavenumber": 1.0, "phase": 0.0}]
    try:
        field = potential_from_spec(spec)
    except (KeyError, ValueError) as e:
        raise ConfigError(f"invalid potential spec: {e}") from e
    text = canonical_json(field.spec)
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _trajectory_csv(traj) -> str:
    v = traj.velocities
    v_col = np.append(v, v[-1])
    lines = ["t,x,v"]
    for t, x, vv in zip(traj.times, traj.positions, v_col):
        lines.append(f"{t:.17g},{x:.17g},{vv:.17g}")
    return "\n".join(lines) + "\n"


def _load_model(path):
    """The potential stored at path, and its model parameters: the spec's
    beta (2 when absent) and C = the field's bound."""
    try:
        with open(path) as f:
            U = potential_from_spec(json.load(f))
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as e:
        raise ConfigError(f"cannot load potential {path}: {e}") from e
    return U, ModelParams(beta=U.spec.get("beta", 2.0), C=max(U.bound, 1e-12))


def _duration(args) -> float:
    """t2 - t1 of a minimize, kernel or evolve run, which must be positive."""
    T = args.t2 - args.t1
    if not T > 0:
        raise ConfigError("need t2 > t1")
    return T


def _cmd_minimize(args) -> int:
    T = _duration(args)
    U, p = _load_model(args.potential)
    v_max = args.v_max if args.v_max else 1.5 * velocity_bound_upper(max(T, 1.01), p)
    lo0 = None
    if U.support_hint is not None:
        lo0 = min(U.support_hint(args.t1)[0], U.support_hint(args.t2)[0])
    if lo0 is not None:
        x_lo, x_hi = lo0 - 8.0, max(args.x, U.support_hint(args.t2)[1]) + 4.0
    else:
        x_lo, x_hi = args.x - 20.0, args.x + 20.0
    # an explicit bound replaces its default; the other keeps the default
    if args.x_min is not None:
        x_lo = args.x_min
        if lo0 is not None and x_lo > lo0:
            # the minimizer follows the potential edge; cut off, it stays static
            raise DomainError(f"--x-min {x_lo} lies above the potential edge "
                              f"{lo0:.6g} on [t1, t2]")
    if args.x_max is not None:
        x_hi = args.x_max
    if not x_lo <= args.x <= x_hi:
        raise ConfigError(f"--x {args.x} lies outside the domain [{x_lo:.6g}, {x_hi:.6g}]")
    grid = GridSpec(x_min=x_lo, x_max=x_hi, dx=args.dx, t1=args.t1,
                    t2=args.t2, dt=args.dt, v_max=v_max)
    table = solve_dp(U, grid, None, p)
    traj = refine(_backtrack_inside(table, args.x), U, p, passes=REFINE_PASSES)
    text = _trajectory_csv(traj)
    with open(args.out, "w") as f:
        f.write(text)
    return 0


def _cmd_kernel(args) -> int:
    T = _duration(args)
    U, p = _load_model(args.potential)
    v_max = args.v_max if args.v_max else \
        max(2.0 * (args.x_max - args.x_min) / T, 4.0)
    grid = GridSpec(x_min=args.x_min, x_max=args.x_max, dx=args.dx,
                    t1=args.t1, t2=args.t2, dt=args.dt, v_max=v_max)
    kern = kernel(U, args.t1, args.t2, grid, p)
    with open(args.out, "w") as f:
        f.write(kernel_to_csv(kern))
    return 0


def _cmd_evolve(args) -> int:
    T = _duration(args)
    U, p = _load_model(args.potential)
    with open(args.initial) as f:
        S = gridfunction_from_csv(f.read())
    nodes = S.nodes
    if len(nodes) < 2:
        raise ConfigError("initial grid function needs at least 2 nodes")
    dxs = np.diff(nodes)
    if not np.allclose(dxs, dxs[0], rtol=1e-9, atol=1e-12):
        raise ConfigError("initial grid function must sit on a uniform lattice")
    dx = float(dxs[0])
    v_max = args.v_max if args.v_max else \
        max(2.0 * (nodes[-1] - nodes[0]) / T, 4.0)
    dt = args.dt if args.dt else 16.0 * dx / v_max
    grid = GridSpec(x_min=float(nodes[0]), x_max=float(nodes[-1]), dx=dx,
                    t1=args.t1, t2=args.t2, dt=dt, v_max=v_max)
    kern = kernel(U, args.t1, args.t2, grid, p)
    out, _ = minplus_apply(kern, S)
    with open(args.out, "w") as f:
        f.write(gridfunction_to_csv(out))
    return 0


def _cmd_experiment(kind, args) -> int:
    merged = _load_config(args)
    merged.pop("potential", None)
    out_dir = _env(args.out_dir, "OUT_DIR", merged.pop("out_dir", "out"))
    if not isinstance(out_dir, str):
        raise ConfigError(f"config key 'out_dir' must be a string, got {out_dir!r}")
    merged["kind"] = kind
    e = EXPERIMENTS[kind]
    unread = sorted(set(merged) - {"kind"} - set(e.reads))
    if unread:
        raise ConfigError(f"{e.command} does not read config key(s) "
                          f"{', '.join(map(repr, unread))}; it reads {', '.join(e.reads)}")
    for key, typ in _LIST_FLAGS.items():
        if key in e.reads and getattr(args, key):
            merged[key] = [typ(x) for x in getattr(args, key).split(",")]
    report = run_experiment(ExperimentConfig(**merged))
    paths = emit(report, out_dir)
    hard = HARD_FLAGS[kind]
    failed = [name for name in hard if report.flags.get(name) is False]
    for name in hard:
        flag = report.flags.get(name)
        state = "skipped" if flag is None else "pass" if flag else "FAIL"
        print(f"[{kind}] {name}: {state}")
    for k, v in sorted(paths.items()):
        print(f"[{kind}] wrote {k}: {v}")
    return 1 if failed else 0


def _add_run_flags(sp, dt_required):
    """The flags minimize, kernel and evolve share; evolve can derive --dt."""
    sp.add_argument("--potential", required=True)
    sp.add_argument("--t1", type=float, required=True)
    sp.add_argument("--t2", type=float, required=True)
    sp.add_argument("--dt", type=float, required=dt_required)
    sp.add_argument("--v-max", dest="v_max", type=float)
    sp.add_argument("--out", required=True)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hjlab",
        description="min-plus Lax-Oleinik laboratory: minimizers, kernels, "
                    "and terminal-velocity scaling experiments")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("potential", help="build and serialize a potential spec")
    sp.add_argument("--config", help="JSON config file; its `potential` key is the spec")
    for key, typ in _SPEC_FLAGS.items():
        sp.add_argument("--" + key.replace("_", "-"), type=typ, help=(
            "zero|constant|accelerating|glued|periodic|random"
            if key == "kind" else None))
    sp.add_argument("--out")
    sp.set_defaults(fn=_cmd_potential)

    sp = sub.add_parser("minimize", help="compute one free-endpoint minimizer")
    _add_run_flags(sp, dt_required=True)
    sp.add_argument("--x", type=float, required=True)
    sp.add_argument("--dx", type=float, required=True)
    sp.add_argument("--x-min", dest="x_min", type=float)
    sp.add_argument("--x-max", dest="x_max", type=float)
    sp.set_defaults(fn=_cmd_minimize)

    sp = sub.add_parser("kernel", help="compute an action kernel as CSV")
    _add_run_flags(sp, dt_required=True)
    sp.add_argument("--x-min", dest="x_min", type=float, required=True)
    sp.add_argument("--x-max", dest="x_max", type=float, required=True)
    sp.add_argument("--dx", type=float, required=True)
    sp.set_defaults(fn=_cmd_kernel)

    sp = sub.add_parser("evolve", help="apply the solution operator to a CSV "
                                       "grid function")
    _add_run_flags(sp, dt_required=False)
    sp.add_argument("--initial", required=True, help="CSV x,S")
    sp.set_defaults(fn=_cmd_evolve)

    for kind, e in EXPERIMENTS.items():
        sp = sub.add_parser(e.command, help=f"run the {kind} experiment")
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--out-dir", help="output directory (default out)")
        for key in [k for k in _LIST_FLAGS if k in e.reads]:
            sp.add_argument("--" + key, help=f"comma-separated {key[:-1]} list")
        sp.set_defaults(fn=lambda a, _kind=kind: _cmd_experiment(_kind, a))

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors already; propagate others
        return int(e.code) if e.code else 0
    try:
        return args.fn(args)
    except (DomainError, WindowTouchError) as e:   # DomainError is a ValueError
        print(f"run failed: {e}", file=sys.stderr)
        return 1
    except (ConfigError, ValueError, KeyError) as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except AssertionError as e:
        print(f"assertion failure: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
