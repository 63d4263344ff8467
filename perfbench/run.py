#!/usr/bin/env python3
"""perfbench: end-to-end and per-layer benchmark of hjlab.

    python3 perfbench/run.py --workload scaling-ci --seed 0 --trace 0

Runs one workload (scaling-ci, kernel-flow or el-polish; see workloads.py)
from the hjlab sources in ``src/`` of the checkout that holds this file,
single-threaded.  The workload's calls are repeated, each repetition
checked, while another repetition still fits in ``--seconds``.  Before each
repetition, set-up is timed in three fresh child processes, from spawn to
inputs ready; those probes do not count against ``--seconds``.

With ``--trace 0`` the last stdout line reports the end-to-end metrics
(medians over repetitions).  With ``--trace 1`` untraced and traced
repetitions alternate and the last line reports per-layer metrics from the
traced ones, including the tracing overhead (traced minus untraced wall);
the spans are written to ``.perfbench_out/``.  Any failed check makes the
exit status 1; a checkout without ``src/hjlab`` makes it 2, with no result.
"""

import os

# pin BLAS / OpenMP pools before numpy loads: the workloads are single-threaded
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES_PER_REPETITION = 3


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_hjlab() -> float:
    """Import hjlab from this checkout's src/ and the benchmark modules;
    returns the seconds spent.  Exits 2 when the sources are missing."""
    if not os.path.isfile(os.path.join(SRC, "hjlab", "__init__.py")):
        fail(f"no hjlab sources under {SRC}")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import hjlab
    import workloads  # noqa: F401  (imports every hjlab module it drives)
    elapsed = time.perf_counter() - t0
    if os.path.dirname(os.path.abspath(hjlab.__file__)) != os.path.join(SRC, "hjlab"):
        fail(f"imported hjlab from {hjlab.__file__}, not {SRC}")
    return elapsed


def probe_setup(args):
    """Child side of the set-up timing: import, build inputs, report."""
    import_s = import_hjlab()
    import workloads
    workloads.WORKLOADS[args.workload](args.seed, OUT)
    print(json.dumps({"import_s": import_s}), flush=True)


def time_setup(args):
    """Seconds from spawning a child to its inputs being ready, and the
    child's own import time."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True) as proc:
        line = proc.stdout.readline()
        total = time.perf_counter() - t0
        proc.stdout.read()
        if proc.wait(timeout=120) != 0 or not line:
            fail("set-up probe failed")
    return total, json.loads(line)["import_s"]


def git_sha() -> str:
    """HEAD's commit when the checkout is a git clone, else 'unknown'."""
    try:
        top, sha = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=30, check=True).stdout.split()
    except (OSError, subprocess.SubprocessError, ValueError):
        return "unknown"
    return sha if os.path.samefile(top, ROOT) else "unknown"


def environment(args) -> dict:
    import numpy
    import scipy
    return {"workload": args.workload, "seed": args.seed,
            "git_sha": git_sha(), "nproc": os.cpu_count(),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def repetition(work, ref, tracer=None):
    """One timed, checked run of the workload's calls; with a tracer, also
    its per-layer metrics."""
    if tracer is not None:
        tracer.clear()
        tracer.install()
    c0, t0 = time.process_time(), time.perf_counter()
    out = errors = None
    try:
        out = work.run()
    except Exception as exc:
        traceback.print_exc()
        errors = [f"run raised {exc!r}"]
    finally:
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        if tracer is not None:
            tracer.remove()
    if errors is None:
        try:
            errors = work.check(out, ref)
        except Exception as exc:
            traceback.print_exc()
            errors = [f"check raised {exc!r}"]
    for e in errors:
        print(f"perfbench: check failed: {e}", file=sys.stderr)
    result = {"wall": wall, "cpu": cpu, "ok": not errors}
    if tracer is not None:
        import spans
        result["layers"] = spans.layer_metrics(tracer.spans(), wall, out)
    return result


def measure(args):
    import_hjlab()
    import spans
    import workloads
    env = environment(args)
    print("perfbench env " + json.dumps(env, sort_keys=True), flush=True)
    os.makedirs(OUT, exist_ok=True)
    work = workloads.WORKLOADS[args.workload](args.seed, OUT)
    ref = workloads.load_reference()[args.workload]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)

    tracer = spans.Tracer() if args.trace else None
    plain, traced, setups = [], [], []
    probing = 0.0     # seconds spent in set-up probes, not measuring
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        setups += [time_setup(args) for _ in range(SETUP_PROBES_PER_REPETITION)]
        probing += time.perf_counter() - t0
        if tracer is not None and len(traced) < len(plain):
            traced.append(repetition(work, ref, tracer))
        else:
            plain.append(repetition(work, ref))
        done = plain + traced
        elapsed = time.perf_counter() - start - probing
        need_traced = tracer is not None and not traced
        if not need_traced and elapsed + max(r["wall"] for r in done) > args.seconds:
            break

    done = plain + traced
    failed = sum(not r["ok"] for r in done)
    wall = statistics.median(r["wall"] for r in plain)
    if tracer is None:
        end_to_end = {"wall_s": wall,
                      "cpu_s": statistics.median(r["cpu"] for r in plain),
                      "peak_rss_mb": resource.getrusage(
                          resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                      "setup_s": statistics.median(t for t, _ in setups)}
        metrics = {m["name"]: (end_to_end[m["name"]], m["unit"])
                   for m in declared["end_to_end"]}
    else:
        layers = [r["layers"] for r in traced]
        per_layer = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        per_layer["setup.import_s"] = statistics.median(i for _, i in setups)
        per_layer["trace.overhead_s"] = (
            statistics.median(r["wall"] for r in traced) - wall)
        metrics = {m["name"]: (per_layer[m["name"]], m["unit"])
                   for m in declared["per_layer"]}
        with open(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.json"), "w") as f:
            json.dump({"env": env, "fields": ["name", "start", "end", "parent",
                                              "error", "info"],
                       "spans": tracer.spans()}, f)

    print(f"perfbench {args.workload} seed {args.seed}: {len(plain)} untraced"
          f" and {len(traced)} traced repetitions, {len(setups)} set-up probes;"
          f" values are medians")
    print("  untraced wall_s " + " ".join(f"{r['wall']:.3f}" for r in plain)
          + (" | traced wall_s " + " ".join(f"{r['wall']:.3f}" for r in traced)
             if traced else ""))
    for k, (v, unit) in sorted(metrics.items()):
        label = f" ({spans.COMPUTED[k]})" if k in spans.COMPUTED else ""
        print(f"  {k:40s} {v:16.6f} {unit}{label}")
    print(f"  {'error_rate':40s} {failed / len(done):16.6f} "
          f"failed/attempted ({failed}/{len(done)})", flush=True)
    print(json.dumps({"correct": failed == 0, "attempted": len(done),
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 1 if failed else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("scaling-ci", "kernel-flow", "el-polish"))
    ap.add_argument("--seed", type=int, default=0,
                    help="0 reproduces the reference instances")
    ap.add_argument("--seconds", type=float,
                    help="measuring time; default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            args.seconds = json.load(f)["run_seconds"]
    if args.probe_setup:
        return probe_setup(args)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
