#!/usr/bin/env python3
"""Show that the benchmark's checks catch wrong outputs.

    python3 perfbench/selftest.py

Runs each workload once at the reference seed, then feeds the unchanged
output and several perturbed copies through the same repetition and check
path that run.py uses.  The unchanged output must pass and every perturbed
one must be counted as a failure.  Exits 1 otherwise.  Takes about 40 s.
"""

import copy
import sys

import numpy as np

import run


class Replay:
    """A workload whose run() returns a stored (possibly perturbed) output."""

    def __init__(self, work, out):
        self.work, self.out = work, out

    def run(self):
        return self.out

    def check(self, out, ref):
        return self.work.check(out, ref)


def _ulp_up(a, index):
    a[index] = np.nextafter(a[index], np.inf)


def _bump_v(out, T, by):
    for r in out["report"].records:
        if r["T"] == T:
            r["v"] += by


CASES = {
    "kernel-flow": [
        ("one k12 entry one ulp up",
         lambda o, ref: _ulp_up(o["kernels"][0].entries, (205, 205))),
        ("one min-plus iterate value one ulp up",
         lambda o, ref: _ulp_up(o["iterates"][-1].values, 100)),
    ],
    "scaling-ci": [
        ("v(T=1000) moved by twice the tolerance",
         lambda o, ref: _bump_v(o, 1000.0, 2 * ref["v_tolerance"])),
        ("v(T=200) moved by 1.01 times the tolerance",
         lambda o, ref: _bump_v(o, 200.0, -1.01 * ref["v_tolerance"])),
        ("hard flag monotone_v false",
         lambda o, ref: o["report"].flags.update(monotone_v=False)),
        ("a record without v, so the check raises",
         lambda o, ref: o["report"].records[0].pop("v")),
    ],
    "el-polish": [
        ("one trajectory node moved by 1e-6",
         lambda o, ref: o["traj"].positions.__setitem__(
             250, o["traj"].positions[250] + 1e-6)),
        ("one DP final value one ulp up",
         lambda o, ref: _ulp_up(o["final_values"], 1000)),
    ],
}


def main():
    run.import_hjlab()
    import workloads
    refs = workloads.load_reference()
    wrong = 0
    for name, cases in CASES.items():
        ref = refs[name]
        work = workloads.WORKLOADS[name](workloads.REFERENCE_SEED, run.OUT)
        out = work.run()
        for label, perturb in [("unperturbed", None)] + cases:
            case = copy.deepcopy(out)
            if perturb is not None:
                perturb(case, ref)
            ok = run.repetition(Replay(work, case), ref)["ok"]
            expected = perturb is None
            wrong += ok != expected
            print(f"selftest {name}: {label}: counted as "
                  f"{'pass' if ok else 'failure'}"
                  f"{'' if ok == expected else '  <-- WRONG'}", flush=True)
    print(f"selftest: {'all checks behaved' if not wrong else f'{wrong} wrong'}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
