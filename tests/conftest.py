import numpy as np
import pytest

from hjlab.core import ModelParams
from hjlab.experiments import (ExperimentConfig, run_glued_demo,
                               run_lemma_suite, run_periodic_control,
                               run_scaling)


@pytest.fixture(scope="session")
def params2():
    return ModelParams(beta=2.0, C=1.0)


@pytest.fixture(scope="session")
def scaling_report(tmp_path_factory):
    """CI-profile scaling run, shared by experiment tests and acceptance."""
    out = str(tmp_path_factory.mktemp("scaling"))
    cfg = ExperimentConfig(kind="scaling", out_dir=out)
    return run_scaling(cfg)


@pytest.fixture(scope="session")
def periodic_report(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("periodic"))
    cfg = ExperimentConfig(kind="periodic-control", out_dir=out)
    return run_periodic_control(cfg)


@pytest.fixture(scope="session")
def glued_report(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("glued"))
    cfg = ExperimentConfig(kind="glued-demo", out_dir=out)
    return run_glued_demo(cfg)


@pytest.fixture(scope="session")
def lemma_report():
    return run_lemma_suite(ExperimentConfig(kind="lemma-suite"))


@pytest.fixture(scope="session")
def random_minimizer_sweep(params2):
    """150 small minimizers under certified random potentials (used by the
    full-span average-velocity lemma census)."""
    from hjlab.minimizer import GridSpec, backtrack, lemma_wT_margin, solve_dp
    from hjlab.potentials import cosine_profile, random_potential

    rng = np.random.default_rng(2024)
    margins = []
    trajs = []
    for i in range(150):
        profiles = [cosine_profile(1.0, rng.uniform(0.3, 2.0), rng.uniform(0, 6.28))
                    for _ in range(2)]
        U = random_potential(int(rng.integers(1 << 30)), profiles,
                             correlation_time=2.0, t_min=-20.0, t_max=0.0,
                             C=1.0, beta=2.0)
        v_max = 6.0
        dx = 0.1
        grid = GridSpec(x_min=-10.0, x_max=10.0, dx=dx, t1=-20.0, t2=0.0,
                        dt=24 * dx / v_max, v_max=v_max)
        table = solve_dp(U, grid, None, params2)
        traj = backtrack(table, float(rng.uniform(-4, 4)))
        margins.append(lemma_wT_margin(traj, params2, dx))
        trajs.append(traj)
    return trajs, np.array(margins)
