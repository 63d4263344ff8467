import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from hjlab.cli import main as cli_main
from hjlab.experiments import (ExperimentConfig, ScalingReport,
                               run_conjecture_probe, run_lemma_suite)
from hjlab.reports import canonical_json, emit, report_csv, report_svg


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(kind="nope")
    with pytest.raises(ValueError):
        ExperimentConfig(kind="scaling", horizons=[2.0, 50.0])   # T <= e
    with pytest.raises(ValueError):
        ExperimentConfig(kind="scaling", horizons=[50.0, 20.0])
    with pytest.raises(ValueError):
        ExperimentConfig(kind="scaling", profile="huge")
    cfg = ExperimentConfig(kind="scaling", profile="large")
    assert cfg.horizons[-1] == 10000.0
    for margin in (0.0, -1.0):   # the window would cut the bump off: v = 0
        with pytest.raises(ValueError, match="margin"):
            ExperimentConfig(kind="scaling", margin=margin)


def test_lemma_suite_passes():
    rep = run_lemma_suite(ExperimentConfig(kind="lemma-suite"))
    assert rep.flags["all_passed"]
    assert rep.flags["checks"] >= 60


def test_scaling_report_content(scaling_report):
    rep = scaling_report
    assert [r["T"] for r in rep.records] == [50.0, 200.0, 1000.0]
    assert rep.flags["monotone_v"]
    assert rep.flags["wT_lemma_ok"]
    assert rep.flags["progression_ok"]
    assert rep.fit["enabled"]
    assert 0.8 <= rep.fit["p"] <= 1.2
    assert rep.onset_T == 50.0
    for r in rep.records:
        assert len(r["speeds"]) == 5
        assert r["v"] >= r["lower_bound"] - r["grid_slack"]
        assert r["v"] <= r["upper_bound_advisory"]
        assert not r["boundary_warning"]


def test_periodic_report_content(periodic_report):
    rep = periodic_report
    assert rep.flags["ratio_within_10pct"]
    assert rep.flags["no_monotone_growth"]
    assert rep.flags["domination_preserved"]
    assert rep.flags["liplarge_bounded"]
    suite = [r for r in rep.records if r.get("suite") == "operator-regularity"][0]
    assert suite["steps"] == 20
    assert max(suite["domination_defects"]) <= 1e-9
    assert max(suite["liplarge_constants"]) <= suite["liplarge_bound"] + 1e-9


def test_periodic_autonomous_energy_envelope(periodic_report):
    # |v| <= (alpha C)^(1/beta) for minimizers at rest initially (beta=2 run)
    env = (2.0 * 1.0) ** 0.5
    for r in periodic_report.records:
        if "speeds" in r:
            assert max(r["speeds"]) <= env + 0.1


def test_glued_report_content(glued_report):
    rep = glued_report
    assert rep.flags["per_stage_increase"]
    assert rep.flags["continuity_ok"]
    assert rep.flags["capped"]
    stages = [r["extra"]["stage"] for r in rep.records]
    assert stages == sorted(stages)
    vs = [r["v"] for r in rep.records]
    assert vs[1] > vs[0] + 0.5          # strict, with a real margin


def test_glued_stage1_is_plain_scaling_run():
    # n = 1 demo equals a plain accelerating run at T = T1 by construction:
    # checked as exact field equality in test_potentials; here check the
    # report labels the capped schedule
    rep_cfg = ExperimentConfig(kind="glued-demo")
    assert rep_cfg.glue_n_max == 2


def test_conjecture_probe_deterministic(tmp_path):
    cfg1 = ExperimentConfig(kind="conjecture-probe", out_dir=str(tmp_path / "a"),
                            horizons=[20.0, 50.0], seeds=[1, 2, 3, 4, 5])
    cfg2 = ExperimentConfig(kind="conjecture-probe", out_dir=str(tmp_path / "b"),
                            horizons=[20.0, 50.0], seeds=[1, 2, 3, 4, 5])
    r1 = run_conjecture_probe(cfg1)
    r2 = run_conjecture_probe(cfg2)
    d1, d2 = r1.to_dict(), r2.to_dict()
    d1["config"].pop("out_dir"), d2["config"].pop("out_dir")
    assert canonical_json(d1) == canonical_json(d2)
    with pytest.raises(ValueError):
        run_conjecture_probe(ExperimentConfig(kind="conjecture-probe",
                                              horizons=[20.0, 50.0],
                                              seeds=[1, 2]))


def test_emit_round_trip_and_formats(scaling_report, tmp_path):
    paths = emit(scaling_report, out_dir=str(tmp_path))
    with open(paths["json"]) as f:
        loaded = json.load(f)
    rt = ScalingReport.from_dict(loaded)
    assert rt.to_dict() == scaling_report.to_dict()

    csv_text = open(paths["csv"]).read()
    header = csv_text.splitlines()[0].split(",")
    assert header[:2] == ["T", "seed"]
    assert len(csv_text.strip().splitlines()) == 1 + len(scaling_report.records)

    svg = open(paths["svg"]).read()
    assert svg.count('<g class="series"') == 5
    assert svg.count('<polyline class="bound"') == 2
    assert 'id="bound-lower"' in svg and 'id="bound-upper"' in svg

    assert os.path.exists(paths["timings"])
    assert "wall_times_s" in open(paths["timings"]).read()


def test_emit_empty_report(tmp_path):
    rep = ScalingReport(kind="scaling", config={"beta": 2.0}, records=[],
                        fit={"enabled": False, "p": None, "a": None,
                             "residual": None, "span_decades": 0.0},
                        onset_T=None, flags={}, notes=[])
    paths = emit(rep, out_dir=str(tmp_path))
    assert json.load(open(paths["json"]))["records"] == []
    assert open(paths["csv"]).read().startswith("T,seed")
    assert "empty report" in open(paths["svg"]).read()


def test_probe_degenerate_single_profile_matches_periodic_construction():
    # with one profile and a frozen modulation (correlation time >> window)
    # the random field coincides with an autonomous rescaled profile, the
    # periodic-control construction
    from hjlab.potentials import cosine_profile, random_potential
    prof = cosine_profile(1.0, 1.0)
    U = random_potential(3, [prof], correlation_time=1e9, t_min=-50.0,
                         t_max=0.0, C=1.0)
    xs = np.linspace(-5, 5, 101)
    frozen = np.asarray(U.value(xs, -25.0))
    for t in (-50.0, -10.0, 0.0):
        assert np.allclose(np.asarray(U.value(xs, t)), frozen, atol=1e-9)
    m = (1.0 + float(U.amplitude(0, 0.0))) / 2.0
    assert np.allclose(frozen, prof.value(xs) * m, atol=1e-9)


def test_scaling_threads_deterministic(tmp_path):
    base = dict(kind="scaling", horizons=[50.0, 100.0], out_dir=str(tmp_path))
    from hjlab.experiments import run_scaling
    r1 = run_scaling(ExperimentConfig(**base, threads=1))
    r2 = run_scaling(ExperimentConfig(**base, threads=2))
    d1, d2 = r1.to_dict(), r2.to_dict()
    d1["config"].pop("threads"), d2["config"].pop("threads")
    assert canonical_json(d1) == canonical_json(d2)


def test_lemma_suite_emit_deterministic(tmp_path):
    cfg = ExperimentConfig(kind="lemma-suite", out_dir=str(tmp_path / "x"))
    r1 = run_lemma_suite(cfg)
    r2 = run_lemma_suite(cfg)
    p1 = emit(r1, out_dir=str(tmp_path / "x1"))
    p2 = emit(r2, out_dir=str(tmp_path / "x2"))
    assert open(p1["json"], "rb").read() == open(p2["json"], "rb").read()
    assert open(p1["csv"], "rb").read() == open(p2["csv"], "rb").read()


# ---------------------------------------------------------------- CLI


def test_cli_potential_round_trip(tmp_path):
    out = tmp_path / "pot.json"
    rc = cli_main(["potential", "--kind", "accelerating", "--beta", "2.0",
                   "--C", "1.0", "--K", "0.5", "--t1", "0", "--t2", "50",
                   "--y", "0", "--out", str(out)])
    assert rc == 0
    text1 = out.read_bytes()
    spec = json.loads(text1)
    out2 = tmp_path / "pot2.json"
    rc = cli_main(["potential", "--config", str(_spec_config(tmp_path, spec)),
                   "--out", str(out2)])
    assert rc == 0
    assert out2.read_bytes() == text1   # bit-exact round trip


def _spec_config(tmp_path, spec):
    p = tmp_path / "conf.json"
    p.write_text(json.dumps({"potential": spec}))
    return p


def test_cli_minimize_and_csv_format(tmp_path):
    pot = tmp_path / "p.json"
    cli_main(["potential", "--kind", "accelerating", "--beta", "2.0",
              "--C", "1.0", "--K", "0.6324555320336759", "--t1", "0",
              "--t2", "30", "--y", "0", "--out", str(pot)])
    out = tmp_path / "traj.csv"
    rc = cli_main(["minimize", "--potential", str(pot), "--x", "0.0",
                   "--t1", "0", "--t2", "30", "--dx", "0.05", "--dt", "0.1",
                   "--v-max", "9", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,x,v"
    rows = [ln.split(",") for ln in lines[1:]]
    # v column repeats the final segment velocity on the last row
    assert rows[-1][2] == rows[-2][2]
    t = np.array([float(r[0]) for r in rows])
    assert t[0] == 0.0 and t[-1] == 30.0


def test_cli_kernel_and_evolve(tmp_path):
    pot = tmp_path / "z.json"
    cli_main(["potential", "--kind", "zero", "--beta", "2.0", "--out", str(pot)])
    kout = tmp_path / "k.csv"
    rc = cli_main(["kernel", "--potential", str(pot), "--t1", "0", "--t2", "1",
                   "--x-min", "0", "--x-max", "2", "--dx", "0.25", "--dt", "0.125",
                   "--v-max", "6", "--out", str(kout)])
    assert rc == 0
    assert kout.read_text().startswith("y,x,A")

    s0 = tmp_path / "s0.csv"
    s0.write_text("x,S\n0,0\n0.5,2\n1,0\n1.5,2\n2,0\n")
    sout = tmp_path / "s1.csv"
    rc = cli_main(["evolve", "--potential", str(pot), "--initial", str(s0),
                   "--t1", "0", "--t2", "0.5", "--out", str(sout)])
    assert rc == 0
    vals = [float(ln.split(",")[1]) for ln in sout.read_text().strip().splitlines()[1:]]
    assert max(vals) <= 2.0 and min(vals) >= 0.0


def test_cli_exit_codes(tmp_path):
    assert cli_main(["minimize", "--potential", str(tmp_path / "nope.json"),
                     "--x", "0", "--t1", "0", "--t2", "1", "--dx", "0.1",
                     "--dt", "0.1", "--out", str(tmp_path / "t.csv")]) == 2
    # bad experiment config
    cfgfile = tmp_path / "bad.json"
    cfgfile.write_text(json.dumps({"horizons": [1.0, 2.0]}))
    assert cli_main(["check-lemmas", "--config", str(cfgfile),
                     "--out-dir", str(tmp_path)]) == 2
    cfgfile.write_text(json.dumps({"margin": 0}))
    assert cli_main(["scaling", "--horizons", "50", "--config", str(cfgfile),
                     "--out-dir", str(tmp_path)]) == 2


def test_cli_failed_runs_exit_1(tmp_path, capsys):
    # WindowTouchError: an early band clipped to +-0.05 around the edge traps
    # the minimizer on every margin retry
    cfgfile = tmp_path / "tight.json"
    cfgfile.write_text(json.dumps({"margin": 0.05, "detach_cap_factor": 0.1}))
    assert cli_main(["scaling", "--horizons", "60", "--config", str(cfgfile),
                     "--out-dir", str(tmp_path), "--threads", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("run failed:") and "window edge" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_cli_minimize_domain_above_edge_fails(tmp_path, capsys, monkeypatch):
    # the T = 100 edge starts near -63; a domain starting at -3 would return
    # the static path x = 0 if the sweep ran
    import hjlab.cli

    def no_sweep(*args, **kwargs):
        raise AssertionError("solve_dp must not run")

    pot = tmp_path / "p.json"
    cli_main(["potential", "--kind", "accelerating", "--beta", "2.0",
              "--C", "1.0", "--K", "0.6324555320336759", "--t1", "0",
              "--t2", "100", "--y", "0", "--out", str(pot)])
    monkeypatch.setattr(hjlab.cli, "solve_dp", no_sweep)
    out = tmp_path / "traj.csv"
    assert cli_main(["minimize", "--potential", str(pot), "--x", "0.0",
                     "--t1", "0", "--t2", "100", "--dx", "0.05", "--dt", "0.1",
                     "--x-min", "-3", "--x-max", "3", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("run failed:") and "--x-min -3.0" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_cli_minimize_one_sided_bounds(tmp_path, capsys, monkeypatch):
    import hjlab.cli

    pot = tmp_path / "p.json"
    cli_main(["potential", "--kind", "accelerating", "--beta", "2.0",
              "--C", "1.0", "--K", "0.6324555320336759", "--t1", "0",
              "--t2", "30", "--y", "0", "--out", str(pot)])
    base = ["minimize", "--potential", str(pot), "--x", "0.0", "--t1", "0",
            "--t2", "30", "--dx", "0.05", "--dt", "0.1", "--v-max", "9"]
    grids = []

    def recording_sweep(U, grid, *args, **kwargs):
        grids.append(grid)
        return solve_dp(U, grid, *args, **kwargs)

    solve_dp = hjlab.cli.solve_dp
    monkeypatch.setattr(hjlab.cli, "solve_dp", recording_sweep)
    assert cli_main(base + ["--out", str(tmp_path / "default.csv")]) == 0
    # --x-min alone is honoured, so the edge check sees it
    out = tmp_path / "lo.csv"
    assert cli_main(base + ["--x-min", "5", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("run failed:") and "--x-min 5.0" in err
    assert err.count("\n") == 1
    assert not out.exists()
    # --x-max alone sets the grid top and keeps the default bottom
    assert cli_main(base + ["--x-max", "1.5", "--out", str(tmp_path / "hi.csv")]) == 0
    assert len(grids) == 2
    assert grids[1].x_max == 1.5 and grids[1].x_min == grids[0].x_min
    assert grids[0].x_max != 1.5
    # a target outside the domain is a configuration error
    assert cli_main(base[:4] + ["2.5"] + base[5:] + ["--x-max", "1.5", "--out",
                                                    str(tmp_path / "t.csv")]) == 2
    assert len(grids) == 2


def test_cli_check_lemmas_and_env_override(tmp_path, monkeypatch):
    out_env = tmp_path / "envout"
    monkeypatch.setenv("HJLAB_OUT_DIR", str(out_env))
    rc = cli_main(["check-lemmas"])
    assert rc == 0
    assert (out_env / "lemma-suite.json").exists()
    # explicit flag beats the environment
    out_flag = tmp_path / "flagout"
    rc = cli_main(["check-lemmas", "--out-dir", str(out_flag)])
    assert rc == 0
    assert (out_flag / "lemma-suite.json").exists()


def test_cli_scaling_with_horizon_flag(tmp_path):
    rc = cli_main(["scaling", "--horizons", "50,100",
                   "--out-dir", str(tmp_path), "--threads", "1"])
    assert rc == 0
    data = json.loads((tmp_path / "scaling.json").read_text())
    assert [r["T"] for r in data["records"]] == [50.0, 100.0]
    assert data["fit"]["enabled"] is False   # span below the fit threshold


def test_cli_module_entrypoint():
    res = subprocess.run([sys.executable, "-m", "hjlab.cli", "--version"],
                         capture_output=True, text=True)
    assert res.returncode == 0
