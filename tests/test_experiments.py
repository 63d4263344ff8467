import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from hjlab import reports
from hjlab.cli import main as cli_main
from hjlab.core import ModelParams
from hjlab.experiments import (DX_MAX, EXPERIMENTS, MARGIN, N_TARGETS,
                               RT_FRACTION, ExperimentConfig, HorizonRecord,
                               ScalingReport, _horizon_record, edge_grid,
                               run_conjecture_probe, run_glued_demo,
                               run_lemma_suite, run_scaling)
from hjlab.laxoleinik import GridFunction, gridfunction_to_csv
from hjlab.minimizer import DomainError, GridSpec, velocity_bound_lower
from hjlab.potentials import (accelerating_potential, glued_potential,
                              glued_schedule)
from hjlab.reports import canonical_json, emit, report_csv, report_svg


def _report_digest(report) -> dict:
    """SHA-256 of a report's canonical JSON and its CSV."""
    text = canonical_json(report.to_dict())
    return {"json": hashlib.sha256(text.encode()).hexdigest(),
            "csv": hashlib.sha256(report_csv(report).encode()).hexdigest()}


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(kind="nope")
    with pytest.raises(ValueError):
        ExperimentConfig(kind="scaling", horizons=[2.0, 50.0])   # T <= e
    with pytest.raises(ValueError):
        ExperimentConfig(kind="scaling", horizons=[50.0, 20.0])
    with pytest.raises(ValueError, match="strictly increasing"):
        ExperimentConfig(kind="scaling", horizons=[50.0, 50.0])
    for k in (0.0, -0.0, math.inf, -math.inf, math.nan):   # halo 4 pi / |k|
        with pytest.raises(ValueError, match="wavenumber"):
            ExperimentConfig(kind="periodic-control", wavenumber=k)
    # a value is checked only where the kind's runner reads its field
    ExperimentConfig(kind="scaling", seeds=[1, 1], wavenumber=0.0)


def test_csv_columns_are_record_fields():
    # report_csv writes "" for a missing key, so a column left behind by a
    # deleted HorizonRecord field would pass unnoticed
    fields = {f.name for f in dataclasses.fields(HorizonRecord)}
    assert set(reports._CSV_COLUMNS) <= fields


def test_path_on_grid_edge_fails_the_run():
    # on x >= -30 the minimizers of this instance are clipped at the left
    # edge; measured anyway they give speeds 3.633, 3.432, 3.209, which are
    # not the unbounded line's answer
    T = 50.0
    U = accelerating_potential(0.0, 0.0, T, math.sqrt(2.0 / 5.0), 1.0, 2.0)
    grid = GridSpec(-30.0, 2.0, 0.05, 0.0, T, 0.25, 6.0)
    with pytest.raises(DomainError, match="grid edge"):
        _horizon_record(ExperimentConfig(), T, U, grid, np.array([-0.5, 0.0, 0.5]), 0.5)


def test_lemma_suite_passes(lemma_report):
    assert lemma_report.flags["all_passed"]
    assert lemma_report.flags["checks"] >= 60


def test_hard_flags_are_report_flags(scaling_report, periodic_report,
                                     glued_report, lemma_report):
    # a misspelt hard flag reads None, prints "skipped" forever and never
    # fails a run
    reports = {r.kind: r for r in (scaling_report, periodic_report,
                                   glued_report, lemma_report)}
    for kind, experiment in EXPERIMENTS.items():
        if experiment.hard_flags:
            assert set(experiment.hard_flags) <= set(reports[kind].flags), kind


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
    # no minimizer reached a grid edge: _horizon_record would have raised


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
    # a one-stage glued field is the accelerating field on [-T1, 0]: the same
    # edge grid rides the same edge and measures the same record
    cfg = ExperimentConfig(kind="scaling")
    lb = velocity_bound_lower(50.0, cfg.params)
    glued = glued_potential(glued_schedule(0.25, 50.0, lb.K2, 1.0, 2.0, 1))
    accel = accelerating_potential(0.0, -50.0, 0.0, lb.K2, 1.0, 2.0)
    x_targets = np.linspace(-lb.R_T / 2.0, lb.R_T / 2.0, N_TARGETS)
    dx = min(DX_MAX, lb.R_T / RT_FRACTION)
    x_hi = float(max(x_targets.max() + 2 * dx, lb.R_T))
    grids = [edge_grid(cfg, U, -50.0, 0.0, 50.0, dx, x_hi, MARGIN)
             for U in (glued, accel)]
    assert grids[0].x_min == grids[1].x_min
    assert np.array_equal(grids[0].window.lo, grids[1].window.lo)
    assert np.array_equal(grids[0].window.hi, grids[1].window.hi)
    recs = [_horizon_record(cfg, 50.0, U, g, x_targets, 0.5).to_dict()
            for U, g in zip((glued, accel), grids)]
    assert recs[0] == recs[1]
    assert min(recs[0]["speeds"]) > 3.0


def test_conjecture_probe_deterministic():
    cfg = ExperimentConfig(kind="conjecture-probe", horizons=[20.0, 50.0],
                           seeds=[1, 2, 3, 4, 5])
    r1 = run_conjecture_probe(cfg)
    r2 = run_conjecture_probe(cfg)
    assert canonical_json(r1.to_dict()) == canonical_json(r2.to_dict())
    # pinned bytes of the probe's horizon records (see test_scaling_golden_digest)
    assert _report_digest(r1) == {
        "json": "4ded5d0bb908a692660e2170e706e1e613d76b6e40560eb8437ac9d30d8663af",
        "csv": "298ffa067bc736352ca781b67ecdd4f2efa477e52f2f0edc4bca21dba191d2ed"}
    with pytest.raises(ValueError):
        run_conjecture_probe(ExperimentConfig(kind="conjecture-probe",
                                              horizons=[20.0, 50.0],
                                              seeds=[1, 2]))


def test_emit_round_trip_and_formats(scaling_report, tmp_path):
    paths = emit(scaling_report, out_dir=str(tmp_path))
    with open(paths["json"]) as f:
        loaded = json.load(f)
    assert loaded == json.loads(canonical_json(scaling_report.to_dict()))

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
    # the profile peaks at x = 0 with value 1 and the scale is C = 1, so the
    # modulation (1 + a) / 2 is U(0, t)
    m = float(U.value(0.0, 0.0))
    assert np.allclose(frozen, prof.value(xs) * m, atol=1e-9)


def test_scaling_golden_digest():
    """A one-horizon CI-profile scaling run reproduces pinned bytes, so any
    drift in DP values, offset tie-breaks, refined positions or report
    fields across commits shows here (determinism tests only compare reruns
    of one build).  The digests were recorded with numpy 2.4 / scipy 1.17 on
    x86-64; another libm or numpy build may round the pow, log and
    incomplete-gamma calls differently and would need its own pin."""
    report = run_scaling(ExperimentConfig(kind="scaling", horizons=[50.0]))
    assert _report_digest(report) == {
        "json": "32bc8e7ec84490e6266d0fe2aa96f232c568d6128bf248c8cb6eb5150ac3c3e2",
        "csv": "39c3c5b8250c2dd44291eba44afd967f69e5102008d5636633868d514d735be8"}


def test_scaling_ci_golden_digest(scaling_report):
    """Pinned bytes of the full CI-profile scaling run (T = 50, 200, 1000).
    Only the longer horizons reach slices wider than the DP's scan width
    (windows up to 6 657 nodes at T = 1000) and refine's largest arrays;
    same platform caveat as test_scaling_golden_digest."""
    assert _report_digest(scaling_report) == {
        "json": "b4b47c53bc3a5d375b5af5a87588d6d2047b60ccdf459cc2553fa2fbaa6a03ba",
        "csv": "f363bf4e4fbfb17148dbb0df6d43ba1fadb6a66a99da78620d37ee8c7480ded6"}


def test_periodic_golden_digest(periodic_report):
    """Pinned CI-profile periodic-control bytes (horizon records and the
    operator suite); same platform caveat as test_scaling_golden_digest."""
    assert _report_digest(periodic_report) == {
        "json": "0a3513c2504b5f59fac6367c101ece6fadd27294c83ee9471c4103bc67c5fa71",
        "csv": "9b2e9918764cc826ae055db69b39e6563a3a0c7e58bc36291ab7b9ff1d46b235"}


def test_glued_golden_digest(glued_report):
    """Pinned CI-profile glued-demo bytes (per-stage records, continuity
    note); same platform caveat as test_scaling_golden_digest."""
    assert _report_digest(glued_report) == {
        "json": "f0487ea117259dcd07b5dcdccadaf6cbb4ae305ee8885c30d14349efa2188745",
        "csv": "cb5615e6ebcb4bb6aba02883cdb4d63306c386552ec6a48470d3804c52c38f4c"}


def test_lemma_suite_emit_deterministic(tmp_path):
    cfg = ExperimentConfig(kind="lemma-suite")
    r1 = run_lemma_suite(cfg)
    r2 = run_lemma_suite(cfg)
    p1 = emit(r1, out_dir=str(tmp_path / "x1"))
    p2 = emit(r2, out_dir=str(tmp_path / "x2"))
    assert open(p1["json"], "rb").read() == open(p2["json"], "rb").read()
    assert open(p1["csv"], "rb").read() == open(p2["csv"], "rb").read()


_FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)}


class _ReadLog(ExperimentConfig):
    """An ExperimentConfig that records each field read from it once its
    `log` set exists (construction and validation read every field); the
    reads of to_dict() go to `dict_log` instead."""

    def __getattribute__(self, name):
        log = object.__getattribute__(self, "__dict__").get("log")
        if log is not None and name in _FIELDS:
            log.add(name)
        return object.__getattribute__(self, name)

    def to_dict(self):
        outer, self.log = self.log, set()
        try:
            return super().to_dict()
        finally:
            self.dict_log, self.log = self.log, outer


# each kind at its smallest settings
_SMALLEST = {"scaling": {"horizons": [50.0]},
             "periodic-control": {"horizons": [5.0, 10.0]},
             "glued-demo": {"glue_n_max": 1},
             "lemma-suite": {},
             "conjecture-probe": {"horizons": [5.0, 10.0]}}


@pytest.mark.parametrize("kind", list(EXPERIMENTS))
def test_runner_reads_exactly_its_row(kind):
    """Each runner reads kind and exactly the fields its EXPERIMENTS row
    declares, and so does config.to_dict(), whose result, the report's
    config, holds exactly those."""
    cfg = _ReadLog(kind=kind, **_SMALLEST[kind])
    cfg.log = set()
    report = EXPERIMENTS[kind].run(cfg)
    reads = {"kind", *EXPERIMENTS[kind].reads}
    assert cfg.log == reads
    assert cfg.dict_log == reads
    assert set(report.config) == reads


def test_unread_config_field_leaves_report_bytes(lemma_report):
    """Two lemma-suite configs that differ only in fields it does not read
    give byte-identical JSON, also where the value would be refused in a
    field the kind reads (wavenumber 0, a repeated seed)."""
    for unread in ({"seeds": [9, 8, 7, 6, 5], "period": 3.0, "wavenumber": 2.0,
                    "horizons": [50.0]},
                   {"wavenumber": 0.0, "seeds": [1, 1]}):
        other = run_lemma_suite(ExperimentConfig(kind="lemma-suite", **unread))
        assert canonical_json(other.to_dict()) == canonical_json(lemma_report.to_dict())


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


def test_cli_potential_rejects_nan_period(tmp_path, capsys):
    out = tmp_path / "pot.json"
    assert cli_main(["potential", "--kind", "periodic", "--period", "nan",
                     "--out", str(out)]) == 2
    assert "period must be > 0, got nan" in capsys.readouterr().err
    assert not out.exists()


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


def test_cli_deleted_config_key_exit_2(tmp_path, capsys):
    """The grid policy is fixed in hjlab.experiments: a config file that sets
    one of its former keys, even to the constant's own value, or the deleted
    `profile` (the large run is `--horizons 50,200,1000,10000`), is a
    configuration error that names the key, and no report is written."""
    deleted = {"dx_max": 0.025, "rt_fraction": 40, "v_cap_factor": 4.0,
               "detach_cap_factor": 4.0, "refine_passes": 8, "n_targets": 5,
               "s_window_max": 0.5, "glue_cap": 600.0, "glue_epsilon": 0.25,
               "n_profiles": 3, "periodic_targets": [0.5, 1.5, 2.5],
               "profile": "large", "stencil": 30, "margin": 10.0}
    cfgfile = tmp_path / "old.json"
    for key, value in deleted.items():
        cfgfile.write_text(json.dumps({key: value}))
        out = tmp_path / key
        assert cli_main(["scaling", "--horizons", "50", "--config", str(cfgfile),
                         "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and repr(key) in err
        assert not out.exists()


def _no_run(cfg):
    raise AssertionError("run_experiment must not run")


def test_cli_unread_config_key_exit_2(tmp_path, monkeypatch, capsys):
    """A config-file key the command's runner does not read, even at its
    default value, is a configuration error that names the key, before any
    work; and check-lemmas on {"seeds": ..., "period": 3.0} writes no
    report."""
    import hjlab.cli

    cfgfile = tmp_path / "unread.json"
    cfgfile.write_text(json.dumps({"seeds": [9, 8, 7, 6, 5], "period": 3.0}))
    out = tmp_path / "lemmas"
    assert cli_main(["check-lemmas", "--config", str(cfgfile),
                     "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert "'period'" in err and "'seeds'" in err
    assert not out.exists()

    monkeypatch.setattr(hjlab.cli, "run_experiment", _no_run)
    defaults = dataclasses.asdict(ExperimentConfig())
    checked = 0
    for kind, e in EXPERIMENTS.items():
        for key in sorted(_FIELDS - {"kind"} - set(e.reads)):
            cfgfile.write_text(json.dumps({key: defaults[key]}))
            out = tmp_path / kind / key
            assert cli_main([e.command, "--config", str(cfgfile),
                             "--out-dir", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("configuration error:") and repr(key) in err
            assert not out.exists()
            checked += 1
    assert checked == 50 - 21


def test_cli_repeated_seeds_exit_2(tmp_path, monkeypatch, capsys):
    """A seed listed twice is a configuration error, as a repeated horizon
    is: the probe would solve it twice and count it as two of its five."""
    import hjlab.cli

    with pytest.raises(ValueError, match="seeds must be distinct"):
        ExperimentConfig(kind="conjecture-probe", seeds=[1, 1, 2, 3, 4, 5])
    monkeypatch.setattr(hjlab.cli, "run_experiment", _no_run)
    assert cli_main(["conjecture-probe", "--horizons", "20,50", "--seeds",
                     "1,1,2,3,4", "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: seeds must be distinct")
    assert not (tmp_path / "conjecture-probe.json").exists()


@pytest.mark.parametrize("cmd", ["scaling", "periodic-control", "conjecture-probe"])
def test_cli_empty_horizons_exit_2(tmp_path, monkeypatch, capsys, cmd):
    """An empty horizons list is a configuration error that names the key,
    before any work: scaling would write an empty report, periodic-control
    index its missing first horizon and the probe take max() of nothing."""
    import hjlab.cli

    monkeypatch.setattr(hjlab.cli, "run_experiment", _no_run)
    cfgfile = tmp_path / "empty.json"
    cfgfile.write_text(json.dumps({"horizons": []}))
    out = tmp_path / "out"
    assert cli_main([cmd, "--config", str(cfgfile), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == "configuration error: horizons must not be empty\n"
    assert not out.exists()


@pytest.mark.parametrize("cmd, flag, value", [
    ("scaling", "--horizons", ""),
    ("scaling", "--horizons", "50,,200"),
    ("conjecture-probe", "--seeds", "1,,2"),
])
def test_cli_malformed_list_flag_exit_2(tmp_path, monkeypatch, capsys, cmd, flag, value):
    """Every value of a list flag is parsed: an empty flag is not taken as
    absent (which would run the default horizons) and an empty item is a
    configuration error that names the flag, before any work."""
    import hjlab.cli

    monkeypatch.setattr(hjlab.cli, "run_experiment", _no_run)
    out = tmp_path / "out"
    assert cli_main([cmd, flag, value, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {flag} must be a comma-separated")
    assert not out.exists()


@pytest.mark.parametrize("cmd, text", [
    ("scaling", "[1]"),                          # not a JSON object
    ("check-lemmas", '{"out_dir": 5}'),         # failed in emit, after the run
    ("potential", "[1]"),
    ("potential", '{"potential": 5}'),
])
def test_cli_malformed_config_exit_2(tmp_path, monkeypatch, capsys, cmd, text):
    """A config file that is not a JSON object, or whose out_dir or potential
    has the wrong type, is a one-line configuration error before any work."""
    import hjlab.cli

    monkeypatch.setattr(hjlab.cli, "run_experiment", _no_run)
    monkeypatch.delenv("HJLAB_OUT_DIR", raising=False)
    cfgfile = tmp_path / "bad.json"
    cfgfile.write_text(text)
    assert cli_main([cmd, "--config", str(cfgfile)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1


@pytest.mark.parametrize("cmd, key, value", [
    ("check-lemmas", "beta", "2"),
    ("scaling", "C", True),
    ("scaling", "beta", None),
    ("glued-demo", "glue_n_max", 2.5),
    ("periodic-control", "modulation", 5),
    ("scaling", "horizons", 50),
    ("scaling", "horizons", ["50", "200"]),
    ("conjecture-probe", "seeds", 5),
    ("conjecture-probe", "seeds", [1, 2, 3, 4, "5"]),
])
def test_cli_config_value_of_wrong_type_exit_2(tmp_path, monkeypatch, capsys,
                                               cmd, key, value):
    """A config value without its field's type (a string or a bool where a
    number goes, a non-list horizons or seeds) is a configuration error that
    names the key, raised by ExperimentConfig before the experiment runs."""
    import hjlab.cli

    with pytest.raises(ValueError, match=repr(key)):
        ExperimentConfig(**{key: value})
    monkeypatch.setattr(hjlab.cli, "run_experiment", _no_run)
    cfgfile = tmp_path / "typed.json"
    cfgfile.write_text(json.dumps({key: value}))
    assert cli_main([cmd, "--config", str(cfgfile), "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and repr(key) in err
    assert err.count("\n") == 1


def test_cli_uncapped_schedule_exit_2(tmp_path, capsys):
    """An uncapped glued schedule past the feasible horizon is a one-line
    configuration error, from `hjlab potential` and from a hand-written spec
    that minimize, kernel and evolve load."""
    flags = ["--kind", "glued", "--epsilon", "0.25", "--Tbar", "5", "--K", "0.6",
             "--C", "1", "--beta", "2", "--n-max", "3"]
    out = tmp_path / "pot.json"
    assert cli_main(["potential"] + flags + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "supply a cap" in err
    assert err.count("\n") == 1 and not out.exists()

    pot = tmp_path / "hand.json"
    pot.write_text(json.dumps({"kind": "glued", "beta": 2.0, "C": 1.0, "K": 0.6,
                               "epsilon": 0.25, "Tbar": 5.0, "n_max": 3}))
    initial = tmp_path / "s.csv"
    initial.write_text(gridfunction_to_csv(GridFunction(np.linspace(0.0, 2.0, 9),
                                                        np.zeros(9))))
    extra = {"minimize": ["--x", "1", "--dx", "0.25", "--dt", "0.125"],
             "kernel": ["--x-min", "0", "--x-max", "2", "--dx", "0.25",
                        "--dt", "0.125"],
             "evolve": ["--initial", str(initial)]}
    for cmd, args in extra.items():
        assert cli_main([cmd, "--potential", str(pot), "--t1", "0", "--t2", "1",
                         "--out", str(out)] + args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: cannot load potential {pot}")
        assert "supply a cap" in err and err.count("\n") == 1
        assert not out.exists()


def test_cli_zero_wavenumber_exit_2(tmp_path, capsys):
    # the periodic halo divides by the wavenumber
    cfgfile = tmp_path / "k0.json"
    cfgfile.write_text(json.dumps({"wavenumber": 0}))
    assert cli_main(["periodic-control", "--horizons", "20,40", "--config",
                     str(cfgfile), "--out-dir", str(tmp_path)]) == 2
    assert "wavenumber must be finite and nonzero, got 0" in capsys.readouterr().err
    assert not (tmp_path / "periodic-control.json").exists()


def test_cli_negative_wavenumber_runs_as_positive(tmp_path, capsys):
    # cos is even, so k = -1 gives the field, the halo and the report of k = 1
    reports_by_k = {}
    for k in (1.0, -1.0):
        cfgfile = tmp_path / f"k{k}.json"
        cfgfile.write_text(json.dumps({"wavenumber": k}))
        out = tmp_path / f"out{k}"
        rc = cli_main(["periodic-control", "--horizons", "20,40", "--config",
                       str(cfgfile), "--out-dir", str(out)])
        assert rc in (0, 1)               # flags may fail on two short horizons
        reports_by_k[k] = (rc, json.loads((out / "periodic-control.json").read_text()))
    assert "configuration error" not in capsys.readouterr().err
    (rc_pos, pos), (rc_neg, neg) = reports_by_k[1.0], reports_by_k[-1.0]
    assert rc_neg == rc_pos
    assert neg["config"]["wavenumber"] == -1.0
    for key in ("records", "flags", "notes"):
        assert neg[key] == pos[key]


def test_cli_kernel_exit_codes(tmp_path, monkeypatch, capsys):
    """`hjlab kernel`: a NaN initial value or an over-budget kernel is a
    configuration error (exit 2), a NaN potential value a failed run (exit 1)."""
    import hjlab.cli
    import hjlab.laxoleinik
    from hjlab.core import PotentialField

    pot = tmp_path / "z.json"
    cli_main(["potential", "--kind", "zero", "--beta", "2.0", "--out", str(pot)])
    args = ["kernel", "--potential", str(pot), "--t1", "0", "--t2", "1",
            "--x-min", "0", "--x-max", "2", "--dx", "0.25", "--dt", "0.125",
            "--v-max", "6", "--out", str(tmp_path / "k.csv")]
    capsys.readouterr()
    fine = list(args)
    fine[fine.index("--dx") + 1] = "0.0002"                     # 10001 nodes
    assert cli_main(fine) == 2
    assert "budget" in capsys.readouterr().err

    sweep = hjlab.laxoleinik.solve_dp_batched

    def nan_start(U, g, S0, p):
        S0 = S0.copy()
        S0[1, 0] = np.nan
        return sweep(U, g, S0, p)

    monkeypatch.setattr(hjlab.laxoleinik, "solve_dp_batched", nan_start)
    assert cli_main(args) == 2
    assert "is not a number" in capsys.readouterr().err
    monkeypatch.setattr(hjlab.laxoleinik, "solve_dp_batched", sweep)

    nan_field = PotentialField(lambda ts, deriv: lambda x: (
        0.0 * x if deriv else np.where(ts > 0.5, np.nan, 0.0 * x)), bound=1.0)
    monkeypatch.setattr(hjlab.cli, "_load_model",
                        lambda path: (nan_field, ModelParams(beta=2.0, C=1.0)))
    assert cli_main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("run failed:") and "NaN source value at slice 5" in err


def test_cli_kernel_nan_constant_level_exit_2(tmp_path, capsys):
    # json.load accepts NaN; the spec's own level check must name it
    pot = tmp_path / "c.json"
    pot.write_text('{"kind": "constant", "beta": 2.0, "level": NaN}')
    assert cli_main(["kernel", "--potential", str(pot), "--t1", "0", "--t2", "1",
                     "--x-min", "0", "--x-max", "2", "--dx", "0.25", "--dt", "0.125",
                     "--out", str(tmp_path / "k.csv")]) == 2
    err = capsys.readouterr().err
    assert "constant potential level must be >= 0, got nan" in err
    assert "C must be" not in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cmd", ["minimize", "kernel", "evolve"])
def test_cli_empty_interval_exit_2(tmp_path, capsys, cmd):
    # the default speed caps of kernel and evolve divide by t2 - t1
    pot = tmp_path / "z.json"
    cli_main(["potential", "--kind", "zero", "--beta", "2.0", "--out", str(pot)])
    initial = tmp_path / "s.csv"
    initial.write_text(gridfunction_to_csv(GridFunction(np.linspace(0.0, 2.0, 9),
                                                        np.zeros(9))))
    out = tmp_path / "out.csv"
    extra = {"minimize": ["--x", "1", "--dx", "0.25", "--dt", "0.125"],
             "kernel": ["--x-min", "0", "--x-max", "2", "--dx", "0.25",
                        "--dt", "0.125"],
             "evolve": ["--initial", str(initial)]}[cmd]
    capsys.readouterr()
    assert cli_main([cmd, "--potential", str(pot), "--t1", "1", "--t2", "1",
                     "--out", str(out)] + extra) == 2
    assert capsys.readouterr().err == "configuration error: need t2 > t1\n"
    assert not out.exists()


def test_cli_failed_runs_exit_1(tmp_path, monkeypatch, capsys):
    # WindowTouchError: the glued demo windows with MARGIN as given, and at
    # 0.05 its final slice starts above the lowest target (-0.25)
    import hjlab.experiments

    monkeypatch.setattr(hjlab.experiments, "MARGIN", 0.05)
    assert cli_main(["glued-demo", "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("run failed:") and "window edge" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_glued_targets_and_grid_share_the_pace_horizon(monkeypatch):
    """A top stage shorter than e is paced at one floored T_pace: the
    targets span +-R_T/2 of the T_pace that edge_grid receives."""
    import hjlab.experiments

    paces = []

    def spy(cfg, U, t1, t2, T_pace, *rest):
        paces.append(T_pace)
        return edge_grid(cfg, U, t1, t2, T_pace, *rest)

    monkeypatch.setattr(hjlab.experiments, "edge_grid", spy)
    cfg = ExperimentConfig(kind="glued-demo", glue_Tbar=2.0, glue_n_max=1)
    (rec,) = run_glued_demo(cfg).records
    assert rec["extra"]["T_stage"] == 2.0 and paces == [3.0]
    assert max(rec["targets"]) == velocity_bound_lower(3.0, cfg.params).R_T / 2.0


@pytest.mark.parametrize("Tbar", [2, 4])
def test_cli_glued_demo_short_first_stage(tmp_path, capsys, Tbar):
    """At the default stencil a first stage of 2 or 4 time units has a grid
    step (0.5, 0.444) above T_1 / 10; the speed window is floored at that
    step instead of failing the run with exit 2."""
    cfg_path = tmp_path / "glued.json"
    cfg_path.write_text(json.dumps({"glue_Tbar": Tbar, "glue_n_max": 1}))
    rc = cli_main(["glued-demo", "--config", str(cfg_path),
                   "--out-dir", str(tmp_path)])
    assert rc == 0, capsys.readouterr().err
    (rec,) = json.loads((tmp_path / "glued-demo.json").read_text())["records"]
    assert rec["s_window"] == rec["dt"] > Tbar / 10.0


@pytest.mark.parametrize("cmd", ["periodic-control", "conjecture-probe"])
def test_cli_short_horizons_floor_the_speed_window(tmp_path, capsys, cmd):
    """At T = 5 the speed window T / 20 = 0.25 is shorter than one time step
    (0.263 periodic, 0.5 probe); it is floored at that step, as a short
    first glued stage's is, instead of failing the run with exit 2."""
    rc = cli_main([cmd, "--horizons", "5,10", "--out-dir", str(tmp_path)])
    assert rc == 0, capsys.readouterr().err
    (kind,) = [k for k, e in EXPERIMENTS.items() if e.command == cmd]
    records = json.loads((tmp_path / f"{kind}.json").read_text())["records"]
    short = [r for r in records if r["T"] == 5.0]
    assert short and all(r["s_window"] == r["dt"] > 0.25 for r in short)


def test_cli_periodic_single_horizon_skips_comparisons(tmp_path, capsys):
    """ratio_within_10pct and no_monotone_growth compare horizons: on one
    horizon both are None, print "skipped" and fail nothing, as scaling's
    fit_in_range does below three horizons."""
    rc = cli_main(["periodic-control", "--horizons", "100", "--out-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    flags = json.loads((tmp_path / "periodic-control.json").read_text())["flags"]
    for name in ("ratio_within_10pct", "no_monotone_growth"):
        assert flags[name] is None
        assert f"[periodic-control] {name}: skipped" in out


def test_cli_probe_single_horizon_skips_plateau(tmp_path, capsys):
    """The plateau statistic compares horizons: on one horizon it is None
    and the note says so, rather than v(T) / v(T) = 1.0 for every seed."""
    rc = cli_main(["conjecture-probe", "--horizons", "5", "--out-dir", str(tmp_path)])
    assert rc == 0, capsys.readouterr().err
    report = json.loads((tmp_path / "conjecture-probe.json").read_text())
    assert report["flags"]["plateau_statistic"] is None
    assert report["notes"] == ["exploratory probe: no pass/fail; plateau "
                               "statistic skipped: it needs two horizons"]


def test_scaling_first_margin_holds_lowest_target(monkeypatch):
    """At T = 60 the final slice starts near -margin and the lowest target
    is -R_T/2 = -0.65.  A MARGIN of 0.1 is raised at once to hold that
    target plus the bump's ramp (2) and two cells (2 DX_MAX), and the
    speeds equal those of the default MARGIN = 10 run within grid_slack."""
    import hjlab.experiments

    margins = []

    def spy(cfg, U, t1, t2, T_pace, dx, x_hi, margin):
        margins.append(margin)
        return edge_grid(cfg, U, t1, t2, T_pace, dx, x_hi, margin)

    monkeypatch.setattr(hjlab.experiments, "edge_grid", spy)
    recs = {}
    cfg = ExperimentConfig(kind="scaling", horizons=[60.0])
    for margin in (0.1, 10.0):
        monkeypatch.setattr(hjlab.experiments, "MARGIN", margin)
        (recs[margin],) = run_scaling(cfg).records
    R_T = velocity_bound_lower(60.0, cfg.params).R_T
    assert margins == [pytest.approx(R_T / 2.0 + 2.0 + 2.0 * DX_MAX), 10.0]
    sized, wide = recs[0.1], recs[10.0]
    assert min(sized["targets"]) < -0.6
    assert all(abs(a - b) <= wide["grid_slack"]
               for a, b in zip(sized["speeds"], wide["speeds"]))


def test_horizon_refine_shares_the_trunk(monkeypatch):
    """_horizon_record refines its five paths in one call that evaluates
    fewer potential points than five refines of the same paths."""
    import hjlab.experiments
    import hjlab.minimizer

    def counting(U):
        points = [0]

        def slice_fn(ts, deriv):
            f = U.slice_fn(ts, deriv)

            def counted(x):
                points[0] += np.size(x)
                return f(x)
            return counted

        return dataclasses.replace(U, slice_fn=slice_fn), points

    calls = []

    def spy(paths, U, p, **kw):
        Uc, points = counting(U)
        out = hjlab.minimizer.refine(paths, Uc, p, **kw)
        calls.append((paths, U, p, kw, points[0]))
        return out

    monkeypatch.setattr(hjlab.experiments, "refine", spy)
    run_scaling(ExperimentConfig(kind="scaling", horizons=[20.0]))
    ((paths, U, p, kw, batched),) = calls
    assert len(paths) == N_TARGETS
    separate = 0
    for path in paths:
        Uc, points = counting(U)
        hjlab.minimizer.refine(path, Uc, p, **kw)
        separate += points[0]
    assert batched < separate


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


def test_cli_minimize_clipped_path_fails(tmp_path, capsys):
    # the periodic well nearest x = 1.5 lies at 0: on the default domain
    # [-18.5, 21.5] the path rests there, on [1, 2] it sits on the edge x = 1
    pot = tmp_path / "p.json"
    cli_main(["potential", "--kind", "periodic", "--beta", "2.0", "--C", "1.0",
              "--period", "1.0", "--modulation", "constant", "--out", str(pot)])
    base = ["minimize", "--potential", str(pot), "--x", "1.5", "--t1", "0",
            "--t2", "10", "--dx", "0.05", "--dt", "0.1", "--v-max", "4"]
    free = tmp_path / "free.csv"
    assert cli_main(base + ["--out", str(free)]) == 0
    xs = [float(row.split(",")[1]) for row in free.read_text().splitlines()[1:]]
    assert min(xs) < 0.1
    out = tmp_path / "clipped.csv"
    assert cli_main(base + ["--x-min", "1", "--x-max", "2", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("run failed:") and "grid edge x=1.0" in err
    assert not out.exists()


def test_cli_check_lemmas_and_env_override(tmp_path, monkeypatch):
    out_file = tmp_path / "fileout"
    cfgfile = tmp_path / "out.json"
    cfgfile.write_text(json.dumps({"out_dir": str(out_file)}))
    monkeypatch.delenv("HJLAB_OUT_DIR", raising=False)
    assert cli_main(["check-lemmas", "--config", str(cfgfile)]) == 0
    # the environment beats the config file
    out_env = tmp_path / "envout"
    monkeypatch.setenv("HJLAB_OUT_DIR", str(out_env))
    rc = cli_main(["check-lemmas", "--config", str(cfgfile)])
    assert rc == 0
    # explicit flag beats the environment
    out_flag = tmp_path / "flagout"
    rc = cli_main(["check-lemmas", "--out-dir", str(out_flag)])
    assert rc == 0
    # where a report is written is not part of it: one config, three
    # directories, identical bytes
    written = [(d / "lemma-suite.json").read_bytes()
               for d in (out_file, out_env, out_flag)]
    assert written[0] == written[1] == written[2]
    assert "out_dir" not in json.loads(written[0])["config"]


def test_cli_scaling_with_horizon_flag(tmp_path, capsys):
    rc = cli_main(["scaling", "--horizons", "50,100", "--out-dir", str(tmp_path)])
    assert rc == 0
    data = json.loads((tmp_path / "scaling.json").read_text())
    assert [r["T"] for r in data["records"]] == [50.0, 100.0]
    assert data["fit"]["enabled"] is False   # span below the fit threshold
    # a flag that is None was not evaluated: it neither passes nor fails
    assert "[scaling] fit_in_range: skipped\n" in capsys.readouterr().out


def test_cli_module_entrypoint():
    import hjlab

    # the child imports hjlab from wherever this process did (pytest's
    # pythonpath setting does not reach subprocesses)
    src = os.path.dirname(os.path.dirname(os.path.abspath(hjlab.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-m", "hjlab.cli", "--version"],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0
