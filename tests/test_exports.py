import argparse
import ast
import dataclasses
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys

import pytest

import hjlab
from hjlab.cli import build_parser
from hjlab.cli import main as cli_main
from hjlab.experiments import EXPERIMENTS, ExperimentConfig


def test_every_export_resolves():
    """Each hjlab module's __all__ names only attributes it has, and a star
    import of the package works, so a deleted function cannot leave a
    dangling export behind."""
    names = ["hjlab"] + [f"hjlab.{m.name}" for m in pkgutil.iter_modules(hjlab.__path__)]
    checked = 0
    for name in names:
        mod = importlib.import_module(name)
        for attr in getattr(mod, "__all__", ()):
            assert hasattr(mod, attr), f"{name}.__all__ names missing {attr!r}"
            checked += 1
    assert checked > 50
    ns = {}
    exec("from hjlab import *", ns)
    assert "solve_dp" in ns and "PaceCurve" in ns


def _hjlab_imports(module: str) -> set:
    """The hjlab modules that hjlab.<module> imports anywhere in its source."""
    path = os.path.join(os.path.dirname(hjlab.__file__), module + ".py")
    with open(path) as f:
        tree = ast.parse(f.read())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                base = node.module
            elif (node.module or "").startswith("hjlab."):
                base = node.module[len("hjlab."):]
            elif node.module == "hjlab":
                base = None
            else:
                continue
            found |= {base} if base else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            found |= {a.name[len("hjlab."):] for a in node.names
                      if a.name.startswith("hjlab.")}
    return found


def test_module_layering():
    """core sits at the bottom; potentials and minimizer build only on it,
    and laxoleinik only on core and minimizer, so the numerical layers never
    reach up into the potential constructors or the experiments."""
    assert _hjlab_imports("core") == set()
    assert _hjlab_imports("potentials") == {"core"}
    assert _hjlab_imports("minimizer") == {"core"}
    assert _hjlab_imports("laxoleinik") == {"core", "minimizer"}


def test_every_public_name_has_a_reader():
    """Each public top-level function and class of the numerical layers is
    read somewhere: by name in src/ outside its own definition, or in
    perfbench/ (string mentions count, since some workloads look their
    callee up with getattr).  Code only the tests call belongs in
    tests/oracles.py.  ``bump`` is the one exception: the scalar reference
    the in-place bump kernels are compared against bit for bit."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.abspath(hjlab.__file__))
    trees = {}
    for name in os.listdir(src):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as f:
                trees[name[:-3]] = ast.parse(f.read())
    bench = ""
    for name in sorted(os.listdir(os.path.join(root, "perfbench"))):
        if name.endswith(".py"):
            with open(os.path.join(root, "perfbench", name)) as f:
                bench += f.read()
    unread = []
    for module in ("core", "potentials", "minimizer", "laxoleinik"):
        for node in trees[module].body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_") or node.name == "bump"):
                continue
            own = {id(n) for n in ast.walk(node)}
            read = any(isinstance(n, ast.Name) and n.id == node.name
                       and isinstance(n.ctx, ast.Load)
                       and not (mod == module and id(n) in own)
                       for mod, tree in trees.items() for n in ast.walk(tree))
            if not read and not re.search(rf"\b{node.name}\b", bench):
                unread.append(f"{module}.{node.name}")
    assert unread == []


_HEAVY_SCIPY = ("scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.linalg",
                "scipy.ndimage", "scipy.stats", "scipy.interpolate")

_IMPORT_BUDGET_CHILD = f"""
import json, sys
import hjlab, hjlab.cli, hjlab.experiments, hjlab.reports
from hjlab.experiments import ExperimentConfig
from hjlab.minimizer import GridSpec
from hjlab.potentials import accelerating_potential

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

res = {{"after_import": scipy_loaded()}}
accelerating_potential(y=0.0, t1=0.0, t2=50.0, K=0.63, C=1.0, beta=2.0)
GridSpec(x_min=-10.0, x_max=1.0, dx=0.1, t1=0.0, t2=50.0, dt=0.1, v_max=4.0)
ExperimentConfig(kind="scaling")
res["after_inputs"] = scipy_loaded()
c = hjlab.PaceCurve(K=1.3, T=1e4, beta=2.0)
s = 0.1 * c.T
res["value"] = c.value(s)
res["special"] = "scipy.special" in sys.modules
res["heavy"] = [m for m in {_HEAVY_SCIPY!r} if m in sys.modules]
from oracles import pace_value_quad
res["quad"] = pace_value_quad(c, s)
res["energy"] = [c.energy_closed(s), c.energy_quad(s)]
print(json.dumps(res))
"""


def test_import_budget_excludes_heavy_scipy():
    """Importing the package and its CLI, experiment and report modules in a
    fresh interpreter loads no scipy module, and neither does building
    perfbench's set-up inputs (an accelerating field, a grid, a scaling
    config).  The first pace-curve evaluation loads scipy.special and none
    of the heavier subpackages; its incomplete-gamma closed form, and the
    energy's, still agree with quadrature."""
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(hjlab.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src, here, env.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", _IMPORT_BUDGET_CHILD], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    res = json.loads(out.stdout.splitlines()[-1])
    assert res["after_import"] == []
    assert res["after_inputs"] == []
    assert res["special"]
    assert res["heavy"] == []
    exact, quad = res["value"], res["quad"]
    assert abs(exact - quad) <= 1e-9 * abs(exact)
    closed, quad = res["energy"]
    assert abs(closed - quad) <= 1e-8 * abs(closed)


def _module_scope(node):
    """The nodes that run when a module is imported: all but function bodies."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child
            yield from _module_scope(child)


def test_no_module_scope_scipy_import():
    """No hjlab module imports scipy or a scipy submodule at module scope
    (class bodies and if/try blocks included), so the import budget above
    cannot regress unseen; scipy is imported inside the functions that use
    it."""
    pkg = os.path.dirname(os.path.abspath(hjlab.__file__))
    found = []
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(pkg, name)) as f:
            tree = ast.parse(f.read(), filename=name)
        for node in _module_scope(tree):
            if isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                mods = [node.module]
            else:
                continue
            if any(m == "scipy" or m.startswith("scipy.") for m in mods):
                found.append(f"src/hjlab/{name}:{node.lineno}")
    assert found == []


def _readme() -> str:
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                        "README.md")
    with open(path) as f:
        return f.read()


def test_readme_documents_every_command():
    """README's "Command line" block shows one `hjlab <cmd>` line per
    subcommand, in the parser's order, so a new command cannot ship
    undocumented."""
    block = _readme().split("## Command line", 1)[1].split("```")[1]
    documented = re.findall(r"^hjlab (\S+)", block, re.MULTILINE)
    assert documented == list(_subparsers())


def test_readme_config_keys_read_by_match_experiments():
    """The "read by" column of README's config-file table names, for each
    key, the commands whose EXPERIMENTS row reads it ("all" for the five);
    `kind` and `out_dir` go to every command."""
    block = _readme().split("### Config file", 1)[1].split("\n\n", 3)[2]
    rows = re.findall(r"^\| `(\w+)` \| [^|]* \| ([^|]*) \|", block, re.MULTILINE)
    commands = {e.command for e in EXPERIMENTS.values()}
    documented = {key: commands if cell.strip() == "all"
                  else set(re.findall(r"`([\w-]+)`", cell)) for key, cell in rows}
    expected = {f.name: {e.command for e in EXPERIMENTS.values() if f.name in e.reads}
                for f in dataclasses.fields(ExperimentConfig)}
    expected.update(kind=commands, out_dir=commands)
    assert documented == expected


_RUN_FLAGS = {"--potential", "--t1", "--t2", "--dt", "--v-max", "--out"}
_CLI_FLAGS = {
    "potential": {"--config", "--out", "--kind", "--beta", "--C", "--K", "--t1",
                  "--t2", "--y", "--level", "--period", "--seed", "--epsilon",
                  "--Tbar", "--n-max", "--cap", "--correlation-time", "--t-min",
                  "--t-max", "--modulation"},
    "minimize": _RUN_FLAGS | {"--x", "--dx", "--x-min", "--x-max"},
    "kernel": _RUN_FLAGS | {"--dx", "--x-min", "--x-max"},
    "evolve": _RUN_FLAGS | {"--initial"},
    "scaling": {"--config", "--out-dir", "--horizons"},
    "periodic-control": {"--config", "--out-dir", "--horizons"},
    "glued-demo": {"--config", "--out-dir"},
    "check-lemmas": {"--config", "--out-dir"},
    "conjecture-probe": {"--config", "--out-dir", "--horizons", "--seeds"},
}


def _subparsers() -> dict:
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_cli_surface_is_pinned():
    """Each subcommand declares only the flags its handler reads, 60 in all."""
    surface = {name: {o for a in sp._actions for o in a.option_strings} - {"-h", "--help"}
               for name, sp in _subparsers().items()}
    assert surface == _CLI_FLAGS
    assert sum(map(len, surface.values())) == 60


def test_config_surface_is_pinned():
    """ExperimentConfig holds the model's parameters and the potential under
    study, 11 fields, and the EXPERIMENTS rows read 21 of them in all, so a
    new config knob is a deliberate edit here."""
    assert [f.name for f in dataclasses.fields(ExperimentConfig)] == [
        "kind", "beta", "C", "horizons", "seeds", "glue_Tbar", "glue_n_max",
        "period", "wavenumber", "modulation", "correlation_time"]
    reads = {kind: len(e.reads) for kind, e in EXPERIMENTS.items()}
    assert reads == {"scaling": 3, "periodic-control": 6, "glued-demo": 4,
                     "lemma-suite": 3, "conjecture-probe": 5}
    assert sum(reads.values()) == 21


# a valid command line for each subcommand (parsed, never run)
_VALID_ARGV = {
    "minimize": ["--potential", "p", "--t1", "0", "--t2", "1", "--dt", "0.1",
                 "--out", "o", "--x", "0", "--dx", "0.1"],
    "kernel": ["--potential", "p", "--t1", "0", "--t2", "1", "--dt", "0.1",
               "--out", "o", "--x-min", "0", "--x-max", "1", "--dx", "0.1"],
    "evolve": ["--potential", "p", "--t1", "0", "--t2", "1", "--out", "o",
               "--initial", "s"],
}
_UNREAD = ["--config", "--out-dir", "--profile"]
# the 23 flags these commands used to accept without reading them
_REMOVED = {"potential": ["--out-dir", "--profile"],
            "minimize": _UNREAD + ["--refine-passes"],
            "kernel": _UNREAD,
            "evolve": _UNREAD,
            "scaling": ["--profile", "--seeds"],
            "periodic-control": ["--profile", "--seeds"],
            "glued-demo": ["--profile", "--horizons", "--seeds"],
            "check-lemmas": ["--profile", "--horizons", "--seeds"],
            "conjecture-probe": ["--profile"]}


@pytest.mark.parametrize("cmd, flag", [(cmd, flag) for cmd, flags in _REMOVED.items()
                                       for flag in flags])
def test_cli_removed_flag_is_usage_error(cmd, flag, capsys):
    """A removed flag, --profile and minimize's --refine-passes among them, is
    an argparse usage error (exit 2) on an otherwise valid command line."""
    argv = [cmd] + _VALID_ARGV.get(cmd, [])
    build_parser().parse_args(argv)
    assert cli_main(argv + [flag, "1"]) == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


def test_readme_documents_every_config_key():
    """README's config-file table lists the fields of ExperimentConfig, in
    order, then the CLI-level `out_dir`, so a new knob cannot ship
    undocumented."""
    block = _readme().split("### Config file", 1)[1].split("\n\n", 3)[2]
    documented = re.findall(r"^\| `(\w+)` \|", block, re.MULTILINE)
    fields = [f.name for f in dataclasses.fields(ExperimentConfig)]
    assert documented == fields + ["out_dir"]
