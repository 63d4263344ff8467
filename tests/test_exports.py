import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys

import hjlab


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


_HEAVY_SCIPY = ("scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.linalg",
                "scipy.ndimage", "scipy.stats", "scipy.interpolate")

_IMPORT_BUDGET_CHILD = f"""
import json, sys
import hjlab, hjlab.cli, hjlab.experiments, hjlab.reports
loaded = [m for m in {_HEAVY_SCIPY!r} if m in sys.modules]
special = "scipy.special" in sys.modules
c = hjlab.PaceCurve(K=1.3, T=1e4, beta=2.0)
s = 0.1 * c.T
print(json.dumps({{"loaded": loaded, "special": special,
                  "value": [c.value(s), c.value_quad(s)],
                  "energy": [c.energy_closed(s), c.energy_quad(s)],
                  "integrate_after": "scipy.integrate" in sys.modules}}))
"""


def test_import_budget_excludes_heavy_scipy():
    """Importing the package and its CLI, experiment and report modules in a
    fresh interpreter loads numpy and scipy.special but none of the heavier
    scipy subpackages: scipy.integrate (which pulls in optimize, sparse and
    linalg) is imported only by the PaceCurve quadrature oracles, which still
    agree with the closed forms once it is."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(hjlab.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", _IMPORT_BUDGET_CHILD], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    res = json.loads(out.stdout.splitlines()[-1])
    assert res["loaded"] == []
    assert res["special"]
    assert res["integrate_after"]
    exact, quad = res["value"]
    assert abs(exact - quad) <= 1e-9 * abs(exact)
    closed, quad = res["energy"]
    assert abs(closed - quad) <= 1e-8 * abs(closed)
