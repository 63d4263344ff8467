import importlib
import pkgutil

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
