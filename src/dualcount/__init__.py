"""dualcount: exact counting of SU(2)-subgroup homomorphisms into compact Lie groups."""

import importlib.util
import sys

from .errors import NotCoveredError

__all__ = ["NotCoveredError"]

__version__ = "0.1.0"

# A command compiles only the modules it runs.  Each module of LAZY is
# registered here, in sys.modules and as a package attribute, with a
# LazyLoader, so its body runs when a command first reads one of its
# attributes.  Every module imports its dualcount dependencies at its top,
# each module of LAZY as `from . import name` and never as `from .name import
# x`, which would run its body; no function imports a dualcount module.  So a
# count runs none of these, except that a cyclic group into PSp or Spin runs
# `lattice` and Ohat into PSp or Spin runs `refined`.
LAZY = ("affine", "chartable", "cyclotomic", "lattice", "mckay", "refined",
        "series", "suites")


def _register_lazy(names) -> None:
    for name in names:
        fullname = f"{__name__}.{name}"
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        globals()[name] = module
        spec.loader.exec_module(module)


_register_lazy(LAZY)
