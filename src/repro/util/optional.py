"""Optional third-party packages, imported where they run.

numpy, scipy and networkx are optional.  scipy's HiGHS MILP backs the
exact solvers and the EPTAS window IP, networkx the Figure 5 flow
network, and numpy the PCG64 draws of :func:`repro.util.rng.make_rng`
(which has a stdlib twin).  Imported at module scope, the three cost
every ``repro`` process about a second before its first line of work,
a ``submit`` that the service answers in milliseconds included.  So no
module imports them at module scope (lint rule REP006); a caller asks
:func:`optional_import` at the point of use instead.

The first call for a package imports it inside an ``import.<name>``
obs span, so a trace shows which request paid for the import; every
later call returns the cached answer, ``None`` when the package is
missing.
"""

from __future__ import annotations

import functools
import importlib
from types import ModuleType
from typing import Optional, Tuple

__all__ = ["optional_import", "milp_modules"]


@functools.lru_cache(maxsize=None)
def optional_import(name: str) -> Optional[ModuleType]:
    """The module ``name``, imported on the first call, or ``None`` when
    it does not import."""
    from repro.obs import get_tracer

    with get_tracer().span(f"import.{name}"):
        try:
            return importlib.import_module(name)
        except ImportError:
            return None


def milp_modules() -> Optional[Tuple[ModuleType, ModuleType, ModuleType]]:
    """``(numpy, scipy.sparse, scipy.optimize)`` when HiGHS's
    ``scipy.optimize.milp`` imports, else ``None``.  Every MILP backend
    and every ``auto`` backend choice asks this one question."""
    optimize = optional_import("scipy.optimize")
    if optimize is None or not hasattr(optimize, "milp"):
        return None
    return optional_import("numpy"), optional_import("scipy.sparse"), optimize
