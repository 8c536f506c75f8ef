"""The benchmark's workloads, by name.

Each module defines ``NAME``, ``WHY``, a :class:`Workload` subclass and
``ready(seed)``, the set-up a user pays before the first result: it
returns a teardown callable.  Importing a workload module imports
``repro``, so call :func:`perfbench.common.use_checkout_sources` first.
"""

from __future__ import annotations

import importlib
from types import ModuleType

#: Workload name -> module, in the order ``--workload all`` runs them.
MODULES = {
    "heat1d-virtual": "perfbench.workloads.heat1d_virtual",
    "jacobi2d-shared": "perfbench.workloads.jacobi2d_shared",
    "parcels-mp": "perfbench.workloads.parcels_mp",
    "jobs-service": "perfbench.workloads.jobs_service",
}


def load(name: str) -> ModuleType:
    return importlib.import_module(MODULES[name])
