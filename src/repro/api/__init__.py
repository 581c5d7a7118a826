"""The ``repro serve`` control plane: schemas, HTTP app, and runtime.

One shared :mod:`repro.api.schemas` module defines every JSON payload
(the CLI's ``--json`` outputs serialize through it too);
:mod:`repro.api.service` owns the long-lived cluster and admission
queue; :mod:`repro.api.app` routes HTTP requests to it through the
synchronous router in :mod:`repro.api.web`, whose ``App.handle`` is
called in-process by :mod:`repro.api.testclient` and over real sockets
by :mod:`repro.api.server`, the one stdlib HTTP server.

Heavy members are imported lazily so ``from repro.api import schemas``
(the CLI's only hard need) never drags in the service stack.
"""

from __future__ import annotations

from typing import Any

from repro.api import schemas

__all__ = ["schemas", "create_app", "ServeConfig", "ServeRuntime",
           "TestClient"]

_LAZY = {
    "create_app": ("repro.api.app", "create_app"),
    "ServeConfig": ("repro.api.service", "ServeConfig"),
    "ServeRuntime": ("repro.api.service", "ServeRuntime"),
    "TestClient": ("repro.api.testclient", "TestClient"),
}


def __getattr__(name: str) -> Any:
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}") from None
    import importlib
    return getattr(importlib.import_module(module_name), attr)
