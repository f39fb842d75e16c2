"""Shared helpers for the experiment regenerators.

All tables and figures run applications through one shared
:class:`~repro.runtime.engine.ExecutionRuntime`, so an ``--engine``/
``--cache`` choice made once (e.g. on the CLI) parallelizes and memoizes
every regenerator, and sweeps that reuse a ``(app, seed, delay plan)``
combination never re-execute its traces.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ...apps.registry import all_applications, get_application
from ...core import Sherlock, SherlockConfig, SherlockReport
from ...runtime import ExecutionRuntime
from ...sim.program import Application

#: Runtime shared by every regenerator when the caller doesn't pass one.
_default_runtime: Optional[ExecutionRuntime] = None


def set_default_runtime(runtime: Optional[ExecutionRuntime]) -> None:
    """Install (or clear) the runtime the regenerators share."""
    global _default_runtime
    _default_runtime = runtime


def default_runtime() -> ExecutionRuntime:
    """The shared runtime, creating a serial cache-less one on demand."""
    global _default_runtime
    if _default_runtime is None:
        _default_runtime = ExecutionRuntime()
    return _default_runtime


def select_apps(app_ids: Optional[Iterable[str]] = None) -> List[Application]:
    """Fresh application instances (all 8 by default)."""
    if app_ids is None:
        return all_applications()
    return [get_application(app_id) for app_id in app_ids]


def run_all(
    apps: List[Application],
    config: Optional[SherlockConfig] = None,
    runtime: Optional[ExecutionRuntime] = None,
) -> Dict[str, SherlockReport]:
    """Run the SherLock pipeline on every app with one config."""
    config = config or SherlockConfig()
    runtime = runtime or default_runtime()
    return {
        app.app_id: Sherlock(app, config, runtime=runtime).run()
        for app in apps
    }


__all__ = [
    "default_runtime",
    "run_all",
    "select_apps",
    "set_default_runtime",
]
