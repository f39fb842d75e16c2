"""Sync-over-async bridge.

The pipeline is asyncio-native (:meth:`repro.core.pipeline.Sherlock.arun`);
the public API stays synchronous.  :func:`_run_sync` is the one bridge
between the two worlds: it runs a coroutine to completion from plain
synchronous code, with or without an event loop already running in the
calling thread, and propagates exceptions unchanged.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Coroutine, Optional, TypeVar

T = TypeVar("T")


def running_loop() -> Optional[asyncio.AbstractEventLoop]:
    """The calling thread's running event loop, or ``None``."""
    try:
        return asyncio.get_running_loop()
    except RuntimeError:
        return None


def _run_sync(coro: "Coroutine[Any, Any, T]") -> T:
    """Run ``coro`` to completion and return its result, synchronously.

    Without a running loop in the calling thread this is plain
    ``asyncio.run``.  *With* one (a sync façade called from inside an
    async framework), the coroutine cannot run on the caller's loop —
    awaiting it would require the caller to yield — so it runs on a
    private loop in a short-lived helper thread and the caller blocks on
    the result.  Either way the coroutine's return value comes back and
    its exceptions propagate to the caller unchanged.
    """
    if running_loop() is None:
        return asyncio.run(coro)
    with ThreadPoolExecutor(
        max_workers=1, thread_name_prefix="repro-run-sync"
    ) as pool:
        return pool.submit(asyncio.run, coro).result()


__all__ = ["_run_sync", "running_loop"]
