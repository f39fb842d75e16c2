"""Pool-failure semantics of the execution engine.

Regression for the pool-poisoning bug: a *task-level* exception (one
payload raising) used to be swallowed by the serial fallback and mark the
pool broken for the rest of the process.  Only pool-level failures
(``BrokenProcessPool``, ``OSError``) may trigger the fallback; task
exceptions propagate and the pool stays healthy.
"""

import pytest

from repro.runtime import ExecutionRuntime


def _double(x):
    return 2 * x


def _boom(x):
    if x == 2:
        raise ValueError(f"payload {x} failed")
    return x


class _ExplodingPool:
    """Stands in for a pool whose workers died (pool-level failure)."""

    def map(self, fn, payloads):
        raise OSError("worker processes are gone")

    def shutdown(self, wait=True):
        pass


class TestTaskExceptions:
    def test_task_exception_propagates(self):
        with ExecutionRuntime(engine="process:2") as runtime:
            with pytest.raises(ValueError, match="payload 2 failed"):
                runtime.map_jobs(_boom, [1, 2, 3])

    def test_task_exception_does_not_poison_pool(self):
        with ExecutionRuntime(engine="process:2") as runtime:
            with pytest.raises(ValueError):
                runtime.map_jobs(_boom, [1, 2, 3])
            assert not runtime.engine._pool_broken
            # The pool still serves parallel work afterwards.
            assert runtime.map_jobs(_double, [1, 2, 3]) == [2, 4, 6]

    def test_task_exception_emits_no_warning(self):
        import warnings

        with ExecutionRuntime(engine="process:2") as runtime:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError):
                    runtime.map_jobs(_boom, [1, 2, 3])


class TestPoolFailures:
    def test_pool_failure_falls_back_to_serial(self):
        runtime = ExecutionRuntime(engine="process:2")
        runtime.engine._pool = _ExplodingPool()
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            result = runtime.map_jobs(_double, [1, 2, 3])
        assert result == [2, 4, 6]
        assert runtime.engine._pool_broken
        runtime.close()

    def test_broken_pool_stays_serial(self):
        runtime = ExecutionRuntime(engine="process:2")
        runtime.engine._pool = _ExplodingPool()
        with pytest.warns(RuntimeWarning):
            runtime.map_jobs(_double, [1, 2])
        # No new pool is spun up once broken.
        assert runtime.map_jobs(_double, [4, 5]) == [8, 10]
        assert runtime.engine._pool is None
        runtime.close()
