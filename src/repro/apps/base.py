"""Shared machinery for the benchmark applications.

Each app module builds an :class:`~repro.sim.program.Application` that
mirrors one of the paper's 8 C# projects: same synchronization idioms
(Tables 8/9), same misclassification sources (planted data races, hidden
methods), plus realistic noise (logging/metrics calls) that makes the
inference non-trivial.

Design rules distilled from the paper's evaluation (and validated by the
end-to-end tests):

* critical sections guarding the same lock must be *heterogeneous* —
  different first/last fields per code path — so only the lock APIs cover
  every window;
* threads do "work" (sleeps) between synchronization episodes, keeping
  locks mostly uncontended like real unit tests;
* blocking joins and contended acquires are fine — the spanning-call rule
  and delay refinement recover them;
* flag variables spin with a poll interval.
"""

from __future__ import annotations


from ..sim.methods import Method
from ..sim.program import (
    AppInfo,
    GroundTruth,
    KIND_API,
    KIND_METHOD,
    KIND_VARIABLE,
)
from ..trace.optypes import Role, begin_of, end_of, read_of, write_of

__all__ = [
    "GroundTruthBuilder",
    "KIND_API",
    "KIND_METHOD",
    "KIND_VARIABLE",
    "make_info",
    "noise_call",
]


def make_info(
    app_id: str, name: str, loc: str, stars: int, tests: int
) -> AppInfo:
    return AppInfo(app_id, name, loc, stars, tests)


def noise_call(rt, qname: str, obj=None, work: int = 1):
    """A cheap utility call (logging/metrics style): pure noise to the
    inference.  Returns a generator to ``yield from``."""
    method = Method(qname, lambda rt_, o: iter(_noise_body(rt_, work)))
    return rt.call(method, obj)


def _noise_body(rt_, work: int):
    for _ in range(work):
        yield from rt_.sched_yield()


class GroundTruthBuilder:
    """Fluent helper for declaring an app's ground truth."""

    def __init__(self) -> None:
        self.gt = GroundTruth()

    # -- true synchronizations ------------------------------------------------

    def api_pair(
        self,
        release_name: str,
        acquire_name: str,
        subcategory: str,
        description: str = "",
    ) -> "GroundTruthBuilder":
        """A system-API release/acquire pair: end(release) + begin(acquire)."""
        self.gt.add_sync(
            end_of(release_name), Role.RELEASE, KIND_API, subcategory,
            description,
        )
        self.gt.add_sync(
            begin_of(acquire_name), Role.ACQUIRE, KIND_API, subcategory,
            description,
        )
        return self

    def api_release(self, name: str, subcategory: str, desc: str = ""):
        self.gt.add_sync(end_of(name), Role.RELEASE, KIND_API, subcategory, desc)
        return self

    def api_acquire(self, name: str, subcategory: str, desc: str = ""):
        self.gt.add_sync(begin_of(name), Role.ACQUIRE, KIND_API, subcategory, desc)
        return self

    def method_release(self, name: str, subcategory: str, desc: str = ""):
        self.gt.add_sync(
            end_of(name), Role.RELEASE, KIND_METHOD, subcategory, desc
        )
        return self

    def method_acquire(self, name: str, subcategory: str, desc: str = ""):
        self.gt.add_sync(
            begin_of(name), Role.ACQUIRE, KIND_METHOD, subcategory, desc
        )
        return self

    def flag(self, field_qname: str, desc: str = "", volatile: bool = True):
        """A flag variable: write releases, read acquires."""
        self.gt.add_sync(
            write_of(field_qname), Role.RELEASE, KIND_VARIABLE, "flag", desc
        )
        self.gt.add_sync(
            read_of(field_qname), Role.ACQUIRE, KIND_VARIABLE, "flag", desc
        )
        if volatile:
            self.gt.volatile_fields.add(field_qname)
        return self

    # -- misclassification sources -----------------------------------------------

    def racy_field(self, field_qname: str) -> "GroundTruthBuilder":
        self.gt.racy_fields.add(field_qname)
        return self

    def hidden_method(self, qname: str) -> "GroundTruthBuilder":
        """A genuine sync method the instrumentation heuristic skips."""
        self.gt.hidden_sync_methods.add(qname)
        return self

    def protect(self, field_qname: str, sync_name: str):
        """Record which sync protects a field (Table 4 attribution)."""
        self.gt.protected_by[field_qname] = sync_name
        return self

    def protect_many(self, field_qnames, sync_name: str):
        for qname in field_qnames:
            self.gt.protected_by[qname] = sync_name
        return self

    def build(self) -> GroundTruth:
        return self.gt
