"""``HappensBeforeSpec.is_acquire_event`` against its set-based formula.

The EXIT join of an acquire method is a membership test of
``OpRef(name, ENTER)`` in ``acquires``; the historical formula built the
set of acquire-method names on every EXIT.  Both must agree on every
event of every registered app's run.
"""

import pytest

from repro.apps.registry import app_ids, family_app_ids, get_application
from repro.racedet import HappensBeforeSpec, manual_spec
from repro.sim.runner import RunOptions, run_application
from repro.trace.optypes import OpRef, OpType


def _set_based_is_acquire_event(spec, event):
    if spec.is_acquire(event.ref):
        return True
    names = {ref.name for ref in spec.acquires if ref.optype is OpType.ENTER}
    return event.optype is OpType.EXIT and event.name in names


def _rich_spec(app, events):
    """The manual spec plus every role kind drawn from the run itself:
    half the observed methods acquire at ENTER (and join at EXIT), the
    rest release at EXIT and are collective; every other field is
    volatile; one method is a static initializer."""
    spec = manual_spec(app)
    spec.name = "rich"
    methods = sorted({e.name for e in events if not e.is_memory})
    fields = sorted({e.name for e in events if e.is_memory})
    for name in methods[::2]:
        spec.acquires.add(OpRef(name, OpType.ENTER))
    for name in methods[1::2]:
        spec.releases.add(OpRef(name, OpType.EXIT))
        spec.collective_releases.add(name)
    spec.volatile_fields.update(fields[::2])
    spec.static_init_methods.update(methods[:1])
    return spec


@pytest.mark.parametrize("app_id", app_ids() + family_app_ids())
def test_is_acquire_event_matches_set_based_formula(app_id):
    app = get_application(app_id)
    events = [
        e
        for execution in run_application(app, RunOptions(seed=0, run_id=0))
        for e in execution.log
    ]
    for spec in (manual_spec(app), _rich_spec(app, events)):
        exit_joins = 0
        for e in events:
            expected = _set_based_is_acquire_event(spec, e)
            assert spec.is_acquire_event(e) == expected, e
            exit_joins += expected and e.optype is OpType.EXIT
        assert exit_joins > 0, spec.name


def test_acquire_method_names_still_lists_enter_acquires():
    spec = HappensBeforeSpec(acquires={
        OpRef("C::Wait", OpType.ENTER),
        OpRef("C::Take", OpType.EXIT),
        OpRef("C::flag", OpType.READ),
    })
    assert spec.acquire_method_names() == {"C::Wait"}
