"""Deterministic synthetic large-app generator (the scale tier).

The 8 paper apps yield LPs of a few hundred rows — big enough to verify
inference quality, far too small for solver asymptotics to show.  This
module synthesizes *large* applications (``App-XL1``..``App-XL3``) that
drive the existing :mod:`repro.sim` kernel purely through the program API
(:class:`~repro.sim.program.Application`, :class:`~repro.sim.methods.Method`,
the standard primitives) and produce traces whose accumulated observation
store encodes to LPs with tens of thousands of windows and well over
10⁴ variables.

Shape of a generated app (:class:`SynthSpec`):

* ``pairs`` producer/consumer thread pairs per unit test, each owning a
  private shard object with ``fields_per_pair`` fields plus one ``seq``
  handoff flag;
* per *episode*, the producer writes every shard field and (for guarded
  fields) bumps ``seq``; the consumer spin-reads ``seq`` (a flag-variable
  synchronization, §5.3.2) and then reads the field — every guarded
  field contributes one tight conflicting-access window per episode;
* a ``sync_density`` fraction of fields is guarded; the rest are written
  and read with no ordering at all, so the racy-window path (§4.3) sees
  realistic traffic too;
* episodes are separated by a sleep larger than ``Near`` so window
  counts are exact products, not interleaving accidents.

Everything is derived from the spec and the kernel seed — no wall clock,
no ambient randomness — so trace digests, golden hashes, and the trace
cache key are stable across processes (pinned by
``tests/apps/test_synth.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..sim.methods import Method
from ..sim.objects import SimObject
from ..sim.primitives import SystemThread
from ..sim.program import AppContext, Application, GroundTruth, UnitTest
from .base import GroundTruthBuilder, make_info

#: Qualified-name roots of every generated app.
_NS = "SynthXL"


@dataclass(frozen=True)
class SynthSpec:
    """Size/shape parameters of one synthetic large app.

    The generated workload is deterministic in (spec, kernel seed): the
    same spec always builds the same program, and the kernel's seeded
    scheduler is the only source of nondeterminism between runs.
    """

    app_id: str
    #: Producer/consumer thread pairs per unit test (2x this many worker
    #: threads, plus the harness thread).
    pairs: int
    #: Shared fields per pair's shard object.
    fields_per_pair: int
    #: Write→read handoff episodes per field.  Each guarded field yields
    #: one window per episode (up to the per-log window cap of 15).
    episodes: int
    #: Fraction of each shard's fields guarded by the ``seq`` flag
    #: handoff; the rest are unsynchronized (racy) traffic.
    sync_density: float = 0.85
    #: Unit tests (= trace logs) per round.
    tests: int = 2
    #: Consumer flag poll interval, seconds (simulated time).
    poll: float = 0.01
    #: Inter-episode sleep, seconds; kept above the paper's ``Near`` = 1 s
    #: so episodes never pair across each other.
    gap: float = 1.2

    def __post_init__(self) -> None:
        if self.pairs < 1 or self.fields_per_pair < 1 or self.episodes < 1:
            raise ValueError("pairs/fields_per_pair/episodes must be >= 1")
        if not (0.0 <= self.sync_density <= 1.0):
            raise ValueError("sync_density must be in [0, 1]")
        if self.tests < 1:
            raise ValueError("tests must be >= 1")

    @property
    def guarded_per_pair(self) -> int:
        """Fields per shard guarded by the flag handoff (at least one, so
        every pair has a true inferable synchronization)."""
        return max(1, round(self.fields_per_pair * self.sync_density))

    @property
    def threads(self) -> int:
        """Worker threads per unit test."""
        return 2 * self.pairs

    @property
    def approx_events_per_test(self) -> int:
        """Rough trace length (sizing aid for benchmark budgets)."""
        # Per field-episode: write + flag write/spin reads + read, each
        # framed by the kernel's internal bookkeeping.
        return self.pairs * self.fields_per_pair * self.episodes * 6

    def min_guarded_windows_per_test(self) -> int:
        """Lower bound on non-racy windows one test log contributes:
        every guarded field yields ``min(episodes, 15)`` write→read
        windows (the per-log cap), plus the flag pairs themselves."""
        per_field = min(self.episodes, 15)
        return self.pairs * self.guarded_per_pair * per_field


def _field_name(i: int) -> str:
    return f"item{i:04d}"


def _shard_class(spec: SynthSpec, p: int) -> str:
    return f"{_NS}.{spec.app_id.replace('-', '')}.Shard{p:03d}"


class _SynthContext(AppContext):
    """Per-execution state: one shard object per producer/consumer pair."""

    def __init__(self, spec: SynthSpec) -> None:
        super().__init__(SimObject(f"{_NS}.Tests", {}))
        self.spec = spec
        self.shards: List[SimObject] = []
        for p in range(spec.pairs):
            fields = {
                _field_name(i): 0 for i in range(spec.fields_per_pair)
            }
            fields["seq"] = 0
            self.shards.append(SimObject(_shard_class(spec, p), fields))


def _producer_method(spec: SynthSpec, shard: SimObject, p: int) -> Method:
    guarded = spec.guarded_per_pair

    def body(rt, obj):
        for episode in range(1, spec.episodes + 1):
            for i in range(spec.fields_per_pair):
                yield from rt.write(shard, _field_name(i), episode)
                if i < guarded:
                    # Publish: the flag write is the release the solver
                    # should infer (write(seq)^rel).
                    yield from rt.write(
                        shard, "seq", (episode - 1) * guarded + i + 1
                    )
            yield from rt.sleep(spec.gap)

    return Method(f"{_shard_class(spec, p)}::Produce", body)


def _consumer_method(spec: SynthSpec, shard: SimObject, p: int) -> Method:
    guarded = spec.guarded_per_pair

    def body(rt, obj):
        for episode in range(1, spec.episodes + 1):
            for i in range(spec.fields_per_pair):
                if i < guarded:
                    # Spin on the flag: read(seq)^acq orders the field
                    # read strictly after the matching write.
                    target = (episode - 1) * guarded + i + 1
                    while True:
                        seen = yield from rt.read(shard, "seq")
                        if seen >= target:
                            break
                        yield from rt.sleep(spec.poll)
                yield from rt.read(shard, _field_name(i))
            yield from rt.sleep(spec.gap)

    return Method(f"{_shard_class(spec, p)}::Consume", body)


def _make_test_body(spec: SynthSpec):
    def body(rt, ctx):
        threads = []
        for p, shard in enumerate(ctx.shards):
            threads.append(
                SystemThread(
                    _producer_method(spec, shard, p), name=f"prod{p:03d}"
                )
            )
            threads.append(
                SystemThread(
                    _consumer_method(spec, shard, p), name=f"cons{p:03d}"
                )
            )
        for t in threads:
            yield from t.start(rt)
        for t in threads:
            yield from t.join(rt)

    return body


def _ground_truth(spec: SynthSpec) -> GroundTruth:
    from ..sim.primitives.tasks import THREAD_JOIN_API, THREAD_START_API

    gt = GroundTruthBuilder()
    gt.api_release(THREAD_START_API, "fork_join", "thread start")
    gt.api_acquire(THREAD_JOIN_API, "fork_join", "thread join")
    for p in range(spec.pairs):
        cls = _shard_class(spec, p)
        gt.flag(f"{cls}::seq", "per-pair handoff flag")
        gt.protect_many(
            [
                f"{cls}::{_field_name(i)}"
                for i in range(spec.guarded_per_pair)
            ],
            f"{cls}::seq",
        )
        for i in range(spec.guarded_per_pair, spec.fields_per_pair):
            gt.racy_field(f"{cls}::{_field_name(i)}")
    return gt.build()


def build_synth_app(spec: SynthSpec) -> Application:
    """Build one synthetic large application from its spec."""
    body = _make_test_body(spec)
    tests = [
        UnitTest(f"{_NS}.Tests::Pipeline_{t:02d}", body)
        for t in range(spec.tests)
    ]
    loc = spec.pairs * spec.fields_per_pair * spec.episodes
    return Application(
        info=make_info(
            spec.app_id,
            f"Synthetic-{spec.app_id}",
            f"{loc // 1000}K" if loc >= 1000 else str(loc),
            0,
            spec.tests,
        ),
        make_context=lambda rt, _spec=spec: _SynthContext(_spec),
        tests=tests,
        ground_truth=_ground_truth(spec),
    )


#: The registered scale tier.  XL1 is the smallest config that clears
#: the floor of ~10,000 coverage windows and ~10,000 LP variables over a
#: standard 3-round x ``tests``-log accumulation; XL2/XL3 scale the LP
#: further, sized so the dense-tableau test oracle still fits in memory
#: on them (its tableau is O(rows x columns) dense memory).
SCALE_SPECS = {
    "App-XL1": SynthSpec(
        app_id="App-XL1", pairs=8, fields_per_pair=24, episodes=10
    ),
    "App-XL2": SynthSpec(
        app_id="App-XL2", pairs=10, fields_per_pair=26, episodes=11
    ),
    "App-XL3": SynthSpec(
        app_id="App-XL3", pairs=12, fields_per_pair=30, episodes=12
    ),
}


def scale_app_ids() -> List[str]:
    """Registered synthetic scale-tier app ids, smallest first."""
    return list(SCALE_SPECS)


def build_app_xl1() -> Application:
    return build_synth_app(SCALE_SPECS["App-XL1"])


def build_app_xl2() -> Application:
    return build_synth_app(SCALE_SPECS["App-XL2"])


def build_app_xl3() -> Application:
    return build_synth_app(SCALE_SPECS["App-XL3"])


__all__ = [
    "SCALE_SPECS",
    "SynthSpec",
    "build_synth_app",
    "build_app_xl1",
    "build_app_xl2",
    "build_app_xl3",
    "scale_app_ids",
]
