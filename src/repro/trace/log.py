"""Trace log container with the queries SherLock's analyses need."""

from __future__ import annotations

import json
from typing import Dict, Iterator, List, Optional, TextIO, Tuple

from .events import DelayInterval, TraceEvent
from .optypes import OpRef, OpType


class TraceLog:
    """An append-only log of :class:`TraceEvent` for one run.

    Events are appended in timestamp order.  Each stored event carries
    the log's ``run_id`` and its position as ``seq``: the kernel builds
    its events stamped already, and ``append`` re-stamps any other.  The
    log also carries the delay intervals injected during the run so the
    window refinement can check delay propagation.
    """

    def __init__(self, run_id: int = 0) -> None:
        self.run_id = run_id
        self.events: List[TraceEvent] = []
        self.delays: List[DelayInterval] = []

    # -- building ------------------------------------------------------------

    def append(self, event: TraceEvent) -> TraceEvent:
        """Store ``event`` as the next entry and return the stored event:
        ``event`` itself when its ``seq`` and ``run_id`` already match,
        else a copy carrying them."""
        seq = len(self.events)
        if event.seq != seq or event.run_id != self.run_id:
            event = TraceEvent(
                timestamp=event.timestamp,
                thread_id=event.thread_id,
                optype=event.optype,
                name=event.name,
                address=event.address,
                run_id=self.run_id,
                seq=seq,
                local_time=event.local_time,
                meta=event.meta,
            )
        self.events.append(event)
        return event

    def add_delay(self, delay: DelayInterval) -> None:
        self.delays.append(delay)

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __getitem__(self, idx: int) -> TraceEvent:
        return self.events[idx]

    @property
    def duration(self) -> float:
        if not self.events:
            return 0.0
        return self.events[-1].timestamp - self.events[0].timestamp

    def threads(self) -> Tuple[int, ...]:
        return tuple(sorted({e.thread_id for e in self.events}))

    def memory_events(self) -> List[TraceEvent]:
        return [e for e in self.events if e.is_memory]

    def events_of(self, ref: OpRef) -> List[TraceEvent]:
        return [
            e
            for e in self.events
            if e.name == ref.name and e.optype is ref.optype
        ]

    def between(
        self,
        t_start: float,
        t_end: float,
        thread_id: Optional[int] = None,
    ) -> List[TraceEvent]:
        """Events with ``t_start < t < t_end`` (exclusive), optionally
        restricted to one thread."""
        out = []
        for e in self.events:
            if e.timestamp <= t_start:
                continue
            if e.timestamp >= t_end:
                break
            if thread_id is None or e.thread_id == thread_id:
                out.append(e)
        return out

    def method_durations(self) -> Dict[str, List[float]]:
        """Per-method call durations, matching ENTER/EXIT per thread.

        Uses a per-thread stack, so nested and recursive calls pair up.
        Used by the Acquisition-Time-Mostly-Varies hypothesis.
        """
        stacks: Dict[Tuple[int, str], List[float]] = {}
        durations: Dict[str, List[float]] = {}
        for e in self.events:
            clock = e.local_time if e.local_time >= 0 else e.timestamp
            if e.optype is OpType.ENTER:
                stacks.setdefault((e.thread_id, e.name), []).append(clock)
            elif e.optype is OpType.EXIT:
                stack = stacks.get((e.thread_id, e.name))
                if stack:
                    start = stack.pop()
                    durations.setdefault(e.name, []).append(clock - start)
        return durations

    # -- serialization ---------------------------------------------------------

    def dump_jsonl(self, fp: TextIO) -> None:
        header = {
            "run_id": self.run_id,
            "delays": [
                {
                    "tid": d.thread_id,
                    "start": d.start,
                    "end": d.end,
                    "name": d.site.name,
                    "op": d.site.optype.value,
                }
                for d in self.delays
            ],
        }
        fp.write(json.dumps({"__header__": header}) + "\n")
        for event in self.events:
            fp.write(json.dumps(event.to_dict()) + "\n")

    @staticmethod
    def load_jsonl(fp: TextIO) -> "TraceLog":
        log = TraceLog()
        for line in fp:
            line = line.strip()
            if not line:
                continue
            data = json.loads(line)
            if "__header__" in data:
                header = data["__header__"]
                log.run_id = int(header.get("run_id", 0))
                for d in header.get("delays", []):
                    log.add_delay(
                        DelayInterval(
                            thread_id=int(d["tid"]),
                            start=float(d["start"]),
                            end=float(d["end"]),
                            site=OpRef(d["name"], OpType(d["op"])),
                            run_id=log.run_id,
                        )
                    )
            else:
                log.events.append(TraceEvent.from_dict(data))
        return log

    def __repr__(self) -> str:
        return (
            f"TraceLog(run={self.run_id}, events={len(self.events)}, "
            f"threads={len(self.threads())}, delays={len(self.delays)})"
        )


__all__ = ["TraceLog"]
