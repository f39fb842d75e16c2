"""The linear-scan window-conflict check: the reference for the indexed
endpoint lookup.

:class:`LinearScanSanitizer` is production's
:class:`~repro.fuzz.sanitizer.TraceSanitizer` with the historical
``conflicting-windows`` check: each window's endpoints are re-derived by
scanning the whole log for the ``a`` endpoint and, for every hit, the
whole log again for ``b``.  Every other invariant is production's,
unchanged.  The differential tests hold the production check to exactly
these violations.
"""

from typing import List, Optional, Tuple

from repro.core.windows import Window, WindowExtractor
from repro.fuzz.sanitizer import TraceSanitizer, Violation
from repro.trace.events import TraceEvent
from repro.trace.log import TraceLog


class LinearScanSanitizer(TraceSanitizer):
    """Window endpoints found by rescanning the log (the reference path)."""

    def _check_windows(self, log: TraceLog) -> List[Violation]:
        out: List[Violation] = []
        extractor = WindowExtractor(
            near=self.near, window_cap=self.window_cap
        )
        for window in extractor.extract(log):
            violation = self._verify_window_conflict(log, window)
            if violation is not None:
                out.append(violation)
        return out

    def _verify_window_conflict(
        self, log: TraceLog, window: Window
    ) -> Optional[Violation]:
        """Independently re-derive the endpoints and check they conflict."""
        a_ref, b_ref = window.pair_key
        label = f"window ({a_ref.display()}, {b_ref.display()})"
        candidates: List[Tuple[TraceEvent, TraceEvent]] = [
            (a, b)
            for a in log
            if a.ref == a_ref and abs(a.timestamp - window.a_time) < 1e-12
            for b in log
            if b.ref == b_ref and abs(b.timestamp - window.b_time) < 1e-12
        ]
        if not candidates:
            return Violation(
                "conflicting-windows",
                f"{label} endpoints not found in trace at "
                f"({window.a_time}, {window.b_time})",
            )
        for a, b in candidates:
            writes = self._writes(a) or self._writes(b)
            if (
                a.thread_id != b.thread_id
                and a.address == b.address
                and writes
                and b.timestamp - a.timestamp <= self.near + 1e-9
            ):
                return None
        return Violation(
            "conflicting-windows",
            f"{label} endpoints do not genuinely conflict "
            f"(threads/address/write capability/Near check failed)",
        )
