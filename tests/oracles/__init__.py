"""Reference implementations the production paths are diffed against.

Nothing under ``src/`` imports these.  Each oracle is the simple,
obviously-correct version of a fast path:

* :class:`~tests.oracles.windows.AllPairsWindowExtractor` — the O(n²)
  all-pairs window scan with linear-scan trace queries, the reference
  for :class:`~repro.core.windows.WindowExtractor`'s indexed scan;
* :class:`~tests.oracles.sanitizer.LinearScanSanitizer` — the
  linear-scan ``conflicting-windows`` check, the reference for
  :class:`~repro.fuzz.sanitizer.TraceSanitizer`'s indexed endpoint
  lookup;
* :func:`reference_paths` — makes the production
  :class:`~repro.core.pipeline.Sherlock` loop extract with the all-pairs
  oracle and re-encode every round from scratch with
  :func:`~repro.core.encoder.build_model` instead of the
  :class:`~repro.core.encoder.IncrementalEncoder`.
"""

from contextlib import contextmanager
from typing import Iterator

import pytest

from .sanitizer import LinearScanSanitizer
from .windows import AllPairsWindowExtractor


@contextmanager
def reference_paths() -> Iterator[None]:
    """Run the pipeline on both reference paths inside the block.

    ``infer(store, config)`` without an encoder rebuilds the model from
    the whole store, so an encoder factory that returns ``None`` is all
    the rebuild path needs.
    """
    import repro.core.pipeline as pipeline

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "IncrementalEncoder", lambda config: None)
        patch.setattr(pipeline, "WindowExtractor", AllPairsWindowExtractor)
        yield


__all__ = [
    "AllPairsWindowExtractor",
    "LinearScanSanitizer",
    "reference_paths",
]
