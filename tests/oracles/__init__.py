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
* :class:`~tests.oracles.encoder.ReferenceEncoder` — the historical
  rebuild-from-scratch LP construction
  (:func:`~tests.oracles.encoder.build_model`) solved through the dense
  lowering (:func:`~tests.oracles.encoder.dense_standard_form`), the
  reference for :class:`~repro.core.encoder.IncrementalEncoder`,
  :func:`~repro.core.encoder.build_model` and the sparse
  :meth:`~repro.lp.Model.to_standard_form`;
* :func:`~tests.oracles.simplex.solve_simplex` — the dense two-phase
  tableau simplex, the reference for the sparse revised simplex
  (:func:`~repro.lp.revised.solve_revised`);
  :func:`dense_tableau_backend` registers it as the ``"dense-tableau"``
  LP backend for whole pipeline runs;
* :class:`~tests.oracles.kernel.ScanKernel` — the scheduler loop that
  scans every thread on every step, the reference for
  :class:`~repro.sim.kernel.Kernel`'s runnable list, sleeper heap and
  once-decided deferral check;
* :func:`reference_paths` — makes the production
  :class:`~repro.core.pipeline.Sherlock` loop extract with the all-pairs
  oracle, and every production ``infer`` (each pipeline round, one-off
  solves, the λ-stability oracle's probes) re-encode the whole store
  with the reference construction and lower it densely.
"""

from contextlib import contextmanager
from typing import Iterator

import pytest

from .encoder import ReferenceEncoder, dense_standard_form
from .encoder import build_model as reference_build_model
from .kernel import ScanKernel
from .sanitizer import LinearScanSanitizer
from .simplex import solve_simplex
from .windows import AllPairsWindowExtractor


@contextmanager
def reference_paths() -> Iterator[None]:
    """Run the pipeline on the reference paths inside the block.

    The pipeline gets :class:`ReferenceEncoder`, which rebuilds on every
    encode; ``infer`` without an encoder gets the reference
    :func:`~tests.oracles.encoder.build_model`; and every model lowers
    through :func:`~tests.oracles.encoder.dense_standard_form`.
    """
    import repro.core.pipeline as pipeline
    import repro.core.solver as solver
    from repro.lp import Model

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "IncrementalEncoder", ReferenceEncoder)
        patch.setattr(solver, "build_model", reference_build_model)
        patch.setattr(Model, "to_standard_form", dense_standard_form)
        patch.setattr(pipeline, "WindowExtractor", AllPairsWindowExtractor)
        yield


@contextmanager
def dense_tableau_backend() -> Iterator[None]:
    """Register :func:`solve_simplex` as the ``"dense-tableau"`` LP
    backend inside the block, so ``SherlockConfig(backend=
    "dense-tableau")`` validates and every solve dispatches to it."""
    import repro.lp.backends as backends

    production = backends._registry

    def registry():
        return dict(production(), **{"dense-tableau": solve_simplex})

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(backends, "_registry", registry)
        yield


__all__ = [
    "AllPairsWindowExtractor",
    "LinearScanSanitizer",
    "ReferenceEncoder",
    "ScanKernel",
    "dense_tableau_backend",
    "reference_paths",
    "solve_simplex",
]
