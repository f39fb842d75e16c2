"""SherLock core: unsupervised synchronization-operation inference.

The paper's primary contribution: the Observer (window extraction over
instrumented traces), the Solver (LP encoding of synchronization
properties and hypotheses), and the Perturber (feedback-based delay
injection), orchestrated over multiple rounds.
"""

from .candidates import CandidateRegistry
from .config import SherlockConfig, TABLE5_ABLATIONS
from .encoder import build_model
from .observer import Observer
from .perturber import build_delay_plan
from .pipeline import RoundResult, Sherlock, SherlockReport
from .serialize import dump_report, load_syncs, report_to_dict
from .solver import InferenceResult, SolverError, infer
from .stats import MethodStats, ObservationStore
from .windows import PairKey, Window, WindowExtractor

__all__ = [
    "CandidateRegistry",
    "InferenceResult",
    "MethodStats",
    "ObservationStore",
    "Observer",
    "PairKey",
    "RoundResult",
    "Sherlock",
    "SherlockConfig",
    "SherlockReport",
    "SolverError",
    "TABLE5_ABLATIONS",
    "Window",
    "WindowExtractor",
    "build_delay_plan",
    "dump_report",
    "load_syncs",
    "report_to_dict",
    "build_model",
    "infer",
]
