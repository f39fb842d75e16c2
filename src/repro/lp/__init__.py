"""Linear-programming substrate.

A small modelling layer (variables, linear expressions, constraints,
``max(0, .)`` / ``|.|`` objective lowering) with two interchangeable
solver backends: scipy's HiGHS (the default) and a from-scratch sparse
revised simplex over an LU-factorized basis.

This package stands in for the ``Flipy`` library plus external LP solver
used by the SherLock artifact.
"""

from .backends import available_backends, solve
from .expr import EQ, GE, LE, Constraint, LinExpr, as_expr
from .model import Model, ModelCheckpoint, StandardForm, StandardFormCache
from .revised import solve_revised
from .scipy_backend import solve_scipy
from .solution import Solution, SolveStatus
from .variable import Variable

__all__ = [
    "Constraint",
    "EQ",
    "GE",
    "LE",
    "LinExpr",
    "Model",
    "ModelCheckpoint",
    "Solution",
    "SolveStatus",
    "StandardForm",
    "StandardFormCache",
    "Variable",
    "as_expr",
    "available_backends",
    "solve",
    "solve_revised",
    "solve_scipy",
]
