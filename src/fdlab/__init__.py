"""Finite-domain consistency laboratory.

Four notions of consistency for finite integer domains (domain,
bounds(D), bounds(Z), bounds(R)) with exact checkers, propagators, a
fixpoint engine, backtracking search, a subset-sum hardness gadget, and
monotonicity analysis.
"""

from .checkers import (
    CheckResult,
    ConsistencyNotion,
    SupportWitness,
    check,
    check_bounds_d,
    check_bounds_r,
    check_bounds_z,
    check_domain,
)
from .constraints import (
    Affine,
    AllDifferent,
    Constraint,
    LinEq,
    LinLe,
    LinNe,
    LinTerm,
    Mod,
    MonoBij,
    PowK,
    PowerSum3,
    ProductLe,
    RealSemanticsUndefined,
    ReifLinLe,
    Table,
    sat_int,
    sat_real,
    vars_of,
)
from .domains import Domain, IntSet, Valuation, VarId
from .engine import Event, EventKind, Model, format_trace, propagate_all, trace
from .modelfile import ParseError, parse_model, print_model
from .propagators import PropagationResult, propagate, propagate_linear_br
from .reductions import (
    MonotonicityReport,
    SubsetSumInstance,
    VarMonotonicity,
    encode_subset_sum,
    is_monotonic,
    refute_monotone,
)
from .search import BranchStrategy, SearchStats, branch, solve

__version__ = "0.1.0"

__all__ = [
    "Affine",
    "AllDifferent",
    "BranchStrategy",
    "CheckResult",
    "ConsistencyNotion",
    "Constraint",
    "Domain",
    "Event",
    "EventKind",
    "IntSet",
    "LinEq",
    "LinLe",
    "LinNe",
    "LinTerm",
    "Mod",
    "Model",
    "MonoBij",
    "MonotonicityReport",
    "ParseError",
    "PowK",
    "PowerSum3",
    "ProductLe",
    "PropagationResult",
    "RealSemanticsUndefined",
    "ReifLinLe",
    "SearchStats",
    "SubsetSumInstance",
    "SupportWitness",
    "Table",
    "Valuation",
    "VarId",
    "VarMonotonicity",
    "branch",
    "check",
    "check_bounds_d",
    "check_bounds_r",
    "check_bounds_z",
    "check_domain",
    "encode_subset_sum",
    "format_trace",
    "is_monotonic",
    "parse_model",
    "print_model",
    "propagate",
    "propagate_all",
    "propagate_linear_br",
    "refute_monotone",
    "sat_int",
    "sat_real",
    "solve",
    "trace",
    "vars_of",
]
