"""Boolean function bi-decomposition (the paper's contribution).

Public entry points:

* :class:`repro.core.engine.BiDecomposer` — decompose a single function or
  one primary output with any of the engines the paper compares (LJH,
  STEP-MG, STEP-QD, STEP-QB, STEP-QDB, plus the BDD baseline); whole
  circuits run through :class:`repro.api.Session`.
* :class:`repro.core.partition.VariablePartition` — a partition
  ``X = {XA | XB | XC}`` with the paper's quality metrics (disjointness,
  balancedness, weighted cost).
* :mod:`repro.core.checks` — the SAT decomposability checks
  (Proposition 1 and its AND/XOR analogues).
* :mod:`repro.core.qbf_bidec` — the QBF-based engines with optimum search.
"""

from repro.core.partition import VariablePartition
from repro.core.spec import OR, AND, XOR, OPERATORS
from repro.core.result import BiDecResult, OutputResult, CircuitReport
from repro.core.engine import BiDecomposer, EngineOptions
from repro.core.executors import (
    BACKENDS,
    ExecutorBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
)
from repro.core.scheduler import BatchScheduler, LiveSuiteScheduler, OutputJob, SuiteUnit
from repro.core.network import DecompositionNode, RecursiveDecomposer, network_to_aig
from repro.core.verify import verify_decomposition

__all__ = [
    "VariablePartition",
    "OR",
    "AND",
    "XOR",
    "OPERATORS",
    "BiDecResult",
    "OutputResult",
    "CircuitReport",
    "BiDecomposer",
    "EngineOptions",
    "BACKENDS",
    "ExecutorBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "BatchScheduler",
    "LiveSuiteScheduler",
    "OutputJob",
    "SuiteUnit",
    "DecompositionNode",
    "RecursiveDecomposer",
    "network_to_aig",
    "verify_decomposition",
]
