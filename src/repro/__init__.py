"""repro — QBF-based Boolean function bi-decomposition (DATE 2012).

A from-scratch Python reproduction of *QBF-Based Boolean Function
Bi-Decomposition* (Chen, Janota, Marques-Silva), including the STEP tool
(QBF engines STEP-QD / STEP-QB / STEP-QDB), the baselines it is compared
against (LJH / Bi-dec, STEP-MG) and every substrate the original tool takes
from ABC, MiniSAT, MUSer and AReQS: an AIG circuit package with BLIF/BENCH
I/O, a CDCL SAT solver with proof logging and interpolation, MUS extraction,
cardinality encodings, a 2QBF CEGAR solver and a small BDD package.

Quick start (the session API — see ``docs/api.md``)::

    from repro import DecompositionRequest, ENGINE_STEP_QD, Session
    from repro.circuits import ripple_carry_adder

    request = DecompositionRequest(
        circuit=ripple_carry_adder(4), operator="or",
        engines=(ENGINE_STEP_QD,),
    )
    report = Session().run(request)
    for output in report.outputs:
        print(output.results[ENGINE_STEP_QD].summary())
"""

from repro.aig import AIG, BooleanFunction
from repro.api import (
    AsyncSession,
    Budgets,
    CachePolicy,
    DecompositionRequest,
    EngineRegistry,
    EngineSpec,
    Parallelism,
    REQUEST_STATES,
    RequestTicket,
    Session,
    default_registry,
)
from repro.service import ServiceClient
from repro.core import (
    BiDecomposer,
    BiDecResult,
    CircuitReport,
    EngineOptions,
    OutputResult,
    VariablePartition,
    verify_decomposition,
)
from repro.core.engine import QBF_ENGINES
from repro.core.spec import (
    ENGINE_BDD,
    ENGINE_LJH,
    ENGINE_STEP_MG,
    ENGINE_STEP_QB,
    ENGINE_STEP_QD,
    ENGINE_STEP_QDB,
    ENGINES,
    OPERATORS,
)
from repro.errors import ReproError

__version__ = "1.1.0"

__all__ = [
    "AIG",
    "BooleanFunction",
    # session API (canonical entry point)
    "Session",
    "AsyncSession",
    "ServiceClient",
    "RequestTicket",
    "REQUEST_STATES",
    "DecompositionRequest",
    "Budgets",
    "Parallelism",
    "CachePolicy",
    "EngineRegistry",
    "EngineSpec",
    "default_registry",
    # engine-name constants (import these, not repro.core.engine/spec)
    "ENGINE_LJH",
    "ENGINE_STEP_MG",
    "ENGINE_STEP_QD",
    "ENGINE_STEP_QB",
    "ENGINE_STEP_QDB",
    "ENGINE_BDD",
    "ENGINES",
    "QBF_ENGINES",
    "OPERATORS",
    # engine and result types
    "BiDecomposer",
    "BiDecResult",
    "CircuitReport",
    "EngineOptions",
    "OutputResult",
    "VariablePartition",
    "verify_decomposition",
    "ReproError",
    "__version__",
]
