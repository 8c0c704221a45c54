"""Seeded inputs for the three workloads.

Seed 0 is the program's own experiment: ``quality_suite("medium")`` exactly,
and the fixed ``service`` stream.  Any other seed re-draws every seeded
generator row of the suite (``random_dnf``, ``random_aig``,
``decomposable_by_construction``) and the whole service stream, with the
same sizes, so a claim can be checked on inputs nobody tuned for.

Only generated circuits reach the program; the benchmark never hands it a
seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

ENGINES = ("LJH", "STEP-MG", "STEP-QD", "STEP-QB", "STEP-QDB")
OPERATORS = ("or", "and", "xor")
SUITE_SCALE = "medium"
MAX_OUTPUTS = 4

SERVICE_ENGINES = ("STEP-MG", "STEP-QD")
#: Distinct warmed structures the service stream repeats.
SERVICE_WARM = 48
#: Every FRESH_EVERY-th service request carries a fresh (never seen) circuit.
FRESH_EVERY = 8

_SEEDED_GENERATORS = ("random_dnf", "random_aig", "decomposable_by_construction")


def sweep_circuits(seed: int):
    """The Table III/IV suite, with seeded rows re-drawn for ``seed != 0``."""
    from repro.circuits import generators
    from repro.circuits.suites import quality_suite

    if seed == 0:
        return quality_suite(SUITE_SCALE)
    originals = {name: getattr(generators, name) for name in _SEEDED_GENERATORS}

    def reseeded(function):
        def call(*args, **kwargs):
            kwargs["seed"] = f"{kwargs.get('seed', 0)}/{seed}"
            return function(*args, **kwargs)

        return call

    try:
        for name, function in originals.items():
            setattr(generators, name, reseeded(function))
        return quality_suite(SUITE_SCALE)
    finally:
        for name, function in originals.items():
            setattr(generators, name, function)


def sweep_requests(circuits, jobs: int, backend: str, cache_dirs=None):
    """One request per (operator, circuit): the Table III/IV sweep.

    Budgets are off so no search is ever truncated by machine load.
    ``cache_dirs`` maps each operator to a persistent cache directory.
    """
    from repro.api import Budgets, CachePolicy, DecompositionRequest, Parallelism

    return [
        DecompositionRequest(
            circuit=circuit.aig,
            operator=operator,
            engines=ENGINES,
            budgets=Budgets(per_call=None, per_output=None),
            parallelism=Parallelism(jobs=jobs, backend=backend),
            cache=CachePolicy(
                directory=None if cache_dirs is None else cache_dirs[operator]
            ),
            name=circuit.name,
            max_outputs=MAX_OUTPUTS,
            extract=False,
        )
        for operator in OPERATORS
        for circuit in circuits
    ]


@dataclass(frozen=True)
class Structure:
    """One service request body: a small circuit under one operator."""

    key: str
    circuit: object  # repro.aig.aig.AIG
    operator: str


def _structure(key: str, index: int, seed: int) -> Structure:
    """Structure ``index``: its family, sizes and operator are fixed by the
    index, so only the wiring depends on the seed."""
    from repro.circuits import generators

    tag = f"{key}.{seed}"
    family = index % 3
    operator = OPERATORS[(index // 3) % 3]
    if family == 0:
        circuit = generators.random_aig(7, 18, 2, seed=tag, name=tag)
    elif family == 1:
        circuit = generators.random_dnf(7, 6, 3, seed=tag, name=tag)
    else:
        circuit, _, _, _ = generators.decomposable_by_construction(
            operator, 3, 3, 1, seed=tag, name=tag
        )
    return Structure(key, circuit, operator)


def service_stream(seed: int, count: int) -> Tuple[List[Structure], List[Structure], List[Structure]]:
    """``(warm, fresh, stream)``: ``count`` requests for ``seed``.

    Every :data:`FRESH_EVERY`-th request is a fresh structure, seen once;
    the others cycle through the warm structures, each round in a seeded
    order, so every warm structure recurs equally often.
    """
    rng = random.Random(f"stream/{seed}")
    warm = [_structure(f"w{index:02d}", index, seed) for index in range(SERVICE_WARM)]
    fresh = [
        _structure(f"f{index:04d}", index, seed) for index in range(count // FRESH_EVERY)
    ]
    fresh_iter = iter(fresh)
    rounds: List[Structure] = []
    stream = []
    for position in range(count):
        if position % FRESH_EVERY == FRESH_EVERY - 1:
            stream.append(next(fresh_iter))
            continue
        if not rounds:
            rounds = list(warm)
            rng.shuffle(rounds)
        stream.append(rounds.pop())
    return warm, fresh, stream


def service_request(structure: Structure):
    """The wire request for one structure: extraction and verification on."""
    from repro.api import Budgets, DecompositionRequest

    return DecompositionRequest(
        circuit=structure.circuit,
        operator=structure.operator,
        engines=SERVICE_ENGINES,
        budgets=Budgets(per_call=None, per_output=None),
        name=structure.key,
        extract=True,
        verify=True,
    )


def request_key(operator: str, name: Optional[str]) -> str:
    return f"{operator}/{name}"
