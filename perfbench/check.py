"""Correctness gate that trusts nothing under test.

The evaluator below walks the AIG node list itself and builds truth tables
as Python integers (bit ``p`` is the value on the input pattern whose bit
``k`` is input ``k``), without calling the program's simulator, function or
partition code.  Against those tables it checks that

* each reported support size is at least the output's true support size;
* each reported partition has that many inputs, covers the true support,
  and has non-empty ``XA`` and ``XB`` and disjoint blocks;
* the output really decomposes over the partition: for OR,
  ``f -> (forall XB. f) | (forall XA. f)``; for AND the dual on ``~f``; for
  XOR, ``f(a,b,c) = f(a,b0,c) ^ f(a0,b,c) ^ f(a0,b0,c)``;
* an output one engine decomposed is decomposed by every complete (QBF)
  engine too;
* extracted ``fA``/``fB`` (service requests) recombine to ``f``;
* no search was truncated (``timed_out``).

All of it runs after the timed region.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Tuple

COMPLETE_ENGINES = ("STEP-QD", "STEP-QB", "STEP-QDB")


class Tables:
    """Truth tables of every primary output of one AIG, over all its inputs."""

    def __init__(self, aig) -> None:
        inputs = aig.inputs + aig.latches
        self.names = [aig.input_name(index) for index in inputs]
        self.position = {name: k for k, name in enumerate(self.names)}
        width = len(inputs)
        self.bits = 1 << width
        self.mask = (1 << self.bits) - 1
        # words[k]: input k as a pattern word (period 2 ** k).
        self.words = []
        for k in range(width):
            block = ((1 << (1 << k)) - 1) << (1 << k)  # 0...0 1...1 over 2^(k+1)
            period = 1 << (k + 1)
            word = block
            span = period
            while span < self.bits:
                word |= word << span
                span *= 2
            self.words.append(word & self.mask)
        values: Dict[int, int] = {0: 0}
        for k, index in enumerate(inputs):
            values[index] = self.words[k]
        for index in range(aig.num_nodes):
            if index in values:
                continue
            left, right = aig.fanins(index)
            values[index] = self._edge(values, left) & self._edge(values, right)
        self.outputs = {name: self._edge(values, lit) for name, lit in aig.outputs}

    def _edge(self, values: Dict[int, int], lit: int) -> int:
        value = values[lit >> 1]
        return value ^ self.mask if lit & 1 else value

    # -- quantification over named inputs ----------------------------------------

    def _cofactors(self, table: int, k: int) -> Tuple[int, int]:
        """(f with x_k=0, f with x_k=1), each spread over both halves."""
        stride = 1 << k
        high = self.words[k]
        low = high ^ self.mask
        f0 = table & low
        f1 = table & high
        return f0 | (f0 << stride), f1 | (f1 >> stride)

    def forall(self, table: int, names: Iterable[str]) -> int:
        for name in names:
            f0, f1 = self._cofactors(table, self.position[name])
            table = f0 & f1
        return table

    def fix(self, table: int, names: Iterable[str]) -> int:
        """Set every named input to 0 (spread over both halves)."""
        for name in names:
            table = self._cofactors(table, self.position[name])[0]
        return table

    def support(self, table: int) -> List[str]:
        return [
            name
            for k, name in enumerate(self.names)
            if len(set(self._cofactors(table, k))) == 2
        ]

    def expand(self, names: List[str], table: int) -> int:
        """A truth table over ``names`` (bit k = names[k]) as a table here."""
        result = 0
        for pattern in range(1 << len(names)):
            if not (table >> pattern) & 1:
                continue
            cube = self.mask
            for k, name in enumerate(names):
                word = self.words[self.position[name]]
                cube &= word if (pattern >> k) & 1 else word ^ self.mask
            result |= cube
        return result


def decomposes(tables: Tables, table: int, operator: str, xa, xb) -> bool:
    """Does ``table`` bi-decompose under ``operator`` with blocks XA/XB?"""
    if operator == "and":
        table ^= tables.mask
        operator = "or"
    if operator == "or":
        covered = tables.forall(table, xb) | tables.forall(table, xa)
        return table & ~covered & tables.mask == 0
    if operator == "xor":
        rebuilt = (
            tables.fix(table, xb) ^ tables.fix(table, xa) ^ tables.fix(table, list(xa) + list(xb))
        )
        return rebuilt == table
    raise ValueError(f"unknown operator {operator!r}")


def check_report(report, tables: Tables, operator: str, extracted: bool) -> List[str]:
    """Every violation in one circuit report (empty when it is correct)."""
    problems = []
    for output in report.outputs:
        where = f"{report.circuit}/{operator}/{output.output_name}"
        table = tables.outputs.get(output.output_name)
        if table is None:
            problems.append(f"{where}: no such output")
            continue
        # The program decomposes over the structural support, which may hold
        # inputs the function does not depend on.
        support = set(tables.support(table))
        if output.num_support < len(support):
            problems.append(
                f"{where}: support {output.num_support} reported, {len(support)} true"
            )
            continue
        decomposed_by = []
        for engine, result in output.results.items():
            if result.timed_out:
                problems.append(f"{where}: {engine} timed out")
                continue
            if not result.decomposed:
                continue
            decomposed_by.append(engine)
            partition = result.partition
            xa, xb, xc = list(partition.xa), list(partition.xb), list(partition.xc)
            blocks = xa + xb + xc
            if (
                not xa
                or not xb
                or len(set(blocks)) != len(blocks)
                or len(blocks) != output.num_support
                or not support <= set(blocks) <= set(tables.position)
            ):
                problems.append(f"{where}: {engine} partition does not split the support")
                continue
            if not decomposes(tables, table, operator, xa, xb):
                problems.append(f"{where}: {engine} partition violates the {operator} condition")
                continue
            if extracted:
                if result.fa is None or result.fb is None:
                    problems.append(f"{where}: {engine} returned no fA/fB")
                    continue
                fa = tables.expand(list(result.fa.input_names), result.fa.truth_table())
                fb = tables.expand(list(result.fb.input_names), result.fb.truth_table())
                combined = {"or": fa | fb, "and": fa & fb, "xor": fa ^ fb}[operator]
                if combined != table:
                    problems.append(f"{where}: {engine} fA {operator} fB != f")
        if decomposed_by:
            for engine in COMPLETE_ENGINES:
                result = output.results.get(engine)
                if result is not None and not result.decomposed:
                    problems.append(
                        f"{where}: {engine} found no partition, {decomposed_by[0]} did"
                    )
    return problems


def fingerprint(report) -> str:
    """Short digest of a report's fingerprint (timing and schedule excluded)."""
    return hashlib.sha256(repr(report.fingerprint()).encode("utf-8")).hexdigest()[:16]

