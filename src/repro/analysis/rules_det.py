"""DET-class rules: source patterns that can break fingerprint identity.

Every tier of this repo is held to one invariant — reports byte-identical
to the serial reference (docs/architecture.md).  These rules make the
three source-level ways of silently breaking it visible at lint time:

* iterating a ``set`` in an order-sensitive position (``DET-SET-ITER``),
* reading the wall clock outside ``utils/timer.py`` (``DET-WALLCLOCK``),
* drawing entropy outside ``utils/rng.py`` (``DET-RNG``),
* keying anything off ``id()`` (``DET-ID-KEY``).
"""

from __future__ import annotations

import ast
from typing import Set

from repro.analysis.registry import Checker, call_name, rule
from repro.analysis.findings import SEVERITY_ERROR

# Module paths whose outputs feed hashes, fingerprints, wire frames or
# schedule order — the determinism-critical tiers named in the invariant.
DETERMINISM_SCOPE = ("aig/", "core/", "obs/", "service/")

_SET_ANNOTATIONS = {"set", "Set", "frozenset", "FrozenSet", "MutableSet"}
_SET_BUILTINS = {"set", "frozenset"}
_SET_METHODS = {
    "union",
    "intersection",
    "difference",
    "symmetric_difference",
    "copy",
}
# list()/tuple() of a set materialises the arbitrary order instead of
# hiding it; sorted() is the sanctioned laundering step.
_SEQUENCE_WRAPPERS = {"list", "tuple"}
# Iteration consumers whose result cannot depend on element order.
_ORDER_INSENSITIVE_CALLS = {
    "len",
    "sum",
    "min",
    "max",
    "any",
    "all",
    "set",
    "frozenset",
    "sorted",
}


def _annotation_is_set(annotation: ast.AST) -> bool:
    """True for ``set``/``Set[...]``/``frozenset`` style annotations."""
    if isinstance(annotation, ast.Subscript):
        return _annotation_is_set(annotation.value)
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        # ``from __future__ import annotations`` keeps these as strings.
        head = annotation.value.split("[", 1)[0].strip()
        return head.rsplit(".", 1)[-1] in _SET_ANNOTATIONS
    name = call_name(annotation)
    return name.rsplit(".", 1)[-1] in _SET_ANNOTATIONS


@rule(
    "DET-SET-ITER",
    title="order-sensitive iteration over a set",
    severity=SEVERITY_ERROR,
    category="DET",
    scope=DETERMINISM_SCOPE,
    rationale=(
        "Set iteration order depends on insertion history and hash "
        "randomisation; feeding it into hashes, fingerprints, wire frames "
        "or schedule order silently breaks report reproducibility. Wrap "
        "the iterable in sorted(...) or restructure around a list/dict."
    ),
)
class SetIterationChecker(Checker):
    """Flags ``for``/comprehension iteration over set-typed expressions.

    Set-typedness is inferred per module: set literals, set
    comprehensions, ``set()``/``frozenset()`` calls, set-returning
    methods, set-set binary operators, plus any name or attribute the
    module visibly assigns or annotates as a set (a flat, per-module
    namespace — deliberately simple, matched to this codebase's idiom).
    """

    def begin(self) -> None:
        self.set_names: Set[str] = set()
        self.set_attrs: Set[str] = set()
        for node in ast.walk(self.module.tree):
            if isinstance(node, ast.Assign) and self._is_set_expr(node.value):
                for target in node.targets:
                    self._learn(target)
            elif isinstance(node, ast.AnnAssign) and (
                _annotation_is_set(node.annotation)
                or (node.value is not None and self._is_set_expr(node.value))
            ):
                self._learn(node.target)
            elif isinstance(node, ast.arg):
                if node.annotation is not None and _annotation_is_set(
                    node.annotation
                ):
                    self.set_names.add(node.arg)

    def _learn(self, target: ast.AST) -> None:
        if isinstance(target, ast.Name):
            self.set_names.add(target.id)
        elif isinstance(target, ast.Attribute):
            self.set_attrs.add(target.attr)

    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.set_names
        if isinstance(node, ast.Attribute):
            return node.attr in self.set_attrs
        if isinstance(node, ast.Call):
            name = call_name(node.func)
            if name in _SET_BUILTINS:
                return True
            if isinstance(node.func, ast.Attribute):
                if node.func.attr in _SET_METHODS and self._is_set_expr(
                    node.func.value
                ):
                    return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        return False

    def _unwrap(self, node: ast.AST) -> ast.AST:
        """See through list()/tuple() — they freeze set order, not fix it."""
        while (
            isinstance(node, ast.Call)
            and call_name(node.func) in _SEQUENCE_WRAPPERS
            and len(node.args) == 1
        ):
            node = node.args[0]
        return node

    def _check_iterable(self, iterable: ast.AST) -> None:
        unwrapped = self._unwrap(iterable)
        if self._is_set_expr(unwrapped):
            self.report(
                iterable,
                "iteration order of a set is not reproducible; "
                "wrap the iterable in sorted(...)",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iterable(node.iter)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_iterable(node.iter)

    def _check_comprehension(self, node) -> None:
        # A set/frozenset-building comprehension is itself unordered, so
        # the order it consumes its source in cannot leak; dict/list/
        # generator comprehensions preserve (and thus expose) it.
        if isinstance(node, ast.SetComp):
            return
        parent = self.module.parent(node)
        if isinstance(node, ast.GeneratorExp) and isinstance(parent, ast.Call):
            consumer = call_name(parent.func)
            if consumer in _ORDER_INSENSITIVE_CALLS:
                return
        for comprehension in node.generators:
            self._check_iterable(comprehension.iter)

    visit_ListComp = _check_comprehension
    visit_DictComp = _check_comprehension
    visit_SetComp = _check_comprehension
    visit_GeneratorExp = _check_comprehension


@rule(
    "DET-WALLCLOCK",
    title="wall-clock read outside utils/timer.py",
    severity=SEVERITY_ERROR,
    category="DET",
    exclude=("utils/timer.py",),
    rationale=(
        "Deadlines and stopwatches are centralised in utils/timer.py so "
        "timeout semantics (and their truncation-witness accounting) stay "
        "in one audited place; ad-hoc clock reads drift into results and "
        "make reports machine-dependent."
    ),
)
class WallClockChecker(Checker):
    _TIME_FUNCS = {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
    }
    _DATETIME_FUNCS = {"now", "utcnow", "today"}

    def begin(self) -> None:
        # ``from time import perf_counter`` style aliases.
        self.clock_names: Set[str] = set()
        for node in ast.walk(self.module.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in self._TIME_FUNCS:
                        self.clock_names.add(alias.asname or alias.name)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        name = call_name(node)
        head, _, attr = name.rpartition(".")
        if head.split(".")[-1] == "time" and attr in self._TIME_FUNCS:
            self.report(node, f"wall-clock read {name}; use utils/timer.py")
        elif (
            head.split(".")[-1] in ("datetime", "date")
            and attr in self._DATETIME_FUNCS
        ):
            self.report(node, f"wall-clock read {name}; use utils/timer.py")

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load) and node.id in self.clock_names:
            self.report(
                node, f"wall-clock read {node.id}; use utils/timer.py"
            )


@rule(
    "DET-RNG",
    title="entropy source outside utils/rng.py",
    severity=SEVERITY_ERROR,
    category="DET",
    exclude=("utils/rng.py",),
    rationale=(
        "All randomness flows through utils/rng.py (deterministic_rng) "
        "so identical runs draw identical streams regardless of worker "
        "placement; the global random module, os.urandom, secrets and "
        "uuid4 are unseeded or unseedable."
    ),
)
class RngChecker(Checker):
    def begin(self) -> None:
        self.entropy_names: Set[str] = set()
        for node in ast.walk(self.module.tree):
            if isinstance(node, ast.ImportFrom) and node.module in (
                "random",
                "secrets",
            ):
                for alias in node.names:
                    self.entropy_names.add(alias.asname or alias.name)

    def visit_Call(self, node: ast.Call) -> None:
        name = call_name(node.func)
        head = name.rpartition(".")[0].split(".")[-1]
        if head in ("random", "secrets"):
            self.report(node, f"direct entropy source {name}; use utils/rng.py")
        elif name in ("os.urandom", "uuid.uuid4", "uuid.uuid1"):
            self.report(node, f"direct entropy source {name}; use utils/rng.py")
        elif isinstance(node.func, ast.Name) and node.func.id in self.entropy_names:
            self.report(
                node, f"direct entropy source {node.func.id}; use utils/rng.py"
            )


@rule(
    "DET-ID-KEY",
    title="id() used where a stable key is required",
    severity=SEVERITY_ERROR,
    category="DET",
    rationale=(
        "id() values are allocation addresses: unstable across runs and "
        "recycled within one. Keys, hashes and orderings built from them "
        "are unreproducible. Within-run identity sets used purely for "
        "membership are the one legitimate use — suppress those with a "
        "written reason."
    ),
)
class IdKeyChecker(Checker):
    def visit_Call(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Name)
            and node.func.id == "id"
            and len(node.args) == 1
        ):
            self.report(
                node,
                "id() is not stable across runs; do not use it in keys or "
                "ordering",
            )
