"""End-to-end tests for the BiDecomposer driver (the STEP tool)."""

import pytest

from repro.aig.function import BooleanFunction
from repro.circuits.generators import (
    comparator,
    decomposable_by_construction,
    mux_tree,
    parity_tree,
    ripple_carry_adder,
)
from repro.api import Budgets, DecompositionRequest, Session
from repro.circuits.library import classic_circuit
from repro.core.checks import RelaxationChecker
from repro.core.engine import BiDecomposer, EngineOptions
from repro.core.spec import (
    ENGINE_BDD,
    ENGINE_LJH,
    ENGINE_STEP_MG,
    ENGINE_STEP_QB,
    ENGINE_STEP_QD,
    ENGINE_STEP_QDB,
)
from repro.core.verify import verify_decomposition
from repro.errors import DecompositionError

ALL_ENGINES = [
    ENGINE_LJH,
    ENGINE_STEP_MG,
    ENGINE_STEP_QD,
    ENGINE_STEP_QB,
    ENGINE_STEP_QDB,
    ENGINE_BDD,
]


def run_circuit(aig, engines, **kwargs):
    """Every output of ``aig`` through a session, 20 s per output."""
    kwargs.setdefault("budgets", Budgets(per_output=20.0))
    return Session().run(
        DecompositionRequest(
            circuit=aig, operator="or", engines=tuple(engines), **kwargs
        )
    )


@pytest.fixture(scope="module")
def step():
    return BiDecomposer(EngineOptions(verify=True, output_timeout=30.0))


@pytest.fixture(scope="module")
def or_function():
    aig, _, _, _ = decomposable_by_construction("or", 3, 3, 1, seed=7)
    return BooleanFunction.from_output(aig, "f")


class TestDecomposeFunction:
    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_every_engine_produces_a_verified_decomposition(self, step, or_function, engine):
        result = step.decompose_function(or_function, "or", engine=engine)
        assert result.decomposed
        assert result.fa is not None and result.fb is not None
        assert verify_decomposition(
            or_function, "or", result.fa, result.fb, result.partition
        )

    def test_qbf_engines_never_worse_than_mg(self, step, or_function):
        results = step.decompose_function_all(
            or_function, "or", [ENGINE_STEP_MG, ENGINE_STEP_QD, ENGINE_STEP_QB, ENGINE_STEP_QDB]
        )
        mg = results[ENGINE_STEP_MG]
        assert mg.decomposed
        assert results[ENGINE_STEP_QD].disjointness <= mg.disjointness
        assert results[ENGINE_STEP_QB].balancedness <= mg.balancedness
        assert results[ENGINE_STEP_QDB].combined_metric <= mg.combined_metric

    def test_small_support_skipped(self, step):
        f = BooleanFunction.from_truth_table(0b10, 1)
        result = step.decompose_function(f, "or", engine=ENGINE_STEP_QD)
        assert not result.decomposed

    def test_invalid_engine_rejected(self, step, or_function):
        with pytest.raises(DecompositionError):
            step.decompose_function(or_function, "or", engine="STEP-XX")

    def test_invalid_operator_rejected(self, step, or_function):
        with pytest.raises(DecompositionError):
            step.decompose_function(or_function, "nor", engine=ENGINE_STEP_QD)

    def test_extraction_can_be_disabled(self, or_function):
        step = BiDecomposer(EngineOptions(extract=False))
        result = step.decompose_function(or_function, "or", engine=ENGINE_STEP_MG)
        assert result.decomposed
        assert result.fa is None and result.fb is None

    def test_interpolation_extraction_option(self, or_function):
        step = BiDecomposer(EngineOptions(extraction="interpolation", verify=True))
        result = step.decompose_function(or_function, "or", engine=ENGINE_STEP_MG)
        assert result.decomposed
        assert result.fa is not None

    def test_xor_on_parity(self, step):
        f = BooleanFunction.from_output(parity_tree(5), "p")
        result = step.decompose_function(f, "xor", engine=ENGINE_STEP_QD)
        assert result.decomposed
        assert result.partition.is_disjoint
        assert result.optimum_proven

    def test_and_operator(self, step):
        aig, *_ = decomposable_by_construction("and", 3, 2, 1, seed=51)
        f = BooleanFunction.from_output(aig, "f")
        result = step.decompose_function(f, "and", engine=ENGINE_STEP_QDB)
        assert result.decomposed


class TestDecomposeOutputAndCircuit:
    def test_decompose_output_record(self, step):
        aig = mux_tree(2)
        record = step.decompose_output(aig, "y", "or", [ENGINE_STEP_MG, ENGINE_STEP_QD])
        assert record.output_name == "y"
        assert record.num_support == 6
        assert set(record.results) <= {ENGINE_STEP_MG, ENGINE_STEP_QD}

    def test_decompose_circuit_report(self):
        aig = ripple_carry_adder(2)
        report = run_circuit(aig, [ENGINE_STEP_MG, ENGINE_STEP_QD])
        assert report.circuit == aig.name
        assert len(report.outputs) == len(aig.outputs)
        assert report.decomposed_count(ENGINE_STEP_QD) >= report.decomposed_count(ENGINE_STEP_MG) - len(
            aig.outputs
        )
        assert report.cpu_seconds(ENGINE_STEP_MG) >= 0.0

    def test_sequential_circuit_made_combinational(self):
        aig = classic_circuit("seq_ctrl")
        report = run_circuit(aig, [ENGINE_STEP_MG], max_outputs=3)
        assert report.outputs  # latch-derived outputs become decomposable POs

    def test_max_outputs_limit(self):
        aig = ripple_carry_adder(3)
        report = run_circuit(aig, [ENGINE_STEP_MG], max_outputs=2)
        assert len(report.outputs) == 2

    def test_max_support_filter(self):
        step = BiDecomposer(EngineOptions(max_support=3, output_timeout=20.0))
        aig = mux_tree(2)
        record = step.decompose_output(aig, "y", "or", [ENGINE_STEP_MG])
        assert record.results == {}

    def test_circuit_timeout_stops_early(self):
        aig = ripple_carry_adder(3)
        report = run_circuit(
            aig, [ENGINE_STEP_MG], budgets=Budgets(per_output=20.0, per_circuit=0.0)
        )
        assert len(report.outputs) == 0


class _ScriptedDeadline:
    """A deadline whose ``expired`` reads follow a fixed script.

    Once the script is exhausted every further read returns ``True``, so a
    count mismatch surfaces as a spurious timeout rather than silently
    passing.
    """

    def __init__(self, *script: bool) -> None:
        self._script = list(script)

    @property
    def expired(self) -> bool:
        if self._script:
            return self._script.pop(0)
        return True


class TestBddTimeoutFlag:
    def test_completed_search_is_not_flagged_timed_out(self):
        """Regression: BDD reported ``deadline.expired`` even on success.

        ``f = x0 OR x1`` seeds on the very first pair check, so the whole
        search reads the deadline exactly once (inside the seed loop).  The
        old code read it once more while building the result — after the
        search had already completed — and flagged the run timed out, which
        also made the scheduler refuse to memoise it.
        """
        function = BooleanFunction.from_truth_table(0b1110, 2)
        step = BiDecomposer(EngineOptions())
        result = step.decompose_function(
            function, "or", engine=ENGINE_BDD, deadline=_ScriptedDeadline(False)
        )
        assert result.decomposed
        assert not result.timed_out

    def test_truncated_seed_search_is_flagged(self):
        function = BooleanFunction.from_truth_table(0b1110, 2)
        step = BiDecomposer(EngineOptions())
        result = step.decompose_function(
            function, "or", engine=ENGINE_BDD, deadline=_ScriptedDeadline()
        )
        assert not result.decomposed
        assert result.timed_out

    def test_completed_bdd_result_is_memoised_by_scheduler(self):
        """The fixed flag keeps BDD results replayable under a budget."""
        aig, *_ = decomposable_by_construction("or", 3, 3, 1, seed=5)
        root = aig.outputs[0][1]
        aig.add_output("f_dup", root)
        report = Session().run(
            DecompositionRequest(
                circuit=aig,
                operator="or",
                engines=(ENGINE_BDD,),
                budgets=Budgets(per_circuit=300.0),
            )
        )
        assert report.schedule["cache_hits"] == 1
        for output in report.outputs:
            assert output.results[ENGINE_BDD].decomposed
            assert not output.results[ENGINE_BDD].timed_out


class TestBootstrapExtractionSkip:
    def test_bootstrap_only_pass_skips_extraction(self, or_function, monkeypatch):
        """Regression: the inserted STEP-MG pass extracted fA/fB for nothing."""
        import repro.core.engine as engine_module

        calls = []
        real_extract = engine_module.extract_functions

        def counting_extract(*args, **kwargs):
            calls.append(args)
            return real_extract(*args, **kwargs)

        monkeypatch.setattr(engine_module, "extract_functions", counting_extract)
        step = BiDecomposer(EngineOptions())
        results = step.decompose_function_all(or_function, "or", [ENGINE_STEP_QD])
        assert set(results) == {ENGINE_STEP_QD}
        assert results[ENGINE_STEP_QD].decomposed
        # Exactly one extraction: the requested engine's.  The bootstrap
        # STEP-MG pass contributes only its partition.
        assert len(calls) == 1

    def test_requested_mg_still_extracts(self, or_function):
        step = BiDecomposer(EngineOptions())
        results = step.decompose_function_all(
            or_function, "or", [ENGINE_STEP_MG, ENGINE_STEP_QD]
        )
        for engine in (ENGINE_STEP_MG, ENGINE_STEP_QD):
            assert results[engine].fa is not None
            assert results[engine].fb is not None


class TestOptions:
    def test_invalid_extraction_rejected(self):
        with pytest.raises(DecompositionError):
            EngineOptions(extraction="nope")

    def test_invalid_strategy_rejected(self):
        with pytest.raises(DecompositionError):
            EngineOptions(qbf_strategy="zigzag")

    def test_result_summary_strings(self, step, or_function):
        result = step.decompose_function(or_function, "or", engine=ENGINE_STEP_QD)
        text = result.summary()
        assert "STEP-QD" in text and "eD=" in text
        miss = step.decompose_function(
            BooleanFunction.from_truth_table(0b0110, 2), "or", engine=ENGINE_STEP_QD
        )
        assert "not decomposable" in miss.summary()


class TestSharedCheckEncoding:
    """``decompose_function_all`` encodes the check formula once per call."""

    ENGINES = [ENGINE_LJH, ENGINE_STEP_MG, ENGINE_STEP_QD, ENGINE_STEP_QB, ENGINE_STEP_QDB]

    @staticmethod
    def _functions():
        # Decomposable under every operator (mux) and only under AND
        # (comparator): the QBF engines refine on both.
        return [
            BooleanFunction.from_output(mux_tree(2), "y"),
            BooleanFunction.from_output(comparator(3), "lt"),
        ]

    @staticmethod
    def _summary(result):
        return (
            result.decomposed,
            result.partition,
            result.optimum_proven,
            result.timed_out,
            result.stats,
        )

    @pytest.mark.parametrize("operator", ["or", "and", "xor"])
    def test_same_results_as_separate_checkers(self, operator, monkeypatch):
        step = BiDecomposer(EngineOptions(extract=False))
        for function in self._functions():
            builds = []
            real_init = RelaxationChecker.__init__

            def counting_init(self, *args, **kwargs):
                builds.append(args)
                real_init(self, *args, **kwargs)

            monkeypatch.setattr(RelaxationChecker, "__init__", counting_init)
            shared = step.decompose_function_all(function, operator, self.ENGINES)
            assert len(builds) == 1
            monkeypatch.undo()

            separate = {}
            bootstrap = None
            # The driver's order: STEP-MG first, its partition the bootstrap.
            for engine in [ENGINE_STEP_MG] + [e for e in self.ENGINES if e != ENGINE_STEP_MG]:
                separate[engine] = step.decompose_function(
                    function, operator, engine, bootstrap=bootstrap
                )
                if engine == ENGINE_STEP_MG and separate[engine].decomposed:
                    bootstrap = separate[engine].partition
            for engine in self.ENGINES:
                assert self._summary(shared[engine]) == self._summary(separate[engine])
            assert shared[ENGINE_STEP_QD].stats.refinements > 0
