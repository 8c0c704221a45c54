"""Tests for the heuristic baselines: LJH and STEP-MG."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.aig.function import BooleanFunction
from repro.circuits.generators import decomposable_by_construction, parity_tree
from repro.core.checks import RelaxationChecker
from repro.core.ljh import ljh_decompose, ljh_find_partition
from repro.core.mus_partition import mus_decompose, mus_find_partition
from repro.core.spec import ENGINE_LJH, ENGINE_STEP_MG
from repro.utils.timer import Deadline

from tests.reference import all_nontrivial_partitions, decomposable as reference_decomposable


def _checker_for(operator, size_a=2, size_b=2, size_c=1, seed=1):
    aig, xa, xb, xc = decomposable_by_construction(operator, size_a, size_b, size_c, seed=seed)
    f = BooleanFunction.from_output(aig, "f")
    return RelaxationChecker(f, operator), f


class TestLjh:
    @pytest.mark.parametrize("operator", ["or", "and", "xor"])
    def test_finds_valid_partition_on_constructed_instances(self, operator):
        checker, f = _checker_for(operator, seed=19)
        partition = ljh_find_partition(checker)
        assert partition is not None
        assert not partition.is_trivial
        assert RelaxationChecker(f, operator).check_partition(partition).decomposable

    def test_reports_non_decomposable(self):
        # 2-input XOR has no non-trivial OR decomposition.
        f = BooleanFunction.from_truth_table(0b0110, 2)
        checker = RelaxationChecker(f, "or")
        assert ljh_find_partition(checker) is None

    def test_result_record(self):
        checker, f = _checker_for("or", seed=2)
        result = ljh_decompose(checker)
        assert result.engine == ENGINE_LJH
        assert result.decomposed
        assert result.partition is not None
        assert result.stats.sat_calls > 0
        assert not result.optimum_proven

    def test_deadline_respected(self):
        checker, _ = _checker_for("or", 3, 3, 2, seed=3)
        result = ljh_decompose(checker, deadline=Deadline(0.0))
        assert result.timed_out or result.decomposed in (True, False)

    def test_parity_xor(self):
        f = BooleanFunction.from_output(parity_tree(4), "p")
        checker = RelaxationChecker(f, "xor")
        partition = ljh_find_partition(checker)
        assert partition is not None
        assert RelaxationChecker(f, "xor").check_partition(partition).decomposable


class TestStepMg:
    @pytest.mark.parametrize("operator", ["or", "and", "xor"])
    def test_finds_valid_partition_on_constructed_instances(self, operator):
        checker, f = _checker_for(operator, seed=29)
        partition = mus_find_partition(checker)
        assert partition is not None
        assert not partition.is_trivial
        assert RelaxationChecker(f, operator).check_partition(partition).decomposable

    def test_reports_non_decomposable(self):
        f = BooleanFunction.from_truth_table(0b0110, 2)
        checker = RelaxationChecker(f, "or")
        assert mus_find_partition(checker) is None

    def test_result_record(self):
        checker, _ = _checker_for("or", seed=5)
        result = mus_decompose(checker)
        assert result.engine == ENGINE_STEP_MG
        assert result.decomposed
        assert result.stats.sat_calls > 0

    def test_uses_fewer_checks_than_ljh_on_larger_instances(self):
        checker_mg, _ = _checker_for("or", 3, 3, 2, seed=41)
        checker_ljh, _ = _checker_for("or", 3, 3, 2, seed=41)
        mg = mus_decompose(checker_mg)
        ljh = ljh_decompose(checker_ljh)
        assert mg.decomposed and ljh.decomposed
        assert mg.stats.sat_calls <= ljh.stats.sat_calls

    def test_parity_xor(self):
        f = BooleanFunction.from_output(parity_tree(5), "p")
        checker = RelaxationChecker(f, "xor")
        partition = mus_find_partition(checker)
        assert partition is not None
        assert RelaxationChecker(f, "xor").check_partition(partition).decomposable


class _CountingDeadline:
    """Never expires; counts how often ``expired`` is read."""

    def __init__(self):
        self.reads = 0

    @property
    def expired(self):
        self.reads += 1
        return False


class _ScriptedDeadline:
    """``expired`` is False for the first ``quota`` reads, then True."""

    def __init__(self, quota):
        self.quota = quota

    @property
    def expired(self):
        self.quota -= 1
        return self.quota < 0


class TestTimedOutReflectsTruncation:
    """``timed_out`` means "the search was cut short", not "time is up now".

    Calibration trick: a first run counts every ``expired`` read the search
    performs; a second run answers False for exactly that many reads and
    True afterwards.  The searches are deterministic, so the second run
    completes untruncated — and any reintroduced post-completion read of
    the deadline (the old bug: ``timed_out = deadline.expired`` at
    result-construction time) would see True and fail these tests.
    """

    @pytest.mark.parametrize("decompose", [ljh_decompose, mus_decompose])
    def test_completed_search_not_flagged(self, decompose):
        counter = _CountingDeadline()
        calibration = decompose(_checker_for("or", seed=19)[0], deadline=counter)
        assert calibration.decomposed and not calibration.timed_out
        result = decompose(
            _checker_for("or", seed=19)[0],
            deadline=_ScriptedDeadline(counter.reads),
        )
        assert result.decomposed
        assert not result.timed_out

    @pytest.mark.parametrize("decompose", [ljh_decompose, mus_decompose])
    def test_truncated_search_is_flagged(self, decompose):
        result = decompose(_checker_for("or", seed=19)[0], deadline=Deadline(0.0))
        assert result.timed_out
        assert not result.decomposed

    @pytest.mark.parametrize("decompose", [ljh_decompose, mus_decompose])
    def test_mid_search_truncation_is_flagged(self, decompose):
        """Cutting the budget partway through must still read as a timeout."""
        counter = _CountingDeadline()
        decompose(_checker_for("or", 3, 3, 2, seed=3)[0], deadline=counter)
        assert counter.reads > 2
        result = decompose(
            _checker_for("or", 3, 3, 2, seed=3)[0],
            deadline=_ScriptedDeadline(counter.reads // 2),
        )
        assert result.timed_out


class TestAgainstExhaustiveReference:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**16 - 1),
        st.sampled_from(["or", "and", "xor"]),
    )
    def test_engines_agree_with_reference_on_decomposability(self, table, operator):
        """If any non-trivial partition exists, both engines must find one."""
        n = 4
        exists = any(
            reference_decomposable(table, n, operator, xa, xb)
            for xa, xb, _ in all_nontrivial_partitions(n)
        )
        f = BooleanFunction.from_truth_table(table, n)
        for finder in (ljh_find_partition, mus_find_partition):
            checker = RelaxationChecker(f, operator)
            partition = finder(checker)
            if partition is None:
                assert not exists
            else:
                names = f.input_names
                xa = [names.index(x) for x in partition.xa]
                xb = [names.index(x) for x in partition.xb]
                assert reference_decomposable(table, n, operator, xa, xb)
