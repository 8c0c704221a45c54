"""Tests for the circuit generators, the embedded library and the suites."""

import pytest

from repro.aig.function import BooleanFunction
from repro.aig.support import max_output_support
from repro.circuits import generators
from repro.circuits.library import classic_circuit, classic_circuit_names
from repro.circuits.suites import paper_row_mapping, performance_suite, quality_suite
from repro.errors import AigError, ReproError


def _outputs_as_int(aig, prefix, width, values):
    """Evaluate outputs ``prefix0..prefix{width-1}`` as an unsigned integer."""
    result = 0
    for i in range(width):
        f = BooleanFunction.from_output(aig, f"{prefix}{i}")
        if f.evaluate({name: values[name] for name in f.input_names}):
            result |= 1 << i
    return result


def _operand_assignment(width, a_value, b_value):
    values = {}
    for i in range(width):
        values[f"a{i}"] = bool((a_value >> i) & 1)
        values[f"b{i}"] = bool((b_value >> i) & 1)
    return values


class TestArithmeticGenerators:
    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_ripple_carry_adder_adds(self, width):
        aig = generators.ripple_carry_adder(width)
        for a in range(1 << width):
            for b in range(1 << width):
                values = _operand_assignment(width, a, b)
                total = _outputs_as_int(aig, "s", width, values)
                cout = BooleanFunction.from_output(aig, "cout").evaluate(
                    {n: values[n] for n in BooleanFunction.from_output(aig, "cout").input_names}
                )
                assert total + (1 << width) * int(cout) == a + b

    @pytest.mark.parametrize("width", [2, 3])
    def test_carry_lookahead_equals_ripple(self, width):
        rca = generators.ripple_carry_adder(width)
        cla = generators.carry_lookahead_adder(width)
        for name in [n for n, _ in rca.outputs]:
            assert BooleanFunction.from_output(rca, name).semantically_equal(
                BooleanFunction.from_output(cla, name)
            )

    @pytest.mark.parametrize("width", [2, 3])
    def test_multiplier_multiplies(self, width):
        aig = generators.multiplier(width)
        for a in range(1 << width):
            for b in range(1 << width):
                values = _operand_assignment(width, a, b)
                product = 0
                for i in range(2 * width):
                    f = BooleanFunction.from_output(aig, f"p{i}")
                    bit = f.evaluate({n: values[n] for n in f.input_names}) if f.num_inputs else False
                    product |= int(bit) << i
                assert product == a * b

    @pytest.mark.parametrize("width", [2, 3, 4])
    def test_comparator(self, width):
        aig = generators.comparator(width)
        for a in range(1 << width):
            for b in range(1 << width):
                values = _operand_assignment(width, a, b)
                for name, expected in (("eq", a == b), ("lt", a < b), ("gt", a > b)):
                    f = BooleanFunction.from_output(aig, name)
                    assert f.evaluate({n: values[n] for n in f.input_names}) == expected

    def test_alu_slice_operations(self):
        width = 2
        aig = generators.alu_slice(width)
        for op, fn in enumerate(
            [lambda a, b: a & b, lambda a, b: a | b, lambda a, b: a ^ b, lambda a, b: (a + b) % (1 << width)]
        ):
            for a in range(1 << width):
                for b in range(1 << width):
                    values = _operand_assignment(width, a, b)
                    values["op0"] = bool(op & 1)
                    values["op1"] = bool(op & 2)
                    result = 0
                    for i in range(width):
                        f = BooleanFunction.from_output(aig, f"y{i}")
                        if f.evaluate({n: values[n] for n in f.input_names}):
                            result |= 1 << i
                    assert result == fn(a, b)


class TestLogicGenerators:
    @pytest.mark.parametrize("width", [1, 3, 5])
    def test_parity(self, width):
        aig = generators.parity_tree(width)
        f = BooleanFunction.from_output(aig, "p")
        for pattern in range(1 << width):
            values = [bool((pattern >> i) & 1) for i in range(width)]
            assert f.evaluate(values) == (bin(pattern).count("1") % 2 == 1)

    @pytest.mark.parametrize("width", [3, 5])
    def test_majority(self, width):
        aig = generators.majority(width)
        f = BooleanFunction.from_output(aig, "maj")
        for pattern in range(1 << width):
            values = [bool((pattern >> i) & 1) for i in range(width)]
            assert f.evaluate(values) == (bin(pattern).count("1") > width // 2)

    def test_mux_tree(self):
        aig = generators.mux_tree(2)
        f = BooleanFunction.from_output(aig, "y")
        for sel in range(4):
            for data in range(16):
                values = {}
                for i in range(2):
                    values[f"s{i}"] = bool((sel >> i) & 1)
                for i in range(4):
                    values[f"d{i}"] = bool((data >> i) & 1)
                assert f.evaluate(values) == bool((data >> sel) & 1)

    def test_decoder(self):
        aig = generators.decoder(2)
        for sel in range(4):
            for enable in (False, True):
                values = {"en": enable, "s0": bool(sel & 1), "s1": bool(sel & 2)}
                for out in range(4):
                    f = BooleanFunction.from_output(aig, f"o{out}")
                    expected = enable and (out == sel)
                    assert f.evaluate({n: values[n] for n in f.input_names}) == expected

    def test_random_generators_are_deterministic(self):
        a = generators.random_aig(6, 20, 2, seed=5)
        b = generators.random_aig(6, 20, 2, seed=5)
        for name in [n for n, _ in a.outputs]:
            assert BooleanFunction.from_output(a, name).semantically_equal(
                BooleanFunction.from_output(b, name)
            )

    def test_random_dnf_respects_sizes(self):
        aig = generators.random_dnf(8, 10, 3, seed=1)
        assert len(aig.inputs) == 8
        assert len(aig.outputs) == 1

    def test_invalid_parameters_rejected(self):
        with pytest.raises(AigError):
            generators.ripple_carry_adder(0)
        with pytest.raises(AigError):
            generators.random_dnf(3, 2, 5)
        with pytest.raises(AigError):
            generators.decomposable_by_construction("nand", 2, 2)


class TestDecomposableByConstruction:
    @pytest.mark.parametrize("operator", ["or", "and", "xor"])
    def test_ground_truth_partition_is_decomposable(self, operator):
        from repro.core.checks import RelaxationChecker
        from repro.core.partition import VariablePartition

        aig, xa, xb, xc = generators.decomposable_by_construction(operator, 2, 2, 1, seed=13)
        f = BooleanFunction.from_output(aig, "f")
        present = set(f.input_names)
        partition = VariablePartition(
            tuple(n for n in xa if n in present),
            tuple(n for n in xb if n in present),
            tuple(n for n in xc if n in present),
        )
        if partition.is_trivial:
            pytest.skip("degenerate random instance")
        assert RelaxationChecker(f, operator).check_partition(partition).decomposable


class TestLibraryAndSuites:
    def test_library_names_nonempty(self):
        names = classic_circuit_names()
        assert "c17" in names and "full_adder" in names

    def test_all_library_circuits_parse(self):
        for name in classic_circuit_names():
            aig = classic_circuit(name)
            assert aig.outputs

    def test_unknown_library_circuit(self):
        with pytest.raises(ReproError):
            classic_circuit("c9999")

    def test_c17_semantics(self):
        aig = classic_circuit("c17")
        g22 = BooleanFunction.from_output(aig, "G22")
        # G22 = NAND(NAND(G1, G3), NAND(G2, NAND(G3, G6)))
        def reference(g1, g2, g3, g6, g7):
            g10 = not (g1 and g3)
            g11 = not (g3 and g6)
            g16 = not (g2 and g11)
            return not (g10 and g16)

        for pattern in range(32):
            bits = [bool((pattern >> i) & 1) for i in range(5)]
            values = dict(zip(["G1", "G2", "G3", "G6", "G7"], bits))
            assert g22.evaluate({n: values[n] for n in g22.input_names}) == reference(*bits)

    def test_full_adder_semantics(self):
        aig = classic_circuit("full_adder")
        s = BooleanFunction.from_output(aig, "sum")
        c = BooleanFunction.from_output(aig, "cout")
        for pattern in range(8):
            a, b, cin = (bool((pattern >> i) & 1) for i in range(3))
            total = int(a) + int(b) + int(cin)
            assert s.evaluate({"a": a, "b": b, "cin": cin}) == bool(total % 2)
            assert c.evaluate({"a": a, "b": b, "cin": cin}) == (total >= 2)

    def test_seq_ctrl_is_sequential(self):
        aig = classic_circuit("seq_ctrl")
        assert aig.latches
        comb = aig.make_combinational()
        assert not comb.latches

    def test_quality_suite_shape(self):
        suite = quality_suite("small")
        assert len(suite) >= 15
        names = [row.name for row in suite]
        assert "C7552" in names and "mm9b" in names
        for row in suite:
            assert row.num_outputs >= 1
            assert row.max_support >= 2

    def test_suite_scales(self):
        small = {row.name: row.num_inputs for row in quality_suite("small")}
        medium = {row.name: row.num_inputs for row in quality_suite("medium")}
        assert any(medium[name] > small[name] for name in small)

    def test_s9234_row_scales_with_suite(self):
        """Regression: the s9234.1 mux-tree stand-in ignored the suite scale."""
        small = {row.name: row for row in quality_suite("small")}
        medium = {row.name: row for row in quality_suite("medium")}
        assert medium["s9234.1"].num_inputs > small["s9234.1"].num_inputs
        assert "16-to-1" in medium["s9234.1"].stand_in

    def test_unknown_scale_rejected(self):
        with pytest.raises(ReproError):
            quality_suite("enormous")

    def test_paper_row_mapping_covers_suite(self):
        mapping = paper_row_mapping()
        for row in performance_suite("small"):
            assert row.name in mapping
