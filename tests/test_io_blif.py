"""Tests for the BLIF reader and writer."""

import pytest

from repro.aig.function import BooleanFunction
from repro.errors import ParseError
from repro.io.blif import aig_to_blif, parse_blif, read_blif, write_blif

SIMPLE_BLIF = """
.model example
.inputs a b c
.outputs f g
.names a b t1
11 1
.names t1 c f
1- 1
-1 1
.names a g
0 1
.end
"""


class TestParsing:
    def test_basic_structure(self):
        aig = parse_blif(SIMPLE_BLIF)
        assert aig.name == "example"
        assert len(aig.inputs) == 3
        assert [name for name, _ in aig.outputs] == ["f", "g"]

    def test_semantics(self):
        aig = parse_blif(SIMPLE_BLIF)
        f = BooleanFunction.from_output(aig, "f")
        # f = (a AND b) OR c
        assert f.evaluate({"a": True, "b": True, "c": False}) is True
        assert f.evaluate({"a": True, "b": False, "c": False}) is False
        assert f.evaluate({"a": False, "b": False, "c": True}) is True
        g = BooleanFunction.from_output(aig, "g")
        assert g.evaluate({"a": False}) is True
        assert g.evaluate({"a": True}) is False

    def test_offset_cover(self):
        text = ".model m\n.inputs a b\n.outputs f\n.names a b f\n11 0\n.end\n"
        aig = parse_blif(text)
        f = BooleanFunction.from_output(aig, "f")
        # Offset cover: f is 0 exactly when a AND b.
        assert f.truth_table() == 0b0111

    def test_constant_covers(self):
        text = ".model m\n.inputs a\n.outputs one zero\n.names one\n1\n.names zero\n.end\n"
        aig = parse_blif(text)
        one = BooleanFunction.from_output(aig, "one")
        zero = BooleanFunction.from_output(aig, "zero")
        assert one.truth_table() == 1
        assert zero.truth_table() == 0

    def test_dont_care_pattern(self):
        text = ".model m\n.inputs a b c\n.outputs f\n.names a b c f\n1-0 1\n.end\n"
        aig = parse_blif(text)
        f = BooleanFunction.from_output(aig, "f")
        assert f.evaluate({"a": True, "b": False, "c": False}) is True
        assert f.evaluate({"a": True, "b": True, "c": False}) is True
        assert f.evaluate({"a": True, "b": True, "c": True}) is False

    def test_continuation_lines(self):
        text = ".model m\n.inputs a \\\nb\n.outputs f\n.names a b f\n11 1\n.end\n"
        aig = parse_blif(text)
        assert len(aig.inputs) == 2

    def test_comments_ignored(self):
        text = "# header\n.model m\n.inputs a\n.outputs f\n.names a f # buffer\n1 1\n.end\n"
        aig = parse_blif(text)
        assert len(aig.inputs) == 1

    def test_latch_parsing(self):
        text = (
            ".model seq\n.inputs d\n.outputs q_out\n"
            ".latch next q 0\n.names q q_out\n1 1\n.names d next\n1 1\n.end\n"
        )
        aig = parse_blif(text)
        assert len(aig.latches) == 1
        comb = aig.make_combinational()
        assert len(comb.latches) == 0

    def test_unsupported_construct_rejected(self):
        with pytest.raises(ParseError):
            parse_blif(".model m\n.inputs a\n.outputs f\n.subckt foo a=a f=f\n.end\n")

    def test_undriven_signal_rejected(self):
        with pytest.raises(ParseError):
            parse_blif(".model m\n.inputs a\n.outputs f\n.end\n")

    def test_duplicate_definition_rejected(self):
        text = ".model m\n.inputs a\n.outputs f\n.names a f\n1 1\n.names a f\n0 1\n.end\n"
        with pytest.raises(ParseError):
            parse_blif(text)

    def test_mixed_onset_offset_rejected(self):
        text = ".model m\n.inputs a b\n.outputs f\n.names a b f\n11 1\n00 0\n.end\n"
        with pytest.raises(ParseError):
            parse_blif(text)

    def test_malformed_cover_row_rejected(self):
        with pytest.raises(ParseError):
            parse_blif(".model m\n.inputs a\n.outputs f\n.names a f\n1x 1\n.end\n")

    def test_combinational_cycle_rejected(self):
        text = (
            ".model m\n.inputs a\n.outputs f\n"
            ".names g f\n1 1\n.names f g\n1 1\n.end\n"
        )
        with pytest.raises(ParseError):
            parse_blif(text)


class TestWriting:
    def test_roundtrip_semantics(self):
        original = parse_blif(SIMPLE_BLIF)
        text = aig_to_blif(original)
        reparsed = parse_blif(text)
        for name in ("f", "g"):
            f1 = BooleanFunction.from_output(original, name)
            f2 = BooleanFunction.from_output(reparsed, name)
            assert f1.semantically_equal(f2)

    def test_roundtrip_with_latches(self):
        text = (
            ".model seq\n.inputs d\n.outputs q_out\n"
            ".latch next q 1\n.names q q_out\n1 1\n.names d q t\n11 1\n.names t next\n1 1\n.end\n"
        )
        original = parse_blif(text)
        reparsed = parse_blif(aig_to_blif(original))
        assert len(reparsed.latches) == 1
        comb1 = original.make_combinational()
        comb2 = reparsed.make_combinational()
        for name in [n for n, _ in comb1.outputs]:
            f1 = BooleanFunction.from_output(comb1, name)
            f2 = BooleanFunction.from_output(comb2, name)
            assert f1.semantically_equal(f2)

    def test_file_roundtrip(self, tmp_path):
        original = parse_blif(SIMPLE_BLIF)
        path = tmp_path / "example.blif"
        write_blif(original, str(path))
        loaded = read_blif(str(path))
        assert BooleanFunction.from_output(loaded, "f").semantically_equal(
            BooleanFunction.from_output(original, "f")
        )

    def test_constant_output(self):
        from repro.aig.aig import AIG, TRUE_LIT

        aig = AIG("const")
        aig.add_input("a")
        aig.add_output("one", TRUE_LIT)
        reparsed = parse_blif(aig_to_blif(aig))
        assert BooleanFunction.from_output(reparsed, "one").truth_table() == 1
