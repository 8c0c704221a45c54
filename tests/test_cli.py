"""Tests for the ``step`` command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.io.blif import parse_blif, read_blif


@pytest.fixture
def adder_blif(tmp_path):
    path = tmp_path / "adder.blif"
    assert main(["generate", "rca", "--width", "2", "--out", str(path)]) == 0
    return str(path)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_decompose_defaults(self):
        args = build_parser().parse_args(["decompose", "foo.blif"])
        assert args.operator == "or"
        assert args.engine is None

    def test_engine_repeatable(self):
        args = build_parser().parse_args(
            ["decompose", "foo.blif", "--engine", "STEP-QD", "--engine", "LJH"]
        )
        assert args.engine == ["STEP-QD", "LJH"]

    def test_invalid_engine_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["decompose", "foo.blif", "--engine", "XYZ"])


class TestGenerate:
    def test_generate_writes_parseable_blif(self, adder_blif):
        aig = read_blif(adder_blif)
        assert len(aig.inputs) == 4
        assert len(aig.outputs) == 3

    def test_generate_bench_extension(self, tmp_path):
        path = tmp_path / "parity.bench"
        assert main(["generate", "parity", "--width", "3", "--out", str(path)]) == 0
        assert "INPUT" in path.read_text()

    def test_generate_unknown_family(self, tmp_path, capsys):
        path = tmp_path / "x.blif"
        assert main(["generate", "nonsense", "--out", str(path)]) == 1
        assert "unknown circuit family" in capsys.readouterr().err


class TestInfo:
    def test_info_on_generated_circuit(self, adder_blif, capsys):
        assert main(["info", adder_blif]) == 0
        out = capsys.readouterr().out
        assert "inputs   : 4" in out
        assert "#InM" in out

    def test_info_on_library_circuit(self, capsys):
        assert main(["info", "c17"]) == 0
        assert "outputs  : 2" in capsys.readouterr().out


class TestDecompose:
    def test_decompose_generated_circuit(self, adder_blif, capsys):
        code = main(
            [
                "decompose",
                adder_blif,
                "--engine",
                "STEP-MG",
                "--engine",
                "STEP-QD",
                "--max-outputs",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "STEP-MG" in out and "STEP-QD" in out
        assert "#Dec" in out

    def test_decompose_library_circuit_with_verify(self, capsys):
        code = main(
            ["decompose", "majority3", "--engine", "STEP-QD", "--verify"]
        )
        assert code == 0
        assert "STEP-QD" in capsys.readouterr().out

    def test_decompose_default_engine(self, capsys):
        assert main(["decompose", "full_adder", "--operator", "xor"]) == 0
        out = capsys.readouterr().out
        assert "STEP-QD" in out

    def test_decompose_jobs_and_dedup_flags(self, adder_blif, capsys):
        code = main(
            [
                "decompose",
                adder_blif,
                "--engine",
                "STEP-MG",
                "--jobs",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        # The effective jobs count depends on pool availability (the
        # scheduler may fall back to sequential); only the line's presence
        # is environment-independent.
        assert "jobs = " in out
        assert "cache hits" in out

    def test_decompose_no_dedup(self, adder_blif, capsys):
        code = main(
            ["decompose", adder_blif, "--engine", "STEP-MG", "--no-dedup"]
        )
        assert code == 0
        assert "cache hits = 0" in capsys.readouterr().out

    def test_jobs_must_be_positive(self, adder_blif, capsys):
        assert main(
            ["decompose", adder_blif, "--engine", "STEP-MG", "--jobs", "0"]
        ) == 1
        assert "jobs" in capsys.readouterr().err

    def test_circuit_timeout_composes_with_jobs(self, adder_blif, capsys):
        code = main(
            [
                "decompose",
                adder_blif,
                "--engine",
                "STEP-MG",
                "--jobs",
                "2",
                "--circuit-timeout",
                "300",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "jobs = " in out
        assert "skipped" not in out  # generous budget: nothing cut off

    def test_zero_circuit_timeout_reports_skipped_outputs(self, adder_blif, capsys):
        code = main(
            [
                "decompose",
                adder_blif,
                "--engine",
                "STEP-MG",
                "--circuit-timeout",
                "0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "skipped" in out
        assert "past the circuit budget" in out

    def test_cache_dir_warms_second_run(self, adder_blif, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        argv = [
            "decompose",
            adder_blif,
            "--engine",
            "STEP-MG",
            "--cache-dir",
            cache_dir,
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "persistent hits = 0" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "persistent hits = 0" not in warm
        assert "persistent hits = " in warm

    def test_cache_dir_conflicts_with_no_dedup(self, adder_blif, tmp_path, capsys):
        code = main(
            [
                "decompose",
                adder_blif,
                "--engine",
                "STEP-MG",
                "--cache-dir",
                str(tmp_path),
                "--no-dedup",
            ]
        )
        assert code == 1
        assert "--no-dedup" in capsys.readouterr().err


class TestFlagValidation:
    """Malformed flag values fail with one-line errors, exit code 1."""

    def test_max_outputs_below_one_rejected(self, adder_blif, capsys):
        assert main(["decompose", adder_blif, "--max-outputs", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "--max-outputs" in err
        assert "Traceback" not in err and err.count("\n") == 1

    def test_negative_max_outputs_rejected(self, adder_blif, capsys):
        assert main(["decompose", adder_blif, "--max-outputs", "-3"]) == 1
        assert "--max-outputs" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--qbf-timeout", "--output-timeout"])
    @pytest.mark.parametrize("value", ["0", "-2.5"])
    def test_non_positive_timeouts_rejected(self, adder_blif, capsys, flag, value):
        assert main(["decompose", adder_blif, flag, value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert flag in err
        assert err.count("\n") == 1

    def test_negative_circuit_timeout_rejected(self, adder_blif, capsys):
        assert main(["decompose", adder_blif, "--circuit-timeout", "-1"]) == 1
        assert "--circuit-timeout" in capsys.readouterr().err
        # --circuit-timeout 0 stays legal: it reports every output skipped
        # (covered by test_zero_circuit_timeout_reports_skipped_outputs).

    def test_validation_runs_before_circuit_loading(self, capsys):
        """Flag errors surface even when the circuit path is also bad."""
        assert main(["decompose", "no_such.blif", "--max-outputs", "0"]) == 1
        assert "--max-outputs" in capsys.readouterr().err


class TestErrorReporting:
    def test_missing_circuit_file_is_one_line_error(self, capsys):
        assert main(["decompose", "no_such_circuit.blif"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "no_such_circuit.blif" in err
        assert "Traceback" not in err

    def test_missing_file_for_info(self, capsys):
        assert main(["info", "missing.bench"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_malformed_circuit_file(self, tmp_path, capsys):
        path = tmp_path / "garbage.blif"
        path.write_text(".model broken\n.names a b\nnot-a-cover\n")
        assert main(["decompose", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_binary_circuit_file(self, tmp_path, capsys):
        path = tmp_path / "binary.blif"
        path.write_bytes(b"\xff\xfe\x00\x80junk")
        assert main(["info", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_unwritable_output_path(self, tmp_path, capsys):
        target = tmp_path / "no" / "such" / "dir" / "out.blif"
        assert main(["generate", "rca", "--width", "2", "--out", str(target)]) == 1
        assert capsys.readouterr().err.startswith("error:")
