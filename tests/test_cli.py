"""CLI: parsing, report determinism, exit codes, generation."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

from hyparc import arrangement, cli
from hyparc.arrangement import load
from hyparc.exact_linalg import DimensionMismatchError

from .oracles import make_witness


SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def runner():
    return CliRunner()


def four_lines_doc():
    return json.dumps({"n": 2, "forms": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]})


class TestParseInput:
    def test_fractions_and_integers(self):
        n, forms = cli.parse_input('{"n": 2, "forms": [["1/2", 0, 0], [0, -3, 1]]}')
        assert n == 2
        assert forms[0][0] == 0.5  # exact Fraction(1, 2)
        # JSON integers stay int; only "p/q" strings become Fraction.
        assert [[type(c) for c in row] for row in forms] == [[Fraction, int, int], [int, int, int]]

    def test_float_rejected(self):
        with pytest.raises(cli.InputError, match="p/q"):
            cli.parse_input('{"n": 2, "forms": [[0.5, 0, 0]]}')

    def test_float_n_rejected_as_n(self):
        with pytest.raises(cli.InputError, match=r"^'n' must be an integer, got 1\.0$"):
            cli.parse_input('{"n": 1.0, "forms": [[1, 0]]}')

    def test_float_string_rejected(self):
        with pytest.raises(cli.InputError, match="entry 0"):
            cli.parse_input('{"n": 2, "forms": [["0.5", 0, 0]]}')

    def test_missing_field(self):
        with pytest.raises(cli.InputError, match="forms"):
            cli.parse_input('{"n": 2}')

    def test_boolean_rejected(self):
        with pytest.raises(cli.InputError, match="boolean"):
            cli.parse_input('{"n": 2, "forms": [[true, 0, 0]]}')


class TestAnalyze:
    def test_four_lines_end_to_end(self, runner):
        result = runner.invoke(cli.main, ["analyze", "-"], input=four_lines_doc())
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["d_max"] == 1
        assert len(doc["witness_partition"]) == 2
        assert doc["witness_subspace"]["verified"]
        assert doc["witness_subspace"]["dim"] == 1
        assert doc["cross_check"] == []

    def test_single_form(self, runner):
        doc = json.dumps({"n": 2, "forms": [[1, 0, 0]]})
        result = runner.invoke(cli.main, ["analyze", "-"], input=doc)
        assert result.exit_code == 0
        out = json.loads(result.output)
        assert out["d_max"] == 2
        assert out["witness_partition"] is None
        assert out["witness_subspace"]["dim"] == 2

    def test_five_general_position_lines(self, runner):
        gen = runner.invoke(
            cli.main, ["generate", "--kind", "general_position", "-n", "2", "-r", "5"]
        )
        result = runner.invoke(cli.main, ["analyze", "-"], input=gen.output)
        doc = json.loads(result.output)
        assert doc["d_max"] == 0
        assert doc["verdicts"]["finiteness"] is True

    def test_deterministic_reports(self, runner):
        first = runner.invoke(cli.main, ["analyze", "-"], input=four_lines_doc())
        second = runner.invoke(cli.main, ["analyze", "-"], input=four_lines_doc())
        assert first.output == second.output

    def test_emitted_witness_reverifies(self, runner):
        result = runner.invoke(cli.main, ["analyze", "-"], input=four_lines_doc())
        doc = json.loads(result.output)
        a = load(doc["profile"]["n"], doc["forms"])
        w = make_witness(a, doc["witness_subspace"]["point_basis"])
        assert w.verification.ok
        assert w.dim == doc["witness_subspace"]["dim"]

    def test_no_witness_flag(self, runner):
        result = runner.invoke(
            cli.main, ["analyze", "--no-witness", "-"], input=four_lines_doc()
        )
        assert json.loads(result.output)["witness_subspace"] is None

    def test_text_format(self, runner):
        result = runner.invoke(
            cli.main, ["analyze", "--text", "-"], input=four_lines_doc()
        )
        assert result.exit_code == 0
        assert "d_max: 1" in result.output

    def test_timing_flag_adds_field(self, runner):
        result = runner.invoke(
            cli.main, ["analyze", "--timing", "-"], input=four_lines_doc()
        )
        assert "timing_seconds" in json.loads(result.output)

    def test_text_timing_prints_the_timing(self, runner):
        timed = runner.invoke(
            cli.main, ["analyze", "--text", "--timing", "-"], input=four_lines_doc()
        )
        plain = runner.invoke(cli.main, ["analyze", "--text", "-"], input=four_lines_doc())
        assert timed.exit_code == plain.exit_code == 0
        assert timed.output.splitlines()[-1].startswith("timing: ")
        assert timed.output.endswith(" s\n")
        assert "timing" not in plain.output

    def test_non_utf8_file_is_an_input_error(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe")
        result = runner.invoke(cli.main, ["analyze", str(path)])
        assert result.exit_code == 1
        assert result.stderr.startswith("input error: ")

    @pytest.mark.parametrize("form", [
        "[1, " + "9" * 5000 + "]", '["1/' + "9" * 5000 + '", 1]',
    ], ids=["integer", "fraction"])
    def test_coefficient_beyond_the_int_str_digit_limit(self, form):
        # A subprocess, because another test in this process may have lifted
        # the interpreter's int/str conversion limit already.  Both forms are
        # the projective class of (1, 99...9).
        doc = '{"n": 1, "forms": [' + form + ', [0, 1]]}'
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run(
            [sys.executable, "-m", "hyparc.cli", "analyze", "-"],
            input=doc, capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout, parse_int=str)
        assert out["forms"] == [["0", "1"], ["1", "9" * 5000]]

    @pytest.mark.parametrize(
        "entry",
        ["1\n", "2/3\n", "\u0661", "\u0661/\u0663"],
        ids=["newline_integer", "newline_fraction", "arabic_indic_integer", "arabic_indic_fraction"],
    )
    def test_trailing_newline_or_non_ascii_digit_is_an_input_error(self, runner, entry):
        doc = json.dumps({"n": 1, "forms": [[entry, 1], [0, 1]]})
        result = runner.invoke(cli.main, ["analyze", "-"], input=doc)
        assert result.exit_code == 1
        assert result.stderr.startswith("input error: ")

    def test_deeply_nested_json_is_an_input_error(self, runner):
        result = runner.invoke(cli.main, ["analyze", "-"], input="[" * 100_000 + "]" * 100_000)
        assert result.exit_code == 1
        assert result.stderr.startswith("input error: invalid JSON: maximum recursion depth")
        assert result.stderr.count("\n") == 1  # one line, no traceback

    def test_huge_rejected_entry_gives_a_short_input_error(self, runner):
        doc = json.dumps({"n": 1, "forms": [[list(range(100_000)), 1], [0, 1]]})
        result = runner.invoke(cli.main, ["analyze", "-"], input=doc)
        assert result.exit_code == 1
        assert result.stderr.startswith("input error: form 0, entry 0: [0, 1, 2")
        assert result.stderr.count("\n") == 1 and len(result.stderr) < 200

    def test_input_error_exit_code(self, runner):
        result = runner.invoke(
            cli.main, ["analyze", "-"], input='{"n": 2, "forms": [[0, 0, 0]]}'
        )
        assert result.exit_code == 1

    def test_cross_check_exit_code(self, runner, monkeypatch):
        monkeypatch.setattr(cli.corollaries, "cross_check", lambda a, rep, v: ["fake"])
        result = runner.invoke(cli.main, ["analyze", "-"], input=four_lines_doc())
        assert result.exit_code == 3

    def test_invalid_partition_from_the_search_is_internal(self, runner, monkeypatch):
        # {x2, x0+x1+x2} | {x1} | {x0} fails the criterion; the search never
        # returns it, so its witness failing is a bug, not an input error.
        monkeypatch.setattr(
            cli.dimension_search, "max_valid_parts", lambda a: (3, ((0, 3), (1,), (2,)))
        )
        result = runner.invoke(cli.main, ["analyze", "-"], input=four_lines_doc())
        assert result.exit_code == 2
        assert result.stderr.startswith("internal error")
        assert "separation criterion (form 1)" in result.stderr

    def test_error_after_load_is_internal(self, runner, monkeypatch):
        # The input is valid once ``load`` accepts it, so a ValueError from a
        # later stage is a bug, not an input error.
        def mismatch(chain):
            raise DimensionMismatchError("operands in different dimensions")

        monkeypatch.setattr(cli.witness, "witness_subspace", mismatch)
        result = runner.invoke(cli.main, ["analyze", "-"], input=four_lines_doc())
        assert result.exit_code == 2
        assert result.stderr.startswith("internal error")
        assert "operands in different dimensions" in result.stderr

    def test_usage_error_exit_code(self, runner):
        result = runner.invoke(
            cli.main, ["analyze", "--brute-force", "-"], input=four_lines_doc()
        )
        assert result.exit_code == 1

    def test_refused_exit_code(self, runner):
        doc = json.dumps(cli.generate_document("general_position", 2, 23))
        result = runner.invoke(cli.main, ["analyze", "-"], input=doc)
        assert result.exit_code == 4
        assert "refused" in result.stderr

    def test_pencil_of_17_lines_answers(self):
        # Above r = 16 the search used to enumerate bipartitions unfiltered
        # and ran for minutes; the timeout turns a regression into a failure.
        doc = json.dumps(cli.generate_document("pencil", 2, 17))
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run(
            [sys.executable, "-m", "hyparc.cli", "analyze", "-"],
            input=doc, capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["d_max"] == 1


def counting(monkeypatch, name):
    """Count the calls of ``arrangement.<name>`` through every hyparc module."""
    original = getattr(arrangement, name)
    calls = []

    def counted(a):
        calls.append(a)
        return original(a)

    for module in [m for k, m in sys.modules.items() if k.split(".")[0] == "hyparc"]:
        for key, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, key, counted)
    return calls


class TestFactsComputedOnce:
    @pytest.mark.parametrize("kind, n, r", [
        ("general_position", 2, 5), ("random", 3, 7), ("pencil", 3, 4),
    ])
    def test_one_report_computes_rank_and_s_once(self, monkeypatch, kind, n, r):
        s_calls = counting(monkeypatch, "compute_s")
        m_calls = counting(monkeypatch, "compute_m")
        doc = cli.generate_document(kind, n, r)
        cli.build_report(load(doc["n"], doc["forms"]))
        assert len(s_calls) == 1
        assert len(m_calls) == 1


class TestGenerate:
    def test_general_position(self, runner):
        result = runner.invoke(
            cli.main, ["generate", "--kind", "general_position", "-n", "2", "-r", "5"]
        )
        doc = json.loads(result.output)
        a = load(doc["n"], doc["forms"])
        from hyparc.arrangement import is_general_position

        assert a.r == 5 and is_general_position(a)

    def test_pencil_concurrent_lines(self, runner):
        result = runner.invoke(
            cli.main, ["generate", "--kind", "pencil", "-n", "2", "-r", "3"]
        )
        doc = json.loads(result.output)
        from hyparc.arrangement import compute_m

        a = load(doc["n"], doc["forms"])
        assert a.r == 3 and compute_m(a) == 0

    def test_random_is_seed_deterministic(self, runner):
        args = ["generate", "--kind", "random", "-n", "3", "-r", "6", "--seed", "9"]
        assert runner.invoke(cli.main, args).output == runner.invoke(cli.main, args).output

    def test_random_different_seeds_differ(self, runner):
        a = runner.invoke(cli.main, ["generate", "--kind", "random", "-n", "3", "-r", "6", "--seed", "1"])
        b = runner.invoke(cli.main, ["generate", "--kind", "random", "-n", "3", "-r", "6", "--seed", "2"])
        assert a.output != b.output

    def test_impossible_pencil(self, runner):
        result = runner.invoke(
            cli.main, ["generate", "--kind", "pencil", "-n", "1", "-r", "3"]
        )
        assert result.exit_code == 1
