"""The expression DSL and the command-line interface."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qmv import verify
from qmv.algebra import AlgebraElement, Shape, gen
from qmv.cli import main
from qmv.expr import ExprError, SessionConfig, evaluate_source, parse
from qmv.localize import LocalizedElement, x_prime, x_prime_minor
from qmv.minors import minor, qdet
from qmv.scalar import LaurentScalar

C22 = SessionConfig(m=2, n=2)
C33 = SessionConfig(m=3, n=3)


class TestParse:
    def test_det_definition_at_two(self):
        ast = parse("X[1,1]*X[2,2] - q*X[1,2]*X[2,1]")
        assert evaluate_source("X[1,1]*X[2,2] - q*X[1,2]*X[2,1]", C22) == LocalizedElement(qdet(Shape(2, 2)))
        assert ast[0] == "sub"

    def test_derived_generator(self):
        assert evaluate_source("Xp[2,1]", C22) == x_prime(Shape(2, 2), 2, 1)

    def test_out_of_shape_index(self):
        with pytest.raises(ValueError):
            evaluate_source("X[5,1]", C33)

    def test_position_in_errors(self):
        with pytest.raises(ExprError) as err:
            parse("X[1,1] + %")
        assert "position 9" in str(err.value)

    def test_malformed_set(self):
        with pytest.raises(ExprError, match="set"):
            parse("M[{2,1}|{1,2}]")
        with pytest.raises(ExprError):
            parse("M[{1,2|{1,2}]")

    def test_negative_power_only_on_q(self):
        assert evaluate_source("q^-1 * q", C22) == LocalizedElement(AlgebraElement.one(Shape(2, 2)))
        with pytest.raises(ExprError, match="negative powers"):
            parse("X[1,1]^-1")

    def test_negative_power_of_the_corner_inverse(self):
        # inv1n is the base, so the message must not point back to it
        with pytest.raises(ExprError, match="negative powers") as err:
            parse("inv1n^-1")
        assert "via inv1n" not in str(err.value) and err.value.pos == 8

    def test_leading_minus(self):
        s = Shape(2, 2)
        assert evaluate_source("-X[1,1] + X[1,1]", C22) == LocalizedElement(AlgebraElement.zero(s))

    def test_trailing_junk(self):
        with pytest.raises(ExprError, match="trailing"):
            parse("X[1,1] X[2,2]")

    @pytest.mark.parametrize("source,message,pos", [
        ("X[1,]", "expected an integer", 4),
        ("X[1,1", "expected ']'", 5),
        ("X[1,1]^", "expected an integer", 7),
        ("X[1,1]^- 1", "expected an integer", 7),  # a sign must touch its digits
        ("A(1,2)3", "expected '@'", 6),
        ("Dq3", "expected '@'", 2),
        # an integer is ASCII digits; str.isdigit holds for these too
        ("X[1,\u0661]", "expected an integer", 4),
        ("X[1,\u00b2]", "expected an integer", 4),
        ("q^\u0663", "expected an integer", 2),
    ])
    def test_parse_errors_name_their_position(self, source, message, pos):
        with pytest.raises(ExprError) as err:
            parse(source)
        assert str(err.value) == f"{message} (at position {pos})" and err.value.pos == pos

    def test_whitespace_may_separate_the_caret_from_a_signed_exponent(self):
        assert parse("q^ -1") == ("pow", ("q",), -1)


class TestEvaluate:
    def test_det_atom(self):
        assert evaluate_source("Dq@2", C22) == LocalizedElement(qdet(Shape(2, 2)))
        # leading-block determinant inside a larger grid
        assert evaluate_source("Dq@2", C33) == LocalizedElement(minor(Shape(3, 3), (1, 2), (1, 2)))

    def test_semicentrality_expression(self):
        got = evaluate_source(
            "M[{1,2}|{1,2}] * X[1,1] - X[1,1] * M[{1,2}|{1,2}]", C22)
        assert got.is_zero()

    def test_corner_inverse_cancels(self):
        assert evaluate_source("inv1n * X[1,2]", C22) == LocalizedElement(AlgebraElement.one(Shape(2, 2)))
        assert evaluate_source("inv1n^2 * X[1,3]^2", C33) == LocalizedElement(AlgebraElement.one(Shape(3, 3)))

    def test_complement_atom(self):
        assert evaluate_source("A(2,2)@2", C22) == LocalizedElement(gen(Shape(2, 2), 1, 1))
        assert evaluate_source("A(1,1)@1", C33) == LocalizedElement(AlgebraElement.one(Shape(3, 3)))

    def test_primed_minor_atom(self):
        assert evaluate_source("Mp[{2,3}|{1,2}]", C33) == x_prime_minor(Shape(3, 3), (2, 3), (1, 2))

    def test_scalar_power(self):
        s = Shape(2, 2)
        assert evaluate_source("q^3 * 2", C22) == LocalizedElement(
            AlgebraElement.from_scalar(s, LaurentScalar({3: 2})))


def test_round_trip_canonical_output():
    # parse(print(e)) evaluates back to e
    shape = Shape(3, 3)
    config = C33
    samples = [
        LocalizedElement(gen(shape, 2, 2) * gen(shape, 1, 1) * gen(shape, 2, 1)),
        LocalizedElement(qdet(shape)),
        x_prime(shape, 2, 1),
        x_prime_minor(shape, (2, 3), (1, 2)),
        LocalizedElement(qdet(shape), 1),
        LocalizedElement(AlgebraElement.zero(shape)),
        LocalizedElement(AlgebraElement.from_scalar(shape, LaurentScalar({-2: 3, 1: -1}))),
    ]
    for e in samples:
        assert evaluate_source(str(e), config) == e, str(e)


class TestCommands:
    def test_normalize_canonical_output(self, capsys):
        assert main(["normalize", "--m", "2", "--n", "2", "X[2,2]*X[1,1]"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "X[1,1]*X[2,2] - (q - q^-1)*X[1,2]*X[2,1]"

    def test_equal_central_determinant(self, capsys):
        code = main(["equal", "--m", "3", "--n", "3", "Dq@3 * X[2,2]", "X[2,2] * Dq@3"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "equal"

    def test_equal_failure_exit_code_and_witness(self, capsys):
        code = main(["equal", "--m", "2", "--n", "2", "X[1,1]", "X[2,2]"])
        assert code == 1
        out = capsys.readouterr().out
        assert "not equal" in out and "witness" in out

    def test_equal_witness_is_bounded(self, capsys):
        assert main(["equal", "--n", "2", "X[1,1]", "X[2,2]"]) == 1
        assert capsys.readouterr().out == "not equal\nwitness: X[1,1] - X[2,2]\n"
        assert main(["equal", "--n", "4", "Dq@4", "0"]) == 1
        witness = capsys.readouterr().out.splitlines()[1]
        assert witness.count("X[1,") == 8 and witness.endswith(" + ... (24 terms)")

    def test_parse_error_exit_code(self, capsys):
        assert main(["normalize", "--m", "2", "--n", "2", "X[1,1] +"]) == 2
        assert "error" in capsys.readouterr().err

    def test_non_ascii_digits_exit_2_with_a_position(self, capsys):
        for source, pos in (("X[1,\u0661]", 4), ("X[1,\u00b2]", 4), ("q^\u0663", 2)):
            assert main(["normalize", "--n", "2", source]) == 2
            out = capsys.readouterr()
            assert out.out == "" and out.err == f"error: expected an integer (at position {pos})\n"

    def test_an_over_long_integer_exits_2_with_a_position(self, capsys):
        limit, digits = sys.get_int_max_str_digits(), "1" * 5000
        for source, pos in ((f"X[1,{digits}]", 4), (f"q^{digits}", 2), (f"q^-{digits}", 3)):
            assert main(["normalize", "--n", "2", source]) == 2
            out = capsys.readouterr()
            assert out.out == "" and out.err == (
                f"error: integer of 5,000 digits, more than the limit of {limit:,} "
                f"(at position {pos})\n")

    def test_an_index_beyond_the_grid_exits_2_without_echoing_it(self, capsys):
        # no grid holds an index of 64 or more, so the parser refuses one at
        # its position; it used to echo every digit of a 4,300-digit index
        ones = "1" * 4300
        for source, pos in ((f"X[1,{ones}]", 4), (f"Xp[{ones},1]", 3), (f"M[{{1,{ones}}}|{{1,2}}]", 5),
                            (f"A(1,2)@{ones}", 7), (f"Dq@{ones}", 3), ("X[64,1]", 2)):
            assert main(["normalize", "--n", "2", source]) == 2
            out = capsys.readouterr()
            assert out.out == "" and len(out.err.encode()) < 200
            assert out.err.endswith(f"(at position {pos})\n") and "111" not in out.err
        assert main(["normalize", "--n", "2", "X[1,63]"]) == 2  # below 64: the shape's message
        assert capsys.readouterr().err == "error: generator X[1,63] out of range for shape 2x2\n"
        assert main(["normalize", "--n", "2", "64*X[1,1]^64"]) == 0  # not indices

    def test_json_reports_are_the_encoder_text_and_a_newline(self, capsys):
        # every document is streamed; its bytes are json.dumps(..., indent=2, sort_keys=True) + "\n"
        fits = [verify.fit_exponents("row-laplace", n=2).as_dict()]
        assert main(["fit-exponents", "row-laplace", "--n", "2", "--format", "json"]) == 0
        assert capsys.readouterr().out == json.dumps(fits, indent=2, sort_keys=True) + "\n"
        assert main(["equal", "--n", "2", "X[1,2]*X[1,1]", "X[1,1]*X[1,2]", "--format", "json"]) == 1
        payload = {"lhs": "X[1,2]*X[1,1]", "rhs": "X[1,1]*X[1,2]", "equal": False,
                   "witness": "-(1 - q^-1)*X[1,1]*X[1,2]"}
        assert capsys.readouterr().out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
        for argv in (["suite", "semicentrality", "--n", "3"], ["jordan", "--n", "3"]):
            assert main([*argv, "--format", "json"]) == 0
            out = capsys.readouterr().out
            # the timings differ between runs, so the document is re-encoded from itself
            assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"

    def test_out_of_shape_exit_code(self, capsys):
        assert main(["normalize", "--m", "3", "--n", "3", "X[5,1]"]) == 2

    def test_out_of_shape_minor_names_its_index_sets(self, capsys):
        assert main(["normalize", "--n", "3", "M[{4}|{1}]"]) == 2
        assert "minor [{4}|{1}] does not fit in shape 3x3" in capsys.readouterr().err

    def test_out_of_shape_derived_minor_names_its_index_sets(self, capsys):
        assert main(["normalize", "--n", "3", "Mp[{2}|{3}]"]) == 2
        assert "derived minor [{2}|{3}]' does not fit in shape 3x3" in capsys.readouterr().err

    def test_missing_shape_exit_code(self, capsys):
        assert main(["normalize", "X[1,1]"]) == 2

    def test_usage_error_exit_code(self, capsys):
        assert main(["no-such-command"]) == 2

    def test_suite_pass_and_json(self, capsys):
        assert main(["suite", "thm21", "--n", "3", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "pass"
        assert payload["shape"] == {"m": 3, "n": 3}
        assert all(c["status"] == "pass" for c in payload["checks"])

    def test_repeated_calls_share_no_state(self, capsys):
        # one process, one parser: each call sees only its own arguments
        assert main(["normalize", "--m", "2", "--n", "2", "X[2,2]*X[1,1]"]) == 0
        out = capsys.readouterr()
        assert out.out.strip() == "X[1,1]*X[2,2] - (q - q^-1)*X[1,2]*X[2,1]"
        assert main(["no-such-command"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "invalid choice" in out.err
        assert main(["equal", "--n", "3", "Dq@3 * X[2,2]", "X[2,2] * Dq@3"]) == 0
        assert capsys.readouterr().out.strip() == "equal"
        assert main(["suite", "thm21", "--n", "3", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "pass" and payload["shape"] == {"m": 3, "n": 3}
        assert main(["normalize", "X[1,1]"]) == 2
        assert "shape required" in capsys.readouterr().err

    def test_suite_unknown_exit_code(self, capsys):
        assert main(["suite", "nope", "--n", "2"]) == 2

    def test_det_command(self, capsys):
        assert main(["det", "--n", "2"]) == 0
        assert capsys.readouterr().out.strip() == "X[1,1]*X[2,2] - q*X[1,2]*X[2,1]"

    def test_minor_command(self, capsys):
        assert main(["minor", "--m", "3", "--n", "3", "{1,2}", "{1,3}"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == str(minor(Shape(3, 3), (1, 2), (1, 3)))

    def test_fit_exponents_command(self, capsys):
        assert main(["fit-exponents", "row-laplace", "--n", "2"]) == 0
        assert "matches frozen table" in capsys.readouterr().out
        assert main(["fit-exponents"]) == 0  # verifies the full table

    def test_jordan_command(self, capsys):
        assert main(["jordan", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert "no solution" in out

    def test_json_output_is_deterministic(self, capsys):
        main(["suite", "appendix", "--m", "3", "--n", "3", "--format", "json"])
        first = json.loads(capsys.readouterr().out)
        main(["suite", "appendix", "--m", "3", "--n", "3", "--format", "json"])
        second = json.loads(capsys.readouterr().out)
        first.pop("timings"), second.pop("timings")
        assert first == second

    def test_normalize_json_format(self, capsys):
        assert main(["normalize", "--m", "2", "--n", "2", "X[1,1]*X[1,2]",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"input": "X[1,1]*X[1,2]", "normal_form": "X[1,1]*X[1,2]"}

    def test_det_rejects_rectangular_shape(self, capsys):
        assert main(["det", "--m", "2", "--n", "3"]) == 2

    def test_square_only_suite_on_rectangle_is_usage_error(self, capsys):
        assert main(["suite", "laplace", "--m", "3", "--n", "4"]) == 2

    @pytest.mark.parametrize("argv,message", [
        (["centrality", "--m", "3", "--n", "4"], "centrality of the determinant needs a square shape"),
        (["thm21", "--m", "3", "--n", "4"], "determinant reduction needs a square shape"),
        (["jordan-obstruction", "--m", "3", "--n", "4"],
         "the obstruction computation needs a square shape"),
        (["cor22", "--m", "3", "--n", "3", "--t", "4"], "t=4 out of range for shape 3x3"),
    ])
    def test_suite_refuses_a_shape_it_does_not_take(self, capsys, argv, message):
        assert main(["suite", *argv]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == f"error: {message}\n"

    def test_square_only_suite_given_only_m_runs_square(self, capsys):
        assert main(["suite", "laplace", "--m", "3", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["shape"] == {"m": 3, "n": 3} and payload["status"] == "pass"
        assert len(payload["checks"]) == 18

    def test_minor_malformed_set(self, capsys):
        assert main(["minor", "--m", "3", "--n", "3", "{1;2}", "{1,2}"]) == 2

    def test_oversized_determinant_fails_fast(self, capsys):
        assert main(["det", "--n", "12"]) == 2
        assert "12! = 479,001,600 terms" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["suite", "jordan-obstruction"], ["jordan"]])
    def test_oversized_obstruction_fails_fast(self, capsys, monkeypatch, argv):
        # refused from the bidegrees, before the 9! = 362,880-term determinant
        monkeypatch.setattr(verify, "qdet", lambda shape: pytest.fail("built the determinant"))
        assert main([*argv, "--n", "9"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "the obstruction system at n=9 has 40,320 columns" in out.err

    def test_grid_beyond_the_letter_code_is_usage_error(self, capsys):
        assert main(["normalize", "--n", "64", "X[1,1]"]) == 2
        assert "too large" in capsys.readouterr().err

    def test_exponent_beyond_the_letter_code_is_usage_error(self, capsys):
        # refused before the power loop starts
        assert main(["normalize", "--n", "2", f"X[1,1]^{2**18}"]) == 2
        assert main(["normalize", "--n", "2", f"(X[1,1]*inv1n)^{2**18}"]) == 2
        assert "exponent limit" in capsys.readouterr().err

    def test_a_power_reads_the_degree_of_its_canonical_base(self, capsys):
        # X[1,2]^4*inv1n^4 is 1 in the 2x2 localization: degree 0, whatever
        # corner powers an uncanonical numerator would carry
        assert main(["normalize", "--n", "2", "(X[1,2]^4*inv1n^4)^65536"]) == 0
        assert capsys.readouterr().out == "1\n"
        # X[1,1]*X[1,2]*inv1n is X[1,1], of degree 1
        assert main(["normalize", "--n", "2", f"(X[1,1]*X[1,2]*inv1n)^{2**18}"]) == 2
        assert capsys.readouterr().err == (
            "error: product of degree up to 262144 exceeds the letter exponent limit 262143\n")

    def test_exponent_guards_read_canonical_operands(self, capsys):
        # the flat value of P*inv1n, P = X[1,3]^262143, keeps the corner power
        # its canonical form X[1,3]^262142 cancels; moving it once more would
        # pass the letter exponent limit
        top = "(X[1,3]^511)^513"
        assert main(["normalize", "--n", "3", f"{top}*inv1n*X[1,3]"]) == 0
        assert capsys.readouterr().out == "X[1,3]^262143\n"
        assert main(["normalize", "--n", "3", f"{top}*inv1n + X[1,3]^2*inv1n^2"]) == 0
        assert capsys.readouterr().out == "1 + X[1,3]^262142\n"
        assert main(["normalize", "--n", "3", f"{top}*X[1,3]"]) == 2
        assert capsys.readouterr().err == (
            "error: corner exponent 262144 exceeds the letter exponent limit 262143\n")

    @pytest.mark.parametrize("sides", [(f"X[1,1]^{2**18}", "1"), ("1", f"X[1,1]^{2**18}")])
    def test_equal_refuses_an_over_limit_exponent_on_either_side(self, capsys, sides):
        assert main(["equal", "--n", "3", *sides]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "exponent limit" in out.err

    def test_equal_reports_an_error_in_lhs_before_a_parse_error_in_rhs(self, capsys):
        assert main(["equal", "--n", "3", "X[4,1]", "X[1,"]) == 2
        assert capsys.readouterr().err == "error: generator X[4,1] out of range for shape 3x3\n"
        assert main(["equal", "--n", "3", "X[1,1]", "X[1,"]) == 2
        assert capsys.readouterr().err == "error: expected an integer (at position 4)\n"

    def test_minor_size_flag_only_where_it_is_read(self, capsys):
        assert main(["suite", "lemma23", "--m", "3", "--n", "3", "--t", "2"]) == 0
        assert main(["fit-exponents", "lemma23-eq1", "--t", "2"]) == 0
        assert main(["fit-exponents", "row-laplace", "--n", "2", "--t", "2"]) == 2
        assert main(["normalize", "--m", "3", "--n", "3", "--t", "2", "X[1,1]"]) == 2
        assert main(["jordan", "--n", "3", "--t", "2"]) == 2
        capsys.readouterr()
        for name in ("laplace", "grading", "thm21", "centrality", "pbw-count"):
            assert main(["suite", name, "--n", "3", "--t", "2"]) == 2
            out = capsys.readouterr()
            assert out.out == "" and f"suite {name} takes no t" in out.err

    @pytest.mark.parametrize("argv", [["thm25", "--n", "4"], ["lemma23", "--n", "3"],
                                      ["cor22", "--n", "3"]])
    def test_minor_size_below_the_suite_floor_is_usage_error(self, capsys, argv):
        # thm25 used to report "0 checks, pass" here, and lemma23 an unrelated error
        assert main(["suite", *argv, "--t", "1"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and f"suite {argv[0]} takes t >= 2, got t=1" in out.err

    @pytest.mark.parametrize("argv,message", [
        (["thm25-2prime", "--t", "9"], "t=9 out of range for thm25-2prime on 3x4: 2..3"),
        (["lemma23-eq1", "--t", "-1"], "t=-1 out of range for lemma23-eq1 on 3x3: 1..2"),
        (["lemma23-eq1", "--t", "0"], "t=0 out of range for lemma23-eq1 on 3x3: 1..2"),
        (["row-laplace", "--n", "2", "--t", "5"], "family row-laplace takes no t"),
        (["col-laplace", "--n", "2", "--t", "2"], "family col-laplace takes no t"),
        (["thm25-2prime", "--m", "3", "--n", "3", "--t", "3"], "no identity to fit at this size"),
        (["thm25-2prime", "--m", "2", "--n", "2"], "no identity to fit at this size"),
    ])
    def test_fit_exponents_refuses_a_size_with_nothing_to_fit(self, capsys, argv, message):
        # each used to fit over no instances and report a match, or to die
        # with a traceback, or to ignore its t
        assert main(["fit-exponents", *argv]) == 2
        out = capsys.readouterr()
        assert out.out == "" and message in out.err

    @pytest.mark.parametrize("family", ["row-laplace", "col-laplace"])
    def test_fit_exponents_refuses_an_m_off_the_laplace_grid(self, capsys, family):
        # the Laplace families are fitted on the n x n grid; an --m that
        # disagrees used to be ignored, and the fit reported a match
        for argv, grid in ((["--m", "5"], "2x2"), (["--m", "5", "--n", "3"], "3x3"),
                           (["--m", "2", "--n", "3"], "3x3")):
            assert main(["fit-exponents", family, *argv]) == 2
            out = capsys.readouterr()
            assert out.out == "" and f"fitted on a square {grid} grid; got m={argv[1]}" in out.err
        assert main(["fit-exponents", family, "--m", "3", "--n", "3"]) == 0
        assert main(["fit-exponents", family, "--m", "2"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"{family}: law -1*i + 1*j over {count} instances, matches frozen table"
            for count in (9, 4)]

    def test_derived_suites_report_their_zero_test_counts(self, capsys):
        for name in ("thm25", "lemma23"):
            assert main(["suite", name, "--n", "4", "--format", "json"]) == 0
            timings = json.loads(capsys.readouterr().out)["timings"]
            assert set(timings) == {"total_seconds", "zero_test_splits", "zero_test_memo_hits",
                                    "zero_test_pattern_hits", "zero_test_transposed", "flat_checks",
                                    "straighten_cache_added"}
            assert timings["flat_checks"] == 0 and timings["zero_test_splits"] > 0, name

    def test_fit_exponents_reads_t_where_the_family_does(self, capsys):
        # the 2-minors of 3x3 only (21 instances over sizes 2 and 3), and the
        # derived 1-minors of 4x3 only (9 instances over sizes 1 and 2)
        assert main(["fit-exponents", "lemma23-eq2", "--t", "1"]) == 0
        assert "lemma23-eq2: law 1*p + -1*b over 18 instances, matches" in capsys.readouterr().out
        assert main(["fit-exponents", "thm25-4prime", "--t", "2"]) == 0
        assert "thm25-4prime: law 1*rj + -1*rk over 6 instances, matches" in capsys.readouterr().out

    @pytest.mark.parametrize("argv,message", [
        (["suite", "thm21", "--n", "10"], "a 10-minor has 10! = 3,628,800 terms"),
        (["suite", "cor22", "--n", "11"], "a 10-minor has 10! = 3,628,800 terms"),
        (["det", "--n", "12"], "a 12-minor has 12! = 479,001,600 terms"),
        (["suite", "thm25", "--n", "10"], "a 10-minor has 10! = 3,628,800 terms"),
        (["suite", "lemma23", "--n", "10"], "a 10-minor has 10! = 3,628,800 terms"),
        (["suite", "grading", "--n", "10"], "a 10-minor has 10! = 3,628,800 terms"),
        (["suite", "semicentrality", "--n", "10"], "a 10-minor has 10! = 3,628,800 terms"),
    ])
    def test_oversized_reductions_fail_fast(self, capsys, argv, message):
        start = time.monotonic()
        assert main(argv) == 2
        assert time.monotonic() - start < 1
        out = capsys.readouterr()
        assert out.out == "" and f"{message}, more than the limit of 362,880" in out.err

    def test_cor22_at_one_small_size_runs_on_a_large_grid(self, capsys):
        assert main(["suite", "cor22", "--n", "10", "--t", "2", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "pass" and len(payload["checks"]) == 2 * 9 * 9
        assert payload["timings"]["flat_checks"] == 0

    def test_cor22_checks_the_given_minor_size_only(self, capsys):
        assert main(["suite", "cor22", "--n", "4", "--t", "3", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["shape"] == {"m": 4, "n": 4, "t": 3}
        # 3 row pairs below row 1 times 3 column pairs before column 4, two checks each
        assert len(payload["checks"]) == 18
        assert all(c["name"].split("|")[0].count(",") == 2 for c in payload["checks"])


SRC = Path(__file__).resolve().parent.parent / "src"


def run_module(*args):
    """Run ``python -m qmv`` from a checkout, with only the source tree on the path."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-m", "qmv", *args], env=env,
                          capture_output=True, text=True, timeout=60)


def test_the_cli_compiles_neither_the_split_nor_the_pattern_suites():
    # both suite modules load on first use, so a process that runs none of
    # their suites never compiles them, and one that runs the split suites
    # never compiles the derived ones
    loaded = "print(sorted(m for m in ('qmv.zerotest', 'qmv.derived') if m in sys.modules))"
    for run, want in (("", "[]"), ("qmv.cli.main(['suite', 'centrality', '--n', '3']); ",
                                   "['qmv.zerotest']")):
        probe = f"import sys, qmv.cli; {run}{loaded}"
        done = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=str(SRC)),
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip().splitlines()[-1] == want


def test_python_dash_m_runs_the_cli():
    done = run_module("normalize", "--m", "2", "--n", "2", "X[2,2]*X[1,1]")
    assert done.returncode == 0
    assert done.stdout.strip() == "X[1,1]*X[2,2] - (q - q^-1)*X[1,2]*X[2,1]"


def test_python_dash_m_usage_error_exits_2():
    done = run_module("no-such-command")
    assert done.returncode == 2
    assert "usage" in done.stderr
