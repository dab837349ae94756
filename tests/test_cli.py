"""The command-line front end: grammars, verbs, exit codes and
deterministic reports."""

import io
from contextlib import redirect_stdout

import pytest

from rlcm.catalog import REGISTERED_SELECTORS, get_semigroup
from rlcm.cli import parse_element, run
from rlcm.core import enumerate_ball


def _run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(argv)
    return code, buf.getvalue()


def test_mul_verb():
    code, out = _run(["mul", "--semigroup", "bs:2,3", "a*b", "b^2*a"])
    assert (code, out) == (0, "a^2*b^2\n")


def test_lcm_verb_prints_complements():
    code, out = _run(["lcm", "--semigroup", "frac", "(1,2)", "(2,3)"])
    assert (code, out) == (0, "(5,6) ; comp (2,3) (1,2)\n")
    code, out = _run(["lcm", "--semigroup", "frac", "(0,2)", "(1,2)"])
    assert (code, out) == (0, "disjoint\n")


def test_normalize_verb():
    code, out = _run(["normalize", "--semigroup", "nxn", "t(0,2)* t(1,2)"])
    assert (code, out) == (0, "0\n")
    code, out = _run(["normalize", "--semigroup", "free:2", "v(0)* v(01)"])
    assert (code, out) == (0, "v(1)v(ε)*\n")


def test_check_axioms_verb():
    code, out = _run(["check-axioms", "--semigroup", "zs:add:2",
                      "--radius", "2"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 9
    assert all(line.startswith("RESULT PASS") for line in lines)


def test_check_relations_with_model():
    code, out = _run(["check-relations", "--model", "Q2"])
    assert code == 0
    assert "RESULT PASS I " in out and "RESULT PASS II " in out


def test_check_relations_with_product():
    code, out = _run(["check-relations", "--semigroup", "zs:bs:1,2",
                      "--radius", "2", "--suite", "K"])
    assert code == 0
    assert "RESULT PASS K1" in out and "RESULT PASS K2" in out


def test_foundation_verb():
    code, out = _run(["foundation", "--semigroup", "free:2", "--mode",
                      "exact", "0", "1"])
    assert code == 0 and "RESULT PASS foundation" in out
    code, out = _run(["foundation", "--semigroup", "free:2", "--mode",
                      "exact", "00", "1"])
    assert code == 1 and "RESULT FAIL foundation" in out


def test_survey_verb_exit_codes():
    code, out = _run(["survey-ftheta", "--semigroup", "ftheta:2,3",
                      "--bidegree", "2,2"])
    assert code == 0 and "RESULT PASS survey-ftheta" in out
    code, out = _run(["survey-ftheta", "--semigroup", "ftheta:2,2",
                      "--bidegree", "2,2"])
    assert code == 1 and "RESULT FAIL survey-ftheta" in out


def test_decompose_verb():
    code, out = _run(["decompose", "--semigroup", "nxn", "(7,4)"])
    assert (code, out) == (0, "(3,4) ; (1,1)\n")
    code, out = _run(["decompose", "--semigroup", "zxz", "(-3,-2)"])
    assert (code, out) == (0, "(1,2) ; (-2,-1)\n")
    code, out = _run(["decompose", "--semigroup", "bs:2,3", "a*b^2"])
    assert (code, out) == (0, "0 ; 2\n")


def test_bad_input_exits_2():
    code, _ = _run(["mul", "--semigroup", "nope", "x"])
    assert code == 2
    code, _ = _run(["lcm", "--semigroup", "frac", "(2,2)", "(1,2)"])
    assert code == 2
    code, _ = _run(["check-relations", "--model", "nope"])
    assert code == 2


def test_unknown_model_suite_exits_2():
    code, out = _run(["check-relations", "--model", "QN", "--suite", "nope"])
    assert (code, out) == (2, "")


def test_lcm_counterexample_prints_both_minimal_multiples():
    code, out = _run(["lcm", "--semigroup", "ftheta:4,6", "x2.", ".y2"])
    assert (code, out) == (1, "incomparable x2.y0 x2.y3\n")


def test_bounded_foundation_counts_incomparable_multiples_as_hits():
    code, out = _run(["foundation", "--semigroup", "ftheta:2,2",
                      "--radius", "1", ".y0"])
    assert (code, out) == (
        1, "RESULT FAIL foundation checked=1 failed=1 NotFoundation(x1.)\n")


def test_verbs_reject_flags_they_do_not_read():
    with pytest.raises(SystemExit) as exc:
        _run(["mul", "--semigroup", "nat", "--radius", "2", "1"])
    assert exc.value.code == 2


def test_parse_display_round_trip_on_small_balls():
    for selector in REGISTERED_SELECTORS:
        S = get_semigroup(selector)
        for x in enumerate_ball(S, 2):
            assert parse_element(selector, S.display(x)) == x, selector


def test_reports_are_deterministic():
    commands = [
        ["check-axioms", "--semigroup", "zs:add:2", "--radius", "2"],
        ["check-relations", "--model", "QN"],
        ["survey-ftheta", "--semigroup", "ftheta:4,6", "--bidegree", "2,2"],
    ]
    for argv in commands:
        assert _run(argv) == _run(argv)
