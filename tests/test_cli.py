"""The command-line front end: grammars, verbs, exit codes and
deterministic reports."""

import argparse
import io
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from rlcm import catalog, cli, zoo
from rlcm.catalog import REGISTERED_SELECTORS, get_semigroup
from rlcm.cli import run
from rlcm.core import enumerate_ball

SRC = str(Path(__file__).resolve().parents[1] / "src")


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
    # On a product, s(a) is the A-factor element (ε ; a).
    for word, shown in (("s(1) t(0)", "v((1 ; 0))v((ε ; 0))*\n"),
                        ("s(1)* t(1)", "v((0 ; 0))v((ε ; 0))*\n")):
        assert _run(["normalize", "--semigroup", "zs:add:2", word]) == (
            0, shown), word


def test_check_axioms_verb():
    code, out = _run(["check-axioms", "--semigroup", "zs:add:2",
                      "--radius", "2"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 9
    assert all(line.startswith("RESULT PASS") for line in lines)


def test_check_relations_with_model():
    code, out = _run(["check-relations", "--model", "Q2"])
    assert (code, out) == (0, "RESULT PASS K1 checked=2 failed=0\n"
                              "RESULT PASS K2 checked=2 failed=0\n"
                              "RESULT PASS Q1 checked=2 failed=0\n"
                              "RESULT PASS Q2 checked=1 failed=0\n")


def test_check_relations_runs_every_product_suite_by_default():
    code, out = _run(["check-relations", "--semigroup", "zs:add:2",
                      "--radius", "1"])
    lines = out.splitlines()
    assert code == 0 and all(ln.startswith("RESULT PASS ") for ln in lines)
    assert [ln.split()[2] for ln in lines] == [
        "K1", "K2", "L1", "L2", "L3", "L4", "covariance", "isometry"]


def test_check_relations_with_product():
    code, out = _run(["check-relations", "--semigroup", "zs:bs:1,2",
                      "--radius", "2", "--suite", "K"])
    assert code == 0
    assert "RESULT PASS K1" in out and "RESULT PASS K2" in out


def test_check_relations_answers_a_counterexample_to_right_lcms():
    # ftheta:2,2 has no right LCM of x0. and .y0; the Li and covariance
    # suites meet that pair and answer it as lcm and normalize do.
    for suite in ([], ["--suite", "Li"], ["--suite", "covariance"]):
        assert _run(["check-relations", "--semigroup", "zs:ftheta:2,2",
                     "--radius", "1", *suite]) == (
            1, "incomparable (x0.y0 ; 0) (x0.y1 ; 0)\n"), suite


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
    err = io.StringIO()
    with redirect_stderr(err):
        assert _run(["decompose", "--semigroup", "free:2", "0"]) == (2, "")
    assert err.getvalue() == "error: free:2 has no product form\n"


def test_bad_input_exits_2():
    code, _ = _run(["mul", "--semigroup", "nope", "x"])
    assert code == 2
    code, _ = _run(["lcm", "--semigroup", "frac", "(2,2)", "(1,2)"])
    assert code == 2
    code, _ = _run(["check-relations", "--model", "nope"])
    assert code == 2
    # BS(c,d) needs c, d >= 1 in its product form too.
    for selector in ("zs:bs:-1,2", "zs:bs:0,2"):
        code, _ = _run(["mul", "--semigroup", selector,
                        "(1;0)", "(ε;1)", "(1;0)"])
        assert code == 2, selector
    # The exact foundation criterion needs a free monoid.
    code, _ = _run(["foundation", "--semigroup", "nat", "--mode", "exact",
                    "1"])
    assert code == 2
    # A box with a negative entry holds no pairs to survey.
    code, _ = _run(["survey-ftheta", "--semigroup", "ftheta:2,2",
                    "--bidegree=-1,2"])
    assert code == 2


def test_a_parse_error_names_its_own_cause():
    # The retry as "(-1)" fails too; the error shown is that of "-1".
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = _run(["normalize", "--semigroup", "nat", "v(-1)"])
    assert (code, out) == (2, "")
    assert err.getvalue() == (
        "error: expected a non-negative integer (at position 0)\n")


def test_alphabets_reach_past_ten_letters():
    code, out = _run(["mul", "--semigroup", "bs:1,11", "b^11", "a"])
    assert (code, out) == (0, "a*b\n")
    code, out = _run(["check-relations", "--model", "BS1n:11"])
    assert code == 0 and out.count("RESULT PASS ") == 4
    code, out = _run(["check-axioms", "--semigroup", "zs:bs:2,12",
                      "--radius", "2"])
    assert code == 0 and out.count("RESULT PASS ") == 9
    # LETTERS holds 36 letters; a larger alphabet is refused.
    for argv in (["mul", "--semigroup", "free:37", "0"],
                 ["check-relations", "--model", "BS1n:37"]):
        assert _run(argv) == (2, ""), argv


def test_a_bad_letter_error_names_the_alphabet():
    err = io.StringIO()
    with redirect_stderr(err):
        assert _run(["mul", "--semigroup", "free:12", "c"]) == (2, "")
    assert err.getvalue() == (
        "error: expected a letter in 0123456789ab (at position 0)\n")


@pytest.mark.parametrize("argv, digits, quoted", [
    (["mul", "--semigroup", "nat", "1" * 5001], 5001, "1" * 20),
    (["mul", "--semigroup", "zxz", f"(1{'0' * 4400},1)", "(0,1)"], 4401,
     "1" + "0" * 19),
    # Each factor reads; their product's modulus has 8,000 digits.
    (["mul", "--semigroup", "frac", f"(0,1{'0' * 3999})",
      f"(0,1{'0' * 4000})"], 8000, None),
], ids=["nat-parse", "zxz-parse", "frac-display"])
def test_an_integer_past_the_digit_limit_is_named(argv, digits, quoted):
    err = io.StringIO()
    with redirect_stderr(err):
        assert _run(argv) == (2, "")
    limit = sys.get_int_max_str_digits()
    assert digits > limit
    tail = "" if quoted is None else f": '{quoted}…'"
    assert err.getvalue() == (
        f"error: integer of {digits} digits is past the limit of {limit} "
        f"digits (sys.get_int_max_str_digits()){tail}\n")


def test_survey_refuses_a_box_too_large_to_enumerate():
    # 3^4 * 4^4 = 20736 words at the top of the box; it is refused before
    # any of them is made.
    code, out = _run(["survey-ftheta", "--semigroup", "ftheta:3,4",
                      "--bidegree", "4,4"])
    assert (code, out) == (2, "")


def test_a_bs_element_past_the_letter_cap_is_refused_before_it_is_built():
    cap = zoo.BS_MAX_LETTERS
    for word, position in ((f"a^{10 ** 20}", 0),
                           (f"b*a^{cap // 2}*b^3*a^{cap - cap // 2 + 1}", 3)):
        err = io.StringIO()
        with redirect_stderr(err):
            assert _run(["mul", "--semigroup", "bs:1,2", word, "b"]) == (2, "")
        assert err.getvalue() == (
            f"error: more than {cap} letters a in one element, the cap "
            f"(at position {position})\n")
    assert _run(["decompose", "--semigroup", "bs:1,2", f"a^{cap}"]) == (
        0, f"{'0' * cap} ; 0\n")


@pytest.mark.parametrize("argv, message", [
    (["check-axioms", "--semigroup", "zs:zxz", "--radius", "6"],
     "check-axioms on zs:zxz at --radius 6 makes more than the cap of "
     f"{cli.AXIOM_MAX_CHECKS} checks"),
    (["check-relations", "--semigroup", "zs:zxz", "--suite", "Li",
      "--radius", "4"],
     "the radius-4 basis of zs:zxz has more than the cap of "
     f"{cli.RELATIONS_MAX_BASIS} elements"),
    # A 37-letter alphabet: the balls pass their caps at their second
    # level, long before the whole radius-4 ball would be built.
    (["check-axioms", "--semigroup", "zs:add:36", "--radius", "4"],
     "check-axioms on zs:add:36 at --radius 4 makes more than the cap of "
     f"{cli.AXIOM_MAX_CHECKS} checks"),
    (["check-relations", "--semigroup", "zs:add:36", "--radius", "4",
      "--suite", "K"],
     "the radius-4 basis of zs:add:36 has more than the cap of "
     f"{cli.RELATIONS_MAX_BASIS} elements"),
    (["foundation", "--semigroup", "free:36", "--mode", "bounded",
      "--radius", "4", "0"],
     "the radius-4 ball of free:36 has more than the cap of "
     f"{cli.FOUNDATION_MAX_BALL} elements"),
])
def test_work_past_a_cap_is_refused_before_it_starts(monkeypatch, argv,
                                                     message):
    import rlcm.regrep as regrep

    def no_table(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(regrep, "rep_generator", no_table)
    err = io.StringIO()
    t0 = time.perf_counter()
    with redirect_stderr(err):
        assert _run(argv) == (2, "")
    assert time.perf_counter() - t0 < 1
    assert err.getvalue() == f"error: {message}\n"


def test_unknown_model_suite_exits_2():
    code, out = _run(["check-relations", "--model", "QN", "--suite", "nope"])
    assert (code, out) == (2, "")


def test_product_suites_are_checked_before_any_table(monkeypatch):
    import rlcm.regrep as regrep
    calls = []
    real = regrep.rep_generator

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(regrep, "rep_generator", counted)
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = _run(["check-relations", "--semigroup", "zs:zxz",
                          "--suite", "Li,bogus"])
        assert (code, out, calls) == (2, "", [])
        # An empty suite name is unknown to products and models alike.
        for argv in (["--semigroup", "zs:zxz"], ["--model", "QN"]):
            assert _run(["check-relations", *argv, "--suite", ""]) == (2, "")
    assert calls == []
    assert err.getvalue().splitlines() == [
        "error: zs:zxz has no suite bogus", "error: zs:zxz has no suite ",
        "error: model QN has no suite "]


def test_unknown_names_are_errors_that_name_them(monkeypatch):
    for argv, message in (
            (["mul", "--semigroup", "add:2", "0"],
             "unknown semigroup selector 'add:2'"),
            (["check-axioms", "--semigroup", "zs:add"],
             "unknown semigroup selector 'zs:add'"),
            (["check-relations", "--model", "BS1n:1"],
             "unknown model 'BS1n:1'"),
            (["check-relations", "--model", "BS1n:37"],
             "unknown model 'BS1n:37'")):
        err = io.StringIO()
        with redirect_stderr(err):
            assert _run(argv) == (2, "")
        assert err.getvalue() == f"error: {message}\n"
    # A KeyError is a fault of the program, not of its input.
    def broken(selector):
        raise KeyError(selector)

    monkeypatch.setattr(catalog, "get_semigroup", broken)
    with pytest.raises(KeyError):
        _run(["mul", "--semigroup", "nat", "1"])


@pytest.mark.parametrize("argv, message", [
    (["survey-ftheta", "--semigroup", "ftheta:2,2", "--bidegree", "1"],
     "--bidegree 1 needs two integers P,Q"),
    (["survey-ftheta", "--semigroup", "ftheta:2,2", "--bidegree=x,1"],
     "--bidegree x,1 needs two integers P,Q"),
    (["survey-ftheta", "--semigroup", "ftheta:2"],
     "ftheta:2 needs two integers m,n"),
    (["mul", "--semigroup", "ftheta:2", "x0."],
     "ftheta:2 needs two integers m,n"),
    (["mul", "--semigroup", "zs:bs:1", "(1;0)"],
     "zs:bs:1 needs two integers c,d"),
    (["mul", "--semigroup", "bs:1,2,3", "a"],
     "bs:1,2,3 needs two integers c,d"),
    (["mul", "--semigroup", "free:x", "0"], "free:x needs an integer k"),
    (["mul", "--semigroup", "zs:add:x", "(0;0)"],
     "zs:add:x needs an integer n"),
    (["check-axioms", "--semigroup", "zs:ftheta:2"],
     "zs:ftheta:2 needs two integers m,n"),
    (["check-relations", "--model", "BS1n:x"],
     "BS1n:x needs an integer d"),
    # Integers that read but lie out of range name the selector too.
    (["mul", "--semigroup", "free:0", "0"], "free:0 needs 1 <= k <= 36"),
    (["mul", "--semigroup", "free:37", "0"], "free:37 needs 1 <= k <= 36"),
    (["mul", "--semigroup", "bs:0,2", "a"], "bs:0,2 needs c,d >= 1"),
    (["mul", "--semigroup", "zs:bs:0,2", "(1;0)"],
     "zs:bs:0,2 needs c,d >= 1"),
    (["mul", "--semigroup", "zs:add:0", "(0;0)"], "zs:add:0 needs n >= 1"),
    (["mul", "--semigroup", "ftheta:1,2", "x0."],
     "ftheta:1,2 needs m,n >= 2"),
    (["mul", "--semigroup", "zs:ftheta:1,2", "(x0. ; 0)"],
     "zs:ftheta:1,2 needs m,n >= 2"),
    (["survey-ftheta", "--semigroup", "ftheta:1,3"],
     "ftheta:1,3 needs m,n >= 2"),
    (["decompose", "--semigroup", "bs:2,0", "a"], "bs:2,0 needs c,d >= 1"),
    # Every other refusal of a request exits 2 with its own message too.
    (["normalize", "--semigroup", "nat", "x(1)"],
     "bad token 'x(1)' (at position 0)"),
    (["normalize", "--semigroup", "nat", "e(1)*"],
     "projections are self-adjoint; no * (at position 0)"),
    (["mul", "(1,2)"], "--semigroup is required for mul"),
    (["check-axioms", "--semigroup", "nxn"],
     "check-axioms needs a zs:<name> selector"),
    (["check-relations", "--semigroup", "nxn"],
     "check-relations needs --model or zs:<name>"),
    (["survey-ftheta", "--semigroup", "nxn"],
     "survey-ftheta needs an ftheta:m,n selector"),
    (["mul", "--semigroup", "ftheta:2,3", "x0"],
     "expected 'x…x.y…y', got 'x0'"),
    (["mul", "--semigroup", "ftheta:2,3", "z0."], "bad x-letter near 'z0'"),
    (["mul", "--semigroup", "ftheta:2,3", "x5."],
     "letter x5 out of range (< 2)"),
    (["mul", "--semigroup", "zs:nxn", "(0,1)"],
     "expected '(u ; a)', got '(0,1)'"),
    (["mul", "--semigroup", "nxn", "(0,0)"],
     "need m >= 0 and a >= 1 (at position 0)"),
    (["mul", "--semigroup", "zxz", "(0,0)"],
     "multiplier must be nonzero (at position 0)"),
    (["normalize", "--semigroup", "zs:zxz", "s((1,2))"],
     "second component must be 1 or -1 (at position 0)"),
    (["check-axioms", "--semigroup", "zs:nxn", "--radius=-1"],
     "radius must be >= 0"),
])
def test_a_malformed_integer_names_its_selector_or_flag(argv, message):
    err = io.StringIO()
    with redirect_stderr(err):
        assert _run(argv) == (2, "")
    assert err.getvalue() == f"error: {message}\n"


def test_lcm_counterexample_prints_both_minimal_multiples():
    code, out = _run(["lcm", "--semigroup", "ftheta:4,6", "x2.", ".y2"])
    assert (code, out) == (1, "incomparable x2.y0 x2.y3\n")


def test_normalize_counterexample_prints_both_minimal_multiples():
    code, out = _run(["normalize", "--semigroup", "ftheta:2,2",
                      "v(x0.)* v(.y0)"])
    assert (code, out) == (1, "incomparable x0.y0 x0.y1\n")


def test_bounded_foundation_counts_incomparable_multiples_as_hits():
    code, out = _run(["foundation", "--semigroup", "ftheta:2,2",
                      "--radius", "1", ".y0"])
    assert (code, out) == (
        1, "RESULT FAIL foundation checked=1 failed=1 NotFoundation(x1.)\n")


def test_lcm_answers_do_not_depend_on_the_radius():
    # Minimal common multiples at length 5, beyond a radius-4 ball.
    for radius in ("1", "4"):
        argv = ["lcm", "--semigroup", "ftheta:2,2", "--radius", radius]
        assert _run([*argv, "x0.y0y1y0", "x0x0.y1"]) == (
            1, "incomparable x0x0.y1y0y0 x0x0.y1y0y1\n")
        assert _run([*argv, "x0.y0y0", "x0x0.y0"]) == (
            1, "incomparable x0x0.y0y0 x0x0.y0y1\n")
        assert _run([*argv, "x0.", "x0x1.y0y1y0"]) == (
            0, "x0x1.y0y1y0 ; comp x1.y0y1y0 .\n")


def test_noncoprime_lcm_says_disjoint_only_without_common_multiples():
    argv = ["lcm", "--semigroup", "ftheta:2,2"]
    assert _run([*argv, "x0.", "x1."]) == (0, "disjoint\n")
    assert _run([*argv, "x0x1.y0y1y0", "x0.y0"]) == (0, "disjoint\n")
    # The product lifts both minimal multiples of the U-parts.
    assert _run(["lcm", "--semigroup", "zs:ftheta:2,2", "(x0. ; 0)",
                 "(.y0 ; 0)"]) == (1, "incomparable (x0.y0 ; 0) (x0.y1 ; 0)\n")


@pytest.mark.parametrize("argv", [
    ["lcm", "--semigroup", "bs:2,3", "a*b", "b^2*a"],
    ["lcm", "--semigroup", "ftheta:2,2", "--radius", "1", "x0.", ".y1"],
    ["foundation", "--semigroup", "free:2", "--mode", "exact", "0", "10",
     "11"],
    ["foundation", "--semigroup", "ftheta:2,2", "--radius", "1", ".y0",
     "x1."],
])
def test_each_request_builds_its_semigroup_once(monkeypatch, argv):
    calls = []
    real = catalog.get_semigroup

    def counted(selector):
        calls.append(selector)
        return real(selector)

    monkeypatch.setattr(catalog, "get_semigroup", counted)
    _run(argv)
    assert calls == [argv[2]]


def test_normalize_builds_a_product_descriptor_once(monkeypatch):
    calls = []
    real = catalog.get_zs_descriptor

    def counted(name):
        calls.append(name)
        return real(name)

    monkeypatch.setattr(catalog, "get_zs_descriptor", counted)
    code, out = _run(["normalize", "--semigroup", "zs:nxn",
                      "t(0,2)* t(1,2)"])
    assert (code, out) == (0, "0\n")
    assert calls == ["nxn"]


def _python(*args):
    """A fresh interpreter on the package's sources."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)


def test_cli_start_up_does_not_load_numpy():
    # The CLI's right LCMs are exact and its operators are tuples; only
    # the complement-mode oracle of `core.BruteForcer` needs numpy.
    script = (
        "import sys, io, contextlib\n"
        "import rlcm.regrep\n"
        "import rlcm.cli\n"
        "assert 'numpy' not in sys.modules, 'import'\n"
        "for argv in (['lcm', '--semigroup', 'ftheta:2,2', '--radius', '1',\n"
        "              'x0.', 'x1.'],\n"
        "             ['check-relations', '--semigroup', 'zs:nxn',\n"
        "              '--radius', '1', '--suite', 'Li'],\n"
        "             ['normalize', '--semigroup', 'zs:add:2', 's(1)* t(1)']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = rlcm.cli.run(argv)\n"
        "    assert code == 0, (argv, code)\n"
        "    assert 'numpy' not in sys.modules, argv\n")
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv", [
    ["check-relations", "--model", "BS1n:36"],
    ["lcm", "--semigroup", "frac", "(1,2)", "(2,3)"],
], ids=["long", "short"])
def test_a_closed_stdout_exits_141_without_a_traceback(argv):
    assert _into_a_closed_pipe(argv, os.environ) == (141, "")


@pytest.mark.parametrize("buffered", [True, False],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["--help"], ["check-relations", "--help"]],
                         ids=["top", "verb"])
def test_help_into_a_closed_stdout_exits_141(argv, buffered):
    # Unbuffered, the help's own write fails, and argparse would swallow
    # that; buffered, only the flush fails, after argparse has exited 0.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    assert _into_a_closed_pipe(argv, env) == (141, "")


def _into_a_closed_pipe(argv, env):
    """(exit status, stderr) of `rlcm argv` writing into a pipe whose read
    end is closed before the child starts, so that its first write of
    standard output, at whatever size, meets a broken pipe."""
    path = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "rlcm.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env={**env, "PYTHONPATH": path},
                              text=True, timeout=60)
    finally:
        os.close(write_end)
    return proc.returncode, proc.stderr


def test_a_run_kept_across_a_reimport_reads_one_copy_of_the_package():
    # A harness that drops and re-imports the package (a benchmark round,
    # say) leaves older references to `run` behind; every module such a
    # `run` reaches must be of its own copy, or sentinels like DISJOINT
    # stop being identical.
    old_run = cli.run
    saved = {name: module for name, module in sys.modules.items()
             if name == "rlcm" or name.startswith("rlcm.")}
    try:
        for name in saved:
            del sys.modules[name]
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = old_run(["check-relations", "--semigroup", "zs:nxn",
                            "--suite", "Li", "--radius", "2"])
        lines = buf.getvalue().splitlines()
        assert code == 0 and lines
        assert all(line.startswith("RESULT PASS ") for line in lines)
    finally:
        for name in [n for n in sys.modules
                     if n == "rlcm" or n.startswith("rlcm.")]:
            del sys.modules[name]
        sys.modules.update(saved)


def test_importing_the_cli_builds_no_parser():
    # Parsers are built by requests, not by the import, so start-up does
    # not pay for them.
    script = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    built.append(kwargs.get('prog'))\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "import rlcm.cli\n"
        "assert built == [], built\n")
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr


def test_the_whole_parser_reads_the_verb_table():
    whole = cli.build_parser()
    (verbs,) = (a for a in whole._actions
                if isinstance(a, argparse._SubParsersAction))
    assert list(verbs.choices) == list(cli.VERBS)
    for verb, sub in verbs.choices.items():
        _help, flags, nargs = cli.VERBS[verb]
        options = [a.option_strings for a in sub._actions if a.option_strings]
        assert options == [["-h", "--help"], *([f"--{f}"] for f in flags)]
        assert [a.nargs for a in sub._actions if not a.option_strings] == (
            [] if nargs is None else [nargs]), verb


def test_a_plain_request_builds_no_parser(monkeypatch):
    builds = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        builds.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    requests = (["mul", "--semigroup", "bs:2,3", "a*b", "b^2*a"],
                ["lcm", "--radius", "1", "--semigroup", "frac", "(1,2)",
                 "(2,3)"],
                ["normalize", "--semigroup", "nxn", "t(0,2)* t(1,2)"],
                ["check-axioms", "--semigroup", "zs:add:2", "--radius", "1"],
                ["check-relations", "--model", "QN", "--model", "Q2"],
                ["foundation", "0", "1", "--semigroup", "free:2", "--mode",
                 "exact"],
                ["survey-ftheta", "--semigroup", "ftheta:2,3"],
                ["decompose", "--semigroup", "bs:2,3", "a*b^2"])
    assert sorted({argv[0] for argv in requests}) == sorted(cli.VERBS)
    for argv in requests:
        assert _run(argv)[0] == 0, argv
    assert builds == []
    # An abbreviation or `=` goes to the whole parser, which reads it.
    for argv in (["decompose", "--semi", "bs:2,3", "a*b^2"],
                 ["survey-ftheta", "--semigroup=ftheta:2,3"]):
        assert _run(argv)[0] == 0, argv
        assert builds[0] == "rlcm", argv
        del builds[:]
    # So does an argument the verb does not take; its usage error is the
    # one it always printed, and the next request does not see it.
    err = io.StringIO()
    with redirect_stderr(err), pytest.raises(SystemExit) as exc:
        _run(["mul", "--semigroup", "nat", "--radius", "2", "1"])
    assert exc.value.code == 2
    assert err.getvalue().endswith(
        "rlcm: error: unrecognized arguments: --radius\n")
    for argv in (["lcm", "--semigroup", "frac", "(1,2)", "(2,3)"],
                 ["foundation", "--semigroup", "free:2", "--mode", "exact",
                  "0", "1"]):
        fresh = _python("-m", "rlcm.cli", *argv)
        assert _run(argv) == (fresh.returncode, fresh.stdout), argv


#: Words that argparse reads in its own ways: help, `--`, a lone `-`, a
#: negative number, an empty word, `=`, an abbreviation and a verb.
_ODD_WORDS = ("-h", "--help", "--", "-", "-1", "", "a b", "--semigroup=nat",
              "--radius=2", "--semi", "--mo", "-x", "mul", "exact")


def _sweep_argv(rng):
    """A request built from the verb table, well formed or nearly so."""
    verb = rng.choice((*cli.VERBS, "nope"))
    _help, own, nargs = cli.VERBS.get(verb, ("", (), None))
    count = {None: 0, "+": rng.randint(1, 3)}.get(nargs, nargs)
    count = max(0, count + rng.choice((0, 0, 0, 0, -1, 1)))
    run = [rng.choice(("1", "x", "a*b", "(1,2)", "v(1) e(0)")) for _ in
           range(count)]
    pairs = []
    for _ in range(rng.randint(0, 4)):
        flag = rng.choice(own if own and rng.random() < 0.8 else
                          tuple(cli.FLAGS))
        value = rng.choice({"radius": ("2", "0", "x", "-1", " 3"),
                            "mode": ("exact", "bounded", "nope")}.get(
            flag, ("nat", "zs:nxn", "Li", "2,2", "a b", "")))
        name, shape = f"--{flag}", rng.random()
        if shape < 0.05:
            pairs.append([name[:rng.randint(3, len(name))], value])
        elif shape < 0.1:
            pairs.append([f"{name}={value}"])
        elif shape < 0.13:
            pairs.append([name])
        else:
            pairs.append([name, value])
    at = rng.randint(0, len(pairs))
    parts = [*pairs[:at], run, *pairs[at:]]
    if run and rng.random() < 0.1:   # split the positionals
        parts.insert(rng.randint(0, len(parts)), [run.pop()])
    argv = [verb, *(word for part in parts for word in part)]
    if rng.random() < 0.25:
        argv.insert(rng.randint(0, len(argv)), rng.choice(_ODD_WORDS))
    return argv


def _read(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            got = parse(list(argv))
    except SystemExit as exc:
        got = exc.code
    return got, out.getvalue(), err.getvalue()


def test_a_seeded_sweep_reads_as_the_whole_parser_reads(monkeypatch):
    # Usage and help lines wrap at the terminal width; fix it.
    monkeypatch.setenv("COLUMNS", "80")
    rng = random.Random(2024)
    whole = cli.build_parser()
    plain = 0
    for _ in range(2400):
        argv = _sweep_argv(rng)
        plain += cli._read_plain(argv) is not None
        assert _read(cli.parse, argv) == _read(whole.parse_args, argv), argv
    # Both paths are exercised.
    assert 400 < plain < 2000, plain


def test_every_request_reads_as_the_whole_parser_reads_it():
    for argv in (["mul", "--semigroup", "nat", "1", "2"],
                 ["lcm", "--semigroup=frac", "--radius", "5", "1", "2"],
                 ["normalize", "--semi", "nxn", "v(1)"],
                 ["check-axioms", "--semigroup", "zs:nxn", "--radius", "2"],
                 ["check-relations", "--model", "QN", "--suite", "T1"],
                 ["foundation", "--mode", "exact", "--", "-1", "2"],
                 ["survey-ftheta", "--bidegree", "3,1"],
                 ["decompose", "--semigroup", "zxz", "(1,2)"]):
        assert cli.parse(argv) == cli.build_parser().parse_args(argv), argv


def test_verbs_reject_flags_they_do_not_read():
    with pytest.raises(SystemExit) as exc:
        _run(["mul", "--semigroup", "nat", "--radius", "2", "1"])
    assert exc.value.code == 2


#: Answers of the plain BS(c,d)+ monoids, non-normal-form inputs among
#: them, as the string-rewriting arithmetic that the odometer replaced
#: printed them.
BS_GOLDEN = [
    ("mul", "bs:1,2", ("a*b", "b^2*a"), "a*b*a*b"),
    ("mul", "bs:1,2", ("b^3*a",), "b*a*b"),
    ("mul", "bs:1,2", ("b^2*a*b^4*a", "b^5"), "a*b*a*b^7"),
    ("mul", "bs:1,2", ("b^3*a", "a*b"), "b*a*b*a*b"),
    ("mul", "bs:1,2", ("a^3*b^2", "b^7*a^2"), "a^3*b*a^2*b^2"),
    ("lcm", "bs:1,2", ("a*b", "b^2*a"), "a*b ; comp ε ε"),
    ("lcm", "bs:1,2", ("b^3*a", "b^2*a*b^4*a"), "disjoint"),
    ("lcm", "bs:1,2", ("b", "a"), "a*b ; comp b*a b"),
    ("lcm", "bs:1,2", ("b^3*a", "b^5"), "b*a*b^2 ; comp b a"),
    ("lcm", "bs:1,2", ("b^2*a*b^4*a", "b^3"), "a*b*a*b^2 ; comp ε b*a*b*a*b"),
    ("lcm", "bs:1,2", ("a*b^5", "b^4*a"), "a*b^5 ; comp ε b^3"),
    ("lcm", "bs:1,2", ("b^9", "a^2*b"), "a^2*b^3 ; comp b*a*b*a b^2"),
    ("decompose", "bs:1,2", ("a*b^2",), "0 ; 2"),
    ("decompose", "bs:1,2", ("b^3*a",), "1 ; 1"),
    ("decompose", "bs:1,2", ("b^2*a*b^4*a",), "01 ; 2"),
    ("decompose", "bs:1,2", ("ε",), "ε ; 0"),
    ("normalize", "bs:1,2", ("v(a*b) v(b^2*a)*",), "v(a*b)v(a*b)*"),
    ("normalize", "bs:1,2", ("v(b^3*a)* v(b^2*a*b^4*a)",), "0"),
    ("normalize", "bs:1,2", ("v(b)* v(a)",), "v(b*a)v(b)*"),
    ("normalize", "bs:1,2", ("e(b^3*a) v(a*b)*",), "v(b*a*b)v(a^2*b^2)*"),
    ("mul", "bs:2,3", ("a*b", "b^2*a"), "a^2*b^2"),
    ("mul", "bs:2,3", ("b^3*a",), "a*b^2"),
    ("mul", "bs:2,3", ("b^2*a*b^4*a", "b^5"), "b^2*a*b*a*b^7"),
    ("mul", "bs:2,3", ("b^3*a", "a*b"), "a*b^2*a*b"),
    ("mul", "bs:2,3", ("a^3*b^2", "b^7*a^2"), "a^5*b^4"),
    ("lcm", "bs:2,3", ("a*b", "b^2*a"), "disjoint"),
    ("lcm", "bs:2,3", ("b^3*a", "b^2*a*b^4*a"), "disjoint"),
    ("lcm", "bs:2,3", ("b", "a"), "a*b^2 ; comp b^2*a b^2"),
    ("lcm", "bs:2,3", ("b^3*a", "b^5"), "a*b^4 ; comp b^2 b*a"),
    ("lcm", "bs:2,3", ("b^2*a*b^4*a", "b^3"),
     "b^2*a*b*a*b^2 ; comp ε b^2*a*b^2*a"),
    ("lcm", "bs:2,3", ("a*b^5", "b^4*a"), "disjoint"),
    ("lcm", "bs:2,3", ("b^9", "a^2*b"), "a^2*b^4 ; comp a^2 b^3"),
    ("decompose", "bs:2,3", ("a*b^2",), "0 ; 2"),
    ("decompose", "bs:2,3", ("b^3*a",), "0 ; 2"),
    ("decompose", "bs:2,3", ("b^2*a*b^4*a",), "21 ; 2"),
    ("decompose", "bs:2,3", ("ε",), "ε ; 0"),
    ("normalize", "bs:2,3", ("v(a*b) v(b^2*a)*",), "v(a*b)v(b^2*a)*"),
    ("normalize", "bs:2,3", ("v(b^3*a)* v(b^2*a*b^4*a)",), "0"),
    ("normalize", "bs:2,3", ("v(b)* v(a)",), "v(b^2*a)v(b^2)*"),
    ("normalize", "bs:2,3", ("e(b^3*a) v(a*b)*",), "v(a*b^2)v(a*b*a*b^2)*"),
]


def test_bs_answers_are_those_of_the_rewriting_arithmetic():
    for verb, sel, args, want in BS_GOLDEN:
        assert _run([verb, "--semigroup", sel, *args]) == (0, want + "\n"), \
            (verb, sel, args)


def test_parse_display_round_trip_on_small_balls():
    # Two-digit letters (x10, y10) must parse back whole.
    for selector in REGISTERED_SELECTORS + ("ftheta:12,2", "ftheta:2,11"):
        S = get_semigroup(selector)
        for x in enumerate_ball(S, 2):
            assert S.parse(S.display(x)) == x, selector


def test_reports_are_deterministic():
    commands = [
        ["check-axioms", "--semigroup", "zs:add:2", "--radius", "2"],
        ["check-relations", "--model", "QN"],
        ["survey-ftheta", "--semigroup", "ftheta:4,6", "--bidegree", "2,2"],
    ]
    for argv in commands:
        assert _run(argv) == _run(argv)
