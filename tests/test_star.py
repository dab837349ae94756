"""The two-sided monomial calculus and foundation sets."""

import itertools
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from rlcm.catalog import get_semigroup, get_zs_descriptor
from rlcm.core import enumerate_ball
from rlcm.star import (FOUNDATION, NOT_FOUNDATION, UNDECIDED_BEYOND_BALL,
                       VV, ZERO, FoundationVerdict, ModeUnsupported,
                       foundation_transfer, is_foundation_set, mono_adjoint,
                       mono_display, mono_equal, mono_multiply,
                       word_normalize, projection, v, vstar)
from rlcm.zoo import free_monoid
from rlcm.zs import zs_semigroup


def test_covariance_collapse_on_words():
    S = free_monoid(2)
    assert mono_multiply(S, vstar(S, "0"), v(S, "01")) == VV("1", "")
    assert mono_multiply(S, vstar(S, "0"), v(S, "1")) is ZERO
    assert mono_multiply(S, v(S, "0"), v(S, "1")) == VV("01", "")


def test_zero_is_absorbing_and_self_adjoint():
    S = free_monoid(2)
    assert mono_multiply(S, ZERO, v(S, "0")) is ZERO
    assert mono_multiply(S, v(S, "0"), ZERO) is ZERO
    assert mono_adjoint(ZERO) is ZERO


def test_adjoint_is_an_involution_and_antihomomorphism():
    S = free_monoid(2)
    ball = [w for w in enumerate_ball(S, 2)]
    monos = [VV(p, q) for p in ball for q in ball]
    for m in monos:
        assert mono_adjoint(mono_adjoint(m)) == m
    for m1 in monos[:12]:
        for m2 in monos[:12]:
            lhs = mono_adjoint(mono_multiply(S, m1, m2))
            rhs = mono_multiply(S, mono_adjoint(m2), mono_adjoint(m1))
            assert (lhs is ZERO and rhs is ZERO) or mono_equal(S, lhs, rhs)


def test_mono_equal_absorbs_common_units():
    S = get_semigroup("zxz")
    m1 = VV((0, 2), (1, 3))
    u = (1, -1)
    m2 = VV(S.multiply((0, 2), u), S.multiply((1, 3), u))
    assert mono_equal(S, m1, m2)
    assert not mono_equal(S, m1, VV((0, 2), (2, 3)))


def test_projection_is_idempotent():
    S = get_semigroup("frac")
    e = projection(S, (1, 2))
    assert mono_equal(S, mono_multiply(S, e, e), e)


def test_word_normalize_disjoint_progressions_give_zero():
    S = get_semigroup("nxn")
    # t(0,2)* t(1,2): the even and odd progressions are disjoint.
    tokens = [vstar(S, (0, 2)), v(S, (1, 2))]
    assert word_normalize(S, tokens) is ZERO


def test_word_normalize_collapses_to_single_monomial():
    S = get_semigroup("frac")
    tokens = [v(S, (1, 2)), vstar(S, (1, 2)), v(S, (1, 2))]
    got = word_normalize(S, tokens)
    assert mono_equal(S, got, v(S, (1, 2)))


def test_display():
    S = free_monoid(2)
    assert mono_display(S, ZERO) == "0"
    assert mono_display(S, VV("01", "")) == "v(01)v(ε)*"


# ---------------------------------------------------------------------------
# Foundation sets.


def test_exact_mode_on_free_monoid():
    S = free_monoid(2)
    assert is_foundation_set(S, ["0", "1"], "exact").ok
    assert is_foundation_set(S, ["00", "01", "1"], "exact").ok
    got = is_foundation_set(S, ["00", "1"], "exact")
    assert got.status == NOT_FOUNDATION and got.witness == "01"
    assert is_foundation_set(S, [""], "exact").ok


def test_exact_mode_rejects_non_free_targets():
    with pytest.raises(ModeUnsupported):
        is_foundation_set(get_semigroup("frac"), [(0, 2)], "exact")


def _brute_foundation(F):
    """Depth-N reference check: F is a foundation set of {0,1}* iff
    every word of the maximal member length meets it."""
    depth = max(len(f) for f in F)
    for bits in itertools.product("01", repeat=depth):
        w = "".join(bits)
        if not any(w.startswith(f) or f.startswith(w) for f in F):
            return False
    return True


def test_exact_mode_matches_depth_brute_force_on_all_small_subsets():
    S = free_monoid(2)
    universe = ["", "0", "1", "00", "01", "10", "11"]
    for r in range(1, len(universe) + 1):
        for F in itertools.combinations(universe, r):
            got = is_foundation_set(S, list(F), "exact")
            assert got.ok == _brute_foundation(F), F


def test_bounded_mode_on_progressions():
    S = get_semigroup("frac")
    ball = enumerate_ball(S, 3)
    assert is_foundation_set(S, [(0, 2), (1, 2)], "bounded", ball=ball).ok
    got = is_foundation_set(S, [(0, 2)], "bounded", ball=ball)
    assert got.status == NOT_FOUNDATION and got.witness == (1, 2)


def test_bounded_mode_reports_undecided_near_the_ball_boundary():
    from rlcm.core import BallTooSmall

    S = free_monoid(2)
    ball = enumerate_ball(S, 3)

    def flaky_lcm(p, q):
        raise BallTooSmall("forced")

    got = is_foundation_set(S, ["0"], "bounded", ball=ball, lcm=flaky_lcm)
    assert got.status == UNDECIDED_BEYOND_BALL


def test_transfer_clauses_between_factor_and_product():
    D = get_zs_descriptor("add:2")
    P = zs_semigroup(D)
    out = foundation_transfer(D, "a", 2, check_radius=3)
    assert out == ((D.U.identity, 2),)
    out = foundation_transfer(D, "b", ["0", "1"], check_radius=3)
    assert out == (("0", 0), ("1", 0))
    out = foundation_transfer(D, "c", [("00", 1), ("01", 0), ("1", 3)],
                              check_radius=3)
    assert out == ("00", "01", "1")
    assert is_foundation_set(D.U, list(out), "exact").ok
    assert P is not None


def test_transfer_rejects_unknown_clauses():
    D = get_zs_descriptor("add:2")
    with pytest.raises(ValueError):
        foundation_transfer(D, "d", None)


def test_random_foundation_sets_transfer(seed=0):
    D = get_zs_descriptor("add:3")
    rng = random.Random(seed)
    for _ in range(5):
        depth = rng.randint(1, 2)
        F = ["".join(w) for w in itertools.product("012", repeat=depth)]
        rng.shuffle(F)
        out = foundation_transfer(D, "b", F, check_radius=3)
        assert len(out) == len(F)


def test_checks_hold_under_python_O():
    # `python -O` strips assert statements; these checks must survive it.
    script = textwrap.dedent("""
        from rlcm.catalog import get_zs_descriptor
        from rlcm.star import foundation_transfer
        from rlcm.zoo import ParseError, bs_from_word
        try:
            foundation_transfer(get_zs_descriptor("add:2"), "b", ["0"],
                                check_radius=2)
            print("transfer accepted")
        except ValueError:
            print("transfer refused")
        try:
            bs_from_word("bbba", 3)
            print("word accepted")
        except ParseError:
            print("word refused")
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-O", "-c", script],
                         env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    assert out.stdout.split("\n") == ["transfer refused", "word refused", ""]
