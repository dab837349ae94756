"""Self-similar letter actions, commutation tables, two-alphabet normal
forms and the right-LCM survey."""

import functools
import io
import itertools
import math
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlcm import selfsim
from rlcm.cli import run
from rlcm.core import (DISJOINT, BallTooSmall, BruteForcer,
                       IncomparableMultiples, enumerate_ball)
from rlcm.selfsim import (adding_machine, bs_odometer, ftheta_anti_normal,
                          ftheta_decode, ftheta_display, ftheta_embed,
                          ftheta_factor, ftheta_left_divide,
                          ftheta_min_common_multiples, ftheta_multiply,
                          ftheta_normalize, ftheta_parse, ftheta_right_lcm,
                          ftheta_right_lcm_survey, ftheta_semigroup,
                          odometer_walk, prop_compat_check, ssa_act_word,
                          theta_build, theta_swap)
from rlcm.zoo import frac_multiply


# ---------------------------------------------------------------------------
# Letterwise actions.


def test_adding_machine_acts_as_addition_with_carry():
    D = adding_machine(2)
    # digit words are least-significant first: "11" is 3, adding 1 gives
    # "00" with a carry of 1 continuing past the end.
    assert ssa_act_word(D, 1, "11") == ("00", 1)
    assert ssa_act_word(D, 1, "01") == ("11", 0)


def test_action_inverse_round_trips():
    # -g walks g's image back letter by letter, on both odometers.
    for D in (adding_machine(3), bs_odometer(2, 3)):
        for g in range(-5, 6):
            for word in ("", "0", "21", "102"):
                image, _ = ssa_act_word(D, g, word)
                assert ssa_act_word(D, -g, image)[0] == word


def test_odometer_walk_is_the_letterwise_fold_of_act_and_res():
    # The walk divides once per letter; Odometer.act and Odometer.res stay
    # the reference that prop_compat_check reads.
    for c, d in itertools.product(range(1, 5), repeat=2):
        D = bs_odometer(c, d)
        words = [w for n in range(5)
                 for w in itertools.product(range(d), repeat=n)]
        for k in range(-40, 41):
            for word in words:
                out, g = [], k
                for x in word:
                    out.append(D.act(g, x))
                    g = D.res(g, x)
                assert odometer_walk(D, k, word) == (tuple(out), g)


def test_bs_odometer_scales_carries():
    D = bs_odometer(2, 3)
    # adding 4 to digit 2 in base 3 carries twice, each carry costing 2.
    assert D.act(4, 2) == 0 and D.res(4, 2) == 4


# ---------------------------------------------------------------------------
# Commutation tables.


def test_standard_table_values():
    T = theta_build(2, 3)
    assert T.table[(1, 1)] == (0, 2)  # y1 x1 = x0 y2
    T22 = theta_build(2, 2)
    for j in range(2):
        for i in range(2):
            assert T22.table[(j, i)] == (j, i)  # the flip table


def test_table_must_be_a_bijection():
    with pytest.raises(ValueError):
        theta_build(1, 3)
    T = theta_build(2, 2)
    table = dict(T.table)
    table[(0, 0)] = table[(0, 1)]
    with pytest.raises(ValueError):
        type(T)(2, 2, table)


def _letters(m, n):
    return st.lists(
        st.one_of(st.tuples(st.just("x"), st.integers(0, m - 1)),
                  st.tuples(st.just("y"), st.integers(0, n - 1))),
        max_size=8)


letters23 = _letters(2, 3)


@settings(max_examples=200, deadline=None)
@given(letters23)
def test_normal_form_is_fold_of_multiplication(letters):
    T = theta_build(2, 3)
    z = ftheta_normalize(T, letters)
    assert len(z[0]) == sum(1 for k, _ in letters if k == "x")
    assert len(z[1]) == sum(1 for k, _ in letters if k == "y")
    # rebuilding from single letters through multiply gives the same
    # element as any other association:
    halves = len(letters) // 2
    left = ftheta_normalize(T, letters[:halves])
    right = ftheta_normalize(T, letters[halves:])
    assert ftheta_multiply(T, left, right) == z


@settings(max_examples=200, deadline=None)
@given(letters23)
def test_anti_normal_form_round_trips(letters):
    T = theta_build(2, 3)
    z = ftheta_normalize(T, letters)
    ys, xs = ftheta_anti_normal(T, z)
    assert ftheta_multiply(T, ((), ys), (xs, ())) == z


@settings(max_examples=150, deadline=None)
@given(letters23, letters23)
def test_factor_and_left_divide(l1, l2):
    T = theta_build(2, 3)
    z1 = ftheta_normalize(T, l1)
    z2 = ftheta_normalize(T, l2)
    z = ftheta_multiply(T, z1, z2)
    assert ftheta_left_divide(T, z1, z) == z2
    w1, w2 = ftheta_factor(T, z, (len(z1[0]), len(z1[1])))
    assert w1 == z1 and w2 == z2


def test_parse_display_round_trip():
    T = theta_build(2, 3)
    for text in (".", "x0x1.", ".y2", "x1.y0y2"):
        assert ftheta_display(ftheta_parse(T, text)) == text


# ---------------------------------------------------------------------------
# The embedding into arithmetic progressions, for every (m, n).


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_embedding_is_a_homomorphism(data):
    # Shared factors too: the embedding is then injective per bidegree
    # only, so decoding needs the bidegree.
    m, n = data.draw(st.sampled_from([(2, 3), (2, 4), (4, 6)]))
    T = theta_build(m, n)
    z1 = ftheta_normalize(T, data.draw(_letters(m, n)))
    z2 = ftheta_normalize(T, data.draw(_letters(m, n)))
    z = ftheta_multiply(T, z1, z2)
    lhs = ftheta_embed(T, z)
    rhs = frac_multiply(ftheta_embed(T, z1), ftheta_embed(T, z2))
    assert lhs == rhs
    assert ftheta_decode(T, lhs[0], len(z[0]), len(z[1])) == z


def _all_words(T, max_bidegree):
    P, Q = max_bidegree
    for p in range(P + 1):
        for q in range(Q + 1):
            for xs in itertools.product(range(T.m), repeat=p):
                for ys in itertools.product(range(T.n), repeat=q):
                    yield (xs, ys)


def _least_two(T, words):
    """The two least of `words` (of one bidegree) by embedded value."""
    return sorted(words, key=lambda z: ftheta_embed(T, z)[0])[:2]


@pytest.mark.parametrize("m, n, box", [
    pytest.param(2, 3, (2, 2), id="2,3"),
    pytest.param(2, 2, (2, 2), id="2,2"),
    pytest.param(2, 4, (1, 2), id="2,4"),
    pytest.param(4, 6, (1, 1), id="4,6"),
    pytest.param(3, 6, (2, 1), id="3,6"),
    pytest.param(2, 12, (1, 1), id="2,12"),
])
def test_closed_lcm_matches_minimal_common_multiples(m, n, box):
    T = theta_build(m, n)
    words = list(_all_words(T, box))
    incomparable = 0
    for z1 in words:
        for z2 in words:
            minimal = ftheta_min_common_multiples(T, z1, z2)
            try:
                got = ftheta_right_lcm(T, z1, z2)
            except IncomparableMultiples as e:
                incomparable += 1
                assert (e.p, e.q) == (z1, z2)
                assert e.witnesses == _least_two(T, minimal)
                assert len(minimal) >= 2
                continue
            if got is DISJOINT:
                assert minimal == []
            else:
                assert minimal == [got.lcm]
                assert ftheta_multiply(T, z1, got.p_comp) == got.lcm
                assert ftheta_multiply(T, z2, got.q_comp) == got.lcm
    # Two minimal multiples occur exactly when the sizes share a factor.
    assert (incomparable > 0) == (math.gcd(m, n) > 1)


def test_witnesses_are_the_two_least_minimal_multiples():
    # Over every pair of four balls, each counterexample the closed form
    # raises carries the two least minimal common multiples by embedded
    # value, as the exhaustive search at the joined bidegree finds them.
    raised = 0
    for m, n, radius in ((2, 2, 3), (2, 4, 3), (4, 6, 2), (3, 6, 2)):
        T = theta_build(m, n)
        ball = enumerate_ball(ftheta_semigroup(m, n), radius)
        for z1, z2 in itertools.product(ball, repeat=2):
            try:
                ftheta_right_lcm(T, z1, z2)
            except IncomparableMultiples as e:
                raised += 1
                minimal = ftheta_min_common_multiples(T, z1, z2)
                assert e.witnesses == _least_two(T, minimal), (z1, z2)
    assert raised == 2504


@functools.cache
def _ftheta_oracle(m, n):
    """Operands of radius 2 and a complement-mode oracle whose radius-4
    complements reach every join bidegree of two such operands."""
    S = ftheta_semigroup(m, n)
    complements = enumerate_ball(S, 4)
    oracle = BruteForcer(S, complements, complements=complements)
    return enumerate_ball(S, 2).elements, oracle


def _outcome(right_lcm, p, q):
    try:
        return right_lcm(p, q)
    except IncomparableMultiples as e:
        return ("incomparable", e.witnesses)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_noncoprime_lcm_agrees_with_the_oracle(data):
    m, n = data.draw(st.sampled_from([(2, 2), (2, 4), (4, 6), (3, 6)]))
    operands, oracle = _ftheta_oracle(m, n)
    z1 = data.draw(st.sampled_from(operands))
    z2 = data.draw(st.sampled_from(operands))
    try:
        want = _outcome(oracle.right_lcm, z1, z2)
    except BallTooSmall:
        return
    got = _outcome(oracle.S.right_lcm, z1, z2)
    if not isinstance(want, tuple):
        assert got == want
        return
    # Both sides raise: the closed form with the two least minimal
    # multiples, the oracle with two of the same minimal multiples.
    T = theta_build(m, n)
    minimal = ftheta_min_common_multiples(T, z1, z2)
    assert got == ("incomparable", _least_two(T, minimal))
    assert set(want[1]) <= set(minimal)


def test_noncoprime_lcm_is_decided_without_searching(monkeypatch):
    # On ftheta:4,6, x0. has 6^10 complements at the join bidegree with
    # .y0^10; the closed form reads both minimal multiples off without
    # multiplying or dividing a single word.  Against .y0^k, k >= 2, the
    # embeddings are the two least of the class 0 mod L = lcm(4, 6^k) =
    # 6^k: 0, and L, which is x0 followed by y-letters spelling
    # L / 4 = 9 * 6^(k-2) in base 6, least significant first, as the
    # exhaustive search confirms at small k.
    def least_two(k):
        return ["x0." + "y0" * k, "x0." + "y0" * (k - 2) + "y3y1"]

    T = theta_build(4, 6)
    for k in (2, 3):
        minimal = ftheta_min_common_multiples(
            T, ftheta_parse(T, "x0."), ftheta_parse(T, "." + "y0" * k))
        assert list(map(ftheta_display, _least_two(T, minimal))) == (
            least_two(k))

    def refuse(*args):
        raise AssertionError("searched the complements")

    monkeypatch.setattr(selfsim, "ftheta_left_divide", refuse)
    monkeypatch.setattr(selfsim, "ftheta_multiply", refuse)
    z1, z2 = ftheta_parse(T, "x0."), ftheta_parse(T, "." + "y0" * 10)
    for p, q in ((z1, z2), (z2, z1)):
        with pytest.raises(IncomparableMultiples) as e:
            ftheta_right_lcm(T, p, q)
        assert (e.value.p, e.value.q) == (p, q)
        assert [ftheta_display(w) for w in e.value.witnesses] == (
            least_two(10))


def test_lcm_of_long_operands_sticking_out_is_read_off(monkeypatch):
    # On ftheta:4,6, x0.y0^k and x0^k.y0 have 4^(k-1) and 6^(k-1)
    # candidate complements at the join bidegree (k, k); the closed form
    # multiplies and divides no words at all.  The two least minimal
    # multiples embed as 0 and L = lcm(4 * 6^k, 4^k * 6) = 2^(2k+1) 3^k:
    # x0^k, then y-letters spelling L / 4^k = 2 * 3^k in base 6, least
    # significant first, as the exhaustive search confirms at small k.
    def least_two(k):
        v, second = 2 * 3 ** k, "x0" * k + "."
        for _ in range(k):
            v, digit = divmod(v, 6)
            second += f"y{digit}"
        return [f"{'x0' * k}.{'y0' * k}", second]

    T = theta_build(4, 6)
    for k in (2, 3):
        z1, z2 = ftheta_parse(T, "x0." + "y0" * k), ftheta_parse(
            T, "x0" * k + ".y0")
        minimal = ftheta_min_common_multiples(T, z1, z2)
        assert list(map(ftheta_display, _least_two(T, minimal))) == (
            least_two(k))

    def refuse(*args):
        raise AssertionError("searched the complements")

    monkeypatch.setattr(selfsim, "ftheta_left_divide", refuse)
    monkeypatch.setattr(selfsim, "ftheta_multiply", refuse)
    k = 1000
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(["lcm", "--semigroup", "ftheta:4,6",
                    "x0." + "y0" * k, "x0" * k + ".y0"])
    assert (code, buf.getvalue()) == (
        1, "incomparable {} {}\n".format(*least_two(k)))


# ---------------------------------------------------------------------------
# Compatibility of tables with odometer pairs, and the survey.


def test_compat_holds_for_standard_tables():
    for m, n in ((2, 3), (3, 4)):
        report = prop_compat_check(theta_build(m, n), adding_machine(m),
                                   adding_machine(n), range(-8, 9))
        assert report.ok, str(report)


def test_every_single_swap_is_detected():
    T = theta_build(2, 3)
    keys = sorted(T.table)
    for k1, k2 in itertools.combinations(keys, 2):
        mutant = theta_swap(T, k1, k2)
        report = prop_compat_check(mutant, adding_machine(2),
                                   adding_machine(3), range(-8, 9))
        assert not report.ok, f"swap {k1}<->{k2} went undetected"


def _rewrite(letters, rule):
    """Apply a two-letter rewriting rule anywhere until none applies."""
    letters = list(letters)
    k = 0
    while k < len(letters) - 1:
        got = rule(letters[k], letters[k + 1])
        if got is None:
            k += 1
        else:
            letters[k:k + 2] = got
            k = 0
    return letters


def _plain_multiply(T, z1, z2):
    """z1*z2 by rewriting y_j x_i -> x_i' y_j' on the letter sequence."""
    def rule(a, b):
        if a[0] == "y" and b[0] == "x":
            i, j = T.table[(a[1], b[1])]
            return [("x", i), ("y", j)]
        return None

    seq = [("x", i) for i in z1[0]] + [("y", j) for j in z1[1]]
    seq += [("x", i) for i in z2[0]] + [("y", j) for j in z2[1]]
    out = _rewrite(seq, rule)
    return (tuple(i for k, i in out if k == "x"),
            tuple(j for k, j in out if k == "y"))


def _plain_anti_normal(T, z):
    """z in Y*X* order by rewriting x_i y_j -> y_j' x_i'."""
    def rule(a, b):
        if a[0] == "x" and b[0] == "y":
            j, i = T.inv[(a[1], b[1])]
            return [("y", j), ("x", i)]
        return None

    out = _rewrite([("x", i) for i in z[0]] + [("y", j) for j in z[1]], rule)
    return (tuple(j for k, j in out if k == "y"),
            tuple(i for k, i in out if k == "x"))


def test_cached_rewriting_is_per_table():
    T = theta_build(2, 3)
    words = [(xs, ys) for p in range(4) for q in range(4 - p)
             for xs in itertools.product(range(2), repeat=p)
             for ys in itertools.product(range(3), repeat=q)]
    pairs = list(itertools.product(words, repeat=2))
    std = {(z1, z2): ftheta_multiply(T, z1, z2) for z1, z2 in pairs}
    std_anti = {z: ftheta_anti_normal(T, z) for z in words}
    # The standard table's caches are warm; a mutant built from it must
    # rewrite with its own table, on its cold calls and its warm ones.
    mutant = theta_swap(T, (0, 0), (1, 1))
    for _state in ("cold", "warm"):
        for z1, z2 in pairs:
            assert (ftheta_multiply(mutant, z1, z2)
                    == _plain_multiply(mutant, z1, z2)), (z1, z2)
        for z in words:
            assert ftheta_anti_normal(mutant, z) == _plain_anti_normal(
                mutant, z), z
    assert any(ftheta_multiply(mutant, z1, z2) != got
               for (z1, z2), got in std.items())
    assert any(ftheta_anti_normal(mutant, z) != got
               for z, got in std_anti.items())
    for (z1, z2), got in std.items():
        assert got == _plain_multiply(T, z1, z2) == ftheta_multiply(T, z1, z2)
    for z, got in std_anti.items():
        assert got == _plain_anti_normal(T, z) == ftheta_anti_normal(T, z)


def test_survey_finds_counterexamples_iff_not_coprime():
    for m, n in ((2, 2), (2, 4), (4, 6)):
        verdict = ftheta_right_lcm_survey(theta_build(m, n), (2, 2))
        assert not verdict.ok
        z1, z2 = verdict.pair
        t1, t2 = verdict.multiples
        for z in (z1, z2):
            for t in (t1, t2):
                T = theta_build(m, n)
                assert ftheta_left_divide(T, z, t) is not None
    for m, n in ((2, 3), (3, 4)):
        verdict = ftheta_right_lcm_survey(theta_build(m, n), (2, 2))
        assert verdict.ok


@pytest.mark.parametrize("m, n, box, checked", [
    (3, 5, (3, 2), 34404), (2, 3, (4, 3), 55388), (3, 4, (3, 3), 132004),
    (2, 5, (5, 2), 81639)])
def test_survey_certificates_keep_their_counts(m, n, box, checked):
    verdict = ftheta_right_lcm_survey(theta_build(m, n), box)
    assert verdict.ok and verdict.checked_pairs == checked


@pytest.mark.parametrize("m, n, checked, other", [
    (2, 2, 39, 1), (2, 4, 111, 2), (4, 6, 247, 3)])
def test_survey_counterexamples_keep_their_witnesses(m, n, checked, other):
    verdict = ftheta_right_lcm_survey(theta_build(m, n), (2, 2))
    assert verdict.checked_pairs == checked
    assert verdict.pair == (((), (0,)), ((0,), ()))
    assert verdict.multiples == (((0,), (0,)), ((0,), (other,)))


def test_known_minimal_pair_in_the_4_6_monoid():
    T = theta_build(4, 6)
    x2 = ftheta_parse(T, "x2.")
    y2 = ftheta_parse(T, ".y2")
    got = ftheta_min_common_multiples(T, x2, y2)
    assert [ftheta_display(t) for t in got] == ["x2.y0", "x2.y3"]
