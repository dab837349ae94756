"""The concrete semigroup families: closed forms, normal forms and
parsers."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlcm.catalog import (bs_semigroup, get_semigroup, nxn_semigroup,
                          zxz_semigroup)
from rlcm.core import DISJOINT, enumerate_ball
from rlcm.zoo import (ParseError, bs_display, frac_right_lcm, frac_semigroup,
                      free_monoid, int_add, nat_add, zsign_group,
                      zxz_decompose)

# ---------------------------------------------------------------------------
# frac: the semigroup of arithmetic progressions (r, x) = r + xN.


def test_frac_lcm_worked_examples():
    got = frac_right_lcm((1, 2), (2, 3))
    assert (got.lcm, got.p_comp, got.q_comp) == ((5, 6), (2, 3), (1, 2))
    got = frac_right_lcm((1, 2), (1, 4))
    assert got.lcm == (1, 4)
    assert frac_right_lcm((0, 2), (1, 2)) is DISJOINT


fracs = st.integers(1, 30).flatmap(
    lambda x: st.tuples(st.integers(0, x - 1), st.just(x)))


@settings(max_examples=300, deadline=None)
@given(fracs, fracs)
def test_frac_lcm_is_least_intersection_point(p, q):
    (r, x), (s, y) = p, q
    got = frac_right_lcm(p, q)
    meet = [t for t in range(x * y) if t % x == r and t % y == s]
    if got is DISJOINT:
        assert math.gcd(x, y) != 0 and (s - r) % math.gcd(x, y) != 0
        assert not meet
    else:
        l, z = got.lcm
        assert z == x * y // math.gcd(x, y)
        assert meet and meet[0] == l
        S = frac_semigroup()
        assert S.multiply(p, got.p_comp) == got.lcm
        assert S.multiply(q, got.q_comp) == got.lcm


big_fracs = st.integers(1, 10 ** 12).flatmap(
    lambda x: st.tuples(st.integers(0, x - 1), st.just(x)))


@settings(max_examples=300, deadline=None)
@given(big_fracs, big_fracs)
def test_frac_lcm_at_large_moduli(p, q):
    (r, x), (s, y) = p, q
    g = math.gcd(x, y)
    got = frac_right_lcm(p, q)
    if got is DISJOINT:
        assert (s - r) % g
        return
    l, z = got.lcm
    assert z == x * y // g
    S = frac_semigroup()
    assert S.multiply(p, got.p_comp) == got.lcm == S.multiply(q, got.q_comp)
    # Common elements repeat with period z, so the least lies in the first
    # period above both starting points.
    assert max(r, s) <= l < max(r, s) + z
    for j, xp in (got.p_comp, got.q_comp):
        assert 0 <= j < xp


def test_frac_lcm_of_large_coprime_moduli():
    p, q = (1, 1000000007), (2, 1000000009)
    got = frac_right_lcm(p, q)
    S = frac_semigroup()
    assert got.lcm[1] == 1000000007 * 1000000009
    assert S.multiply(p, got.p_comp) == got.lcm == S.multiply(q, got.q_comp)
    assert got.lcm[0] < got.lcm[1]


def test_frac_parse_rejects_bad_pairs():
    S = frac_semigroup()
    with pytest.raises(ParseError):
        S.parse("(2,2)")
    with pytest.raises(ParseError):
        S.parse("junk")


# ---------------------------------------------------------------------------
# Affine monoids over N and Z, and their factorizations.


def test_affine_multiplication_examples():
    assert nxn_semigroup().multiply((1, 2), (3, 4)) == (7, 8)
    S = zxz_semigroup()
    assert S.multiply((1, -2), (3, 1)) == (-5, -2)


def test_affine_decompositions():
    assert zxz_decompose((7, 4)) == ((3, 4), (1, 1))
    assert zxz_decompose((5, 2)) == ((1, 2), (2, 1))
    assert zxz_decompose((-3, -2)) == ((1, 2), (-2, -1))


@settings(max_examples=200, deadline=None)
@given(st.integers(-40, 40), st.integers(-12, 12).filter(lambda a: a != 0))
def test_zxz_decompose_recombines(m, a):
    (r, x), (k, j) = zxz_decompose((m, a))
    assert 0 <= r < x and j in (1, -1)
    # (r,x) * (k,j) in the affine product:
    assert (r + x * k, x * j) == (m, a)


def test_nxn_left_divide():
    S = nxn_semigroup()
    assert S.left_divide((1, 2), (7, 8)) == (3, 4)
    assert S.left_divide((1, 2), (2, 8)) is None


def test_zsign_is_a_group():
    S = zsign_group()
    rng = random.Random(1)
    for _ in range(50):
        p = (rng.randrange(-9, 10), rng.choice((1, -1)))
        q = (rng.randrange(-9, 10), rng.choice((1, -1)))
        d = S.left_divide(p, q)
        assert S.multiply(p, d) == q
        assert S.is_unit(p)


# ---------------------------------------------------------------------------
# BS(c,d)+ normal forms and rewriting.


def test_bs_multiply_example():
    S = bs_semigroup(2, 3)
    ab = S.parse("a*b")
    bba = S.parse("b^2*a")
    assert S.display(S.multiply(ab, bba)) == "a^2*b^2"


def test_bs_parse_canonicalizes():
    # b^3 a rewrites to a b^2 in BS(2,3)+.
    S = bs_semigroup(2, 3)
    assert S.parse("b^3*a") == S.parse("a*b^2")


raw_words = st.text(alphabet="ab", max_size=12)
bs_params = st.sampled_from([(1, 2), (2, 3), (3, 2), (2, 2)])


@pytest.mark.parametrize("c, d", [(1, 2), (2, 3), (3, 2), (2, 2)])
def test_bs_is_the_presented_monoid(c, d):
    # The relation b^d a == a b^c holds, so the monoid generated by a and
    # b is an image of <a, b | b^d a = a b^c>.  Every element up to length
    # 4 is a normal form (each exponent before an `a` below d) and is the
    # product of its normal-form letters, so the image separates normal
    # forms: it is BS(c,d)+ itself.
    S = get_semigroup(f"bs:{c},{d}")
    a, b = S.generators

    def power(x, k):
        out = S.identity
        for _ in range(k):
            out = S.multiply(out, x)
        return out

    assert S.multiply(power(b, d), a) == S.multiply(a, power(b, c))
    for p in enumerate_ball(S, 4):
        alphas, beta = p
        assert all(k < d for k in alphas), p
        out = S.identity
        for k in alphas:
            out = S.multiply(S.multiply(out, power(b, k)), a)
        assert S.multiply(out, power(b, beta)) == p


def _bs_word(S, word):
    return S.parse("*".join(word) or "ε")


@settings(max_examples=150, deadline=None)
@given(raw_words, raw_words, bs_params)
def test_bs_left_divide_inverts_multiplication(w1, w2, cd):
    c, d = cd
    S = get_semigroup(f"bs:{c},{d}")
    p, q = _bs_word(S, w1), _bs_word(S, w2)
    assert S.left_divide(p, S.multiply(p, q)) == q


def test_bs_left_divide_through_carry():
    # In BS(1,2)+, b * (a b) == (b a) b == a b^2, so b divides a*b^2.
    S = get_semigroup("bs:1,2")
    got = S.left_divide(S.parse("b"), S.parse("a*b^2"))
    assert got == S.parse("b*a*b")


# ---------------------------------------------------------------------------
# Displays and grammars.


def test_identity_displays():
    assert free_monoid(2).display("") == "ε"
    assert bs_semigroup(1, 2).display(((), 0)) == "ε"
    assert nat_add().display(0) == "0"
    assert nxn_semigroup().display((0, 1)) == "(0,1)"


def test_parse_display_round_trips():
    cases = [
        (free_monoid(3), "0120"),
        (nat_add(), 7),
        (int_add(), -4),
        (frac_semigroup(), (5, 6)),
        (nxn_semigroup(), (7, 4)),
        (zxz_semigroup(), (-3, -2)),
        (bs_semigroup(2, 3), ((0, 2, 1), 2)),
    ]
    for S, x in cases:
        assert S.parse(S.display(x)) == x


def test_letters_past_nine_round_trip():
    # zs:add:12 spells its letters 0-9, a, b.
    S = get_semigroup("zs:add:12")
    ball = enumerate_ball(S, 2)
    assert all(S.parse(S.display(x)) == x for x in ball)
    assert {S.display(x) for x in ball} >= {"(ab ; 0)", "(b ; 1)"}


def test_bs_word_round_trip():
    p = ((0, 2, 1), 2)
    assert bs_display(p) == "a*b^2*a*b*a*b^2"
    assert bs_display(((0, 0, 3, 0), 0)) == "a^2*b^3*a^2"
    assert bs_semigroup(2, 5).parse(bs_display(p)) == p
