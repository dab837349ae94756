"""Two-factor products: multiplication, division, right LCMs and the
matching-axiom checker with its mutation battery."""

import dataclasses
import itertools

import pytest

from rlcm.catalog import (EXAMPLE_ZS_NAMES, get_semigroup, get_zs_descriptor,
                          product_form)
from rlcm.core import DISJOINT, IncomparableMultiples, enumerate_ball
from rlcm.report import FAIL
from rlcm.selfsim import (adding_machine, bs_odometer, ftheta_embed,
                          ftheta_min_common_multiples, theta_build)
from rlcm.zs import (HypothesisViolation, ZSDescriptor, _lift,
                     zs_axiom_check, zs_left_divide, zs_multiply,
                     zs_right_lcm, zs_semigroup)
from rlcm.zoo import free_monoid, nat_add


def test_axiom_check_passes_on_all_example_products():
    for name in EXAMPLE_ZS_NAMES:
        D = get_zs_descriptor(name)
        report = zs_axiom_check(D, enumerate_ball(D.U, 2),
                                enumerate_ball(D.A, 2))
        assert report.ok, f"{name}: {report}"


def test_product_multiplication_glues_the_factors():
    D = get_zs_descriptor("add:2")
    # ("1", 1) * ("0", 0): 1 acts on "0" as the odometer, giving "1"
    # with no carry, so the product is ("11", 0 + 0 + ...).
    got = zs_multiply(D, ("1", 1), ("0", 0))
    assert got == ("1" + D.action(1, "0"), D.restriction(1, "0"))


def test_left_divide_inverts_multiplication():
    D = get_zs_descriptor("bs:2,3")
    P = zs_semigroup(D)
    ball = enumerate_ball(P, 2)
    for p in ball:
        for q in ball:
            assert zs_left_divide(D, p, zs_multiply(D, p, q)) == q


def test_right_lcm_disjoint_iff_first_components_disjoint():
    D = get_zs_descriptor("add:2")
    assert zs_right_lcm(D, ("0", 1), ("1", 0)) is DISJOINT
    got = zs_right_lcm(D, ("0", 0), ("01", 1))
    assert got is not DISJOINT
    P = zs_semigroup(D)
    assert P.multiply(("0", 0), got.p_comp) == got.lcm
    assert P.multiply(("01", 1), got.q_comp) == got.lcm


def test_right_lcm_tie_keeps_the_first_restriction():
    D = get_zs_descriptor("add:2")
    # Equal first components with identity group parts: both lifted
    # restrictions are the identity, and the tie resolves to it.
    got = zs_right_lcm(D, ("01", 0), ("01", 0))
    assert got.lcm == ("01", 0)
    assert got.p_comp == (D.U.identity, D.A.identity)


def test_right_lcm_incomparable_restrictions_raise():
    U = free_monoid(2)
    A = free_monoid(2)
    # Trivial action but a restriction that remembers the word; the two
    # lifted restrictions "01" and "1" are prefix-incomparable.
    D = ZSDescriptor(
        name="broken",
        U=U,
        A=A,
        action=lambda a, u: u,
        restriction=lambda a, u: a + u,
        action_inverse=lambda a, u: u,
    )
    with pytest.raises(HypothesisViolation):
        zs_right_lcm(D, ("0", "0"), ("01", "1"))


def test_incomparable_multiples_in_u_lift_to_the_product():
    D = get_zs_descriptor("ftheta:2,2")
    P = zs_semigroup(D)
    T = theta_build(2, 2)
    raised = 0
    for p, q in itertools.product(enumerate_ball(P, 2), repeat=2):
        minimal = ftheta_min_common_multiples(T, p[0], q[0])
        if len(minimal) < 2:
            continue
        with pytest.raises(IncomparableMultiples) as exc:
            zs_right_lcm(D, p, q)
        raised += 1
        w1, w2 = exc.value.witnesses
        assert (exc.value.p, exc.value.q) == (p, q)
        for w in (w1, w2):
            assert P.left_divide(p, w) is not None
            assert P.left_divide(q, w) is not None
        assert P.left_divide(w1, w2) is None
        assert P.left_divide(w2, w1) is None
        least = sorted(minimal, key=lambda z: ftheta_embed(T, z)[0])[:2]
        assert [w1, w2] == [_lift(D, p[1], q[1], w,
                                  D.U.left_divide(p[0], w),
                                  D.U.left_divide(q[0], w)).lcm
                            for w in least]
    assert raised > 0


# ---------------------------------------------------------------------------
# Mutation battery: each matching axiom, violated one at a time, must be
# flagged by its own suite.


def _mutants():
    base = get_zs_descriptor("add:2")
    act, res = base.action, base.restriction

    def swap(**kw):
        return dataclasses.replace(base, **kw)

    yield "B1", swap(action=lambda a, u: act(a if a else 1, u))
    yield "B2", swap(action=lambda a, u: act(min(a, 2), u))
    yield "B3", swap(action=lambda a, u: act(a, u) if u else "0")
    yield "B4", swap(restriction=lambda a, u: res(a, u) if u else a + 1)
    yield "B5", swap(restriction=lambda a, u: 0)
    yield "B6", swap(restriction=lambda a, u: res(a, u) + len(u))
    yield "B7", swap(restriction=lambda a, u: res(a, u) + (0 if a else 1))
    yield "B8", swap(restriction=lambda a, u: res(min(a, 2), u))


def _failed_suites(D):
    report = zs_axiom_check(D, enumerate_ball(D.U, 3),
                            enumerate_ball(D.A, 3))
    return {c.suite for c in report.checks if c.status == FAIL}


def test_each_axiom_mutation_is_detected_by_its_suite():
    for axiom, mutant in _mutants():
        failed = _failed_suites(mutant)
        assert axiom in failed, f"mutating {axiom} went undetected"


def test_a_wrong_inverse_action_fails_bijectivity_with_its_witness():
    # The walk at +a in place of -a undoes the action on one-letter words
    # of the base-2 adding machine, but not on two-letter ones.
    base = get_zs_descriptor("add:2")
    mutant = dataclasses.replace(base, action_inverse=base.action)
    report = zs_axiom_check(mutant, enumerate_ball(base.U, 2),
                            enumerate_ball(base.A, 2))
    assert _failed_suites(mutant) == {"action-bijective"}
    bij = next(c for c in report.checks if c.suite == "action-bijective")
    assert bij.witnesses == ["1:00", "1:01", "1:10", "1:11"]


def test_constant_restriction_violates_the_cocycle_axiom():
    # Keeping the genuine odometer action but forcing every restriction
    # to the identity breaks B5; the first witness is the carry at
    # a=1, u="1", v="0" (digit words are least-significant first).
    base = get_zs_descriptor("add:2")
    mutant = dataclasses.replace(base, restriction=lambda a, u: 0)
    report = zs_axiom_check(mutant, enumerate_ball(base.U, 2),
                            enumerate_ball(base.A, 2))
    b5 = next(c for c in report.checks if c.suite == "B5")
    assert b5.status == FAIL
    assert "(1,1,0)" in b5.witnesses


def test_pure_products_of_generators():
    D = get_zs_descriptor("nxn")
    P = zs_semigroup(D)
    # ((0,2) ; 0) * ((0,3) ; 1): trivial action of 0, so the first
    # components compose in the progression semigroup.
    assert P.multiply(((0, 2), 0), ((0, 3), 1)) == ((0, 6), 1)
    # the A part acts before landing: ((0,1) ; 1) * ((0,2) ; 0)
    assert P.multiply(((0, 1), 1), ((0, 2), 0)) == ((1, 2), 0)


# ---------------------------------------------------------------------------
# The self-similar products cache their matching per descriptor; every
# cached value must equal a plain walk, whether the cache is cold or warm.

SELF_SIMILAR = [n for n in EXAMPLE_ZS_NAMES if n not in ("nxn", "zxz")]


def _letter_actions(name):
    """The letterwise actions a U-element is walked through, in order."""
    kind, _, args = name.partition(":")
    if kind == "add":
        return (adding_machine(int(args)),)
    c, d = (int(x) for x in args.split(","))
    if kind == "bs":
        return (bs_odometer(c, d),)
    return adding_machine(c), adding_machine(d)  # ftheta: x-part, y-part


def _plain_walk(machines, a, u):
    """(a·u, a|_u) by one uncached loop over the letters of u."""
    parts = (u,) if isinstance(u, str) else u
    out = []
    for L, part in zip(machines, parts):
        letters = []
        for x in part:
            letters.append(L.act(a, int(x)))
            a = L.res(a, int(x))
        out.append(letters)
    if isinstance(u, str):
        return "".join(map(str, out[0])), a
    return tuple(map(tuple, out)), a


@pytest.mark.parametrize("name", SELF_SIMILAR)
def test_cached_matching_equals_the_plain_walk(name):
    machines = _letter_actions(name)
    D0 = get_zs_descriptor(name)
    us = list(enumerate_ball(D0.U, 3))
    avs = list(enumerate_ball(D0.A, 3))
    walks = {(a, u): _plain_walk(machines, a, u) for a in avs for u in us}
    want = {"action": {k: w[0] for k, w in walks.items()},
            "restriction": {k: w[1] for k, w in walks.items()},
            # The radius-3 U ball holds every word up to its length, and
            # the action keeps lengths, so each a permutes it.
            "action_inverse": {(a, au): u
                               for (a, u), (au, _r) in walks.items()}}
    for field, expected in want.items():
        D = get_zs_descriptor(name)  # a fresh descriptor, cold caches
        f = getattr(D, field)
        for state in ("cold", "warm"):
            got = {(a, u): f(a, u) for a, u in expected}
            assert got == expected, f"{name} {field} ({state})"


# ---------------------------------------------------------------------------
# The fused maps.  Every product operation reads the matching as pairs,
# (a·u, a|_u) and (v, a|_v) with a·v == x; a catalog descriptor takes them
# from the one pair its fields are views of, and a descriptor with a
# replaced field composes them from the fields as given.

FIELDS = ("action", "restriction", "action_inverse")


@pytest.mark.parametrize("name", EXAMPLE_ZS_NAMES)
def test_the_fused_maps_agree_with_the_three_fields(name):
    D = get_zs_descriptor(name)
    assert D.matching is D.action.__self__.matching
    assert D.comatching is D.action.__self__.comatching
    for a in enumerate_ball(D.A, 2):
        for u in enumerate_ball(D.U, 2):
            assert D.matching(a, u) == (D.action(a, u), D.restriction(a, u))
            v = D.action_inverse(a, u)
            assert D.comatching(a, u) == (v, D.restriction(a, v))


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", ("add:2", "nxn", "zxz", "ftheta:2,3"))
def test_a_replaced_field_is_read_by_every_operation(name, field):
    base = get_zs_descriptor(name)
    ball = list(enumerate_ball(zs_semigroup(base), 2))[:20]
    products = [zs_multiply(base, p, q) for p in ball for q in ball]
    us, avs = enumerate_ball(base.U, 2), enumerate_ball(base.A, 2)
    f = getattr(base, field)
    calls = []

    def spy(a, u):
        calls.append(1)
        return f(a, u)

    D = dataclasses.replace(base, **{field: spy})
    # The product reads a·v and a|_v, the quotient the inverse action and
    # a|_v, and the axioms all three.
    for reads, op in (
            (("action", "restriction"),
             lambda E: [zs_multiply(E, p, q) for p in ball for q in ball]),
            (("action_inverse", "restriction"),
             lambda E: [zs_left_divide(E, p, r) for p in ball
                        for r in products]),
            (FIELDS, lambda E: zs_axiom_check(E, us, avs).lines())):
        del calls[:]
        assert op(D) == op(base)
        assert bool(calls) == (field in reads), (reads, field)


def test_a_view_in_the_wrong_role_is_read_as_given():
    # base.action is a view of the same pair as the other two fields, but
    # not in the role of the inverse: the quotient must read it as given.
    base = get_zs_descriptor("add:2")
    mutant = dataclasses.replace(base, action_inverse=base.action)
    ball = enumerate_ball(zs_semigroup(base), 2)
    products = [zs_multiply(base, p, q) for p in ball for q in ball]
    assert any(zs_left_divide(mutant, p, r) != zs_left_divide(base, p, r)
               for p in ball for r in products)


# ---------------------------------------------------------------------------
# The plain families nxn and zxz answer their right LCMs through their
# product form, so the split/join pair must be an isomorphism.  (bs:c,d
# computes through its product form throughout; test_zoo certifies that
# it is the presented monoid.)


@pytest.mark.parametrize("selector", ("nxn", "zxz"))
def test_each_plain_family_is_its_product_form(selector):
    S = get_semigroup(selector)
    D, split, join = product_form(selector)
    ball = list(enumerate_ball(S, 3))
    for p in ball:
        assert join(split(p)) == p
        for r in ball:
            assert split(S.multiply(p, r)) == zs_multiply(D, split(p),
                                                          split(r))
            q = S.left_divide(p, r)
            want = None if q is None else split(q)
            assert zs_left_divide(D, split(p), split(r)) == want, (p, r)
