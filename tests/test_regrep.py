"""Partial-injection tables over finite balls and the relation suites of
the product presentations."""

import numpy as np

from rlcm.catalog import EXAMPLE_ZS_NAMES, get_semigroup, get_zs_descriptor
from rlcm.core import enumerate_ball
from rlcm.regrep import (Basis, ESCAPED_CODE, KILLED_CODE, RepContext,
                         monomial_op, op_compare, op_compose, op_identity,
                         op_word, op_zero, oracle_check_monomial,
                         rep_generator, verify_relations)
from rlcm.star import VV
from rlcm.zoo import free_monoid


def _ctx(S, radius):
    return RepContext(S, enumerate_ball(S, radius))


def test_generator_table_multiplies_on_the_left():
    S = free_monoid(2)
    basis = Basis(enumerate_ball(S, 2))
    idx = basis.index
    T = rep_generator(S, "0", basis)
    assert T.fwd[idx["1"]] == idx["01"]
    assert T.fwd[idx[""]] == idx["0"]
    # images of length-2 words leave the ball
    assert T.fwd[idx["11"]] == ESCAPED_CODE


def test_adjoint_table_divides_on_the_left():
    S = free_monoid(2)
    basis = Basis(enumerate_ball(S, 2))
    idx = basis.index
    T = rep_generator(S, "0", basis)
    assert T.bwd[idx["01"]] == idx["1"]
    assert T.bwd[idx["10"]] == KILLED_CODE
    assert T.bwd[idx[""]] == KILLED_CODE


def test_escape_is_sticky_through_composition():
    S = free_monoid(2)
    basis = Basis(enumerate_ball(S, 2))
    T0 = rep_generator(S, "0", basis)
    # "1" -> "01" -> escapes under a second left multiplication
    assert op_compose(T0.fwd, T0.fwd)[basis.index["1"]] == ESCAPED_CODE
    out = op_word([T0.fwd, T0.fwd])
    assert out[basis.index["1"]] == ESCAPED_CODE


def test_op_compare_excludes_escaped_vectors():
    basis = [0, 1, 2]
    F = np.array([1, ESCAPED_CODE, KILLED_CODE])
    G = np.array([1, 0, KILLED_CODE])
    compared, escaped, bad = op_compare(basis, F, G)
    assert (compared, escaped, list(bad)) == (2, 1, [])
    G2 = np.array([2, 0, KILLED_CODE])
    _, _, bad = op_compare(basis, F, G2)
    assert list(bad) == [0]


def test_identity_and_zero_operators():
    assert list(op_identity(3)) == [0, 1, 2]
    assert list(op_zero(2)) == [KILLED_CODE, KILLED_CODE]
    F = np.array([2, KILLED_CODE, 0])
    assert list(op_compose(op_identity(3), F)) == list(F)


def test_relation_suites_pass_on_all_example_products():
    for name in EXAMPLE_ZS_NAMES:
        D = get_zs_descriptor(name)
        for suite in ("Li", "covariance", "K"):
            report = verify_relations(D, radius=2, suite=suite)
            assert report.ok, f"{name}/{suite}: {report}"


def test_comparator_can_actually_fail():
    # v_0 v_1 equals v_{01}, not v_{10}; the arrays must differ.
    S = free_monoid(2)
    ctx = _ctx(S, 2)
    lhs = op_compose(ctx.op("0"), ctx.op("1"))
    _, _, bad = op_compare(ctx.basis, lhs, ctx.op("10"))
    assert len(bad)
    _, _, good = op_compare(ctx.basis, lhs, ctx.op("01"))
    assert not len(good)


def test_monomial_operator_evaluates_the_two_sided_form():
    S = free_monoid(2)
    ctx = _ctx(S, 2)
    m = VV("1", "0")  # v_1 v_0*
    out = monomial_op(S, m, ctx.basis)
    idx = ctx.basis.index
    assert out[idx["00"]] == idx["10"]
    assert out[idx["1"]] == KILLED_CODE


def test_oracle_check_agrees_on_sample_words():
    S = free_monoid(2)
    ctx = _ctx(S, 3)
    words = [
        [("0", False), ("1", False)],
        [("0", True), ("01", False)],
        [("01", False), ("01", True), ("0", False)],
        [("1", True), ("0", False), ("1", False), ("1", True)],
    ]
    for tokens in words:
        compared, escaped, bad = oracle_check_monomial(S, tokens, ctx)
        assert compared > 0
        assert bad == [], tokens


def test_oracle_check_detects_a_wrong_lcm():
    S = free_monoid(2)
    ctx = _ctx(S, 3)

    def wrong_lcm(p, q):
        got = S.right_lcm(p, q)
        from rlcm.core import DISJOINT, Lcm
        if got is DISJOINT or got.lcm == "":
            return got
        return Lcm(got.lcm + "0", got.p_comp + "0", got.q_comp + "0")

    tokens = [("0", True), ("01", False)]
    _, _, bad = oracle_check_monomial(S, tokens, ctx, lcm=wrong_lcm)
    assert bad


def test_projection_operator_is_range_projection():
    S = get_semigroup("frac")
    ctx = _ctx(S, 2)
    p = (1, 2)
    proj = ctx.proj(p)
    for i, w in enumerate(ctx.basis.elements):
        if proj[i] >= 0:
            assert proj[i] == i
            assert S.left_divide(p, w) is not None
