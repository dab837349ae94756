"""Partial-injection tables over finite balls and the relation suites of
the product presentations."""

import os
import random
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rlcm import regrep
from rlcm.catalog import EXAMPLE_ZS_NAMES, get_semigroup, get_zs_descriptor
from rlcm.core import DISJOINT, Lcm, enumerate_ball
from rlcm.regrep import (ESCAPED_CODE, KILLED_CODE, TAIL, RepContext,
                         monomial_op, op_compare, op_compose, op_identity,
                         op_word, op_zero, oracle_check_monomial,
                         rep_generator, verify_relations)
from rlcm.star import VV, ZERO, word_normalize
from rlcm.zoo import free_monoid
from rlcm.zs import zs_semigroup


def _ctx(S, radius):
    return RepContext(S, enumerate_ball(S, radius))


def _wrong_lcm(S):
    """S's right LCM, padded by a letter wherever it is not trivial."""
    def wrong_lcm(p, q):
        got = S.right_lcm(p, q)
        if got is DISJOINT or got.lcm == "":
            return got
        return Lcm(got.lcm + "0", got.p_comp + "0", got.q_comp + "0")

    return replace(S, right_lcm=wrong_lcm)


def _seeded_words(basis, count, seed):
    """Token words of one to four tokens over the non-identity elements
    of `basis`, so that words repeat their monomials and LCM pairs."""
    rng = random.Random(seed)
    pool = [(p, starred) for p in basis.elements[1:]
            for starred in (False, True)]
    return [[rng.choice(pool) for _ in range(rng.randint(1, 4))]
            for _ in range(count)]


def test_generator_table_multiplies_on_the_left():
    S = free_monoid(2)
    basis = enumerate_ball(S, 2)
    idx = basis.index
    T = rep_generator(S, "0", basis)
    assert T.fwd[idx["1"]] == idx["01"]
    assert T.fwd[idx[""]] == idx["0"]
    # images of length-2 words leave the ball
    assert T.fwd[idx["11"]] == ESCAPED_CODE


def test_adjoint_table_divides_on_the_left():
    S = free_monoid(2)
    basis = enumerate_ball(S, 2)
    idx = basis.index
    T = rep_generator(S, "0", basis)
    assert T.bwd[idx["01"]] == idx["1"]
    assert T.bwd[idx["10"]] == KILLED_CODE
    assert T.bwd[idx[""]] == KILLED_CODE


def test_escape_is_sticky_through_composition():
    S = free_monoid(2)
    basis = enumerate_ball(S, 2)
    T0 = rep_generator(S, "0", basis)
    # "1" -> "01" -> escapes under a second left multiplication
    assert op_compose(T0.fwd, T0.fwd)[basis.index["1"]] == ESCAPED_CODE
    out = op_word([T0.fwd, T0.fwd])
    assert out[basis.index["1"]] == ESCAPED_CODE


def test_op_compare_excludes_escaped_vectors():
    basis = [0, 1, 2]
    F = (1, ESCAPED_CODE, KILLED_CODE, *TAIL)
    G = (1, 0, KILLED_CODE, *TAIL)
    assert op_compare(basis, F, G) == (2, 1, [])
    assert op_compare(basis, F, F) == (2, 1, [])
    G2 = (2, 0, KILLED_CODE, *TAIL)
    assert op_compare(basis, F, G2) == (2, 1, [0])


def test_identity_and_zero_operators():
    assert TAIL == (ESCAPED_CODE, KILLED_CODE)
    assert op_identity(3) == (0, 1, 2, *TAIL)
    assert op_zero(2) == (KILLED_CODE, KILLED_CODE, *TAIL)
    F = (2, KILLED_CODE, 0, *TAIL)
    assert op_compose(op_identity(3), F) == F
    assert op_compose(F, op_identity(3)) == F


def _numpy_compose(left, right):
    """Composition on numpy code arrays, as the operators were once
    stored: the reference for the tuple kernel."""
    out = right.copy()
    mask = right >= 0
    out[mask] = left[right[mask]]
    return out


def _numpy_compare(F, G):
    esc = (F == ESCAPED_CODE) | (G == ESCAPED_CODE)
    bad = ~esc & (F != G)
    n_esc = int(esc.sum())
    return len(F) - n_esc, n_esc, np.flatnonzero(bad).tolist()


def test_the_tuple_kernel_agrees_with_numpy_code_arrays():
    rng = random.Random(11)
    for _ in range(400):
        n = rng.randint(1, 70)
        codes = [ESCAPED_CODE, KILLED_CODE, *range(n)]

        def draw():
            return [rng.choice(codes) for _ in range(n)]

        words = [draw() for _ in range(rng.randint(1, 4))]
        ops = [tuple(w) + TAIL for w in words]
        arrays = [np.array(w, dtype=np.int64) for w in words]
        want = arrays[-1]
        for m in reversed(arrays[:-1]):
            want = _numpy_compose(m, want)
        got = op_word(ops)
        assert got == tuple(want.tolist()) + TAIL
        assert op_compose(ops[0], ops[-1]) == tuple(
            _numpy_compose(arrays[0], arrays[-1]).tolist()) + TAIL
        # Unequal operators, and equal ones, with their escapes.
        other = draw()
        for F, G in ((got, tuple(other) + TAIL), (got, got),
                     (ops[0], tuple(words[0][:n // 2] + other[n // 2:])
                      + TAIL)):
            assert op_compare(range(n), F, G) == _numpy_compare(
                np.array(F[:n]), np.array(G[:n]))


#: The honest relation suites' report lines: each header line names a
#: product, a radius and a suite, and the RESULT lines under it are its
#: report.  Which tables are built, and on which rows, must not move them.
PINNED_REPORTS = """\
bs:1,2 2 Li
RESULT PASS L1 checked=105 failed=0 escaped=1226
RESULT PASS L2 checked=1331 failed=0
RESULT PASS L3 checked=11 failed=0
RESULT PASS L4 checked=1331 failed=0
RESULT PASS isometry checked=40 failed=0 escaped=81
bs:1,2 2 covariance
RESULT PASS covariance checked=440 failed=0 escaped=891
bs:1,2 2 K
RESULT PASS K1 checked=51 failed=0 escaped=180
RESULT PASS K2 checked=69 failed=0 escaped=162
bs:2,3 2 Li
RESULT PASS L1 checked=235 failed=0 escaped=6624
RESULT PASS L2 checked=6859 failed=0
RESULT PASS L3 checked=19 failed=0
RESULT PASS L4 checked=6859 failed=0
RESULT PASS isometry checked=79 failed=0 escaped=282
bs:2,3 2 covariance
RESULT PASS covariance checked=1501 failed=0 escaped=5358
bs:2,3 2 K
RESULT PASS K1 checked=99 failed=0 escaped=642
RESULT PASS K2 checked=132 failed=0 escaped=609
nxn 2 Li
RESULT PASS L1 checked=502 failed=0 escaped=32266
RESULT PASS L2 checked=32768 failed=0
RESULT PASS L3 checked=32 failed=0
RESULT PASS L4 checked=32768 failed=0
RESULT PASS isometry checked=152 failed=0 escaped=872
nxn 2 covariance
RESULT PASS covariance checked=4864 failed=0 escaped=27904
nxn 2 K
RESULT PASS K1 checked=213 failed=0 escaped=2187
RESULT PASS K2 checked=258 failed=0 escaped=2142
zxz 2 Li
RESULT PASS L1 checked=1766 failed=0 escaped=77741
RESULT PASS L2 checked=72549 failed=0 escaped=6958
RESULT PASS L3 checked=43 failed=0
RESULT PASS L4 checked=72342 failed=0 escaped=7165
RESULT PASS isometry checked=289 failed=0 escaped=1560
zxz 2 covariance
RESULT PASS covariance checked=11454 failed=0 escaped=68053
zxz 2 K
RESULT PASS K1 checked=327 failed=0 escaped=6123
RESULT PASS K2 checked=327 failed=0 escaped=6123
add:2 2 Li
RESULT PASS L1 checked=105 failed=0 escaped=1226
RESULT PASS L2 checked=1331 failed=0
RESULT PASS L3 checked=11 failed=0
RESULT PASS L4 checked=1331 failed=0
RESULT PASS isometry checked=40 failed=0 escaped=81
add:2 2 covariance
RESULT PASS covariance checked=440 failed=0 escaped=891
add:2 2 K
RESULT PASS K1 checked=51 failed=0 escaped=180
RESULT PASS K2 checked=69 failed=0 escaped=162
add:3 2 Li
RESULT PASS L1 checked=256 failed=0 escaped=5576
RESULT PASS L2 checked=5832 failed=0
RESULT PASS L3 checked=18 failed=0
RESULT PASS L4 checked=5832 failed=0
RESULT PASS isometry checked=78 failed=0 escaped=246
add:3 2 covariance
RESULT PASS covariance checked=1404 failed=0 escaped=4428
add:3 2 K
RESULT PASS K1 checked=108 failed=0 escaped=594
RESULT PASS K2 checked=126 failed=0 escaped=576
ftheta:2,3 2 Li
RESULT PASS L1 checked=2114 failed=0 escaped=57205
RESULT PASS L2 checked=57745 failed=0 escaped=1574
RESULT PASS L3 checked=39 failed=0
RESULT PASS L4 checked=57669 failed=0 escaped=1650
RESULT PASS isometry checked=298 failed=0 escaped=1223
ftheta:2,3 2 covariance
RESULT PASS covariance checked=11376 failed=0 escaped=47943
ftheta:2,3 2 K
RESULT PASS K1 checked=400 failed=0 escaped=4475
RESULT PASS K2 checked=400 failed=0 escaped=4475
bs:2,3 3 Li
RESULT PASS L1 checked=2007 failed=0 escaped=248040
RESULT PASS L2 checked=250047 failed=0
RESULT PASS L3 checked=63 failed=0
RESULT PASS L4 checked=250047 failed=0
RESULT PASS isometry checked=439 failed=0 escaped=3530
add:3 3 Li
RESULT PASS L1 checked=2441 failed=0 escaped=192671
RESULT PASS L2 checked=195112 failed=0
RESULT PASS L3 checked=58 failed=0
RESULT PASS L4 checked=195112 failed=0
RESULT PASS isometry checked=442 failed=0 escaped=2922
"""


def _pinned_runs():
    runs = []
    for line in PINNED_REPORTS.splitlines():
        if line.startswith("RESULT"):
            runs[-1][1].append(line)
        else:
            name, radius, suite = line.split()
            runs.append(((name, int(radius), suite), []))
    return runs


def test_relation_suites_pass_on_all_example_products():
    # Every suite at radius 2, and Li at radius 3 on two products, prints
    # the lines pinned above, byte for byte.
    runs = _pinned_runs()
    assert {key for key, _ in runs} >= {
        (name, 2, suite) for name in EXAMPLE_ZS_NAMES
        for suite in ("Li", "covariance", "K")}
    for (name, radius, suite), lines in runs:
        report = verify_relations(get_zs_descriptor(name), radius=radius,
                                  suite=suite)
        assert report.ok, f"{name}/{suite}: {report}"
        assert report.lines() == lines, (name, radius, suite)


def test_a_wrong_restriction_fails_k1_with_its_witness():
    # 1 + 1 carries in the binary adding machine: a restriction that
    # drops every carry breaks K1 at (1, "1").
    bad = replace(get_zs_descriptor("add:2"), restriction=lambda a, u: 0)
    report = verify_relations(bad, radius=2, suite="K")
    k1 = next(c for c in report.checks if c.suite == "K1")
    assert k1.failed and "K1(a=1,u=1)@(0 ; 0)" in k1.witnesses


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
    tokens = [("0", True), ("01", False)]
    _, _, bad = oracle_check_monomial(_wrong_lcm(S), tokens, ctx)
    assert bad


def test_the_monomial_map_never_reads_the_tables():
    # On zxz, (1,1) divides (0,1) with quotient (-1,1), which lies outside
    # the radius-2 ball: the range projection escapes there, but
    # the monomial multiplies the quotient back into the ball.
    S = get_semigroup("zxz")
    ctx = _ctx(S, 2)
    i = ctx.basis.index[(0, 1)]
    assert (-1, 1) not in ctx.basis.index
    assert ctx.proj((1, 1))[i] == ESCAPED_CODE
    assert ctx.monomial(VV((1, 1), (1, 1)))[i] == i
    assert ctx.monomial(ZERO) == op_zero(len(ctx.basis))


@pytest.mark.parametrize("name", EXAMPLE_ZS_NAMES)
def test_a_shared_context_checks_each_word_as_a_fresh_one(name):
    P = zs_semigroup(get_zs_descriptor(name))
    basis = enumerate_ball(P, 2)
    shared = RepContext(P, basis)
    for word in _seeded_words(basis, 40, seed=1):
        assert (oracle_check_monomial(P, word, shared)
                == oracle_check_monomial(P, word, RepContext(P, basis))), word


def test_a_context_evaluates_each_monomial_once(monkeypatch):
    P = zs_semigroup(get_zs_descriptor("bs:1,2"))
    ctx = _ctx(P, 2)
    words = _seeded_words(ctx.basis, 200, seed=2)
    evaluated = []

    def counted(S, mono, basis, quotients=None):
        evaluated.append(mono)
        return monomial_op(S, mono, basis, quotients)

    monkeypatch.setattr(regrep, "monomial_op", counted)
    for word in words:
        oracle_check_monomial(P, word, ctx)
    monos = [word_normalize(P, [VV(P.identity, p) if starred
                                else VV(p, P.identity) for p, starred in w])
             for w in words]
    assert sorted(map(repr, evaluated)) == sorted(map(repr, set(monos)))
    assert len(evaluated) < len(words)


def test_a_filled_context_still_catches_a_wrong_lcm():
    S = free_monoid(2)
    ctx = _ctx(S, 3)
    tokens = [("0", True), ("01", False)]
    for word in [tokens, *_seeded_words(ctx.basis, 100, seed=3)]:
        assert oracle_check_monomial(S, word, ctx)[2] == []
    assert oracle_check_monomial(_wrong_lcm(S), tokens, ctx)[2]
    # The mutant's answers stay out of the correct semigroup's cache.
    assert oracle_check_monomial(S, tokens, ctx)[2] == []


def test_the_word_oracle_gives_the_same_results_under_python_O():
    # `python -O` strips assert statements; the oracle must not need them.
    script = textwrap.dedent("""
        import random
        from dataclasses import replace
        from rlcm.catalog import EXAMPLE_ZS_NAMES, get_zs_descriptor
        from rlcm.core import DISJOINT, Lcm, enumerate_ball
        from rlcm.regrep import RepContext, oracle_check_monomial
        from rlcm.zoo import free_monoid
        from rlcm.zs import zs_semigroup
        rng = random.Random(4)
        for name in EXAMPLE_ZS_NAMES:
            P = zs_semigroup(get_zs_descriptor(name))
            basis = enumerate_ball(P, 2)
            ctx = RepContext(P, basis)
            pool = [(p, s) for p in basis.elements[1:] for s in (0, 1)]
            for _ in range(20):
                word = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
                print(name, oracle_check_monomial(P, word, ctx))
        S = free_monoid(2)
        ctx = RepContext(S, enumerate_ball(S, 3))
        tokens = [("0", True), ("01", False)]
        def wrong_lcm(p, q):
            got = S.right_lcm(p, q)
            if got is DISJOINT or got.lcm == "":
                return got
            return Lcm(got.lcm + "0", got.p_comp + "0", got.q_comp + "0")
        for T in (S, replace(S, right_lcm=wrong_lcm), S):
            print("free:2", oracle_check_monomial(T, tokens, ctx))
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    plain, optimized = (
        subprocess.run([sys.executable, *flags, "-c", script],
                       env={**os.environ, "PYTHONPATH": path},
                       capture_output=True, text=True, check=True,
                       timeout=120).stdout.splitlines()
        for flags in ((), ("-O",)))
    assert plain == optimized
    assert len(plain) == 20 * len(EXAMPLE_ZS_NAMES) + 3
    assert [line.endswith(", [])") for line in plain[-3:]] == [
        True, False, True]


def test_projection_operator_is_range_projection():
    S = get_semigroup("frac")
    ctx = _ctx(S, 2)
    p = (1, 2)
    proj = ctx.proj(p)
    for i, w in enumerate(ctx.basis.elements):
        if proj[i] >= 0:
            assert proj[i] == i
            assert S.left_divide(p, w) is not None


def _raises(*args):
    raise AssertionError("a range projection multiplied")


def test_li_builds_tables_only_for_its_basis(monkeypatch):
    built = []

    def counted(S, p, basis):
        built.append(p)
        return rep_generator(S, p, basis)

    monkeypatch.setattr(regrep, "rep_generator", counted)
    D = get_zs_descriptor("bs:2,3")
    assert verify_relations(D, radius=3, suite="Li").ok
    P = zs_semigroup(D)
    basis = enumerate_ball(P, 3)
    assert len(basis) == 63
    assert len(built) <= len(basis) and set(built) <= set(basis.elements)
    # A range projection divides and never multiplies, also for products
    # that leave the ball.
    ctx = RepContext(replace(P, multiply=_raises), basis)
    honest = RepContext(P, basis)
    for r in {P.multiply(p, q) for p in enumerate_ball(P, 1) for q in basis}:
        assert ctx.proj(r) == honest.proj(r), r


@pytest.mark.parametrize("name", EXAMPLE_ZS_NAMES)
def test_a_range_projection_is_the_table_times_its_adjoint(name):
    # On a left-cancellative monoid, division reads off fwd ∘ bwd code
    # for code, for elements of the ball and products beyond it.
    P = zs_semigroup(get_zs_descriptor(name))
    basis = enumerate_ball(P, 2)
    ctx = RepContext(P, basis)
    inner = enumerate_ball(P, 1).elements
    for p in {*basis.elements, *(P.multiply(p, q) for p in inner
                                 for q in basis)}:
        T = rep_generator(P, p, basis)
        assert ctx.proj(p) == op_compose(T.fwd, T.bwd), p


def _nxn_mutant(field):
    """nxn with one matching field wrong: shifts past 1 act as 1, every
    restriction is 0, or the action stands in for its inverse."""
    D = get_zs_descriptor("nxn")
    act = D.action
    wrong = {"action": lambda m, u: act(min(m, 1), u),
             "restriction": lambda m, u: 0,
             "action_inverse": act}[field]
    return replace(D, **{field: wrong})


@pytest.mark.parametrize("field, families", [
    ("action", {"L1", "L2"}),
    ("restriction", {"L1"}),
    ("action_inverse", {"L2", "L4"}),
], ids=["action", "restriction", "action_inverse"])
def test_a_wrong_matching_field_fails_li(field, families):
    # Division decides L2 and L4, multiplication L1 and L2: a wrong
    # action_inverse reaches L2, and a wrong action, which only the
    # multiplication reads, does not reach L4.
    report = verify_relations(_nxn_mutant(field), radius=2, suite="Li")
    assert not report.ok
    assert {c.suite for c in report.checks if c.failed} == families
    assert all(c.witnesses for c in report.checks if c.failed)
