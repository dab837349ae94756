"""End-to-end acceptance battery.

Each test prints exactly one line

    ACCEPT <PASS|FAIL> <criterion>

before asserting, so a scan of the captured output gives the full
verdict table.
"""

import io
import itertools
import random
from contextlib import redirect_stdout

from rlcm.catalog import (EXAMPLE_ZS_NAMES, REGISTERED_SELECTORS,
                          get_semigroup, get_zs_descriptor)
from rlcm.cli import parse_element, run
from rlcm.core import (DISJOINT, BallTooSmall, BruteForcer, ball_from_elements,
                       enumerate_ball, lcm_equal_up_to_units)
from rlcm.regrep import RepContext, oracle_check_monomial, verify_relations
from rlcm.report import FAIL
from rlcm.selfsim import (adding_machine, ftheta_display,
                          ftheta_left_divide, ftheta_min_common_multiples,
                          ftheta_parse, ftheta_right_lcm_survey,
                          prop_compat_check, theta_build, theta_swap)
from rlcm.star import foundation_transfer, is_foundation_set
from rlcm.zoo import frac_semigroup
from rlcm.zs import zs_axiom_check, zs_semigroup


def _record(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPT {status} {criterion} {detail}".rstrip())
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# 1. Matching axioms hold on every example product; every single-axiom
#    mutation is caught with a witness.


def test_axiom_certification_and_mutations():
    clean = []
    for name in EXAMPLE_ZS_NAMES:
        D = get_zs_descriptor(name)
        report = zs_axiom_check(D, enumerate_ball(D.U, 3),
                                enumerate_ball(D.A, 3))
        clean.append(report.ok)

    from test_zs import _mutants

    caught = []
    for axiom, mutant in _mutants():
        report = zs_axiom_check(mutant, enumerate_ball(mutant.U, 3),
                                enumerate_ball(mutant.A, 3))
        hit = [c for c in report.checks
               if c.suite == axiom and c.status == FAIL and c.witnesses]
        caught.append(bool(hit))
    _record("axiom-certification", all(clean) and all(caught),
            f"descriptors={sum(clean)}/{len(clean)} "
            f"mutations-caught={sum(caught)}/{len(caught)}")


# ---------------------------------------------------------------------------
# 2. Closed-form right LCMs agree with brute force: exactly on the
#    progression semigroup for all moduli up to 12, and up to units on
#    every radius-3 pair of every example product.


def test_lcm_closed_forms_match_brute_force():
    S = frac_semigroup()
    elems = [(r, x) for x in range(1, 13) for r in range(x)]
    # every LCM of moduli <= 12 has modulus <= 144, so this explicit
    # ball provably contains it and certification is genuine.
    search = ball_from_elements([(t, z) for z in range(1, 145)
                                 for t in range(z)], lambda p: p[1])
    brute = BruteForcer(S, search)
    bad = 0
    for p in elems:
        for q in elems:
            want = brute.right_lcm(p, q)
            got = S.right_lcm(p, q)
            if want is DISJOINT or got is DISJOINT:
                bad += want is not got
            else:
                bad += want.lcm != got.lcm
    frac_ok = bad == 0
    n_frac = len(elems) ** 2

    pairs = skipped = mismatches = 0
    for name in EXAMPLE_ZS_NAMES:
        D = get_zs_descriptor(name)
        P = zs_semigroup(D)
        ball = enumerate_ball(P, 3)
        oracle = BruteForcer(P, ball, complements=enumerate_ball(P, 6))
        for p in ball:
            for q in ball:
                pairs += 1
                try:
                    want = oracle.right_lcm(p, q)
                except BallTooSmall:
                    skipped += 1
                    continue
                got = P.right_lcm(p, q)
                if want is DISJOINT or got is DISJOINT:
                    mismatches += want is not got
                elif not lcm_equal_up_to_units(P, got.lcm, want.lcm):
                    mismatches += 1
    _record("lcm-vs-oracle", frac_ok and mismatches == 0,
            f"frac-pairs={n_frac} product-pairs={pairs} "
            f"skipped={skipped} mismatches={bad + mismatches}")


# ---------------------------------------------------------------------------
# 3. Right LCMs are canonical only up to a right unit: independently
#    computed representatives in the affine semigroup over Z differ by a
#    unit in both directions.


def test_lcm_unit_ambiguity_in_affine_z():
    S = get_semigroup("zxz")
    oracle = BruteForcer(S, enumerate_ball(S, 3),
                         complements=enumerate_ball(S, 6))
    pairs = [
        ((0, 2), (0, 3)), ((1, 2), (2, 3)), ((0, 2), (1, 3)),
        ((1, 2), (0, 3)), ((0, 4), (2, 6)), ((1, 4), (3, 6)),
        ((0, 2), (0, -3)), ((1, -2), (2, 3)), ((0, -2), (1, -3)),
        ((2, 3), (1, -2)), ((0, 6), (2, 4)), ((1, 6), (3, 4)),
        ((0, 3), (0, 9)), ((2, 3), (5, 9)), ((0, 2), (0, 8)),
        ((1, 2), (3, 8)), ((0, -4), (0, 6)), ((1, 4), (1, 6)),
        ((2, -3), (0, 2)), ((5, 6), (3, 4)),
    ]
    ok = True
    for p, q in pairs:
        a = S.right_lcm(p, q)
        b = oracle.right_lcm(p, q)
        if a is DISJOINT or b is DISJOINT:
            ok = False
            continue
        u = S.left_divide(a.lcm, b.lcm)
        v = S.left_divide(b.lcm, a.lcm)
        ok &= (u is not None and v is not None
               and S.is_unit(u) and S.is_unit(v))
    _record("lcm-unit-ambiguity", ok, f"pairs={len(pairs)}")


# ---------------------------------------------------------------------------
# 4. The product presentations hold in the truncated regular
#    representation, and the monomial calculus matches the operator
#    picture word by word.


def test_presentation_relations_and_monomial_oracle():
    suites_ok = True
    for name in EXAMPLE_ZS_NAMES:
        D = get_zs_descriptor(name)
        for suite in ("Li", "covariance", "K"):
            report = verify_relations(D, radius=3, suite=suite)
            suites_ok &= report.ok

    def check_words(S, tokens_pool, words):
        ctx = RepContext(S, enumerate_ball(S, 2))
        bad = 0
        for word in words:
            _, _, witnesses = oracle_check_monomial(S, word, ctx)
            bad += bool(witnesses)
        return bad

    total_bad = 0
    n_words = 0
    # exhaustive for the free monoid and the progression semigroup
    for sel, token_radius in (("free:2", 2), ("frac", 1)):
        S = get_semigroup(sel)
        pool = [(p, s) for p in enumerate_ball(S, token_radius)
                if p != S.identity for s in (False, True)]
        words = [list(w) for n in range(1, 5)
                 for w in itertools.product(pool, repeat=n)]
        n_words += len(words)
        total_bad += check_words(S, pool, words)

    # seeded random words for every example product
    rng = random.Random(0)
    for name in EXAMPLE_ZS_NAMES:
        P = zs_semigroup(get_zs_descriptor(name))
        pool = [(p, s) for p in enumerate_ball(P, 2)
                if p != P.identity for s in (False, True)]
        words = [[rng.choice(pool) for _ in range(rng.randint(1, 4))]
                 for _ in range(10_000)]
        n_words += len(words)
        total_bad += check_words(P, pool, words)

    _record("presentation-equivalence", suites_ok and total_bad == 0,
            f"words={n_words} bad={total_bad}")


# ---------------------------------------------------------------------------
# 5. Every boundary relation suite holds as an exact affine identity or
#    partition verdict.


def test_boundary_relation_suites():
    from rlcm.boundary import verify_boundary_suite

    ok = True
    details = []
    for name in ("Q2", "QN", "QZ", "BS1n:2", "BS1n:3", "NxN", "ZxZ"):
        report = verify_boundary_suite(name)
        ok &= report.ok
        details.append(f"{name}:{len(report.checks)}")
    _record("boundary-suites", ok, " ".join(details))


# ---------------------------------------------------------------------------
# 6. The generator assignments between the quotient models hold as exact
#    affine identities.


def test_model_generator_maps():
    from rlcm.boundary import verify_model_isomorphisms

    report = verify_model_isomorphisms()
    counts = {c.suite: c.checked for c in report.checks}
    ok = (report.ok
          and counts == {"QN-NxN": 78, "QZ-ZxZ": 12, "Q2-BS12": 2})
    _record("model-generator-maps", ok, str(counts))


# ---------------------------------------------------------------------------
# 7. The right-LCM survey separates coprime from non-coprime alphabet
#    sizes, and reproduces the known minimal pair in the (4,6) monoid.


def test_two_alphabet_lcm_survey():
    ok = True
    for m, n in ((2, 2), (2, 4), (4, 6)):
        verdict = ftheta_right_lcm_survey(theta_build(m, n), (2, 2))
        ok &= not verdict.ok
        if verdict.pair:
            T = theta_build(m, n)
            for z in verdict.pair:
                for t in verdict.multiples:
                    ok &= ftheta_left_divide(T, z, t) is not None
    for m, n in ((2, 3), (3, 4)):
        ok &= ftheta_right_lcm_survey(theta_build(m, n), (2, 2)).ok
    T = theta_build(4, 6)
    got = ftheta_min_common_multiples(T, ftheta_parse(T, "x2."),
                                      ftheta_parse(T, ".y2"))
    ok &= [ftheta_display(t) for t in got] == ["x2.y0", "x2.y3"]
    _record("coprimality-survey", ok)


# ---------------------------------------------------------------------------
# 8. The standard commutation tables intertwine the two odometers, and
#    any single table swap is detected.


def test_table_odometer_compatibility():
    ok = True
    for m, n in ((2, 3), (3, 4)):
        report = prop_compat_check(theta_build(m, n), adding_machine(m),
                                   adding_machine(n), range(-8, 9))
        ok &= report.ok
    swaps_checked = swaps_caught = 0
    for m, n in ((2, 3), (3, 4)):
        T = theta_build(m, n)
        for k1, k2 in itertools.combinations(sorted(T.table), 2):
            swaps_checked += 1
            report = prop_compat_check(theta_swap(T, k1, k2),
                                       adding_machine(m), adding_machine(n),
                                       range(-8, 9))
            swaps_caught += not report.ok
    _record("compatibility-identities",
            ok and swaps_caught == swaps_checked,
            f"swaps-caught={swaps_caught}/{swaps_checked}")


# ---------------------------------------------------------------------------
# 9. Foundation sets transfer between the factors and the product, and
#    the exact free-monoid criterion matches a depth-N brute force.


def test_foundation_transfer_and_exact_criterion():
    rng = random.Random(0)
    ok = True

    for _ in range(10):  # clause: a single A element
        name = rng.choice(("add:2", "add:3"))
        D = get_zs_descriptor(name)
        a = rng.randint(0, 6)
        out = foundation_transfer(D, "a", a, check_radius=4)
        ok &= out == ((D.U.identity, a),)

    for _ in range(10):  # clause: a foundation set of U
        D = get_zs_descriptor(rng.choice(("add:2", "add:3")))
        k = D.U.name == "free:3" and 3 or 2
        while True:
            depth = rng.randint(1, 2)
            pool = ["".join(w) for d in range(1, depth + 1)
                    for w in itertools.product("012"[:k], repeat=d)]
            F = sorted(rng.sample(pool, rng.randint(1, len(pool))))
            if is_foundation_set(D.U, F, "exact").ok:
                break
        out = foundation_transfer(D, "b", F, check_radius=4)
        ok &= len(out) == len(F)

    for _ in range(10):  # clause: a foundation set of the product
        D = get_zs_descriptor(rng.choice(("add:2", "add:3")))
        k = D.U.name == "free:3" and 3 or 2
        depth = rng.randint(1, 2)
        G = [("".join(w), rng.randint(0, 3))
             for w in itertools.product("012"[:k], repeat=depth)]
        out = foundation_transfer(D, "c", G, check_radius=4)
        ok &= is_foundation_set(D.U, list(out), "exact").ok

    from test_star import _brute_foundation

    S = get_semigroup("free:2")
    universe = ["", "0", "1", "00", "01", "10", "11"]
    subsets = 0
    for r in range(1, len(universe) + 1):
        for F in itertools.combinations(universe, r):
            subsets += 1
            ok &= is_foundation_set(S, list(F), "exact").ok \
                == _brute_foundation(F)
    _record("foundation-calculus", ok, f"subsets={subsets}")


# ---------------------------------------------------------------------------
# 10. Grammars round-trip on every registered semigroup, and repeated
#     runs of the reporting commands are byte-identical.


def test_round_trip_and_determinism():
    ok = True
    elements = 0
    for selector in REGISTERED_SELECTORS:
        S = get_semigroup(selector)
        for x in enumerate_ball(S, 3):
            elements += 1
            ok &= parse_element(selector, S.display(x)) == x

    def capture(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = run(argv)
        return code, buf.getvalue().encode()

    commands = [
        ["lcm", "--semigroup", "frac", "(1,2)", "(2,3)"],
        ["normalize", "--semigroup", "nxn", "t(0,2)* t(1,2)"],
        ["check-axioms", "--semigroup", "zs:add:2", "--radius", "2"],
        ["check-relations", "--model", "Q2"],
        ["check-relations", "--semigroup", "zs:bs:1,2", "--radius", "2",
         "--suite", "Li"],
        ["foundation", "--semigroup", "free:2", "--mode", "exact", "0", "1"],
        ["survey-ftheta", "--semigroup", "ftheta:2,3", "--bidegree", "2,2"],
        ["decompose", "--semigroup", "nxn", "(7,4)"],
    ]
    for argv in commands:
        first = capture(argv)
        second = capture(argv)
        ok &= first == second
    _record("cli-round-trip-determinism", ok,
            f"elements={elements} commands={len(commands)}")
