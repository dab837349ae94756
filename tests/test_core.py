"""Ball enumeration, the brute-force right-LCM oracle and the monoid
law audit."""

import collections
import dataclasses
import importlib
import itertools
import pkgutil
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlcm.catalog import EXAMPLE_ZS_NAMES, get_semigroup
from rlcm.core import (DISJOINT, BallTooLarge, BallTooSmall, BruteForcer,
                       IncomparableMultiples, Lcm, ball_from_elements,
                       check_cancellativity_and_lcm, enumerate_ball,
                       lcm_agrees, lcm_equal_up_to_units, set_bits)
from rlcm.report import Report
from rlcm.zoo import free_monoid, nat_add


def test_ball_sizes_free_monoid():
    S = free_monoid(2)
    assert len(enumerate_ball(S, 0)) == 1
    assert len(enumerate_ball(S, 2)) == 7  # e, 0, 1, 00, 01, 10, 11
    assert len(enumerate_ball(S, 3)) == 15


def test_ball_lengths_are_geodesic():
    S = free_monoid(3)
    ball = enumerate_ball(S, 4)
    for w in ball:
        assert ball.length(w) == len(w)


def test_ball_enumeration_is_deterministic():
    S = get_semigroup("zxz")
    a = enumerate_ball(S, 3).elements
    b = enumerate_ball(S, 3).elements
    assert a == b


def test_ball_monotone_in_radius():
    S = get_semigroup("nxn")
    small = set(enumerate_ball(S, 2))
    big = set(enumerate_ball(S, 3))
    assert small < big


def test_a_ball_past_its_limit_is_abandoned_while_it_is_built():
    S = free_monoid(36)
    products = []

    def multiply(p, q):
        products.append(1)
        return p + q

    counted = dataclasses.replace(S, multiply=multiply)
    assert len(enumerate_ball(counted, 2, limit=1333)) == 1333
    del products[:]
    with pytest.raises(BallTooLarge, match="more than the cap of 1000 "):
        enumerate_ball(counted, 3, limit=1000)
    # The 1,333 words of length <= 2 are never all made, let alone the
    # 46,656 of length 3.
    assert len(products) < 1333
    assert issubclass(BallTooLarge, ValueError)


def test_brute_lcm_matches_prefix_lcm_on_free_monoid():
    S = free_monoid(2)
    ball = enumerate_ball(S, 4)
    brute = BruteForcer(S, ball)
    for p in enumerate_ball(S, 2):
        for q in enumerate_ball(S, 2):
            want = S.right_lcm(p, q)
            try:
                got = brute.right_lcm(p, q)
            except BallTooSmall:
                continue
            if want is DISJOINT:
                assert got is DISJOINT
            else:
                assert got.lcm == want.lcm


def test_brute_lcm_refuses_to_certify_at_ball_boundary():
    S = nat_add()
    ball = enumerate_ball(S, 3)
    with pytest.raises(BallTooSmall):
        BruteForcer(S, ball).right_lcm(2, 3)  # lcm is 3, on the boundary


def test_only_the_oracle_binds_ball_too_small():
    """Every right LCM is exact, so only the oracle can be undecided."""
    import rlcm
    for info in pkgutil.iter_modules(rlcm.__path__):
        importlib.import_module(f"rlcm.{info.name}")
    binders = sorted(name for name, module in sys.modules.items()
                     if name.split(".")[0] == "rlcm"
                     and any(value is BallTooSmall
                             for value in vars(module).values()))
    assert binders == ["rlcm", "rlcm.core"]


def test_complement_search_agrees_with_ball_search():
    S = free_monoid(2)
    elems = BruteForcer(S, enumerate_ball(S, 6))
    comps = BruteForcer(S, enumerate_ball(S, 2),
                        complements=enumerate_ball(S, 6))
    for p in enumerate_ball(S, 2):
        for q in enumerate_ball(S, 2):
            a = elems.right_lcm(p, q)
            b = comps.right_lcm(p, q)
            if a is DISJOINT:
                assert b is DISJOINT
            else:
                assert a.lcm == b.lcm


def test_complement_search_reaches_beyond_any_small_ball():
    # The least common multiple of (0,8) and (0,27) in zxz needs six
    # generators; searching by complements finds it from a radius-6
    # complement ball without ever enumerating a radius-8 element ball.
    S = get_semigroup("zxz")
    brute = BruteForcer(S, enumerate_ball(S, 3),
                        complements=enumerate_ball(S, 6))
    got = brute.right_lcm((0, 8), (0, 27))
    assert got is not DISJOINT
    assert got.lcm[1] == 216



def test_incomparable_minimal_multiples_are_bounded_by_the_radius():
    # On ftheta:2,2 the pair x0., .y0 has two minimal common multiples,
    # x0.y0 and x0.y1, with complements of length 2: radius-2
    # complements cannot certify them, radius-3 ones can.
    S = get_semigroup("ftheta:2,2")
    p, q = S.parse("x0."), S.parse(".y0")
    small = enumerate_ball(S, 2)
    with pytest.raises(BallTooSmall, match="incomparable candidates near "
                       "the radius-2 boundary for x0., .y0"):
        BruteForcer(S, small, complements=small).right_lcm(p, q)
    large = enumerate_ball(S, 3)
    with pytest.raises(IncomparableMultiples) as got:
        BruteForcer(S, large, complements=large).right_lcm(p, q)
    assert [S.display(w) for w in got.value.witnesses] == ["x0.y0", "x0.y1"]


def test_a_failing_shortest_candidate_falls_back_to_the_minimal_ones():
    # zxz has units (k, ±1), so (0,6), (6,6) and (0,-6) all generate the
    # least common multiple of (0,2) and (0,3); a length that puts the
    # strict multiple (0,12) first makes the shortest candidate fail.
    S = get_semigroup("zxz")
    oracle = BruteForcer(S, enumerate_ball(S, 1))
    p, q = (0, 2), (0, 3)
    length = {(0, 12): 1, (0, 6): 2, (6, 6): 2, (0, -6): 2}
    for common in itertools.permutations(length):
        got = _certify_dict(oracle, p, q, common, length, 10)
        assert got == Lcm((0, -6), (0, -3), (0, -2))
    with pytest.raises(BallTooSmall, match="minimal common multiple "
                       r"\(0,-6\) lies at the radius-3 boundary"):
        _certify_dict(oracle, p, q, length, length, 3)
    # Without the least one, the two minimal multiples are the answer,
    # in whatever order the search found them.
    length = {(0, 36): 1, (0, 18): 2, (0, 12): 2}
    for common in itertools.permutations(length):
        with pytest.raises(IncomparableMultiples) as got:
            _certify_dict(oracle, p, q, common, length, 10)
        assert got.value.witnesses == [(0, 12), (0, 18)]


def _certify_dict(oracle, p, q, common, length, radius):
    """The oracle's certificate for the common multiples `common`, in
    their order, of lengths `length`, with nothing known beforehand:
    the candidate is the display-least of the shortest ones."""
    common = {t: length[t] for t in common}
    shortest = min(common.values())
    m = min([t for t in common if common[t] == shortest],
            key=oracle.S.display)
    return oracle._certify(p, q, m, shortest, common, lambda: common,
                           radius)


def _outcome(search, p, q):
    """A search's result, or its exception as comparable fields."""
    try:
        return search(p, q)
    except BallTooSmall as e:
        return ("BallTooSmall", str(e))
    except IncomparableMultiples as e:
        return ("IncomparableMultiples", e.p, e.q, e.witnesses, str(e))


def _reference_search(oracle):
    """The complement search on plain dicts {p*t: minimal length of t},
    fed to the oracle's own certificate; (search, mult_map)."""
    S, T = oracle.S, oracle.complements
    maps = {}

    def mult_map(x):
        if x not in maps:
            maps[x] = {}
            for t in T:
                maps[x].setdefault(S.multiply(x, t), T.length(t))
        return maps[x]

    def search(p, q):
        mp, mq = mult_map(p), mult_map(q)
        common = {m: max(mp[m], mq[m]) for m in mp.keys() & mq.keys()}
        if not common:
            return DISJOINT
        return _certify_dict(oracle, p, q, common, common, T.radius)

    return search, mult_map


def _interleaved_pairs(elems):
    """Every ordered pair, each element's map first needed after the
    searches among the earlier ones: a new map holds ids past the end of
    every older map, and is searched into them and they into it."""
    for i, p in enumerate(elems):
        for q in elems[:i + 1]:
            yield p, q
            if q != p:
                yield q, p


def _complement_oracle(selector, radius=2, complements=4):
    S = get_semigroup(selector)
    return BruteForcer(S, enumerate_ball(S, radius),
                       complements=enumerate_ball(S, complements))


#: (selector, ball radius, complement radius).  ftheta:4,6 has pairs
#: without a right LCM; its known pair x2., .y2 lies in the radius-1
#: ball and its two minimal multiples in the radius-3 complement ball,
#: which keeps the quadratic minimality scan short.
SEARCHED = [(f"zs:{name}", 2, 4) for name in EXAMPLE_ZS_NAMES] \
    + [("ftheta:4,6", 1, 3)]


@pytest.mark.parametrize("x", [
    0, 1, 1 << 7 | 1 << 8, 0xFF << 4 | 1 << 15 | 1 << 16 | 1 << 23 | 1 << 24,
    random.Random(125).getrandbits(125_000)],
    ids=["zero", "bit-0", "byte-pair", "byte-runs", "random-125000"])
def test_set_bits_lists_every_set_bit_in_order(x):
    assert set_bits(x) == [i for i, bit in enumerate(reversed(bin(x)[2:]))
                           if bit == "1"]


@pytest.mark.parametrize("selector, radius, complements", SEARCHED)
def test_interned_search_matches_the_dict_reference(selector, radius,
                                                    complements):
    oracle = _complement_oracle(selector, radius, complements)
    reference, reference_map = _reference_search(oracle)
    S = oracle.S
    kinds = set()
    for p, q in _interleaved_pairs(list(oracle.ball)):
        got = _outcome(oracle._search_complements, p, q)
        assert got == _outcome(reference, p, q), (S.display(p),
                                                  S.display(q))
        kinds.add(got[0] if isinstance(got, tuple) else type(got))
    assert Lcm in kinds
    if selector == "ftheta:4,6":
        assert "IncomparableMultiples" in kinds
    for p in oracle.ball:
        # Layer k holds the products of every t with |t| <= k, so a
        # product's minimal length is the first layer that holds it.
        layers = oracle._mult_map(p)
        assert len(layers) == oracle.complements.radius + 1
        got = {}
        for k, layer in enumerate(layers):
            for i in range(layer.bit_length()):
                if layer >> i & 1:
                    got.setdefault(oracle._elems[i], k)
        assert got == reference_map(p), S.display(p)


def test_interned_ids_belong_to_one_oracle():
    selectors = ("zs:zxz", "zs:bs:2,3")
    alone = {}
    for sel in selectors:
        brute = _complement_oracle(sel)
        pairs = list(itertools.product(brute.ball, repeat=2))
        alone[sel] = (pairs, [_outcome(brute.right_lcm, p, q)
                              for p, q in pairs])
    mixed = {sel: _complement_oracle(sel) for sel in selectors}
    got = {sel: [] for sel in selectors}
    for step in itertools.zip_longest(*(alone[s][0] for s in selectors)):
        for sel, pair in zip(selectors, step):
            if pair is not None:
                got[sel].append(_outcome(mixed[sel].right_lcm, *pair))
    for sel in selectors:
        assert got[sel] == alone[sel][1], sel
        brute = mixed[sel]
        S, T = brute.S, brute.complements
        products = {S.multiply(p, t) for p in brute._mult_maps for t in T}
        assert set(brute._elems) == products, sel
        assert len(brute._elems) == len(products), sel


@pytest.mark.parametrize("selector, radius, complements, seen", [
    ("zs:bs:2,3", 2, 4, "disjoint"),
    ("ftheta:4,6", 1, 3, "incomparable"),
    ("ftheta:4,6", 1, 2, "too_small"),
    ("zxz", 2, None, "too_small"),
])
def test_the_oracle_counts_its_own_work(selector, radius, complements, seen):
    # Tallies taken outside the oracle: its divisions through the
    # semigroup, and its searches and certificates through wrappers.
    S = get_semigroup(selector)
    divisions = []

    def left_divide(m, c):
        divisions.append((m, c))
        return S.left_divide(m, c)

    W = dataclasses.replace(S, left_divide=left_divide)
    oracle = BruteForcer(W, enumerate_ball(S, radius), complements=(
        None if complements is None else enumerate_ball(S, complements)))
    mode = "ball" if complements is None else "complements"
    tally = collections.Counter()
    search, certify = getattr(oracle, f"_search_{mode}"), oracle._certify

    def searched(p, q):
        tally["searches"] += 1
        try:
            result = search(p, q)
        except BallTooSmall:
            tally["too_small"] += 1
            raise
        except IncomparableMultiples:
            tally["incomparable"] += 1
            raise
        tally["disjoint"] += result is DISJOINT
        return result

    def certified(p, q, m, shortest, todo, common, radius, proved=None):
        todo = list(todo)
        tally["certifications"] += 1
        tally["divisions"] += len(todo)
        failed = []

        def fall_back():
            failed.append(True)
            return common()

        start = len(divisions)
        try:
            return certify(p, q, m, shortest, todo, fall_back, radius, proved)
        finally:
            if not failed:  # the candidate was divided into each of todo
                assert divisions[start:start + len(todo)] == [
                    (m, c) for c in todo]

    setattr(oracle, f"_search_{mode}", searched)
    oracle._certify = certified
    pairs = list(_interleaved_pairs(list(oracle.ball))) * 2
    for p, q in pairs:
        _outcome(oracle.right_lcm, p, q)
    comparable = 0 if complements is None else sum(
        S.left_divide(p, q) is not None or S.left_divide(q, p) is not None
        for p, q in pairs)
    assert tally["certifications"] and tally[seen]
    assert (oracle.ball_searches, oracle.complement_searches) == (
        (tally["searches"], 0) if complements is None
        else (0, tally["searches"]))
    assert oracle.comparable == comparable
    assert oracle.cache_hits == len(pairs) - comparable - tally["searches"]
    assert oracle.cache_hits > 0
    for counter in ("certifications", "divisions", "too_small", "disjoint"):
        assert getattr(oracle, counter) == tally[counter], counter


def test_pair_cache_answers_repeats_and_reversals_without_searching():
    bs = _complement_oracle("zs:bs:2,3")
    S = bs.S
    p, q = next((p, q) for p, q in itertools.product(bs.ball, repeat=2)
                if S.left_divide(p, q) is None
                and S.left_divide(q, p) is None
                and isinstance(bs.right_lcm(p, q), Lcm))
    bs._pair_cache.clear()
    # x0 and y0 have two minimal common multiples in ftheta:2,2.
    ftheta = _complement_oracle("ftheta:2,2")
    x0, y0 = ftheta.S.parse("x0."), ftheta.S.parse(".y0")
    for oracle, p, q in ((bs, p, q), (ftheta, x0, y0)):
        searches = []
        search = oracle._search_complements

        def counted(p, q):
            searches.append((p, q))
            return search(p, q)

        oracle._search_complements = counted
        first = _outcome(oracle.right_lcm, p, q)
        assert [_outcome(oracle.right_lcm, p, q)
                for _ in range(2)] == [first, first]
        if oracle is bs:
            reverse = Lcm(first.lcm, first.q_comp, first.p_comp)
        else:
            assert first[0] == "IncomparableMultiples"
            reverse = (first[0], q, p, first[3],
                       str(IncomparableMultiples(q, p, first[3])))
        assert _outcome(oracle.right_lcm, q, p) == reverse
        assert searches == [(p, q)]


def _counted_certificates(selector):
    """A 2/4 complement oracle on `selector` and a Counter of the
    successful divisions (m, c) its certificates' success tests make,
    m the candidate; the failure path and the complements' divisions are
    not counted."""
    S = get_semigroup(selector)
    divided = collections.Counter()
    testing = None  # the candidate whose success test is running

    def left_divide(m, c):
        got = S.left_divide(m, c)
        if got is not None and m == testing:
            divided[m, c] += 1
        return got

    oracle = BruteForcer(dataclasses.replace(S, left_divide=left_divide),
                         enumerate_ball(S, 2),
                         complements=enumerate_ball(S, 4))
    certify = oracle._certify

    def after_the_test(then):
        def call():
            nonlocal testing
            testing = None
            return then()
        return call

    def counted(p, q, m, shortest, todo, common, radius, proved):
        nonlocal testing
        testing = m
        try:
            return certify(p, q, m, shortest, todo, after_the_test(common),
                           radius, after_the_test(proved))
        finally:
            testing = None

    oracle._certify = counted
    return oracle, divided


@pytest.mark.parametrize("selector", ["zs:zxz", "zs:ftheta:2,3"])
def test_a_candidate_divides_each_multiple_once(selector):
    # The memo keeps what each candidate was seen to divide, so no later
    # certificate with the same candidate divides that multiple again.
    oracle, divided = _counted_certificates(selector)
    for p, q in _interleaved_pairs(list(oracle.ball)):
        _outcome(oracle.right_lcm, p, q)
    assert divided and max(divided.values()) == 1
    # Without it, candidates shared between pairs divide again.
    again, repeated = _counted_certificates(selector)
    for p, q in _interleaved_pairs(list(again.ball)):
        again._divides.clear()
        _outcome(again.right_lcm, p, q)
    assert repeated.keys() == divided.keys()
    assert max(repeated.values()) > 1


def _frac_ball_oracle():
    """frac's elements of modulus <= 6 in the explicit ball of moduli
    <= 36, which holds all their common multiples."""
    S = get_semigroup("frac")
    ball = ball_from_elements([(t, z) for z in range(1, 37) for t in range(z)],
                              lambda e: e[1])
    return [(r, x) for x in range(1, 7) for r in range(x)], BruteForcer(S, ball)


def _ball_oracle(selector, radius, ball_radius):
    S = get_semigroup(selector)
    return (list(enumerate_ball(S, radius)),
            BruteForcer(S, enumerate_ball(S, ball_radius)))


def _complement_case(selector):
    oracle = _complement_oracle(selector)
    return list(oracle.ball), oracle


def _boundary_texts(outcomes, text):
    return sum(1 for got in outcomes.values()
               if isinstance(got, tuple) and got[0] == "BallTooSmall"
               and text in got[1])


def _unit_translates(S, outcomes):
    return [(p, q) for p, q in outcomes if p != q
            and S.left_divide(p, q) is not None
            and S.left_divide(q, p) is not None]


@pytest.mark.parametrize("make, covers", [
    (_frac_ball_oracle,
     lambda S, got: {Lcm, type(DISJOINT)} <= set(map(type, got.values()))),
    (lambda: _ball_oracle("zxz", 2, 3),
     lambda S, got: _boundary_texts(got, "minimal common multiple") == 131),
    (lambda: _ball_oracle("ftheta:2,2", 2, 3),
     lambda S, got: _boundary_texts(got, "incomparable candidates") > 0),
    (lambda: _complement_case("zs:zxz"),
     lambda S, got: _unit_translates(S, got)),
], ids=["frac-ball", "zxz-ball", "ftheta:2,2-ball", "zs:zxz-complements"])
def test_the_pair_cache_answers_as_a_search_of_the_pair_alone(make, covers):
    # Ball mode must not keep a BallTooSmall, whose text names the pair in
    # the order asked; complement mode must not keep a comparable pair,
    # which with units divides both ways and names the other element.
    elems, oracle = make()
    _, alone = make()
    S = oracle.S
    want = {}
    for p, q in itertools.product(elems, repeat=2):
        # Its pair cache and memo are all it keeps from earlier pairs.
        alone._pair_cache.clear()
        alone._divides.clear()
        want[p, q] = _outcome(alone.right_lcm, p, q)
    assert covers(S, want)
    for _ in range(2):
        for p, q in _interleaved_pairs(elems):
            assert _outcome(oracle.right_lcm, p, q) == want[p, q], (
                S.display(p), S.display(q))


def test_lcm_records_are_frozen_hashable_values():
    a, b = Lcm((0, 6), (0, 3), (0, 2)), Lcm((0, 6), (0, 3), (0, 2))
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.lcm = (0, 12)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != Lcm((0, 6), (0, 2), (0, 3))


def test_lcm_record_complements_multiply_back():
    S = get_semigroup("frac")
    got = S.right_lcm((1, 2), (2, 3))
    assert isinstance(got, Lcm)
    assert S.multiply((1, 2), got.p_comp) == got.lcm
    assert S.multiply((2, 3), got.q_comp) == got.lcm


def test_lcm_equal_up_to_units():
    S = get_semigroup("zxz")
    # (0,2) and (2,-2) generate the same right ideal: (2,-2) = (0,2)(1,-1).
    assert lcm_equal_up_to_units(S, (0, 2), (2, -2))
    assert not lcm_equal_up_to_units(S, (0, 2), (0, 4))


def _answering(S, answer):
    """S with a closed form that returns, or raises, answer() for every
    pair."""
    return dataclasses.replace(S, right_lcm=lambda p, q: answer())


def test_lcm_agrees_escapes_an_uncertified_pair_without_the_closed_form():
    S = nat_add()

    def unreachable():
        raise AssertionError("the closed form ran")

    # The LCM 2 of 1 and 2 lies on the boundary of the radius-2 ball.
    oracle = BruteForcer(S, enumerate_ball(S, 2))
    assert lcm_agrees(_answering(S, unreachable), oracle, 1, 2) is None


def test_lcm_agrees_fails_a_closed_form_incomparable_against_an_lcm():
    S = nat_add()

    def incomparable():
        raise IncomparableMultiples(1, 2, [])

    oracle = BruteForcer(S, enumerate_ball(S, 5))
    assert lcm_agrees(S, oracle, 1, 2) is True
    assert lcm_agrees(_answering(S, incomparable), oracle, 1, 2) is False


def test_lcm_agrees_fails_a_closed_form_lcm_against_disjoint():
    S = free_monoid(2)
    oracle = BruteForcer(S, enumerate_ball(S, 3))
    assert oracle.right_lcm("0", "1") is DISJOINT
    assert lcm_agrees(S, oracle, "0", "1") is True
    lying = _answering(S, lambda: Lcm("01", "1", "1"))
    assert lcm_agrees(lying, oracle, "0", "1") is False


def test_law_audit_passes_on_free_and_frac():
    for sel, radius in (("free:2", 3), ("frac", 2)):
        S = get_semigroup(sel)
        report = check_cancellativity_and_lcm(
            S, enumerate_ball(S, radius),
            lcm_complements=enumerate_ball(S, 2 * radius))
        assert report.ok, str(report)


def test_law_audit_compares_incomparable_outcomes():
    # ftheta:2,2 has pairs with two minimal common multiples, where both
    # the oracle and the exact search raise IncomparableMultiples.
    S = get_semigroup("ftheta:2,2")
    report = check_cancellativity_and_lcm(
        S, enumerate_ball(S, 2), lcm_complements=enumerate_ball(S, 4))
    assert report.ok, str(report)
    (audit,) = [c for c in report.checks if c.suite == "lcm-vs-brute"]
    assert audit.checked == len(enumerate_ball(S, 2)) ** 2
    # A right LCM that ignores the counterexamples is caught.
    def lenient(p, q):
        try:
            return S.right_lcm(p, q)
        except IncomparableMultiples as e:
            return Lcm(e.witnesses[0], S.left_divide(p, e.witnesses[0]),
                       S.left_divide(q, e.witnesses[0]))

    report = check_cancellativity_and_lcm(
        dataclasses.replace(S, right_lcm=lenient), enumerate_ball(S, 2),
        lcm_complements=enumerate_ball(S, 4))
    assert not report.ok


def _mutant(S, change):
    """S with a right LCM that passes each Lcm it answers through
    `change`."""
    def right_lcm(p, q):
        got = S.right_lcm(p, q)
        return change(got) if isinstance(got, Lcm) else got

    return dataclasses.replace(S, right_lcm=right_lcm)


def _swap(m):
    return Lcm(m.lcm, m.q_comp, m.p_comp)


@pytest.mark.parametrize("selector, radius, complements, witness", [
    ("zxz", 2, 4, "((0,1),(1,1))"),
    ("zs:zxz", 1, 4, "(((0,1) ; (0,1)),((0,2) ; (0,1)))"),
    ("bs:1,2", 2, 4, "(ε,a)"),
])
def test_law_audit_checks_the_complements(selector, radius, complements,
                                          witness):
    # The swapped complements name the right LCM, so only multiplying
    # them back catches them.
    S = get_semigroup(selector)
    ball = enumerate_ball(S, radius)
    comps = enumerate_ball(S, complements)
    (fair,) = [c for c in check_cancellativity_and_lcm(S, ball, comps).checks
               if c.suite == "lcm-vs-brute"]
    assert fair.failed == 0 and fair.checked > 0
    (audit,) = [c for c in check_cancellativity_and_lcm(
        _mutant(S, _swap), ball, comps).checks
        if c.suite == "lcm-vs-brute"]
    assert audit.checked == fair.checked and audit.escaped == fair.escaped
    assert audit.failed > 0 and audit.witnesses[0] == witness


def test_law_audit_detects_broken_identity():
    S = free_monoid(2)
    bad = dataclasses.replace(S, multiply=lambda p, q: p + q + ("" if q else "0"))
    report = check_cancellativity_and_lcm(bad, enumerate_ball(S, 2))
    assert not report.ok


def test_empty_report_is_not_a_pass():
    report = Report()
    assert not report.ok
    report.add("identity", 1, [])
    assert report.ok


words = st.text(alphabet="01", max_size=6)


@settings(max_examples=200, deadline=None)
@given(words, words, words)
def test_prefix_lcm_is_least_common_multiple(p, q, w):
    S = free_monoid(2)
    got = S.right_lcm(p, q)
    if got is DISJOINT:
        # no word extends both
        assert not (w.startswith(p) and w.startswith(q))
    else:
        assert S.multiply(p, got.p_comp) == got.lcm
        assert S.multiply(q, got.q_comp) == got.lcm
        if w.startswith(p) and w.startswith(q):
            assert w.startswith(got.lcm)
