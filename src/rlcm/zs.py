"""Zappa-Szép products U ⋈ A: two monoids glued along a two-sided matching.

A matching is a pair of maps, an action a·u of A on U and a restriction
a|_u of A by U, subject to eight compatibility axioms.  The product lives
on U x A with

    (u, a)(v, b) = (u (a·v), (a|_v) b).

For the right-LCM machinery the action of each a must be a bijection of
U, so a descriptor also carries the inverse map u -> v with a·v = u.
Every product operation reads the matching as pairs: `matching(a, u)`
is (a·u, a|_u) and `comatching(a, x)` is (v, a|_v) with a·v == x.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from .core import DISJOINT, IncomparableMultiples, Lcm, Semigroup
from .report import Report


class HypothesisViolation(Exception):
    """A structural assumption of the right-LCM construction failed, e.g.
    two restrictions that are not comparable by left divisibility in A."""


class FusedMatching:
    """One fused matching pair, whose bound methods `action`,
    `restriction` and `action_inverse` are a descriptor's three fields
    read back from it: the views of the pair, each in its own role."""

    __slots__ = ("matching", "comatching")

    def __init__(self, matching, comatching):
        self.matching = matching
        self.comatching = comatching

    def action(self, a, u):
        return self.matching(a, u)[0]

    def restriction(self, a, u):
        return self.matching(a, u)[1]

    def action_inverse(self, a, x):
        return self.comatching(a, x)[0]


@dataclass(frozen=True)
class ZSDescriptor:
    """The raw matching data for one product U ⋈ A.

    `action(a, u)` is a·u, `restriction(a, u)` is a|_u, and
    `action_inverse(a, u)` is the unique v with a·v == u.  The fused maps
    `matching(a, u) -> (a·u, a|_u)` and `comatching(a, x) -> (v, a|_v)`
    with a·v == x are derived from those three fields, and every product
    operation reads only them.  When the three fields are the views of
    one `FusedMatching`, each in its own role, the fused maps are that
    pair's own; otherwise they are composed from the fields as given, so
    a field replaced by `dataclasses.replace` (a wrapper, a mutant, or a
    view in the wrong role) takes effect everywhere.
    """

    name: str
    U: Semigroup
    A: Semigroup
    action: Callable[[Any, Any], Any]
    restriction: Callable[[Any, Any], Any]
    action_inverse: Callable[[Any, Any], Any]
    matching: Callable[[Any, Any], Any] = field(
        init=False, repr=False, compare=False)
    comatching: Callable[[Any, Any], Any] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        act, res, inv = self.action, self.restriction, self.action_inverse
        origin = getattr(act, "__self__", None)
        if (isinstance(origin, FusedMatching) and act == origin.action
                and res == origin.restriction
                and inv == origin.action_inverse):
            matching, comatching = origin.matching, origin.comatching
        else:
            def matching(a, u):
                return act(a, u), res(a, u)

            def comatching(a, x):
                v = inv(a, x)
                return v, res(a, v)

        object.__setattr__(self, "matching", matching)
        object.__setattr__(self, "comatching", comatching)


def zs_multiply(D, p, q):
    (u, a), (v, b) = p, q
    av, r = D.matching(a, v)
    return D.U.multiply(u, av), D.A.multiply(r, b)


def zs_left_divide(D, p, r):
    """The unique q with p*q == r in U ⋈ A, or None.

    Solving (u,a)(v,b) = (w,c): first v is pinned down by u(a·v) = w
    through division in U and inverting the action of a, then b by
    division in A.
    """
    (u, a), (w, c) = p, r
    x = D.U.left_divide(u, w)
    if x is None:
        return None
    v, s = D.comatching(a, x)
    b = D.A.left_divide(s, c)
    if b is None:
        return None
    return (v, b)


def zs_right_lcm(D, p, q):
    """Right LCM in U ⋈ A, reduced to right LCMs in U.

    (u,a) and (v,b) have a common right multiple iff u and v do.  If
    u u2 = v v2 = w is the right LCM in U, pull u2 and v2 back through
    the actions of a and b; the two restrictions picked up on the way
    must be comparable by left divisibility in A, and the larger one
    completes the LCM (w, larger).  Incomparable restrictions mean the
    product is not a right-LCM semigroup for this pair.  Two minimal
    common multiples in U with no LCM lift the same way.
    """
    (u, a), (v, b) = p, q
    try:
        got = D.U.right_lcm(u, v)
    except IncomparableMultiples as e:
        lifted = [_lift(D, a, b, w, D.U.left_divide(u, w),
                        D.U.left_divide(v, w)).lcm for w in e.witnesses]
        raise IncomparableMultiples(p, q, lifted) from e
    if got is DISJOINT:
        return DISJOINT
    return _lift(D, a, b, got.lcm, got.p_comp, got.q_comp)


def _lift(D, a, b, w, u2, v2):
    """(w, larger restriction) with its complements, for a common
    multiple w = u u2 = v v2 in U; see zs_right_lcm."""
    x, r = D.comatching(a, u2)
    y, s = D.comatching(b, v2)
    t = D.A.left_divide(r, s)
    if t is not None:
        return Lcm((w, s), (x, t), (y, D.A.identity))
    t = D.A.left_divide(s, r)
    if t is not None:
        return Lcm((w, r), (x, D.A.identity), (y, t))
    raise HypothesisViolation(
        f"{D.name}: restrictions {D.A.display(r)} and {D.A.display(s)} "
        f"are incomparable in A")


def zs_semigroup(D):
    """The product monoid on pairs (u, a), displayed as "(u ; a)".

    Generators are the U generators (paired with the A identity) together
    with the A generators (paired with the U identity); by the product
    rule these generate the whole product.
    """
    U, A = D.U, D.A
    gens = tuple((g, A.identity) for g in U.generators)
    gens += tuple((U.identity, g) for g in A.generators)

    def parse(text):
        text = text.strip()
        if not (text.startswith("(") and text.endswith(")") and ";" in text):
            raise ValueError(f"expected '(u ; a)', got {text!r}")
        left, _, right = text[1:-1].partition(";")
        return (U.parse(left.strip()), A.parse(right.strip()))

    return Semigroup(
        name=f"zs:{D.name}",
        identity=(U.identity, A.identity),
        multiply=lambda p, q: zs_multiply(D, p, q),
        generators=gens,
        display=lambda p: f"({U.display(p[0])} ; {A.display(p[1])})",
        is_unit=lambda p: U.is_unit(p[0]) and A.is_unit(p[1]),
        left_divide=lambda p, r: zs_left_divide(D, p, r),
        right_lcm=lambda p, q: zs_right_lcm(D, p, q),
        parse=parse,
    )


def zs_axiom_check(D, u_ball, a_ball):
    """Verify the eight matching axioms and action bijectivity on balls.

    The axioms, for all a, b in the A ball and u, v in the U ball:

      B1  e_A · u == u              B5  a·(uv) == (a·u)((a|_u)·v)
      B2  (ab) · u == a·(b·u)       B6  a|_(uv) == (a|_u)|_v
      B3  a · e_U == e_U            B7  e_A|_u == e_A
      B4  a|_(e_U) == a             B8  (ab)|_u == (a|_(b·u))(b|_u)

    Bijectivity checks that action_inverse is a two-sided inverse of the
    action of each a on the sampled u's.
    """
    report = Report()
    U, A = D.U, D.A
    match = D.matching
    eU, eA = U.identity, A.identity
    us = list(u_ball)
    avs = list(a_ball)
    # matched[i][j] == (a_i·u_j, a_i|_u_j), read by B2/B8, B5/B6 and
    # bijectivity alike.
    matched = [[match(a, u) for u in us] for a in avs]

    report.add("B1", len(us),
               [U.display(u) for u in us if match(eA, u)[0] != u])
    report.add("B3", len(avs),
               [A.display(a) for a in avs if match(a, eU)[0] != eU])
    report.add("B4", len(avs),
               [A.display(a) for a in avs if match(a, eU)[1] != a])
    report.add("B7", len(us),
               [U.display(u) for u in us if match(eA, u)[1] != eA])

    b2, b8 = [], []
    for a in avs:
        for b, row in zip(avs, matched):
            ab = A.multiply(a, b)
            for u, (bu, rb) in zip(us, row):
                x, r = match(ab, u)
                y, s = match(a, bu)
                if x != y:
                    b2.append(f"({A.display(a)},{A.display(b)},{U.display(u)})")
                if r != A.multiply(s, rb):
                    b8.append(f"({A.display(a)},{A.display(b)},{U.display(u)})")
    n = len(avs) * len(avs) * len(us)
    report.add("B2", n, b2)
    report.add("B8", n, b8)

    # Each uv is computed once, and match(r, v) for every v is read from
    # one row per distinct restriction r, the rows of `matched` included.
    products = [[U.multiply(u, v) for v in us] for u in us]
    by_restriction = dict(zip(avs, matched))
    b5, b6 = [], []
    for a, row in zip(avs, matched):
        for u, (au, ru), uvs in zip(us, row, products):
            r_row = by_restriction.get(ru)
            if r_row is None:
                r_row = by_restriction[ru] = [match(ru, v) for v in us]
            for v, uv, (y, s) in zip(us, uvs, r_row):
                x, r = match(a, uv)
                if x != U.multiply(au, y):
                    b5.append(f"({A.display(a)},{U.display(u)},{U.display(v)})")
                if r != s:
                    b6.append(f"({A.display(a)},{U.display(u)},{U.display(v)})")
    n = len(avs) * len(us) * len(us)
    report.add("B5", n, b5)
    report.add("B6", n, b6)

    bij = []
    for a, row in zip(avs, matched):
        seen = {}
        for u, (au, _r) in zip(us, row):
            prev = seen.get(au)
            if prev is not None and prev != u:
                bij.append(f"{A.display(a)}:{U.display(prev)},{U.display(u)}")
            seen[au] = u
            if D.comatching(a, au)[0] != u:
                bij.append(f"{A.display(a)}:{U.display(u)}")
    report.add("action-bijective", len(avs) * len(us), bij)
    return report
