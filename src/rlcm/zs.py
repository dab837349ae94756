"""Zappa-Szép products U ⋈ A: two monoids glued along a two-sided matching.

A matching is a pair of maps, an action a·u of A on U and a restriction
a|_u of A by U, subject to eight compatibility axioms.  The product lives
on U x A with

    (u, a)(v, b) = (u (a·v), (a|_v) b).

For the right-LCM machinery the action of each a must be a bijection of
U, so a descriptor also carries the inverse map u -> v with a·v = u.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .core import DISJOINT, IncomparableMultiples, Lcm, Semigroup
from .report import Report


class HypothesisViolation(Exception):
    """A structural assumption of the right-LCM construction failed, e.g.
    two restrictions that are not comparable by left divisibility in A."""


@dataclass(frozen=True)
class ZSDescriptor:
    """The raw matching data for one product U ⋈ A.

    `action(a, u)` is a·u, `restriction(a, u)` is a|_u, and
    `action_inverse(a, u)` is the unique v with a·v == u.
    """

    name: str
    U: Semigroup
    A: Semigroup
    action: Callable[[Any, Any], Any]
    restriction: Callable[[Any, Any], Any]
    action_inverse: Callable[[Any, Any], Any]


def zs_multiply(D, p, q):
    (u, a), (v, b) = p, q
    return (D.U.multiply(u, D.action(a, v)),
            D.A.multiply(D.restriction(a, v), b))


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
    v = D.action_inverse(a, x)
    b = D.A.left_divide(D.restriction(a, v), c)
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
    x = D.action_inverse(a, u2)
    y = D.action_inverse(b, v2)
    r = D.restriction(a, x)
    s = D.restriction(b, y)
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
    act, res = D.action, D.restriction
    eU, eA = U.identity, A.identity
    us = list(u_ball)
    avs = list(a_ball)

    report.add("B1", len(us),
               [U.display(u) for u in us if act(eA, u) != u])
    report.add("B3", len(avs),
               [A.display(a) for a in avs if act(a, eU) != eU])
    report.add("B4", len(avs),
               [A.display(a) for a in avs if res(a, eU) != a])
    report.add("B7", len(us),
               [U.display(u) for u in us if res(eA, u) != eA])

    b2, b8 = [], []
    for a in avs:
        for b in avs:
            ab = A.multiply(a, b)
            for u in us:
                if act(ab, u) != act(a, act(b, u)):
                    b2.append(f"({A.display(a)},{A.display(b)},{U.display(u)})")
                if res(ab, u) != A.multiply(res(a, act(b, u)), res(b, u)):
                    b8.append(f"({A.display(a)},{A.display(b)},{U.display(u)})")
    n = len(avs) * len(avs) * len(us)
    report.add("B2", n, b2)
    report.add("B8", n, b8)

    b5, b6 = [], []
    for a in avs:
        for u in us:
            au = act(a, u)
            ru = res(a, u)
            for v in us:
                uv = U.multiply(u, v)
                if act(a, uv) != U.multiply(au, act(ru, v)):
                    b5.append(f"({A.display(a)},{U.display(u)},{U.display(v)})")
                if res(a, uv) != res(ru, v):
                    b6.append(f"({A.display(a)},{U.display(u)},{U.display(v)})")
    n = len(avs) * len(us) * len(us)
    report.add("B5", n, b5)
    report.add("B6", n, b6)

    bij = []
    for a in avs:
        seen = {}
        for u in us:
            au = act(a, u)
            prev = seen.get(au)
            if prev is not None and prev != u:
                bij.append(f"{A.display(a)}:{U.display(prev)},{U.display(u)}")
            seen[au] = u
            if D.action_inverse(a, au) != u:
                bij.append(f"{A.display(a)}:{U.display(u)}")
    report.add("action-bijective", len(avs) * len(us), bij)
    return report
