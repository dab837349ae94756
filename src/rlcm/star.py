"""Normal-form calculus for products of the generating isometries of a
right-LCM monoid.

Every word in the symbols v_p, v_p* collapses to zero or to a single
two-sided monomial v_p v_q*; the collapse step is the covariance rule

    v_q* v_r = v_{q'} v_{r'}*   where q q' = r r' is the right LCM,
    v_q* v_r = 0                when qP and rP are disjoint.

Monomials are canonical only up to a common right unit on both indices,
so equality goes through `mono_equal`, never through `==` on indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .core import (DISJOINT, BallTooSmall, IncomparableMultiples,
                   enumerate_ball)
from .zs import zs_semigroup


class ModeUnsupported(Exception):
    """The requested foundation-check mode does not apply to this
    semigroup (the exact criterion needs a free monoid)."""


class _Zero:
    __slots__ = ()

    def __repr__(self):
        return "ZERO"


#: The zero monomial, absorbing under product and fixed by adjoint.
ZERO = _Zero()


@dataclass(frozen=True)
class VV:
    """The monomial v_p v_q*."""

    p: Any
    q: Any


def v(S, p):
    return VV(p, S.identity)


def vstar(S, p):
    return VV(S.identity, p)


def projection(S, p):
    """e_p = v_p v_p*, the range projection onto the ideal of p."""
    return VV(p, p)


def mono_multiply(S, m1, m2, lcm=None):
    """Product of two monomials, collapsed through the covariance rule.

    `lcm` overrides the semigroup's right-LCM function (used to plug in
    the brute-force oracle); it must return DISJOINT or an Lcm record.
    """
    if m1 is ZERO or m2 is ZERO:
        return ZERO
    if lcm is None:
        lcm = S.right_lcm
    got = lcm(m1.q, m2.p)
    if got is DISJOINT:
        return ZERO
    return VV(S.multiply(m1.p, got.p_comp), S.multiply(m2.q, got.q_comp))


def mono_adjoint(m):
    if m is ZERO:
        return ZERO
    return VV(m.q, m.p)


def mono_equal(S, m1, m2):
    """Equality up to the unit ambiguity VV{p,q} ~ VV{pu,qu}.

    Decided by division: the candidate unit is forced by the p-indices
    and then checked against the q-indices.  No unit enumeration.
    """
    if m1 is ZERO or m2 is ZERO:
        return m1 is m2
    u = S.left_divide(m1.p, m2.p)
    return (u is not None and S.is_unit(u)
            and S.multiply(m1.q, u) == m2.q)


def mono_display(S, m):
    if m is ZERO:
        return "0"
    return f"v({S.display(m.p)})v({S.display(m.q)})*"


def word_normalize(S, tokens, lcm=None):
    """Left fold of mono_multiply over a token word.

    Tokens are Monomial values; see `v`, `vstar`, `projection` for the
    standard generators.  The result is ZERO or a single VV.
    """
    out = VV(S.identity, S.identity)
    for tok in tokens:
        out = mono_multiply(S, out, tok, lcm=lcm)
    return out


# ---------------------------------------------------------------------------
# Foundation sets: finite families F such that every element's principal
# right ideal meets qP for some q in F.

FOUNDATION = "Foundation"
NOT_FOUNDATION = "NotFoundation"
UNDECIDED_BEYOND_BALL = "UndecidedBeyondBall"


@dataclass(frozen=True)
class FoundationVerdict:
    status: str
    witness: Any = None

    @property
    def ok(self):
        return self.status == FOUNDATION


def is_foundation_set(S, F, mode, ball=None, lcm=None):
    """Decide (exactly or on a ball) whether F is a foundation set.

    mode "exact": free monoids only.  With N the longest length in F,
    F is a foundation set iff every length-N word has some member of F
    as a prefix or extension; this is a complete decision.

    mode "bounded": checks the defining condition for every p in `ball`;
    a clean sweep yields Foundation as a ball certificate, a failing p
    with all comparisons decided yields NotFoundation(p), and any
    undecidable comparison on an otherwise failing p yields
    UndecidedBeyondBall.  A pair with incomparable common multiples has
    common multiples, so it counts as a hit.
    """
    F = list(F)
    if not F:
        raise ValueError("foundation sets are nonempty by definition")
    if mode == "exact":
        if not S.name.startswith("free:"):
            raise ModeUnsupported(
                f"exact foundation checking needs a free monoid, got {S.name}")
        letters = [S.display(g) for g in S.generators]
        depth = max(len(f) for f in F)
        frontier = [""]
        for _ in range(depth):
            frontier = [w + x for w in frontier for x in letters]
        for w in frontier:
            if not any(w.startswith(f) or f.startswith(w) for f in F):
                return FoundationVerdict(NOT_FOUNDATION, witness=w)
        return FoundationVerdict(FOUNDATION)
    if mode == "bounded":
        if ball is None:
            raise ValueError("bounded mode needs a ball")
        if lcm is None:
            lcm = S.right_lcm
        for p in ball:
            hit = undecided = False
            for q in F:
                try:
                    hit = lcm(p, q) is not DISJOINT
                except IncomparableMultiples:
                    hit = True  # common multiples exist, just no least one
                except BallTooSmall:
                    undecided = True
                if hit:
                    break
            if not hit:
                if undecided:
                    return FoundationVerdict(UNDECIDED_BEYOND_BALL, witness=p)
                return FoundationVerdict(NOT_FOUNDATION, witness=p)
        return FoundationVerdict(FOUNDATION)
    raise ValueError(f"unknown mode {mode!r}")


def foundation_transfer(D, clause, value, check_radius=None):
    """Move foundation sets between the factors and the product U ⋈ A.

    clause "a": a single element a of A gives {(e_U, a)} in the product.
    clause "b": a foundation set F of U gives {(u, e_A) : u in F}.
    clause "c": a foundation set G of the product projects to its set of
    U-components, a foundation set of U.

    With `check_radius` set, the output is re-verified by a bounded
    foundation check at that radius (on the product for "a"/"b", on U
    for "c"); a failed check raises ValueError.
    """
    U, A = D.U, D.A
    if clause == "a":
        out = ((U.identity, value),)
        target = zs_semigroup(D)
    elif clause == "b":
        out = tuple((u, A.identity) for u in value)
        target = zs_semigroup(D)
    elif clause == "c":
        seen = []
        for u, _a in value:
            if u not in seen:
                seen.append(u)
        out = tuple(seen)
        target = U
    else:
        raise ValueError(f"unknown clause {clause!r}")
    if check_radius is not None:
        ball = enumerate_ball(target, check_radius)
        verdict = is_foundation_set(target, out, "bounded", ball=ball)
        if not verdict.ok:
            raise ValueError(
                f"transferred set failed the bounded check: {verdict}")
    return out
