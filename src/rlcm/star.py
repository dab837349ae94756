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
from typing import Any, NamedTuple

from .core import DISJOINT, IncomparableMultiples, enumerate_ball
from .zs import zs_semigroup


class ModeUnsupported(ValueError):
    """The requested foundation-check mode does not apply to this
    semigroup (the exact criterion needs a free monoid)."""


class _Zero:
    __slots__ = ()

    def __repr__(self):
        return "ZERO"


#: The zero monomial, absorbing under product and fixed by adjoint.
ZERO = _Zero()


class VV(NamedTuple):
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


def mono_multiply(S, m1, m2):
    """Product of two monomials, collapsed through the covariance rule
    with the semigroup's right LCM."""
    if m1 is ZERO or m2 is ZERO:
        return ZERO
    got = S.right_lcm(m1.q, m2.p)
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


def word_normalize(S, tokens):
    """Left fold of mono_multiply over a token word.

    Tokens are Monomial values; see `v`, `vstar`, `projection` for the
    standard generators.  The result is ZERO or a single VV.
    """
    out = VV(S.identity, S.identity)
    for tok in tokens:
        out = mono_multiply(S, out, tok)
    return out


# ---------------------------------------------------------------------------
# Foundation sets: finite families F such that every element's principal
# right ideal meets qP for some q in F.

FOUNDATION = "Foundation"
NOT_FOUNDATION = "NotFoundation"


@dataclass(frozen=True)
class FoundationVerdict:
    status: str
    witness: Any = None

    @property
    def ok(self):
        return self.status == FOUNDATION


def is_foundation_set(S, F, mode, ball=None):
    """Decide (exactly or on a ball) whether F is a foundation set.

    mode "exact": free monoids only.  With N the longest length in F,
    F is a foundation set iff every length-N word has some member of F
    as a prefix or extension; this is a complete decision.  It walks the
    members in letter order, keeping the first prefix they leave
    uncovered; a member must be that prefix followed by first letters, or
    the prefix, padded with the first letter, is the witness.

    mode "bounded": checks the defining condition for every p in `ball`
    with the exact right LCM; a clean sweep yields Foundation as a ball
    certificate and the first failing p yields NotFoundation(p).  A pair
    with incomparable common multiples has common multiples, so it
    counts as a hit.
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
        gap = ""  # the first prefix that the members so far leave uncovered
        for f in sorted(F):
            if f < gap:
                continue  # it extends the member that covered the last gap
            if f != gap.ljust(len(f), letters[0]):
                break
            stem = f.rstrip(letters[-1])
            if not stem:
                return FoundationVerdict(FOUNDATION)
            gap = stem[:-1] + letters[letters.index(stem[-1]) + 1]
        return FoundationVerdict(NOT_FOUNDATION,
                                 witness=gap.ljust(depth, letters[0]))
    if mode == "bounded":
        if ball is None:
            raise ValueError("bounded mode needs a ball")
        for p in ball:
            for q in F:
                try:
                    if S.right_lcm(p, q) is not DISJOINT:
                        break
                except IncomparableMultiples:
                    break  # common multiples exist, just no least one
            else:
                return FoundationVerdict(NOT_FOUNDATION, witness=p)
        return FoundationVerdict(FOUNDATION)
    raise ValueError(f"unknown mode {mode!r}")


def foundation_transfer(D, clause, value, check_radius):
    """Move foundation sets between the factors and the product U ⋈ A.

    clause "a": a single element a of A gives {(e_U, a)} in the product.
    clause "b": a foundation set F of U gives {(u, e_A) : u in F}.
    clause "c": a foundation set G of the product projects to its set of
    U-components, a foundation set of U.

    The output is re-verified by a bounded foundation check at
    `check_radius` (on the product for "a"/"b", on U for "c"); a failed
    check raises ValueError.
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
    ball = enumerate_ball(target, check_radius)
    verdict = is_foundation_set(target, out, "bounded", ball=ball)
    if not verdict.ok:
        raise ValueError(
            f"transferred set failed the bounded check: {verdict}")
    return out
