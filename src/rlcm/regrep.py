"""Truncated left-regular representation: each element p acts on a finite
ball of the monoid as the partial injection q -> pq, with the adjoint
acting by left division, and the range projection of p keeps exactly
the elements that p divides.

Operators are tuples of integer codes over a ball taken as the basis.  A
code >= 0 is the position (`Ball.index`) of the image; KILLED_CODE marks
a vector genuinely outside the domain (decided inside the ball), and
ESCAPED_CODE one whose true image exists but lies outside the ball.
Every code tuple ends in `TAIL`, so indexing by code -2 reads escaped and
by -1 reads killed: composition is one lookup per code, and escaped and
killed stay sticky through it.  Escaped vectors are never counted as
evidence for or against a relation.

A whole table of q -> pq (`rep_generator`) is built only for an operator
that a relation family reads whole: the basis elements of the Li suite,
the complements of the covariance suite and the generators of the K
suite.  Range projections come from division alone, and `L1` multiplies
by pq only on the rows its left side keeps in the ball.
"""

from __future__ import annotations

from dataclasses import replace
from operator import itemgetter
from typing import NamedTuple

from .core import DISJOINT, enumerate_ball
from .report import Report
from .star import VV, ZERO, word_normalize
from .zs import zs_semigroup

KILLED_CODE = -1
ESCAPED_CODE = -2
#: The last two entries of every code tuple: code c < 0 reads entry c.
TAIL = (ESCAPED_CODE, KILLED_CODE)


class PartialInjectionTable(NamedTuple):
    """Partial injection on a basis, with its exact inverse.

    `fwd[i]` is the code of the image of basis element i; `bwd` is the
    same data for the inverse map, including its own escape bookkeeping,
    so the adjoint is a constant-time view.  Both end in `TAIL`.
    """

    fwd: tuple
    bwd: tuple


def rep_generator(S, p, basis):
    """The table of q -> pq on the ball `basis`, with escapes computed on
    both sides."""
    multiply, index = S.multiply, basis.index
    fwd = [index.get(multiply(p, q), ESCAPED_CODE) for q in basis.elements]
    bwd = [KILLED_CODE] * len(basis)
    for i, j in enumerate(fwd):
        if j >= 0:
            bwd[j] = i
    for j, r in enumerate(basis.elements):
        if bwd[j] == KILLED_CODE and S.left_divide(p, r) is not None:
            # r has a genuine preimage, but it lies outside the ball.
            bwd[j] = ESCAPED_CODE
    return PartialInjectionTable(tuple(fwd) + TAIL, tuple(bwd) + TAIL)


# ---------------------------------------------------------------------------
# Whole-basis operator tuples.

def op_compose(left, right):
    """left ∘ right on code tuples; right acts first, and its negative
    codes read left's tail, so escaped and killed are sticky."""
    return itemgetter(*right)(left)


def op_word(ops):
    out = ops[-1]
    for m in reversed(ops[:-1]):
        out = op_compose(m, out)
    return out


def op_identity(n):
    return tuple(range(n)) + TAIL


def op_zero(n):
    return (KILLED_CODE,) * n + TAIL


def op_compare(basis, F, G):
    """(compared, escaped, witness indices): vectors escaped on either
    side are excluded; all others must carry identical outcomes."""
    n = len(basis)
    if F == G:
        escaped = F.count(ESCAPED_CODE) - 1  # the tail's own entry
        return n - escaped, escaped, []
    escaped = 0
    bad = []
    for i, f, g in zip(range(n), F, G):
        if f == g:
            escaped += f == ESCAPED_CODE
        elif f == ESCAPED_CODE or g == ESCAPED_CODE:
            escaped += 1
        else:
            bad.append(i)
    return n - escaped, escaped, bad


# ---------------------------------------------------------------------------
# Relation suites over a product descriptor.

#: The suites `verify_relations` runs, in the order the CLI runs them.
SUITES = ("Li", "covariance", "K")


class RepContext:
    """Cached tables, adjoints and range projections over one ball, and
    the monomial maps, divisor rows and collapse LCMs of the word oracle.

    Every cache lasts as long as the basis.  A table costs n multiplies
    and up to n divisions, so it is built only for an operator read
    whole; a range projection costs n divisions and no table.  The
    monomial side reads neither: `bwd` and `proj` mark a quotient outside
    the ball escaped, while a monomial multiplies that quotient by p, and
    the product may land back in the ball.
    """

    def __init__(self, S, basis):
        self.S = S
        self.basis = basis
        self._tables = {}
        self._projs = {}
        self._monomials = {}
        self._quotients = {}
        self._collapsers = {}

    def table(self, p):
        T = self._tables.get(p)
        if T is None:
            T = rep_generator(self.S, p, self.basis)
            self._tables[p] = T
        return T

    def op(self, p):
        return self.table(p).fwd

    def op_star(self, p):
        return self.table(p).bwd

    def proj(self, p):
        """The range projection of v_p, by division alone: w stays when
        its quotient by p lies in the ball, escapes when the quotient
        lies outside, and is killed when p does not divide it."""
        m = self._projs.get(p)
        if m is None:
            divide, index = self.S.left_divide, self.basis.index
            m = self._projs[p] = tuple([
                KILLED_CODE if (s := divide(p, w)) is None
                else j if s in index else ESCAPED_CODE
                for j, w in enumerate(self.basis.elements)]) + TAIL
        return m

    def quotients(self, q):
        """The row [S.left_divide(q, w) for w in basis]."""
        row = self._quotients.get(q)
        if row is None:
            divide = self.S.left_divide
            row = [divide(q, w) for w in self.basis.elements]
            self._quotients[q] = row
        return row

    def monomial(self, mono):
        """The map of a monomial (or ZERO), evaluated by `monomial_op`
        the first time it is asked for."""
        out = self._monomials.get(mono)
        if out is None:
            row = None if mono is ZERO else self.quotients(mono.q)
            out = monomial_op(self.S, mono, self.basis, row)
            self._monomials[mono] = out
        return out

    def collapser(self, S):
        """S with its right LCM answered from a cache of its own, keyed by
        the pair, so a semigroup with another right LCM never reads these
        answers."""
        view = self._collapsers.get(S)
        if view is None:
            right_lcm, lcms = S.right_lcm, {}

            def cached(p, q):
                got = lcms.get((p, q))
                if got is None:
                    got = lcms[(p, q)] = right_lcm(p, q)
                return got

            view = self._collapsers[S] = replace(S, right_lcm=cached)
        return view


def verify_relations(D, radius=3, suite="Li", max_basis=None):
    """Evaluate one relation suite of the product of D on a radius ball.

    Suites: "Li" (the defining isometry and projection relations),
    "covariance" (adjoint-times-isometry collapses through the right
    LCM), "K" (the mixed relations tying the A-isometries to the
    U-isometries).  Escaped vectors are excluded and counted.  A ball of
    more than `max_basis` elements raises `BallTooLarge` while it is
    built, before any table.
    """
    P = zs_semigroup(D)
    ball = enumerate_ball(P, radius, max_basis)
    ctx = RepContext(P, ball)
    basis = ctx.basis
    report = Report()
    disp = P.display

    def tag2(p, q):
        return lambda: f"({disp(p)},{disp(q)})"

    if suite == "Li":
        identity = op_identity(len(basis))

        def l1(p, q):
            lhs = op_compose(ctx.op(p), ctx.op(q))
            return (lhs, _product_rows(P, basis, P.multiply(p, q), lhs),
                    tag2(p, q))

        _family(report, "L1", basis, disp,
                (l1(p, q) for p in basis for q in basis))
        _family(report, "L2", basis, disp,
                ((op_word([ctx.op(p), ctx.proj(q), ctx.op_star(p)]),
                  ctx.proj(P.multiply(p, q)), tag2(p, q))
                 for p in basis for q in basis))
        _family(report, "L3", basis, disp,
                [(ctx.proj(P.identity), identity, lambda: "e")])
        _family(report, "L4", basis, disp,
                ((op_compose(ctx.proj(p), ctx.proj(q)),
                  _meet_proj(P, ctx, p, q), tag2(p, q))
                 for p in basis for q in basis))
        _family(report, "isometry", basis, disp,
                ((op_compose(ctx.op_star(p), ctx.op(p)), identity,
                  lambda p=p: disp(p)) for p in basis))
    elif suite == "covariance":
        def rhs(p, q):
            got = P.right_lcm(p, q)
            if got is DISJOINT:
                return op_zero(len(basis))
            return op_compose(ctx.op(got.p_comp), ctx.op_star(got.q_comp))

        _family(report, "covariance", basis, disp,
                ((op_compose(ctx.op_star(p), ctx.op(q)), rhs(p, q),
                  tag2(p, q)) for p in basis for q in basis))
    elif suite == "K":
        ball_u = enumerate_ball(D.U, radius)
        ball_a = enumerate_ball(D.A, radius)
        eU, eA = D.U.identity, D.A.identity

        def t_op(u):
            return ctx.op((u, eA))

        def s_tab(a):
            return ctx.table((eU, a))

        def tag_k(a, u):
            return lambda: f"(a={D.A.display(a)},u={D.U.display(u)})"

        k1, k2 = [], []
        for a in ball_a:
            for u in ball_u:
                tag = tag_k(a, u)
                au, r = D.matching(a, u)
                k1.append((op_compose(s_tab(a).fwd, t_op(u)),
                           op_compose(t_op(au), s_tab(r).fwd), tag))
                z, r = D.comatching(a, u)
                k2.append((op_compose(s_tab(a).bwd, t_op(u)),
                           op_compose(t_op(z), s_tab(r).bwd), tag))
        _family(report, "K1", basis, disp, k1)
        _family(report, "K2", basis, disp, k2)
    else:
        raise ValueError(f"unknown suite {suite!r}")
    return report


def _product_rows(P, basis, pq, lhs):
    """The operator of pq on the rows where `lhs` stays in the ball, and
    escaped on the others, which `op_compare` excludes either way."""
    multiply, index = P.multiply, basis.index
    return tuple([index.get(multiply(pq, w), ESCAPED_CODE) if c >= 0
                  else ESCAPED_CODE
                  for c, w in zip(lhs, basis.elements)]) + TAIL


def _meet_proj(P, ctx, p, q):
    got = P.right_lcm(p, q)
    if got is DISJOINT:
        return op_zero(len(ctx.basis))
    return ctx.proj(got.lcm)


def _family(report, name, basis, display, instances):
    """Compare each (lhs, rhs, tag) instance; `tag` is a thunk, called
    only for an instance that fails."""
    compared = escaped = 0
    witnesses = []
    for lhs, rhs, tag in instances:
        c, e, bad = op_compare(basis, lhs, rhs)
        compared += c
        escaped += e
        if bad:
            witnesses.append(
                f"{name}{tag()}@{display(basis.elements[bad[0]])}")
    report.add(name, compared, witnesses, escaped=escaped)


# ---------------------------------------------------------------------------
# Differential cross-check against the monomial calculus.

def monomial_op(S, mono, basis, quotients=None):
    """The evaluation map of v_p v_q*: w is killed unless q divides it,
    and then maps to p times the quotient.  `quotients`, if given, is
    q's row of left quotients of the basis (`RepContext.quotients`)."""
    out = [KILLED_CODE] * len(basis)
    if mono is not ZERO:
        if quotients is None:
            quotients = [S.left_divide(mono.q, w) for w in basis.elements]
        index = basis.index
        for i, s in enumerate(quotients):
            if s is not None:
                out[i] = index.get(S.multiply(mono.p, s), ESCAPED_CODE)
    return tuple(out) + TAIL


def oracle_check_monomial(S, tokens, ctx):
    """Compare the collapsed monomial of a token word against the
    composition of the token tables, vector by vector.

    Tokens are (p, starred) pairs; returns (compared, escaped,
    witness elements).  S collapses the word, with its right LCMs cached
    in `ctx`; both operators are those of the context's semigroup.
    """
    ops = []
    monos = []
    for p, starred in tokens:
        T = ctx.table(p)
        ops.append(T.bwd if starred else T.fwd)
        monos.append(VV(S.identity, p) if starred else VV(p, S.identity))
    word_map = op_word(ops)
    mono_map = ctx.monomial(word_normalize(ctx.collapser(S), monos))
    compared, escaped, bad = op_compare(ctx.basis, word_map, mono_map)
    return compared, escaped, [ctx.basis.elements[i] for i in bad]
