"""Truncated left-regular representation: each element p acts on a finite
ball of the monoid as the partial injection q -> pq, with the adjoint
acting by left division.

Operators are integer code arrays over the indexed basis.  A code >= 0 is
the basis index of the image; KILLED_CODE marks a vector genuinely outside
the domain (decided inside the ball), and ESCAPED_CODE one whose true
image exists but lies outside the ball.  Escaped is sticky through
composition, and escaped vectors are never counted as evidence for or
against a relation.  Whole-basis composition and comparison are single
vectorized steps.
"""

from __future__ import annotations

import numpy as np

from .core import DISJOINT, enumerate_ball
from .report import Report
from .zs import zs_semigroup

KILLED_CODE = -1
ESCAPED_CODE = -2


class Basis:
    """An indexed ball: elements in deterministic order plus the reverse
    lookup used to translate between elements and array slots."""

    def __init__(self, ball):
        self.ball = ball
        self.elements = list(ball.elements)
        self.index = {x: i for i, x in enumerate(self.elements)}

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x):
        return x in self.index

    def __iter__(self):
        return iter(self.elements)


class PartialInjectionTable:
    """Partial injection on a basis, with its exact inverse.

    `fwd[i]` is the code of the image of basis element i; `bwd` is the
    same data for the inverse map, including its own escape bookkeeping,
    so the adjoint is a constant-time view.
    """

    def __init__(self, basis, fwd, bwd):
        self.basis = basis
        self.fwd = fwd
        self.bwd = bwd


def rep_generator(S, p, basis):
    """The table of q -> pq, with escapes computed on both sides."""
    if not isinstance(basis, Basis):
        basis = Basis(basis)
    n = len(basis)
    fwd = np.full(n, KILLED_CODE, dtype=np.int64)
    bwd = np.full(n, KILLED_CODE, dtype=np.int64)
    for i, q in enumerate(basis.elements):
        pq = S.multiply(p, q)
        j = basis.index.get(pq)
        if j is None:
            fwd[i] = ESCAPED_CODE
        else:
            fwd[i] = j
            bwd[j] = i
    for j, r in enumerate(basis.elements):
        if bwd[j] == KILLED_CODE:
            s = S.left_divide(p, r)
            if s is not None:
                # r has a genuine preimage, but it lies outside the ball.
                bwd[j] = ESCAPED_CODE
    return PartialInjectionTable(basis, fwd, bwd)


# ---------------------------------------------------------------------------
# Whole-basis operator arrays.

def op_compose(left, right):
    """left ∘ right on code arrays; right acts first, Escaped is sticky."""
    out = right.copy()
    mask = right >= 0
    out[mask] = left[right[mask]]
    return out


def op_word(ops):
    out = ops[-1]
    for m in reversed(ops[:-1]):
        out = op_compose(m, out)
    return out


def op_identity(n):
    return np.arange(n, dtype=np.int64)


def op_zero(n):
    return np.full(n, KILLED_CODE, dtype=np.int64)


def op_compare(basis, F, G):
    """(compared, escaped, witness indices): vectors escaped on either
    side are excluded; all others must carry identical outcomes."""
    esc = (F == ESCAPED_CODE) | (G == ESCAPED_CODE)
    bad = ~esc & (F != G)
    n_esc = int(esc.sum())
    return len(basis) - n_esc, n_esc, np.flatnonzero(bad)


# ---------------------------------------------------------------------------
# Relation suites over a product descriptor.

class RepContext:
    """Cached tables, adjoints and range projections over one basis."""

    def __init__(self, S, basis):
        self.S = S
        self.basis = basis if isinstance(basis, Basis) else Basis(basis)
        self._tables = {}
        self._projs = {}

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
        m = self._projs.get(p)
        if m is None:
            T = self.table(p)
            m = op_compose(T.fwd, T.bwd)
            self._projs[p] = m
        return m


def verify_relations(D, radius=3, suite="Li"):
    """Evaluate one relation suite of the product of D on a radius ball.

    Suites: "Li" (the defining isometry and projection relations),
    "covariance" (adjoint-times-isometry collapses through the right
    LCM), "K" (the mixed relations tying the A-isometries to the
    U-isometries).  Escaped vectors are excluded and counted.
    """
    P = zs_semigroup(D)
    ctx = RepContext(P, enumerate_ball(P, radius))
    basis = ctx.basis
    report = Report()
    disp = P.display

    def tag2(p, q):
        return f"({disp(p)},{disp(q)})"

    if suite == "Li":
        _family(report, "L1", basis, disp,
                ((op_compose(ctx.op(p), ctx.op(q)), ctx.op(P.multiply(p, q)),
                  tag2(p, q)) for p in basis for q in basis))
        _family(report, "L2", basis, disp,
                ((op_word([ctx.op(p), ctx.proj(q), ctx.op_star(p)]),
                  ctx.proj(P.multiply(p, q)), tag2(p, q))
                 for p in basis for q in basis))
        _family(report, "L3", basis, disp,
                [(ctx.proj(P.identity), op_identity(len(basis)), "e")])
        _family(report, "L4", basis, disp,
                ((op_compose(ctx.proj(p), ctx.proj(q)),
                  _meet_proj(P, ctx, p, q), tag2(p, q))
                 for p in basis for q in basis))
        _family(report, "isometry", basis, disp,
                ((op_compose(ctx.op_star(p), ctx.op(p)),
                  op_identity(len(basis)), disp(p)) for p in basis))
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

        k1, k2 = [], []
        for a in ball_a:
            for u in ball_u:
                tag = f"(a={D.A.display(a)},u={D.U.display(u)})"
                k1.append((op_compose(s_tab(a).fwd, t_op(u)),
                           op_compose(t_op(D.action(a, u)),
                                      s_tab(D.restriction(a, u)).fwd), tag))
                z = D.action_inverse(a, u)
                k2.append((op_compose(s_tab(a).bwd, t_op(u)),
                           op_compose(t_op(z),
                                      s_tab(D.restriction(a, z)).bwd), tag))
        _family(report, "K1", basis, disp, k1)
        _family(report, "K2", basis, disp, k2)
    else:
        raise ValueError(f"unknown suite {suite!r}")
    return report


def _meet_proj(P, ctx, p, q):
    got = P.right_lcm(p, q)
    if got is DISJOINT:
        return op_zero(len(ctx.basis))
    return ctx.proj(got.lcm)


def _family(report, name, basis, display, instances):
    compared = escaped = 0
    witnesses = []
    for lhs, rhs, tag in instances:
        c, e, bad = op_compare(basis, lhs, rhs)
        compared += c
        escaped += e
        if len(bad):
            witnesses.append(f"{name}{tag}@{display(basis.elements[bad[0]])}")
    report.add(name, compared, witnesses, escaped=escaped)


# ---------------------------------------------------------------------------
# Differential cross-check against the monomial calculus.

def monomial_op(S, mono, basis):
    """The evaluation map of v_p v_q*: w is killed unless q divides it,
    and then maps to p times the quotient."""
    from .star import ZERO

    n = len(basis)
    out = op_zero(n)
    if mono is ZERO:
        return out
    for i, w in enumerate(basis.elements):
        s = S.left_divide(mono.q, w)
        if s is None:
            continue
        img = S.multiply(mono.p, s)
        j = basis.index.get(img)
        out[i] = ESCAPED_CODE if j is None else j
    return out


def oracle_check_monomial(S, tokens, ctx, lcm=None):
    """Compare the collapsed monomial of a token word against the
    composition of the token tables, vector by vector.

    Tokens are (p, starred) pairs; returns (compared, escaped,
    witness elements).
    """
    from .star import VV, word_normalize

    ops = []
    monos = []
    for p, starred in tokens:
        T = ctx.table(p)
        ops.append(T.bwd if starred else T.fwd)
        monos.append(VV(S.identity, p) if starred else VV(p, S.identity))
    word_map = op_word(ops)
    mono = word_normalize(S, monos, lcm=lcm)
    mono_map = monomial_op(S, mono, ctx.basis)
    compared, escaped, bad = op_compare(ctx.basis, word_map, mono_map)
    return compared, escaped, [ctx.basis.elements[i] for i in bad]
