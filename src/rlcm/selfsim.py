"""Self-similar actions on words and two-alphabet monoids with a
commutation bijection.

The integers act on digit words by odometers: k adds k to the first
digit with carry, giving for each letter x a new letter k·x and a
restricted integer k|_x; the action extends to words letter by letter,
the restriction trailing along: k·(xw) = (k·x)(k|_x·w).

The second half of the module handles monoids on two alphabets X, Y with
relations y_j x_i = x_{i'} y_{j'} prescribed by a bijection θ, whose
elements have unique X*Y* normal forms of a well-defined bidegree.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Optional

from .core import DISJOINT, IncomparableMultiples, Lcm, Semigroup
from .report import Report
from .zoo import LETTERS, frac_right_lcm, read_int


@dataclass(frozen=True)
class Odometer:
    """The base-d odometer whose carries cost c: k acts on a digit x by
    (x + k) mod d and restricts to c·((x + k) div d).  By Euclidean
    division every integer acts, and -k walks k's image back letter by
    letter: (-k)·(k·x) == x and res(-k, k·x) == -res(k, x)."""

    c: int
    d: int

    def act(self, k, x):
        return (x + k) % self.d

    def res(self, k, x):
        return self.c * ((x + k) // self.d)


def adding_machine(n):
    """The base-n adding machine: k adds k to a digit, carrying 1."""
    return bs_odometer(1, n)


def bs_odometer(c, d):
    """The letterwise action of the cyclic part of BS(c,d)+ on its
    d-letter free factor, where passing a carry costs c instead of 1."""
    if c < 1 or d < 1:
        raise ValueError("c and d must be positive")
    return Odometer(c, d)


def odometer_walk(D, k, letters):
    """(k·letters, k|_letters): the action letter by letter, the
    restriction trailing along; length is preserved.  One `divmod` per
    letter gives both of `D.act` and `D.res`."""
    c, d = D.c, D.d
    out = []
    for x in letters:
        q, y = divmod(x + k, d)
        out.append(y)
        k = c * q
    return tuple(out), k


def ssa_act_word(D, g, word):
    """(g·word, g|_word) for a word over `zoo.LETTERS`."""
    letters, g = odometer_walk(D, g, map(LETTERS.index, word))
    return "".join(map(LETTERS.__getitem__, letters)), g


# ---------------------------------------------------------------------------
# Commutation tables and X*Y* normal forms.

class ThetaTable:
    """A bijection Y x X -> X x Y driving relations y_j x_i = x_i' y_j'.

    Stored as a mapping (j, i) -> (i', j') with its inverse; arbitrary
    bijections are accepted so that deliberately broken tables can be
    fed to the checkers.  The table also keeps the results of the letter
    pushes that rewrite words over it (`_swap`), so each distinct push
    is computed once per table.
    """

    def __init__(self, m, n, table):
        self.m = m
        self.n = n
        self.table = dict(table)
        if len(self.table) != m * n:
            raise ValueError("table must have one entry per (j,i)")
        self.inv = {v: k for k, v in self.table.items()}
        if len(self.inv) != m * n:
            raise ValueError("table is not a bijection")
        self.x_pushes = {}
        self.y_pushes = {}


def theta_build(m, n):
    """The standard table: (j, i) maps to the unique (i', j') with
    j + i*n == i' + j'*m, 0 <= i' < m, 0 <= j' < n."""
    if m < 2 or n < 2:
        raise ValueError("need m, n >= 2")
    table = {}
    for j in range(n):
        for i in range(m):
            t = j + i * n
            table[(j, i)] = (t % m, t // m)
    return ThetaTable(m, n, table)


def theta_swap(T, key1, key2):
    """Copy of T with the entries at two (j,i) keys exchanged; used for
    mutation tests against the compatibility checker."""
    table = dict(T.table)
    table[key1], table[key2] = table[key2], table[key1]
    return ThetaTable(T.m, T.n, table)


def _swap(table, cache, block, letters):
    """(moved letters, new block): `letters` move left through `block`
    one at a time, each pair rewritten by `table` as (block letter,
    letter) -> (letter, block letter), each push cached by (block, letter)."""
    moved = []
    for a in letters:
        key = (block, a)
        got = cache.get(key)
        if got is None:
            out = []
            for b in reversed(block):
                a, b = table[(b, a)]
                out.append(b)
            got = cache[key] = (a, tuple(reversed(out)))
        a, block = got
        moved.append(a)
    return tuple(moved), block


def ftheta_multiply(T, z1, z2):
    """Product in X*Y* normal form; bidegrees add."""
    xs, ys = _swap(T.table, T.x_pushes, z1[1], z2[0])
    return (z1[0] + xs, ys + z2[1])


def ftheta_normalize(T, letters):
    """Fold a mixed letter sequence (('x', i) / ('y', j) pairs) into
    normal form; the result is independent of how the relations are
    applied because the table is a bijection."""
    z = ((), ())
    for kind, idx in letters:
        step = ((idx,), ()) if kind == "x" else ((), (idx,))
        z = ftheta_multiply(T, z, step)
    return z


def ftheta_anti_normal(T, z):
    """The same element written in Y*X* order, as (ys, xs), by the
    inverse rewriting x_i y_j -> y_j' x_i'."""
    return _swap(T.inv, T.y_pushes, *z)


def ftheta_factor(T, z, d):
    """Split z = w1 * w2 with bidegree(w1) == d; None if d does not fit.

    The split is unique: the x-part of w1 is forced, and the middle block
    xs[p1:] ys[:q1], rewritten as ys' xs', leaves w1 = xs[:p1] ys' and
    w2 = xs' ys[q1:], both in normal form.
    """
    p1, q1 = d
    xs, ys = z
    if not (0 <= p1 <= len(xs) and 0 <= q1 <= len(ys)):
        return None
    mys, mxs = ftheta_anti_normal(T, (xs[p1:], ys[:q1]))
    return (xs[:p1], mys), (mxs, ys[q1:])


def ftheta_left_divide(T, z1, z):
    xs1, ys1 = z1
    got = ftheta_factor(T, z, (len(xs1), len(ys1)))
    if got is None or got[0] != z1:
        return None
    return got[1]


def ftheta_display(z):
    xs, ys = z
    return ("".join(f"x{i}" for i in xs) + "." + "".join(f"y{j}" for j in ys))


def ftheta_parse(T, text):
    text = text.strip()
    if text in ("ε", "e"):
        return ((), ())
    if text.count(".") != 1:
        raise ValueError(f"expected 'x…x.y…y', got {text!r}")
    xpart, ypart = text.split(".")
    z = _parse_letters(xpart, "x", T.m), _parse_letters(ypart, "y", T.n)
    return z


def _parse_letters(part, kind, bound):
    out = []
    rest = part
    while rest:
        m = re.match(kind + "(0|[1-9][0-9]*)", rest)
        if m is None:
            raise ValueError(f"bad {kind}-letter near {rest!r}")
        idx = read_int(m.group(1))
        if idx >= bound:
            raise ValueError(f"letter {kind}{idx} out of range (< {bound})")
        out.append(idx)
        rest = rest[m.end():]
    return tuple(out)


# ---------------------------------------------------------------------------
# Embedding into the progressions: x_i -> (i, m), y_j -> (j, n), so by
# least-significant-first digits a word of bidegree (p, q) maps to
# (rx + m^p * ry, m^p n^q).  Under the standard table it is a homomorphism
# for every (m, n), as j + i*n == i' + j'*m says y_j x_i and x_i' y_j' are
# the same map k -> r + s*k.  It is injective on each bidegree, but not
# across them when m and n share a factor (2^4 == 4^2 on ftheta:2,4).

def ftheta_embed(T, z):
    xs, ys = z
    m, n = T.m, T.n
    r = 0
    for j in reversed(ys):
        r = r * n + j
    for i in reversed(xs):
        r = r * m + i
    return (r, m ** len(xs) * n ** len(ys))


def ftheta_decode(T, r, p, q):
    """The word of bidegree (p, q) whose embedding is (r, m^p n^q), for
    0 <= r < m^p n^q."""
    letters = []
    for b in (T.m,) * p + (T.n,) * q:
        letters.append(r % b)
        r //= b
    return tuple(letters[:p]), tuple(letters[p:])


def ftheta_right_lcm(T, z1, z2):
    """Right LCM of z1 and z2, or IncomparableMultiples carrying the two
    least minimal common multiples by embedded value.  Embedded, the
    minimal ones are the r < N = m^P n^Q at the joined bidegree (P, Q)
    in the class r0 mod L = lcm(M1, M2) that frac_right_lcm solves, with
    0 <= r0 < L: N / L of them, as L divides N.  One (always, for coprime
    sizes) is the LCM, decoded with its complements at their known
    bidegrees; of more, the least two are r0 and r0 + L."""
    got = frac_right_lcm(ftheta_embed(T, z1), ftheta_embed(T, z2))
    if got is DISJOINT:
        return DISJOINT
    (p1, q1), (p2, q2) = _bidegree(z1), _bidegree(z2)
    P, Q = max(p1, p2), max(q1, q2)
    r0, L = got.lcm
    if L == T.m ** P * T.n ** Q:
        return Lcm(ftheta_decode(T, r0, P, Q),
                   ftheta_decode(T, got.p_comp[0], P - p1, Q - q1),
                   ftheta_decode(T, got.q_comp[0], P - p2, Q - q2))
    raise IncomparableMultiples(z1, z2, [ftheta_decode(T, r, P, Q)
                                         for r in (r0, r0 + L)])


def ftheta_semigroup(m, n):
    """The two-alphabet monoid of the standard table as a descriptor over
    normal-form pairs; its right LCM is the closed form above, which
    holds for that table only."""
    T = theta_build(m, n)
    gens = tuple(((i,), ()) for i in range(m))
    gens += tuple(((), (j,)) for j in range(n))
    return Semigroup(
        name=f"ftheta:{m},{n}",
        identity=((), ()),
        multiply=lambda p, q: ftheta_multiply(T, p, q),
        generators=gens,
        display=ftheta_display,
        is_unit=lambda z: z == ((), ()),
        left_divide=lambda p, r: ftheta_left_divide(T, p, r),
        right_lcm=lambda p, q: ftheta_right_lcm(T, p, q),
        parse=lambda t: ftheta_parse(T, t),
    )


# ---------------------------------------------------------------------------
# Compatibility of a table with a pair of self-similar actions, and the
# right-LCM survey.

def prop_compat_check(T, D_X, D_Y, g_range):
    """Check that the table intertwines the two letter actions:

        x-part:  theta_X(y, x) == g^-1 · theta_X(g·y, g|_y·x)
        y-part:  theta_Y(y, x) == (g|_{theta_X(y,x)})^-1 · theta_Y(g·y, g|_y·x)

    for every integer g in g_range and every letter pair; integers act
    on both alphabets by odometers, so g^-1 acts as -g.
    """
    report = Report()
    bad_x, bad_y = [], []
    gs = list(g_range)
    for g in gs:
        for j in range(T.n):
            for i in range(T.m):
                i1, j1 = T.table[(j, i)]
                gy = D_Y.act(g, j)
                gx = D_X.act(D_Y.res(g, j), i)
                i2, j2 = T.table[(gy, gx)]
                spot = f"(g={g!r},y{j},x{i})"
                if D_X.act(-g, i2) != i1:
                    bad_x.append(spot)
                rx = D_X.res(g, i1)
                if D_Y.act(-rx, j2) != j1:
                    bad_y.append(spot)
    total = len(gs) * T.m * T.n
    report.add("compat-X", total, bad_x)
    report.add("compat-Y", total, bad_y)
    return report


@dataclass(frozen=True)
class SurveyVerdict:
    """Outcome of the bounded right-LCM survey: either no counterexample
    within the bidegree box, or a pair with two distinct minimal common
    multiples."""

    box: tuple
    checked_pairs: int
    pair: Optional[tuple] = None
    multiples: Optional[tuple] = None

    @property
    def ok(self):
        return self.pair is None


def ftheta_min_common_multiples(T, z1, z2):
    """All minimal common right multiples of z1 and z2: the common
    multiples at the componentwise-max bidegree.  Empty means disjoint;
    two or more means no least one exists."""
    (p1, q1), (p2, q2) = _bidegree(z1), _bidegree(z2)
    P, Q = max(p1, p2), max(q1, q2)
    found = []
    for xs in itertools.product(range(T.m), repeat=P):
        for ys in itertools.product(range(T.n), repeat=Q):
            t = (xs, ys)
            if (ftheta_left_divide(T, z1, t) is not None
                    and ftheta_left_divide(T, z2, t) is not None):
                found.append(t)
    return found


def _bidegree(z):
    return (len(z[0]), len(z[1]))


#: The most words the survey enumerates at the top bidegree of its box;
#: its time and memory grow steeply with that count.
SURVEY_MAX_WORDS = 4096


def ftheta_right_lcm_survey(T, max_bidegree):
    """Search for right-LCM failures among all word pairs whose joined
    bidegree fits in the box.

    If a pair has any common right multiple, it has one at the joined
    (componentwise max) bidegree, and the pair has a right LCM exactly
    when that bidegree carries a single common multiple.  So for every
    bidegree D in the box it suffices to bucket all degree-D words by
    their pairs of prefixes: a bucket with two words is a counterexample,
    and an all-singleton run is a complete certificate for the box.
    A box with more than SURVEY_MAX_WORDS words at its top is refused.
    """
    P, Q = max_bidegree
    if P < 0 or Q < 0:
        raise ValueError(f"bidegree box {max_bidegree} has a negative entry")
    if T.m ** P * T.n ** Q > SURVEY_MAX_WORDS:
        raise ValueError(f"bidegree box {max_bidegree} holds more than "
                         f"{SURVEY_MAX_WORDS} words at its top")
    boxes = sorted(((p, q) for p in range(P + 1) for q in range(Q + 1)),
                   key=lambda d: (d[0] + d[1], d))
    checked = 0
    for D in boxes:
        subs = [d for d in boxes if d[0] <= D[0] and d[1] <= D[1]]
        joins = [(d1, d2) for d1 in subs for d2 in subs
                 if (max(d1[0], d2[0]), max(d1[1], d2[1])) == D]
        words = [(xs, ys)
                 for xs in itertools.product(range(T.m), repeat=D[0])
                 for ys in itertools.product(range(T.n), repeat=D[1])]
        # A join with D on one side buckets every word alone, as a word's
        # prefix at D is itself, and (d2, d1) buckets as (d1, d2) did; so
        # only the other joins are bucketed, and every join that holds no
        # counterexample counts one pair per word.
        fresh = []
        for d1, d2 in joins:
            if D not in (d1, d2) and (d2, d1) not in fresh:
                fresh.append((d1, d2))
        prefixes = {d: [ftheta_factor(T, t, d)[0] for t in words]
                    for d in set(itertools.chain(*fresh))}
        for d1, d2 in joins:
            if (d1, d2) in fresh:
                buckets = {}
                for t, key in zip(words, zip(prefixes[d1], prefixes[d2])):
                    buckets.setdefault(key, []).append(t)
                for (w1, w2), ts in buckets.items():
                    if len(ts) >= 2:
                        return SurveyVerdict(
                            box=max_bidegree,
                            checked_pairs=checked + len(buckets),
                            pair=(w1, w2), multiples=tuple(ts[:2]))
            checked += len(words)
    return SurveyVerdict(box=max_bidegree, checked_pairs=checked)
