"""Monoid contract, ball enumeration and the brute-force right-LCM oracle.

Every concrete semigroup in this package is described by a `Semigroup`
bundle of pure functions over canonical element values.  Elements are
plain hashable Python values (strings, tuples, ints); two values denote
the same element iff they are equal, so equality is structural.

The brute-force machinery here is the independent oracle against which
closed-form right-LCM implementations elsewhere are tested.  It only ever
reasons about a finite ball of elements and refuses to certify anything
that depends on elements it cannot see (`BallTooSmall`).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Optional

from .report import Report


class BallTooSmall(Exception):
    """A common multiple sits too close to the ball boundary to certify
    minimality; the caller should retry with a larger ball."""


class BallTooLarge(ValueError):
    """A ball passed the limit on its size that the caller set; raised
    while it is built, before it grows further."""

    def __init__(self, S, radius, limit):
        super().__init__(f"the radius-{radius} ball of {S.name} has more "
                         f"than the cap of {limit} elements")
        self.limit = limit


class IncomparableMultiples(Exception):
    """The searched ball contains common right multiples of a pair with no
    common divisor among them: in-ball evidence against the right-LCM
    property.  Carries up to two incomparable witnesses."""

    def __init__(self, p, q, witnesses):
        self.p, self.q, self.witnesses = p, q, list(witnesses)
        super().__init__(f"incomparable common multiples of {p!r} and {q!r}")


@dataclass(frozen=True, slots=True)
class Lcm:
    """A right LCM `lcm` with complements: p * p_comp == q * q_comp == lcm."""

    lcm: Any
    p_comp: Any
    q_comp: Any


class _Disjoint:
    __slots__ = ()

    def __repr__(self):
        return "DISJOINT"


#: Returned when two elements have no common right multiple at all.
DISJOINT = _Disjoint()


@dataclass(frozen=True)
class Semigroup:
    """Value-level contract for one concrete monoid.

    `left_divide(p, r)` returns the unique q with p*q == r, or None.
    `right_lcm(p, q)` is the exact right LCM: DISJOINT, an Lcm, or
    IncomparableMultiples when p and q have two minimal common multiples.
    Right LCMs are only canonical up to right multiplication by a unit,
    so comparisons between two LCM computations must go through
    `lcm_equal_up_to_units`.
    """

    name: str
    identity: Any
    multiply: Callable[[Any, Any], Any]
    generators: tuple
    display: Callable[[Any], str]
    is_unit: Callable[[Any], bool]
    left_divide: Callable[[Any, Any], Optional[Any]]
    right_lcm: Callable[[Any, Any], Any]
    parse: Callable[[str], Any]


class Ball:
    """Finite ball of elements with their minimal generator word lengths.

    The metric is word length over the descriptor's declared generator
    list (the paper has no metric; this is an artifact choice, documented
    per semigroup).  `elements` preserves the deterministic enumeration
    order, and `index` maps each element to its position there.  A ball
    may also be built from an explicit element set with an ad-hoc length
    function (see `ball_from_elements`), in which case the caller takes
    responsibility for its completeness.
    """

    def __init__(self, radius, lengths):
        self.radius = radius
        self.lengths = lengths
        self.elements = tuple(lengths)
        # The dict's own lookup: the oracle reads a length per multiple.
        self.length = lengths.__getitem__

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    @functools.cached_property
    def index(self):
        return {x: i for i, x in enumerate(self.elements)}


def enumerate_ball(S, radius, limit=None):
    """All products of at most `radius` generators, deduplicated by
    canonical equality, in deterministic (BFS, display-sorted) order.
    With a `limit`, a ball of more elements raises `BallTooLarge` as soon
    as it passes the limit."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    lengths = {S.identity: 0}
    frontier = [S.identity]
    for k in range(1, radius + 1):
        new = []
        for x in frontier:
            for g in S.generators:
                y = S.multiply(x, g)
                if y not in lengths:
                    lengths[y] = k
                    new.append(y)
            if limit is not None and len(lengths) > limit:
                raise BallTooLarge(S, radius, limit)
        frontier = sorted(new, key=S.display)
    return Ball(radius, lengths)


def ball_from_elements(elements, length):
    """Ball over an explicit element set; `length` maps element -> int.

    The ball is treated as exhaustive for the caller's purpose: its
    radius sits two above the longest length, which disables the
    boundary check of `BruteForcer`.
    """
    lengths = {x: length(x) for x in elements}
    return Ball(max(lengths.values(), default=0) + 2, lengths)


class BruteForcer:
    """Brute-force right-LCM search over a fixed ball, with caching.

    Caches, per left factor p, the set of in-ball right multiples of p;
    repeated queries against the same ball then reduce to cheap set
    intersections.

    With `complements` set to a second ball T, the search space for each
    pair becomes p*T ∩ q*T (all common multiples whose complements lie
    in T) instead of the multiples inside `ball`.  This reaches the
    least common multiple of long p, q without enumerating a huge
    product ball; lengths and the boundary margin are then measured on
    the complements.  Each product p*t is interned once per oracle as a
    small int id, and each map p*T is kept as two numpy arrays: the
    sorted ids and the minimal length of t for each; a pair's common
    multiples are the intersection of two id arrays.

    Complement mode also keeps a divisibility memo: for each candidate
    LCM m, by id, the sorted ids of the multiples that m has been seen
    to left-divide.  A certificate divides m only into the common
    multiples not yet recorded under m, and records them once every one
    of its divisions has succeeded.  The memo holds only divisions that
    were made; it never infers m | c from t_m | t_c or by transitivity,
    which would assume the cancellativity and associativity that the
    oracle exists to check.  Ball mode keeps no memo: its common sets
    are small, and array work per pair would cost more than it saves.

    In both modes one pair cache holds each searched outcome for (p, q)
    together with its restatement for (q, p), so a pair asked in both
    orders is searched once.  It never holds a comparable pair, which
    complement mode answers without a search: with units, p and q may
    each divide the other, and the answer for (q, p) names p, not q.
    Nor does it hold a ball-mode `BallTooSmall`, whose text can name p
    and q in the order asked.
    """

    def __init__(self, S, ball, complements=None):
        self.S = S
        self.ball = ball
        self.complements = complements
        self._multiples = {}
        self._mult_maps = {}
        self._pair_cache = {}
        self._divides = {}  # candidate id -> sorted ids it left-divides
        self._ids = {}      # interned product -> id
        self._elems = []    # id -> interned product
        if complements is not None:
            # Imported here, not at the top: every CLI request imports
            # this module, and none of them needs numpy.
            import numpy as np
            self._t_lengths = np.array([complements.length(t)
                                        for t in complements], dtype=np.intp)

    def multiples_in_ball(self, p):
        cached = self._multiples.get(p)
        if cached is None:
            div = self.S.left_divide
            cached = frozenset(m for m in self.ball if div(p, m) is not None)
            self._multiples[p] = cached
        return cached

    def _mult_map(self, p):
        """The multiples p*t over the complement ball, as (sorted ids of
        p*T, minimal length of such t for each id)."""
        cached = self._mult_maps.get(p)
        if cached is None:
            import numpy as np
            mul, ids, elems = self.S.multiply, self._ids, self._elems
            row = []
            for t in self.complements:
                m = mul(p, t)
                i = ids.get(m)
                if i is None:
                    i = ids[m] = len(elems)
                    elems.append(m)
                row.append(i)
            # The ball is enumerated by increasing length, so the first
            # t giving each product is a shortest one.
            uniq, first = np.unique(np.array(row, dtype=np.intp),
                                    return_index=True)
            cached = (uniq, self._t_lengths[first])
            self._mult_maps[p] = cached
        return cached

    def _search_complements(self, p, q):
        import numpy as np
        (ip, lp), (iq, lq) = self._mult_map(p), self._mult_map(q)
        # Either map may hold ids that the other lacks, beyond its last.
        at = np.minimum(np.searchsorted(iq, ip), len(iq) - 1)
        hit = iq[at] == ip
        if not hit.any():
            return DISJOINT
        ids = ip[hit]
        lengths = np.maximum(lp[hit], lq[at[hit]])
        shortest = int(lengths.min())
        elems, display = self._elems, self.S.display
        im = min(ids[lengths == shortest].tolist(),
                 key=lambda i: display(elems[i]))
        known = self._divides.get(im)
        fresh = ids
        if known is not None:
            at = np.minimum(np.searchsorted(known, ids), len(known) - 1)
            fresh = ids[known[at] != ids]

        def proved():
            if known is None:
                self._divides[im] = fresh
            elif len(fresh):
                merged = np.concatenate((known, fresh))
                merged.sort()
                self._divides[im] = merged

        return self._certify(
            p, q, elems[im], shortest, map(elems.__getitem__, fresh.tolist()),
            lambda: dict(zip(map(elems.__getitem__, ids.tolist()),
                             lengths.tolist())),
            self.complements.radius, proved)

    def _certify(self, p, q, m, shortest, todo, common, radius,
                 proved=None):
        """The right LCM of p and q from their searched common multiples.

        The candidate `m` is the display-least common multiple of the
        `shortest` length, and is the LCM in practice: it is one if it
        left-divides every multiple in `todo`, those it is not yet known
        to divide, and then `proved()` is told so.  Only when it fails
        is `common()`, every common multiple with its length, built and
        its minimal multiples found (`_minimal`).  A certified LCM must
        stay clear of the `radius` boundary.
        """
        S = self.S
        # `is None`, not truthiness: identity quotients (0, "", ((), ()))
        # are falsy.
        if None in map(functools.partial(S.left_divide, m), todo):
            common = common()
            length = common.__getitem__
            minimal = self._minimal(common, length)
            m = minimal[0]
            if len(minimal) > 1:
                if any(length(k) >= radius - 1 for k in minimal):
                    raise BallTooSmall(
                        f"{S.name}: incomparable candidates near the "
                        f"radius-{radius} boundary for {S.display(p)}, "
                        f"{S.display(q)}")
                raise IncomparableMultiples(p, q, minimal[:2])
            shortest = length(m)
        elif proved is not None:
            proved()
        if shortest >= radius - 1:
            raise BallTooSmall(
                f"{S.name}: minimal common multiple {S.display(m)} "
                f"lies at the radius-{radius} boundary")
        return Lcm(m, S.left_divide(p, m), S.left_divide(q, m))

    def _minimal(self, common, length):
        """The minimal multiples in `common`, shortest first; only the
        first of them when it left-divides all of `common`.

        One pass, shortest first, keeps the first multiple of each unit
        class that is minimal so far; a later unit translate finds it
        below and is passed over.  Every multiple not kept records one
        found below it, so the unit translates of the minimal ones, which
        only a pair without an LCM reports, cost one division each at
        the end.
        """
        S = self.S
        div = S.left_divide
        order = sorted(common, key=lambda t: (length(t), S.display(t)))
        kept, under = [], {}
        for t in order:
            below = next((k for k in kept if div(k, t) is not None), None)
            if below is not None:
                under[t] = below
                continue
            for k in kept:  # t replaces those above it
                if div(t, k) is not None:
                    under[k] = t
            kept = [k for k in kept if k not in under] + [t]
        if len(kept) == 1:
            return kept

        def root(t):
            while t in under:
                t = under[t]
            return t

        return [t for t in order
                if t not in under or div(t, root(t)) is not None]

    def right_lcm(self, p, q):
        """The oracle's right LCM of p and q; see the class docstring."""
        result = self._pair_cache.get((p, q))
        if result is None:
            if self.complements is None:
                search = self._search_ball
            else:
                # Comparable pairs need no search: if q == p*d then q is the
                # right LCM of p and q (every common multiple is one of q).
                S = self.S
                d = S.left_divide(p, q)
                if d is not None:
                    return Lcm(q, d, S.identity)
                d = S.left_divide(q, p)
                if d is not None:
                    return Lcm(p, S.identity, d)
                search = self._search_complements
            try:
                result = search(p, q)
            except IncomparableMultiples as e:
                result = e
            except BallTooSmall as e:
                if self.complements is None:
                    raise  # its text names p and q in the order asked
                result = e
            self._pair_cache[(p, q)] = result
            self._pair_cache[(q, p)] = _reversed(result)
        if isinstance(result, Exception):
            # A fresh traceback each time: the cached one would hold the
            # search's frames and grow with every re-raise.
            raise result.with_traceback(None)
        return result

    def _search_ball(self, p, q):
        common = self.multiples_in_ball(p) & self.multiples_in_ball(q)
        if not common:
            return DISJOINT
        length = self.ball.length
        shortest = min(map(length, common))
        m = min([t for t in common if length(t) == shortest],
                key=self.S.display)
        return self._certify(p, q, m, shortest, common,
                             lambda: {t: length(t) for t in common},
                             self.ball.radius)


def _reversed(result):
    """The outcome of a search for (p, q), restated for (q, p)."""
    if isinstance(result, Lcm):
        return Lcm(result.lcm, result.q_comp, result.p_comp)
    if isinstance(result, IncomparableMultiples):
        return IncomparableMultiples(result.q, result.p, result.witnesses)
    return result


def lcm_equal_up_to_units(S, r, s):
    """True iff r and s generate the same principal right ideal, i.e.
    differ by right multiplication by a unit (in both directions)."""
    u = S.left_divide(r, s)
    v = S.left_divide(s, r)
    return u is not None and v is not None and S.is_unit(u) and S.is_unit(v)


def lcm_agrees(S, oracle, p, q):
    """Whether the closed form `S.right_lcm` of p and q agrees with the
    brute-force `oracle`, or None when the oracle cannot certify the pair
    (BallTooSmall).  They agree when both find no common multiple, both
    raise IncomparableMultiples, or both find LCMs equal up to units; a
    closed-form LCM must also multiply back from its complements."""
    try:
        want = oracle.right_lcm(p, q)
    except BallTooSmall:
        return None
    except IncomparableMultiples:
        want = IncomparableMultiples
    try:
        got = S.right_lcm(p, q)
    except IncomparableMultiples:
        got = IncomparableMultiples
    if not isinstance(got, Lcm):
        return got is want
    return (isinstance(want, Lcm)
            and lcm_equal_up_to_units(S, got.lcm, want.lcm)
            and S.multiply(p, got.p_comp) == got.lcm
            and S.multiply(q, got.q_comp) == got.lcm)


def check_cancellativity_and_lcm(S, ball, lcm_complements=None):
    """Exhaustive in-ball audit of the descriptor's monoid laws.

    Checks the two-sided identity, associativity and left cancellativity
    on every in-ball pair/triple, and the descriptor's right_lcm against
    the brute-force oracle (`lcm_agrees`) on every in-ball pair whose
    brute search can be certified (BallTooSmall pairs are reported as
    skipped, never as passes).
    """
    report = Report()
    elems = ball.elements
    disp = S.display

    bad = [f"{disp(p)}" for p in elems
           if S.multiply(S.identity, p) != p or S.multiply(p, S.identity) != p]
    report.add("identity", len(elems), bad)

    canc = []
    assoc = []
    for p in elems:
        row = {}
        for q in elems:
            pq = S.multiply(p, q)
            prev = row.get(pq)
            if prev is not None and prev != q:
                canc.append(f"{disp(p)}*{disp(prev)}=={disp(p)}*{disp(q)}")
            row[pq] = q
        for q in elems:
            pq = S.multiply(p, q)
            for r in elems:
                if S.multiply(pq, r) != S.multiply(p, S.multiply(q, r)):
                    assoc.append(f"({disp(p)},{disp(q)},{disp(r)})")
    n = len(elems)
    report.add("left-cancellativity", n * n, canc)
    report.add("associativity", n * n * n, assoc)

    brute = BruteForcer(S, ball, complements=lcm_complements)
    mismatches = []
    skipped = 0
    for p, q in itertools.product(elems, repeat=2):
        agrees = lcm_agrees(S, brute, p, q)
        skipped += agrees is None
        if agrees is False:
            mismatches.append(f"({disp(p)},{disp(q)})")
    report.add("lcm-vs-brute", n * n - skipped, mismatches, escaped=skipped)
    return report
