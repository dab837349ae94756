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

from dataclasses import dataclass
from typing import Any, Callable, Optional

from .report import Report


class BallTooSmall(Exception):
    """A common multiple sits too close to the ball boundary to certify
    minimality; the caller should retry with a larger ball."""


class IncomparableMultiples(Exception):
    """The searched ball contains common right multiples of a pair with no
    common divisor among them: in-ball evidence against the right-LCM
    property.  Carries up to two incomparable witnesses."""

    def __init__(self, p, q, witnesses):
        self.p, self.q, self.witnesses = p, q, list(witnesses)
        super().__init__(f"incomparable common multiples of {p!r} and {q!r}")


@dataclass(frozen=True)
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
    `right_lcm(p, q)` is the closed form (DISJOINT or Lcm) where one is
    known; semigroups without one leave it None and rely on brute force.
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
    right_lcm: Optional[Callable[[Any, Any], Any]] = None
    parse: Optional[Callable[[str], Any]] = None


class Ball:
    """Finite ball of elements with their minimal generator word lengths.

    The metric is word length over the descriptor's declared generator
    list (the paper has no metric; this is an artifact choice, documented
    per semigroup).  `elements` preserves the deterministic enumeration
    order.  A ball may also be built from an explicit element set with an
    ad-hoc length function (see `ball_from_elements`), in which case the
    caller takes responsibility for its completeness.
    """

    def __init__(self, radius, lengths):
        self.radius = radius
        self.lengths = lengths
        self.elements = tuple(lengths)
        self._set = frozenset(lengths)

    def __contains__(self, x):
        return x in self._set

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def length(self, x):
        return self.lengths[x]


def enumerate_ball(S, radius):
    """All products of at most `radius` generators, deduplicated by
    canonical equality, in deterministic (BFS, display-sorted) order."""
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
        frontier = sorted(new, key=S.display)
    return Ball(radius, lengths)


def ball_from_elements(elements, length, radius=None):
    """Ball over an explicit element set; `length` maps element -> int.

    With radius None the ball is treated as exhaustive for the caller's
    purpose and the boundary check in `brute_right_lcm` is disabled.
    """
    lengths = {x: length(x) for x in elements}
    if radius is None:
        radius = max(lengths.values(), default=0) + 2
    return Ball(radius, lengths)


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
    the complements.
    """

    def __init__(self, S, ball, complements=None):
        self.S = S
        self.ball = ball
        self.complements = complements
        self._multiples = {}
        self._mult_maps = {}
        self._pair_cache = {}

    def multiples_in_ball(self, p):
        cached = self._multiples.get(p)
        if cached is None:
            div = self.S.left_divide
            cached = frozenset(m for m in self.ball if div(p, m) is not None)
            self._multiples[p] = cached
        return cached

    def _mult_map(self, p):
        """Map {p*t: minimal length of such t} over the complement ball."""
        cached = self._mult_maps.get(p)
        if cached is None:
            mul = self.S.multiply
            T = self.complements
            cached = {}
            for t in T:  # enumeration order is by increasing length
                m = mul(p, t)
                if m not in cached:
                    cached[m] = T.length(t)
            self._mult_maps[p] = cached
        return cached

    def _right_lcm_complements(self, p, q):
        S = self.S
        # Comparable pairs need no search: if q == p*d then q itself is the
        # right LCM of p and q (every common multiple is a multiple of q).
        d = S.left_divide(p, q)
        if d is not None:
            return Lcm(q, d, S.identity)
        d = S.left_divide(q, p)
        if d is not None:
            return Lcm(p, S.identity, d)
        cached = self._pair_cache.get((q, p))
        if cached is None:
            try:
                result = self._search_complements(p, q)
            except BallTooSmall as e:
                result = e
            self._pair_cache[(p, q)] = result
        elif isinstance(cached, Lcm):
            result = Lcm(cached.lcm, cached.q_comp, cached.p_comp)
        else:
            result = cached
        if isinstance(result, BallTooSmall):
            # A fresh traceback each time: the cached one would hold the
            # search's frames and grow with every re-raise.
            raise result.with_traceback(None)
        return result

    def _search_complements(self, p, q):
        mp, mq = self._mult_map(p), self._mult_map(q)
        common = {m: max(mp[m], mq[m]) for m in mp.keys() & mq.keys()}
        if not common:
            return DISJOINT
        return self._certify(p, q, common, common.__getitem__,
                             self.complements.radius)

    def _certify(self, p, q, common, length, radius):
        """The right LCM of p and q from their searched common multiples.

        A certified LCM must left-divide every multiple in `common`, and
        its `length` must stay clear of the `radius` boundary.  The
        shortest candidate is checked first and is the LCM in practice;
        only when it fails are the others scanned shortest-first.
        """
        S = self.S
        shortest = min(map(length, common))
        first = min((m for m in common if length(m) == shortest),
                    key=S.display)
        ordered = [first]
        for m in ordered:
            if all(S.left_divide(m, t) is not None for t in common):
                if length(m) >= radius - 1:
                    raise BallTooSmall(
                        f"{S.name}: minimal common multiple {S.display(m)} "
                        f"lies at the radius-{radius} boundary")
                return Lcm(m, S.left_divide(p, m), S.left_divide(q, m))
            if len(ordered) == 1:
                ordered += sorted((t for t in common if t != m),
                                  key=lambda t: (length(t), S.display(t)))
        minimal = [m for m in ordered
                   if not any(t != m
                              and S.left_divide(t, m) is not None
                              and S.left_divide(m, t) is None
                              for t in common)]
        if any(length(m) >= radius - 1 for m in minimal):
            raise BallTooSmall(
                f"{S.name}: incomparable candidates near the radius-{radius} "
                f"boundary for {S.display(p)}, {S.display(q)}")
        raise IncomparableMultiples(p, q, minimal[:2])

    def right_lcm(self, p, q):
        if self.complements is not None:
            return self._right_lcm_complements(p, q)
        common = self.multiples_in_ball(p) & self.multiples_in_ball(q)
        if not common:
            return DISJOINT
        return self._certify(p, q, common, self.ball.length, self.ball.radius)


def brute_right_lcm(S, p, q, ball):
    """One-shot brute-force right LCM of p and q inside `ball`.

    The caller must pick a ball large enough that the true LCM (if any)
    lies strictly inside it; a ball radius of at least twice the
    generator length of p and q is the usual safe choice.
    """
    return BruteForcer(S, ball).right_lcm(p, q)


def lcm_equal_up_to_units(S, r, s):
    """True iff r and s generate the same principal right ideal, i.e.
    differ by right multiplication by a unit (in both directions)."""
    u = S.left_divide(r, s)
    v = S.left_divide(s, r)
    return u is not None and v is not None and S.is_unit(u) and S.is_unit(v)


def check_cancellativity_and_lcm(S, ball, lcm_pairs=None,
                                 lcm_complements=None):
    """Exhaustive in-ball audit of the descriptor's monoid laws.

    Checks the two-sided identity, associativity and left cancellativity
    on every in-ball pair/triple, and (when the descriptor carries a
    closed-form right_lcm) its agreement with the brute-force oracle up
    to units on `lcm_pairs` (default: all pairs whose brute search can be
    certified inside the ball; BallTooSmall pairs are reported as skipped,
    never as passes).
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

    if S.right_lcm is not None:
        brute = BruteForcer(S, ball, complements=lcm_complements)
        pairs = lcm_pairs
        if pairs is None:
            pairs = [(p, q) for p in elems for q in elems]
        mismatches = []
        skipped = 0
        for p, q in pairs:
            try:
                oracle = brute.right_lcm(p, q)
            except BallTooSmall:
                skipped += 1
                continue
            closed = S.right_lcm(p, q)
            if oracle is DISJOINT or closed is DISJOINT:
                if oracle is not closed:
                    mismatches.append(f"({disp(p)},{disp(q)})")
            elif not lcm_equal_up_to_units(S, closed.lcm, oracle.lcm):
                mismatches.append(f"({disp(p)},{disp(q)})")
        report.add("lcm-vs-brute", len(pairs) - skipped, mismatches,
                   escaped=skipped)
    return report
