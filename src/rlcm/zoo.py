"""The concrete semigroup families: free monoids, additive monoids, the
fraction semigroup U of arithmetic progressions, the affine semigroups
over N and Z, and the positive Baumslag-Solitar monoids BS(c,d)+.

All mod operations on negative integers are Euclidean (Python's `%` with
a positive modulus), so representatives always land in [0, x).
"""

from __future__ import annotations

import math
import re

from .core import DISJOINT, Lcm, Semigroup


class ParseError(ValueError):
    def __init__(self, message, position=0):
        self.position = position
        super().__init__(f"{message} (at position {position})")


EPSILON = "ε"


# ---------------------------------------------------------------------------
# Free monoid on k digit letters.

def free_monoid(k):
    """Words over {0, ..., k-1} under concatenation (k <= 10)."""
    if not 1 <= k <= 10:
        raise ValueError("alphabet size must be between 1 and 10")
    letters = "".join(str(i) for i in range(k))

    def left_divide(p, r):
        return r[len(p):] if r.startswith(p) else None

    def right_lcm(p, q):
        # Two words have a common multiple iff one is a prefix of the other.
        if p.startswith(q):
            return Lcm(p, "", p[len(q):])
        if q.startswith(p):
            return Lcm(q, q[len(p):], "")
        return DISJOINT

    def parse(text):
        if text == EPSILON or text == "":
            return ""
        for i, ch in enumerate(text):
            if ch not in letters:
                raise ParseError(f"expected a digit in [0,{k})", i)
        return text

    return Semigroup(
        name=f"free:{k}",
        identity="",
        multiply=lambda p, q: p + q,
        generators=tuple(letters),
        display=lambda w: w if w else EPSILON,
        is_unit=lambda w: w == "",
        left_divide=left_divide,
        right_lcm=right_lcm,
        parse=parse,
    )


# ---------------------------------------------------------------------------
# (N, +) and (Z, +), and the unit group Z x {1,-1} of Z x| Zx.

def _parse_int(text):
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"expected an integer, got {text!r}") from None


def nat_add():
    """(N, +); principal ideals are totally ordered, LCM is max."""
    return Semigroup(
        name="nat",
        identity=0,
        multiply=lambda p, q: p + q,
        generators=(1,),
        display=str,
        is_unit=lambda p: p == 0,
        left_divide=lambda p, r: r - p if r >= p else None,
        right_lcm=lambda p, q: Lcm(max(p, q), max(p, q) - p, max(p, q) - q),
        parse=lambda t: _parse_int_nonneg(t),
    )


def _parse_int_nonneg(text):
    n = _parse_int(text)
    if n < 0:
        raise ParseError("expected a non-negative integer")
    return n


def int_add():
    """(Z, +): a group, so every element is a unit."""
    return Semigroup(
        name="zadd",
        identity=0,
        multiply=lambda p, q: p + q,
        generators=(1, -1),
        display=str,
        is_unit=lambda p: True,
        left_divide=lambda p, r: r - p,
        right_lcm=lambda p, q: Lcm(p, 0, p - q),
        parse=_parse_int,
    )


def zsign_group():
    """The group Z x {1,-1} with (m,j)(n,k) = (m+jn, jk)."""

    def multiply(p, q):
        (m, j), (n, k) = p, q
        return (m + j * n, j * k)

    def left_divide(p, r):
        (m, j), (n, k) = p, r
        return (j * (n - m), j * k)

    return Semigroup(
        name="zsign",
        identity=(0, 1),
        multiply=multiply,
        generators=((1, 1), (0, -1)),
        display=lambda p: f"({p[0]},{p[1]})",
        is_unit=lambda p: True,
        left_divide=left_divide,
        right_lcm=lambda p, q: Lcm(p, (0, 1), left_divide(q, p)),
        parse=lambda t: _parse_pair(t, signs=True),
    )


def _parse_pair(text, signs=False):
    m = re.fullmatch(r"\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)", text.strip())
    if not m:
        raise ParseError(f"expected '(m,a)', got {text!r}")
    a, b = int(m.group(1)), int(m.group(2))
    if signs and b not in (1, -1):
        raise ParseError("second component must be 1 or -1")
    return (a, b)


# ---------------------------------------------------------------------------
# The fraction semigroup U = {(r,x) : x >= 1, 0 <= r < x}, a subsemigroup
# of the affine semigroups below.  (r,x) stands for the progression r+xN.

def frac_multiply(p, q):
    """Composition of affine maps n -> r + x*n; also the product of the
    affine monoids over N and Z below."""
    (r, x), (s, y) = p, q
    return (r + x * s, x * y)


def frac_left_divide(p, r):
    (a, x), (t, z) = p, r
    if z % x or (t - a) % x or t < a:
        return None
    return ((t - a) // x, z // x)


def frac_right_lcm(p, q):
    """Closed-form right LCM in U.

    The progressions r+xN and s+yN intersect iff g = gcd(x,y) divides
    s-r; the LCM is then (l, lcm(x,y)) with l the least element of the
    intersection, l = r + x*j for the j in [0, y/g) given by the Chinese
    remainder theorem.
    """
    (r, x), (s, y) = p, q
    g = math.gcd(x, y)
    if (s - r) % g:
        return DISJOINT
    big = x * y // g
    xp, yp = big // x, big // y
    j = ((s - r) // g * pow(x // g, -1, xp)) % xp
    l = r + x * j
    k = (l - s) // y
    # The least-element argument forces the complements back into U.
    if not 0 <= k < yp:
        raise ArithmeticError(f"complements of {p} and {q} leave U")
    return Lcm((l, big), (j, xp), (k, yp))


def frac_semigroup(primes=(2, 3)):
    """U with a finite generator list {(r,p) : p in primes, 0 <= r < p}.

    The generator list only bounds ball enumeration; multiplication,
    division and LCM are defined on all of U.
    """
    gens = tuple((r, p) for p in primes for r in range(p))

    def parse(text):
        r, x = _parse_pair(text)
        if x < 1 or not 0 <= r < x:
            raise ParseError("need x >= 1 and 0 <= r < x")
        return (r, x)

    return Semigroup(
        name="frac",
        identity=(0, 1),
        multiply=frac_multiply,
        generators=gens,
        display=lambda p: f"({p[0]},{p[1]})",
        is_unit=lambda p: p == (0, 1),
        left_divide=frac_left_divide,
        right_lcm=frac_right_lcm,
        parse=parse,
    )


# ---------------------------------------------------------------------------
# N x| Nx and Z x| Zx.

def nxn_decompose(p):
    """Unique factorization (m,a) = (m mod a, a) * (k, 1) with the first
    factor in U and the second in A = {(k,1)}."""
    m, a = p
    r = m % a
    return ((r, a), ((m - r) // a, 1))


def nxn_semigroup(right_lcm=None):
    def parse(text):
        m, a = _parse_pair(text)
        if m < 0 or a < 1:
            raise ParseError("need m >= 0 and a >= 1")
        return (m, a)

    return Semigroup(
        name="nxn",
        identity=(0, 1),
        multiply=frac_multiply,
        generators=((1, 1), (0, 2), (0, 3)),
        display=lambda p: f"({p[0]},{p[1]})",
        is_unit=lambda p: p == (0, 1),
        left_divide=frac_left_divide,
        right_lcm=right_lcm,
        parse=parse,
    )


def zxz_decompose(p):
    """(m,a) = (m mod |a|, |a|) * (k, sign a) with the first factor in U
    and the second in A = Z x {1,-1}."""
    m, a = p
    x = abs(a)
    r = m % x
    return ((r, x), ((m - r) // x, a // x))


def zxz_semigroup(right_lcm=None):
    def left_divide(p, r):
        (m, a), (n, b) = p, r
        if b % a or (n - m) % a:
            return None
        return ((n - m) // a, b // a)

    def parse(text):
        m, a = _parse_pair(text)
        if a == 0:
            raise ParseError("multiplier must be nonzero")
        return (m, a)

    return Semigroup(
        name="zxz",
        identity=(0, 1),
        multiply=frac_multiply,
        generators=((1, 1), (0, -1), (0, 2), (0, 3)),
        display=lambda p: f"({p[0]},{p[1]})",
        is_unit=lambda p: p[1] in (1, -1),
        left_divide=left_divide,
        right_lcm=right_lcm,
        parse=parse,
    )


# ---------------------------------------------------------------------------
# BS(c,d)+: canonical form b^a1 a b^a2 a ... b^an a b^beta with each
# exponent before an `a` in [0, d-1].  Elements are (alphas, beta) pairs.

def bs_to_word(p):
    alphas, beta = p
    return "".join("b" * k + "a" for k in alphas) + "b" * beta


def bs_from_word(word, d):
    """Parse an {a,b}-letter string already in normal form."""
    alphas = []
    count = 0
    for i, ch in enumerate(word):
        if ch == "b":
            count += 1
        else:
            if count >= d:
                raise ParseError("word is not in normal form", i)
            alphas.append(count)
            count = 0
    return (tuple(alphas), count)


def bs_normalize(word, c, d, strategy="leftmost", rng=None):
    """Rewrite b^d a -> a b^c until no redex remains.

    Each application strictly decreases the total number of b's lying to
    the left of the rightmost `a` when c < d, and more generally the
    multiset of b-block heights left of each `a` under the well-founded
    order induced by the rewrite, so the loop terminates.  `strategy`
    is "leftmost" (the canonical leftmost-innermost choice) or "random"
    (used by the confluence tests; requires `rng`).
    """
    redex = "b" * d + "a"
    contractum = "a" + "b" * c
    while True:
        if strategy == "leftmost":
            i = word.find(redex)
            if i < 0:
                return word
        else:
            spots = [m.start() for m in re.finditer(f"(?={redex})", word)]
            if not spots:
                return word
            i = rng.choice(spots)
        word = word[:i] + contractum + word[i + len(redex):]


def bs_multiply(p, q, c, d):
    return bs_from_word(bs_normalize(bs_to_word(p) + bs_to_word(q), c, d), d)


def _bs_divide_letter(letter, r, c, d):
    """q with letter * q == r, or None.  `letter` is 'a' or 'b'."""
    alphas, beta = r
    if letter == "a":
        if alphas and alphas[0] == 0:
            return (alphas[1:], beta)
        return None
    # letter == 'b'
    if not alphas:
        return ((), beta - 1) if beta >= 1 else None
    if alphas[0] >= 1:
        return ((alphas[0] - 1,) + alphas[1:], beta)
    # r starts with `a`: b*q == r forces q = b^(d-1) a t with b^c t = tail.
    t = (alphas[1:], beta)
    for _ in range(c):
        t = _bs_divide_letter("b", t, c, d)
        if t is None:
            return None
    return ((d - 1,) + t[0], t[1])


def bs_left_divide(p, r, c, d):
    for ch in bs_to_word(p):
        r = _bs_divide_letter(ch, r, c, d)
        if r is None:
            return None
    return r


def bs_display(p):
    word = bs_to_word(p)
    if not word:
        return EPSILON
    parts = []
    for ch, run in _runs(word):
        parts.append(ch if run == 1 else f"{ch}^{run}")
    return "*".join(parts)


def _runs(word):
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        yield word[i], j - i
        i = j


def bs_parse(text, c, d):
    text = text.strip()
    if text == EPSILON or text == "e":
        return ((), 0)
    word = []
    for pos, factor in enumerate(text.split("*")):
        m = re.fullmatch(r"\s*([ab])(?:\^(\d+))?\s*", factor)
        if not m:
            raise ParseError(f"bad factor {factor!r}", pos)
        word.append(m.group(1) * int(m.group(2) or 1))
    return bs_from_word(bs_normalize("".join(word), c, d), d)


def bs_semigroup(c, d, right_lcm=None):
    """BS(c,d)+ on its canonical normal forms.

    The generator list {a, b} matches the group presentation; the ball
    metric therefore counts a/b letters of a shortest spelling.
    """
    if c < 1 or d < 1:
        raise ValueError("c and d must be positive")
    return Semigroup(
        name=f"bs:{c},{d}",
        identity=((), 0),
        multiply=lambda p, q: bs_multiply(p, q, c, d),
        generators=(((0,), 0), ((), 1)),  # a, b
        display=bs_display,
        is_unit=lambda p: p == ((), 0),
        left_divide=lambda p, r: bs_left_divide(p, r, c, d),
        right_lcm=right_lcm,
        parse=lambda t: bs_parse(t, c, d),
    )
