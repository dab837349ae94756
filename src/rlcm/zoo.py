"""The concrete semigroup families: free monoids, additive monoids and
the fraction semigroup U of arithmetic progressions, plus the element
arithmetic of the affine monoids over N and Z and the display and
grammar of the positive Baumslag-Solitar monoids BS(c,d)+, whose
semigroups `catalog` builds (BS(c,d)+ computes through its product
form there).

All mod operations on negative integers are Euclidean (Python's `%` with
a positive modulus), so representatives always land in [0, x).
"""

from __future__ import annotations

import math
import operator
import re
import sys

from .core import DISJOINT, Lcm, Semigroup


class ParseError(ValueError):
    def __init__(self, message, position=0):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class DigitLimit(ValueError):
    """An integer with more decimal digits than Python converts between
    int and str (`sys.get_int_max_str_digits()`); a parse quotes the
    start of its text."""

    def __init__(self, digits, text=None):
        quoted = "" if text is None else f": {text[:20] + '…'!r}"
        super().__init__(
            f"integer of {digits} digits is past the limit of "
            f"{sys.get_int_max_str_digits()} digits "
            f"(sys.get_int_max_str_digits()){quoted}")


_INTEGER_RE = re.compile(r"\s*[+-]?\d+\s*")


def read_int(text):
    """int(text); an integer literal that Python refuses for its length
    raises DigitLimit."""
    try:
        return int(text)
    except ValueError:
        if _INTEGER_RE.fullmatch(text):
            raise DigitLimit(sum(map(str.isdecimal, text)), text) from None
        raise


def digit_count(n):
    """The number of decimal digits of the integer n, found without
    writing it out."""
    n = abs(n)
    d = max(1, int((n.bit_length() - 1) * 0.30102999566398))
    while n >= 10 ** d:
        d += 1
    return d


def int_display(n):
    """str(n); an integer too long for Python to write raises
    DigitLimit."""
    try:
        return str(n)
    except ValueError:
        raise DigitLimit(digit_count(n)) from None


def pair_display(p):
    """A pair of integers as "(m,a)"; see `int_display`."""
    try:
        return f"({p[0]},{p[1]})"
    except ValueError:
        raise DigitLimit(max(map(digit_count, p))) from None


EPSILON = "ε"


# ---------------------------------------------------------------------------
# Free monoid on k digit letters.

#: The digit letters of every word alphabet: letter i is LETTERS[i].
LETTERS = "0123456789abcdefghijklmnopqrstuvwxyz"


def free_monoid(k):
    """Words over the first k of LETTERS under concatenation (k <= 36)."""
    if not 1 <= k <= len(LETTERS):
        raise ValueError(f"alphabet size must be between 1 and {len(LETTERS)}")
    letters = LETTERS[:k]

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
                raise ParseError(f"expected a letter in {letters}", i)
        return text

    return Semigroup(
        name=f"free:{k}",
        identity="",
        multiply=operator.add,
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
        return read_int(text)
    except DigitLimit:
        raise
    except ValueError:
        raise ParseError(f"expected an integer, got {text!r}") from None


def nat_add():
    """(N, +); principal ideals are totally ordered, LCM is max."""
    return Semigroup(
        name="nat",
        identity=0,
        multiply=operator.add,
        generators=(1,),
        display=int_display,
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
        multiply=operator.add,
        generators=(1, -1),
        display=int_display,
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
        display=pair_display,
        is_unit=lambda p: True,
        left_divide=left_divide,
        right_lcm=lambda p, q: Lcm(p, (0, 1), left_divide(q, p)),
        parse=lambda t: parse_pair(t, signs=True),
    )


def parse_pair(text, signs=False):
    m = re.fullmatch(r"\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)", text.strip())
    if not m:
        raise ParseError(f"expected '(m,a)', got {text!r}")
    a, b = read_int(m.group(1)), read_int(m.group(2))
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


def congruence(a, b, m):
    """The solutions t of a*t == b (mod m), for m >= 1, as (t0, period):
    every t == t0 (mod period), with 0 <= t0 < period = m / gcd(a, m).
    None when there is none, i.e. when gcd(a, m) does not divide b."""
    g = math.gcd(a, m)
    if b % g:
        return None
    period = m // g
    return b // g * pow(a // g, -1, period) % period, period


def frac_right_lcm(p, q):
    """Closed-form right LCM in U.

    The progressions r+xN and s+yN intersect iff x*j == s-r (mod y) has
    a solution; the LCM is then (l, lcm(x,y)) with l = r + x*j the least
    element of the intersection, for the least solution j in [0, y/g),
    g = gcd(x,y).
    """
    (r, x), (s, y) = p, q
    solved = congruence(x, s - r, y)
    if solved is None:
        return DISJOINT
    j, xp = solved
    big = x * xp
    yp = big // y
    l = r + x * j
    k = (l - s) // y
    # The least-element argument forces the complements back into U.
    if not 0 <= k < yp:
        raise ArithmeticError(f"complements of {p} and {q} leave U")
    return Lcm((l, big), (j, xp), (k, yp))


def frac_semigroup():
    """U with the finite generator list {(r,p) : p in (2, 3), 0 <= r < p}.

    The generator list only bounds ball enumeration; multiplication,
    division and LCM are defined on all of U.
    """
    gens = tuple((r, p) for p in (2, 3) for r in range(p))

    def parse(text):
        r, x = parse_pair(text)
        if x < 1 or not 0 <= r < x:
            raise ParseError("need x >= 1 and 0 <= r < x")
        return (r, x)

    return Semigroup(
        name="frac",
        identity=(0, 1),
        multiply=frac_multiply,
        generators=gens,
        display=pair_display,
        is_unit=lambda p: p == (0, 1),
        left_divide=frac_left_divide,
        right_lcm=frac_right_lcm,
        parse=parse,
    )


# ---------------------------------------------------------------------------
# The affine monoids over N and Z, (m,a): n -> m + a*n, share the product
# `frac_multiply`; catalog builds them around the split below.

def zxz_decompose(p):
    """(m,a) = (m mod |a|, |a|) * (k, sign a) with the first factor in U
    and the second in A = Z x {1,-1}; on a >= 1 the split of N x| Nx."""
    m, a = p
    x = abs(a)
    r = m % x
    return ((r, x), ((m - r) // x, a // x))


# ---------------------------------------------------------------------------
# BS(c,d)+: canonical form b^a1 a b^a2 a ... b^an a b^beta with each
# exponent before an `a` in [0, d-1].  Elements are (alphas, beta) pairs;
# catalog computes with them through their product form.

def bs_display(p):
    """The normal form with each run of a letter as one power."""
    alphas, beta = p
    runs = []  # [letter, length]; an `a` after b^0 extends the last a-run
    for k in alphas:
        if k or not runs:
            runs += [["b", k], ["a", 0]]
        runs[-1][1] += 1
    runs.append(["b", beta])
    try:
        return "*".join(x if n == 1 else f"{x}^{n}"
                        for x, n in runs if n) or EPSILON
    except ValueError:
        raise DigitLimit(max(digit_count(n) for _, n in runs)) from None


#: The most letters a that one BS(c,d)+ element may spell.  Each a is
#: stored as a letter, and a walk through the word can grow an exponent
#: by c/d per letter, so a longer word is refused before it is built.
BS_MAX_LETTERS = 10_000


def bs_factors(text):
    """The factors of a `*`-separated product of powers a^k and b^k, each
    as one element: a^k is ((0,) * k, 0) and b^k is ((), k).  More than
    BS_MAX_LETTERS letters a in all are refused."""
    text = text.strip()
    if text == EPSILON or text == "e":
        return []
    out = []
    letters = 0
    for pos, factor in enumerate(text.split("*")):
        m = re.fullmatch(r"\s*([ab])(?:\^(\d+))?\s*", factor)
        if not m:
            raise ParseError(f"bad factor {factor!r}", pos)
        k = read_int(m.group(2) or "1")
        if m.group(1) == "b":
            out.append(((), k))
            continue
        letters += k
        if letters > BS_MAX_LETTERS:
            raise ParseError(f"more than {BS_MAX_LETTERS} letters a in one "
                             f"element, the cap", pos)
        out.append(((0,) * k, 0))
    return out
