"""Ready-made semigroups and product descriptors, plus the name registry
used by the command-line front end.

The affine monoids over N and Z and the Baumslag-Solitar monoids are
built here once each, as plain monoids on their own normal forms.  Each
also has an explicit product U ⋈ A of two factors, and one split/join
pair between the two shapes; its closed-form right LCM splits both
arguments, runs the product-level LCM and joins the result.  The affine
monoids multiply and divide by the element arithmetic in `zoo`; BS(c,d)+
does all its arithmetic through its product form, the odometer, and
takes only its display and grammar from `zoo`.
"""

from __future__ import annotations

import functools

from . import zoo
from .core import DISJOINT, Lcm, Semigroup
from .selfsim import (adding_machine, bs_odometer, ftheta_semigroup,
                      odometer_walk, ssa_act_word)
from .zs import (FusedMatching, ZSDescriptor, zs_left_divide,
                 zs_multiply, zs_right_lcm, zs_semigroup)


def fused_zs(name, U, A, matching, comatching):
    """The descriptor of U ⋈ A whose three fields are the views of one
    fused pair, `matching(a, u) == (a·u, a|_u)` and
    `comatching(a, x) == (v, a|_v)` with a·v == x; the product reads the
    pair itself."""
    views = FusedMatching(matching, comatching)
    return ZSDescriptor(
        name=name,
        U=U,
        A=A,
        action=views.action,
        restriction=views.restriction,
        action_inverse=views.action_inverse,
    )


def walked_zs(name, U, A, walk):
    """U ⋈ A matched by one walk, walk(a, u) == (a·u, a|_u), cached for
    the descriptor's lifetime.  Every integer acts on the words however
    small A is, so the walk at -a inverts the action, and since
    a|_v == -((-a)|_x) for v == (-a)·x, it yields the comatching too;
    both read the one cache of walks."""
    walk = functools.cache(walk)

    def comatching(a, x):
        v, r = walk(-a, x)
        return v, -r

    return fused_zs(name, U, A, walk, functools.cache(comatching))


def add_zs(n):
    """X* ⋈ N for the base-n adding machine: the matching of bs:1,n."""
    D = adding_machine(n)
    return walked_zs(f"add:{n}", zoo.free_monoid(n), zoo.nat_add(),
                     lambda a, u: ssa_act_word(D, a, u))


def bs_zs(c, d):
    """The product form of BS(c,d)+: the free monoid on the d letters
    b^k a (written as digits k) matched with the powers of b, where a
    carry past the top letter costs b^c."""
    D = bs_odometer(c, d)
    return walked_zs(f"bs:{c},{d}", zoo.free_monoid(d), zoo.nat_add(),
                     lambda a, u: ssa_act_word(D, a, u))


def nxn_zs():
    """U ⋈ A form of the affine monoid over N: arithmetic progressions
    (r, x) acted on by shifts m via ((m+r) mod x, x), with restriction
    the shift quotient."""

    def matching(m, u):
        r, x = u
        t = m + r
        return (t % x, x), t // x

    def comatching(m, y):
        # v = (r - m) mod x, and m + v == r - x*((r - m) div x)
        r, x = y
        t = r - m
        return (t % x, x), -(t // x)

    return fused_zs("nxn", zoo.frac_semigroup(), zoo.nat_add(), matching,
                    comatching)


def zxz_zs():
    """U ⋈ A form of the affine monoid over Z; A is the group of shifts
    and reflections (m, j) with j in {1, -1}."""

    def matching(a, u):
        (m, j), (r, x) = a, u
        t = m + j * r
        return (t % x, x), (t // x, j)

    def comatching(a, y):
        # (m, j)^-1 is (-j·m, j), so v = j(r - m) mod x, and m + j·v ==
        # r - j·x·(j(r - m) div x)
        (m, j), (r, x) = a, y
        t = j * (r - m)
        return (t % x, x), (-j * (t // x), j)

    return fused_zs("zxz", zoo.frac_semigroup(), zoo.zsign_group(), matching,
                    comatching)


def ftheta_zs(m, n):
    """F ⋈ Z where F is the two-alphabet monoid for the standard table
    and the integer k acts as the base-m odometer on the x-part, its
    carry continuing as the base-n odometer on the y-part."""
    DX, DY = adding_machine(m), adding_machine(n)

    def walk(k, z):
        xs, k = odometer_walk(DX, k, z[0])
        ys, k = odometer_walk(DY, k, z[1])
        return (xs, ys), k

    return walked_zs(f"ftheta:{m},{n}", ftheta_semigroup(m, n),
                     zoo.int_add(), walk)


# ---------------------------------------------------------------------------
# The plain monoids N x| Nx, Z x| Zx and BS(c,d)+ on their own normal forms.
# Each family has one split of its elements into the (U, A) pairs of its
# product form and one join back; its right LCM runs through the product.

def _nxn_split(p):
    u, (k, _one) = zoo.zxz_decompose(p)
    return u, k


def product_form(selector):
    """(D, split, join) for a plain family: its product descriptor, the
    map of an element to its (U, A) pair, and the map back."""
    if selector == "nxn":
        return (nxn_zs(), _nxn_split,
                lambda e: zoo.frac_multiply(e[0], (e[1], 1)))
    if selector == "zxz":
        return zxz_zs(), zoo.zxz_decompose, lambda e: zoo.frac_multiply(*e)
    if selector.startswith("bs:"):
        # alphas (k1, ..., kn) <-> the word of the b^k a letters LETTERS[k]
        return (bs_zs(*ints(selector, selector[3:], "c,d", least=1)),
                lambda p: ("".join(map(zoo.LETTERS.__getitem__, p[0])), p[1]),
                lambda e: (tuple(map(zoo.LETTERS.index, e[0])), e[1]))
    raise ValueError(f"{selector} has no product form")


def _right_lcm(D, split, join):
    def right_lcm(p, q):
        got = zs_right_lcm(D, split(p), split(q))
        if got is DISJOINT:
            return DISJOINT
        return Lcm(join(got.lcm), join(got.p_comp), join(got.q_comp))

    return right_lcm


def nxn_semigroup():
    def parse(text):
        m, a = zoo.parse_pair(text)
        if m < 0 or a < 1:
            raise zoo.ParseError("need m >= 0 and a >= 1")
        return (m, a)

    return Semigroup(
        name="nxn",
        identity=(0, 1),
        multiply=zoo.frac_multiply,
        generators=((1, 1), (0, 2), (0, 3)),
        display=zoo.pair_display,
        is_unit=lambda p: p == (0, 1),
        left_divide=zoo.frac_left_divide,
        right_lcm=_right_lcm(*product_form("nxn")),
        parse=parse,
    )


def zxz_semigroup():
    def left_divide(p, r):
        (m, a), (n, b) = p, r
        if b % a or (n - m) % a:
            return None
        return ((n - m) // a, b // a)

    def parse(text):
        m, a = zoo.parse_pair(text)
        if a == 0:
            raise zoo.ParseError("multiplier must be nonzero")
        return (m, a)

    return Semigroup(
        name="zxz",
        identity=(0, 1),
        multiply=zoo.frac_multiply,
        generators=((1, 1), (0, -1), (0, 2), (0, 3)),
        display=zoo.pair_display,
        is_unit=lambda p: p[1] in (1, -1),
        left_divide=left_divide,
        right_lcm=_right_lcm(*product_form("zxz")),
        parse=parse,
    )


def bs_semigroup(c, d):
    """BS(c,d)+ on its canonical normal forms.

    Every product, quotient and right LCM runs through the one product
    form, and parsing folds the grammar's powers a^k and b^k by that
    product.  The generator list {a, b} matches the group presentation;
    the ball metric therefore counts a/b letters of a shortest spelling.
    """
    D, split, join = product_form(f"bs:{c},{d}")

    def multiply(p, q):
        return join(zs_multiply(D, split(p), split(q)))

    def left_divide(p, r):
        q = zs_left_divide(D, split(p), split(r))
        return None if q is None else join(q)

    return Semigroup(
        name=f"bs:{c},{d}",
        identity=((), 0),
        multiply=multiply,
        generators=(((0,), 0), ((), 1)),  # a, b
        display=zoo.bs_display,
        is_unit=lambda p: p == ((), 0),
        left_divide=left_divide,
        right_lcm=_right_lcm(D, split, join),
        parse=lambda t: functools.reduce(multiply, zoo.bs_factors(t),
                                         ((), 0)),
    )


# ---------------------------------------------------------------------------
# Registries.

#: The product descriptors exercised throughout the test batteries.
EXAMPLE_ZS_NAMES = ("bs:1,2", "bs:2,3", "nxn", "zxz", "add:2", "add:3",
                    "ftheta:2,3")


def get_zs_descriptor(name):
    if name.startswith("bs:"):
        return bs_zs(*ints(name, name[3:], "c,d", least=1))
    if name == "nxn":
        return nxn_zs()
    if name == "zxz":
        return zxz_zs()
    if name.startswith("add:"):
        return add_zs(*ints(name, name[4:], "n", least=1))
    if name.startswith("ftheta:"):
        return ftheta_zs(*ints(name, name[7:], "m,n", least=2))
    raise UnknownName("product descriptor", name)


def descriptor_of(selector):
    """The product descriptor of a zs:<name> selector; an unknown name and
    malformed or out-of-range integers are errors that name the whole
    selector, as typed."""
    try:
        return get_zs_descriptor(selector[3:])
    except SelectorError as e:
        raise SelectorError(selector, e.need) from None
    except UnknownName:
        raise UnknownName("semigroup selector", selector) from None


def get_semigroup(selector):
    """Resolve a registry selector to a descriptor.

    Selectors: free:k | nat | frac | nxn | zxz | bs:c,d | zs:<name> |
    ftheta:m,n.
    """
    if selector.startswith("free:"):
        return zoo.free_monoid(*ints(selector, selector[5:], "k", least=1,
                                         most=len(zoo.LETTERS)))
    if selector == "nat":
        return zoo.nat_add()
    if selector == "frac":
        return zoo.frac_semigroup()
    if selector == "nxn":
        return nxn_semigroup()
    if selector == "zxz":
        return zxz_semigroup()
    if selector.startswith("bs:"):
        return bs_semigroup(*ints(selector, selector[3:], "c,d", least=1))
    if selector.startswith("zs:"):
        return zs_semigroup(descriptor_of(selector))
    if selector.startswith("ftheta:"):
        return ftheta_semigroup(*ints(selector, selector[7:], "m,n",
                                      least=2))
    raise UnknownName("semigroup selector", selector)


class UnknownName(ValueError):
    """A name that no registry entry reads: "unknown <kind> '<name>'"."""

    def __init__(self, kind, name):
        super().__init__(f"unknown {kind} {name!r}")


class SelectorError(ValueError):
    """Text whose integers do not read or lie out of range: "<name>
    <need>", as "ftheta:2 needs two integers m,n"."""

    def __init__(self, name, need):
        super().__init__(f"{name} {need}")
        self.need = need


def ints(name, text, labels, least=None, most=None):
    """The integers of the comma-separated `text`, one per label of
    `labels` ("m,n" or "k"), each at least `least` and at most `most`
    where given; otherwise a SelectorError naming `name`."""
    parts, want = text.split(","), labels.split(",")
    try:
        got = tuple(map(int, parts)) if len(parts) == len(want) else None
    except ValueError:
        got = None
    if got is None:
        count = "an integer" if len(want) == 1 else "two integers"
        raise SelectorError(name, f"needs {count} {labels}")
    low = least is not None and min(got) < least
    high = most is not None and max(got) > most
    if low or high:
        span = (f"{labels} >= {least}" if most is None
                else f"{least} <= {labels} <= {most}")
        raise SelectorError(name, f"needs {span}")
    return got


#: Selectors whose ball(3) elements must round-trip through parse/display.
REGISTERED_SELECTORS = (
    "free:2", "free:3", "nat", "frac", "nxn", "zxz", "bs:1,2", "bs:2,3",
    "ftheta:2,3", "zs:bs:1,2", "zs:bs:2,3", "zs:nxn", "zs:zxz", "zs:add:2",
    "zs:add:3", "zs:ftheta:2,3",
)
