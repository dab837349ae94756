"""Ready-made semigroups and product descriptors, plus the name registry
used by the command-line front end.

Each of the concrete families from `zoo` reappears here in two shapes: as
a plain monoid on its own normal forms, and (where applicable) as an
explicit product U ⋈ A of its two factors.  The closed-form right-LCM
functions of the plain shapes are obtained by decomposing into the
product, running the product-level LCM, and recomposing.
"""

from __future__ import annotations

from . import zoo
from .core import DISJOINT, Lcm
from .selfsim import (adding_machine, bs_odometer, ftheta_semigroup,
                      ssa_act_inverse_word, ssa_act_word, theta_build)
from .zs import ZSDescriptor, zs_right_lcm, zs_semigroup


def ssa_zs_descriptor(D, A, name):
    """Free monoid ⋈ A from a letterwise self-similar action."""
    U = zoo.free_monoid(D.n_letters)
    return ZSDescriptor(
        name=name,
        U=U,
        A=A,
        action=lambda a, u: ssa_act_word(D, a, u)[0],
        restriction=lambda a, u: ssa_act_word(D, a, u)[1],
        action_inverse=lambda a, u: ssa_act_inverse_word(D, a, u),
    )


def add_zs(n):
    """X* ⋈ N for the base-n adding machine (letter digits, carry 1)."""
    return ssa_zs_descriptor(adding_machine(n), zoo.nat_add(), f"add:{n}")


def bs_zs(c, d):
    """The product form of BS(c,d)+: the free monoid on the d letters
    b^k a (written as digits k) matched with the powers of b, where a
    carry past the top letter costs b^c."""
    return ssa_zs_descriptor(bs_odometer(c, d), zoo.nat_add(), f"bs:{c},{d}")


def nxn_zs():
    """U ⋈ A form of the affine monoid over N: arithmetic progressions
    (r, x) acted on by shifts m via ((m+r) mod x, x), with restriction
    the shift quotient."""

    def action(m, u):
        r, x = u
        return ((m + r) % x, x)

    def restriction(m, u):
        r, x = u
        return (m + r) // x

    def action_inverse(m, u):
        r, x = u
        return ((r - m) % x, x)

    return ZSDescriptor(
        name="nxn",
        U=zoo.frac_semigroup(),
        A=zoo.nat_add(),
        action=action,
        restriction=restriction,
        action_inverse=action_inverse,
    )


def zxz_zs():
    """U ⋈ A form of the affine monoid over Z; A is the group of shifts
    and reflections (m, j) with j in {1, -1}."""

    def action(a, u):
        (m, j), (r, x) = a, u
        return ((m + j * r) % x, x)

    def restriction(a, u):
        (m, j), (r, x) = a, u
        t = m + j * r
        return ((t - t % x) // x, j)

    def action_inverse(a, u):
        (m, j), (r, x) = a, u
        return ((j * (r - m)) % x, x)

    return ZSDescriptor(
        name="zxz",
        U=zoo.frac_semigroup(),
        A=zoo.zsign_group(),
        action=action,
        restriction=restriction,
        action_inverse=action_inverse,
    )


def ftheta_zs(m, n):
    """F ⋈ Z where F is the two-alphabet monoid for the standard table
    and the integer k acts as the base-m odometer on the x-part, its
    carry continuing as the base-n odometer on the y-part."""
    T = theta_build(m, n)
    DX, DY = adding_machine(m), adding_machine(n)

    def action_res(k, z):
        xs, ys = z
        xs2, ys2 = [], []
        for i in xs:
            xs2.append(DX.act(k, i))
            k = DX.res(k, i)
        for j in ys:
            ys2.append(DY.act(k, j))
            k = DY.res(k, j)
        return (tuple(xs2), tuple(ys2)), k

    return ZSDescriptor(
        name=f"ftheta:{m},{n}",
        U=ftheta_semigroup(T),
        A=zoo.int_add(),
        action=lambda k, z: action_res(k, z)[0],
        restriction=lambda k, z: action_res(k, z)[1],
        action_inverse=lambda k, z: action_res(-k, z)[0],
    )


# ---------------------------------------------------------------------------
# Closed-form right LCMs for the plain shapes, through their product form.

def _lcm_through_product(D, decompose, recompose):
    def right_lcm(p, q):
        got = zs_right_lcm(D, decompose(p), decompose(q))
        if got is DISJOINT:
            return DISJOINT
        return Lcm(recompose(got.lcm), recompose(got.p_comp),
                   recompose(got.q_comp))

    return right_lcm


def nxn_semigroup():
    D = nxn_zs()

    def decompose(p):
        u, (k, _one) = zoo.nxn_decompose(p)
        return (u, k)

    def recompose(e):
        (r, x), k = e
        return (r + x * k, x)

    return zoo.nxn_semigroup(
        right_lcm=_lcm_through_product(D, decompose, recompose))


def zxz_semigroup():
    D = zxz_zs()

    def recompose(e):
        (r, x), (k, j) = e
        return (r + x * k, x * j)

    return zoo.zxz_semigroup(
        right_lcm=_lcm_through_product(D, zoo.zxz_decompose, recompose))


def bs_semigroup(c, d):
    D = bs_zs(c, d)

    def decompose(p):
        alphas, beta = p
        return ("".join(str(k) for k in alphas), beta)

    def recompose(e):
        word, beta = e
        return (tuple(int(ch) for ch in word), beta)

    return zoo.bs_semigroup(
        c, d, right_lcm=_lcm_through_product(D, decompose, recompose))


# ---------------------------------------------------------------------------
# Registries.

#: The product descriptors exercised throughout the test batteries.
EXAMPLE_ZS_NAMES = ("bs:1,2", "bs:2,3", "nxn", "zxz", "add:2", "add:3",
                    "ftheta:2,3")


def get_zs_descriptor(name):
    if name.startswith("bs:"):
        c, d = _int_pair(name[3:])
        return bs_zs(c, d)
    if name == "nxn":
        return nxn_zs()
    if name == "zxz":
        return zxz_zs()
    if name.startswith("add:"):
        return add_zs(int(name[4:]))
    if name.startswith("ftheta:"):
        m, n = _int_pair(name[7:])
        return ftheta_zs(m, n)
    raise KeyError(f"unknown product descriptor {name!r}")


def get_semigroup(selector):
    """Resolve a registry selector to a descriptor.

    Selectors: free:k | nat | frac | nxn | zxz | bs:c,d | zs:<name> |
    ftheta:m,n.
    """
    if selector.startswith("free:"):
        return zoo.free_monoid(int(selector[5:]))
    if selector == "nat":
        return zoo.nat_add()
    if selector == "frac":
        return zoo.frac_semigroup()
    if selector == "nxn":
        return nxn_semigroup()
    if selector == "zxz":
        return zxz_semigroup()
    if selector.startswith("bs:"):
        c, d = _int_pair(selector[3:])
        return bs_semigroup(c, d)
    if selector.startswith("zs:"):
        return zs_semigroup(get_zs_descriptor(selector[3:]))
    if selector.startswith("ftheta:"):
        m, n = _int_pair(selector[7:])
        return ftheta_semigroup(theta_build(m, n))
    raise KeyError(f"unknown semigroup selector {selector!r}")


def _int_pair(text):
    a, _, b = text.partition(",")
    return int(a), int(b)


#: Selectors whose ball(3) elements must round-trip through parse/display.
REGISTERED_SELECTORS = (
    "free:2", "free:3", "nat", "frac", "nxn", "zxz", "bs:1,2", "bs:2,3",
    "ftheta:2,3", "zs:bs:1,2", "zs:bs:2,3", "zs:nxn", "zs:zxz", "zs:add:2",
    "zs:add:3", "zs:ftheta:2,3",
)
