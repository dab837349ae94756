"""Exact affine partial injections of the integers and the concrete
boundary models built from them.

An AffinePI maps one integer progression onto another: rho + mu*t ->
b + a*t for every integer t, with 0 <= rho < mu (or mu == 0, the empty
map).  Every value is an integer by construction, and the composite,
adjoint and range projection of such maps are again such maps, so
relation checks in the models are exact congruence arithmetic, not
numerics.  Slopes a/mu are fractional only for adjoints and in the
printed form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import catalog, zoo
from .report import Report


class UnknownModel(ValueError):
    def __init__(self, name):
        super().__init__(f"unknown model {name!r}")


@dataclass(frozen=True)
class AffinePI:
    """rho + mu*t -> b + a*t for every integer t, with 0 <= rho < mu.

    mu == 0 encodes the empty map; use the module constant EMPTY.
    """

    rho: int
    mu: int
    b: int
    a: int

    def is_empty(self):
        return self.mu == 0

    def __call__(self, n):
        if not self.defined_at(n):
            raise ValueError(f"{n} is outside the domain of {self}")
        return self.b + self.a * ((n - self.rho) // self.mu)

    def defined_at(self, n):
        return self.mu != 0 and n % self.mu == self.rho

    def __str__(self):
        if self.mu == 0:
            return "empty"
        alpha = Fraction(self.a, self.mu)
        beta = self.b - alpha * self.rho
        return f"{alpha}*n+{beta} on {self.rho}(mod {self.mu})"


EMPTY = AffinePI(0, 0, 0, 0)


def affine(alpha, beta, rho=0, mu=1):
    """n -> alpha*n + beta on rho (mod mu), for integers alpha != 0 and
    beta."""
    if not (isinstance(alpha, int) and isinstance(beta, int)):
        raise TypeError("slope and offset must be integers")
    if alpha == 0:
        raise ValueError("slope must be nonzero")
    if mu < 1:
        raise ValueError("modulus must be >= 1 (use EMPTY for the empty map)")
    rho %= mu
    return AffinePI(rho, mu, alpha * rho + beta, alpha * mu)


def shift(k):
    return affine(1, k)


def scale(a):
    return affine(a, 0)


def affine_compose(f, g):
    """f ∘ g: exact domain computed by solving the congruence that sends
    the domain of g into the domain of f."""
    if f.is_empty() or g.is_empty():
        return EMPTY
    # need g.b + g.a*t == f.rho (mod f.mu): t = t0 (mod mf)
    solved = zoo.congruence(g.a, f.rho - g.b, f.mu)
    if solved is None:
        return EMPTY
    t0, mf = solved
    return AffinePI(g.rho + g.mu * t0, g.mu * mf,
                    f.b + f.a * ((g.b + g.a * t0 - f.rho) // f.mu),
                    f.a * (g.a // (f.mu // mf)))


def affine_adjoint(f):
    """The inverse map on the range of f (itself a residue class)."""
    if f.is_empty():
        return EMPTY
    step = abs(f.a)
    r = f.b % step
    return AffinePI(r, step, f.rho - f.mu * ((f.b - r) // f.a),
                    f.mu * (f.a // step))


def range_projection(f):
    """f ∘ f*: the identity on the range of f."""
    g = affine_adjoint(f)
    return AffinePI(g.rho, g.mu, g.rho, g.mu)


def affine_power(f, k):
    """k-th compositional power; negative k through the adjoint (only
    sensible for total bijections, where adjoint = inverse)."""
    if k < 0:
        return affine_power(affine_adjoint(f), -k)
    out = affine(1, 0)
    for _ in range(k):
        out = affine_compose(f, out)
    return out


PARTITION = "Partition"
COVER_ONLY = "CoverOnly"
DISJOINT_ONLY = "DisjointOnly"
NEITHER = "Neither"


@dataclass(frozen=True)
class PartitionVerdict:
    status: str
    uncovered: int | None = None
    overlap: int | None = None

    @property
    def is_partition(self):
        return self.status == PARTITION


def partition_check(family):
    """Exact partition/cover decision for identity-on-domain projections,
    via residue counting modulo the lcm of the moduli."""
    family = [p for p in family if not p.is_empty()]
    for p in family:
        if (p.b, p.a) != (p.rho, p.mu):
            raise ValueError(f"{p} is not an identity-on-domain projection")
    if not family:
        return PartitionVerdict(NEITHER, uncovered=0)
    big = math.lcm(*(p.mu for p in family))
    counts = [0] * big
    for p in family:
        for r in range(p.rho, big, p.mu):
            counts[r] += 1
    uncovered = next((r for r, c in enumerate(counts) if c == 0), None)
    overlap = next((r for r, c in enumerate(counts) if c > 1), None)
    if uncovered is None and overlap is None:
        return PartitionVerdict(PARTITION)
    if uncovered is None:
        return PartitionVerdict(COVER_ONLY, overlap=overlap)
    if overlap is None:
        return PartitionVerdict(DISJOINT_ONLY, uncovered=uncovered)
    return PartitionVerdict(NEITHER, uncovered=uncovered, overlap=overlap)


# ---------------------------------------------------------------------------
# The concrete boundary models.

QN_PRIMES = (2, 3, 5)
QZ_RANGE = (1, -1, 2, -2, 3, -3)


def build_model(name):
    """Generator map of a quotient model: QN, QZ, or Q2, whose u and s2
    are s_1 and t_0 of BS1n:2 and whose suites are BS1n:2's.  Parametric
    generators are callables; fixed ones are AffinePI values."""
    if name == "QN":
        return {"s": shift(1), "v": lambda p: scale(p)}
    if name == "QZ":
        return {"u": shift(1), "v": lambda a: scale(a)}
    if name == "Q2":
        return {"u": shift(1), "s2": scale(2)}
    raise UnknownModel(name)


def _image(F, e):
    """The element e of a product's factor F as the map k -> x*k + m: an
    integer is a shift, a progression (r, x) or a pair (m, j) of
    Z x {1,-1} is already (m, x), and a word over d letters composes its
    letters i -> d*k + i, the first letter outermost."""
    if isinstance(e, int):
        return shift(e)
    if isinstance(e, str):
        d = len(F.generators)
        e = functools.reduce(zoo.frac_multiply,
                             [(zoo.LETTERS.index(i), d) for i in e], (0, 1))
    return affine(e[1], e[0])


def _eq_family(report, suite, instances):
    """Instances of exact AffinePI equalities (lhs, rhs, tag)."""
    instances = list(instances)
    report.add(suite, len(instances), [f"{tag}:{lhs}!={rhs}"
                                       for lhs, rhs, tag in instances
                                       if lhs != rhs])


def _partition_family(report, suite, instances):
    """Instances of (projection family, tag) that must partition Z."""
    verdicts = [(partition_check(family), tag) for family, tag in instances]
    report.add(suite, len(verdicts), [f"{tag}:{verdict.status}"
                                      for verdict, tag in verdicts
                                      if not verdict.is_partition])


def _affine_suites(D, levels, a_range):
    """The suites of the model of the product form D, each factor element
    read through `_image`: K1/K2 read the matching of D at every a in
    a_range and every u of the levels, Q1 says each s_a is a bijection,
    and Q2 that the range projections of each level partition Z."""
    us = [u for level in levels for u in level]
    t, s = functools.partial(_image, D.U), functools.partial(_image, D.A)

    def k1_cases():
        for a in a_range:
            for u in us:
                au, r = D.matching(a, u)
                yield (affine_compose(s(a), t(u)),
                       affine_compose(t(au), s(r)),
                       f"a={a},u={D.U.display(u)}")

    def k2_cases():
        for a in a_range:
            for u in us:
                z, r = D.comatching(a, u)
                yield (affine_compose(affine_adjoint(s(a)), t(u)),
                       affine_compose(t(z), affine_adjoint(s(r))),
                       f"a={a},u={D.U.display(u)}")

    def q1_cases():
        for a in a_range:
            yield (affine_compose(s(a), affine_adjoint(s(a))),
                   affine(1, 0), f"a={a},ss*")
            yield (affine_compose(affine_adjoint(s(a)), s(a)),
                   affine(1, 0), f"a={a},s*s")

    return {
        "K1": (_eq_family, k1_cases),
        "K2": (_eq_family, k2_cases),
        "Q1": (_eq_family, q1_cases),
        "Q2": (_partition_family, lambda: (
            ([range_projection(t(u)) for u in level],
             "+".join(map(D.U.display, level))) for level in levels)),
    }


def _suite_table(name):
    """The one table of a model: suite name -> (family checker, thunk
    yielding the suite's instances).  Its keys are the model's suite
    list, and no instance is computed before its thunk is called."""
    if name == "Q2" or name.startswith("BS1n:"):
        d = 2 if name == "Q2" else catalog.ints(name, name[5:], "d")[0]
        if not 2 <= d <= len(zoo.LETTERS):
            raise UnknownModel(name)
        return _affine_suites(catalog.add_zs(d), [zoo.LETTERS[:d]], (1,))
    fracs = [[(r, x) for r in range(x)] for x in QN_PRIMES]
    if name == "NxN":
        return _affine_suites(catalog.nxn_zs(), fracs, range(11))
    if name == "ZxZ":
        return _affine_suites(catalog.zxz_zs(), fracs,
                              [(m, j) for m in range(11) for j in (1, -1)])
    gen = build_model(name)
    if name == "QN":
        s, v, ps = gen["s"], gen["v"], QN_PRIMES
        return {
            "T1": (_eq_family, lambda: (
                (affine_compose(v(p), s),
                 affine_compose(affine_power(s, p), v(p)), f"p={p}")
                for p in ps)),
            "T2": (_eq_family, lambda: (
                (affine_compose(v(p), v(q)), affine_compose(v(q), v(p)),
                 f"p={p},q={q}")
                for p in ps for q in ps)),
            "T3": (_eq_family, lambda: (
                (affine_compose(affine_adjoint(v(p)), v(q)),
                 affine_compose(v(q), affine_adjoint(v(p))), f"p={p},q={q}")
                for p in ps for q in ps if p != q)),
            "T4": (_eq_family, lambda: (
                (affine_compose(affine_adjoint(s), v(p)),
                 affine_compose(affine_power(s, p - 1),
                                affine_compose(v(p), affine_adjoint(s))),
                 f"p={p}")
                for p in ps)),
            "T5": (_eq_family, lambda: (
                (affine_compose(affine_adjoint(v(p)),
                                affine_compose(affine_power(s, k), v(p))),
                 EMPTY, f"p={p},k={k}")
                for p in ps for k in range(1, p))),
            "Q5": (_partition_family, lambda: (
                ([range_projection(affine_compose(affine_power(s, k), v(p)))
                  for k in range(p)], f"p={p}")
                for p in ps)),
            "Q6": (_eq_family, lambda: [
                (affine_compose(s, affine_adjoint(s)), affine(1, 0), "ss*"),
                (affine_compose(affine_adjoint(s), s), affine(1, 0), "s*s")]),
        }
    s, v, rng = gen["u"], gen["v"], QZ_RANGE

    def ii_cases():
        for a in rng:
            yield (affine_compose(v(a), s),
                   affine_compose(affine_power(s, a), v(a)), f"a={a},s")
            yield (affine_compose(v(a), affine_adjoint(s)),
                   affine_compose(affine_power(s, -a), v(a)), f"a={a},s*")

    return {
        "i": (_eq_family, lambda: (
            (affine_compose(v(a), v(b)), v(a * b), f"a={a},b={b}")
            for a in rng for b in rng)),
        "ii": (_eq_family, ii_cases),
        "iii": (_partition_family, lambda: (
            ([range_projection(affine_compose(affine_power(s, j), v(a)))
              for j in range(abs(a))], f"a={a}")
            for a in rng)),
    }


def verify_boundary_suite(name, suites=None):
    """Run the relation suites of one model, or those of them named in
    `suites`; every line is an exact affine identity or an exact
    partition verdict.  Naming a suite the model does not have raises
    ValueError before anything is computed."""
    table = _suite_table(name)
    unknown = sorted(set(suites or ()) - table.keys())
    if unknown:
        raise ValueError(f"model {name} has no suite {', '.join(unknown)}")
    report = Report()
    for suite, (family, instances) in table.items():
        if suites is None or suite in suites:
            family(report, suite, instances())
    return report


# ---------------------------------------------------------------------------
# The generator-map identities tying the quotient models together.

def verify_model_isomorphisms():
    """Exact affine identities behind the generator assignments between
    the named quotient models and the `_image` of the product factors."""
    report = Report()
    qn = build_model("QN")
    nxn = catalog.nxn_zs()
    _eq_family(
        report, "QN-NxN", (
            (affine_compose(affine_power(qn["s"], r), qn["v"](x)),
             _image(nxn.U, (r, x)), f"(r,x)=({r},{x})")
            for x in range(1, 13) for r in range(x)))
    qz = build_model("QZ")
    zxz = catalog.zxz_zs()
    _eq_family(
        report, "QZ-ZxZ", (
            (qz["v"](a), affine_compose(_image(zxz.A, (0, a // abs(a))),
                                        _image(zxz.U, (0, abs(a)))),
             f"a={a}")
            for a in range(-6, 7) if a != 0))
    q2 = build_model("Q2")
    bs = catalog.add_zs(2)
    _eq_family(report, "Q2-BS12", [(q2["u"], _image(bs.A, 1), "u=s1"),
                                   (q2["s2"], _image(bs.U, "0"), "s2=t0")])
    return report
