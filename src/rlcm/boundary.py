"""Exact affine partial injections of the integers and the concrete
boundary models built from them.

An AffinePI is a map n -> alpha*n + beta defined on a residue class
rho (mod mu) of Z (or on nothing).  Slopes and offsets are stored as
rationals because adjoints invert the slope, but every value taken on
the domain is an integer: the invariant is alpha*mu in Z and
alpha*rho + beta in Z.  Composition and inversion are exact congruence
arithmetic, so relation checks in the models are genuine identities,
not numerics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import catalog
from .report import Report


class UnknownModel(KeyError):
    pass


@dataclass(frozen=True)
class AffinePI:
    """n -> alpha*n + beta on the residue class rho (mod mu).

    mu == 0 encodes the empty map; use the module constant EMPTY.
    Construct through `affine` for normalization and invariant checks.
    """

    alpha: Fraction
    beta: Fraction
    rho: int
    mu: int

    def is_empty(self):
        return self.mu == 0

    def __call__(self, n):
        if self.mu == 0 or n % self.mu != self.rho:
            raise ValueError(f"{n} is outside the domain of {self}")
        out = self.alpha * n + self.beta
        return int(out)

    def defined_at(self, n):
        return self.mu != 0 and n % self.mu == self.rho

    def __str__(self):
        if self.mu == 0:
            return "empty"
        return f"{self.alpha}*n+{self.beta} on {self.rho}(mod {self.mu})"


EMPTY = AffinePI(Fraction(1), Fraction(0), 0, 0)


def affine(alpha, beta, rho=0, mu=1):
    """Normalized AffinePI with the integrality invariant enforced."""
    alpha = Fraction(alpha)
    beta = Fraction(beta)
    if alpha == 0:
        raise ValueError("slope must be nonzero")
    if mu < 1:
        raise ValueError("modulus must be >= 1 (use EMPTY for the empty map)")
    rho %= mu
    if (alpha * mu).denominator != 1 or (alpha * rho + beta).denominator != 1:
        raise ValueError(f"map takes non-integer values on {rho}(mod {mu})")
    return AffinePI(alpha, beta, rho, mu)


def shift(k):
    return affine(1, k)


def scale(a):
    return affine(a, 0)


def affine_compose(f, g):
    """f ∘ g: exact domain computed by solving the congruence that sends
    the domain of g into the domain of f."""
    if f.is_empty() or g.is_empty():
        return EMPTY
    # g's values along its domain: B + A*t for t in Z.
    A = int(g.alpha * g.mu)
    B = int(g.alpha * g.rho + g.beta)
    # need B + A*t == rho_f (mod mu_f)
    d = math.gcd(A, f.mu)
    if (f.rho - B) % d != 0:
        return EMPTY
    mf = f.mu // d
    t0 = ((f.rho - B) // d * pow(A // d, -1, mf)) % mf if mf > 1 else 0
    return affine(f.alpha * g.alpha, f.alpha * g.beta + f.beta,
                  g.rho + g.mu * t0, g.mu * mf)


def affine_adjoint(f):
    """The inverse map on the range of f (itself a residue class)."""
    if f.is_empty():
        return EMPTY
    step = abs(int(f.alpha * f.mu))
    v0 = int(f.alpha * f.rho + f.beta)
    return affine(1 / f.alpha, -f.beta / f.alpha, v0 % step, step)


def range_projection(f):
    """f ∘ f*: the identity on the range of f."""
    if f.is_empty():
        return EMPTY
    step = abs(int(f.alpha * f.mu))
    v0 = int(f.alpha * f.rho + f.beta)
    return affine(1, 0, v0 % step, step)


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

    @property
    def covers(self):
        return self.status in (PARTITION, COVER_ONLY)


def partition_check(family):
    """Exact partition/cover decision for identity-on-domain projections,
    via residue counting modulo the lcm of the moduli."""
    family = [p for p in family]
    for p in family:
        if not p.is_empty() and (p.alpha != 1 or p.beta != 0):
            raise ValueError(f"{p} is not an identity-on-domain projection")
    moduli = [p.mu for p in family if not p.is_empty()]
    if not moduli:
        return PartitionVerdict(NEITHER, uncovered=0)
    big = math.lcm(*moduli)
    counts = [0] * big
    for p in family:
        if p.is_empty():
            continue
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
    """Generator map of a named boundary model.

    Names: QN, QZ, Q2, BS1n:<d>, NxN, ZxZ.  Parametric generators are
    callables; fixed ones are AffinePI values.
    """
    if name == "QN":
        return {"s": shift(1), "v": lambda p: scale(p)}
    if name == "QZ":
        return {"u": shift(1), "v": lambda a: scale(a)}
    if name == "Q2":
        return {"u": shift(1), "s2": scale(2)}
    if name.startswith("BS1n:"):
        d = int(name[5:])
        if d < 2:
            raise UnknownModel(name)
        return {"s": shift(1), "t": lambda i: affine(d, i - 1), "d": d}
    if name == "NxN":
        return {"t": lambda r, x: affine(x, r), "s": lambda m: shift(m)}
    if name == "ZxZ":
        return {"t": lambda r, x: affine(x, r),
                "s": lambda m, j: affine(j, m)}
    raise UnknownModel(name)


def _eq_family(report, suite, instances):
    """Instances of exact AffinePI equalities (lhs, rhs, tag)."""
    witnesses = []
    count = 0
    for lhs, rhs, tag in instances:
        count += 1
        if lhs != rhs:
            witnesses.append(f"{tag}:{lhs}!={rhs}")
    report.add(suite, count, witnesses)


def _partition_family(report, suite, instances, cover_enough=False):
    """Instances of (projection family, tag) that must partition Z (or
    merely cover it when cover_enough)."""
    witnesses = []
    count = 0
    for family, tag in instances:
        count += 1
        verdict = partition_check(family)
        good = verdict.covers if cover_enough else verdict.is_partition
        if not good:
            witnesses.append(f"{tag}:{verdict.status}")
    report.add(suite, count, witnesses)


def verify_boundary_suite(name, suites=None):
    """Run the relation suite of one model; every line is an exact
    affine identity or an exact partition verdict.  Naming a suite the
    model does not have raises ValueError."""
    gen = build_model(name)
    report = Report()
    known = set()

    def want(s):
        known.add(s)
        return suites is None or s in suites

    if name == "Q2":
        u, s2 = gen["u"], gen["s2"]
        if want("I"):
            _eq_family(report, "I",
                       [(affine_compose(s2, u),
                         affine_compose(u, affine_compose(u, s2)), "s2u=u2s2")])
        if want("II"):
            _partition_family(report, "II",
                              [([range_projection(s2),
                                 range_projection(affine_compose(u, s2))],
                                "s2s2*+us2s2*u*=1")])
    elif name == "QN":
        s = gen["s"]
        v = gen["v"]
        ps = QN_PRIMES
        if want("T1"):
            _eq_family(report, "T1",
                       ((affine_compose(v(p), s),
                         affine_compose(affine_power(s, p), v(p)), f"p={p}")
                        for p in ps))
        if want("T2"):
            _eq_family(report, "T2",
                       ((affine_compose(v(p), v(q)),
                         affine_compose(v(q), v(p)), f"p={p},q={q}")
                        for p in ps for q in ps))
        if want("T3"):
            _eq_family(report, "T3",
                       ((affine_compose(affine_adjoint(v(p)), v(q)),
                         affine_compose(v(q), affine_adjoint(v(p))),
                         f"p={p},q={q}")
                        for p in ps for q in ps if p != q))
        if want("T4"):
            _eq_family(report, "T4",
                       ((affine_compose(affine_adjoint(s), v(p)),
                         affine_compose(affine_power(s, p - 1),
                                        affine_compose(v(p),
                                                       affine_adjoint(s))),
                         f"p={p}")
                        for p in ps))
        if want("T5"):
            _eq_family(report, "T5",
                       ((affine_compose(affine_adjoint(v(p)),
                                        affine_compose(affine_power(s, k),
                                                       v(p))),
                         EMPTY, f"p={p},k={k}")
                        for p in ps for k in range(1, p)))
        if want("Q5"):
            _partition_family(
                report, "Q5",
                (([range_projection(affine_compose(affine_power(s, k), v(p)))
                   for k in range(p)], f"p={p}")
                 for p in ps))
        if want("Q6"):
            _eq_family(report, "Q6",
                       [(affine_compose(s, affine_adjoint(s)), affine(1, 0),
                         "ss*"),
                        (affine_compose(affine_adjoint(s), s), affine(1, 0),
                         "s*s")])
    elif name == "QZ":
        s = gen["u"]
        v = gen["v"]
        rng = QZ_RANGE
        if want("i"):
            _eq_family(report, "i",
                       ((affine_compose(v(a), v(b)), v(a * b),
                         f"a={a},b={b}")
                        for a in rng for b in rng))
        if want("ii"):
            def ii_cases():
                for a in rng:
                    yield (affine_compose(v(a), s),
                           affine_compose(affine_power(s, a), v(a)),
                           f"a={a},s")
                    yield (affine_compose(v(a), affine_adjoint(s)),
                           affine_compose(affine_power(s, -a), v(a)),
                           f"a={a},s*")
            _eq_family(report, "ii", ii_cases())
        if want("iii"):
            _partition_family(
                report, "iii",
                (([range_projection(affine_compose(affine_power(s, j), v(a)))
                   for j in range(abs(a))], f"a={a}")
                 for a in rng))
    elif name.startswith("BS1n:"):
        s, t, d = gen["s"], gen["t"], gen["d"]
        if want("1"):
            _partition_family(report, "1",
                              [([range_projection(t(i))
                                 for i in range(1, d + 1)], "sum t_i t_i*")])
        if want("2"):
            _eq_family(report, "2",
                       ((affine_compose(s, t(i)), t(i + 1), f"i={i}")
                        for i in range(1, d)))
        if want("3"):
            _eq_family(report, "3",
                       [(affine_compose(s, t(d)),
                         affine_compose(t(1), affine_power(s, 1)), "st_d")])
    elif name in ("NxN", "ZxZ"):
        t = gen["t"]
        s = gen["s"]
        xs = QN_PRIMES
        ms = range(11)
        # K1/K2 read the matching of the product form from the catalog.
        if name == "NxN":
            D = catalog.nxn_zs()
            a_range = list(ms)
            s_of = s
        else:
            D = catalog.zxz_zs()
            a_range = [(m, j) for m in ms for j in (1, -1)]

            def s_of(a):
                return s(*a)
        if want("K1"):
            def k1_cases():
                for a in a_range:
                    for x in xs:
                        for r in range(x):
                            au = D.action(a, (r, x))
                            ra = D.restriction(a, (r, x))
                            yield (affine_compose(s_of(a), t(r, x)),
                                   affine_compose(t(*au), s_of(ra)),
                                   f"a={a},u=({r},{x})")
            _eq_family(report, "K1", k1_cases())
        if want("K2"):
            def k2_cases():
                for a in a_range:
                    for x in xs:
                        for r in range(x):
                            z = D.action_inverse(a, (r, x))
                            rz = D.restriction(a, z)
                            yield (affine_compose(affine_adjoint(s_of(a)),
                                                  t(r, x)),
                                   affine_compose(t(*z),
                                                  affine_adjoint(s_of(rz))),
                                   f"a={a},u=({r},{x})")
            _eq_family(report, "K2", k2_cases())
        if want("Q1"):
            def q1_cases():
                for a in a_range:
                    yield (affine_compose(s_of(a), affine_adjoint(s_of(a))),
                           affine(1, 0), f"a={a},ss*")
                    yield (affine_compose(affine_adjoint(s_of(a)), s_of(a)),
                           affine(1, 0), f"a={a},s*s")
            _eq_family(report, "Q1", q1_cases())
        if want("Q2"):
            _partition_family(
                report, "Q2",
                (([range_projection(t(k, p)) for k in range(p)], f"p={p}")
                 for p in xs),
                cover_enough=True)
    else:
        raise UnknownModel(name)
    unknown = sorted(set(suites or ()) - known)
    if unknown:
        raise ValueError(f"model {name} has no suite {', '.join(unknown)}")
    return report


# ---------------------------------------------------------------------------
# The generator-map identities tying the quotient models together.

def verify_model_isomorphisms():
    """Exact affine identities behind the generator assignments between
    the named quotient models and the product models."""
    report = Report()
    qn = build_model("QN")
    nxn = build_model("NxN")
    _eq_family(
        report, "QN-NxN", (
            (affine_compose(affine_power(qn["s"], r), qn["v"](x)),
             nxn["t"](r, x), f"(r,x)=({r},{x})")
            for x in range(1, 13) for r in range(x)))
    qz = build_model("QZ")
    zxz = build_model("ZxZ")
    _eq_family(
        report, "QZ-ZxZ", (
            (qz["v"](a),
             affine_compose(zxz["s"](0, a // abs(a)), zxz["t"](0, abs(a))),
             f"a={a}")
            for a in range(-6, 7) if a != 0))
    q2 = build_model("Q2")
    bs = build_model("BS1n:2")
    _eq_family(report, "Q2-BS12",
               [(q2["u"], bs["s"], "u=s"), (q2["s2"], bs["t"](1), "s2=t1")])
    return report
