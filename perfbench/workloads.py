"""The three benchmark workloads.

Each workload has up to three parts.  `setup(rl, rng, tiny)` builds
descriptors and the seeded inputs; it is not timed as part of the workload.
`run(rl, inputs)` is the timed phase.  `check(rl, inputs, raw)`, where a
workload has one, turns what `run` returned into a `Round` after the clock
has stopped; without it `run` returns the `Round` itself.  A `Round` holds
one record per item (its latency and outcome) plus the work counts the round
performed.  `rl` is a namespace holding freshly imported `rlcm` modules, so
caches inside the program start cold in every round.

An item ends in one of four outcomes:

- certified: the answer was checked and holds;
- skipped: the oracle could not decide inside its ball (`BallTooSmall`);
- defect: a known program defect whose verdict the benchmark re-derives
  and confirms (an uncaught `IncomparableMultiples` for a pair that truly
  has two minimal common multiples);
- failed: anything else, such as a mismatch, a wrong verdict, a failed
  certificate or an unexpected exception.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import time
from dataclasses import dataclass, field

CERTIFIED = "certified"
SKIPPED = "skipped"
DEFECT = "defect"
FAILED = "failed"


@dataclass
class Round:
    """Outcome of one timed phase."""

    latencies: list = field(default_factory=list)   # seconds, per item
    outcomes: list = field(default_factory=list)    # per item
    verbs: list = field(default_factory=list)       # per item, cli only
    work: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)    # first few, for stderr

    def add(self, latency, outcome, detail=None, verb=None):
        """Record one item; `detail` is a callable giving the text shown
        for a failure, so that passing items pay nothing for it."""
        self.latencies.append(latency)
        self.outcomes.append(outcome)
        if verb is not None:
            self.verbs.append(verb)
        if outcome == FAILED and len(self.failures) < 10:
            self.failures.append(detail())

    def count(self, outcome):
        return sum(1 for o in self.outcomes if o == outcome)


def _sorted_ball(rl, S, radius):
    """Ball elements in (length, display) order, so sampling does not
    depend on the enumeration order inside the program."""
    ball = rl.core.enumerate_ball(S, radius)
    return ball, sorted(ball, key=lambda x: (ball.length(x), S.display(x)))


# ---------------------------------------------------------------------------
# oracle-crosscheck: closed-form right LCMs against the brute-force oracle.

ORACLE_SUBSET = 32          # elements of each radius-3 ball; 4 when tiny
ORACLE_COMPLEMENT_RADIUS = 6
FRAC_MODULI = 12            # moduli of the frac check; 4 when tiny


def oracle_setup(rl, rng, tiny):
    k = 4 if tiny else ORACLE_SUBSET
    products = []
    for name in rl.catalog.EXAMPLE_ZS_NAMES:
        P = rl.zs.zs_semigroup(rl.catalog.get_zs_descriptor(name))
        ball, elems = _sorted_ball(rl, P, 3)
        products.append((P, ball, rng.sample(elems, min(k, len(elems)))))
    moduli = 4 if tiny else FRAC_MODULI
    frac = [(r, x) for x in range(1, moduli + 1) for r in range(x)]
    return {"products": products, "frac": frac, "moduli": moduli,
            "digest": [(P.name, sub) for P, _, sub in products] + frac}


def oracle_run(rl, inputs):
    core = rl.core
    DISJOINT, BallTooSmall = core.DISJOINT, core.BallTooSmall
    perf = time.perf_counter
    out = Round()

    def same(S, want, got):
        if want is DISJOINT or got is DISJOINT:
            return want is got
        return core.lcm_equal_up_to_units(S, got.lcm, want.lcm)

    for P, ball, subset in inputs["products"]:
        complements = core.enumerate_ball(P, ORACLE_COMPLEMENT_RADIUS)
        oracle = core.BruteForcer(P, ball, complements=complements)
        for p in subset:
            for q in subset:
                t0 = perf()
                try:
                    want = oracle.right_lcm(p, q)
                    outcome = (CERTIFIED if same(P, want, P.right_lcm(p, q))
                               else FAILED)
                except BallTooSmall:
                    outcome = SKIPPED
                except Exception as exc:  # noqa: BLE001 - counted, reported
                    outcome = FAILED
                    want = exc
                out.add(perf() - t0, outcome, lambda: (
                    f"{P.name} ({P.display(p)},{P.display(q)}): {want!r}"))

    # Ball mode on the progression semigroup: every LCM of moduli <= M has
    # modulus <= M^2, so the explicit ball below provably contains it.
    S = rl.zoo.frac_semigroup()
    m2 = inputs["moduli"] ** 2
    search = core.ball_from_elements(
        [(t, z) for z in range(1, m2 + 1) for t in range(z)], lambda e: e[1])
    oracle = core.BruteForcer(S, search)
    for p in inputs["frac"]:
        for q in inputs["frac"]:
            t0 = perf()
            try:
                want, got = oracle.right_lcm(p, q), S.right_lcm(p, q)
                if want is DISJOINT or got is DISJOINT:
                    ok = want is got
                else:
                    ok = want.lcm == got.lcm
            except Exception as exc:  # noqa: BLE001 - counted, reported
                ok, want, got = False, exc, None
            out.add(perf() - t0, CERTIFIED if ok else FAILED,
                    lambda: f"frac ({p},{q}): {want!r} vs {got!r}")

    out.work = {"pairs_certified": out.count(CERTIFIED),
                "pairs_skipped": out.count(SKIPPED)}
    return out


# ---------------------------------------------------------------------------
# operator-suites: relation suites on truncated regular representations and
# the monomial word oracle.

SUITES = ("Li", "covariance", "K")
#: Radius 3 costs 2-8 s per suite on these products; they run at radius 2.
SUITE_RADIUS = {"nxn": 2, "zxz": 2, "ftheta:2,3": 2}
WORDS_PER_PRODUCT = 1000    # 20 when tiny


def operator_setup(rl, rng, tiny):
    products = []
    for name in rl.catalog.EXAMPLE_ZS_NAMES:
        D = rl.catalog.get_zs_descriptor(name)
        P = rl.zs.zs_semigroup(D)
        _, elems = _sorted_ball(rl, P, 2)
        pool = [(p, s) for p in elems if p != P.identity
                for s in (False, True)]
        words = [[rng.choice(pool) for _ in range(rng.randint(1, 4))]
                 for _ in range(20 if tiny else WORDS_PER_PRODUCT)]
        radius = 1 if tiny else SUITE_RADIUS.get(name, 3)
        products.append((D, P, radius, words))
    return {"products": products,
            "digest": [(P.name, r, w) for _, P, r, w in products]}


def operator_run(rl, inputs):
    perf = time.perf_counter
    out = Round()
    compared = escaped = 0
    for D, P, radius, words in inputs["products"]:
        for suite in SUITES:
            t0 = perf()
            try:
                checks = rl.regrep.verify_relations(
                    D, radius=radius, suite=suite).checks
                ok = bool(checks) and all(c.status == rl.report.PASS
                                          for c in checks)
            except Exception as exc:  # noqa: BLE001 - counted, reported
                checks, ok = [exc], False
            out.add(perf() - t0, CERTIFIED if ok else FAILED,
                    lambda: f"{D.name} {suite}: {checks[:3]}")
            compared += sum(getattr(c, "checked", 0) for c in checks)
            escaped += sum(getattr(c, "escaped", 0) for c in checks)
        ctx = rl.regrep.RepContext(P, rl.core.enumerate_ball(P, 2))
        for word in words:
            t0 = perf()
            try:
                c, e, bad = rl.regrep.oracle_check_monomial(P, word, ctx)
            except Exception as exc:  # noqa: BLE001 - counted, reported
                c, e, bad = 0, 0, [exc]
            out.add(perf() - t0, FAILED if bad else CERTIFIED,
                    lambda: f"{P.name} word {word}: {bad[:2]}")
            compared += c
            escaped += e
    out.work = {"vectors_compared": compared, "vectors_escaped": escaped,
                "words": sum(len(w) for *_, w in inputs["products"]),
                "suite_calls": len(SUITES) * len(inputs["products"])}
    return out


# ---------------------------------------------------------------------------
# cli-requests: a closed loop of in-process `rlcm.cli.run(argv)` calls.

#: Requests per verb in one stream of 480: every verb gets the same share,
#: because nothing in the repository says how often each is used.  Within a
#: verb, the share is split evenly over its request kinds.  The tiny stream
#: has one request of each kind.
REQUESTS_PER_VERB = 60
CLI_KINDS = {
    "mul": ("mul",),
    "lcm": ("lcm", "lcm_frac_large", "lcm_noncoprime"),
    "normalize": ("normalize",),
    "decompose": ("decompose",),
    "check-axioms": ("check_axioms",),
    "check-relations": ("relations_model", "relations_product"),
    "foundation": ("foundation_exact", "foundation_transfer",
                   "foundation_noncoprime"),
    "survey-ftheta": ("survey",),
}
CLI_VERBS = tuple(CLI_KINDS)
NONCOPRIME = ("ftheta:2,2", "ftheta:2,4", "ftheta:4,6", "ftheta:3,6")
SURVEY_SIZES = ((2, 3), (3, 4), (3, 5), (2, 2), (2, 4), (4, 6), (3, 6))
SURVEY_BOXES = ("1,1", "2,1", "1,2", "2,2")
MODELS = ("Q2", "QN", "QZ", "BS1n:2", "BS1n:3", "NxN", "ZxZ")
MODEL_SUITES = {"QN": ("T1", "T2", "T3", "T4", "T5", "Q5", "Q6"),
                "QZ": ("i", "ii", "iii"), "NxN": ("K1", "K2", "Q1", "Q2"),
                "ZxZ": ("K1", "K2", "Q1", "Q2")}
DECOMPOSABLE = ("nxn", "zxz", "bs:1,2", "bs:2,3")
NORMALIZABLE = ("free:2", "frac", "nxn", "zxz", "bs:1,2", "zs:bs:2,3",
                "zs:nxn", "zs:add:2", "zs:ftheta:2,3")


@dataclass(frozen=True)
class Request:
    kind: str
    argv: tuple
    expect: tuple = ()   # kind-specific facts the checker needs


class _Balls:
    """Per-selector radius balls, built once per setup."""

    def __init__(self, rl):
        self.rl = rl
        self.cache = {}

    def get(self, sel, radius):
        key = (sel, radius)
        if key not in self.cache:
            S = self.rl.catalog.get_semigroup(sel)
            self.cache[key] = (S, _sorted_ball(self.rl, S, radius)[1])
        return self.cache[key]


def _log_uniform(rng, hi):
    return max(2, int(round(10 ** rng.uniform(math.log10(2), math.log10(hi)))))


def _make_request(kind, i, rl, rng, balls):
    """The i-th request of a kind.  Selectors, models, suites, sizes and
    boxes cycle with i, so every seed gives each the same share of the
    stream and about the same work; the seed picks the elements and the
    remaining flags."""
    cat = rl.catalog

    def cycle(options):
        return options[i % len(options)]

    if kind == "mul":
        sel = cycle(cat.REGISTERED_SELECTORS)
        S, elems = balls.get(sel, 2)
        xs = [rng.choice(elems) for _ in range(rng.randint(2, 3))]
        return Request(kind, ("mul", "--semigroup", sel,
                              *(S.display(x) for x in xs)), (sel, tuple(xs)))
    if kind == "lcm":
        sel = cycle(cat.REGISTERED_SELECTORS)
        S, elems = balls.get(sel, 2)
        p, q = rng.choice(elems), rng.choice(elems)
        return Request(kind, ("lcm", "--semigroup", sel, S.display(p),
                              S.display(q)), (sel, p, q))
    if kind == "lcm_frac_large":
        x, y = _log_uniform(rng, 10 ** 6), _log_uniform(rng, 10 ** 6)
        p, q = (rng.randrange(x), x), (rng.randrange(y), y)
        return Request(kind, ("lcm", "--semigroup", "frac", f"({p[0]},{x})",
                              f"({q[0]},{y})"), ("frac", p, q))
    if kind == "lcm_noncoprime":
        sel = cycle(NONCOPRIME)
        S, elems = balls.get(sel, 1)
        p, q = rng.choice(elems), rng.choice(elems)
        return Request(kind, ("lcm", "--semigroup", sel, "--radius", "1",
                              S.display(p), S.display(q)), (sel, p, q))
    if kind == "normalize":
        sel = cycle(NORMALIZABLE)
        toks = []
        for _ in range(rng.randint(1, 3)):
            if sel.startswith("zs:"):
                # Product elements display with spaces, which the token
                # grammar splits on, so name them through their factors.
                D = cat.get_zs_descriptor(sel[3:])
                letter = rng.choice("ts")
                F = D.U if letter == "t" else D.A
                elems = _sorted_ball(rl, F, 1)[1]
                star = rng.choice(("", "*"))
            else:
                F, elems = balls.get(sel, 1)
                letter, star = rng.choice((("v", ""), ("v", "*"), ("e", "")))
            toks.append(f"{letter}({F.display(rng.choice(elems[1:]))}){star}")
        return Request(kind, ("normalize", "--semigroup", sel, " ".join(toks)),
                       (sel,))
    if kind == "decompose":
        sel = cycle(DECOMPOSABLE)
        S, elems = balls.get(sel, 3)
        p = rng.choice(elems)
        return Request(kind, ("decompose", "--semigroup", sel, S.display(p)),
                       (sel, p))
    if kind == "check_axioms":
        name = cycle(cat.EXAMPLE_ZS_NAMES)
        radius = 1 + (i // len(cat.EXAMPLE_ZS_NAMES)) % 2
        return Request(kind, ("check-axioms", "--semigroup", f"zs:{name}",
                              "--radius", str(radius)))
    if kind == "relations_model":
        model = cycle(MODELS)
        argv = ("check-relations", "--model", model)
        if model in MODEL_SUITES and (i // len(MODELS)) % 2:
            argv += ("--suite", rng.choice(MODEL_SUITES[model]))
        return Request(kind, argv)
    if kind == "relations_product":
        name = cycle(cat.EXAMPLE_ZS_NAMES)
        suite = SUITES[(i // len(cat.EXAMPLE_ZS_NAMES)) % len(SUITES)]
        return Request(kind, ("check-relations", "--semigroup", f"zs:{name}",
                              "--radius", "1", "--suite", suite))
    if kind == "foundation_exact":
        k = cycle((2, 3))
        depth = rng.randint(1, 2)
        pool = ["".join(w) for d in range(1, depth + 1)
                for w in itertools.product("012"[:k], repeat=d)]
        F = sorted(rng.sample(pool, rng.randint(1, min(4, len(pool)))))
        return Request(kind, ("foundation", "--semigroup", f"free:{k}",
                              "--mode", "exact", *F), (k, tuple(F)))
    if kind == "foundation_transfer":
        # Clause (b) of the transfer theorem: {(u, 0) : u in F} is a
        # foundation set of X* ⋈ N whenever F is one of X*.
        n = cycle((2, 3))
        depth = 1 + (i // 2) % 2
        F = ["".join(w) for w in itertools.product("012"[:n], repeat=depth)]
        return Request(kind, ("foundation", "--semigroup", f"zs:add:{n}",
                              "--radius", "2", *(f"({u} ; 0)" for u in F)))
    if kind == "foundation_noncoprime":
        sel = cycle(NONCOPRIME)
        S, elems = balls.get(sel, 1)
        F = rng.sample(elems[1:], 1 + (i // len(NONCOPRIME)) % 2)
        return Request(kind, ("foundation", "--semigroup", sel, "--radius",
                              "1", *(S.display(x) for x in F)),
                       (sel, tuple(F)))
    if kind == "survey":
        m, n = cycle(SURVEY_SIZES)
        box = SURVEY_BOXES[(i // len(SURVEY_SIZES)) % len(SURVEY_BOXES)]
        return Request(kind, ("survey-ftheta", "--semigroup", f"ftheta:{m},{n}",
                              "--bidegree", box), (m, n))
    raise ValueError(kind)


def cli_setup(rl, rng, tiny):
    balls = _Balls(rl)
    stream = [_make_request(kind, i, rl, rng, balls)
              for kinds in CLI_KINDS.values() for kind in kinds
              for i in range(1 if tiny else REQUESTS_PER_VERB // len(kinds))]
    rng.shuffle(stream)
    return {"stream": stream, "digest": [r.argv for r in stream]}


def cli_run(rl, inputs):
    """Send the stream; (latency, exit code or exception, stdout) each."""
    perf = time.perf_counter
    replies = []
    for req in inputs["stream"]:
        buf = io.StringIO()
        t0 = perf()
        try:
            with contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(io.StringIO()):
                reply = rl.cli.run(list(req.argv))
        except (Exception, SystemExit) as exc:  # noqa: BLE001 - judged later
            # Without its traceback the exception no longer keeps the
            # request's frames, and the oracle balls in them, alive.
            reply = exc.with_traceback(None)
        replies.append((perf() - t0, reply, buf.getvalue()))
    return replies


def cli_check(rl, inputs, replies):
    """Judge every reply of a stream, outside the timed phase."""
    out = Round()
    steps = 0
    for req, (latency, reply, text) in zip(inputs["stream"], replies):
        try:
            outcome, detail = _judge(rl, req, reply, text)
        except Exception as exc:  # noqa: BLE001 - unparseable output
            outcome, detail = FAILED, f"checker raised {exc!r}"
        out.add(latency, outcome, lambda: f"{' '.join(req.argv)}: {detail}",
                verb=req.argv[0])
        if (outcome == CERTIFIED and req.argv[:3] == ("lcm", "--semigroup",
                                                      "frac")
                and text.strip() != "disjoint"):
            # The linear search in the closed form steps once per
            # candidate up to the least common element.
            p_comp = text.split(" ; comp ")[1].split()[0]
            steps += _parse_frac(p_comp)[0] + 1
    out.work = {f"requests_{v}": out.verbs.count(v) for v in CLI_VERBS}
    out.work["frac_steps"] = steps
    out.work["known_defects"] = out.count(DEFECT)
    return out


def _parse_frac(text):
    r, x = text.strip("()").split(",")
    return int(r), int(x)


def _lines_all_pass(text):
    lines = text.strip().splitlines()
    return bool(lines) and all(ln.startswith("RESULT PASS ") for ln in lines)


def _results_well_formed(text):
    lines = text.strip().splitlines()
    return bool(lines) and all(ln.startswith("RESULT ") for ln in lines)


def _judge(rl, req, reply, text):
    """(outcome, detail) for one reply: an exit code or a raised exception
    with the captured standard output."""
    cat = rl.catalog
    kind = req.kind
    if isinstance(reply, BaseException):
        if isinstance(reply, rl.core.IncomparableMultiples) and kind in (
                "lcm_noncoprime", "foundation_noncoprime"):
            if _has_no_lcm(rl, req.argv[2], reply.p, reply.q):
                return DEFECT, "uncaught IncomparableMultiples"
            return FAILED, f"bogus IncomparableMultiples {reply.p!r} {reply.q!r}"
        return FAILED, f"raised {reply!r}"

    if kind == "mul":
        sel, xs = req.expect
        S = cat.get_semigroup(sel)
        want = S.identity
        for x in xs:
            want = S.multiply(want, x)
        return _verdict(reply == 0 and text.strip() == S.display(want), text)

    if kind in ("lcm", "lcm_frac_large", "lcm_noncoprime"):
        sel, p, q = req.expect
        if kind == "lcm_noncoprime" and _has_no_lcm(rl, sel, p, q):
            # A found counterexample is an answer: exit 1 with output.
            return _verdict(reply == 1 and bool(text.strip()), text)
        S = cat.get_semigroup(sel)
        if text.strip() == "disjoint":
            return _verdict(reply == 0 and _disjoint(rl, sel, S, p, q), text)
        lcm_text, _, comps = text.partition(" ; comp ")
        pc_text, qc_text = _split_pair(comps.strip())
        m, pc, qc = (S.parse(t) for t in (lcm_text, pc_text, qc_text))
        ok = reply == 0 and S.multiply(p, pc) == m == S.multiply(q, qc)
        if sel == "frac":
            # Least element of the intersection of two progressions.
            ok &= max(p[0], q[0]) <= m[0] < max(p[0], q[0]) + m[1]
        elif sel.startswith("ftheta:"):
            ok &= _min_multiples(rl, sel, p, q) == [m]
        return _verdict(ok, text)

    if kind == "normalize":
        (sel,) = req.expect
        S, tokens = rl.cli.parse_token_word(sel, req.argv[3])
        mono = rl.star.word_normalize(S, tokens)
        ok = reply == 0 and text.strip() == rl.star.mono_display(S, mono)
        # The operator picture must agree with the collapse on a small ball.
        word = []
        for t in tokens:
            if t.q == S.identity:
                word.append((t.p, False))
            elif t.p == S.identity:
                word.append((t.q, True))
            else:  # e(p) is v(p) v(p)*
                word += [(t.p, False), (t.p, True)]
        ctx = rl.regrep.RepContext(S, rl.core.enumerate_ball(S, 2))
        _, _, bad = rl.regrep.oracle_check_monomial(S, word, ctx)
        return _verdict(ok and not bad, text)

    if kind == "decompose":
        sel, p = req.expect
        left, _, right = text.strip().partition(" ; ")
        if sel.startswith("bs:"):
            word = "" if left == "ε" else left
            back = (tuple(int(ch) for ch in word), int(right))
        else:
            (r, x), (k, j) = _parse_frac(left), _parse_frac(right)
            back = (r + x * k, x * j)
        return _verdict(reply == 0 and back == p, text)

    if kind in ("check_axioms", "relations_model", "relations_product",
                "foundation_transfer"):
        return _verdict(reply == 0 and _lines_all_pass(text), text)

    if kind == "foundation_exact":
        k, F = req.expect
        depth = max(len(f) for f in F)
        words = ("".join(w) for w in itertools.product("012"[:k],
                                                        repeat=depth))
        is_found = all(any(w.startswith(f) for f in F) for w in words)
        return _verdict(reply == (0 if is_found else 1)
                        and _results_well_formed(text), text)

    if kind == "foundation_noncoprime":
        # Every element of the radius-1 ball must have a common right
        # multiple with some member of F; exhaustive search decides each.
        sel, F = req.expect
        ball = _sorted_ball(rl, cat.get_semigroup(sel), 1)[1]
        is_found = all(any(_min_multiples(rl, sel, p, q) for q in F)
                       for p in ball)
        status = "PASS" if is_found else "FAIL"
        return _verdict(reply == (0 if is_found else 1)
                        and text.startswith(f"RESULT {status} foundation ")
                        and _results_well_formed(text), text)

    if kind == "survey":
        m, n = req.expect
        if math.gcd(m, n) == 1:
            return _verdict(reply == 0 and _lines_all_pass(text), text)
        ok = reply == 1 and text.startswith("RESULT FAIL survey-ftheta ")
        T = rl.selfsim.theta_build(m, n)
        pair, _, mults = text.split()[-1].partition("->")
        z1, z2 = _split_pair(pair[len("pair("):-1])
        t1, t2 = mults.split("|")
        zs = [rl.selfsim.ftheta_parse(T, s) for s in (z1, z2)]
        ts = [rl.selfsim.ftheta_parse(T, s) for s in (t1, t2)]
        ok &= ts[0] != ts[1] and all(
            rl.selfsim.ftheta_left_divide(T, z, t) is not None
            for z in zs for t in ts)
        return _verdict(ok, text)

    raise ValueError(kind)


def _verdict(ok, text):
    return (CERTIFIED, "") if ok else (FAILED, f"output {text.strip()[:200]!r}")


def _split_pair(text):
    """Split 'a b' or 'a,b' where either part may contain brackets."""
    depth = 0
    for i, ch in enumerate(text):
        depth += ch in "(["
        depth -= ch in ")]"
        if depth == 0 and ch in " ,":
            return text[:i], text[i + 1:].strip()
    raise ValueError(f"cannot split {text!r}")


def _min_multiples(rl, sel, p, q):
    """The minimal common right multiples of p and q in the two-alphabet
    monoid named by `sel`, by exhaustive search at the joined bidegree."""
    m, n = (int(v) for v in sel[len("ftheta:"):].split(","))
    T = rl.selfsim.theta_build(m, n)
    return rl.selfsim.ftheta_min_common_multiples(T, p, q)


def _has_no_lcm(rl, sel, p, q):
    return len(_min_multiples(rl, sel, p, q)) >= 2


#: Radius of the complement ball that the brute-force disjointness check
#: searches; the checked elements come from radius-2 balls.
DISJOINT_COMPLEMENT_RADIUS = 4


def _disjoint(rl, sel, S, p, q):
    """Check, without the closed form, that two elements have no common
    right multiple: exactly for frac and ftheta, and elsewhere by finding
    no common multiple p*t == q*u with t, u in a radius-4 ball."""
    if sel == "frac":
        (r, x), (s, y) = p, q
        return (s - r) % math.gcd(x, y) != 0
    if sel.startswith("ftheta:"):
        return not _min_multiples(rl, sel, p, q)
    core = rl.core
    complements = core.enumerate_ball(S, DISJOINT_COMPLEMENT_RADIUS)
    oracle = core.BruteForcer(S, complements, complements=complements)
    try:
        return oracle.right_lcm(p, q) is core.DISJOINT
    except (core.BallTooSmall, core.IncomparableMultiples):
        return False   # a common multiple was found


#: name -> (setup, run, check); check is None where run returns the Round.
WORKLOADS = {
    "oracle-crosscheck": (oracle_setup, oracle_run, None),
    "operator-suites": (operator_setup, operator_run, None),
    "cli-requests": (cli_setup, cli_run, cli_check),
}
