"""Command-line front end.

Verbs: mul, lcm, normalize, check-axioms, check-relations, foundation,
survey-ftheta, decompose.  Check-style verbs print one line per suite in
the shared format

    RESULT <PASS|FAIL|UNDECIDED> <suite> checked=N failed=M [witness ...]

and the exit code is 0 when nothing failed, 1 on FAIL, 2 on bad input.
"""

from __future__ import annotations

import argparse
import re
import sys

from . import boundary, catalog, zoo
from .core import (DISJOINT, BruteForcer, IncomparableMultiples,
                   enumerate_ball)
from .report import FAIL, Report
from .selfsim import ftheta_right_lcm_survey, theta_build
from .star import VV, is_foundation_set, mono_display, word_normalize
from .zs import zs_axiom_check


#: Every flag, with its argparse settings; each verb takes only those it
#: reads.
FLAGS = {
    "semigroup": {"default": None},
    "model": {"default": None},
    "suite": {"default": None},
    "radius": {"type": int, "default": 3},
    "bidegree": {"default": "2,2"},
    "mode": {"choices": ("exact", "bounded"), "default": "bounded"},
}


def build_parser():
    top = argparse.ArgumentParser(prog="rlcm", description=__doc__)
    sub = top.add_subparsers(dest="verb", required=True)

    def verb(name, help_text, *flags, args=None):
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(f"--{flag}", **FLAGS[flag])
        if args is not None:
            p.add_argument("args", nargs=args)

    verb("mul", "multiply elements", "semigroup", args="+")
    verb("lcm", "right LCM of two elements", "semigroup", "radius", args=2)
    verb("normalize", "collapse a *-token word", "semigroup", "radius",
         args=1)
    verb("check-axioms", "product matching axioms", "semigroup", "radius")
    verb("check-relations", "relation suites", "model", "suite",
         "semigroup", "radius")
    verb("foundation", "foundation-set check", "semigroup", "mode",
         "radius", args="+")
    verb("survey-ftheta", "right-LCM survey", "semigroup", "bidegree")
    verb("decompose", "factor through the product", "semigroup", args=1)
    return top


def parse_element(selector, text):
    S = catalog.get_semigroup(selector)
    if S.parse is None:
        raise zoo.ParseError(f"{selector} has no element grammar")
    return S.parse(text)


TOKEN_RE = re.compile(r"^([vtse])\((.*)\)(\*)?$")


def parse_token_word(selector, text):
    """Token word over v(p) / t(u) / s(a) / e(p), each optionally starred.

    For product selectors (zs:...), t and s name elements of the two
    factors; elsewhere all letters share the element grammar.
    """
    S = catalog.get_semigroup(selector)
    D = catalog.get_zs_descriptor(selector[3:]) \
        if selector.startswith("zs:") else None
    out = []
    for tok in text.split():
        m = TOKEN_RE.match(tok)
        if not m:
            raise zoo.ParseError(f"bad token {tok!r}")
        letter, inner, star = m.group(1), m.group(2), m.group(3)
        if D is not None and letter == "t":
            p = (_parse_flex(D.U, inner), D.A.identity)
        elif D is not None and letter == "s":
            p = (D.U.identity, _parse_flex(D.A, inner))
        else:
            p = _parse_flex(S, inner)
        if letter == "e":
            if star:
                raise zoo.ParseError("projections are self-adjoint; no *")
            out.append(VV(p, p))
        elif star:
            out.append(VV(S.identity, p))
        else:
            out.append(VV(p, S.identity))
    return S, out


def _parse_flex(S, inner):
    try:
        return S.parse(inner)
    except Exception:
        return S.parse(f"({inner})")


def _lcm_fn(S, radius):
    if S.right_lcm is not None:
        return S.right_lcm
    brute = BruteForcer(S, enumerate_ball(S, max(2 * radius, 4)))
    return brute.right_lcm


def run(argv=None):
    ns = build_parser().parse_args(argv)
    try:
        return _dispatch(ns)
    except (zoo.ParseError, boundary.UnknownModel, KeyError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def _need(ns, field):
    value = getattr(ns, field)
    if value is None:
        raise ValueError(f"--{field} is required for {ns.verb}")
    return value


def _finish(report):
    for line in report.lines():
        print(line)
    return 1 if any(c.status == FAIL for c in report.checks) else 0


def _dispatch(ns):
    if ns.verb == "mul":
        sel = _need(ns, "semigroup")
        S = catalog.get_semigroup(sel)
        out = S.identity
        for text in ns.args:
            out = S.multiply(out, parse_element(sel, text))
        print(S.display(out))
        return 0

    if ns.verb == "lcm":
        sel = _need(ns, "semigroup")
        S = catalog.get_semigroup(sel)
        p, q = (parse_element(sel, t) for t in ns.args)
        try:
            got = _lcm_fn(S, ns.radius)(p, q)
        except IncomparableMultiples as e:
            # A found counterexample: two minimal common multiples.
            print("incomparable "
                  + " ".join(S.display(w) for w in e.witnesses))
            return 1
        if got is DISJOINT:
            print("disjoint")
        else:
            print(f"{S.display(got.lcm)} ; comp {S.display(got.p_comp)} "
                  f"{S.display(got.q_comp)}")
        return 0

    if ns.verb == "normalize":
        sel = _need(ns, "semigroup")
        S, tokens = parse_token_word(sel, ns.args[0])
        mono = word_normalize(S, tokens, lcm=_lcm_fn(S, ns.radius))
        print(mono_display(S, mono))
        return 0

    if ns.verb == "check-axioms":
        sel = _need(ns, "semigroup")
        if not sel.startswith("zs:"):
            raise ValueError("check-axioms needs a zs:<name> selector")
        D = catalog.get_zs_descriptor(sel[3:])
        report = zs_axiom_check(D, enumerate_ball(D.U, ns.radius),
                                enumerate_ball(D.A, ns.radius))
        return _finish(report)

    if ns.verb == "check-relations":
        if ns.model is not None:
            suites = None if ns.suite in (None, "boundary", "all") \
                else tuple(ns.suite.split(","))
            return _finish(boundary.verify_boundary_suite(ns.model, suites))
        sel = _need(ns, "semigroup")
        if not sel.startswith("zs:"):
            raise ValueError("check-relations needs --model or zs:<name>")
        from .regrep import verify_relations
        D = catalog.get_zs_descriptor(sel[3:])
        report = Report()
        for suite in (ns.suite.split(",") if ns.suite
                      else ("Li", "covariance", "K")):
            report.extend(verify_relations(D, radius=ns.radius, suite=suite))
        return _finish(report)

    if ns.verb == "foundation":
        sel = _need(ns, "semigroup")
        S = catalog.get_semigroup(sel)
        F = [parse_element(sel, t) for t in ns.args]
        if ns.mode == "exact":
            verdict = is_foundation_set(S, F, "exact")
        else:
            ball = enumerate_ball(S, ns.radius)
            verdict = is_foundation_set(S, F, "bounded", ball=ball,
                                        lcm=_lcm_fn(S, ns.radius))
        report = Report()
        report.add("foundation", len(F),
                   [] if verdict.ok else [f"{verdict.status}"
                                          f"({S.display(verdict.witness)})"
                                          if verdict.witness is not None
                                          else verdict.status],
                   undecided=verdict.status == "UndecidedBeyondBall")
        return _finish(report)

    if ns.verb == "survey-ftheta":
        sel = _need(ns, "semigroup")
        if not sel.startswith("ftheta:"):
            raise ValueError("survey-ftheta needs an ftheta:m,n selector")
        m, n = (int(x) for x in sel[7:].split(","))
        box = tuple(int(x) for x in ns.bidegree.split(","))
        verdict = ftheta_right_lcm_survey(theta_build(m, n), box)
        report = Report()
        if verdict.ok:
            report.add("survey-ftheta", verdict.checked_pairs, [])
        else:
            from .selfsim import ftheta_display
            z1, z2 = verdict.pair
            t1, t2 = verdict.multiples
            report.add("survey-ftheta", verdict.checked_pairs,
                       [f"pair({ftheta_display(z1)},{ftheta_display(z2)})"
                        f"->{ftheta_display(t1)}|{ftheta_display(t2)}"])
        return _finish(report)

    if ns.verb == "decompose":
        sel = _need(ns, "semigroup")
        S = catalog.get_semigroup(sel)
        p = parse_element(sel, ns.args[0])
        affine = {"nxn": zoo.nxn_decompose, "zxz": zoo.zxz_decompose}
        if sel in affine:
            u, a = affine[sel](p)
            print(f"({u[0]},{u[1]}) ; ({a[0]},{a[1]})")
        elif sel.startswith("bs:"):
            alphas, beta = p
            word = "".join(str(k) for k in alphas)
            print(f"{word if word else 'ε'} ; {beta}")
        else:
            raise ValueError(f"decompose does not support {sel}")
        return 0

    raise ValueError(f"unknown verb {ns.verb!r}")


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
