"""Command-line front end.

Verbs: mul, lcm, normalize, check-axioms, check-relations, foundation,
survey-ftheta, decompose.  Check-style verbs print one line per suite in
the shared format

    RESULT <PASS|FAIL> <suite> checked=N failed=M [witness ...]

and the exit code is 0 when nothing failed, 1 on FAIL or on a found
counterexample to the right-LCM property, 2 on bad input, work past a
cap (AXIOM_MAX_CHECKS, RELATIONS_MAX_BASIS, FOUNDATION_MAX_BALL)
included, and 141 (128 + SIGPIPE), with nothing on stderr, when standard
output is closed before the answer, or the help, is written.  `run`
returns the exit code for every error it raises itself; an argparse
usage error raises SystemExit(2), as in any argparse program.  `VERBS`
and `FLAGS` are the one table of the grammar: `parse` reads a plain
request straight from them, and builds the argparse parser only for help
or a request it does not read itself.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys

from . import boundary, catalog, zoo
from .core import (DISJOINT, BallTooLarge, IncomparableMultiples,
                   enumerate_ball)
from .regrep import SUITES, verify_relations
from .report import FAIL, Report
from .selfsim import ftheta_display, ftheta_right_lcm_survey, theta_build
from .star import VV, is_foundation_set, mono_display, word_normalize
from .zs import zs_axiom_check, zs_semigroup


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


#: Every verb: its help line, the flags it reads and the nargs of its
#: positional arguments (None: it takes none).
VERBS = {
    "mul": ("multiply elements", ("semigroup",), "+"),
    "lcm": ("right LCM of two elements", ("semigroup", "radius"), 2),
    "normalize": ("collapse a *-token word", ("semigroup",), 1),
    "check-axioms": ("product matching axioms", ("semigroup", "radius"),
                     None),
    "check-relations": ("relation suites",
                        ("model", "suite", "semigroup", "radius"), None),
    "foundation": ("foundation-set check", ("semigroup", "mode", "radius"),
                   "+"),
    "survey-ftheta": ("right-LCM survey", ("semigroup", "bidegree"), None),
    "decompose": ("factor through the product", ("semigroup",), 1),
}

#: Flags a verb accepts without reading them, with the help that says so.
IGNORED = {("lcm", "radius"): "accepted and ignored: the right LCM is exact"}

#: The most axiom instances `check-axioms` evaluates, |A|²·|U| + |A|·|U|²
#: over its two balls; about a microsecond each.
AXIOM_MAX_CHECKS = 2_000_000

#: The largest basis `check-relations` builds a product's tables on; the
#: Li suite's work grows with its cube.
RELATIONS_MAX_BASIS = 250

#: The largest ball `foundation --mode bounded` sweeps; radius 3 of
#: free:36 has 47,989 elements.
FOUNDATION_MAX_BALL = 100_000


def _most_balls(n):
    """The largest m with n·m·(n + m) <= AXIOM_MAX_CHECKS: the most
    elements one ball of `check-axioms` may hold when the other holds n."""
    return (math.isqrt(n ** 4 + 4 * n * AXIOM_MAX_CHECKS) - n * n) // (2 * n)


class _Parser(argparse.ArgumentParser):
    """argparse's parser, except that help written to a closed stdout
    raises, as any other answer does; argparse swallows the error."""

    def print_help(self, file=None):
        (sys.stdout if file is None else file).write(self.format_help())


def build_parser():
    """The parser of every verb, as `rlcm --help` shows it."""
    top = _Parser(prog="rlcm", description=__doc__)
    sub = top.add_subparsers(dest="verb", required=True)
    for verb, (help_text, flags, nargs) in VERBS.items():
        p = sub.add_parser(verb, help=help_text)
        for flag in flags:
            p.add_argument(f"--{flag}", **FLAGS[flag],
                           help=IGNORED.get((verb, flag)))
        if nargs is not None:
            p.add_argument("args", nargs=nargs)
    return top


def parse(argv):
    """The namespace of one request, equal to what `build_parser` reads.

    A request in plain form is read straight from `VERBS` and `FLAGS`: a
    verb; exact `--flag value` pairs for the flags that verb takes, each
    value read by the flag's `type` and `choices`, the last one winning;
    and one unbroken run of positionals as many as the verb's nargs.  No
    other word may start with `-`.  Every other request (help, `=`,
    abbreviations, `--`, words that start with `-`, miscounted or split
    positionals, values that do not read) goes to the whole parser,
    which reads it or prints the usage and error it always has."""
    ns = _read_plain(argv)
    return build_parser().parse_args(argv) if ns is None else ns


def _read_plain(argv):
    """The namespace of a request in plain form, or None."""
    if not argv or argv[0] not in VERBS:
        return None
    verb = argv[0]
    _help, flags, nargs = VERBS[verb]
    values = {flag: FLAGS[flag]["default"] for flag in flags}
    args, run_over = [], False
    i = 1
    while i < len(argv):
        word = argv[i]
        if not word.startswith("-"):
            if run_over:
                return None
            args.append(word)
            i += 1
            continue
        flag = word[2:]
        if (word[:2] != "--" or flag not in values or i + 1 == len(argv)
                or argv[i + 1].startswith("-")):
            return None
        spec = FLAGS[flag]
        try:
            value = spec.get("type", str)(argv[i + 1])
        except (TypeError, ValueError):
            return None
        if value not in spec.get("choices", (value,)):
            return None
        values[flag] = value
        run_over = bool(args)
        i += 2
    if nargs is None:
        if args:
            return None
    elif not args if nargs == "+" else len(args) != nargs:
        return None
    else:
        values["args"] = args
    return argparse.Namespace(verb=verb, **values)


TOKEN_RE = re.compile(r"^([vtse])\((.*)\)(\*)?$")


def parse_token_word(selector, text):
    """Token word over v(p) / t(u) / s(a) / e(p), each optionally starred.

    For product selectors (zs:...), t and s name elements of the two
    factors; elsewhere all letters share the element grammar.
    """
    if selector.startswith("zs:"):
        D = catalog.descriptor_of(selector)
        S = zs_semigroup(D)
    else:
        S, D = catalog.get_semigroup(selector), None
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
    except ValueError as first:
        try:
            return S.parse(f"({inner})")
        except ValueError:
            raise first from None


def _incomparable(S, e):
    """A found counterexample: two minimal common multiples, exit 1."""
    print("incomparable " + " ".join(S.display(w) for w in e.witnesses))
    return 1


def run(argv=None):
    ns = parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return _dispatch(ns)
    except ValueError as e:
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
            out = S.multiply(out, S.parse(text))
        print(S.display(out))
        return 0

    if ns.verb == "lcm":
        sel = _need(ns, "semigroup")
        S = catalog.get_semigroup(sel)
        p, q = map(S.parse, ns.args)
        try:
            got = S.right_lcm(p, q)
        except IncomparableMultiples as e:
            return _incomparable(S, e)
        if got is DISJOINT:
            print("disjoint")
        else:
            print(f"{S.display(got.lcm)} ; comp {S.display(got.p_comp)} "
                  f"{S.display(got.q_comp)}")
        return 0

    if ns.verb == "normalize":
        sel = _need(ns, "semigroup")
        S, tokens = parse_token_word(sel, ns.args[0])
        try:
            mono = word_normalize(S, tokens)
        except IncomparableMultiples as e:
            return _incomparable(S, e)
        print(mono_display(S, mono))
        return 0

    if ns.verb == "check-axioms":
        sel = _need(ns, "semigroup")
        if not sel.startswith("zs:"):
            raise ValueError("check-axioms needs a zs:<name> selector")
        D = catalog.descriptor_of(sel)
        try:
            # |U| >= 1, so the A ball alone bounds the work from below.
            avs = enumerate_ball(D.A, ns.radius, _most_balls(1))
            us = enumerate_ball(D.U, ns.radius, _most_balls(len(avs)))
        except BallTooLarge:
            raise ValueError(f"check-axioms on {sel} at --radius {ns.radius} "
                             f"makes more than the cap of "
                             f"{AXIOM_MAX_CHECKS} checks") from None
        return _finish(zs_axiom_check(D, us, avs))

    if ns.verb == "check-relations":
        suites = None if ns.suite is None else tuple(ns.suite.split(","))
        if ns.model is not None:
            return _finish(boundary.verify_boundary_suite(ns.model, suites))
        sel = _need(ns, "semigroup")
        if not sel.startswith("zs:"):
            raise ValueError("check-relations needs --model or zs:<name>")
        unknown = sorted(set(suites or ()) - set(SUITES))
        if unknown:
            raise ValueError(f"{sel} has no suite {', '.join(unknown)}")
        D = catalog.descriptor_of(sel)
        report = Report()
        try:
            for suite in suites or SUITES:
                report.extend(verify_relations(D, ns.radius, suite,
                                               RELATIONS_MAX_BASIS))
        except IncomparableMultiples as e:
            return _incomparable(zs_semigroup(D), e)
        except BallTooLarge:
            raise ValueError(f"the radius-{ns.radius} basis of {sel} has more "
                             f"than the cap of {RELATIONS_MAX_BASIS} "
                             f"elements") from None
        return _finish(report)

    if ns.verb == "foundation":
        sel = _need(ns, "semigroup")
        S = catalog.get_semigroup(sel)
        F = [S.parse(t) for t in ns.args]
        if ns.mode == "exact":
            verdict = is_foundation_set(S, F, "exact")
        else:
            # Past the cap, BallTooLarge (a ValueError) exits 2.
            ball = enumerate_ball(S, ns.radius, FOUNDATION_MAX_BALL)
            verdict = is_foundation_set(S, F, "bounded", ball=ball)
        report = Report()
        report.add("foundation", len(F), [] if verdict.ok else [
            f"{verdict.status}({S.display(verdict.witness)})"])
        return _finish(report)

    if ns.verb == "survey-ftheta":
        sel = _need(ns, "semigroup")
        if not sel.startswith("ftheta:"):
            raise ValueError("survey-ftheta needs an ftheta:m,n selector")
        m, n = catalog.ints(sel, sel[7:], "m,n", least=2)
        box = catalog.ints(f"--bidegree {ns.bidegree}", ns.bidegree, "P,Q")
        verdict = ftheta_right_lcm_survey(theta_build(m, n), box)
        report = Report()
        if verdict.ok:
            report.add("survey-ftheta", verdict.checked_pairs, [])
        else:
            z1, z2 = verdict.pair
            t1, t2 = verdict.multiples
            report.add("survey-ftheta", verdict.checked_pairs,
                       [f"pair({ftheta_display(z1)},{ftheta_display(z2)})"
                        f"->{ftheta_display(t1)}|{ftheta_display(t2)}"])
        return _finish(report)

    if ns.verb == "decompose":
        sel = _need(ns, "semigroup")
        p = catalog.get_semigroup(sel).parse(ns.args[0])
        D, split, _join = catalog.product_form(sel)
        u, a = split(p)
        # The shift k of N x| Nx shows as the affine map (k,1).
        shown = zoo.pair_display((a, 1)) if sel == "nxn" else D.A.display(a)
        print(f"{D.U.display(u)} ; {shown}")
        return 0

    raise ValueError(f"unknown verb {ns.verb!r}")


def main():
    try:
        try:
            code = run()
        except SystemExit as e:  # help, or a usage error, from argparse
            code = e.code
        sys.stdout.flush()
    except BrokenPipeError:
        # Nobody reads the answer: point stdout at devnull, so that the
        # flush at exit fails no more, and exit as a SIGPIPE would.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    main()
