"""Spans around the public functions of each rlcm module, kept in memory.

`Tracer.install(rl)` patches a freshly imported copy of the package: each
target function is replaced, in every rlcm module that holds a reference to
it, by a wrapper that records a span (name, start, end, parent) while
`recording` is on.  Product descriptors get the same wrapper around their
action, restriction and inverse (the `zs.matching` layer) through the
catalog's constructor.  The source tree is never edited.

Self time is derived as each span's duration minus the part of it covered
by its child spans, and summed per span name.  Calls and self time are
aggregated over every span; only the first `SPAN_CAP` spans are kept for
writing out, because the oracle workload makes millions of calls.
"""

from __future__ import annotations

import dataclasses
import sys
import time

SPAN_CAP = 100_000


def _brute_hook(tracer, args, result, ok):
    tracer.counters["core.brute.certified"] += ok
    if args[0].complements is None:  # ball mode searches on every call
        tracer.counters["core.brute.searches"] += 1


def _search_hook(tracer, args, result, ok):
    tracer.counters["core.brute.searches"] += 1


def _mult_map_hook(tracer, args, result, ok):
    # Each oracle caches its maps, so a new (oracle, element) key is a
    # map that was built.  The key keeps the oracle alive, so its id is
    # never reused within the round.
    tracer.mult_map_keys.add((args[0], args[1]))


def _left_divide_hook(tracer, args, result, ok):
    tracer.counters["zs.left_divide.hits"] += result is not None


def _frac_lcm_hook(tracer, args, result, ok):
    # The closed form steps through r + x*k for k = 0 .. j, where (j, _)
    # is the returned complement of p.
    p_comp = getattr(result, "p_comp", None)
    if p_comp is not None:
        tracer.counters["zoo.frac_right_lcm.steps"] += p_comp[0] + 1


def _compare_hook(tracer, args, result, ok):
    if ok:
        tracer.counters["regrep.op_compare.compared"] += result[0]
        tracer.counters["regrep.op_compare.escaped"] += result[1]


#: (span name, module, attribute, hook) for every wrapped function.
TARGETS = (
    ("core.enumerate_ball", "core", "enumerate_ball", None),
    ("core.brute.right_lcm", "core", "BruteForcer.right_lcm", _brute_hook),
    ("core.brute.search", "core", "BruteForcer._search_complements",
     _search_hook),
    ("core.brute.mult_map", "core", "BruteForcer._mult_map", _mult_map_hook),
    ("zs.multiply", "zs", "zs_multiply", None),
    ("zs.left_divide", "zs", "zs_left_divide", _left_divide_hook),
    ("zs.right_lcm", "zs", "zs_right_lcm", None),
    ("selfsim.ftheta_multiply", "selfsim", "ftheta_multiply", None),
    ("selfsim.ftheta_left_divide", "selfsim", "ftheta_left_divide", None),
    ("selfsim.ssa_act_word", "selfsim", "ssa_act_word", None),
    ("selfsim.survey", "selfsim", "ftheta_right_lcm_survey", None),
    ("zoo.frac_right_lcm", "zoo", "frac_right_lcm", _frac_lcm_hook),
    ("regrep.rep_generator", "regrep", "rep_generator", None),
    ("regrep.op_compose", "regrep", "op_compose", None),
    ("regrep.op_compare", "regrep", "op_compare", _compare_hook),
    ("regrep.monomial_op", "regrep", "monomial_op", None),
    ("star.word_normalize", "star", "word_normalize", None),
    ("star.mono_multiply", "star", "mono_multiply", None),
    ("star.is_foundation_set", "star", "is_foundation_set", None),
    ("boundary.affine_compose", "boundary", "affine_compose", None),
    ("boundary.partition_check", "boundary", "partition_check", None),
    ("boundary.verify_boundary_suite", "boundary", "verify_boundary_suite",
     None),
    ("catalog.get_semigroup", "catalog", "get_semigroup", None),
    ("catalog.get_zs_descriptor", "catalog", "get_zs_descriptor", None),
    ("cli.run", "cli", "run", None),
)
MATCHING = "zs.matching"


class Tracer:
    def __init__(self):
        self.names = []
        self.calls = []
        self.self_s = []
        self.counters = dict.fromkeys(
            ("core.brute.certified", "core.brute.searches",
             "zs.left_divide.hits", "zoo.frac_right_lcm.steps",
             "regrep.op_compare.compared", "regrep.op_compare.escaped"), 0)
        self.mult_map_keys = set()
        self.spans = []      # (seq, name id, start, end, parent seq or -1)
        self.n_spans = 0
        self.recording = False
        self.missing = []    # targets the program no longer has
        self._stack = []     # [seq, time covered by children]

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self.names.index(name)

    def wrap(self, name, fn, hook=None):
        i = self._name_id(name)
        stack, spans, calls, self_s = (self._stack, self.spans, self.calls,
                                       self.self_s)
        perf = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            seq = tracer.n_spans
            tracer.n_spans += 1
            parent = stack[-1][0] if stack else -1
            frame = [seq, 0.0]
            stack.append(frame)
            result, ok = None, False
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = perf()
                stack.pop()
                d = t1 - t0
                calls[i] += 1
                self_s[i] += d - frame[1]
                if stack:
                    stack[-1][1] += d
                if len(spans) < SPAN_CAP:
                    spans.append((seq, i, t0, t1, parent))
                if hook is not None:
                    hook(tracer, args, result, ok)

        return traced

    def install(self, rl):
        """Wrap every target in the freshly imported package `rl`."""
        for name, mod_name, attr, hook in TARGETS:
            mod = getattr(rl, mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                fn = cls.__dict__.get(meth)
                if fn is None:
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                setattr(cls, meth, self.wrap(name, fn, hook))
                continue
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapped = self.wrap(name, fn, hook)
            for m in rl.modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapped)

        make = rl.catalog.ZSDescriptor

        def traced_descriptor(*args, **kwargs):
            D = make(*args, **kwargs)
            return dataclasses.replace(
                D, action=self.wrap(MATCHING, D.action),
                restriction=self.wrap(MATCHING, D.restriction),
                action_inverse=self.wrap(MATCHING, D.action_inverse))

        rl.catalog.ZSDescriptor = traced_descriptor
        for target in self.missing:
            print(f"trace: {target} not found; its spans are absent",
                  file=sys.stderr)

    def calls_of(self, name):
        return self.calls[self.names.index(name)] if name in self.names else 0

    def self_of(self, *names):
        return sum(self.self_s[self.names.index(n)] for n in names
                   if n in self.names)

    def total_self(self):
        return sum(self.self_s)

    def write(self, path):
        """Write the kept spans as tab-separated lines, in start order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(f"# spans kept {len(self.spans)} of {self.n_spans}\n")
            f.write("seq\tname\tstart_s\tend_s\tparent\n")
            for seq, i, t0, t1, parent in sorted(self.spans):
                f.write(f"{seq}\t{self.names[i]}\t{t0:.9f}\t{t1:.9f}\t"
                        f"{parent}\n")
