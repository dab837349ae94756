"""The benchmark's tracer (`perfbench/tracer.py`) wraps functions of this
package by name and rebuilds every product descriptor that `catalog`
makes through its module name `ZSDescriptor`.  These tests read the
tracer without changing it and check that both hooks still hold."""

import dataclasses
import importlib
import importlib.util
import sys
import types
from pathlib import Path

import pytest

from rlcm import catalog

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _targets():
    return _tracer_module().TARGETS


def test_every_tracer_target_resolves():
    for _span, mod_name, attr, _hook in _targets():
        mod = importlib.import_module(f"rlcm.{mod_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            found = vars(getattr(mod, cls_name, object)).get(meth)
        else:
            found = getattr(mod, attr, None)
        assert callable(found), f"{mod_name}.{attr}"


@pytest.fixture
def matching_calls(monkeypatch):
    """Swap `catalog.ZSDescriptor` as the tracer does; returns the list
    of built descriptors and the count of calls of their matchings."""
    made, calls = [], []
    real = catalog.ZSDescriptor

    def counted(f):
        def g(*args):
            calls.append(1)
            return f(*args)
        return g

    def traced(*args, **kwargs):
        D = real(*args, **kwargs)
        D = dataclasses.replace(D, action=counted(D.action),
                                restriction=counted(D.restriction),
                                action_inverse=counted(D.action_inverse))
        made.append(D)
        return D

    monkeypatch.setattr(catalog, "ZSDescriptor", traced)
    return made, calls


@pytest.mark.parametrize("name", catalog.EXAMPLE_ZS_NAMES)
def test_descriptors_are_built_through_the_swapped_name(matching_calls,
                                                        name):
    made, _calls = matching_calls
    assert catalog.get_zs_descriptor(name) is made[-1]


@pytest.mark.parametrize("name", catalog.EXAMPLE_ZS_NAMES)
def test_the_inverse_action_is_one_matching_call(matching_calls, name):
    # Each descriptor reads its inverse action from its own walk; going
    # through the (wrapped) action field would count twice.
    _made, calls = matching_calls
    D = catalog.get_zs_descriptor(name)
    D.action_inverse(D.A.generators[0], D.U.generators[0])
    assert len(calls) == 1


@pytest.mark.parametrize("selector", ("nxn", "zxz", "bs:1,2"))
def test_family_lcms_run_through_the_swapped_name(matching_calls, selector):
    made, calls = matching_calls
    S = catalog.get_semigroup(selector)
    assert len(made) == 1
    gens = S.generators
    S.right_lcm(gens[0], gens[-1])
    assert calls


def test_bs_arithmetic_runs_through_the_swapped_name(matching_calls):
    # bs:c,d multiplies, divides and parses through the one descriptor
    # behind its right LCM, so the matching layer sees all of its work.
    made, calls = matching_calls
    S = catalog.get_semigroup("bs:1,2")
    a, b = S.generators
    ba = S.multiply(b, a)
    for op in (lambda: S.multiply(b, a), lambda: S.left_divide(b, ba),
               lambda: S.parse("b^3*a")):
        before = len(calls)
        op()
        assert len(calls) > before
    assert len(made) == 1


@pytest.fixture
def traced_package():
    """A fresh import of the package with the tracer installed, as the
    benchmark does each round; the copy the other tests use is put back
    afterwards."""
    def ours():
        return [k for k in sys.modules if k == "rlcm" or k.startswith("rlcm.")]

    saved = {k: sys.modules.pop(k) for k in ours()}
    try:
        names = sorted({mod for _, mod, _, _ in _targets()})
        rl = types.SimpleNamespace(
            **{m: importlib.import_module(f"rlcm.{m}") for m in names})
        rl.modules = [sys.modules["rlcm"]] + [getattr(rl, m) for m in names]
        tracer = _tracer_module().Tracer()
        tracer.install(rl)
        yield rl, tracer
    finally:
        for k in ours():
            del sys.modules[k]
        sys.modules.update(saved)


def test_oracle_counters_count_maps_and_searches(traced_package):
    rl, tracer = traced_package
    core = rl.core
    S = rl.catalog.get_semigroup("zs:bs:2,3")
    ball = core.enumerate_ball(S, 2)
    oracle = core.BruteForcer(S, ball, complements=core.enumerate_ball(S, 4))
    pairs = [(p, q) for p in ball for q in ball]
    # Comparable pairs need no search, and the pair cache answers (q, p)
    # from (p, q): each other unordered pair is searched once.
    searched = {frozenset(pair) for pair in pairs
                if S.left_divide(*pair) is None
                and S.left_divide(*reversed(pair)) is None}
    assert searched
    tracer.recording = True
    for p, q in pairs:
        try:
            oracle.right_lcm(p, q)
        except (core.BallTooSmall, core.IncomparableMultiples):
            pass
    tracer.recording = False
    assert tracer.missing == []
    assert len(tracer.mult_map_keys) == len(set().union(*searched))
    assert tracer.counters["core.brute.searches"] == len(searched)


@pytest.mark.parametrize("name", catalog.EXAMPLE_ZS_NAMES)
def test_product_operations_are_one_span_each(traced_package, name):
    # A product built after the tracer installs reaches the wrapped module
    # functions, so each of its operations is one span of its layer.
    rl, tracer = traced_package
    P = rl.zs.zs_semigroup(rl.catalog.get_zs_descriptor(name))
    p, q = P.generators[0], P.generators[-1]
    pq = P.multiply(p, q)
    spans = ("zs.multiply", "zs.left_divide", "zs.right_lcm")
    counts = []
    tracer.recording = True
    for op, args in ((P.multiply, (p, q)), (P.left_divide, (p, pq)),
                     (P.right_lcm, (p, q))):
        op(*args)
        counts.append([tracer.calls_of(s) for s in spans])
    tracer.recording = False
    assert counts == [[1, 0, 0], [1, 1, 0], [1, 1, 1]]


@pytest.mark.parametrize("name", ("ftheta:2,3", "nxn"))
def test_traced_descriptors_read_the_wrapped_fields(traced_package, name):
    # The tracer rebuilds each descriptor with wrapped fields, so the
    # product composes its fused maps from them: two zs.matching calls per
    # product, two per quotient whose U-part divides (none when it does
    # not), and four per lifted LCM, as when the product read the three
    # fields one at a time.
    rl, tracer = traced_package
    P = rl.zs.zs_semigroup(rl.catalog.get_zs_descriptor(name))
    p, q = P.generators[0], P.generators[-1]
    pq = P.multiply(p, q)
    counts = []
    tracer.recording = True
    for op, args in ((P.multiply, (p, q)), (P.left_divide, (p, pq)),
                     (P.left_divide, (p, P.generators[1])),
                     (P.right_lcm, (p, q))):
        before = tracer.calls_of("zs.matching")
        op(*args)
        counts.append(tracer.calls_of("zs.matching") - before)
    tracer.recording = False
    assert counts == [2, 2, 0, 4]
