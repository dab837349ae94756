"""The benchmark's tracer (`perfbench/tracer.py`) wraps functions of this
package by name and rebuilds every product descriptor that `catalog`
makes through its module name `ZSDescriptor`.  These tests read the
tracer without changing it and check that both hooks still hold."""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

from rlcm import catalog

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


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


@pytest.mark.parametrize("selector", ("nxn", "zxz", "bs:1,2"))
def test_family_lcms_run_through_the_swapped_name(matching_calls, selector):
    made, calls = matching_calls
    S = catalog.get_semigroup(selector)
    assert len(made) == 1
    gens = S.generators
    S.right_lcm(gens[0], gens[-1])
    assert calls
