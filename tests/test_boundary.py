"""Exact affine partial injections and the boundary relation suites."""

import dataclasses
import random
from fractions import Fraction

import pytest

import rlcm.boundary as boundary
from rlcm.boundary import (COVER_ONLY, DISJOINT_ONLY, EMPTY, NEITHER,
                           PARTITION, AffinePI, UnknownModel, affine,
                           affine_adjoint, affine_compose, affine_power,
                           build_model, partition_check, range_projection,
                           scale, shift, verify_boundary_suite,
                           verify_model_isomorphisms)
from rlcm.catalog import add_zs
from rlcm.report import Report


def test_affine_evaluation_and_domain():
    f = affine(3, 1, rho=2, mu=5)  # n -> 3n+1 on 2 (mod 5)
    assert f(7) == 22
    assert f.defined_at(12) and not f.defined_at(3)
    with pytest.raises(ValueError):
        f(3)


def test_constructor_enforces_integrality():
    # A fractional slope arises only as an adjoint, never as input.
    for rho in (0, 1):
        with pytest.raises(TypeError):
            affine(Fraction(1, 2), 0, rho=rho, mu=2)
    with pytest.raises(ValueError):
        affine(0, 1)


def test_compose_solves_the_domain_congruence():
    # (identity on evens) ∘ (n -> 3n+1) is defined where 3n+1 is even.
    even = affine(1, 0, rho=0, mu=2)
    g = affine(3, 1)
    got = affine_compose(even, g)
    assert (got.rho, got.mu) == (1, 2)
    assert got(3) == 10
    # and lands in the empty map when the congruence is unsolvable:
    odd_values = affine(2, 1)  # range is the odds
    assert affine_compose(even, odd_values) is EMPTY


def test_adjoint_inverts_on_the_range():
    s2 = scale(2)  # n -> 2n on all of Z
    adj = affine_adjoint(s2)
    assert (adj.rho, adj.mu) == (0, 2)
    assert str(adj) == "1/2*n+0 on 0(mod 2)"
    assert adj(10) == 5
    # s2* s2 = 1, s2 s2* = identity on the evens
    assert affine_compose(adj, s2) == affine(1, 0)
    assert range_projection(s2) == affine(1, 0, rho=0, mu=2)


def test_powers_and_negative_powers():
    s = shift(1)
    assert affine_power(s, 3) == shift(3)
    assert affine_power(s, -2) == shift(-2)
    assert affine_power(scale(2), 3) == scale(8)


def _random_map(rng, depth=4):
    out = affine(1, 0)
    for _ in range(rng.randint(1, depth)):
        kind = rng.randrange(3)
        if kind == 0:
            out = affine_compose(shift(rng.randint(-3, 3)), out)
        elif kind == 1:
            out = affine_compose(scale(rng.choice((2, 3, -2))), out)
        else:
            out = affine_adjoint(out)
    return out


def test_composition_is_associative_and_adjoint_involutive():
    rng = random.Random(0)
    maps = [_random_map(rng) for _ in range(60)]
    for f, g, h in zip(maps, maps[1:], maps[2:]):
        lhs = affine_compose(affine_compose(f, g), h)
        rhs = affine_compose(f, affine_compose(g, h))
        assert lhs == rhs
    for f in maps:
        assert affine_adjoint(affine_adjoint(f)) == f
        # partial isometry law f f* f == f
        assert affine_compose(f, affine_compose(affine_adjoint(f), f)) == f


def _random_word_map(rng, depth=4):
    """A seeded composite of up to `depth` shifts, scales and their
    adjoints, each step possibly taking the adjoint of the whole."""
    atoms = [shift(k) for k in range(-3, 4)]
    for a in (1, -1, 2, -2, 3, -3):
        atoms += [scale(a), affine_adjoint(scale(a))]
    f = rng.choice(atoms)
    for _ in range(rng.randint(0, depth - 1)):
        g = rng.choice(atoms)
        f = affine_compose(*((f, g) if rng.random() < 0.5 else (g, f)))
        if rng.random() < 0.3:
            f = affine_adjoint(f)
    return f


def test_affine_maps_agree_with_pointwise_evaluation():
    rng = random.Random(7)
    maps = [_random_word_map(rng) for _ in range(30)]
    points = range(-60, 61)
    for f in maps:
        for g in maps:
            fg = affine_compose(f, g)
            for n in points:
                defined = g.defined_at(n) and f.defined_at(g(n))
                assert fg.defined_at(n) == defined, (f, g, n)
                if defined:
                    assert fg(n) == f(g(n)), (f, g, n)
        adj, proj = affine_adjoint(f), range_projection(f)
        for n in points:
            if f.defined_at(n):
                assert adj(f(n)) == n, (f, n)
            assert proj.defined_at(n) == adj.defined_at(n), (f, n)
            if proj.defined_at(n):
                assert proj(n) == n, (f, n)


def test_partition_verdicts():
    def proj(rho, mu):
        return affine(1, 0, rho=rho, mu=mu)

    assert partition_check([proj(0, 2), proj(1, 2)]).status == PARTITION
    assert partition_check([proj(0, 2), proj(1, 2),
                            proj(0, 4)]).status == COVER_ONLY
    assert partition_check([proj(0, 4), proj(1, 4)]).status == DISJOINT_ONLY
    assert partition_check([proj(0, 4), proj(0, 2)]).status == NEITHER
    got = partition_check([proj(0, 3), proj(1, 3)])
    assert got.uncovered == 2


def test_partition_check_rejects_non_projections():
    with pytest.raises(ValueError):
        partition_check([scale(2)])


def test_boundary_suites_pass_exactly():
    wanted = {
        "Q2": {"K1", "K2", "Q1", "Q2"},
        "QN": {"T1", "T2", "T3", "T4", "T5", "Q5", "Q6"},
        "QZ": {"i", "ii", "iii"},
        "BS1n:2": {"K1", "K2", "Q1", "Q2"},
        "BS1n:3": {"K1", "K2", "Q1", "Q2"},
        "NxN": {"K1", "K2", "Q1", "Q2"},
        "ZxZ": {"K1", "K2", "Q1", "Q2"},
    }
    for name, suites in wanted.items():
        report = verify_boundary_suite(name)
        assert report.ok, f"{name}: {report}"
        assert {c.suite for c in report.checks} == suites
    # Q2 is the boundary model of BS(1,2)+: one table, the same lines.
    assert (verify_boundary_suite("Q2").lines()
            == verify_boundary_suite("BS1n:2").lines())


def test_larsen_li_relations_are_instances_of_the_bs12_table():
    gen = build_model("Q2")
    u, s2 = gen["u"], gen["s2"]
    # I: s2 u = u^2 s2, and II: s2 s2* + u s2 s2* u* = 1.
    relation_i = (affine_compose(s2, u),
                  affine_compose(u, affine_compose(u, s2)))
    relation_ii = [range_projection(s2),
                   range_projection(affine_compose(u, s2))]
    assert relation_i[0] == relation_i[1]
    assert partition_check(relation_ii).is_partition
    # With t_1 = u s2, t_0 = s2 and s_1 = u, I is K1 at (1, "1") read
    # right to left, and II is the partition of the level {0, 1}.
    table = boundary._suite_table("BS1n:2")
    k1 = {tag: (lhs, rhs) for lhs, rhs, tag in table["K1"][1]()}
    assert k1["a=1,u=1"] == relation_i[::-1]
    assert list(table["Q2"][1]()) == [(relation_ii, "0+1")]


def _run_suite(table, suite):
    report = Report()
    family, instances = table[suite]
    family(report, suite, instances())
    return report


def test_a_wrong_restriction_fails_k1_with_its_witness():
    # 1 + 1 carries: the true restriction at (1, "1") is 1, not 0.
    bad = dataclasses.replace(add_zs(2), restriction=lambda a, u: 0)
    report = _run_suite(boundary._affine_suites(bad, ["01"], (1,)), "K1")
    assert report.lines() == [
        "RESULT FAIL K1 checked=2 failed=1 "
        "a=1,u=1:2*n+2 on 0(mod 1)!=2*n+0 on 0(mod 1)"]


def test_a_level_missing_a_letter_fails_the_partition():
    table = boundary._affine_suites(add_zs(3), ["01"], (1,))
    report = _run_suite(table, "Q2")
    assert report.lines() == [
        f"RESULT FAIL Q2 checked=1 failed=1 0+1:{DISJOINT_ONLY}"]


def test_suite_filtering():
    report = verify_boundary_suite("QN", suites=("T1", "Q6"))
    assert {c.suite for c in report.checks} == {"T1", "Q6"}


def test_suites_are_selected_before_any_work(monkeypatch):
    import rlcm.boundary as boundary
    calls = []
    real = boundary.affine_compose

    def counted(f, g):
        calls.append(1)
        return real(f, g)

    monkeypatch.setattr(boundary, "affine_compose", counted)
    with pytest.raises(ValueError):
        verify_boundary_suite("QN", suites=("T1", "nope"))
    assert calls == []
    verify_boundary_suite("QN", suites=("Q6",))
    assert len(calls) == 2


def test_model_isomorphism_identities():
    report = verify_model_isomorphisms()
    assert report.ok, str(report)
    counts = {c.suite: c.checked for c in report.checks}
    assert counts == {"QN-NxN": 78, "QZ-ZxZ": 12, "Q2-BS12": 2}


def test_unknown_model_raises():
    # Only the quotient models have a generator map of their own.
    for name in ("nope", "BS1n:2", "NxN", "ZxZ"):
        with pytest.raises(UnknownModel):
            build_model(name)
    with pytest.raises(UnknownModel):
        verify_boundary_suite("BS1n:1")


def test_empty_map_is_absorbing():
    assert affine_compose(EMPTY, shift(1)) is EMPTY
    assert affine_adjoint(EMPTY) is EMPTY
    assert EMPTY.is_empty()
