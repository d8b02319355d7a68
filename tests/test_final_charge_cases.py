"""Every case of the per-element final-charge analysis, one gadget each."""

from fractions import Fraction

import pytest

from charge_fixtures import beta_family, beta_proof_cases, build_cases
from dpcharge.discharge import RuleSet, audit, run_rules
from dpcharge.structure import classify_vertices

CASES = build_cases()


@pytest.mark.parametrize("case", CASES, ids=[c.name for c in CASES])
def test_focal_environment_matches_case(case):
    assert case.environment(case.graph), "gadget does not realize its case"


@pytest.mark.parametrize("case", CASES, ids=[c.name for c in CASES])
def test_focal_final_charge(case):
    mu = audit(run_rules(case.graph, case.ruleset)).final[case.focal]
    assert mu >= 0
    if case.expected is not None:
        assert mu == case.expected


@pytest.mark.parametrize("name,graph,fid", beta_proof_cases(),
                         ids=[n for n, _, _ in beta_proof_cases()])
def test_beta_proof_cases_exact(name, graph, fid):
    assert run_rules(graph, RuleSet.RS48).betas[fid] == Fraction(1, 3)


@pytest.mark.parametrize("name,graph,fid", beta_family(),
                         ids=[n for n, _, _ in beta_family()])
def test_beta_family_lower_bound(name, graph, fid):
    f = graph.faces[fid]
    cls = classify_vertices(graph)
    # the lemma's hypotheses, mechanized
    assert any(v in cls.special for v in f.vertex_set)
    tris = [x for x in graph.adjacent_faces(f) if x.degree == 3]
    assert len(tris) == 1
    threes = [v for v in f.vertex_set if graph.degree(v) == 3]
    bads = [v for v in threes if v in cls.bad3]
    assert len(threes) <= 2 or (len(threes) == 3 and len(bads) >= 2)
    assert run_rules(graph, RuleSet.RS48).betas[fid] >= Fraction(1, 3)
