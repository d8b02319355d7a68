"""The graph-analysis core against the direct definitions it replaces.

Face adjacency comes from dart reversal, the hypothesis witnesses from
a one-pass least-cycle search, and the audit looks reducible configurations
up by vertex; each is checked here against a plain rescan.  Each
forbidden-cycle length is searched once per graph, and the vertex
classification is computed once per graph.
"""

import pytest

from charge_fixtures import fraction_replay
from dpcharge.catalog import DEFAULT_CATALOG, generate
from dpcharge import structure
from dpcharge.cycles import cycles_of_length, least_cycles
from dpcharge.discharge import RuleSet, audit, run_rules
from dpcharge.structure import Profile, check_profile, classify_vertices, find_reducible

GRAPHS = DEFAULT_CATALOG + (
    "cycle:3", "cycle:4", "cycle:6", "cycle:8", "cycle:12",
    "theta:0,1,2", "theta:1,1,1", "theta:2,2,2", "theta:1,3,5", "theta:2,4,6",
)


@pytest.fixture(scope="module", params=GRAPHS)
def graph(request):
    return generate(request.param)


@pytest.mark.parametrize("k", range(3, 9))
def test_find_cycle_is_first_enumerated(graph, k):
    listed = cycles_of_length(graph, k)
    assert list(listed) == sorted(listed)
    assert least_cycles(graph, [k]) == {k: listed[0] if listed else None}


def _edges(face):
    return {(min(u, v), max(u, v)) for u, v in face.walk}


def test_adjacent_faces_match_shared_edges(graph):
    for f in graph.faces:
        expected = [h for h in graph.faces if h.id != f.id and _edges(f) & _edges(h)]
        assert list(graph.adjacent_faces(f)) == expected


@pytest.mark.parametrize("profile", list(Profile))
def test_check_profile_computed_once(graph, profile, monkeypatch):
    first = check_profile(graph, profile)
    searched = []
    monkeypatch.setattr(structure, "least_cycles", lambda g, ks: searched.extend(ks))
    assert check_profile(graph, profile) == first
    assert not searched
    four = cycles_of_length(graph, 4)
    other = cycles_of_length(graph, profile.forbidden_lengths[1])
    assert first.four_cycle == (four[0] if four else None)
    assert first.other_cycle == (other[0] if other else None)


def test_each_cycle_length_searched_once_per_graph(monkeypatch):
    searched = []

    def counted(g, ks):
        searched.append(list(ks))
        return least_cycles(g, ks)

    monkeypatch.setattr(structure, "least_cycles", counted)
    for name in GRAPHS:
        g = generate(name)
        searched.clear()
        no48 = check_profile(g, Profile.NO48)
        no46 = check_profile(g, Profile.NO46)
        assert searched == [[4, 8], [6]], name
        assert no48.four_cycle == no46.four_cycle == least_cycles(g, [4])[4], name


def test_classify_vertices_computed_once(graph):
    first = classify_vertices(graph)
    assert classify_vertices(graph) is first
    threes = {v for v in graph.vertices() if graph.degree(v) == 3}
    bad = {v for v in threes if any(graph.degree(u) == 3 for u in graph.neighbors(v))}
    assert (first.bad3, first.good3) == (bad, threes - bad)


@pytest.mark.parametrize("rules", list(RuleSet))
def test_audit_negatives_match_rescan(graph, rules):
    if not graph.is_connected:
        pytest.skip("discharging needs a connected graph")
    ledger = run_rules(graph, rules)
    report = audit(ledger)
    final = fraction_replay(ledger)
    assert report.final == final
    assert {n.key for n in report.negatives} == {k for k, x in final.items() if x < 0}
    reducible = find_reducible(graph)
    for n in report.negatives:
        index = int(n.key[1:])
        if n.key.startswith("v"):
            near = {index} | set(graph.neighbors(index))
        else:
            near = set(graph.faces[index].vertex_set)
        assert n.nearby_reducible == tuple(r for r in reducible if near & set(r.vertices))
