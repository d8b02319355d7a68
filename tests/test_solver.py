from collections import Counter
from itertools import permutations
from random import Random

import pytest

from dpcharge.cover import Cover, identity_cover, random_cover
from dpcharge.catalog import generate
from dpcharge.oracle import brute_ba, brute_defective
from dpcharge.planegraph import build_plane_graph
from dpcharge.solver import (BAReport, BAViolation, DefectVector, OrderedTransversal, SearchStatus,
                             find_ba, find_defective_dp,
                             structure_of_transversal, verify_ba,
                             verify_defective)

from test_cover import neighbors_by_definition

EDGE = build_plane_graph({0: [1], 1: [0]})
P3 = build_plane_graph({0: [1], 1: [0, 2], 2: [1]})
K3 = build_plane_graph({0: [1, 2], 1: [2, 0], 2: [0, 1]})
STAR3 = build_plane_graph({0: [1, 2, 3], 1: [0], 2: [0], 3: [0]})


def paper_cover() -> Cover:
    """The rejected 3-node pattern: (y,2) matched to (x,1) and (z,1),
    with nothing else to choose."""
    return Cover(P3, 1, ((1,), (2,), (1,)),
                 {(0, 1): ((1, 2),), (1, 2): ((2, 1),)})


def test_verify_defective_k3_proper():
    report = verify_defective(identity_cover(K3, 3), {0: 1, 1: 2, 2: 3},
                              DefectVector((0, 0, 0)))
    assert report.passed


def test_verify_defective_star_overload():
    report = verify_defective(identity_cover(STAR3, 3),
                              {0: 2, 1: 2, 2: 2, 3: 2}, DefectVector((0, 2, 2)))
    assert not report.passed
    assert (0, 2, 3, 2) in report.violations  # center: degree 3 > budget 2


def test_verify_defective_single_edge_color1():
    report = verify_defective(identity_cover(EDGE, 3), {0: 1, 1: 1},
                              DefectVector((0, 2, 2)))
    assert not report.passed


def test_verify_defective_rejects_non_transversal():
    with pytest.raises(ValueError, match="transversal"):
        verify_defective(identity_cover(EDGE, 3), {0: 1}, DefectVector((0, 2, 2)))


def test_find_defective_k4():
    out = find_defective_dp(identity_cover(generate("k4"), 3), DefectVector((0, 2, 2)))
    assert out.status is SearchStatus.FOUND


def test_find_defective_c5_proper():
    out = find_defective_dp(identity_cover(generate("cycle:5"), 3),
                            DefectVector((0, 0, 0)))
    assert out.status is SearchStatus.FOUND


def test_find_defective_single_vertex():
    g = build_plane_graph({0: []})
    out = find_defective_dp(identity_cover(g, 3), DefectVector((0, 2, 2)))
    assert out.status is SearchStatus.FOUND and out.transversal == {0: 1}


def test_find_defective_none_is_definitive():
    # K3 with identity cover cannot be properly 1-colored... use budgets 0
    out = find_defective_dp(identity_cover(K3, 1), DefectVector((0,)))
    assert out.status is SearchStatus.NONE


def test_find_defective_budget_exhausted():
    out = find_defective_dp(identity_cover(generate("dodecahedron"), 3),
                            DefectVector((0, 0, 0)), node_limit=3)
    assert out.status is SearchStatus.EXHAUSTED


def test_verify_ba_paper_example_all_orders_fail():
    cover = paper_cover()
    t = {0: 1, 1: 2, 2: 1}
    nodes = [(0, 1), (1, 2), (2, 1)]
    for perm in permutations(nodes):
        report = verify_ba(cover, OrderedTransversal(t, perm))
        assert not report.passed
        assert report.violation.condition in (1, 2)


def test_verify_ba_single_edge():
    c = identity_cover(EDGE, 3)
    ok = verify_ba(c, OrderedTransversal({0: 1, 1: 2}, ((0, 1), (1, 2))))
    assert ok.passed  # no cover edge between (0,1) and (1,2)
    bad = verify_ba(c, OrderedTransversal({0: 1, 1: 1}, ((0, 1), (1, 1))))
    assert not bad.passed and bad.violation.condition == 1


def test_verify_ba_condition2_load():
    # the last leaf's unique left neighbor (the hub) is already adjacent
    # to two earlier nodes, breaking the second condition
    c = identity_cover(STAR3, 3)
    t = {0: 2, 1: 2, 2: 2, 3: 2}
    order = ((1, 2), (0, 2), (2, 2), (3, 2))
    report = verify_ba(c, OrderedTransversal(t, order))
    assert not report.passed
    assert report.violation.condition == 2
    assert report.violation.node == (3, 2)


def test_order_must_match_transversal():
    c = identity_cover(EDGE, 3)
    with pytest.raises(ValueError, match="permutation"):
        OrderedTransversal({0: 1, 1: 2}, ((0, 1), (1, 3)))


def test_find_ba_c5_identity():
    out = find_ba(identity_cover(generate("cycle:5"), 3))
    assert out.status is SearchStatus.FOUND
    assert brute_ba(identity_cover(generate("cycle:5"), 3)).status is SearchStatus.FOUND


def test_find_ba_paper_example_none():
    assert find_ba(paper_cover()).status is SearchStatus.NONE


def test_find_ba_single_vertex():
    g = build_plane_graph({0: []})
    out = find_ba(identity_cover(g, 3))
    assert out.status is SearchStatus.FOUND
    assert out.ordered.order == ((0, 1),)


def _outcome(finder: str, cover: Cover) -> tuple:
    """(status, placed nodes or None, nodes expanded) of either finder."""
    if finder == "ba":
        out = find_ba(cover)
        return out.status, out.ordered and out.ordered.order, out.nodes_expanded
    out = find_defective_dp(cover, DefectVector((0, 2, 2)))
    return out.status, out.transversal, out.nodes_expanded


@pytest.mark.parametrize("finder", ["ba", "defect"])
def test_search_without_vertices_finds_the_empty_transversal(finder):
    status, placed, expanded = _outcome(finder, identity_cover(build_plane_graph({}), 3))
    assert (status, len(placed), expanded) == (SearchStatus.FOUND, 0, 0)


@pytest.mark.parametrize("finder", ["ba", "defect"])
def test_search_with_an_empty_list_is_none_before_any_placement(finder):
    # the leaf 2 comes last in the defective search's fixed order, so only
    # the check before the first placement keeps the count at 0
    cover = Cover(P3, 3, ((1, 2, 3), (1, 2, 3), ()), {})
    assert _outcome(finder, cover) == (SearchStatus.NONE, None, 0)


def test_find_ba_budget_exhausted():
    out = find_ba(identity_cover(generate("dodecahedron"), 3), node_limit=2)
    assert out.status is SearchStatus.EXHAUSTED


def test_find_ba_order_matters_completeness():
    # place-x-first fails here; only a different first vertex succeeds,
    # so the search must branch over candidate vertices
    g = P3
    cover = Cover(g, 1, ((2,), (2,), (1,)),
                  {(0, 1): ((2, 2),), (1, 2): ((2, 1),)})
    out = find_ba(cover)
    assert out.status is SearchStatus.FOUND
    assert out.ordered.order[0] == (2, 1)  # the color-1 node must go first


def test_structure_of_paper_example():
    s = structure_of_transversal(paper_cover(), {0: 1, 1: 2, 2: 1})
    assert s.is_linear_forest and s.color1_independent  # necessary yet not sufficient


def test_structure_k3_monochromatic():
    s = structure_of_transversal(identity_cover(K3, 3), {0: 1, 1: 1, 2: 1})
    assert not s.color1_independent
    assert not s.is_linear_forest  # monochromatic triangle


def test_structure_independent_transversal():
    s = structure_of_transversal(identity_cover(K3, 3), {0: 1, 1: 2, 2: 3})
    assert s.is_linear_forest and s.color1_independent


# -- one reading of the cover edges -------------------------------------


def not_cover_edges_p3() -> Cover:
    """P3 with k = 1 and three matching entries that are not cover edges:
    a reversed key, a non-edge key and a pair with an unlisted color.  Its
    one cover edge joins (1,1) and (2,1)."""
    return Cover(P3, 1, ((1,), (1,), (1,)),
                 {(1, 0): ((1, 1),), (0, 2): ((1, 1),), (1, 2): ((1, 1), (2, 1))})


def test_entries_that_are_not_cover_edges_count_nowhere():
    cover, d = not_cover_edges_p3(), DefectVector((1,))
    out = find_defective_dp(cover, d)
    assert (out.status, out.transversal) == (SearchStatus.FOUND, {0: 1, 1: 1, 2: 1})
    report = verify_defective(cover, out.transversal, d)
    assert report.passed and report.degrees == ((0, 0), (1, 1), (2, 1))
    assert brute_defective(cover, d).status is SearchStatus.FOUND
    # the cover edge joins two color-1 nodes, so no order exists
    assert find_ba(cover).status is brute_ba(cover).status is SearchStatus.NONE
    s = structure_of_transversal(cover, out.transversal)
    assert s.is_linear_forest and not s.color1_independent


def test_a_repeated_pair_is_one_cover_edge():
    # a cover built in code may list a pair twice; it is still one edge, so
    # each endpoint has one placed neighbor, which budget 1 and a color-2
    # node's one left neighbor both allow
    cover, d = Cover(EDGE, 1, ((1,), (1,)), {(0, 1): ((1, 1), (1, 1))}), DefectVector((1,))
    out = find_defective_dp(cover, d)
    assert (out.status, out.transversal) == (SearchStatus.FOUND, {0: 1, 1: 1})
    assert verify_defective(cover, out.transversal, d).passed
    assert brute_defective(cover, d).status is SearchStatus.FOUND
    cover = Cover(EDGE, 1, ((2,), (2,)), {(0, 1): ((2, 2), (2, 2))})
    out = find_ba(cover)
    assert out.status is brute_ba(cover).status is SearchStatus.FOUND
    assert verify_ba(cover, out.ordered).passed


def test_checkers_and_oracles_do_not_read_the_node_graph(monkeypatch):
    # (cover, defect vector): random k4 covers, a K3 cover with no proper
    # coloring, and P3 with one cover edge between color-1 nodes
    k4 = generate("k4")
    covers = [(random_cover(k4, 3, seed, full=seed % 2 == 0), DefectVector((0, 2, 2)))
              for seed in range(6)]
    covers += [(identity_cover(K3, 2), DefectVector((0, 0))),
               (not_cover_edges_p3(), DefectVector((0,)))]
    cases = [(cover, d, find_ba(cover), find_defective_dp(cover, d)) for cover, d in covers]
    statuses = {out.status for _, _, ba, dp in cases for out in (ba, dp)}
    assert statuses == {SearchStatus.FOUND, SearchStatus.NONE}

    def refuse(cover):
        raise AssertionError("a checker read the search's node graph")

    monkeypatch.setattr(Cover, "node_graph", property(refuse))
    with pytest.raises(AssertionError, match="node graph"):
        find_ba(paper_cover())
    for cover, d, ba, dp in cases:
        assert brute_ba(cover).status is ba.status
        assert brute_defective(cover, d).status is dp.status
        if ba.ordered:
            assert verify_ba(cover, ba.ordered).passed
            assert structure_of_transversal(cover, ba.ordered.assignment).is_linear_forest
        if dp.transversal:
            assert verify_defective(cover, dp.transversal, d).passed
    assert brute_ba(paper_cover()).status is SearchStatus.NONE
    ot = OrderedTransversal({0: 1, 1: 2, 2: 1}, ((0, 1), (2, 1), (1, 2)))
    assert not verify_ba(paper_cover(), ot).passed


def test_found_ba_always_passes_verifier():
    for seed in range(30):
        c = random_cover(generate("figure1"), 3, seed, full=True)
        out = find_ba(c)
        if out.status is SearchStatus.FOUND:
            assert verify_ba(c, out.ordered).passed


def reference_verify_ba(cover: Cover, ot: OrderedTransversal) -> BAReport:
    """verify_ba on (vertex, color) tuples, with neighbors read from the
    matchings by the definition, not through dpcharge."""
    placed = set()
    for p, node in enumerate(ot.order):
        lefts = [w for w in neighbors_by_definition(cover, node) if w in placed]
        if node[1] == 1 and lefts:
            return BAReport(False, BAViolation(
                1, node, p, f"color-1 node {node} has left neighbor {lefts[0]}"))
        if node[1] != 1 and len(lefts) > 1:
            return BAReport(False, BAViolation(
                2, node, p, f"node {node} has {len(lefts)} left neighbors"))
        if node[1] != 1 and lefts:
            load = sum(1 for x in neighbors_by_definition(cover, lefts[0]) if x in placed)
            if load > 1:
                return BAReport(False, BAViolation(
                    2, node, p, f"left neighbor {lefts[0]} of {node} is adjacent to "
                                f"{load} nodes left of it"))
        placed.add(node)
    return BAReport(True, None)


def _corrupted_orders(cover: Cover, order: tuple, rng: Random):
    """The order itself, swapped positions, a color-1 node moved after a
    neighbor, and a node moved in front of its neighbors (so that a third
    neighbor finds it adjacent to two earlier nodes)."""
    yield order
    for _ in range(4):
        i, j = rng.randrange(len(order)), rng.randrange(len(order))
        swapped = list(order)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        yield tuple(swapped)
    chosen = set(order)
    for x in order:
        nbrs = [w for w in neighbors_by_definition(cover, x) if w in chosen]
        rest = [y for y in order if y != x and y not in nbrs]
        if x[1] == 1 and nbrs:
            yield tuple(rest + nbrs + [x])
        if len(nbrs) >= 2:
            yield tuple([x] + nbrs + rest)


def _transversals(graph):
    """(cover, assignment, order): the orders find_ba returns on random
    covers, and every vertex colored 2 under the identity cover."""
    for seed in range(4):
        for cover in (random_cover(graph, 3, seed, full=True), random_cover(graph, 2, seed, False)):
            out = find_ba(cover)
            if out.status is SearchStatus.FOUND:
                yield cover, out.ordered.assignment, out.ordered.order
    yield (identity_cover(graph, 3), {v: 2 for v in graph.vertices()},
           tuple((v, 2) for v in graph.vertices()))


def test_verify_ba_matches_tuple_reference(catalog):
    rng = Random(0)
    kinds = Counter()
    for g in catalog.values():
        for cover, t, order in _transversals(g):
            for corrupted in _corrupted_orders(cover, order, rng):
                ot = OrderedTransversal(t, corrupted)
                report = verify_ba(cover, ot)
                assert report == reference_verify_ba(cover, ot)
                v = report.violation
                kinds["pass" if v is None else f"{v.condition}:{v.detail.split()[0]}"] += 1
    # passes, color-1 nodes with a left neighbor, nodes with two left
    # neighbors and overloaded left neighbors all occur
    assert set(kinds) == {"pass", "1:color-1", "2:node", "2:left"}, kinds
