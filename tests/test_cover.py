import hashlib
import json
from math import comb, factorial
from random import Random

import pytest

from dpcharge.catalog import DEFAULT_CATALOG, generate
from dpcharge.cover import (Cover, cover_doc, cover_from_json, cover_to_json,
                            enumerate_covers, identity_cover, random_cover,
                            validate_cover)
from dpcharge.planegraph import build_plane_graph
from dpcharge.solver import induced_neighbors

from cover_fixtures import P3, neighbors_by_definition

EDGE = build_plane_graph({0: [1], 1: [0]})
K3 = build_plane_graph({0: [1, 2], 1: [2, 0], 2: [0, 1]})


def test_identity_cover_single_edge():
    c = identity_cover(EDGE, 3)
    assert c.matchings[(0, 1)] == ((1, 1), (2, 2), (3, 3))
    assert sum(map(len, c.matchings.values())) == 3


def test_identity_cover_k3():
    assert sum(map(len, identity_cover(K3, 3).matchings.values())) == 9


def test_identity_cover_edgeless():
    g = build_plane_graph({0: [], 1: []})
    assert identity_cover(g, 4).matchings == {}


def test_random_cover_full_is_permutation():
    c = random_cover(K3, 3, seed=7, full=True)
    for pairs in c.matchings.values():
        assert len(pairs) == 3
        assert {a for a, _ in pairs} == {1, 2, 3}
        assert {b for _, b in pairs} == {1, 2, 3}


def test_random_cover_partial_sizes():
    sizes = set()
    for seed in range(40):
        c = random_cover(EDGE, 3, seed, full=False)
        sizes.add(len(c.matchings[(0, 1)]))
    assert sizes <= {0, 1, 2, 3}
    assert len(sizes) > 1


def test_random_cover_deterministic():
    a = random_cover(K3, 3, seed=123456789, full=True)
    b = random_cover(K3, 3, seed=123456789, full=True)
    assert a.matchings == b.matchings
    assert cover_to_json(a) == cover_to_json(b)


def test_random_cover_seed_sensitivity():
    a = random_cover(K3, 3, seed=1, full=True)
    b = random_cover(K3, 3, seed=2, full=True)
    assert a.matchings != b.matchings


# recorded while random_cover still drew every index with Random.randrange;
# re-derived from that output when covers went to one-line JSON
DRAW_GOLDEN = "0084e2a1df6397f39d40a5e422434a3dd2096be9cd2ff9f4178e01a4600d46b7"


def test_random_cover_draw_is_pinned():
    # the seeded stream, byte for byte: every catalog graph, small and
    # larger k, ten seeds, full and partial matchings
    h = hashlib.sha256()
    for name in DEFAULT_CATALOG:
        g = generate(name)
        for k in (1, 2, 3, 5):
            for seed in range(10):
                for full in (True, False):
                    h.update(cover_to_json(random_cover(g, k, seed, full)).encode() + b"\n")
    assert h.hexdigest() == DRAW_GOLDEN


def test_enumerate_single_edge_counts():
    assert sum(1 for _ in enumerate_covers(EDGE, 1, 5)) == 2
    assert sum(1 for _ in enumerate_covers(EDGE, 2, 5)) == 7
    assert sum(1 for _ in enumerate_covers(EDGE, 3, 5)) == 34
    for k in (1, 2, 3):  # sum_j C(k,j)^2 j! matchings between two k-sets
        closed_form = sum(comb(k, j) ** 2 * factorial(j) for j in range(k + 1))
        assert closed_form == sum(1 for _ in enumerate_covers(EDGE, k, 5))


def test_enumerate_k3_is_product():
    # every edge enumerates independently: 34^3 covers
    n = sum(1 for _ in enumerate_covers(K3, 3, 5))
    assert n == 34 ** 3


def test_enumerate_covers_distinct():
    seen = {tuple(sorted(c.matchings.items())) for c in enumerate_covers(EDGE, 2, 5)}
    assert len(seen) == 7


def test_enumerate_budget_guard():
    with pytest.raises(ValueError, match="budget"):
        enumerate_covers(K3, 3, edge_budget=2)  # at call time, not iterated


# recorded with the recursive enumerator: 406 covers, in order
ENUMERATE_GOLDEN = "db360e81e6d27730291104c9e0b354c3c6e6640ae235c249dd4be8b7d4ef4157"


def test_enumerate_covers_sequence_is_pinned():
    h = hashlib.sha256()
    n = 0
    for g in (K3, P3, build_plane_graph({0: []})):
        for k in (1, 2):
            for cover in enumerate_covers(g, k, 5):
                h.update(repr(list(cover.matchings.items())).encode() + b"\n")
                n += 1
    assert (n, h.hexdigest()) == (406, ENUMERATE_GOLDEN)


def test_validate_identity_ok():
    assert validate_cover(identity_cover(K3, 3)) == ()


def test_validate_not_a_matching():
    c = Cover(EDGE, 2, ((1, 2), (1, 2)), {(0, 1): ((1, 1), (1, 2))})
    problems = validate_cover(c)
    assert any("matched twice" in v for v in problems)


def test_validate_non_adjacent_edge():
    g = build_plane_graph({0: [1], 1: [0, 2], 2: [1]})
    c = Cover(g, 2, ((1, 2),) * 3, {(0, 1): ((1, 1),), (0, 2): ((1, 1),)})
    problems = validate_cover(c)
    assert any("non-adjacent" in v for v in problems)


def test_cover_json_round_trip():
    c = random_cover(K3, 3, seed=42, full=True)
    text = cover_to_json(c)
    c2 = cover_from_json(text)
    assert c2.k == c.k and c2.matchings == c.matchings and c2.lists == c.lists
    assert cover_to_json(c2) == text


def test_neighbors_in_cover():
    c = identity_cover(K3, 2)
    assert induced_neighbors(c, {0: 1, 1: 1, 2: 1}) == {0: [1, 2], 1: [0, 2], 2: [0, 1]}
    assert induced_neighbors(c, {0: 1, 1: 2, 2: 1}) == {0: [2], 1: [], 2: [0]}


def test_validate_reports_non_canonical_keys():
    ident = identity_cover(K3, 3).matchings
    reversed_key = dict(ident)
    reversed_key[(1, 0)] = reversed_key.pop((0, 1))
    both = dict(ident)
    both[(1, 0)] = ((2, 1),)  # a second matching for the edge 0-1
    for matchings in (reversed_key, both):
        problems = validate_cover(Cover(K3, 3, ((1, 2, 3),) * 3, matchings))
        assert "edge 1-0: key not canonical, expected 0-1" in problems


def test_cover_from_json_rejects_a_second_spelling_of_a_key():
    doc = cover_doc(identity_cover(K3, 3))
    doc["matchings"]["00-1"] = doc["matchings"]["0-1"]
    with pytest.raises(ValueError, match="not 'u-v'"):
        cover_from_json(json.dumps(doc), graph=K3)


# -- the node graph against the definition -----------------------------


def node_graph_neighbors(cover, node):
    """Cover neighbors of node read from cover.node_graph."""
    vert, color, own, adj = cover.node_graph
    v, c = node
    return [(vert[q], color[q]) for q in adj[own[v][cover.lists[v].index(c)]]]


def assert_node_graph_matches_definition(cover):
    vert, color, own, _ = cover.node_graph
    nodes = [(v, c) for v in cover.graph.vertices() for c in cover.lists[v]]
    assert list(zip(vert, color)) == nodes
    assert [i for r in own for i in r] == list(range(len(nodes)))
    for node in nodes:
        assert node_graph_neighbors(cover, node) == neighbors_by_definition(cover, node)


@pytest.mark.parametrize("graph", [EDGE, P3], ids=["edge", "p3"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_node_graph_of_every_enumerated_cover(graph, k):
    for cover in enumerate_covers(graph, k, 5):
        assert_node_graph_matches_definition(cover)


@pytest.mark.parametrize("name", DEFAULT_CATALOG)
def test_node_graph_of_random_catalog_covers(name):
    g = generate(name)
    rng = Random(name)
    for k in (1, 2, 3):
        for seed in range(4):
            for full in (True, False):
                cover = random_cover(g, k, seed, full)
                assert_node_graph_matches_definition(cover)
                t = {v: rng.choice(cover.lists[v]) for v in g.vertices()}
                from_graph = {v: [w for w, c in node_graph_neighbors(cover, (v, t[v]))
                                  if t[w] == c] for v in t}
                assert induced_neighbors(cover, t) == from_graph


def test_node_graph_of_equal_lists_that_are_separate_objects():
    # node ids come from one position table per distinct list; a cover read
    # back from JSON holds each vertex's list as its own tuple
    for name in ("dodecahedron", "theta:3,3,3"):
        for full in (True, False):
            drawn = random_cover(generate(name), 3, 5, full)
            read = cover_from_json(cover_to_json(drawn))
            assert len({id(lst) for lst in read.lists}) == len(read.lists)
            assert_node_graph_matches_definition(read)
            assert read.node_graph == drawn.node_graph


def test_node_graph_of_lists_of_mixed_lengths_and_orders():
    lists = ((3, 1, 2), (2, 1), (5, 2, 4, 1))
    matchings = {(0, 1): ((3, 2), (1, 1)), (0, 2): ((2, 5), (3, 4), (1, 1)),
                 (1, 2): ((1, 4), (2, 2))}
    c = Cover(K3, 2, lists, matchings)
    assert validate_cover(c) == ()
    assert_node_graph_matches_definition(c)
    # two equal lists as separate objects, and a third in the other order
    c = Cover(K3, 2, ((2, 1), tuple([2, 1]), (1, 2)), {(0, 1): ((2, 1),), (1, 2): ((1, 1),)})
    assert_node_graph_matches_definition(c)
    c = Cover(K3, 2, ((1, 2),) * 3, {(0, 1): ((1, 2), (1, 2)), (0, 2): ((2, 2), (1, 1), (2, 2))})
    assert_node_graph_matches_definition(c)  # a repeated pair is one edge
    assert node_graph_neighbors(c, (0, 2)) == [(2, 2)]


def test_node_graph_skips_entries_that_are_not_cover_edges():
    # a reversed key, a non-edge and an unlisted color give no edge, in the
    # search's node graph and in the checkers' reading of the matchings alike
    c = Cover(P3, 1, ((1,), (1,), (1,)),
              {(1, 0): ((1, 1),), (0, 2): ((1, 1),), (1, 2): ((1, 1), (2, 1))})
    assert c.edge_matchings == ((1, 2, ((1, 1), (2, 1))),)
    assert [node_graph_neighbors(c, (v, 1)) for v in range(3)] == [[], [(2, 1)], [(1, 1)]]
    assert induced_neighbors(c, {0: 1, 1: 1, 2: 1}) == {0: [], 1: [2], 2: [1]}
