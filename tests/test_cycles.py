from itertools import combinations, permutations

import pytest

from dpcharge.catalog import generate
from dpcharge.cycles import cycles_of_length, has_chord, least_cycles
from dpcharge.planegraph import PlaneGraph


def subset_cycles(graph: PlaneGraph, k: int) -> set[tuple[int, ...]]:
    """Independent oracle: try every k-subset in every canonical order."""
    adj = graph.adjacency
    found = set()
    for subset in combinations(range(graph.vertex_count), k):
        start = subset[0]
        for perm in permutations(subset[1:]):
            if perm[0] > perm[-1]:
                continue  # canonical: second vertex below last
            cyc = (start,) + perm
            if all(cyc[(i + 1) % k] in adj[cyc[i]] for i in range(k)):
                found.add(cyc)
    return found


@pytest.mark.parametrize("name", [
    "triangle", "k4", "cube", "cycle:5", "cycle:7", "cycle:9",
    "figure1", "theta:1,2,2", "theta:3,3,3",
])
def test_agrees_with_subset_oracle(name):
    g = generate(name)
    assert g.vertex_count <= 11
    for k in range(3, min(g.vertex_count, 8) + 1):
        assert set(cycles_of_length(g, k)) == subset_cycles(g, k), (name, k)


def test_k4_has_three_4cycles():
    assert len(cycles_of_length(generate("k4"), 4)) == 3


def test_c5_has_no_4cycles_and_one_5cycle():
    g = generate("cycle:5")
    assert len(cycles_of_length(g, 4)) == 0
    assert cycles_of_length(g, 5) == ((0, 1, 2, 3, 4),)


def test_dodecahedron_8cycles_from_adjacent_pentagons():
    g = generate("dodecahedron")
    eights = set(cycles_of_length(g, 8))
    assert eights
    # two edge-adjacent pentagon faces: their symmetric difference is an 8-cycle
    f1 = g.faces[0]
    f2 = next(x for x in g.adjacent_faces(f1) if x.degree == 5)
    shared = next(iter(g.shared_edges(f1, f2)))
    ring = {(min(u, v), max(u, v)) for u, v in f1.walk + f2.walk} - {shared}
    assert len(ring) == 8
    # walk the ring to list its vertices, then canonicalize
    adj = {}
    for u, v in ring:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    start = min(adj)
    walk = [start, min(adj[start])]
    while len(walk) < 8:
        nxt = [w for w in adj[walk[-1]] if w != walk[-2]]
        walk.append(nxt[0])
    if walk[1] > walk[-1]:
        walk = [walk[0]] + walk[:0:-1]
    assert tuple(walk) in eights


def test_cycles_are_canonical_and_simple(catalog):
    for g in catalog.values():
        for k in range(3, min(g.vertex_count, 9) + 1):
            seen = set()
            for cyc in cycles_of_length(g, k):
                assert len(set(cyc)) == k
                assert cyc[0] == min(cyc)
                assert cyc[1] < cyc[-1]
                assert all(g.has_edge(cyc[i], cyc[(i + 1) % k]) for i in range(k))
                assert cyc not in seen
                seen.add(cyc)


def test_length_bounds():
    g = generate("triangle")
    for search in (cycles_of_length, lambda g, k: least_cycles(g, [4, k])):
        with pytest.raises(ValueError):
            search(g, 2)
        with pytest.raises(ValueError):
            search(g, 13)


def test_has_chord():
    g = generate("k4")
    assert has_chord(g, (0, 1, 2, 3))  # any 4-cycle of K4 has both chords
    c7 = generate("cycle:7")
    assert not has_chord(c7, (0, 1, 2, 3, 4, 5, 6))
