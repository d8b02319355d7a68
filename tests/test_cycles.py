from itertools import combinations, permutations

import pytest

from dpcharge import cycles
from dpcharge.catalog import generate
from dpcharge.cycles import canonical_cycles, cycles_of_length, has_chord, least_cycles
from dpcharge.planegraph import PlaneGraph, build_plane_graph


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


# -- the search stops at the first block of starts that closes a cycle --


@pytest.fixture
def searched(monkeypatch):
    """Each block search, as (length, the block's starts)."""
    calls = []
    search = cycles._cycles

    def recorded(rot, levels, k):
        calls.append((k, tuple(p[0] for p in levels[0])))
        return search(rot, levels, k)

    monkeypatch.setattr(cycles, "_cycles", recorded)
    return calls


def doubling_blocks(graph: PlaneGraph) -> list[tuple[int, ...]]:
    """The vertices with two neighbors above them, ascending, in blocks
    of 1, 2, 4, ... vertices."""
    starts = [v for v in graph.vertices()
              if sum(w > v for w in graph.neighbors(v)) >= 2]
    blocks, size = [], 1
    while starts:
        blocks.append(tuple(starts[:size]))
        starts, size = starts[size:], 2 * size
    return blocks


def test_first_cycle_searches_the_first_block_only(searched):
    g = generate("k4")
    assert doubling_blocks(g) == [(0,), (1,)]
    assert next(canonical_cycles(g, 3)) == (0, 1, 2)
    assert searched == [(3, (0,))]


def test_each_length_stops_at_its_first_block(searched):
    g = generate("dodecahedron")  # girth 5: vertex 0 lies on the outer pentagon
    blocks = doubling_blocks(g)
    assert [len(b) for b in blocks] == [1, 2, 4, 3]
    assert least_cycles(g, [4, 5]) == {4: None, 5: (0, 1, 2, 3, 4)}
    assert searched == [(4, blocks[0]), (5, blocks[0])] + [(4, b) for b in blocks[1:]]


def test_each_length_searches_the_blocks_up_to_its_component(searched):
    # a path on 0..5, then a pentagon on 6..10, then a square on 11..14
    rot = [[1], [0, 2], [1, 3], [2, 4], [3, 5], [4]]
    rot += [[6 + (i - 1) % 5, 6 + (i + 1) % 5] for i in range(5)]
    rot += [[11 + (i - 1) % 4, 11 + (i + 1) % 4] for i in range(4)]
    g = build_plane_graph(rot)
    assert doubling_blocks(g) == [(6,), (11,)]
    assert least_cycles(g, [4, 5, 6]) == {4: (11, 12, 13, 14), 5: (6, 7, 8, 9, 10), 6: None}
    assert searched == [(4, (6,)), (5, (6,)), (6, (6,)), (4, (11,)), (6, (11,))]
