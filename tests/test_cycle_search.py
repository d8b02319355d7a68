"""The half-path cycle search against the plain lexicographic walk.

``reference_cycles`` is a depth-first walk over ascending neighbors
from every start vertex, kept here as the reference; the search itself
reads its cycles off pairs of half-length paths and sorts them.  Every
enumeration, every least cycle and every hypothesis witness must be the
one the plain walk gives, for k = 3..12: on the catalog, theta graphs,
cycles one shorter than, as long as and one longer than k, near misses
whose half-paths meet but share an inner vertex, disconnected graphs,
and randomly relabelled subgraphs of grids.
"""

from __future__ import annotations

import math
from typing import Iterator

import pytest
from hypothesis import given, settings, strategies as st

from dpcharge.catalog import DEFAULT_CATALOG, generate
from dpcharge.cycles import canonical_cycles, cycles_of_length, least_cycles
from dpcharge.planegraph import PlaneGraph, build_plane_graph
from dpcharge.structure import Profile, check_profile

LENGTHS = range(3, 13)


def reference_cycles(graph: PlaneGraph, k: int) -> Iterator[tuple[int, ...]]:
    """The canonical k-cycles in lexicographic order, by a depth-first
    walk over ascending neighbors from every start vertex."""
    adj = graph.adjacency
    nbrs = [sorted(a) for a in adj]
    path = [0] * k
    on_path = [False] * graph.vertex_count

    def extend(start: int, depth: int) -> Iterator[tuple[int, ...]]:
        last = path[depth - 1]
        if depth == k - 1:
            for w in nbrs[last]:
                if w > path[1] and not on_path[w] and start in adj[w]:
                    path[depth] = w
                    yield tuple(path)
            return
        for w in nbrs[last]:
            if w > start and not on_path[w]:
                path[depth] = w
                on_path[w] = True
                yield from extend(start, depth + 1)
                on_path[w] = False

    for s in range(graph.vertex_count):
        path[0] = s
        on_path[s] = True
        yield from extend(s, 1)
        on_path[s] = False


def _straight_line(points: dict[int, tuple[float, float]],
                   edges: list[tuple[int, int]]) -> PlaneGraph:
    """The plane graph of a straight-line drawing: each rotation lists
    the neighbors by angle."""
    nbrs: dict[int, list[int]] = {v: [] for v in points}
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)

    def angle(v: int, w: int) -> float:
        return math.atan2(points[w][1] - points[v][1], points[w][0] - points[v][0])

    return build_plane_graph({v: sorted(ns, key=lambda w: angle(v, w))
                              for v, ns in nbrs.items()})


def assert_agrees(graph: PlaneGraph, lengths=LENGTHS) -> None:
    least = least_cycles(graph, lengths)
    for k in lengths:
        expected = tuple(reference_cycles(graph, k))
        assert tuple(canonical_cycles(graph, k)) == expected, k
        assert cycles_of_length(graph, k) == expected, k
        assert least[k] == (expected[0] if expected else None), k
    for profile in Profile:
        four, other = profile.forbidden_lengths
        # a fresh copy, so the witnesses are searched, not read back
        report = check_profile(build_plane_graph(graph.rotations), profile)
        assert report.four_cycle == next(reference_cycles(graph, four), None)
        assert report.other_cycle == next(reference_cycles(graph, other), None)


@pytest.mark.parametrize("name", DEFAULT_CATALOG + ("cycle:3", "cycle:4"))
def test_catalog_agrees_with_the_plain_walk(name):
    assert_agrees(generate(name))


@pytest.mark.parametrize("name", [f"theta:{a},{b},{c}" for a in range(4)
                                  for b in range(max(a, 1), 5) for c in range(b, 6)])
def test_theta_graphs_agree_with_the_plain_walk(name):
    assert_agrees(generate(name))


@pytest.mark.parametrize("k", LENGTHS)
def test_cycles_around_k_agree_with_the_plain_walk(k):
    for n in (k - 1, k, k + 1):
        if n >= 3:
            g = generate(f"cycle:{n}")
            assert_agrees(g, [k])
            assert least_cycles(g, [k])[k] == (tuple(range(n)) if n == k else None)


# two squares sharing vertex 3: from vertex 0, the paths 0-1-3-4-6 and
# 0-2-3-5-6 leave by two first steps and meet at 6, but share 3
SQUARES_AT_A_VERTEX = _straight_line(
    {0: (0, 0), 1: (1, 1), 2: (1, -1), 3: (2, 0), 4: (3, 1), 5: (3, -1), 6: (4, 0)},
    [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 6), (5, 6)])
# a square and a triangle sharing vertex 3: the paths 0-1-3-4 and
# 0-2-3-5-4 (three and four edges) meet at 4, but share 3
SQUARE_AND_TRIANGLE = _straight_line(
    {0: (0, 0), 1: (1, 1), 2: (1, -1), 3: (2, 0), 4: (3, 1), 5: (3, -1)},
    [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)])


def test_half_paths_that_share_an_inner_vertex_close_no_cycle():
    assert least_cycles(SQUARES_AT_A_VERTEX, LENGTHS) == {
        k: (0, 1, 3, 2) if k == 4 else None for k in LENGTHS}
    assert cycles_of_length(SQUARES_AT_A_VERTEX, 4) == ((0, 1, 3, 2), (3, 4, 6, 5))
    assert least_cycles(SQUARE_AND_TRIANGLE, LENGTHS) == {
        k: {3: (3, 4, 5), 4: (0, 1, 3, 2)}.get(k) for k in LENGTHS}
    assert_agrees(SQUARES_AT_A_VERTEX)
    assert_agrees(SQUARE_AND_TRIANGLE)


def test_least_cycle_in_a_later_component():
    # a path on 0..5, then a pentagon on 6..10, then a square on 11..14
    rot = [[1], [0, 2], [1, 3], [2, 4], [3, 5], [4]]
    rot += [[6 + (i - 1) % 5, 6 + (i + 1) % 5] for i in range(5)]
    rot += [[11 + (i - 1) % 4, 11 + (i + 1) % 4] for i in range(4)]
    g = build_plane_graph(rot)
    assert len(g.components) == 3
    assert least_cycles(g, [4, 5, 6]) == {4: (11, 12, 13, 14), 5: (6, 7, 8, 9, 10), 6: None}
    assert_agrees(g)


def _grid(rows: int, cols: int, diagonals: bool) -> tuple[dict, list]:
    points = {r * cols + c: (c, r) for r in range(rows) for c in range(cols)}
    edges = [(v, v + 1) for v in points if v % cols < cols - 1]
    edges += [(v, v + cols) for v in points if v + cols < rows * cols]
    if diagonals:
        edges += [(v, v + cols + 1) for v in points
                  if v % cols < cols - 1 and v + cols < rows * cols]
    return points, edges


@given(rows=st.integers(2, 5), cols=st.integers(2, 5), diagonals=st.booleans(),
       data=st.data())
@settings(max_examples=40, deadline=None)
def test_relabelled_grid_subgraphs_agree_with_the_plain_walk(rows, cols, diagonals, data):
    points, edges = _grid(rows, cols, diagonals)
    kept = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    label = data.draw(st.permutations(range(len(points))))
    g = _straight_line({label[v]: xy for v, xy in points.items()},
                       [(label[u], label[v]) for (u, v), keep in zip(edges, kept) if keep])
    assert_agrees(g)
