"""Seeded plane-graph families for the benchmark.

Each generator draws a straight-line drawing, turns it into a rotation
system by sorting every vertex's neighbours by angle, relabels the
vertices with a seeded permutation, and checks itself: the rotation goes
through ``build_plane_graph``, and a family that is meant to satisfy a
hypothesis profile must pass ``check_profile(...).cycles_ok``.

Families:

- ``diag``: a grid in which a fixed share of the squares, placed at
  random, get a diagonal, and a fixed number of interior grid edges are
  removed so faces of degree 3 to 9 appear.  Rich in triangles, so it
  fails both profiles.
- ``hex``: a honeycomb (brick-wall) patch; its shortest cycles have
  length 6 and it has no 4- or 8-cycles, so it is no48-admissible.
- ``subgrid``: a grid with every edge subdivided once; all cycle lengths
  are multiples of 4 starting at 8, so it is no46-admissible.
- ``cycle``: a plain cycle, admissible for both profiles.
- ``gadget``: the rejected three-node pattern on a path of three
  vertices, padded with isolated vertices; used with a hand-made cover.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from random import Random

from dpcharge.planegraph import PlaneGraph, build_plane_graph
from dpcharge.rotfile import serialize_rotation_file
from dpcharge.structure import Profile, check_profile


@dataclass(frozen=True)
class Generated:
    name: str
    family: str
    graph: PlaneGraph
    admissible_for: tuple[str, ...]  # profiles the family must satisfy

    @property
    def text(self) -> str:
        return serialize_rotation_file(self.graph, self.name)


def _rotations(coords: list[tuple[float, float]],
               edges: set[tuple[int, int]]) -> list[list[int]]:
    nbrs: list[list[int]] = [[] for _ in coords]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    for u, lst in enumerate(nbrs):
        x, y = coords[u]
        lst.sort(key=lambda w: math.atan2(coords[w][1] - y, coords[w][0] - x))
    return nbrs


def _relabel(rot: list[list[int]], rng: Random) -> list[list[int]]:
    perm = list(range(len(rot)))
    rng.shuffle(perm)
    out: list[list[int]] = [[] for _ in rot]
    for v, lst in enumerate(rot):
        out[perm[v]] = [perm[w] for w in lst]
    return out


def _finish(name: str, family: str, rot: list[list[int]], rng: Random,
            admissible_for: tuple[str, ...]) -> Generated:
    graph = build_plane_graph(_relabel(rot, rng))
    for profile in admissible_for:
        if not check_profile(graph, Profile(profile)).cycles_ok:
            raise AssertionError(f"{name}: generator produced a graph that fails {profile}")
    return Generated(name, family, graph, admissible_for)


# fixed shares keep the face counts of a diagonal grid independent of the
# seed, which only places the diagonals and removed edges
DIAG_SHARE = 0.7
REMOVAL_SHARE = 0.45


def diagonal_grid(rows: int, cols: int, seed: int) -> Generated:
    rng = Random(seed)
    idx = lambda i, j: i * cols + j  # noqa: E731
    coords = [(float(j), float(i)) for i in range(rows) for j in range(cols)]
    edges: set[tuple[int, int]] = set()
    for i in range(rows):
        for j in range(cols):
            if j + 1 < cols:
                edges.add((idx(i, j), idx(i, j + 1)))
            if i + 1 < rows:
                edges.add((idx(i, j), idx(i + 1, j)))
    # cells of square (i, j) by side: bottom, right, top, left
    parent: dict[int, int] = {}
    size: dict[int, int] = {}
    sides: dict[tuple[int, int, str], int] = {}

    def new_cell(deg: int) -> int:
        c = len(parent)
        parent[c] = c
        size[c] = deg
        return c

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    squares = [(i, j) for i in range(rows - 1) for j in range(cols - 1)]
    diagonal = set(rng.sample(squares, round(DIAG_SHARE * len(squares))))
    for i, j in squares:
        a, b, c, d = idx(i, j), idx(i, j + 1), idx(i + 1, j + 1), idx(i + 1, j)
        if (i, j) not in diagonal:
            q = new_cell(4)
            for side in "brtl":
                sides[(i, j, side)] = q
        elif rng.random() < 0.5:
            edges.add((a, c))
            t1, t2 = new_cell(3), new_cell(3)
            sides.update({(i, j, "b"): t1, (i, j, "r"): t1, (i, j, "t"): t2, (i, j, "l"): t2})
        else:
            edges.add((min(b, d), max(b, d)))
            t1, t2 = new_cell(3), new_cell(3)
            sides.update({(i, j, "b"): t1, (i, j, "l"): t1, (i, j, "r"): t2, (i, j, "t"): t2})
    degree = [0] * (rows * cols)
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    # interior grid edges with the two cells they separate
    interior = []
    for i in range(1, rows - 1):
        for j in range(cols - 1):
            interior.append(((idx(i, j), idx(i, j + 1)), (i - 1, j, "t"), (i, j, "b")))
    for i in range(rows - 1):
        for j in range(1, cols - 1):
            interior.append(((idx(i, j), idx(i + 1, j)), (i, j - 1, "r"), (i, j, "l")))
    rng.shuffle(interior)
    removals = round(REMOVAL_SHARE * len(squares))
    for (u, v), s1, s2 in interior:
        if removals == 0:
            break
        c1, c2 = find(sides[s1]), find(sides[s2])
        if c1 == c2 or size[c1] + size[c2] - 2 > 9 or degree[u] < 4 or degree[v] < 4:
            continue
        removals -= 1
        edges.discard((u, v))
        degree[u] -= 1
        degree[v] -= 1
        parent[c1] = c2
        size[c2] += size[c1] - 2
    return _finish(f"diag{rows}x{cols}s{seed}", "diag", _rotations(coords, edges), rng, ())


def honeycomb(rows: int, cols: int, seed: int) -> Generated:
    """Brick-wall honeycomb; rows even and cols odd leave no pendant corner."""
    if rows % 2 or not cols % 2:
        raise ValueError("honeycomb needs an even row count and an odd column count")
    rng = Random(seed)
    idx = lambda i, j: i * cols + j  # noqa: E731
    coords = [(float(j), float(i)) for i in range(rows) for j in range(cols)]
    edges = set()
    for i in range(rows):
        for j in range(cols):
            if j + 1 < cols:
                edges.add((idx(i, j), idx(i, j + 1)))
            if i + 1 < rows and (i + j) % 2 == 0:
                edges.add((idx(i, j), idx(i + 1, j)))
    return _finish(f"hex{rows}x{cols}s{seed}", "hex", _rotations(coords, edges), rng,
                   ("no48",))


def subdivided_grid(rows: int, cols: int, seed: int) -> Generated:
    rng = Random(seed)
    coords: list[tuple[float, float]] = []
    ids: dict[tuple[int, int], int] = {}

    def vertex(x: int, y: int) -> int:
        if (x, y) not in ids:
            ids[(x, y)] = len(coords)
            coords.append((float(x), float(y)))
        return ids[(x, y)]

    edges = set()
    for i in range(rows):
        for j in range(cols):
            for di, dj in ((0, 1), (1, 0)):
                if i + di < rows and j + dj < cols:
                    a = vertex(2 * j, 2 * i)
                    m = vertex(2 * j + dj, 2 * i + di)
                    b = vertex(2 * (j + dj), 2 * (i + di))
                    edges.add((min(a, m), max(a, m)))
                    edges.add((min(m, b), max(m, b)))
    return _finish(f"subgrid{rows}x{cols}s{seed}", "subgrid", _rotations(coords, edges),
                   rng, ("no46",))


def cycle(n: int, seed: int) -> Generated:
    rng = Random(seed)
    rot = [[(v - 1) % n, (v + 1) % n] for v in range(n)]
    return _finish(f"cycle{n}s{seed}", "cycle", rot, rng, ("no48", "no46"))


def gadget(padding: int, seed: int) -> tuple[Generated, str]:
    """The padded NONE pattern and its cover as JSON text.

    The middle vertex of the path has only colour 2, matched to colour 1
    at both ends; every isolated vertex has only colour 1.  Both ends
    must precede the middle in any order, which then has two earlier
    neighbours, so no order-constrained colouring exists.
    """
    rng = Random(seed)
    rot: list[list[int]] = [[1], [0, 2], [1]] + [[] for _ in range(padding)]
    g = _finish(f"gadget{padding}s{seed}", "gadget", rot, rng, ("no48", "no46"))
    # locate the path's middle (the only degree-2 vertex) and its ends
    mid = next(v for v in g.graph.vertices() if g.graph.degree(v) == 2)
    ends = sorted(g.graph.neighbors(mid))
    lists = {str(v): [2 if v == mid else 1] for v in g.graph.vertices()}
    matchings = {}
    for e in ends:
        key = f"{min(e, mid)}-{max(e, mid)}"
        matchings[key] = [[1, 2]] if e < mid else [[2, 1]]
    doc = {"k": 1, "lists": lists, "matchings": matchings,
           "provenance": {"kind": "gadget", "padding": padding}}
    return g, json.dumps(doc, sort_keys=True, indent=1)


def face_degree_histogram(graphs: list[PlaneGraph]) -> dict[str, int]:
    hist: dict[int, int] = {}
    for g in graphs:
        for f in g.faces:
            hist[f.degree] = hist.get(f.degree, 0) + 1
    return {str(d): hist[d] for d in sorted(hist)}
