"""Covers of a plane graph: list assignments plus per-edge matchings.

A cover node is a pair (vertex, color).  For each edge uv of the base
graph the cover holds a matching between the color lists of u and v;
the cover's edge set is the disjoint union of those matchings.  A
matching may be partial or empty; worst-case hunting uses perfect
matchings (full=True).  Matchings are keyed (u, v) with u < v.  The
checkers read cover edges from Cover.edge_matchings, and the search's
Cover.node_graph is built from it.  A cover read from a document is
validated there; the ones built here are valid by construction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, combinations, permutations, product
from math import comb, factorial
from random import Random
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .planegraph import PlaneGraph
from .reporting import dump_json, read_json

Node = tuple[int, int]
Pair = tuple[int, int]  # (color at u, color at v) for an edge (u, v) with u < v
_KEY = re.compile(r"(0|[1-9][0-9]*)-(0|[1-9][0-9]*)")  # one spelling per vertex pair


@dataclass(frozen=True)
class Cover:
    graph: PlaneGraph
    k: int
    lists: tuple[tuple[int, ...], ...]  # lists[v] = ordered colors of v
    matchings: Mapping[tuple[int, int], tuple[Pair, ...]]  # key (u, v), u < v
    provenance: tuple[tuple[str, object], ...] = ()

    @cached_property
    def edge_matchings(self) -> tuple[tuple[int, int, tuple[Pair, ...]], ...]:
        """The matchings that define cover edges, as (u, v, pairs) in key
        order: those whose key (u, v) has u < v and is a base edge (graph.edges
        holds each base edge so).  A pair counts only between listed colors."""
        edges = self.graph.edges
        return tuple([(u, v, pairs) for (u, v), pairs in sorted(self.matchings.items())
                      if (u, v) in edges])

    @cached_property
    def node_graph(self) -> tuple:
        """(vert, color, own, adj), the cover graph on integer node ids,
        built on first use for the search.  Node i is (vert[i], color[i]),
        numbered vertex by vertex in list order, so node (v, c) is v's
        first id plus the position of c in v's list; own[v] holds v's ids,
        and adj[i] lists i's neighbors by base vertex, then by position in
        the matching.  A pair repeated in a matching is one cover edge."""
        lists = self.lists
        where = {lst: {c: i for i, c in enumerate(lst)} for lst in set(lists)}
        at = [where[lst] for lst in lists]  # color -> position, per vertex
        first = list(accumulate(map(len, lists), initial=0))
        own = tuple(map(range, first, first[1:]))
        vert = tuple([v for v, lst in enumerate(lists) for _ in lst])
        adj: list[list[int]] = [[] for _ in vert]
        for u, v, pairs in self.edge_matchings:
            at_u, at_v, fu, fv = at[u], at[v], first[u], first[v]
            for a, b in pairs:
                try:
                    p, q = fu + at_u[a], fv + at_v[b]
                except KeyError:  # an unlisted color: not a cover edge
                    continue
                row = adj[p]
                if q not in row:
                    row.append(q)
                    adj[q].append(p)
        return vert, tuple(chain.from_iterable(lists)), own, adj


def identity_cover(graph: PlaneGraph, k: int) -> Cover:
    """Lists 1..k everywhere, every matching the identity.

    Under this cover an independent transversal is exactly a proper
    k-coloring of the base graph.
    """
    if k < 1:
        raise ValueError("k must be positive")
    colors = tuple(range(1, k + 1))
    ident = tuple((c, c) for c in colors)
    matchings = {e: ident for e in sorted(graph.edges)}
    return Cover(graph, k, tuple(colors for _ in graph.vertices()), matchings,
                 (("kind", "identity"),))


def _draw(getrandbits: Callable[[int], int], bounds: Iterable[int]) -> tuple[int, ...]:
    # One index below each bound, drawn as CPython's Random.randrange(bound)
    # draws it: getrandbits(bound.bit_length()) until the value is below
    # bound.  So a cover drawn from Random(seed).getrandbits is the one
    # randrange drew, and it is pinned by test_random_cover_draw_is_pinned.
    out = []
    for n in bounds:
        bits = n.bit_length()
        r = getrandbits(bits)
        while r >= n:
            r = getrandbits(bits)
        out.append(r)
    return tuple(out)


def _shuffled(getrandbits: Callable[[int], int], items: Sequence[int]) -> list[int]:
    # Fisher-Yates: position i swaps with a drawn index below i + 1, i from
    # the last position down to 1
    return _swapped(items, _draw(getrandbits, range(len(items), 1, -1)))


def _swapped(items: Sequence[int], swaps: Sequence[int]) -> list[int]:
    out = list(items)
    for i, j in zip(range(len(out) - 1, 0, -1), swaps):
        out[i], out[j] = out[j], out[i]
    return out


def _matching_size_weights(k: int) -> list[int]:
    return [comb(k, j) ** 2 * factorial(j) for j in range(k + 1)]


def random_cover(graph: PlaneGraph, k: int, seed: int, full: bool) -> Cover:
    """Deterministic function of (graph, k, seed, full).

    full=True draws a uniform perfect matching (a permutation of 1..k)
    per edge; otherwise a uniform matching of any size, empty included.
    Edges that draw the same permutation share one pairs tuple.
    """
    if k < 1:
        raise ValueError("k must be positive")
    getrandbits = Random(seed).getrandbits
    colors = tuple(range(1, k + 1))
    edges = sorted(graph.edges)
    matchings: dict[tuple[int, int], tuple[Pair, ...]] = {}
    if full:
        bounds = range(k, 1, -1)
        drawn: dict[tuple[int, ...], tuple[Pair, ...]] = {}  # swaps -> pairs
        for e in edges:
            swaps = _draw(getrandbits, bounds)
            pairs = drawn.get(swaps)
            if pairs is None:
                pairs = drawn[swaps] = tuple(zip(colors, _swapped(colors, swaps)))
            matchings[e] = pairs
    else:
        weights = _matching_size_weights(k)
        total = sum(weights)
        for e in edges:
            # size j with probability C(k,j)^2 j! / total, then uniform
            # j-subsets on both sides and a uniform bijection
            r = _draw(getrandbits, (total,))[0] if total > 1 else 0
            j = 0
            while r >= weights[j]:
                r -= weights[j]
                j += 1
            left = sorted(_shuffled(getrandbits, colors)[:j])
            right = sorted(_shuffled(getrandbits, colors)[:j])
            matchings[e] = tuple(sorted(zip(left, _shuffled(getrandbits, right))))
    return Cover(graph, k, (colors,) * graph.vertex_count, matchings,
                 (("kind", "random"), ("seed", seed), ("full", full)))


def _all_matchings(left: Sequence[int], right: Sequence[int]) -> list[tuple[Pair, ...]]:
    out: list[tuple[Pair, ...]] = []
    for j in range(min(len(left), len(right)) + 1):
        for ls in combinations(left, j):
            for rs in combinations(right, j):
                for perm in permutations(rs):
                    out.append(tuple(sorted(zip(ls, perm))))
    return out


def enumerate_covers(graph: PlaneGraph, k: int, edge_budget: int) -> Iterator[Cover]:
    """Every cover exactly once, lazily (all matchings, independently per edge)."""
    if graph.edge_count > edge_budget:
        raise ValueError(
            f"edge budget exceeded: {graph.edge_count} edges > budget {edge_budget}")
    colors = tuple(range(1, k + 1))
    edges = sorted(graph.edges)
    lists = tuple(colors for _ in graph.vertices())
    per_edge = _all_matchings(colors, colors)
    return (Cover(graph, k, lists, dict(zip(edges, ms)), (("kind", "enumerated"),))
            for ms in product(per_edge, repeat=len(edges)))


def validate_cover(cover: Cover) -> tuple[str, ...]:
    """Check k >= 1, the cover conditions and u < v on each key; the
    problems found name the edge, and a valid cover has none."""
    problems: list[str] = [] if cover.k >= 1 else [f"k must be at least 1, got {cover.k}"]
    for (u, v), pairs in sorted(cover.matchings.items()):
        if u > v:
            problems.append(f"edge {u}-{v}: key not canonical, expected {v}-{u}")
        if not cover.graph.has_edge(u, v):
            problems.append(f"edge {u}-{v}: cover edges between non-adjacent vertices")
            continue
        left_seen, right_seen = set(), set()
        for cu, cv in pairs:
            if cu not in cover.lists[u]:
                problems.append(f"edge {u}-{v}: color {cu} not in list of {u}")
            if cv not in cover.lists[v]:
                problems.append(f"edge {u}-{v}: color {cv} not in list of {v}")
            if cu in left_seen:
                problems.append(f"edge {u}-{v}: node ({u},{cu}) matched twice (not a matching)")
            if cv in right_seen:
                problems.append(f"edge {u}-{v}: node ({v},{cv}) matched twice (not a matching)")
            left_seen.add(cu)
            right_seen.add(cv)
    for v, lst in enumerate(cover.lists):
        if len(lst) < cover.k:
            problems.append(f"vertex {v}: list size {len(lst)} < k={cover.k}")
        if len(set(lst)) != len(lst):
            problems.append(f"vertex {v}: repeated color in list")
        if any(c < 1 for c in lst):
            problems.append(f"vertex {v}: non-positive color id")
    return tuple(problems)


# -- serialization -----------------------------------------------------


def cover_doc(cover: Cover) -> dict:
    """The cover, without its graph, as a document of JSON values."""
    return {
        "k": cover.k,
        "lists": {str(v): cover.lists[v] for v in cover.graph.vertices()},
        "matchings": {f"{u}-{v}": pairs
                      for (u, v), pairs in sorted(cover.matchings.items())},
        "provenance": {key: val for key, val in cover.provenance},
    }


def cover_to_json(cover: Cover) -> str:
    """Canonical JSON text, base graph included; equal covers serialize
    byte-identically."""
    from .rotfile import serialize_rotation_file

    doc = cover_doc(cover)
    doc["graph"] = serialize_rotation_file(cover.graph, name="cover-base")
    return dump_json(doc)


def cover_from_json(text: str, graph: PlaneGraph | None = None) -> Cover:
    """Parse a cover document; a malformed or invalid one, or one that
    repeats a key, raises ValueError."""
    return cover_from_doc(read_json(text, "cover JSON"), graph)


def cover_from_doc(doc: object, graph: PlaneGraph | None = None) -> Cover:
    """Build a cover from a parsed cover document.  A malformed one, one whose
    lists name other vertices or whose embedded graph is not the one supplied,
    or one that fails validate_cover raises ValueError."""
    from .rotfile import parse_rotation_file

    if not (isinstance(doc, dict) and {"k", "lists", "matchings"} <= doc.keys()):
        raise ValueError("cover JSON must be an object with k, lists and matchings")
    if "graph" in doc:
        if not isinstance(doc["graph"], str):
            raise ValueError("cover JSON: the embedded graph must be rotation-file text")
        embedded, _ = parse_rotation_file(doc["graph"])
        if graph is None:
            graph = embedded
        elif embedded.rotations != graph.rotations:
            raise ValueError("cover JSON: the embedded graph is not the graph supplied")
    elif graph is None:
        raise ValueError("cover JSON has no embedded graph and none was supplied")
    try:
        lists = tuple(tuple(doc["lists"][str(v)]) for v in graph.vertices())
        if len(doc["lists"].keys()) != len(lists):  # it has every vertex id, so others too
            raise ValueError(f"lists must name the graph's {graph.vertex_count} vertices only")
        matchings = {}
        for key, pairs in doc["matchings"].items():
            if (m := _KEY.fullmatch(key)) is None:
                raise ValueError(f"matching key {key!r} is not 'u-v'")
            matchings[(int(m[1]), int(m[2]))] = tuple((a, b) for a, b in pairs)
        prov = tuple(sorted(doc.get("provenance", {}).items()))
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise ValueError(f"cover JSON: malformed lists, matchings or provenance: {exc!r}")
    numbers = chain([doc["k"]], *lists, *chain.from_iterable(matchings.values()))
    if not set(map(type, numbers)) <= {int}:  # bool is an int subclass, not a JSON number
        raise ValueError("cover JSON: k and every color must be integers")
    cover = Cover(graph, doc["k"], lists, matchings, prov)
    if problems := validate_cover(cover):
        raise ValueError("invalid cover: " + "; ".join(problems))
    return cover
