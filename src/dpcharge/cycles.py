"""Fixed-length cycle search: exhaustive enumeration or the first witness.

Cycles are reported in canonical rotation: the walk starts at the
lexicographically least vertex and runs toward the smaller of that
vertex's two cycle neighbors, so each cycle appears exactly once with
no rotation or reflection duplicates.
"""

from __future__ import annotations

from typing import Iterator

from .planegraph import PlaneGraph

MAX_CYCLE_LENGTH = 12


def canonical_cycles(graph: PlaneGraph, k: int) -> Iterator[tuple[int, ...]]:
    """The simple k-cycles in canonical form, lazily, in lexicographic order.

    A depth-first search from each start vertex over ascending neighbors
    visits paths in lexicographic order, so the first cycle it yields is
    the least one.
    """
    if k < 3:
        raise ValueError(f"cycle length must be at least 3, got {k}")
    if k > MAX_CYCLE_LENGTH:
        raise ValueError(f"cycle length capped at {MAX_CYCLE_LENGTH}, got {k}")
    adj = graph.adjacency
    nbrs = [sorted(a) for a in adj]
    path = [0] * k
    on_path = [False] * graph.vertex_count

    def extend(start: int, depth: int) -> Iterator[tuple[int, ...]]:
        last = path[depth - 1]
        if depth == k - 1:
            # the last vertex closes the cycle; path[1] < path[-1] kills the
            # reflected copy (and implies the vertex is above start)
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


def cycles_of_length(graph: PlaneGraph, k: int) -> tuple[tuple[int, ...], ...]:
    """All simple k-cycles of the graph, canonical, duplicate-free, sorted.

    k must lie in 3..12; longer enumeration is out of scope.
    """
    return tuple(canonical_cycles(graph, k))


def find_cycle(graph: PlaneGraph, k: int) -> tuple[int, ...] | None:
    """The least canonical k-cycle, or None; stops at the first one found."""
    return next(canonical_cycles(graph, k), None)


def has_chord(graph: PlaneGraph, cycle: tuple[int, ...]) -> bool:
    """True iff some edge joins two non-consecutive vertices of the cycle."""
    n = len(cycle)
    position = {v: i for i, v in enumerate(cycle)}
    for u in cycle:
        for w in graph.neighbors(u):
            if w in position:
                gap = abs(position[u] - position[w])
                if gap not in (1, n - 1) and gap != 0:
                    return True
    return False
