"""Fixed-length cycle search: exhaustive enumeration or the least witness.

Cycles are reported in canonical rotation: the tuple starts at the
least vertex and runs toward the smaller of that vertex's two cycle
neighbors, so each cycle appears exactly once with no rotation or
reflection duplicates.

A k-cycle whose least vertex is s is two paths from s, over vertices
above s, of k//2 and k - k//2 edges that share only their far end.  The
search grows those half-length paths from many starts at once, meets
them at their ends and reads each cycle off the pair that closes it.
Sorted, the cycles come in the lexicographic order of a depth-first walk
over ascending neighbors from every start, so the least one is the
walk's first.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, compress
from operator import itemgetter
from typing import Iterable, Iterator

from .planegraph import PlaneGraph

MAX_CYCLE_LENGTH = 12

_start_end = itemgetter(0, -1)


def _check_length(k: int) -> None:
    if k < 3:
        raise ValueError(f"cycle length must be at least 3, got {k}")
    if k > MAX_CYCLE_LENGTH:
        raise ValueError(f"cycle length capped at {MAX_CYCLE_LENGTH}, got {k}")


def _blocks(graph: PlaneGraph) -> Iterator[list[int]]:
    """The vertices with two neighbors above them (no other vertex is the
    least vertex of a cycle), ascending, in blocks of doubling size: a
    search that stops at its first cycle stops within twice the starts
    it needs, and an exhaustive one takes few blocks."""
    above = Counter(map(itemgetter(0), graph.edges))  # edges are (u, v) with u < v
    starts = sorted(v for v, count in above.items() if count > 1)
    i, size = 0, 1
    while i < len(starts):
        yield starts[i:i + size]
        i, size = i + size, 2 * size


def _cycles(rot: tuple[tuple[int, ...], ...], levels: list[list[tuple[int, ...]]],
            k: int) -> set[tuple[int, ...]]:
    """The canonical k-cycles whose least vertex is a start of levels[0].

    levels[i] holds the simple paths of i edges from each start over
    vertices above that start; they grow here as far as k needs, and a
    longer k reuses the levels a shorter one grew.  Two paths p and q
    from one start, of k//2 and k - k//2 edges, that share only their
    far end close the cycle ``p + q[-2:0:-1]`` when ``p[1] < q[1]``; for
    an odd k each cycle is met twice, once from each of its far ends.
    """
    short, long = k // 2, k - k // 2
    while len(levels) <= long:
        levels.append([p + (w,) for p in levels[-1] for w in rot[p[-1]]
                       if w > p[0] and w not in p])
    near, far = levels[short], levels[long]
    if short == long:  # only an end that a second path reaches needs a look
        first: dict[tuple[int, int], tuple[int, ...]] = {}
        again = [q for q in far if first.setdefault(_start_end(q), q) is not q]
        meets: dict[tuple[int, int], list[tuple[int, ...]]] = {}
        for q in again:
            meets.setdefault(_start_end(q), [first[_start_end(q)]]).append(q)
        pairs = (pair for paths in meets.values() for pair in combinations(paths, 2))
    else:  # only an end that paths of both lengths reach needs a look
        ends = set(map(_start_end, near)).intersection(map(_start_end, far))
        by_end: dict[tuple[int, int], list[tuple[int, ...]]] = {}
        for p in compress(near, map(ends.__contains__, map(_start_end, near))):
            by_end.setdefault(_start_end(p), []).append(p)
        pairs = ((p, q) for q in compress(far, map(ends.__contains__, map(_start_end, far)))
                 for p in by_end[_start_end(q)])
    return {p + q[-2:0:-1] if p[1] < q[1] else q + p[-2:0:-1]
            for p, q in pairs if set(p[1:-1]).isdisjoint(q[1:-1])}


def canonical_cycles(graph: PlaneGraph, k: int) -> Iterator[tuple[int, ...]]:
    """The simple k-cycles in canonical form, lazily, in lexicographic order.

    Blocks of starts ascend and each cycle belongs to the block of its
    least vertex, so each block's cycles, sorted, follow the last's.
    """
    _check_length(k)
    for block in _blocks(graph):
        yield from sorted(_cycles(graph.rotations, [[(s,) for s in block]], k))


def cycles_of_length(graph: PlaneGraph, k: int) -> tuple[tuple[int, ...], ...]:
    """All simple k-cycles of the graph, canonical, duplicate-free, sorted.

    k must lie in 3..12; longer enumeration is out of scope.
    """
    return tuple(canonical_cycles(graph, k))


def least_cycles(graph: PlaneGraph, lengths: Iterable[int]) -> dict[int, tuple[int, ...] | None]:
    """The least canonical cycle of each length, or None, in one pass.

    Each block of starts is tried against every length still open,
    shortest first, so a longer length's half-paths extend the shorter
    one's.  A length's witness is the least cycle of the first block
    that has one; the pass stops once every length has one.
    """
    least: dict[int, tuple[int, ...] | None] = {}
    for k in lengths:
        _check_length(k)
        least[k] = None
    open_lengths = sorted(least)
    for block in _blocks(graph):
        if not open_lengths:
            break
        levels = [[(s,) for s in block]]
        for k in list(open_lengths):
            cycles = _cycles(graph.rotations, levels, k)
            if cycles:
                least[k] = min(cycles)
                open_lengths.remove(k)
    return least


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
