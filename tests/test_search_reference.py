"""The counting search core against the list-keeping one it replaced.

``reference_search`` keeps, for every unplaced vertex, the list of its
feasible nodes, rebuilds the lists a placement touches and restores them
from an undo log on backtrack; it is kept here as the reference.
``solver._search`` keeps only each vertex's count of feasible nodes.
Both finders must return the same status, the same order or
transversal and the same node count with either core: on subgraphs of
catalog graphs and diagonal grids (up to 25 vertices), with lists of
mixed lengths and orders, full, partial and empty matchings, repeated
pairs and entries that are not cover edges, for k = 1..4 at node limits
1..300; and on padded NONE gadgets of 3 to 43 vertices, so the dead-set
memo runs both with and without its charge.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Sequence
from unittest.mock import patch

from hypothesis import given, settings, strategies as st

from dpcharge import solver
from dpcharge.catalog import DEFAULT_CATALOG, generate
from dpcharge.cover import Cover
from dpcharge.planegraph import build_plane_graph
from dpcharge.solver import DefectVector, SearchStatus, find_ba, find_defective_dp
from test_solver_golden import diagonal_grid


def reference_search(cover: Cover, lim: Sequence[int], sat: Sequence[int],
                     fixed: Sequence[int] | None,
                     node_limit: int) -> tuple[SearchStatus, list[int], int]:
    """solver._search as it was with per-vertex feasible lists and a
    per-placement undo log of the lists each placement replaced."""
    n = cover.graph.vertex_count
    dynamic = fixed is None
    charge = n > 20
    vert, _, own, adj = cover.node_graph
    at = [-1] * n
    cnt = [0] * len(vert)
    blk = [0] * len(vert)
    cols = [list(r) for r in own]
    top = max((len(r) for r in own), default=0)
    heaps: list[list[int]] = [[] for _ in range(top + 1)]
    cap = 2 * n + 16
    for v in range(n):
        heaps[len(cols[v])].append(v)
    starved = not all(cols)
    order: list[int] = []
    logs: list[list[tuple[int, list[int]]]] = []
    failed: dict[frozenset[int], int] = {}
    held = 0
    expanded = 0

    def push(u: int) -> None:
        h = heaps[len(cols[u])]
        if len(h) >= cap:
            h[:] = sorted(set(h))
        heappush(h, u)

    def first() -> int:
        for size in range(1, top + 1):
            h = heaps[size]
            while h:
                u = h[0]
                if at[u] < 0 and len(cols[u]) == size:
                    return u
                heappop(h)
        raise AssertionError("no unplaced vertex with a feasible node")

    def later() -> list[int]:
        unplaced = sorted([u for u in range(n) if at[u] < 0], key=lambda u: len(cols[u]))
        return [x for u in unplaced[1:] for x in cols[u]]

    stack: list[list] = []
    while True:
        if len(order) == n:
            return SearchStatus.FOUND, order, expanded
        size = failed.get(frozenset(order)) if failed and not starved else None
        if size is not None and charge:
            expanded += size
            if expanded > node_limit:
                return SearchStatus.EXHAUSTED, order, node_limit + 1
        if not starved and size is None:
            u = first() if dynamic else fixed[len(order)]
            frame = [cols[u], 0, expanded, dynamic]
            stack.append(frame)
        else:
            frame = None
        while frame is None or frame[1] == len(frame[0]):
            if frame is None:
                if not order:
                    return SearchStatus.NONE, order, expanded
                for u, old in reversed(logs.pop()):
                    cols[u] = old
                    if dynamic:
                        push(u)
                p = order.pop()
                at[vert[p]] = -1
                for q in adj[p]:
                    if cnt[q] == sat[q] and at[vert[q]] == q:
                        for y in adj[q]:
                            blk[y] -= 1
                    cnt[q] -= 1
                if cnt[p] == sat[p]:
                    for y in adj[p]:
                        blk[y] -= 1
                if dynamic:
                    push(vert[p])
                frame = stack[-1]
            elif frame[3]:
                frame[0], frame[1], frame[3] = later(), 0, False
            else:
                stack.pop()
                if dynamic and (not charge or held + len(order) <= expanded):
                    failed[frozenset(order)] = expanded - frame[2]
                    held += len(order)
                frame = None
        p = frame[0][frame[1]]
        frame[1] += 1
        expanded += 1
        if expanded > node_limit:
            return SearchStatus.EXHAUSTED, order, expanded
        at[vert[p]] = p
        order.append(p)
        touched = []
        if cnt[p] == sat[p]:
            for y in adj[p]:
                blk[y] += 1
        for q in adj[p]:
            cnt[q] += 1
            u = vert[q]
            if at[u] < 0:
                touched.append(u)
            elif at[u] == q and cnt[q] == sat[q]:
                for y in adj[q]:
                    blk[y] += 1
                    if blk[y] == 1 and at[vert[y]] < 0:
                        touched.append(vert[y])
        log = []
        starved = False
        for u in touched:
            old = cols[u]
            new = [x for x in own[u] if cnt[x] <= lim[x] and not blk[x]]
            if len(new) != len(old):
                log.append((u, old))
                cols[u] = new
                if not new:
                    starved = True
                elif dynamic:
                    push(u)
        logs.append(log)


BASES = [generate(name).rotations for name in DEFAULT_CATALOG]
BASES += [diagonal_grid(side, seed).rotations for side, seed in ((4, 0), (4, 1), (5, 2))]


@st.composite
def covers(draw) -> tuple[Cover, DefectVector]:
    """A cover of a subgraph of a base graph, with its defect budgets."""
    base = draw(st.sampled_from(BASES))
    n = draw(st.integers(1, len(base)))
    rotations = base[:n]
    edges = sorted((u, v) for u, rot in enumerate(rotations) for v in rot if u < v < n)
    kept = {e for e in edges if draw(st.booleans())}
    graph = build_plane_graph([[v for v in rot if (min(u, v), max(u, v)) in kept]
                               for u, rot in enumerate(rotations)])
    k = draw(st.integers(1, 4))
    colors = st.permutations(range(1, k + 1))
    longest = draw(st.integers(1, k))
    lists = tuple(tuple(draw(colors)[:draw(st.integers(1, longest))])
                  for _ in graph.vertices())
    # up to three more keys, which may be reversed or not edges; a pair may
    # name a color its vertex does not list
    keys = sorted(kept)
    keys += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3))
    matchings = {}
    for key in keys:
        pairs = list(zip(draw(colors), draw(colors)))[:draw(st.integers(0, k))]
        if pairs and draw(st.booleans()):
            pairs.append(draw(st.sampled_from(pairs)))
        matchings[key] = tuple(pairs)
    budgets = DefectVector(tuple(draw(st.lists(st.integers(0, 3), min_size=k, max_size=k))))
    return Cover(graph, k, lists, matchings), budgets


def gadget(n: int, x: int, y: int, z: int) -> Cover:
    """The padded NONE gadget on n vertices, its path (x,1) - (y,2) - (z,1)
    at the given ids; every other vertex is isolated with only color 1.
    Its budgets are for k = 2."""
    rotations: list[list[int]] = [[] for _ in range(n)]
    rotations[y] = [x, z]
    rotations[x], rotations[z] = [y], [y]
    lists = [(1,)] * n
    lists[y] = (2,)
    matchings = {(min(y, w), max(y, w)): (((2, 1),) if y < w else ((1, 2),)) for w in (x, z)}
    return Cover(build_plane_graph(rotations), 2, tuple(lists), matchings)


GADGETS = st.builds(lambda ids, budgets: (gadget(len(ids), *ids[:3]), DefectVector(budgets)),
                    st.integers(3, 43).flatmap(lambda n: st.permutations(range(n))),
                    st.tuples(st.integers(0, 2), st.integers(0, 2)))


def _outcomes(cover: Cover, budgets: DefectVector, limit: int) -> tuple:
    ba = find_ba(cover, limit)
    dp = find_defective_dp(cover, budgets, limit)
    return ((ba.status, ba.ordered and ba.ordered.order, ba.nodes_expanded),
            (dp.status, dp.transversal, dp.nodes_expanded))


@given(case=covers() | GADGETS, limit=st.integers(1, 300))
@settings(max_examples=400, deadline=None)
def test_finders_agree_with_the_list_keeping_search(case, limit):
    cover, budgets = case
    with patch.object(solver, "_search", reference_search):
        want = _outcomes(cover, budgets, limit)
    assert _outcomes(cover, budgets, limit) == want


def test_a_count_that_rises_on_undo_keeps_its_vertex_a_candidate():
    # Placing (0,1) takes (1,1) from vertex 1; the search places (1,2) and
    # then meets only full lists, so its heap scan drops the stale entries
    # of vertices 0 and 1 from the two-node bucket.  The identity cover of
    # K4 on vertices 2..5 has no B_A coloring, so every branch dies, and
    # undoing (0,1) must put vertex 1 back in the two-node bucket: after
    # (0,2), it is the first candidate again
    k4 = generate("k4").rotations
    graph = build_plane_graph([[1], [0]] + [[v + 2 for v in rot] for rot in k4])
    matchings = {(u, v): ((1, 1), (2, 2)) for u, v in graph.edges if u >= 2}
    cover = Cover(graph, 2, ((1, 2),) * 6, {(0, 1): ((1, 1),), **matchings})
    with patch.object(solver, "_search", reference_search):
        want = _outcomes(cover, DefectVector((0, 0)), 2000)
    assert want[0] == (SearchStatus.NONE, None, 910)
    assert _outcomes(cover, DefectVector((0, 0)), 2000) == want
