"""Finders and verifiers for defective DP-colorings and order-constrained
(B_A) DP-colorings of covers.

A transversal picks one cover node per vertex.  The defective variant
bounds the degree of each chosen node inside the induced cover subgraph
by a per-color budget.  The B_A variant asks for a left-to-right order
in which color-1 nodes have no earlier neighbor and every other node
has at most one earlier neighbor, that neighbor itself being adjacent
to at most one node placed before the current one.

Each node's B_A condition reads only its own prefix, so a placement
prefix that was valid never becomes invalid later; the searches below
exploit this by building the order as the assignment order.

Both searches run on an explicit stack, so their depth (the vertex
count) is not bounded by the interpreter's recursion limit.  The B_A
search keeps each unplaced vertex's feasible colors and, after a
placement, re-checks only the vertices within distance 2 of the placed
one, restoring the changed lists from an undo log on backtrack; a search
that never backtracks therefore costs near-linear time in the graph size.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from heapq import heappop, heappush
from typing import Mapping

from .cover import Cover, Node

Transversal = Mapping[int, int]  # vertex -> chosen color


class SearchStatus(Enum):
    FOUND = "found"
    NONE = "none"  # definitive: exhaustive within the search space
    EXHAUSTED = "budget-exhausted"


@dataclass(frozen=True)
class DefectVector:
    budgets: tuple[int, ...]

    def __post_init__(self):
        if any(d < 0 for d in self.budgets):
            raise ValueError("defect budgets must be non-negative")

    @classmethod
    def of(cls, *budgets: int) -> "DefectVector":
        return cls(tuple(budgets))

    def budget(self, color: int) -> int:
        if not (1 <= color <= len(self.budgets)):
            raise ValueError(f"color {color} has no defect budget (k={len(self.budgets)})")
        return self.budgets[color - 1]

    def __len__(self) -> int:
        return len(self.budgets)


def _check_transversal(cover: Cover, t: Transversal) -> None:
    verts = set(cover.graph.vertices())
    if set(t) != verts:
        raise ValueError("not a transversal: must choose exactly one color per vertex")
    for v, c in t.items():
        if c not in cover.lists[v]:
            raise ValueError(f"not a transversal: color {c} not in list of vertex {v}")


def induced_degrees(cover: Cover, t: Transversal) -> dict[int, int]:
    """Degree of each chosen node in the cover subgraph induced by t."""
    deg = {v: 0 for v in t}
    for (u, v), pairs in cover.matchings.items():
        if (t[u], t[v]) in pairs:
            deg[u] += 1
            deg[v] += 1
    return deg


@dataclass(frozen=True)
class DefectReport:
    passed: bool
    degrees: tuple[tuple[int, int], ...]  # (vertex, induced degree)
    violations: tuple[tuple[int, int, int, int], ...]  # (vertex, color, degree, budget)


def verify_defective(cover: Cover, t: Transversal, d: DefectVector) -> DefectReport:
    """Check deg(v, c) <= d_c for every chosen node (v, c)."""
    _check_transversal(cover, t)
    deg = induced_degrees(cover, t)
    violations = []
    for v in sorted(t):
        c = t[v]
        if deg[v] > d.budget(c):
            violations.append((v, c, deg[v], d.budget(c)))
    return DefectReport(not violations, tuple(sorted(deg.items())), tuple(violations))


@dataclass(frozen=True)
class DefectOutcome:
    status: SearchStatus
    transversal: dict[int, int] | None
    nodes_expanded: int


def find_defective_dp(cover: Cover, d: DefectVector, node_limit: int = 2_000_000) -> DefectOutcome:
    """Backtracking search for a defective DP-coloring.

    Vertices are assigned highest-degree-first (ties by id); a branch is
    pruned as soon as any committed node exceeds its budget, which is
    sound because induced degrees only grow along a branch.  The depth
    is an index into that fixed order, with the next color to try kept
    per depth, so the search needs no recursion.
    """
    graph = cover.graph
    if len(d) != cover.k:
        raise ValueError(f"defect vector length {len(d)} != k={cover.k}")
    n = graph.vertex_count
    order = sorted(graph.vertices(), key=lambda v: (-graph.degree(v), v))
    # budgets by color, read for placed nodes, whose colors passed d.budget
    caps = {c: d.budget(c) for c in range(1, len(d) + 1)}
    vert, color, _, ids, adj = cover.node_graph
    at = [-1] * n  # placed node of each vertex, -1 while unplaced
    deg = [0] * n

    def place(v: int, c: int) -> list[int] | None:
        """Commit (v, c); return the bumped vertices or None on violation."""
        p = ids[(v, c)]
        bumped = []
        dv = 0
        for q in adj[p]:
            u = vert[q]
            if at[u] == q:
                dv += 1
                deg[u] += 1
                bumped.append(u)
                if deg[u] > caps[color[q]]:
                    for w in bumped:
                        deg[w] -= 1
                    return None
        if dv > d.budget(c):
            for w in bumped:
                deg[w] -= 1
            return None
        at[v] = p
        deg[v] = dv
        return bumped

    depth = 0  # order[:depth] is colored
    tried = [0] * (n + 1)  # colors tried so far at each depth
    bumped_at: list[list[int]] = [[] for _ in range(n)]
    expanded = 0
    status = SearchStatus.FOUND
    while depth < n:
        v = order[depth]
        colors = cover.lists[v]
        if tried[depth] < len(colors):
            c = colors[tried[depth]]
            tried[depth] += 1
            expanded += 1
            if expanded > node_limit:
                status = SearchStatus.EXHAUSTED
                break
            bumped = place(v, c)
            if bumped is not None:
                bumped_at[depth] = bumped
                depth += 1
                tried[depth] = 0
            continue
        if depth == 0:
            status = SearchStatus.NONE
            break
        depth -= 1
        at[order[depth]] = -1
        for w in bumped_at[depth]:
            deg[w] -= 1

    if status is SearchStatus.FOUND:
        result = {v: color[at[v]] for v in order}
        report = verify_defective(cover, result, d)
        assert report.passed, "solver soundness: found transversal failed verification"
        return DefectOutcome(status, result, expanded)
    return DefectOutcome(status, None, expanded)


# -- B_A colorings -----------------------------------------------------


@dataclass(frozen=True)
class OrderedTransversal:
    assignment: dict[int, int]
    order: tuple[Node, ...]  # position 0 = leftmost

    def __post_init__(self):
        nodes = {(v, c) for v, c in self.assignment.items()}
        if set(self.order) != nodes or len(self.order) != len(nodes):
            raise ValueError("order must be a permutation of the transversal's nodes")


@dataclass(frozen=True)
class BAViolation:
    condition: int  # 1 or 2
    node: Node
    position: int
    detail: str


@dataclass(frozen=True)
class BAReport:
    passed: bool
    left_neighbor_counts: tuple[tuple[Node, int], ...]
    left_neighbor_loads: tuple[tuple[Node, int], ...]  # unique left neighbor's earlier-degree
    violation: BAViolation | None


def verify_ba(cover: Cover, ot: OrderedTransversal) -> BAReport:
    """Check both order conditions position by position.

    For the node at position p with color c: c = 1 requires no neighbor
    among positions < p; otherwise at most one such neighbor w, and w
    must have at most one neighbor among positions < p.
    """
    _check_transversal(cover, ot.assignment)
    placed: set[Node] = set()
    counts: list[tuple[Node, int]] = []
    loads: list[tuple[Node, int]] = []
    violation: BAViolation | None = None
    for p, node in enumerate(ot.order):
        v, c = node
        lefts = [w for w in cover.neighbors_in_cover(node) if w in placed]
        counts.append((node, len(lefts)))
        if c == 1 and lefts and violation is None:
            violation = BAViolation(1, node, p,
                                    f"color-1 node {node} has left neighbor {lefts[0]}")
        elif c != 1 and len(lefts) > 1 and violation is None:
            violation = BAViolation(2, node, p,
                                    f"node {node} has {len(lefts)} left neighbors")
        elif c != 1 and len(lefts) == 1:
            w = lefts[0]
            load = sum(1 for x in cover.neighbors_in_cover(w) if x in placed)
            loads.append((node, load))
            if load > 1 and violation is None:
                violation = BAViolation(
                    2, node, p,
                    f"left neighbor {w} of {node} is adjacent to {load} nodes left of it")
        placed.add(node)
    return BAReport(violation is None, tuple(counts), tuple(loads), violation)


@dataclass(frozen=True)
class BAOutcome:
    status: SearchStatus
    ordered: OrderedTransversal | None
    nodes_expanded: int


def find_ba(cover: Cover, node_limit: int = 2_000_000) -> BAOutcome:
    """Depth-first search for a B_A coloring over the node ids of
    cover.node_graph; placement order is the left-to-right order.

    At each step every uncolored vertex is a candidate, tried in order
    of fewest feasible colors (ties by id); restricting to a single
    candidate vertex would be incomplete because a placement that fails
    now never succeeds later, but a different vertex may have to go
    first.  Dead prefixes are memoized by their placed node set when the
    graph has at most 20 vertices: feasibility of any extension depends
    only on that set, not on the order that reached it.

    Feasible colors are kept per vertex and updated incrementally.  A
    node's feasibility reads its placed neighbors and their placed
    degrees, so placing (v, c) can only change it for vertices within
    distance 2 of v: the unplaced neighbors of v, and the unplaced
    neighbors of a placed neighbor whose placed degree reaches 2.  Only
    those are re-checked, and an undo log restores their lists on
    backtrack.  Vertices are bucketed by list length, so a dead vertex
    (empty list) is seen in O(1) and the first candidate is the lowest
    id of the lowest non-empty bucket; the full candidate order is built
    only when that candidate's colors all fail.  An explicit stack
    replaces recursion, so the depth is not bounded by the interpreter.
    """
    graph = cover.graph
    n = graph.vertex_count
    memo_on = n <= 20
    vert, color, own, _, adj = cover.node_graph
    at = [-1] * n  # placed node of each vertex, -1 while unplaced
    cnt = [0] * len(vert)  # placed neighbors of each node
    lsum = [0] * len(vert)  # sum of their ids: the neighbor itself when cnt is 1
    cols = [list(r) for r in own]  # feasible nodes of each unplaced vertex
    top = max((len(r) for r in own), default=0)
    # buckets by list length, as heaps of vertex ids; an entry is live while
    # its vertex is unplaced with a list of that length, and stale entries
    # are dropped when they reach the top
    heaps: list[list[int]] = [[] for _ in range(top + 1)]
    for v in graph.vertices():
        heaps[len(cols[v])].append(v)
    zero = len(heaps[0])  # unplaced vertices without a feasible color
    order: list[int] = []
    logs: list[list[tuple[int, list[int]]]] = []  # per placement: (vertex, old list)
    failed: set[frozenset[int]] = set()
    expanded = 0

    def first_candidate() -> int:
        for size in range(1, top + 1):
            h = heaps[size]
            while h:
                u = h[0]
                if at[u] < 0 and len(cols[u]) == size:
                    return u
                heappop(h)
        raise AssertionError("no unplaced vertex with a feasible color")

    def later_candidates() -> list[int]:
        rest = [u for u in graph.vertices() if at[u] < 0]
        rest.sort(key=lambda u: len(cols[u]))  # stable: ties stay by id
        return rest[1:]

    # The open search nodes on the current path, one per placement: the
    # feasible nodes of the candidate being tried, the index of the next
    # one, the candidates after the first (None until needed), the index
    # of the next one, and the memo key.  The top node lives in the
    # locals below; the others are on the stack.
    stack: list[tuple] = []
    nodes: list[int] = []
    j = 0
    rest: list[int] | None = None
    pos = 0
    key: frozenset[int] | None = None
    entering = True  # a placement was just made, or the search starts
    while True:
        if entering:
            entering = False
            if len(order) == n:
                status = SearchStatus.FOUND
                break
            child_key = frozenset(order) if memo_on else None
            dead = memo_on and child_key in failed
            if not dead and zero:
                # monotone: a vertex with no feasible color never recovers
                dead = True
                if memo_on:
                    failed.add(child_key)
            if not dead:
                if order:
                    stack.append((nodes, j, rest, pos, key))
                nodes, j, rest, pos, key = cols[first_candidate()], 0, None, 0, child_key
                continue
            if not order:
                status = SearchStatus.NONE
                break
        elif j < len(nodes):
            p = nodes[j]
            j += 1
            expanded += 1
            if expanded > node_limit:
                status = SearchStatus.EXHAUSTED
                break
            # place p, then re-check the vertices whose lists it can change
            at[vert[p]] = p
            order.append(p)
            touched = []
            for q in adj[p]:
                cnt[q] += 1
                lsum[q] += p
                u = vert[q]
                if at[u] < 0:
                    touched.append(u)
                elif at[u] == q and cnt[q] == 2:
                    # q stops being a usable unique left neighbor
                    touched.extend(vert[y] for y in adj[q]
                                   if cnt[y] == 1 and at[vert[y]] < 0)
            log = []
            for u in touched:
                old = cols[u]
                new = [x for x in own[u]
                       if cnt[x] == 0
                       or (cnt[x] == 1 and color[x] != 1 and cnt[lsum[x]] <= 1)]
                if len(new) != len(old):  # lists only shrink as nodes are placed
                    log.append((u, old))
                    cols[u] = new
                    if new:
                        heappush(heaps[len(new)], u)
                    else:
                        zero += 1
            logs.append(log)
            entering = True
            continue
        else:
            if rest is None:
                rest = later_candidates()
            if pos < len(rest):
                nodes, j = cols[rest[pos]], 0
                pos += 1
                continue
            # every candidate failed
            if memo_on:
                failed.add(key)
            if not stack:
                status = SearchStatus.NONE
                break
            nodes, j, rest, pos, key = stack.pop()
        # undo the last placement
        for u, old in reversed(logs.pop()):
            if not cols[u]:
                zero -= 1
            cols[u] = old
            heappush(heaps[len(old)], u)
        p = order.pop()
        v = vert[p]
        at[v] = -1
        for q in adj[p]:
            cnt[q] -= 1
            lsum[q] -= p
        heappush(heaps[len(cols[v])], v)

    if status is SearchStatus.FOUND:
        ot = OrderedTransversal({vert[p]: color[p] for p in order},
                                tuple((vert[p], color[p]) for p in order))
        report = verify_ba(cover, ot)
        assert report.passed, "solver soundness: found ordering failed verification"
        return BAOutcome(status, ot, expanded)
    return BAOutcome(status, None, expanded)


@dataclass(frozen=True)
class TransversalStructure:
    is_linear_forest: bool
    color1_independent: bool


def structure_of_transversal(cover: Cover, t: Transversal) -> TransversalStructure:
    """Necessary conditions for a B_A coloring: the induced cover
    subgraph is a linear forest and the color-1 class is independent."""
    _check_transversal(cover, t)
    nodes = [(v, c) for v, c in t.items()]
    edges = []
    for (u, v), pairs in cover.matchings.items():
        if (t[u], t[v]) in pairs:
            edges.append(((u, t[u]), (v, t[v])))
    deg: dict[Node, int] = {x: 0 for x in nodes}
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    linear = all(d <= 2 for d in deg.values())
    if linear:
        # acyclic iff every component has fewer edges than vertices
        parent = {x: x for x in nodes}

        def find(x: Node) -> Node:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in edges:
            ra, rb = find(a), find(b)
            if ra == rb:
                linear = False
                break
            parent[ra] = rb
    color1 = not any(a[1] == 1 and b[1] == 1 for a, b in edges)
    return TransversalStructure(linear, color1)
