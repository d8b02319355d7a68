"""Finders and verifiers for defective DP-colorings and order-constrained
(B_A) DP-colorings of covers.

A transversal picks one cover node per vertex.  The defective variant
bounds the degree of each chosen node inside the induced cover subgraph
by a per-color budget.  The B_A variant asks for a left-to-right order
in which color-1 nodes have no earlier neighbor and every other node
has at most one earlier neighbor, that neighbor itself being adjacent
to at most one node placed before the current one.

Each node's B_A condition reads only its own prefix, so a placement
prefix that was valid never becomes invalid later; the B_A search
exploits this by building the order as the assignment order.

Both finders are thin wrappers over one search core, _search, which runs
on an explicit stack with one frame per open placed set (so the depth is
not bounded by the recursion limit) and does forward checking (Haralick
& Elliott, AIJ 1980).  A mode is two numbers per node: how many placed
neighbors the node may have, and how many make a placed node block its
unplaced neighbors.  The defective search keeps a fixed vertex order and
the B_A search its fewest-colors-first order, so the pruning never
changes which solution is found first; a node expanded is one feasible
placement.  A dead set of placed nodes that the B_A search reaches again
is charged the nodes its first walk took instead of being walked again.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from heapq import heappop, heappush
from typing import Mapping, Sequence

from .cover import Cover, Node

Transversal = Mapping[int, int]  # vertex -> chosen color
DEFAULT_NODE_LIMIT = 2_000_000  # placements a search may make by default


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

    def budget(self, color: int) -> int:
        if not (1 <= color <= len(self.budgets)):
            raise ValueError(f"color {color} has no defect budget (k={len(self.budgets)})")
        return self.budgets[color - 1]

    def __len__(self) -> int:
        return len(self.budgets)


def _check_budgets(cover: Cover, d: DefectVector) -> None:
    if len(d) != cover.k:
        raise ValueError(f"defect vector length {len(d)} != k={cover.k}")


def _check_transversal(cover: Cover, t: Transversal) -> None:
    verts = set(cover.graph.vertices())
    if set(t) != verts:
        raise ValueError("not a transversal: must choose exactly one color per vertex")
    for v, c in t.items():
        if c not in cover.lists[v]:
            raise ValueError(f"not a transversal: color {c} not in list of vertex {v}")


def induced_neighbors(cover: Cover, t: Transversal) -> dict[int, list[int]]:
    """For each vertex v, the vertices whose chosen nodes are adjacent to
    (v, t[v]) in the cover, in increasing order; read from
    cover.edge_matchings, not from the search's node graph."""
    nbrs: dict[int, list[int]] = {v: [] for v in t}
    for u, v, pairs in cover.edge_matchings:
        if (t[u], t[v]) in pairs:
            nbrs[u].append(v)
            nbrs[v].append(u)
    return nbrs


@dataclass(frozen=True)
class DefectReport:
    passed: bool
    degrees: tuple[tuple[int, int], ...]  # (vertex, induced degree)
    violations: tuple[tuple[int, int, int, int], ...]  # (vertex, color, degree, budget)


def verify_defective(cover: Cover, t: Transversal, d: DefectVector) -> DefectReport:
    """Check deg(v, c) <= d_c for every chosen node (v, c)."""
    _check_budgets(cover, d)
    _check_transversal(cover, t)
    deg = {v: len(ws) for v, ws in induced_neighbors(cover, t).items()}
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


def _search(cover: Cover, lim: Sequence[int], sat: Sequence[int],
            fixed: Sequence[int] | None, node_limit: int) -> tuple[SearchStatus, list[int], int]:
    """The depth-first search both finders run, over the node ids of
    cover.node_graph; returns the status, the placed nodes in placement
    order and the number of placements made.

    A node x of an unplaced vertex is feasible while at most lim[x] of
    its neighbors are placed and no placed neighbor q is saturated, that
    is, has sat[q] placed neighbors of its own.  Placements only add, so
    a node that stops being feasible never recovers (forward checking):
    a placement that leaves some unplaced vertex without a feasible node
    is undone at once, and a node is counted only when it is placed.

    Feasible nodes are kept per vertex and updated incrementally.
    Placing p changes feasibility only for the unplaced neighbors of p
    and, when a placed neighbor q of p becomes saturated, for the
    unplaced neighbors of q; only their vertices are re-checked, and an
    undo log restores their lists on backtrack.

    Each open placed set has a frame on the stack.  The start and each
    placement open one unless the set is a transversal, leaves a vertex
    without a feasible node, or is a remembered dead set.  With a fixed
    vertex order the frame at depth i tries the nodes of fixed[i].
    Otherwise (fixed is None) the placement order is part of the answer,
    so every unplaced vertex is a candidate, in order of fewest feasible
    nodes (ties by id): vertices are bucketed by list length, so the
    first candidate is the lowest id of the lowest non-empty bucket, and
    the later candidates' nodes are read as one list once its nodes are
    spent (everything placed below the frame is undone by then).

    Below a prefix, the lists, saturations and candidate order depend
    only on its placed set.  The dynamic search stores each dead set with
    the placements below it and charges them when another order reaches
    the set (past node_limit: exhausted at node_limit + 1), so status,
    order and count are the plain walk's.  Keys are built only after a
    failure, and the memo holds no more node ids than have been counted.
    Up to 20 vertices every dead set is kept and a repeat is free.
    """
    n = cover.graph.vertex_count
    dynamic = fixed is None
    charge = n > 20
    vert, _, own, adj = cover.node_graph
    at = [-1] * n  # placed node of each vertex, -1 while unplaced
    cnt = [0] * len(vert)  # placed neighbors of each node
    blk = [0] * len(vert)  # saturated placed neighbors of each node
    cols = [list(r) for r in own]  # feasible nodes of each unplaced vertex
    top = max((len(r) for r in own), default=0)
    # buckets by list length, as heaps of vertex ids; an entry is live while
    # its vertex is unplaced with a list of that length, and stale entries
    # are dropped when they reach the top.  A heap that reaches cap entries
    # is replaced by its distinct entries, sorted (a sorted list is a heap),
    # so no heap outgrows cap however often the search backtracks
    heaps: list[list[int]] = [[] for _ in range(top + 1)]
    cap = 2 * n + 16
    for v in range(n):
        heaps[len(cols[v])].append(v)
    starved = not all(cols)  # some unplaced vertex has no feasible node
    order: list[int] = []
    logs: list[list[tuple[int, list[int]]]] = []  # per placement: (vertex, old list)
    failed: dict[frozenset[int], int] = {}  # dead placed set -> placements below it
    held = 0  # node ids in the keys of failed
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
        return [x for u in unplaced[1:] for x in cols[u]]  # sorted is stable: ties stay by id

    stack: list[list] = []  # frames: [nodes, next index, count at entry, later pending]
    while True:
        # the walk starts or a placement was just made
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
        # until a frame has a node to try: undo the last placement while it
        # has no open frame (frame is None), read later candidates, or close
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
        # place p, then re-check the vertices whose lists it can change
        at[vert[p]] = p
        order.append(p)
        touched = []
        if cnt[p] == sat[p]:  # saturated on placement: blocks its neighbors
            for y in adj[p]:
                blk[y] += 1
        for q in adj[p]:
            cnt[q] += 1
            u = vert[q]
            if at[u] < 0:
                touched.append(u)
            elif at[u] == q and cnt[q] == sat[q]:  # q saturates now
                for y in adj[q]:
                    blk[y] += 1
                    if blk[y] == 1 and at[vert[y]] < 0:
                        touched.append(vert[y])
        log = []
        starved = False
        for u in touched:
            old = cols[u]
            new = [x for x in own[u] if cnt[x] <= lim[x] and not blk[x]]
            if len(new) != len(old):  # lists only shrink as nodes are placed
                log.append((u, old))
                cols[u] = new
                if not new:
                    starved = True
                elif dynamic:
                    push(u)
        logs.append(log)


def find_defective_dp(cover: Cover, d: DefectVector,
                      node_limit: int = DEFAULT_NODE_LIMIT) -> DefectOutcome:
    """Search for a defective DP-coloring with forward checking.

    Vertices are assigned highest-degree-first (ties by id), each one's
    colors in list order.  A node (v, c) is feasible while at most d_c
    of its neighbors are placed and no placed neighbor is at its own
    budget; a placement that leaves some unplaced vertex without a
    feasible color is undone at once.  Both prunes are sound because
    induced degrees only grow along a branch, so with the order fixed
    the first transversal found is the one plain backtracking would
    find.  nodes_expanded counts feasible placements.
    """
    _check_budgets(cover, d)
    graph = cover.graph
    vert, color = cover.node_graph[:2]
    caps = [d.budget(c) for c in color]
    fixed = sorted(graph.vertices(), key=lambda v: (-graph.degree(v), v))
    status, placed, expanded = _search(cover, caps, caps, fixed, node_limit)
    if status is not SearchStatus.FOUND:
        return DefectOutcome(status, None, expanded)
    result = {vert[p]: color[p] for p in placed}
    report = verify_defective(cover, result, d)
    assert report.passed, "solver soundness: found transversal failed verification"
    return DefectOutcome(status, result, expanded)


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
    violation: BAViolation | None


def verify_ba(cover: Cover, ot: OrderedTransversal) -> BAReport:
    """Check both order conditions position by position.

    For the node at position p with color c: c = 1 requires no neighbor
    among positions < p; otherwise at most one such neighbor w, and w
    must have at most one neighbor among positions < p.  The violation
    reported is the first one in order.  Reads the matchings through
    induced_neighbors, so it shares no state with the search.
    """
    t = ot.assignment
    _check_transversal(cover, t)
    nbrs = induced_neighbors(cover, t)
    placed: set[int] = set()
    for p, node in enumerate(ot.order):
        lefts = [w for w in nbrs[node[0]] if w in placed]
        if lefts:
            w = lefts[0]
            if node[1] == 1:
                return BAReport(False, BAViolation(
                    1, node, p, f"color-1 node {node} has left neighbor {(w, t[w])}"))
            if len(lefts) > 1:
                return BAReport(False, BAViolation(
                    2, node, p, f"node {node} has {len(lefts)} left neighbors"))
            load = sum(x in placed for x in nbrs[w])
            if load > 1:
                return BAReport(False, BAViolation(
                    2, node, p, f"left neighbor {(w, t[w])} of {node} is "
                                f"adjacent to {load} nodes left of it"))
        placed.add(node[0])
    return BAReport(True, None)


@dataclass(frozen=True)
class BAOutcome:
    status: SearchStatus
    ordered: OrderedTransversal | None
    nodes_expanded: int


def find_ba(cover: Cover, node_limit: int = DEFAULT_NODE_LIMIT) -> BAOutcome:
    """Depth-first search for a B_A coloring; placement order is the
    left-to-right order.

    At each step every uncolored vertex is a candidate, tried in order
    of fewest feasible colors (ties by id); restricting to a single
    candidate vertex would be incomplete because a placement that fails
    now never succeeds later, but a different vertex may have to go
    first.  A node is feasible while it has no placed neighbor (color 1)
    or at most one (other colors), and no placed neighbor has two placed
    neighbors of its own.
    """
    vert, color = cover.node_graph[:2]
    lim = [0 if c == 1 else 1 for c in color]
    status, placed, expanded = _search(cover, lim, [2] * len(color), None, node_limit)
    if status is not SearchStatus.FOUND:
        return BAOutcome(status, None, expanded)
    ot = OrderedTransversal({vert[p]: color[p] for p in placed},
                            tuple((vert[p], color[p]) for p in placed))
    report = verify_ba(cover, ot)
    assert report.passed, "solver soundness: found ordering failed verification"
    return BAOutcome(status, ot, expanded)


@dataclass(frozen=True)
class TransversalStructure:
    is_linear_forest: bool
    color1_independent: bool


def structure_of_transversal(cover: Cover, t: Transversal) -> TransversalStructure:
    """Necessary conditions for a B_A coloring: the induced cover
    subgraph is a linear forest and the color-1 class is independent."""
    _check_transversal(cover, t)
    nbrs = induced_neighbors(cover, t)
    edges = [(u, v) for u, ws in nbrs.items() for v in ws if u < v]
    linear = all(len(ws) <= 2 for ws in nbrs.values())
    if linear:
        # acyclic iff every component has fewer edges than vertices
        parent = {v: v for v in t}

        def find(x: int) -> int:
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
    color1 = not any(t[u] == 1 and t[v] == 1 for u, v in edges)
    return TransversalStructure(linear, color1)
