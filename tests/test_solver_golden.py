"""Byte-exact outcomes of the two cover searches.

Three sha256 digests pin the searches over seeded covers:

- ``find_ba``: ``(status, assignment, order, nodes_expanded)`` per row,
  plus the padded NONE pattern at a limit it exhausts.  A change to how
  the search is carried out cannot change which transversal it returns,
  in which order, or after how many expanded nodes.
- ``find_defective_dp`` verdicts: ``(status, transversal)`` of every row
  at the default limit, where every row is decided.  Pruning must never
  change which transversal the fixed-order search returns first.
- ``find_defective_dp`` node counts: ``(status, nodes_expanded)`` of
  every row at every limit.  These move whenever the pruning does.

The inputs are full and partial random covers of every catalog graph and
of ``cycle:60``, at a small and at a large node limit.

A fourth digest pins ``find_ba`` where its search backtracks most:
padded NONE gadgets of more than 20 vertices, and partial k = 1 and
k = 2 covers of seeded diagonal grids, at limits that end in each of
the three statuses.  There ``find_ba`` must agree with
``reference_ba``, a plain walk written here without any memo: a dead
placed set that the search skips must still be counted, node for node.
"""

import hashlib
import heapq
import math
import time
import tracemalloc
from random import Random

import pytest

from dpcharge.catalog import DEFAULT_CATALOG, generate
from dpcharge.cover import Cover, random_cover
from dpcharge import solver
from dpcharge.planegraph import build_plane_graph
from dpcharge.solver import DefectVector, SearchStatus, find_ba, find_defective_dp

# theta:1,2,2 is in the catalog
GRAPHS = DEFAULT_CATALOG + ("cycle:60",)
SEEDS = range(6)
# k -> (defect budgets, node limits).  Partial k=1 covers of cycle:60
# backtrack on almost every node and never finish, so they get a
# smaller second limit.
CASES = {1: (DefectVector((0,)), (50, 5000)),
         2: (DefectVector((0, 1)), (50, 2_000_000)),
         3: (DefectVector((0, 2, 2)), (50, 2_000_000))}
DECIDED_LIMIT = 2_000_000
PADDING = 16
GADGET_LIMIT = 5000

# recorded before the defective search gained forward checking
BA_GOLDEN = "20d860b5d6fd4234a874e8978b556396afc687270d39fafe220318e24fee03c9"
DEFECT_VERDICTS_GOLDEN = "d310e57d6b641536e024d26fe5413d623f917e7313f1db2378d126f28e2c1de1"
# recorded with forward checking; a node counts a feasible placement
DEFECT_NODES_GOLDEN = "4351bc97b2356f0a920b04e05506ce6d0d4067d13ca575987b55f337f5a47a49"

GADGET_PADDINGS = (18, 30, 60)
GADGET_LIMITS = (10, 1000, 5000, 20000)
GRIDS = ((6, 0), (6, 1), (6, 2), (8, 0), (8, 1))  # (side, seed)
GRID_COVER_SEEDS = range(8)
GRID_LIMITS = (100, 5000, 50000)
REFERENCE_LIMIT = 20000  # the plain walk is too slow for the grids at 50000
# recorded before find_ba remembered dead placed sets on graphs of more
# than 20 vertices: (status, order, nodes_expanded) per row
BA_BACKTRACK_GOLDEN = "7ea7dfb730d0b6f6ed3ee2b90f130f7640076e52bff74d43addd1aeae50ae01f"


def padded_gadget(padding: int) -> Cover:
    """The rejected path pattern (y,2) matched to (x,1) and (z,1), plus
    isolated vertices that only have colour 1."""
    rot = {0: [1], 1: [0, 2], 2: [1]}
    rot.update({v: [] for v in range(3, 3 + padding)})
    return Cover(build_plane_graph(rot), 1, ((1,), (2,), (1,)) + ((1,),) * padding,
                 {(0, 1): ((1, 2),), (1, 2): ((2, 1),)})


def diagonal_grid(side: int, seed: int):
    """A side x side grid in which about half the squares, chosen by the
    seed, get one diagonal in a seeded direction."""
    rng = Random(seed)
    edges = []
    for i in range(side):
        for j in range(side):
            v = i * side + j
            if j + 1 < side:
                edges.append((v, v + 1))
            if i + 1 < side:
                edges.append((v, v + side))
            if i + 1 < side and j + 1 < side and rng.random() < 0.5:
                edges.append((v, v + side + 1) if rng.random() < 0.5 else (v + 1, v + side))
    rot: dict[int, list[int]] = {v: [] for v in range(side * side)}
    for u, v in edges:
        rot[u].append(v)
        rot[v].append(u)
    for u, nbrs in rot.items():
        nbrs.sort(key=lambda w: math.atan2(w // side - u // side, w % side - u % side))
    return build_plane_graph(rot)


def _rows():
    for name in GRAPHS:
        g = generate(name)
        for k, (budgets, limits) in CASES.items():
            for full in (True, False):
                for seed in SEEDS:
                    cover = random_cover(g, k, seed, full)
                    for limit in limits:
                        yield (name, k, full, seed, limit), cover, budgets


@pytest.fixture(scope="module")
def defect_rows():
    rows = []
    for key, cover, budgets in _rows():
        out = find_defective_dp(cover, budgets, key[-1])
        t = sorted(out.transversal.items()) if out.transversal is not None else None
        rows.append((key, out.status, t, out.nodes_expanded))
    return rows


def _backtrack_rows():
    for padding in GADGET_PADDINGS:
        cover = padded_gadget(padding)
        for limit in GADGET_LIMITS:
            yield ("gadget", padding, limit), cover
    for side, seed in GRIDS:
        g = diagonal_grid(side, seed)
        for k in (1, 2):
            for cover_seed in GRID_COVER_SEEDS:
                cover = random_cover(g, k, cover_seed, False)
                for limit in GRID_LIMITS:
                    yield ("grid", side, seed, k, cover_seed, limit), cover


@pytest.fixture(scope="module")
def backtrack_rows():
    rows = []
    for key, cover in _backtrack_rows():
        out = find_ba(cover, key[-1])
        order = list(out.ordered.order) if out.ordered is not None else None
        rows.append((key, cover, (out.status, order, out.nodes_expanded)))
    return rows


class _Exhausted(Exception):
    pass


def reference_ba(cover: Cover, node_limit: int):
    """A plain recursive B_A walk: at every step the feasible colours of
    every unplaced vertex are computed afresh, the vertices are tried by
    fewest feasible colours (ties by id), and each placement counts one
    node.  Returns (status, order, nodes) like a find_ba row."""
    vert, color, own, adj = cover.node_graph
    n = cover.graph.vertex_count
    at = [-1] * n
    cnt = [0] * len(vert)  # placed neighbours of each node
    order: list[int] = []
    count = 0

    def walk() -> bool:
        nonlocal count
        if len(order) == n:
            return True
        # a placed node with two placed neighbours takes no more
        blocked = {y for q in order if cnt[q] >= 2 for y in adj[q]}
        free = [u for u in range(n) if at[u] < 0]
        lists = {u: [x for x in own[u] if cnt[x] <= (color[x] != 1) and x not in blocked]
                 for u in free}
        if not all(lists.values()):
            return False
        for u in sorted(free, key=lambda u: (len(lists[u]), u)):
            for x in lists[u]:
                count += 1
                if count > node_limit:
                    raise _Exhausted
                at[u] = x
                order.append(x)
                for q in adj[x]:
                    cnt[q] += 1
                if walk():
                    return True
                for q in adj[x]:
                    cnt[q] -= 1
                order.pop()
                at[u] = -1
        return False

    try:
        if not walk():
            return SearchStatus.NONE, None, count
    except _Exhausted:
        return SearchStatus.EXHAUSTED, None, count
    return SearchStatus.FOUND, [(vert[x], color[x]) for x in order], count


def _ba(out):
    if out.ordered is None:
        return (out.status.value, None, None, out.nodes_expanded)
    return (out.status.value, sorted(out.ordered.assignment.items()),
            list(out.ordered.order), out.nodes_expanded)


def _digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def test_ba_outcomes_golden():
    rows = [key + ("ba",) + _ba(find_ba(cover, key[-1])) for key, cover, _ in _rows()]
    rows.append(("gadget", PADDING, GADGET_LIMIT) + _ba(find_ba(padded_gadget(PADDING),
                                                               GADGET_LIMIT)))
    assert _digest(rows) == BA_GOLDEN


def test_defective_verdicts_golden(defect_rows):
    decided = [(key, status.value, t) for key, status, t, _ in defect_rows
               if key[-1] == DECIDED_LIMIT]
    assert len(decided) == 264
    assert all(status != SearchStatus.EXHAUSTED.value for _, status, _ in decided)
    assert _digest(decided) == DEFECT_VERDICTS_GOLDEN


def test_defective_node_counts_golden(defect_rows):
    counts = [(key, status.value, nodes) for key, status, _, nodes in defect_rows]
    assert _digest(counts) == DEFECT_NODES_GOLDEN


def test_ba_backtracking_golden(backtrack_rows):
    rows = [(key, status.value, order, nodes) for key, _, (status, order, nodes) in backtrack_rows]
    tally = {s: sum(1 for r in rows if r[1] == s.value) for s in SearchStatus}
    assert tally == {SearchStatus.FOUND: 108, SearchStatus.NONE: 64, SearchStatus.EXHAUSTED: 80}
    assert _digest(rows) == BA_BACKTRACK_GOLDEN


def test_ba_matches_reference_walk(backtrack_rows):
    # one walk per cover, at its largest compared limit, answers every
    # smaller limit: the verdict is the same if the walk counted no more
    # than that limit, and otherwise the smaller search exhausts at limit + 1
    covers = {}
    for key, cover, row in backtrack_rows:
        if key[-1] <= REFERENCE_LIMIT:
            covers.setdefault(key[:-1], (cover, []))[1].append((key, row))
    checked = 0
    for cover, rows in covers.values():
        walk = reference_ba(cover, max(key[-1] for key, _ in rows))
        for key, row in rows:
            limit = key[-1]
            want = walk if walk[2] <= limit else (SearchStatus.EXHAUSTED, None, limit + 1)
            assert row == want, key
            checked += 1
    assert checked == 172


def test_ba_memo_stays_small_on_a_large_gadget():
    # without the memo this search took 12 s under tracemalloc on a 2-core
    # x86-64 VM (Python 3.11) and peaked at 3.14 MB
    cover = padded_gadget(200)
    cover.node_graph  # built before tracing: only the search is measured
    tracemalloc.start()
    try:
        t = time.perf_counter()
        out = find_ba(cover, 200_000)
        seconds = time.perf_counter() - t
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (out.status, out.nodes_expanded) == (SearchStatus.EXHAUSTED, 200_001)
    assert seconds < 5
    assert peak <= 3_100_000


def test_ba_bucket_heaps_stay_bounded(monkeypatch):
    # Undoing a placement pushes its vertices again.  Before a full heap
    # dropped its repeats, the heaps grew with the number of backtracks:
    # to 507-10,823 entries on these 64-vertex covers
    largest = []

    def recording_push(heap, item):
        heapq.heappush(heap, item)
        largest[-1] = max(largest[-1], len(heap))

    monkeypatch.setattr(solver, "heappush", recording_push)
    statuses = []
    for seed in (0, 1):
        g = diagonal_grid(8, seed)
        bound = 2 * g.vertex_count + 16
        for cover_seed in GRID_COVER_SEEDS:
            largest.append(0)
            statuses.append(find_ba(random_cover(g, 1, cover_seed, False), 50000).status)
            assert largest[-1] <= bound, (seed, cover_seed)
    assert statuses.count(SearchStatus.EXHAUSTED) == 4
    assert max(largest) == bound  # some heap was rebuilt
