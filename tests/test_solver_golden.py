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
"""

import hashlib

import pytest

from dpcharge.catalog import DEFAULT_CATALOG, generate
from dpcharge.cover import Cover, random_cover
from dpcharge.planegraph import build_plane_graph
from dpcharge.solver import DefectVector, SearchStatus, find_ba, find_defective_dp

# theta:1,2,2 is in the catalog
GRAPHS = DEFAULT_CATALOG + ("cycle:60",)
SEEDS = range(6)
# k -> (defect budgets, node limits).  Partial k=1 covers of cycle:60
# backtrack on almost every node and never finish, so they get a
# smaller second limit.
CASES = {1: (DefectVector.of(0), (50, 5000)),
         2: (DefectVector.of(0, 1), (50, 2_000_000)),
         3: (DefectVector.of(0, 2, 2), (50, 2_000_000))}
DECIDED_LIMIT = 2_000_000
PADDING = 16
GADGET_LIMIT = 5000

# recorded before the defective search gained forward checking
BA_GOLDEN = "20d860b5d6fd4234a874e8978b556396afc687270d39fafe220318e24fee03c9"
DEFECT_VERDICTS_GOLDEN = "d310e57d6b641536e024d26fe5413d623f917e7313f1db2378d126f28e2c1de1"
# recorded with forward checking; a node counts a feasible placement
DEFECT_NODES_GOLDEN = "4351bc97b2356f0a920b04e05506ce6d0d4067d13ca575987b55f337f5a47a49"


def padded_gadget(padding: int) -> Cover:
    """The rejected path pattern (y,2) matched to (x,1) and (z,1), plus
    isolated vertices that only have colour 1."""
    rot = {0: [1], 1: [0, 2], 2: [1]}
    rot.update({v: [] for v in range(3, 3 + padding)})
    return Cover(build_plane_graph(rot), 1, ((1,), (2,), (1,)) + ((1,),) * padding,
                 {(0, 1): ((1, 2),), (1, 2): ((2, 1),)})


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
