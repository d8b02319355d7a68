"""Byte-exact outcomes of the two cover searches.

One sha256 pins ``(status, assignment, order, nodes_expanded)`` of
``find_ba`` and ``find_defective_dp`` over seeded covers, so a change to
how the searches are carried out cannot change which transversal they
return, in which order, or after how many expanded nodes.  The inputs
are full and partial random covers of every catalog graph and of
``cycle:60``, at a small and at the default node limit, and the padded
NONE pattern at a limit it exhausts.
"""

import hashlib

from dpcharge.catalog import DEFAULT_CATALOG, generate
from dpcharge.cover import Cover, random_cover
from dpcharge.planegraph import build_plane_graph
from dpcharge.solver import DefectVector, find_ba, find_defective_dp

# theta:1,2,2 is in the catalog
GRAPHS = DEFAULT_CATALOG + ("cycle:60",)
SEEDS = range(6)
# k -> (defect budgets, node limits).  Partial k=1 covers of cycle:60
# backtrack on almost every node and never finish, so they get a
# smaller second limit.
CASES = {1: (DefectVector.of(0), (50, 5000)),
         2: (DefectVector.of(0, 1), (50, 2_000_000)),
         3: (DefectVector.of(0, 2, 2), (50, 2_000_000))}
PADDING = 16
GADGET_LIMIT = 5000

# recorded before the searches were made incremental and stack-based
GOLDEN = "77f0bafcc08bbdb44396f3341f91282e2e37c4857907cb592988614cc973c91d"


def padded_gadget(padding: int) -> Cover:
    """The rejected path pattern (y,2) matched to (x,1) and (z,1), plus
    isolated vertices that only have colour 1."""
    rot = {0: [1], 1: [0, 2], 2: [1]}
    rot.update({v: [] for v in range(3, 3 + padding)})
    return Cover(build_plane_graph(rot), 1, ((1,), (2,), (1,)) + ((1,),) * padding,
                 {(0, 1): ((1, 2),), (1, 2): ((2, 1),)})


def _ba(out):
    if out.ordered is None:
        return (out.status.value, None, None, out.nodes_expanded)
    return (out.status.value, sorted(out.ordered.assignment.items()),
            list(out.ordered.order), out.nodes_expanded)


def _defect(out):
    t = sorted(out.transversal.items()) if out.transversal is not None else None
    return (out.status.value, t, None, out.nodes_expanded)


def outcomes():
    rows = []
    for name in GRAPHS:
        g = generate(name)
        for k, (budgets, limits) in CASES.items():
            for full in (True, False):
                for seed in SEEDS:
                    cover = random_cover(g, k, seed, full)
                    for limit in limits:
                        key = (name, k, full, seed, limit)
                        rows.append(key + ("ba",) + _ba(find_ba(cover, limit)))
                        rows.append(key + ("defect",) + _defect(
                            find_defective_dp(cover, budgets, limit)))
    gadget = find_ba(padded_gadget(PADDING), GADGET_LIMIT)
    rows.append(("gadget", PADDING, GADGET_LIMIT) + _ba(gadget))
    return rows


def test_solver_outcomes_golden():
    assert hashlib.sha256(repr(outcomes()).encode()).hexdigest() == GOLDEN
