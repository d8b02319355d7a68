"""Small covers and a cover-edge reading shared by several test modules.

``neighbors_by_definition`` reads cover edges straight from the
matchings, so tests can compare the solver's node graph and verifiers
against the definition without going through dpcharge.
"""

from __future__ import annotations

from dpcharge.cover import Cover
from dpcharge.planegraph import build_plane_graph

P3 = build_plane_graph({0: [1], 1: [0, 2], 2: [1]})


def paper_cover() -> Cover:
    """The rejected 3-node pattern: (y,2) matched to (x,1) and (z,1),
    with nothing else to choose."""
    return Cover(P3, 1, ((1,), (2,), (1,)),
                 {(0, 1): ((1, 2),), (1, 2): ((2, 1),)})


def neighbors_by_definition(cover, node):
    """Cover neighbors of node read straight from cover.matchings: by base
    neighbor, then by position in that edge's matching.  A pair repeated
    in a matching is one cover edge."""
    u, cu = node
    out = []
    for v in sorted(cover.graph.neighbors(u)):
        for a, b in cover.matchings.get((min(u, v), max(u, v)), ()):
            mine, theirs = (a, b) if u < v else (b, a)
            if mine == cu and (v, theirs) not in out:
                out.append((v, theirs))
    return out
