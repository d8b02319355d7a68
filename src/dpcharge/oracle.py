"""Exhaustive reference solvers, used only to cross-check the finders.

Both oracles enumerate every transversal outright.  The B_A oracle then
walks placement orders depth-first, cutting a prefix only when one of
the order conditions has already failed on it; since each condition
reads only its prefix, that cut loses no valid complete order.
"""

from __future__ import annotations

from itertools import product

from .cover import Cover, Node
from .solver import (BAOutcome, DefectOutcome, DefectVector, OrderedTransversal,
                     SearchStatus, Transversal, induced_neighbors, verify_ba,
                     verify_defective)

SIZE_GUARD = 7


def _guard(cover: Cover) -> None:
    n = cover.graph.vertex_count
    if n > SIZE_GUARD:
        raise ValueError(f"brute oracle limited to {SIZE_GUARD} vertices, got {n}")


def brute_defective(cover: Cover, d: DefectVector) -> DefectOutcome:
    """Try every transversal against verify_defective."""
    _guard(cover)
    verts = list(cover.graph.vertices())
    checked = 0
    for combo in product(*(cover.lists[v] for v in verts)):
        t = dict(zip(verts, combo))
        checked += 1
        if verify_defective(cover, t, d).passed:
            return DefectOutcome(SearchStatus.FOUND, t, checked)
    return DefectOutcome(SearchStatus.NONE, None, checked)


def _orderable(cover: Cover, t: Transversal) -> tuple[Node, ...] | None:
    """First valid placement order of the given transversal, if any."""
    nodes = [(v, t[v]) for v in cover.graph.vertices()]
    adj: dict[Node, set[Node]] = {
        (v, t[v]): {(w, t[w]) for w in ws} for v, ws in induced_neighbors(cover, t).items()}
    order: list[Node] = []
    placed: set[Node] = set()

    def extend() -> bool:
        if len(order) == len(nodes):
            return True
        for node in nodes:
            if node in placed:
                continue
            lefts = [w for w in adj[node] if w in placed]
            if node[1] == 1:
                if lefts:
                    continue
            else:
                if len(lefts) > 1:
                    continue
                if len(lefts) == 1:
                    w = lefts[0]
                    if sum(1 for x in adj[w] if x in placed) > 1:
                        continue
            placed.add(node)
            order.append(node)
            if extend():
                return True
            order.pop()
            placed.discard(node)
        return False

    return tuple(order) if extend() else None


def brute_ba(cover: Cover) -> BAOutcome:
    """Try every transversal, and for each one every placement order."""
    _guard(cover)
    verts = list(cover.graph.vertices())
    checked = 0
    for combo in product(*(cover.lists[v] for v in verts)):
        t = dict(zip(verts, combo))
        checked += 1
        order = _orderable(cover, t)
        if order is not None:
            ot = OrderedTransversal(t, order)
            assert verify_ba(cover, ot).passed
            return BAOutcome(SearchStatus.FOUND, ot, checked)
    return BAOutcome(SearchStatus.NONE, None, checked)
