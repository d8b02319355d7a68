"""Mechanized checks of the structural lemmas behind the two rule sets.

Every item is checked in two layers: first the item's hypotheses on the
given graph (absence of the profile's forbidden cycles, and the item's
minimum degree), then the conclusion itself.  The conclusion is
evaluated even when the hypotheses fail, which is what the
contrapositive tests exercise: a failing conclusion on a failing
hypothesis should come with a concrete forbidden cycle as the witness.

A ``violated`` verdict (hypotheses hold, conclusion fails) never occurs
on sound input; one appearing on a catalog graph is a release blocker.
Each item's statement is the comment beside its table entry.  The
special 3-vertex analysis takes each vertex's 3-, 5- and 6-face from
``classify_vertices``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .cycles import canonical_cycles, has_chord
from .planegraph import Face, PlaneGraph
from .structure import Profile, check_profile, classify_vertices


class Verdict(Enum):
    HOLDS = "holds"
    VIOLATED = "violated"
    HYPOTHESIS_NOT_MET = "hypothesis-not-met"


@dataclass(frozen=True)
class LemmaItemResult:
    item: str
    hypothesis_notes: tuple[str, ...]
    conclusion_holds: bool
    witness: tuple | None

    @property
    def verdict(self) -> Verdict:
        if self.hypothesis_notes:
            return Verdict.HYPOTHESIS_NOT_MET
        return Verdict.HOLDS if self.conclusion_holds else Verdict.VIOLATED


Check = Callable[[PlaneGraph], tuple[bool, tuple | None]]


def _normally_adjacent(f: Face, g: Face) -> bool:
    # of two adjacent faces: both bounded by cycles that share exactly
    # two vertices (so exactly one edge)
    return f.simple and g.simple and len(f.vertex_set & g.vertex_set) == 2


def _same_boundary(f: Face, g: Face) -> bool:
    # a doubly covered triangle (the graph K3) is one cycle bounding both
    # of its sides, not two triangles; the 4-cycle argument needs the
    # boundaries to differ, which is automatic once delta >= 3
    return f.vertex_set == g.vertex_set


def _never(f: Face, g: Face) -> bool:
    return False


def _adjacent_only_if(d1: int, d2: int, allowed: Callable[[Face, Face], bool]) -> Check:
    """Every adjacent d1-face and d2-face (each pair once) satisfy
    allowed; the witness is the first pair that does not."""
    def check(graph: PlaneGraph):
        for f in graph.faces:
            if f.degree != d1:
                continue
            for g in graph.adjacent_faces(f):
                if g.degree == d2 and (d1 != d2 or f.id < g.id) and not allowed(f, g):
                    return False, (f.id, g.id)
        return True, None
    return check


def _at_most_k_triangles(d: int, limit: int) -> Check:
    def check(graph: PlaneGraph):
        for f in graph.faces:
            if f.degree != d:
                continue
            tris = [g.id for g in graph.adjacent_faces(f) if g.degree == 3]
            if len(tris) > limit:
                return False, (f.id, tuple(tris))
        return True, None
    return check


def _seven_faces_are_chordless_cycles(graph: PlaneGraph):
    for f in graph.faces:
        if f.degree == 7 and not f.simple:
            return False, ("7-face not bounded by a cycle", f.id)
    for cyc in canonical_cycles(graph, 7):  # in lexicographic order: the least comes first
        if has_chord(graph, cyc):
            return False, ("7-cycle with a chord", cyc)
    return True, None


# (item, the least minimum degree it needs, check); the comment above each
# entry is its statement.  The degrees below 3 come from trying every way
# the named faces can share boundary vertices: without the forbidden
# cycles, an item at 0 holds on every graph and one at 2 fails only with
# a vertex of degree 1 (a triangle with a pendant edge or path).  The
# same check puts no48.vi at 0; it stays at 3, since lowering it would
# change the reports of the catalog graphs of minimum degree 2
_ITEMS_NO48: tuple[tuple[str, int, Check], ...] = (
    # no two 3-faces are adjacent
    ("no48.i", 0, _adjacent_only_if(3, 3, _same_boundary)),
    # a 3-face adjacent to a 5-face is normally adjacent
    ("no48.ii", 2, _adjacent_only_if(3, 5, _normally_adjacent)),
    # a 3-face adjacent to a 6-face is normally adjacent
    ("no48.iii", 3, _adjacent_only_if(3, 6, _normally_adjacent)),
    # no 7-face is adjacent to a 3-face
    ("no48.iv", 3, _adjacent_only_if(3, 7, _never)),
    # no two 5-faces are adjacent
    ("no48.v", 3, _adjacent_only_if(5, 5, _never)),
    # each 5-face is adjacent to at most two 3-faces
    ("no48.vi", 3, _at_most_k_triangles(5, 2)),
    # each 6-face is adjacent to at most one 3-face
    ("no48.vii", 3, _at_most_k_triangles(6, 1)),
)

_ITEMS_NO46: tuple[tuple[str, int, Check], ...] = (
    # no two 3-faces are adjacent
    ("no46.i", 0, _adjacent_only_if(3, 3, _same_boundary)),
    # no 3-face is adjacent to a 5-face
    ("no46.ii", 2, _adjacent_only_if(3, 5, _never)),
    # no 3-face is adjacent to a 6-face
    ("no46.iii", 3, _adjacent_only_if(3, 6, _never)),
    # every 7-face is bounded by a 7-cycle and every 7-cycle is chordless
    ("no46.iv", 2, _seven_faces_are_chordless_cycles),
    # a 3-face adjacent to a 7-face is normally adjacent
    ("no46.v", 2, _adjacent_only_if(3, 7, _normally_adjacent)),
)


def check_structural_lemmas(graph: PlaneGraph, profile: Profile) -> tuple[LemmaItemResult, ...]:
    hypothesis = check_profile(graph, profile)
    cycle_notes = hypothesis.cycle_notes
    items = _ITEMS_NO48 if profile is Profile.NO48 else _ITEMS_NO46
    results = []
    for item, least_degree, check in items:
        notes = list(cycle_notes)
        degree_note = hypothesis.degree_note(least_degree)
        if degree_note is not None:
            notes.append(degree_note)
        holds, witness = check(graph)
        results.append(LemmaItemResult(
            item=item,
            hypothesis_notes=tuple(notes),
            conclusion_holds=holds,
            witness=witness,
        ))
    return tuple(results)


# -- the special 3-vertex configuration --------------------------------


@dataclass(frozen=True)
class SpecialVertexRecord:
    """One special 3-vertex checked against the unique local shape.

    The three clauses (in a 4,8-cycle-free graph of minimum degree 3):
    the 5-face and the 6-face share exactly one vertex besides the
    special vertex and its neighbors; the 5-face is adjacent to exactly
    one 3-face, the special vertex's own; no other special 3-vertex lies
    on either face.

    Counting is normalized for minimum degree 3: a 3-face holding a
    vertex of degree <= 2 cannot bound in such a graph and is not
    counted in the second clause, and a special vertex with a neighbor
    of degree <= 2 is not counted in the third.  Both filters are
    vacuous when the minimum degree is 3; ``structure`` prints the
    forbidden cycles and the minimum degree that explain a failing
    clause.
    """

    vertex: int
    identification_ok: bool
    one_triangle_ok: bool
    uniqueness_ok: bool


def special_vertex_analysis(graph: PlaneGraph) -> list[SpecialVertexRecord]:
    cls = classify_vertices(graph)
    deg = graph.degrees
    records = []
    for v, faces in sorted(cls.special.items()):
        f1, f2, f3 = (graph.faces[f] for f in faces)
        shared = (f2.vertex_set & f3.vertex_set) - {v} - graph.neighbors(v)
        tris = [g.id for g in graph.adjacent_faces(f2)
                if g.degree == 3 and all(deg[u] > 2 for u in g.vertex_set)]
        others = [u for u in (f2.vertex_set | f3.vertex_set) - {v}
                  if u in cls.special and all(deg[w] > 2 for w in graph.neighbors(u))]
        records.append(SpecialVertexRecord(v, len(shared) == 1, tris == [f1.id], not others))
    return records
