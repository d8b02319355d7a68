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


@dataclass(frozen=True)
class LemmaReport:
    items: tuple[LemmaItemResult, ...]

    @property
    def violated(self) -> tuple[LemmaItemResult, ...]:
        return tuple(r for r in self.items if r.verdict is Verdict.VIOLATED)


Check = Callable[[PlaneGraph], tuple[bool, tuple | None]]


def _pairs_of_degrees(graph: PlaneGraph, d1: int, d2: int):
    for f in graph.faces:
        if f.degree != d1:
            continue
        for g in graph.adjacent_faces(f):
            if g.degree == d2 and (d1 != d2 or f.id < g.id):
                yield f, g


def _no_adjacent_3_faces(graph: PlaneGraph):
    # a doubly covered triangle (the graph K3) is one cycle bounding both
    # of its sides, not two triangles; the 4-cycle argument needs the
    # boundaries to differ, which is automatic once delta >= 3
    for f, g in _pairs_of_degrees(graph, 3, 3):
        if f.vertex_set != g.vertex_set:
            return False, (f.id, g.id)
    return True, None


def _normally_adjacent(f: Face, g: Face) -> bool:
    # of two adjacent faces: both bounded by cycles that share exactly
    # two vertices (so exactly one edge)
    return f.simple and g.simple and len(f.vertex_set & g.vertex_set) == 2


def _adjacent_implies_normal(d_small: int, d_big: int) -> Check:
    def check(graph: PlaneGraph):
        for f, g in _pairs_of_degrees(graph, d_small, d_big):
            if not _normally_adjacent(f, g):
                return False, (f.id, g.id)
        return True, None
    return check


def _never_adjacent(d1: int, d2: int) -> Check:
    def check(graph: PlaneGraph):
        for f, g in _pairs_of_degrees(graph, d1, d2):
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
    ("no48.i", 0, _no_adjacent_3_faces),
    # a 3-face adjacent to a 5-face is normally adjacent
    ("no48.ii", 2, _adjacent_implies_normal(3, 5)),
    # a 3-face adjacent to a 6-face is normally adjacent
    ("no48.iii", 3, _adjacent_implies_normal(3, 6)),
    # no 7-face is adjacent to a 3-face
    ("no48.iv", 3, _never_adjacent(3, 7)),
    # no two 5-faces are adjacent
    ("no48.v", 3, _never_adjacent(5, 5)),
    # each 5-face is adjacent to at most two 3-faces
    ("no48.vi", 3, _at_most_k_triangles(5, 2)),
    # each 6-face is adjacent to at most one 3-face
    ("no48.vii", 3, _at_most_k_triangles(6, 1)),
)

_ITEMS_NO46: tuple[tuple[str, int, Check], ...] = (
    # no two 3-faces are adjacent
    ("no46.i", 0, _no_adjacent_3_faces),
    # no 3-face is adjacent to a 5-face
    ("no46.ii", 2, _never_adjacent(3, 5)),
    # no 3-face is adjacent to a 6-face
    ("no46.iii", 3, _never_adjacent(3, 6)),
    # every 7-face is bounded by a 7-cycle and every 7-cycle is chordless
    ("no46.iv", 2, _seven_faces_are_chordless_cycles),
    # a 3-face adjacent to a 7-face is normally adjacent
    ("no46.v", 2, _adjacent_implies_normal(3, 7)),
)


def check_structural_lemmas(graph: PlaneGraph, profile: Profile) -> LemmaReport:
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
    return LemmaReport(tuple(results))


# -- the special 3-vertex configuration --------------------------------


@dataclass(frozen=True)
class SpecialVertexRecord:
    """One special 3-vertex checked against the unique local shape.

    The three clauses (in a 4,8-cycle-free graph of minimum degree 3):
    the 5-face and the 6-face share exactly one vertex besides the
    special vertex's neighbors; the 5-face is adjacent to exactly one
    3-face; no other special 3-vertex lies on either face.

    Counting is normalized for minimum degree 3: a 3-face containing a
    vertex of degree <= 2 cannot bound in such a graph and is excluded
    from the second clause (listed under ``excluded_triangles``), and a
    putative special vertex adjacent to a degree <= 2 vertex is excluded
    from the third (it is in ``other_specials_raw``, not in
    ``other_specials``).  Both filters are vacuous when the minimum
    degree is 3.
    """

    vertex: int
    triangle_face: int
    identification_candidates: tuple[int, ...]
    identification_ok: bool
    adjacent_triangles_raw: tuple[int, ...]
    adjacent_triangles: tuple[int, ...]
    excluded_triangles: tuple[tuple[int, str], ...]
    one_triangle_ok: bool
    other_specials_raw: tuple[int, ...]
    other_specials: tuple[int, ...]
    uniqueness_ok: bool
    hypothesis_notes: tuple[str, ...]


def _degenerate_vertex(graph: PlaneGraph, face: Face) -> int | None:
    for u in sorted(face.vertex_set):
        if graph.degree(u) <= 2:
            return u
    return None


def special_vertex_analysis(graph: PlaneGraph) -> list[SpecialVertexRecord]:
    cls = classify_vertices(graph)
    hypothesis = check_profile(graph, Profile.NO48)
    records = []
    for v, faces in sorted(cls.special.items()):
        f1, f2, f3 = (graph.faces[f] for f in faces)

        ident = tuple(sorted((f2.vertex_set & f3.vertex_set)
                             - ({v} | set(graph.neighbors(v)))))
        identification_ok = len(ident) == 1

        raw_tris = tuple(sorted(g.id for g in graph.adjacent_faces(f2) if g.degree == 3))
        excluded_t = []
        kept_tris = []
        for fid in raw_tris:
            degen = _degenerate_vertex(graph, graph.faces[fid])
            if degen is not None:
                excluded_t.append(
                    (fid, f"3-face {fid} contains vertex {degen} of degree "
                          f"{graph.degree(degen)} <= 2, impossible with minimum degree 3"))
            else:
                kept_tris.append(fid)
        one_triangle_ok = len(kept_tris) == 1 and kept_tris[0] == f1.id

        on_faces = (f2.vertex_set | f3.vertex_set) - {v}
        raw_others = tuple(sorted(u for u in on_faces if u in cls.special))
        kept_others = tuple(u for u in raw_others
                            if all(graph.degree(w) > 2 for w in graph.neighbors(u)))
        uniqueness_ok = not kept_others

        notes: list[str] = []
        if not (identification_ok and one_triangle_ok and uniqueness_ok):
            notes = hypothesis.notes()
        records.append(SpecialVertexRecord(
            vertex=v,
            triangle_face=f1.id,
            identification_candidates=ident,
            identification_ok=identification_ok,
            adjacent_triangles_raw=raw_tris,
            adjacent_triangles=tuple(kept_tris),
            excluded_triangles=tuple(excluded_t),
            one_triangle_ok=one_triangle_ok,
            other_specials_raw=raw_others,
            other_specials=kept_others,
            uniqueness_ok=uniqueness_ok,
            hypothesis_notes=tuple(notes),
        ))
    return records
