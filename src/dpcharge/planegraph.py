"""Plane graphs given by rotation systems, with faces derived by dart tracing.

A plane graph is stored as one cyclic neighbor sequence per vertex.  Faces
are orbits of the dart successor map: the successor of the dart (u, v) is
(v, w) where w immediately follows u in the cyclic rotation at v.  Every
dart lies on exactly one face, so face degrees sum to 2|E| and a cut edge
contributes both of its darts to the same face.

The trace runs on flat integer arrays: dart offsets[u] + i is
(u, rotations[u][i]), with its successor and its face id in two lists.
The tuple-keyed tables (face walks, the dart-to-face map and the corners
at each vertex) are built from those arrays on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Mapping, Sequence


class EmbeddingError(ValueError):
    """Raised when a rotation system does not describe a plane graph."""


Dart = tuple[int, int]


@dataclass(frozen=True)
class Face:
    """One traced face: a cyclic walk of darts.

    degree counts walk length, so a cut edge counts twice.  A face is
    simple iff its boundary walk is a cycle, i.e. no vertex repeats and
    the walk has length >= 3.
    """

    id: int
    walk: tuple[Dart, ...]

    @property
    def degree(self) -> int:
        return len(self.walk)

    @property
    def boundary_vertices(self) -> tuple[int, ...]:
        """Vertices in walk order (tails of the darts); may repeat."""
        return tuple(u for u, _ in self.walk)

    @cached_property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(u for u, _ in self.walk)

    @property
    def simple(self) -> bool:
        verts = self.boundary_vertices
        return len(set(verts)) == len(verts) and self.degree >= 3

    def __repr__(self) -> str:  # compact: vertices, not darts
        return f"Face({self.id}, deg={self.degree}, [{' '.join(map(str, self.boundary_vertices))}])"


class PlaneGraph:
    """Immutable embedded graph.  All queries are pure; safe to share.

    Build through :func:`build_plane_graph`, which validates the rotation
    system and traces faces on flat dart arrays.  The tuple-keyed tables
    (faces with their walks, the dart-to-face map, the corners) are built
    from those arrays on first use, so commands that never read faces
    never build them.
    """

    def __init__(self, rotations: tuple[tuple[int, ...], ...],
                 components: tuple[frozenset[int], ...], offsets: list[int],
                 succ: list[int], dart_face: list[int], starts: list[int]):
        self.rotations = rotations
        self.components = components
        self.vertex_count = len(rotations)
        self.edges: frozenset[tuple[int, int]] = frozenset(
            (u, v) for u, rot in enumerate(rotations) for v in rot if u < v)
        self.edge_count = len(self.edges)
        self.face_count = len(starts) + rotations.count(())
        self.adjacency: tuple[frozenset[int], ...] = tuple(map(frozenset, rotations))
        self.degrees: tuple[int, ...] = tuple(map(len, rotations))
        # dart offsets[u] + i is (u, rotations[u][i]); succ[d] is the next
        # dart on its face, dart_face[d] its face id, and starts[f] the
        # least dart of face f (faces with a walk only)
        self._offsets = offsets
        self._succ = succ
        self._dart_face = dart_face
        self._starts = starts
        self._least_cycles: dict = {}  # length -> least cycle or None, see check_profile
        self._classification = None  # VertexClassification, see classify_vertices

    @cached_property
    def _darts(self) -> list[Dart]:
        return [(u, v) for u, rot in enumerate(self.rotations) for v in rot]

    @cached_property
    def faces(self) -> tuple[Face, ...]:
        """Faces by id; each walk follows succ from the face's least dart."""
        darts, succ = self._darts, self._succ
        faces = []
        for fid, start in enumerate(self._starts):
            walk, d = [darts[start]], succ[start]
            while d != start:
                walk.append(darts[d])
                d = succ[d]
            faces.append(Face(fid, tuple(walk)))
        faces += [Face(fid, ()) for fid in range(len(faces), self.face_count)]
        return tuple(faces)

    @cached_property
    def _face_of_dart(self) -> dict[Dart, int]:
        return dict(zip(self._darts, self._dart_face))

    @cached_property
    def _corner_faces(self) -> tuple[tuple[int, ...], ...]:
        # faces at each vertex, one entry per corner (multiplicity preserved)
        df, off = self._dart_face, self._offsets
        return tuple(tuple(sorted(df[off[u]:off[u + 1]])) for u in range(self.vertex_count))

    # -- basic queries -------------------------------------------------

    @property
    def is_connected(self) -> bool:
        return len(self.components) == 1  # a graph without vertices has no component

    def degree(self, v: int) -> int:
        return self.degrees[v]

    def min_degree(self) -> int:
        return min(self.degrees) if self.degrees else 0

    def vertices(self) -> range:
        return range(self.vertex_count)

    def neighbors(self, v: int) -> frozenset[int]:
        return self.adjacency[v]

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def face_of_dart(self, u: int, v: int) -> Face:
        return self.faces[self._face_of_dart[(u, v)]]

    def incident_faces(self, v: int) -> tuple[int, ...]:
        """Face ids at the corners of v (one per corner, may repeat a face)."""
        return self._corner_faces[v]

    # -- face adjacency ------------------------------------------------

    def shared_edges(self, f1: Face, f2: Face) -> frozenset[tuple[int, int]]:
        """Edges on the boundaries of two distinct faces.

        Each dart lies on one face, so an edge is shared exactly when one
        face holds one of its darts and the other face the reverse dart.
        """
        short, other = (f1, f2) if f1.degree <= f2.degree else (f2, f1)
        fod, oid = self._face_of_dart, other.id
        return frozenset((min(u, v), max(u, v)) for u, v in short.walk if fod[(v, u)] == oid)

    def adjacent_faces(self, f: Face) -> tuple[Face, ...]:
        """Faces sharing at least one edge with f, each listed once, by id.

        The face across the dart (u, v) is the face of (v, u), so the
        whole dual adjacency is one pass over the darts, done once.
        """
        return self._adjacent[f.id]

    @cached_property
    def _adjacent(self) -> tuple[tuple[Face, ...], ...]:
        fod, faces = self._face_of_dart, self.faces
        return tuple(tuple(faces[i] for i in sorted({fod[(v, u)] for u, v in h.walk} - {h.id}))
                     for h in faces)

    def __repr__(self) -> str:
        return (f"PlaneGraph(V={self.vertex_count}, E={self.edge_count}, "
                f"F={self.face_count}, connected={self.is_connected})")


def _components(rotations: Sequence[Sequence[int]]) -> list[frozenset[int]]:
    seen = [False] * len(rotations)
    comps = []
    for root in range(len(rotations)):
        if seen[root]:
            continue
        seen[root] = True
        comp = [root]
        stack = [root]
        while stack:
            u = stack.pop()
            for v in rotations[u]:
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    stack.append(v)
        comps.append(frozenset(comp))
    return comps


def build_plane_graph(rotations: Mapping[int, Sequence[int]] | Sequence[Sequence[int]]) -> PlaneGraph:
    """Validate a rotation system and trace its faces.

    Rejects loops, repeated neighbors within a rotation, asymmetric
    rotations, and rotation systems that violate Euler's formula (such
    input describes a positive-genus embedding, not a plane graph).
    The first defect is named: vertex by vertex, a neighbor out of range,
    a loop or a repeated neighbor; then, in dart order, the first dart
    whose reverse is missing; then Euler's formula.
    Disconnected input is accepted; the result is flagged through
    ``is_connected``.

    Darts are numbered vertex by vertex in rotation order and traced in
    lexicographic order, so each face is met first at its least dart:
    its walk starts there, and faces are numbered by their least darts.
    An isolated vertex bounds one face with an empty walk; these come
    last, by vertex.
    """
    if isinstance(rotations, Mapping):
        n = len(rotations)
        if set(rotations) != set(range(n)):
            raise EmbeddingError(f"vertex ids must be exactly 0..{n - 1}")
        rot_list: list[tuple[int, ...]] = [tuple(rotations[v]) for v in range(n)]
    else:
        rot_list = [tuple(r) for r in rotations]
        n = len(rot_list)

    # The successor of the dart (u, v) is (v, w), w following u at v, so
    # nxt[v] maps each neighbor u of v to the number of the dart after (u, v)
    offsets = [0, *accumulate(map(len, rot_list))]
    nxt = []
    for v, (rot, b, e) in enumerate(zip(rot_list, offsets, offsets[1:])):
        for w in rot:
            if not 0 <= w < n:
                raise EmbeddingError(f"vertex {v}: neighbor {w} out of range")
        after = dict(zip(rot, [*range(b + 1, e), b]))
        if v in after:
            raise EmbeddingError(f"loop at vertex {v}")
        if len(after) != len(rot):
            raise EmbeddingError(f"repeated neighbor in rotation of vertex {v}")
        nxt.append(after)
    succ = []
    for u, rot in enumerate(rot_list):
        for v in rot:
            d = nxt[v].get(u)
            if d is None:
                raise EmbeddingError(f"asymmetric rotation: {v} lists no edge back to {u}")
            succ.append(d)
    del nxt  # lowers the peak: the trace's arrays are built next

    # succ is a permutation, so each orbit closes at the dart it left from;
    # a vertex whose darts all lie on faces met earlier is skipped
    dart_face = [-1] * len(succ)
    starts: list[int] = []
    for u, rot in enumerate(rot_list):
        b, e = offsets[u], offsets[u + 1]
        if -1 not in dart_face[b:e]:
            continue
        for _, d in sorted(zip(rot, range(b, e))):
            if dart_face[d] < 0:
                fid = len(starts)
                starts.append(d)
                while dart_face[d] < 0:
                    dart_face[d] = fid
                    d = succ[d]
    comps = _components(rot_list)

    # V - E + F = 2 - 2g <= 2 on each component, so the sum is twice the
    # number of components exactly when every component is a sphere
    e, f = len(succ) // 2, len(starts) + rot_list.count(())
    if n - e + f != 2 * len(comps):
        raise EmbeddingError(
            f"Euler formula violated: V-E+F = {n}-{e}+{f} = {n - e + f} != "
            f"{2 * len(comps)} = 2 x {len(comps)} components (not a plane embedding)")
    return PlaneGraph(tuple(rot_list), tuple(comps), offsets, succ, dart_face, starts)
