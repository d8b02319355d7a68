"""Plane graphs given by rotation systems, with faces derived by dart tracing.

A plane graph is stored as one cyclic neighbor sequence per vertex.  Faces
are orbits of the dart successor map: the successor of the dart (u, v) is
(v, w) where w immediately follows u in the cyclic rotation at v.  Every
dart lies on exactly one face, so face degrees sum to 2|E| and a cut edge
contributes both of its darts to the same face.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
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


class AdjacencyKind(Enum):
    DISJOINT = "disjoint"
    VERTEX_ONLY = "vertex-only"
    ADJACENT = "adjacent"
    NORMALLY_ADJACENT = "normally-adjacent"


class PlaneGraph:
    """Immutable embedded graph.  All queries are pure; safe to share.

    Build through :func:`build_plane_graph`, which validates the rotation
    system and traces faces.
    """

    def __init__(self, rotations: tuple[tuple[int, ...], ...], faces: tuple[Face, ...],
                 components: tuple[frozenset[int], ...], face_of_dart: dict[Dart, int]):
        self.rotations = rotations
        self.faces = faces
        self.components = components
        self.vertex_count = len(rotations)
        self.edges: frozenset[tuple[int, int]] = frozenset(
            (min(u, v), max(u, v)) for u in range(self.vertex_count) for v in rotations[u]
        )
        self.edge_count = len(self.edges)
        self.adjacency: tuple[frozenset[int], ...] = tuple(frozenset(r) for r in rotations)
        self.degrees: tuple[int, ...] = tuple(len(r) for r in rotations)
        self._face_of_dart = face_of_dart
        # faces at each vertex, one entry per corner (multiplicity preserved)
        self._corner_faces = tuple(tuple(sorted(face_of_dart[(u, v)] for v in rot))
                                   for u, rot in enumerate(rotations))
        self._adjacent: tuple[tuple[Face, ...], ...] | None = None  # built on first use
        self._hypotheses: dict = {}  # Profile -> HypothesisReport, see check_profile
        self._classification = None  # VertexClassification, see classify_vertices

    # -- basic queries -------------------------------------------------

    @property
    def face_count(self) -> int:
        return len(self.faces)

    @property
    def is_connected(self) -> bool:
        return len(self.components) <= 1

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

    def incident_face_degrees(self, v: int) -> tuple[int, ...]:
        return tuple(sorted(self.faces[f].degree for f in self._corner_faces[v]))

    # -- face adjacency ------------------------------------------------

    def shared_edges(self, f1: Face, f2: Face) -> frozenset[tuple[int, int]]:
        """Edges on the boundaries of two distinct faces.

        Each dart lies on one face, so an edge is shared exactly when one
        face holds one of its darts and the other face the reverse dart.
        """
        short, other = (f1, f2) if f1.degree <= f2.degree else (f2, f1)
        fod, oid = self._face_of_dart, other.id
        return frozenset((min(u, v), max(u, v)) for u, v in short.walk if fod[(v, u)] == oid)

    def face_adjacency(self, f1: Face, f2: Face) -> AdjacencyKind:
        """Classify the relation of two distinct faces.

        Adjacent means at least one shared edge; normally adjacent
        additionally requires both boundaries to be cycles sharing
        exactly two vertices.
        """
        if f1.id == f2.id:
            raise ValueError("face_adjacency requires two distinct faces")
        shared_v = f1.vertex_set & f2.vertex_set
        shared_e = self.shared_edges(f1, f2)
        if shared_e:
            if f1.simple and f2.simple and len(shared_v) == 2:
                return AdjacencyKind.NORMALLY_ADJACENT
            return AdjacencyKind.ADJACENT
        if shared_v:
            return AdjacencyKind.VERTEX_ONLY
        return AdjacencyKind.DISJOINT

    def adjacent_faces(self, f: Face) -> tuple[Face, ...]:
        """Faces sharing at least one edge with f, each listed once, by id.

        The face across the dart (u, v) is the face of (v, u), so the
        whole dual adjacency is one pass over the darts, done once.
        """
        if self._adjacent is None:
            fod = self._face_of_dart
            self._adjacent = tuple(
                tuple(self.faces[i] for i in sorted({fod[(v, u)] for u, v in h.walk} - {h.id}))
                for h in self.faces)
        return self._adjacent[f.id]

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
    Disconnected input is accepted; the result is flagged through
    ``is_connected``.

    Darts are traced in lexicographic order, so each face is met first at
    its least dart: its walk starts there, and faces are numbered by
    their least darts.  An isolated vertex bounds one face with an empty
    walk; these come last, by vertex.
    """
    if isinstance(rotations, Mapping):
        n = len(rotations)
        if set(rotations) != set(range(n)):
            raise EmbeddingError(f"vertex ids must be exactly 0..{n - 1}")
        rot_list: list[tuple[int, ...]] = [tuple(rotations[v]) for v in range(n)]
    else:
        rot_list = [tuple(r) for r in rotations]
        n = len(rot_list)

    # position of each neighbor in the rotation at v, for the checks and the trace
    pos: list[dict[int, int]] = []
    for v, rot in enumerate(rot_list):
        for w in rot:
            if not (0 <= w < n):
                raise EmbeddingError(f"vertex {v}: neighbor {w} out of range")
        index = {w: i for i, w in enumerate(rot)}
        if v in index:
            raise EmbeddingError(f"loop at vertex {v}")
        if len(index) != len(rot):
            raise EmbeddingError(f"repeated neighbor in rotation of vertex {v}")
        pos.append(index)
    for v, rot in enumerate(rot_list):
        for w in rot:
            if v not in pos[w]:
                raise EmbeddingError(f"asymmetric rotation: {w} lists no edge back to {v}")

    # The successor of the dart (u, v) is (v, w), w following u at v.  It
    # is a permutation: the predecessor in the rotation gives its inverse.
    face_of_dart: dict[Dart, int] = {}
    walks: list[tuple[Dart, ...]] = []
    for u, rot_u in enumerate(rot_list):
        for v in sorted(rot_u):
            if (u, v) in face_of_dart:
                continue
            fid, walk, dart = len(walks), [], (u, v)
            while dart not in face_of_dart:
                face_of_dart[dart] = fid
                walk.append(dart)
                a, b = dart
                rot = rot_list[b]
                dart = (b, rot[(pos[b][a] + 1) % len(rot)])
            walks.append(tuple(walk))
    del pos  # lowers the peak: the graph's own tables are built next
    faces = tuple(Face(i, w) for i, w in enumerate(walks + [()] * rot_list.count(())))
    comps = _components(rot_list)

    # V - E + F = 2 - 2g <= 2 on each component, so the sum is twice the
    # number of components exactly when every component is a sphere
    e, f = len(face_of_dart) // 2, len(faces)
    if n - e + f != 2 * len(comps):
        raise EmbeddingError(
            f"Euler formula violated: V-E+F = {n}-{e}+{f} = {n - e + f} != "
            f"{2 * len(comps)} = 2 x {len(comps)} components (not a plane embedding)")
    return PlaneGraph(tuple(rot_list), faces, tuple(comps), face_of_dart)
