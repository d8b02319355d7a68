"""Catalog of embedded graphs and an incremental patch builder.

The catalog names understood by :func:`generate`:

  cycle:N        plain N-cycle (N >= 3); "triangle" is an alias for cycle:3
  k4             complete graph on 4 vertices
  cube           the 3-cube
  dodecahedron   the dodecahedral graph (12 pentagonal faces)
  theta:a,b,c    two hubs joined by three paths with a, b, c inner vertices
  figure1        the special-3-vertex configuration: 8 vertices, 11 edges,
                 faces of degrees {3,3,5,5,6}

cycle:N and theta:a,b,c have at most MAX_CATALOG_VERTICES vertices.

The hypotheses of the two main profiles are delicate (specific forbidden
cycle lengths), so the default catalog is curated rather than sampled.
"""

from __future__ import annotations

from .planegraph import PlaneGraph, build_plane_graph

# the named graphs exercised by the acceptance checks
DEFAULT_CATALOG = (
    "triangle", "k4", "cube", "cycle:5", "cycle:7", "cycle:9",
    "dodecahedron", "figure1", "theta:1,2,2", "theta:3,3,3",
)


class PlanePatch:
    """Mutable rotation system for building local configurations.

    Every operation keeps the rotation system a valid plane embedding.
    Placement is controlled through darts: the face an operation targets
    is the face whose boundary walk contains the named dart.
    """

    def __init__(self, rotations: dict[int, list[int]]):
        self.rot: dict[int, list[int]] = {k: list(v) for k, v in rotations.items()}

    @classmethod
    def from_cycle(cls, n: int) -> "PlanePatch":
        if n < 3:
            raise ValueError("cycle needs at least 3 vertices")
        return cls({v: [(v - 1) % n, (v + 1) % n] for v in range(n)})

    def new_vertex(self) -> int:
        v = len(self.rot)
        self.rot[v] = []
        return v

    def _insert_after(self, v: int, anchor: int, new: int) -> None:
        i = self.rot[v].index(anchor)
        self.rot[v].insert(i + 1, new)

    def add_pendant(self, u: int, after: int) -> int:
        """Attach a leaf at u, placed in the face containing dart (after, u)."""
        w = self.new_vertex()
        self.rot[w] = [u]
        self._insert_after(u, after, w)
        return w

    def attach_path(self, u: int, v: int, internal: int,
                    after_at_u: int, after_at_v: int) -> list[int]:
        """Join u to v by a path with ``internal`` new vertices.

        The path enters the corner of u after neighbor ``after_at_u`` and
        the corner of v after ``after_at_v``; both corners must lie on a
        common face or the embedding check will reject the result.
        """
        if internal < 1:
            raise ValueError("attach_path needs at least one internal vertex")
        chain = [self.new_vertex() for _ in range(internal)]
        seq = [u, *chain, v]
        for i, w in enumerate(chain, start=1):
            self.rot[w] = [seq[i - 1], seq[i + 1]]
        self._insert_after(u, after_at_u, chain[0])
        self._insert_after(v, after_at_v, chain[-1])
        return chain

    def attach_apex(self, u: int, v: int) -> int:
        """Triangle on the existing edge uv; the apex lands in the face
        containing dart (v, u)."""
        return self.attach_face_on_edge(u, v, 3)[0]

    def attach_face_on_edge(self, u: int, v: int, size: int) -> list[int]:
        """New face of the given size on the existing edge uv, placed on
        the side of dart (v, u); returns the size-2 new vertices."""
        if v not in self.rot[u]:
            raise ValueError(f"attach_face_on_edge requires edge {u}-{v}")
        if size < 3:
            raise ValueError("face size must be at least 3")
        return self.attach_path(u, v, size - 2,
                                after_at_u=v, after_at_v=self._prev(v, u))

    def pendant_in_biggest_face(self, u: int) -> int:
        """Leaf at u placed in the largest face at one of u's corners,
        breaking ties toward the face containing the earliest dart."""
        g = self.build()
        best = None
        for p in self.rot[u]:
            f = g.face_of_dart(p, u)
            key = (f.degree, -f.id)
            if best is None or key > best[0]:
                best = (key, p)
        if best is None:
            raise ValueError(f"vertex {u} has no incident corner")
        return self.add_pendant(u, best[1])

    def add_chord(self, a: int, b: int, after_at_a: int, after_at_b: int) -> None:
        """Edge between two vertices on a common face, splitting it."""
        self._insert_after(a, after_at_a, b)
        self._insert_after(b, after_at_b, a)

    def _prev(self, v: int, nbr: int) -> int:
        r = self.rot[v]
        return r[(r.index(nbr) - 1) % len(r)]

    def build(self) -> PlaneGraph:
        return build_plane_graph({v: tuple(r) for v, r in self.rot.items()})


# -- named graphs ------------------------------------------------------

# cycle:N and theta:a,b,c name their own size, and building a graph
# peaks at about 1 KB per vertex (107 MB at 100,000), so a larger one is
# refused before anything is allocated
MAX_CATALOG_VERTICES = 100_000


def _check_size(name: str, vertices: int) -> None:
    if vertices > MAX_CATALOG_VERTICES:
        raise ValueError(f"catalog graph {name!r} would have {vertices:,} vertices, "
                         f"more than {MAX_CATALOG_VERTICES:,}")


def _cycle(n: int) -> PlaneGraph:
    return PlanePatch.from_cycle(n).build()


def _k4() -> PlaneGraph:
    # outer triangle 0,1,2 with 3 in the middle
    return build_plane_graph({
        0: (1, 3, 2),
        1: (2, 3, 0),
        2: (0, 3, 1),
        3: (0, 1, 2),
    })


def _cube() -> PlaneGraph:
    # inner square 0..3, outer square 4..7, spokes i-(i+4)
    return build_plane_graph({
        0: (4, 1, 3), 1: (5, 2, 0), 2: (6, 3, 1), 3: (7, 0, 2),
        4: (5, 0, 7), 5: (6, 1, 4), 6: (7, 2, 5), 7: (4, 3, 6),
    })


def _dodecahedron() -> PlaneGraph:
    # outer pentagon 0..4, middle ring 5..14, inner pentagon 15..19
    rot: dict[int, tuple[int, ...]] = {}
    o = list(range(5))
    m = list(range(5, 15))
    i = list(range(15, 20))
    for j in range(5):
        rot[o[j]] = (o[(j - 1) % 5], o[(j + 1) % 5], m[2 * j])
    for t in range(10):
        if t % 2 == 0:
            rot[m[t]] = (m[(t - 1) % 10], o[t // 2], m[(t + 1) % 10])
        else:
            rot[m[t]] = (m[(t - 1) % 10], m[(t + 1) % 10], i[(t - 1) // 2])
    for j in range(5):
        rot[i[j]] = (m[2 * j + 1], i[(j + 1) % 5], i[(j - 1) % 5])
    return build_plane_graph(rot)


def _theta(a: int, b: int, c: int) -> PlaneGraph:
    """Two hubs joined by three internally disjoint paths (nested embedding)."""
    counts = (a, b, c)
    if any(x < 0 for x in counts):
        raise ValueError("theta path lengths must be non-negative")
    if sum(1 for x in counts if x == 0) > 1:
        raise ValueError("at most one theta path may be a bare edge (simple graph)")
    hub_u, hub_v = 0, 1
    rot: dict[int, list[int]] = {hub_u: [], hub_v: []}
    next_id = 2
    ends_u, ends_v = [], []
    for count in counts:
        if count == 0:
            ends_u.append(hub_v)
            ends_v.append(hub_u)
            continue
        ids = list(range(next_id, next_id + count))
        next_id += count
        seq = [hub_u, *ids, hub_v]
        for i, w in enumerate(ids, start=1):
            rot[w] = [seq[i - 1], seq[i + 1]]
        ends_u.append(ids[0])
        ends_v.append(ids[-1])
    rot[hub_u] = ends_u
    rot[hub_v] = list(reversed(ends_v))
    return build_plane_graph({k: tuple(v) for k, v in rot.items()})


def _figure1() -> PlaneGraph:
    # ids: v=0, v1=1, v2=2, v3=3, v4=4, v5=5, v6=6, v8=7  (v7 and v4 coincide)
    return build_plane_graph({
        0: (1, 2, 5),
        1: (2, 0, 7),
        2: (3, 0, 1),
        3: (2, 4),
        4: (3, 7, 6, 5),
        5: (0, 4, 6),
        6: (5, 4),
        7: (4, 1),
    })


_NAMED = {"triangle": lambda: _cycle(3), "k4": _k4, "cube": _cube,
          "dodecahedron": _dodecahedron, "figure1": _figure1}


def generate(name: str) -> PlaneGraph:
    """Build a catalog graph by name.  Raises ValueError on unknown names."""
    key = name.strip().lower()
    if key in _NAMED:
        return _NAMED[key]()
    if key.startswith("cycle:"):
        try:
            n = int(key.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad cycle parameter in {name!r}")
        if n < 3:
            raise ValueError(f"cycle:N needs N >= 3, got {n}")
        _check_size(name, n)
        return _cycle(n)
    if key.startswith("theta:"):
        parts = key.split(":", 1)[1].split(",")
        if len(parts) != 3:
            raise ValueError(f"theta needs three path lengths, got {name!r}")
        try:
            a, b, c = (int(p) for p in parts)
        except ValueError:
            raise ValueError(f"bad theta parameters in {name!r}")
        _check_size(name, 2 + a + b + c)
        return _theta(a, b, c)
    raise ValueError(f"unknown catalog graph {name!r}")
