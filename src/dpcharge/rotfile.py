"""Text format for rotation systems.

    # a plane triangle
    planegraph triangle
    n 3
    v 0: 1 2
    v 1: 2 0
    v 2: 0 1

Comment lines start with '#'; blank lines are ignored.  Numbers are
ASCII digits.  Vertex ids run 0..n-1, each with one 'v' line (empty
for an isolated vertex) that lists its neighbors in cyclic order.
Each token is checked as it is read, so a parse error names the first
bad one and carries its line number; embedding errors from the builder
are surfaced verbatim.
"""

from __future__ import annotations

import hashlib

from .planegraph import EmbeddingError, PlaneGraph, build_plane_graph


class RotationFileError(ValueError):
    def __init__(self, line_no: int | None, message: str):
        prefix = f"line {line_no}: " if line_no is not None else ""
        super().__init__(prefix + message)


def _is_number(token: str) -> bool:
    # ASCII only: str.isdigit also accepts digits such as '²' that int() rejects
    return token.isascii() and token.isdigit()


def _to_int(line_no: int, token: str, what: str) -> int:
    """An ASCII digit token as a number; one past int()'s digit limit
    (4300 digits by default) is an error that names the line."""
    try:
        return int(token)
    except ValueError:
        raise RotationFileError(line_no, f"{what} has {len(token)} digits, "
                                         f"too many to convert") from None


def parse_rotation_file(text: str) -> tuple[PlaneGraph, str]:
    """Parse the grammar above; returns (graph, name)."""
    name: str | None = None
    count: int | None = None
    rotations: dict[int, tuple[int, ...]] = {}
    for line_no, line in enumerate(map(str.strip, text.splitlines()), start=1):
        if not line or line[0] == "#":
            continue
        if count is None:
            parts = line.split()
            if name is None:
                if len(parts) != 2 or parts[0] != "planegraph":
                    raise RotationFileError(line_no, "expected header 'planegraph <name>'")
                name = parts[1]
                continue
            if len(parts) != 2 or parts[0] != "n" or not _is_number(parts[1]):
                raise RotationFileError(line_no, "expected 'n <count>'")
            count = _to_int(line_no, parts[1], "count")
            continue
        if not line.startswith("v "):
            raise RotationFileError(line_no, f"expected 'v <id>: <neighbors>', got {line!r}")
        head, _, tail = line[2:].partition(":")
        head = head.strip()
        if not _is_number(head):
            raise RotationFileError(line_no, f"bad vertex id {head!r}")
        v = _to_int(line_no, head, "vertex id")
        if v >= count:
            raise RotationFileError(line_no, f"vertex id {v} out of range 0..{count - 1}")
        if v in rotations:
            raise RotationFileError(line_no, f"duplicate rotation for vertex {v}")
        nbrs = []
        for token in tail.split():
            if not _is_number(token):
                raise RotationFileError(line_no, f"bad neighbor token {token!r}")
            u = _to_int(line_no, token, "neighbor")
            if u >= count:
                raise RotationFileError(line_no, f"neighbor {u} out of range 0..{count - 1}")
            nbrs.append(u)
        rotations[v] = tuple(nbrs)
    if name is None:
        raise RotationFileError(None, "missing 'planegraph <name>' header")
    if count is None:
        raise RotationFileError(None, "missing 'n <count>' line")
    if len(rotations) != count:
        raise RotationFileError(None, f"{len(rotations)} 'v' lines for n {count}: "
                                      f"every vertex 0..{count - 1} needs one")
    try:
        return build_plane_graph([rotations[v] for v in range(count)]), name
    except EmbeddingError as exc:
        raise RotationFileError(None, str(exc)) from exc


def serialize_rotation_file(graph: PlaneGraph, name: str) -> str:
    """Canonical text: header, count, one 'v' line per vertex, ascending."""
    lines = [f"planegraph {name}", f"n {graph.vertex_count}"]
    for v in graph.vertices():
        nbrs = " ".join(map(str, graph.rotations[v]))
        lines.append(f"v {v}: {nbrs}".rstrip())
    return "\n".join(lines) + "\n"


def graph_hash(graph: PlaneGraph, name: str) -> str:
    """The first 16 hex digits of the sha256 of the graph's canonical text."""
    return hashlib.sha256(serialize_rotation_file(graph, name).encode("utf-8")).hexdigest()[:16]


def load_rotation_file(path: str) -> tuple[PlaneGraph, str]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_rotation_file(fh.read())
