"""Vertex classification, hypothesis profiles, and reducible configurations.

The degree-3 vertex classes follow the counting used throughout the
discharging rules: a 3-vertex is bad when it has a neighbor of degree
exactly 3, good otherwise.  When the minimum degree is at least 3 the
good class coincides with "all neighbors of degree >= 4"; defining good
as not-bad keeps the two classes a partition on degenerate inputs.

A 3-vertex is special when its three corner faces are distinct with
degrees 3, 5 and 6; ``classify_vertices`` is the one place that finds
those faces, and every reader takes them from its ``special`` map.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .cycles import least_cycles
from .planegraph import PlaneGraph


class Profile(Enum):
    """Forbidden-cycle hypothesis: no 4-cycles plus no 8- or 6-cycles."""

    NO48 = "no48"
    NO46 = "no46"

    @property
    def forbidden_lengths(self) -> tuple[int, int]:
        return (4, 8) if self is Profile.NO48 else (4, 6)


@dataclass(frozen=True)
class VertexClassification:
    bad3: frozenset[int]
    good3: frozenset[int]
    special: dict[int, tuple[int, int, int]]  # v -> (3-face, 5-face, 6-face) ids


def classify_vertices(graph: PlaneGraph) -> VertexClassification:
    """The 3-vertex classes, computed once per graph and kept on it."""
    if graph._classification is not None:
        return graph._classification
    bad, good, special = set(), set(), {}
    for v in graph.vertices():
        if graph.degree(v) != 3:
            continue
        if any(graph.degree(u) == 3 for u in graph.neighbors(v)):
            bad.add(v)
        else:
            good.add(v)
        # three corners of three different degrees are three distinct faces
        by_degree = {graph.faces[f].degree: f for f in graph.incident_faces(v)}
        if by_degree.keys() == {3, 5, 6}:
            special[v] = (by_degree[3], by_degree[5], by_degree[6])
    graph._classification = VertexClassification(frozenset(bad), frozenset(good), special)
    return graph._classification


@dataclass(frozen=True)
class HypothesisReport:
    """Per-profile hypothesis check with witnesses for each violation.

    ``cycles_ok`` is the gate used by the hunt and the theorem-level
    checks; connectivity and minimum degree are reported alongside it.
    """

    connected: bool
    min_degree: int
    min_degree_witness: int | None
    four_cycle: tuple[int, ...] | None
    other_length: int
    other_cycle: tuple[int, ...] | None

    @property
    def cycles_ok(self) -> bool:
        return self.four_cycle is None and self.other_cycle is None

    def degree_note(self, least: int) -> str | None:
        """The note for a minimum degree below ``least``, else None.

        A graph without vertices meets every minimum degree vacuously."""
        if self.min_degree >= least or self.min_degree_witness is None:
            return None
        return f"minimum degree {self.min_degree} < {least} (vertex {self.min_degree_witness})"

    @property
    def cycle_notes(self) -> list[str]:
        out = []
        if self.four_cycle is not None:
            out.append(f"4-cycle present: {self.four_cycle}")
        if self.other_cycle is not None:
            out.append(f"{self.other_length}-cycle present: {self.other_cycle}")
        return out

    def notes(self) -> list[str]:
        out = [] if self.connected else ["graph is disconnected"]
        degree_note = self.degree_note(3)
        if degree_note is not None:
            out.append(degree_note)
        return out + self.cycle_notes


def check_profile(graph: PlaneGraph, profile: Profile) -> HypothesisReport:
    """The hypothesis report of the graph under a profile.

    Each witness is the least canonical cycle of its length.  The
    witnesses are kept on the graph by length, so each length is
    searched once per graph, whichever profiles ask for it; the lengths
    not yet known are searched together, in one pass over the starts.
    """
    least = graph._least_cycles
    four, other_length = profile.forbidden_lengths
    missing = [k for k in (four, other_length) if k not in least]
    if missing:
        least.update(least_cycles(graph, missing))
    min_deg = graph.min_degree()
    return HypothesisReport(
        connected=graph.is_connected,
        min_degree=min_deg,
        min_degree_witness=graph.degrees.index(min_deg) if graph.degrees else None,
        four_cycle=least[four],
        other_length=other_length,
        other_cycle=least[other_length],
    )


@dataclass(frozen=True)
class ReducibleConfiguration:
    """A local structure that cannot occur in a minimal counterexample."""

    kind: str  # "low-degree-vertex" | "bad3-without-two-5plus" | "5-neighbor-without-4plus"
    vertices: tuple[int, ...]
    detail: str


def find_reducible(graph: PlaneGraph) -> list[ReducibleConfiguration]:
    """Occurrences of the reducible configurations.

    (a) a vertex of degree at most 2;
    (b) a 3-vertex with a degree-3 neighbor but fewer than two
        5+-neighbors;
    (c) a 3-vertex with a degree-3 neighbor and a 5-neighbor that has
        no 4+-neighbor.
    """
    bad3 = classify_vertices(graph).bad3
    out: list[ReducibleConfiguration] = []
    for v in graph.vertices():
        d = graph.degree(v)
        if d <= 2:
            out.append(ReducibleConfiguration(
                "low-degree-vertex", (v,), f"vertex {v} has degree {d} <= 2"))
            continue
        if v not in bad3:
            continue
        nbrs = sorted(graph.neighbors(v))
        five_plus = [u for u in nbrs if graph.degree(u) >= 5]
        if len(five_plus) < 2:
            three_nbr = next(u for u in nbrs if graph.degree(u) == 3)
            out.append(ReducibleConfiguration(
                "bad3-without-two-5plus", (v,),
                f"3-vertex {v} has 3-neighbor {three_nbr} but only "
                f"{len(five_plus)} neighbor(s) of degree >= 5"))
        for x in nbrs:
            if graph.degree(x) == 5 and not any(graph.degree(y) >= 4 for y in graph.neighbors(x)):
                out.append(ReducibleConfiguration(
                    "5-neighbor-without-4plus", (v, x),
                    f"3-vertex {v} (with a 3-neighbor) has 5-neighbor {x} "
                    f"whose neighbors all have degree <= 3"))
    return out
