"""Exact-rational discharging engine.

Every vertex and face x starts with charge d(x) - 4; the rule sets move
charge around without creating or destroying any, so the total stays at
the Euler-forced -8 for a connected plane graph.  All arithmetic uses
fractions.Fraction: no floats, no rounding, ever.

Rule set RS48 (two phases):
  R1  each 5+-vertex gives 1/4 to each adjacent bad 3-vertex
  R2  each 5+-face gives 1/3 to each adjacent 3-face
  R3  each 5-face gives 1/6 to each incident good 3-vertex and 1/12 to
      each incident bad 3-vertex
  R4  each 6- or 7-face gives 1/2 to each incident good 3-vertex and
      1/4 to each incident bad 3-vertex
  R5  each 8+-face gives 5/6 to each incident good 3-vertex and 5/12 to
      each incident bad 3-vertex
  R6  (second phase) each special 3-vertex receives the whole remaining
      charge beta(f) of its incident 5-face

Rule set RS46 (one phase):
  R.1  each 5+-vertex gives 1/4 to each adjacent bad 3-vertex
  R.2  each 5+-face gives 1/3 to each adjacent 3-face
  R.3  each 5-face gives 1/3 to each incident good 3-vertex and 1/6 to
       each incident bad 3-vertex
  R.4  each 6+-face gives 1/2 to each incident good 3-vertex and 1/4 to
       each incident bad 3-vertex
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .planegraph import Face, PlaneGraph
from .structure import (Profile, ReducibleConfiguration, VertexClassification,
                        check_profile, classify_vertices, find_reducible)


class RuleSet(Enum):
    RS48 = "rs48"
    RS46 = "rs46"

    @property
    def profile(self) -> Profile:
        return Profile.NO48 if self is RuleSet.RS48 else Profile.NO46

    @property
    def allowed_amounts(self) -> frozenset[Fraction]:
        if self is RuleSet.RS48:
            return frozenset(Fraction(*pq) for pq in
                             ((1, 4), (1, 3), (1, 6), (1, 12), (1, 2), (5, 6), (5, 12)))
        return frozenset(Fraction(*pq) for pq in ((1, 4), (1, 3), (1, 6), (1, 2)))


def vertex_key(v: int) -> str:
    return f"v{v}"


def face_key(f: int) -> str:
    return f"f{f}"


@dataclass(frozen=True)
class Transfer:
    source: str
    target: str
    amount: Fraction
    rule: str
    phase: int


@dataclass
class ChargeLedger:
    graph: PlaneGraph
    ruleset: RuleSet | None
    initial: dict[str, Fraction]
    transfers: list[Transfer] = field(default_factory=list)
    flags: list[str] = field(default_factory=list)
    rule_violations: list[str] = field(default_factory=list)
    betas: dict[int, Fraction] = field(default_factory=dict)  # 5-face id -> beta

    def final(self) -> dict[str, Fraction]:
        out = dict(self.initial)
        for t in self.transfers:
            out[t.source] -= t.amount
            out[t.target] += t.amount
        return out

    def sum_initial(self) -> Fraction:
        return sum(self.initial.values(), Fraction(0))

    def sum_final(self) -> Fraction:
        return sum(self.final().values(), Fraction(0))


def initial_charges(graph: PlaneGraph) -> ChargeLedger:
    """Charge d(x) - 4 on every vertex and face; connected input only."""
    if not graph.is_connected:
        raise ValueError("discharging requires a connected graph (the -8 identity)")
    init: dict[str, Fraction] = {}
    for v in graph.vertices():
        init[vertex_key(v)] = Fraction(graph.degree(v) - 4)
    for f in graph.faces:
        init[face_key(f.id)] = Fraction(f.degree - 4)
    return ChargeLedger(graph, None, init)


def _vertex_rules(graph: PlaneGraph, cls: VertexClassification, ledger: ChargeLedger,
                  rule: str, phase: int) -> None:
    # each 5+-vertex gives 1/4 to each adjacent bad 3-vertex
    for v in graph.vertices():
        if graph.degree(v) < 5:
            continue
        for u in sorted(graph.neighbors(v)):
            if cls.is_bad(u):
                ledger.transfers.append(
                    Transfer(vertex_key(v), vertex_key(u), Fraction(1, 4), rule, phase))


def _face_to_triangle_rules(graph: PlaneGraph, ledger: ChargeLedger,
                            rule: str, phase: int) -> None:
    # each 5+-face gives 1/3 to each adjacent 3-face, once per unordered
    # pair; pairs sharing two or more edges are flagged for review
    for f in graph.faces:
        if f.degree < 5:
            continue
        for g in graph.adjacent_faces(f):
            if g.degree != 3:
                continue
            shared = graph.shared_edges(f, g)
            if len(shared) >= 2:
                ledger.flags.append(
                    f"faces {f.id} and {g.id} share {len(shared)} edges; "
                    f"transferred once per pair, review manually")
            ledger.transfers.append(
                Transfer(face_key(f.id), face_key(g.id), Fraction(1, 3), rule, phase))


def _face_to_vertex_rules(graph: PlaneGraph, cls: VertexClassification,
                          ledger: ChargeLedger, schedule, phase: int) -> None:
    # schedule: list of (predicate on face degree, rule name, good amount, bad amount);
    # incidence counts distinct boundary vertices, not walk occurrences
    for f in graph.faces:
        for pred, rule, good_amt, bad_amt in schedule:
            if not pred(f.degree):
                continue
            for u in sorted(f.vertex_set):
                if cls.is_good(u):
                    ledger.transfers.append(
                        Transfer(face_key(f.id), vertex_key(u), good_amt, rule, phase))
                elif cls.is_bad(u):
                    ledger.transfers.append(
                        Transfer(face_key(f.id), vertex_key(u), bad_amt, rule, phase))
            break


def beta_values(graph: PlaneGraph, ledger: ChargeLedger) -> dict[int, Fraction]:
    """Remaining charge of each 5-face after the phase-1 rules."""
    final = ledger.final()
    return {f.id: final[face_key(f.id)] for f in graph.faces if f.degree == 5}


def incident_five_face(graph: PlaneGraph, cls: VertexClassification, v: int) -> Face:
    """The unique 5-face at the corners of a special 3-vertex."""
    if not cls.is_special(v):
        raise ValueError(f"vertex {v} is not special")
    for fid in graph.incident_faces(v):
        if graph.faces[fid].degree == 5:
            return graph.faces[fid]
    raise AssertionError("special vertex without a 5-face corner")


def run_rules(graph: PlaneGraph, ruleset: RuleSet) -> ChargeLedger:
    """Apply a rule set; the ledger itemizes every transfer.

    The hypotheses the rule set was designed for are not enforced here:
    running on a violating graph is how the contrapositive checks work.
    """
    cls = classify_vertices(graph)
    ledger = initial_charges(graph)
    ledger.ruleset = ruleset
    half = Fraction(1, 2)
    if ruleset is RuleSet.RS48:
        _vertex_rules(graph, cls, ledger, "R1", 1)
        _face_to_triangle_rules(graph, ledger, "R2", 1)
        schedule = [
            (lambda d: d == 5, "R3", Fraction(1, 6), Fraction(1, 12)),
            (lambda d: d in (6, 7), "R4", half, Fraction(1, 4)),
            (lambda d: d >= 8, "R5", Fraction(5, 6), Fraction(5, 12)),
        ]
        _face_to_vertex_rules(graph, cls, ledger, schedule, 1)
        ledger.betas = beta_values(graph, ledger)
        # phase 2: each special 3-vertex drains its 5-face's remaining charge
        claims: dict[int, list[int]] = {}
        for v in sorted(cls.special):
            claims.setdefault(incident_five_face(graph, cls, v).id, []).append(v)
        for fid in sorted(claims):
            claimants = claims[fid]
            if len(claimants) > 1:
                ledger.rule_violations.append(
                    f"R6 precondition violated: 5-face {fid} claimed by special "
                    f"vertices {claimants}; no transfer applied")
                continue
            ledger.transfers.append(
                Transfer(face_key(fid), vertex_key(claimants[0]),
                         ledger.betas[fid], "R6", 2))
    else:
        _vertex_rules(graph, cls, ledger, "R.1", 1)
        _face_to_triangle_rules(graph, ledger, "R.2", 1)
        schedule = [
            (lambda d: d == 5, "R.3", Fraction(1, 3), Fraction(1, 6)),
            (lambda d: d >= 6, "R.4", half, Fraction(1, 4)),
        ]
        _face_to_vertex_rules(graph, cls, ledger, schedule, 1)
    allowed = ruleset.allowed_amounts
    for t in ledger.transfers:
        assert t.rule == "R6" or t.amount in allowed, \
            f"transfer amount {t.amount} not among the rule constants"
    return ledger


def beta(graph: PlaneGraph, face: Face) -> Fraction:
    """Phase-1 final charge of a 5-face under RS48."""
    if face.degree != 5:
        raise ValueError(f"beta is defined for 5-faces; face {face.id} has degree {face.degree}")
    cls = classify_vertices(graph)
    ledger = initial_charges(graph)
    ledger.ruleset = RuleSet.RS48
    _vertex_rules(graph, cls, ledger, "R1", 1)
    _face_to_triangle_rules(graph, ledger, "R2", 1)
    schedule = [
        (lambda d: d == 5, "R3", Fraction(1, 6), Fraction(1, 12)),
        (lambda d: d in (6, 7), "R4", Fraction(1, 2), Fraction(1, 4)),
        (lambda d: d >= 8, "R5", Fraction(5, 6), Fraction(5, 12)),
    ]
    _face_to_vertex_rules(graph, cls, ledger, schedule, 1)
    return beta_values(graph, ledger)[face.id]


@dataclass(frozen=True)
class NegativeElement:
    key: str
    final: Fraction
    nearby_reducible: tuple[ReducibleConfiguration, ...]
    hypothesis_notes: tuple[str, ...]


@dataclass(frozen=True)
class AuditReport:
    sum_initial: Fraction
    sum_final: Fraction
    euler_identity_ok: bool  # sum of initial charges == -8
    conservation_ok: bool  # rules only move charge
    negatives: tuple[NegativeElement, ...]

    @property
    def all_non_negative(self) -> bool:
        return not self.negatives


def _element_vertices(graph: PlaneGraph, key: str) -> set[int]:
    if key.startswith("v"):
        v = int(key[1:])
        return {v} | set(graph.neighbors(v))
    return set(graph.faces[int(key[1:])].vertex_set)


def audit(ledger: ChargeLedger) -> AuditReport:
    """Check the -8 identity and exact conservation; annotate every
    element that ends negative with the nearby reducible configurations
    and the violated hypotheses that explain it."""
    graph = ledger.graph
    total0 = ledger.sum_initial()
    final = ledger.final()
    total1 = sum(final.values(), Fraction(0))
    profile = ledger.ruleset.profile if ledger.ruleset else Profile.NO48
    hypothesis = check_profile(graph, profile)
    notes = tuple(hypothesis.notes())
    reducible = find_reducible(graph)
    # configuration indices by vertex, so each negative element looks up
    # only the configurations that touch it, in their original order
    by_vertex: dict[int, list[int]] = {}
    for i, r in enumerate(reducible):
        for v in r.vertices:
            by_vertex.setdefault(v, []).append(i)
    negatives = []
    for key in sorted(final, key=lambda k: (k[0], int(k[1:]))):
        if final[key] >= 0:
            continue
        hits = {i for v in _element_vertices(graph, key) for i in by_vertex.get(v, ())}
        local = tuple(reducible[i] for i in sorted(hits))
        negatives.append(NegativeElement(key, final[key], local, notes))
    return AuditReport(
        sum_initial=total0,
        sum_final=total1,
        euler_identity_ok=total0 == Fraction(-8),
        conservation_ok=total0 == total1,
        negatives=tuple(negatives),
    )
