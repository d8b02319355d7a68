"""Exact-rational discharging engine.

Every vertex and face x starts with charge d(x) - 4; the rule sets move
charge around without creating or destroying any, so the total stays at
the Euler-forced -8 for a connected plane graph.  All arithmetic is
exact: no floats, no rounding, ever.  Every amount is a whole number of
1/unit, where unit is the common denominator of the rule table's
amounts, so charges are replayed in integer units and handed out as
fractions.Fraction.

Each rule set is one ``RuleTable`` in ``RULES``; a single interpreter
runs every table.  ``run_rules`` itemizes the transfers and keeps the
phase-1 charge beta of each 5-face in ``ledger.betas``; ``audit`` alone
replays the ledger into the final charges and the two charge sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .planegraph import PlaneGraph
from .structure import (Profile, ReducibleConfiguration, VertexClassification,
                        check_profile, classify_vertices, find_reducible)


class RuleSet(Enum):
    RS48 = "rs48"
    RS46 = "rs46"

    @property
    def profile(self) -> Profile:
        return Profile.NO48 if self is RuleSet.RS48 else Profile.NO46


@dataclass(frozen=True)
class Band:
    lo: int  # least face degree in the band; it ends below the next band's lo
    rule: str
    good: Fraction  # to each incident good 3-vertex
    bad: Fraction  # to each incident bad 3-vertex


@dataclass(frozen=True)
class RuleTable:
    """One rule set as data; ``run_rules`` interprets every table."""

    vertex_rule: tuple[str, Fraction]  # each 5+-vertex -> each adjacent bad 3-vertex
    triangle_rule: tuple[str, Fraction]  # each 5+-face -> each adjacent 3-face
    bands: tuple[Band, ...]  # each face -> its incident 3-vertices, by degree
    drain_rule: str | None  # phase 2: each special 3-vertex takes beta of its 5-face

    @property
    def amounts(self) -> frozenset[Fraction]:
        return frozenset([self.vertex_rule[1], self.triangle_rule[1]]
                         + [a for b in self.bands for a in (b.good, b.bad)])

    @cached_property
    def unit(self) -> int:
        """The common denominator of the amounts."""
        return math.lcm(*(a.denominator for a in self.amounts))

    def band(self, degree: int) -> Band | None:
        return next((b for b in reversed(self.bands) if b.lo <= degree), None)


RULES: dict[RuleSet, RuleTable] = {
    RuleSet.RS48: RuleTable(
        vertex_rule=("R1", Fraction(1, 4)),
        triangle_rule=("R2", Fraction(1, 3)),
        bands=(
            Band(5, "R3", Fraction(1, 6), Fraction(1, 12)),  # 5-faces
            Band(6, "R4", Fraction(1, 2), Fraction(1, 4)),  # 6- and 7-faces
            Band(8, "R5", Fraction(5, 6), Fraction(5, 12)),  # 8+-faces
        ),
        drain_rule="R6",
    ),
    RuleSet.RS46: RuleTable(
        vertex_rule=("R.1", Fraction(1, 4)),
        triangle_rule=("R.2", Fraction(1, 3)),
        bands=(
            Band(5, "R.3", Fraction(1, 3), Fraction(1, 6)),  # 5-faces
            Band(6, "R.4", Fraction(1, 2), Fraction(1, 4)),  # 6+-faces
        ),
        drain_rule=None,
    ),
}


def vertex_key(v: int) -> str:
    return f"v{v}"


def face_key(f: int) -> str:
    return f"f{f}"


class Transfer(NamedTuple):
    source: str
    target: str
    amount: Fraction
    rule: str
    phase: int


@dataclass
class ChargeLedger:
    graph: PlaneGraph
    ruleset: RuleSet
    initial: dict[str, Fraction]
    transfers: list[Transfer] = field(default_factory=list)
    flags: list[str] = field(default_factory=list)
    rule_violations: list[str] = field(default_factory=list)
    betas: dict[int, Fraction] = field(default_factory=dict)  # 5-face id -> beta

    @property
    def unit(self) -> int:
        """Every charge is a whole number of 1/unit."""
        return RULES[self.ruleset].unit

    def _replay(self) -> dict[str, int]:
        """The final charges in units of 1/unit."""
        unit = self.unit
        out = {k: _in_units(q, unit) for k, q in self.initial.items()}
        units: dict[int, int] = {}  # by id: the amounts are a few shared objects
        for t in self.transfers:
            a = t.amount
            u = units.get(id(a))
            if u is None:
                u = units[id(a)] = _in_units(a, unit)
            out[t.source] -= u
            out[t.target] += u
        return out


def _in_units(q: Fraction, unit: int) -> int:
    n, d = q.as_integer_ratio()
    n, rest = divmod(n * unit, d)
    if rest:
        raise ArithmeticError(f"charge {q} is not a whole number of 1/{unit}")
    return n


def initial_charges(graph: PlaneGraph, ruleset: RuleSet) -> ChargeLedger:
    """The rule set's ledger before any transfer: charge d(x) - 4 on every
    vertex and face, keyed by vertex id, then face id; connected input only."""
    if not graph.is_connected:
        raise ValueError("discharging requires a connected graph (the -8 identity)")
    keys = [vertex_key(v) for v in graph.vertices()] + [face_key(f.id) for f in graph.faces]
    degrees = graph.degrees + tuple(f.degree for f in graph.faces)
    charge = {d: Fraction(d - 4) for d in set(degrees)}  # one object per degree
    return ChargeLedger(graph, ruleset, dict(zip(keys, map(charge.__getitem__, degrees))))


def _phase1(graph: PlaneGraph, cls: VertexClassification, table: RuleTable,
            ledger: ChargeLedger, vkeys: list[str], fkeys: list[str]) -> None:
    out = ledger.transfers
    bad, good = cls.bad3, cls.good3
    rule, amount = table.vertex_rule
    for v, d in enumerate(graph.degrees):
        if d < 5:
            continue
        for u in sorted(graph.adjacency[v] & bad):
            out.append(Transfer(vkeys[v], vkeys[u], amount, rule, 1))
    # once per unordered face pair; pairs sharing two or more edges are
    # flagged for review
    rule, amount = table.triangle_rule
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
            out.append(Transfer(fkeys[f.id], fkeys[g.id], amount, rule, 1))
    # incidence counts distinct boundary vertices, not walk occurrences
    for f in graph.faces:
        band = table.band(f.degree)
        if band is None:
            continue
        fk = fkeys[f.id]
        for u in sorted(f.vertex_set):
            if u in good:
                out.append(Transfer(fk, vkeys[u], band.good, band.rule, 1))
            elif u in bad:
                out.append(Transfer(fk, vkeys[u], band.bad, band.rule, 1))


def _drain(graph: PlaneGraph, cls: VertexClassification, rule: str,
           ledger: ChargeLedger) -> None:
    # each special 3-vertex takes the remaining charge of its one 5-face,
    # unless another special vertex claims the same face
    units, unit = ledger._replay(), ledger.unit
    ledger.betas = {f.id: Fraction(units[face_key(f.id)], unit)
                    for f in graph.faces if f.degree == 5}
    claims: dict[int, list[int]] = {}
    for v, (_, fid, _) in sorted(cls.special.items()):
        claims.setdefault(fid, []).append(v)
    for fid in sorted(claims):
        claimants = claims[fid]
        if len(claimants) > 1:
            ledger.rule_violations.append(
                f"{rule} precondition violated: 5-face {fid} claimed by special "
                f"vertices {claimants}; no transfer applied")
            continue
        ledger.transfers.append(
            Transfer(face_key(fid), vertex_key(claimants[0]), ledger.betas[fid], rule, 2))


def run_rules(graph: PlaneGraph, ruleset: RuleSet) -> ChargeLedger:
    """Apply a rule set; the ledger itemizes every transfer.

    The hypotheses the rule set was designed for are not enforced here:
    running on a violating graph is how the contrapositive checks work.
    """
    cls = classify_vertices(graph)
    table = RULES[ruleset]
    ledger = initial_charges(graph, ruleset)
    keys = list(ledger.initial)
    n = graph.vertex_count
    _phase1(graph, cls, table, ledger, keys[:n], keys[n:])
    if table.drain_rule is not None:
        _drain(graph, cls, table.drain_rule, ledger)
    allowed = table.amounts
    # by id: the amounts are the table's own objects, so each is checked once
    amounts = {id(t.amount): t.amount for t in ledger.transfers if t.rule != table.drain_rule}
    for a in amounts.values():
        assert a in allowed, f"transfer amount {a} not among the rule constants"
    return ledger


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
    final: dict[str, Fraction]  # the ledger's final charges, replayed once


def audit(ledger: ChargeLedger) -> AuditReport:
    """Check the -8 identity and exact conservation; annotate every
    element that ends negative with the nearby reducible configurations
    and the violated hypotheses that explain it."""
    graph, unit = ledger.graph, ledger.unit
    total0 = Fraction(sum(_in_units(q, unit) for q in ledger.initial.values()), unit)
    units = ledger._replay()
    total1 = Fraction(sum(units.values()), unit)
    value = {u: Fraction(u, unit) for u in set(units.values())}
    final = {k: value[u] for k, u in units.items()}
    hypothesis = check_profile(graph, ledger.ruleset.profile)
    notes = tuple(hypothesis.notes())
    reducible = find_reducible(graph)
    # configuration indices by vertex, so each negative element looks up
    # only the configurations that touch it, in their original order
    by_vertex: dict[int, list[int]] = {}
    for i, r in enumerate(reducible):
        for v in r.vertices:
            by_vertex.setdefault(v, []).append(i)
    # negative faces, then negative vertices, each by id
    negatives = []
    for kind, x, key in sorted((k[0], int(k[1:]), k) for k, u in units.items() if u < 0):
        near = graph.adjacency[x] | {x} if kind == "v" else graph.faces[x].vertex_set
        hits = {i for v in near for i in by_vertex.get(v, ())}
        local = tuple(reducible[i] for i in sorted(hits))
        negatives.append(NegativeElement(key, final[key], local, notes))
    return AuditReport(
        sum_initial=total0,
        sum_final=total1,
        euler_identity_ok=total0 == -8,
        conservation_ok=total0 == total1,
        negatives=tuple(negatives),
        final=final,
    )
