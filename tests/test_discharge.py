from fractions import Fraction

import pytest

from dpcharge.catalog import generate
from charge_fixtures import beta_family, beta_proof_cases, fraction_replay
from dpcharge.discharge import (RULES, RuleSet, audit, face_key, initial_charges, run_rules,
                                vertex_key)
from dpcharge.planegraph import build_plane_graph
from dpcharge.structure import classify_vertices

F = Fraction


def test_initial_charges_formula():
    g = generate("dodecahedron")
    ledger = initial_charges(g, RuleSet.RS48)
    assert all(ledger.initial[vertex_key(v)] == F(-1) for v in g.vertices())
    assert all(ledger.initial[face_key(f.id)] == F(1) for f in g.faces)
    assert audit(ledger).sum_initial == F(-8)


def test_initial_charges_triangle():
    ledger = initial_charges(generate("triangle"), RuleSet.RS48)
    # 3 vertices at -2 plus 2 faces at -1
    assert sorted(ledger.initial.values()) == [F(-2)] * 3 + [F(-1)] * 2
    assert audit(ledger).sum_initial == F(-8)


def test_initial_charges_reject_disconnected():
    g = build_plane_graph({0: [1], 1: [0], 2: [3], 3: [2]})
    with pytest.raises(ValueError, match="connected"):
        initial_charges(g, RuleSet.RS48)


def test_euler_identity_across_catalog(catalog):
    for g in catalog.values():
        assert audit(initial_charges(g, RuleSet.RS48)).sum_initial == F(-8)


@pytest.mark.parametrize("ruleset", [RuleSet.RS48, RuleSet.RS46])
def test_conservation_across_catalog(catalog, ruleset):
    for name, g in catalog.items():
        report = audit(run_rules(g, ruleset))
        assert report.sum_final == report.sum_initial == F(-8), name


def test_dodecahedron_rs48_final_charges():
    g = generate("dodecahedron")
    final = audit(run_rules(g, RuleSet.RS48)).final
    assert all(final[vertex_key(v)] == F(-3, 4) for v in g.vertices())
    assert all(final[face_key(f.id)] == F(7, 12) for f in g.faces)


def test_no_rules_fire_without_recipients():
    # no 3-vertices, no 3-faces, no 5-faces: nothing moves under RS46
    g = generate("cycle:6")
    ledger = run_rules(g, RuleSet.RS46)
    assert not ledger.transfers
    assert audit(ledger).final == ledger.initial


def test_transfer_amounts_are_rule_constants(catalog):
    for g in catalog.values():
        for ruleset in (RuleSet.RS48, RuleSet.RS46):
            ledger = run_rules(g, ruleset)
            allowed = RULES[ruleset].amounts
            for t in ledger.transfers:
                if t.rule != "R6":
                    assert t.amount in allowed


@pytest.mark.parametrize("ruleset", list(RuleSet))
def test_transfers_match_their_table_row(catalog, ruleset):
    table = RULES[ruleset]
    for name, g in catalog.items():
        cls = classify_vertices(g)
        for t in run_rules(g, ruleset).transfers:
            source, target = int(t.source[1:]), int(t.target[1:])
            if t.phase == 2:
                assert t.rule == table.drain_rule and target in cls.special, (name, t)
            elif t.source.startswith("v"):
                assert (t.rule, t.amount) == table.vertex_rule, (name, t)
                assert g.degree(source) >= 5 and target in cls.bad3, (name, t)
            elif t.target.startswith("f"):
                assert (t.rule, t.amount) == table.triangle_rule, (name, t)
                assert g.faces[source].degree >= 5 and g.faces[target].degree == 3
            else:
                band = table.band(g.faces[source].degree)
                assert target in cls.good3 or target in cls.bad3, (name, t)
                expected = band.good if target in cls.good3 else band.bad
                assert (t.rule, t.amount) == (band.rule, expected), (name, t)


def test_rule_table_bands_ascend():
    for table in RULES.values():
        los = [b.lo for b in table.bands]
        assert los == sorted(set(los))
        assert table.band(4) is None and table.band(1000) is table.bands[-1]


def test_beta_is_the_rs48_ledger_beta(catalog):
    for name, g in catalog.items():
        ledger = run_rules(g, RuleSet.RS48)
        phase1 = fraction_replay(ledger, last_phase=1)
        fives = [f.id for f in g.faces if f.degree == 5]
        assert ledger.betas == {fid: phase1[face_key(fid)] for fid in fives}, name


def test_beta_isolated_five_face():
    g = generate("cycle:5")
    betas = run_rules(g, RuleSet.RS48).betas
    assert betas == {f.id: F(1) for f in g.faces}  # no outflow at all


def test_r6_multiple_claimants_aborted():
    # raw figure1: two special vertices share the bounded 5-face, so R6
    # must abstain there and report; the outer 5-face transfers normally
    g = generate("figure1")
    ledger = run_rules(g, RuleSet.RS48)
    assert any("claimed by special vertices [0, 5]" in v for v in ledger.rule_violations)
    r6 = [t for t in ledger.transfers if t.rule == "R6"]
    assert len(r6) == 1 and r6[0].target == vertex_key(1)
    report = audit(ledger)
    assert report.conservation_ok


def test_audit_dodecahedron_annotations():
    g = generate("dodecahedron")
    report = audit(run_rules(g, RuleSet.RS48))
    assert report.euler_identity_ok and report.conservation_ok
    negative_vertices = [n for n in report.negatives if n.key.startswith("v")]
    assert len(negative_vertices) == 20
    for n in negative_vertices:
        assert n.final == F(-3, 4)
        assert any(r.kind == "bad3-without-two-5plus" for r in n.nearby_reducible)
        assert any("8-cycle" in note for note in n.hypothesis_notes)


def test_audit_figure1_notes_min_degree():
    report = audit(run_rules(generate("figure1"), RuleSet.RS48))
    assert report.negatives
    for n in report.negatives:
        assert any("minimum degree" in note for note in n.hypothesis_notes)


def test_r2_pair_with_multiple_shared_edges_flagged():
    # two triangles joined by a cut edge: each triangle shares all three
    # of its edges with the surrounding 8-face
    from charge_fixtures import _eight_face_two_triangles
    g, _ = _eight_face_two_triangles()
    ledger = run_rules(g, RuleSet.RS48)
    assert len(ledger.flags) == 2
    r2 = [t for t in ledger.transfers if t.rule == "R2"]
    assert len(r2) == 2  # once per face pair despite three shared edges


def test_transfers_itemized_with_phase():
    g = generate("figure1")
    ledger = run_rules(g, RuleSet.RS48)
    assert all(t.phase == 1 for t in ledger.transfers if t.rule != "R6")
    assert all(t.phase == 2 for t in ledger.transfers if t.rule == "R6")


# -- the integer replay against an independent Fraction replay ----------

REPLAY_GRAPHS = ([f"cycle:{n}" for n in (3, 4, 5, 6, 7, 8, 10, 12)]
                 + [f"theta:{a}" for a in ("0,1,2", "1,1,1", "1,2,3", "2,2,2", "1,3,5",
                                           "2,4,6", "3,4,5")])


def _check_replay(g, ruleset):
    ledger = run_rules(g, ruleset)
    expected = fraction_replay(ledger)
    report = audit(ledger)
    assert report.final == expected
    assert all(type(x) is Fraction for x in report.final.values())
    assert all(type(t.amount) is Fraction for t in ledger.transfers)
    assert report.sum_initial == sum(ledger.initial.values(), F(0))
    assert report.sum_final == sum(expected.values(), F(0))
    assert type(report.sum_initial) is type(report.sum_final) is Fraction
    assert [(n.key, n.final) for n in report.negatives] == \
        sorted(((k, x) for k, x in expected.items() if x < 0),
               key=lambda kx: (kx[0][0], int(kx[0][1:])))
    assert all(type(n.final) is Fraction for n in report.negatives)
    phase1 = fraction_replay(ledger, last_phase=1)
    fives = [f.id for f in g.faces if f.degree == 5]
    if ruleset is RuleSet.RS48:
        assert ledger.betas == {fid: phase1[face_key(fid)] for fid in fives}
        assert all(type(b) is Fraction for b in ledger.betas.values())
    else:
        assert not ledger.betas


@pytest.mark.parametrize("ruleset", list(RuleSet))
def test_final_matches_fraction_replay_on_catalog(catalog, ruleset):
    for g in catalog.values():
        _check_replay(g, ruleset)


@pytest.mark.parametrize("ruleset", list(RuleSet))
@pytest.mark.parametrize("name", REPLAY_GRAPHS)
def test_final_matches_fraction_replay_on_generated(name, ruleset):
    _check_replay(generate(name), ruleset)


def test_final_matches_fraction_replay_on_r6_gadgets():
    drains = 0
    for _, g, _ in beta_family() + beta_proof_cases():
        for ruleset in RuleSet:
            _check_replay(g, ruleset)
        drains += sum(t.phase == 2 for t in run_rules(g, RuleSet.RS48).transfers)
    assert drains  # the phase-2 transfers, whose amounts are betas, are replayed too


def test_replay_unit_is_the_table_denominator():
    for ruleset, table in RULES.items():
        assert table.unit == 12
        assert all((a * table.unit).denominator == 1 for a in table.amounts)
        assert run_rules(generate("k4"), ruleset).unit == table.unit
