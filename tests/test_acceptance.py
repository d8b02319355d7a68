"""Acceptance suite: one check per shipping criterion, each printing a
single PASS/FAIL line (run with -s to see them)."""

import functools
import time
from fractions import Fraction
from itertools import permutations

from charge_fixtures import beta_family, beta_proof_cases, build_cases
from dpcharge.catalog import DEFAULT_CATALOG, generate
from dpcharge.cover import enumerate_covers, random_cover
from dpcharge.discharge import RuleSet, audit, initial_charges, run_rules
from dpcharge.lemmas import (SpecialVertexRecord, Verdict, check_structural_lemmas,
                             special_vertex_analysis)
from dpcharge.oracle import brute_ba, brute_defective
from dpcharge.planegraph import build_plane_graph
from dpcharge.solver import (DefectVector, OrderedTransversal, SearchStatus,
                             find_ba, find_defective_dp, verify_ba)
from dpcharge.structure import Profile, check_profile, classify_vertices

from cover_fixtures import paper_cover

D022 = DefectVector((0, 2, 2))


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number} [{name}]: FAIL")
                raise
            print(f"\nACCEPTANCE {number} [{name}]: PASS")
        return wrapper
    return decorate


@criterion(1, "Euler identity: initial charges sum to -8")
def test_criterion_1_euler_identity(catalog):
    start = time.monotonic()
    for name, g in catalog.items():
        assert g.is_connected, name
        total = audit(initial_charges(g, RuleSet.RS48)).sum_initial
        assert total == Fraction(-8), (name, total)
    assert time.monotonic() - start < 1.0


@criterion(2, "conservation under both rule sets")
def test_criterion_2_conservation(catalog):
    start = time.monotonic()
    for name, g in catalog.items():
        for ruleset in (RuleSet.RS48, RuleSet.RS46):
            report = audit(run_rules(g, ruleset))
            assert report.sum_final == report.sum_initial, (name, ruleset)
    assert time.monotonic() - start < 1.0


@criterion(3, "five-face charge bound: both proof cases exact, family >= 1/3")
def test_criterion_3_beta():
    third = Fraction(1, 3)
    cases = beta_proof_cases()
    assert len(cases) == 2
    for name, g, fid in cases:
        assert run_rules(g, RuleSet.RS48).betas[fid] == third, name
    checked = 0
    for name, g, fid in beta_family():
        f = g.faces[fid]
        cls = classify_vertices(g)
        if not any(v in cls.special for v in f.vertex_set):
            continue
        tris = [x for x in g.adjacent_faces(f) if x.degree == 3]
        threes = [v for v in f.vertex_set if g.degree(v) == 3]
        bads = [v for v in threes if v in cls.bad3]
        if len(tris) != 1 or not (len(threes) <= 2
                                  or (len(threes) == 3 and len(bads) >= 2)):
            continue
        assert run_rules(g, RuleSet.RS48).betas[f.id] >= third, name
        checked += 1
    assert checked >= 10


@criterion(4, "order-condition necessity over 10^4 random covers")
def test_criterion_4_ba_necessity():
    small = [name for name in DEFAULT_CATALOG if generate(name).vertex_count <= 8]
    graphs = {name: generate(name) for name in small}
    accepted = 0
    total = 0
    per_graph = -(-10_000 // len(small))  # ceil: guarantee >= 10^4 overall
    for name, g in graphs.items():
        for seed in range(per_graph):
            cover = random_cover(g, 3, seed, full=seed % 2 == 0)
            total += 1
            out = find_ba(cover, node_limit=300_000)
            if out.status is not SearchStatus.FOUND:
                continue
            accepted += 1
            assert verify_ba(cover, out.ordered).passed, (name, seed)
    assert total >= 10_000
    assert accepted > total // 2  # the property must not hold vacuously

    cover = paper_cover()
    t = {0: 1, 1: 2, 2: 1}
    for perm in permutations([(0, 1), (1, 2), (2, 1)]):
        assert not verify_ba(cover, OrderedTransversal(t, perm)).passed


@criterion(5, "solver verdicts match the brute-force oracle")
def test_criterion_5_oracle_equivalence():
    start = time.monotonic()
    edge = build_plane_graph({0: [1], 1: [0]})
    p3 = build_plane_graph({0: [1], 1: [0, 2], 2: [1]})

    def check(cover):
        assert find_ba(cover).status is brute_ba(cover).status
        assert (find_defective_dp(cover, D022).status
                is brute_defective(cover, D022).status)

    count = 0
    for cover in enumerate_covers(edge, 3, 5):
        check(cover)
        count += 1
    assert count == 34
    for cover in enumerate_covers(p3, 3, 5):
        check(cover)
    small = [n for n in DEFAULT_CATALOG if generate(n).vertex_count <= 6]
    assert small
    for name in small:
        g = generate(name)
        for seed in range(500):
            check(random_cover(g, 3, seed, full=True))
    assert time.monotonic() - start < 300


@criterion(6, "theorem-level check: profile-passing graphs always colorable")
def test_criterion_6_theorems(catalog):
    for profile in (Profile.NO48, Profile.NO46):
        passing = [(n, g) for n, g in catalog.items()
                   if check_profile(g, profile).cycles_ok]
        assert len(passing) >= 5, profile
        for name, g in passing:
            for seed in range(50):
                cover = random_cover(g, 3, seed, full=True)
                out = find_ba(cover, node_limit=1_000_000)
                assert out.status is SearchStatus.FOUND, (profile, name, seed)
                defect = find_defective_dp(cover, D022, node_limit=1_000_000)
                assert defect.status is SearchStatus.FOUND, (profile, name, seed)


@criterion(7, "lemma checkers sound; contrapositive witnesses found")
def test_criterion_7_lemma_soundness(catalog):
    for name, g in catalog.items():
        for profile in (Profile.NO48, Profile.NO46):
            items = check_structural_lemmas(g, profile)
            assert all(r.verdict is not Verdict.VIOLATED for r in items), (name, profile)

    # contrapositive 1: adjacent 5-faces on the dodecahedron come with an
    # 8-cycle witness
    items = check_structural_lemmas(generate("dodecahedron"), Profile.NO48)
    item = next(r for r in items if r.item == "no48.v")
    assert item.verdict is Verdict.HYPOTHESIS_NOT_MET
    assert not item.conclusion_holds and item.witness is not None
    assert any("8-cycle" in n for n in item.hypothesis_notes)

    # contrapositive 2: adjacent 3-faces come with a 4-cycle witness
    from dpcharge.catalog import PlanePatch
    p = PlanePatch.from_cycle(3)
    p.attach_apex(0, 1)
    g = p.build()
    for profile in (Profile.NO48, Profile.NO46):
        item = check_structural_lemmas(g, profile)[0]
        assert item.verdict is Verdict.HYPOTHESIS_NOT_MET
        assert not item.conclusion_holds and item.witness is not None
        assert any("4-cycle" in n for n in item.hypothesis_notes)


@criterion(8, "figure-1 conformance and special-vertex analysis")
def test_criterion_8_figure1():
    g = generate("figure1")
    assert (g.vertex_count, g.edge_count, g.face_count) == (8, 11, 5)
    assert sorted(f.degree for f in g.faces) == [3, 3, 5, 5, 6]
    rec = next(r for r in special_vertex_analysis(g) if r.vertex == 0)
    assert rec == SpecialVertexRecord(0, True, True, True)


@criterion(9, "per-element final-charge cases all non-negative")
def test_criterion_9_final_charge_cases():
    cases = build_cases()
    assert len(cases) >= 25
    for case in cases:
        assert case.environment(case.graph), case.name
        mu = audit(run_rules(case.graph, case.ruleset)).final[case.focal]
        assert mu >= 0, (case.name, mu)
        if case.expected is not None:
            assert mu == case.expected, (case.name, mu, case.expected)
