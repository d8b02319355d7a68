from dpcharge.catalog import generate
from dpcharge.planegraph import build_plane_graph
from dpcharge.structure import (Profile, check_profile, classify_vertices,
                                find_reducible)


def test_dodecahedron_all_bad_none_special():
    g = generate("dodecahedron")
    cls = classify_vertices(g)
    assert cls.bad3 == frozenset(g.vertices())  # every neighbor has degree 3
    assert not cls.good3
    assert not cls.special  # no 3-faces anywhere


def test_figure1_specials():
    g = generate("figure1")
    cls = classify_vertices(g)
    assert 0 in cls.special
    for v in cls.special:
        assert g.degree(v) == 3
        assert sorted(g.faces[f].degree for f in g.incident_faces(v)) == [3, 5, 6]


def test_star_center_is_good():
    g = build_plane_graph({0: [1, 2, 3], 1: [0], 2: [0], 3: [0]})
    cls = classify_vertices(g)
    assert 0 in cls.good3  # leaves are 1-vertices, not 3-vertices
    assert 0 not in cls.bad3


def test_good_bad_partition(catalog):
    for g in catalog.values():
        cls = classify_vertices(g)
        threes = {v for v in g.vertices() if g.degree(v) == 3}
        assert cls.good3 | cls.bad3 == threes
        assert not (cls.good3 & cls.bad3)


def test_profile_dodecahedron_no48():
    rep = check_profile(generate("dodecahedron"), Profile.NO48)
    assert rep.four_cycle is None
    assert len(rep.other_cycle) == 8
    assert rep.min_degree == 3
    assert not rep.cycles_ok


def test_profile_c5_no46():
    rep = check_profile(generate("cycle:5"), Profile.NO46)
    assert rep.cycles_ok
    assert rep.min_degree == 2  # flagged, not gating
    assert any("minimum degree" in n for n in rep.notes())


def test_profile_k4_no48_witness():
    rep = check_profile(generate("k4"), Profile.NO48)
    assert rep.four_cycle is not None and len(rep.four_cycle) == 4


def test_reducible_c5_low_degree():
    records = find_reducible(generate("cycle:5"))
    assert len(records) == 5
    assert all(r.kind == "low-degree-vertex" for r in records)


def test_reducible_dodecahedron_every_vertex():
    g = generate("dodecahedron")
    records = find_reducible(g)
    assert len(records) == 20
    assert all(r.kind == "bad3-without-two-5plus" for r in records)
    assert {r.vertices[0] for r in records} == set(g.vertices())


def test_reducible_k4_four_records():
    records = find_reducible(generate("k4"))
    assert len(records) == 4
    assert all(r.kind == "bad3-without-two-5plus" for r in records)


def test_reducible_five_neighbor_without_4plus():
    # u: a 3-vertex with a 3-neighbor and a 5-neighbor x all of whose
    # neighbors have degree <= 3
    from dpcharge.catalog import PlanePatch
    p = PlanePatch({0: []})
    spokes = []
    for _ in range(5):
        w = p.new_vertex()
        p.rot[w] = [0]
        p.rot[0].append(w)
        spokes.append(w)
    u = spokes[0]
    p.add_chord(spokes[0], spokes[1], after_at_a=0, after_at_b=0)  # 3-neighbor
    p.add_pendant(u, after=0)
    p.add_pendant(spokes[1], after=0)
    g = p.build()
    assert g.degree(0) == 5 and g.degree(u) == 3 and g.degree(spokes[1]) == 3
    records = find_reducible(g)
    kinds = {r.kind for r in records}
    assert "5-neighbor-without-4plus" in kinds
    rec = next(r for r in records if r.kind == "5-neighbor-without-4plus")
    assert rec.vertices == (u, 0)
