import pytest

from dpcharge.catalog import PlanePatch, generate
from dpcharge.cli import cli_dispatch
from dpcharge.lemmas import (SpecialVertexRecord, Verdict, check_structural_lemmas,
                             special_vertex_analysis)
from dpcharge.rotfile import load_rotation_file
from dpcharge.structure import Profile, check_profile, classify_vertices


def two_triangles_sharing_edge():
    p = PlanePatch.from_cycle(3)
    p.attach_apex(0, 1)
    return p.build()


def figure1_with_filled_triangle():
    """figure1 plus a vertex inside [v4 v5 v6] joined to all three of its
    corners: the triangle on edge v4-v5 becomes genuine, so the special
    vertex's 5-face now touches two countable 3-faces."""
    g = generate("figure1")
    p = PlanePatch({v: list(g.rotations[v]) for v in g.vertices()})
    w = p.attach_apex(5, 4)          # inside [4,5,6]
    p.add_chord(w, 6, after_at_a=4, after_at_b=5)
    return p.build(), w


def five_and_six_face_sharing_two_vertices():
    """A special vertex v on a triangle, a 5-face and a 6-face, where the
    5-face and the 6-face share the path v-c-x2-x1: besides v and its
    neighbors they share x1 and x2, two vertices where the clause wants one."""
    p = PlanePatch.from_cycle(4)     # a b x1 y: 0 1 2 3
    v = p.attach_apex(0, 1)          # the triangle v a b
    p.attach_path(v, 2, 2, after_at_u=1, after_at_v=3)   # v c x2 x1
    return p.build(), v


def test_dodecahedron_no48_adjacent_five_faces_contrapositive():
    items = check_structural_lemmas(generate("dodecahedron"), Profile.NO48)
    item = next(r for r in items if r.item == "no48.v")
    assert item.verdict is Verdict.HYPOTHESIS_NOT_MET
    assert any("8-cycle" in n for n in item.hypothesis_notes)
    assert not item.conclusion_holds and item.witness is not None


def test_figure1_no48_three_five_normal():
    items = check_structural_lemmas(generate("figure1"), Profile.NO48)
    item = next(r for r in items if r.item == "no48.ii")
    assert item.verdict is Verdict.HOLDS


def test_adjacent_triangles_contrapositive():
    g = two_triangles_sharing_edge()
    for profile in (Profile.NO48, Profile.NO46):
        item = check_structural_lemmas(g, profile)[0]  # no adjacent 3-faces
        assert item.verdict is Verdict.HYPOTHESIS_NOT_MET
        assert any("4-cycle" in n for n in item.hypothesis_notes)
        assert not item.conclusion_holds
        assert item.witness is not None


def test_no_violated_verdicts_on_catalog(catalog):
    # soundness: hypotheses satisfied -> conclusions hold, everywhere
    for name, g in catalog.items():
        for profile in (Profile.NO48, Profile.NO46):
            items = check_structural_lemmas(g, profile)
            assert all(r.verdict is not Verdict.VIOLATED for r in items), (name, profile)


# a triangle with a pendant edge, and one with a pendant path of two edges:
# each meets both profiles' cycle hypotheses, and the items that need
# minimum degree 2 fail on them (no48.ii and no46.ii on the first, no46.iv
# and no46.v on the second)
PENDANT_TRIANGLES = {
    "pendant-edge": ("v 0: 1 2\nv 1: 2 0 3\nv 2: 0 1\nv 3: 1\n", 4,
                     ("no48.ii", "no46.ii")),
    "pendant-path": ("v 0: 1 2\nv 1: 2 0 3\nv 2: 0 1\nv 3: 1 4\nv 4: 3\n", 5,
                     ("no46.iv", "no46.v")),
}


@pytest.mark.parametrize("profile", ["no48", "no46"])
@pytest.mark.parametrize("name", PENDANT_TRIANGLES)
def test_degree_one_vertex_fails_a_hypothesis_not_a_lemma(name, profile, tmp_path, capsys):
    body, n, failing = PENDANT_TRIANGLES[name]
    path = tmp_path / "g.pg"
    path.write_text(f"planegraph {name}\nn {n}\n{body}")
    assert cli_dispatch(["structure", str(path), "--profile", profile]) == 0
    assert "violated" not in capsys.readouterr().out
    items = check_structural_lemmas(load_rotation_file(str(path))[0], Profile(profile))
    by_item = {r.item: r for r in items}
    for item in failing:
        if item in by_item:
            assert not by_item[item].conclusion_holds
            assert by_item[item].hypothesis_notes == (f"minimum degree 1 < 2 (vertex {n - 1})",)
    assert by_item[f"{profile}.i"].verdict is Verdict.HOLDS
    assert by_item[f"{profile}.iii"].hypothesis_notes == (
        f"minimum degree 1 < 3 (vertex {n - 1})",)


def test_no46_seven_face_items():
    g = generate("cycle:7")
    by_item = {r.item: r for r in check_structural_lemmas(g, Profile.NO46)}
    assert by_item["no46.iv"].verdict is Verdict.HOLDS
    assert by_item["no46.v"].verdict is Verdict.HOLDS


def test_special_analysis_figure1():
    g = generate("figure1")
    records = special_vertex_analysis(g)
    # the special vertex's 5-face and 6-face share v4 besides v0 and its
    # neighbors; its 5-face touches a second 3-face, and v0 sees another
    # special vertex, each through a vertex of degree 2, so only the
    # degree filters make the two later clauses hold
    _, f5, f6 = (g.faces[f] for f in classify_vertices(g).special[0])
    assert (f5.vertex_set & f6.vertex_set) - {0} - g.neighbors(0) == {4}
    assert sum(h.degree == 3 for h in g.adjacent_faces(f5)) == 2
    assert records[0] == SpecialVertexRecord(0, True, True, True)
    assert any(r.vertex in f5.vertex_set | f6.vertex_set for r in records[1:])


def test_special_analysis_artifact_records_note_hypotheses():
    g = generate("figure1")
    artifacts = [r for r in special_vertex_analysis(g) if r.vertex != 0]
    assert artifacts
    for rec in artifacts:
        assert not (rec.identification_ok and rec.one_triangle_ok and rec.uniqueness_ok)
    # the notes that explain a failing clause come from the hypothesis check
    assert any("minimum degree" in n for n in check_profile(g, Profile.NO48).notes())


def test_special_analysis_dodecahedron_empty():
    assert special_vertex_analysis(generate("dodecahedron")) == []


def test_special_analysis_two_genuine_triangles_flagged():
    g, w = figure1_with_filled_triangle()
    assert g.degree(w) == 3
    rec = next(r for r in special_vertex_analysis(g) if r.vertex == 0)
    # the second triangle is genuine, so only the one-3-face clause fails
    assert rec == SpecialVertexRecord(0, True, False, True)
    # the paper's argument: such a second triangle forces a 4-cycle
    assert any("4-cycle" in n for n in check_profile(g, Profile.NO48).notes())


def test_special_analysis_identification_clause():
    g, _ = figure1_with_filled_triangle()
    rec = next(r for r in special_vertex_analysis(g) if r.vertex == 0)
    assert rec.identification_ok  # v4 still plays the shared-vertex role


def test_special_analysis_two_shared_vertices_fail_identification():
    g, v = five_and_six_face_sharing_two_vertices()
    assert sorted(f.degree for f in g.faces) == [3, 4, 5, 6]
    _, f5, f6 = (g.faces[f] for f in classify_vertices(g).special[v])
    assert len((f5.vertex_set & f6.vertex_set) - {v} - g.neighbors(v)) == 2
    assert special_vertex_analysis(g) == [SpecialVertexRecord(v, False, True, True)]
