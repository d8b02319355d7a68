import pytest

from dpcharge.catalog import PlanePatch, generate
from dpcharge.cli import cli_dispatch
from dpcharge.lemmas import (Verdict, check_structural_lemmas,
                             special_vertex_analysis)
from dpcharge.rotfile import load_rotation_file
from dpcharge.structure import Profile


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


def test_dodecahedron_no48_adjacent_five_faces_contrapositive():
    report = check_structural_lemmas(generate("dodecahedron"), Profile.NO48)
    item = next(r for r in report.items if r.item == "no48.v")
    assert item.verdict is Verdict.HYPOTHESIS_NOT_MET
    assert any("8-cycle" in n for n in item.hypothesis_notes)
    assert not item.conclusion_holds and item.witness is not None


def test_figure1_no48_three_five_normal():
    report = check_structural_lemmas(generate("figure1"), Profile.NO48)
    item = next(r for r in report.items if r.item == "no48.ii")
    assert item.verdict is Verdict.HOLDS


def test_adjacent_triangles_contrapositive():
    g = two_triangles_sharing_edge()
    for profile in (Profile.NO48, Profile.NO46):
        report = check_structural_lemmas(g, profile)
        item = report.items[0]  # no adjacent 3-faces
        assert item.verdict is Verdict.HYPOTHESIS_NOT_MET
        assert any("4-cycle" in n for n in item.hypothesis_notes)
        assert not item.conclusion_holds
        assert item.witness is not None


def test_no_violated_verdicts_on_catalog(catalog):
    # soundness: hypotheses satisfied -> conclusions hold, everywhere
    for name, g in catalog.items():
        for profile in (Profile.NO48, Profile.NO46):
            report = check_structural_lemmas(g, profile)
            assert not report.violated, (name, profile)


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
    report = check_structural_lemmas(load_rotation_file(str(path))[0], Profile(profile))
    by_item = {r.item: r for r in report.items}
    for item in failing:
        if item in by_item:
            assert not by_item[item].conclusion_holds
            assert by_item[item].hypothesis_notes == (f"minimum degree 1 < 2 (vertex {n - 1})",)
    assert by_item[f"{profile}.i"].verdict is Verdict.HOLDS
    assert by_item[f"{profile}.iii"].hypothesis_notes == (
        f"minimum degree 1 < 3 (vertex {n - 1})",)


def test_no46_seven_face_items():
    g = generate("cycle:7")
    report = check_structural_lemmas(g, Profile.NO46)
    by_item = {r.item: r for r in report.items}
    assert by_item["no46.iv"].verdict is Verdict.HOLDS
    assert by_item["no46.v"].verdict is Verdict.HOLDS


def test_special_analysis_figure1():
    records = special_vertex_analysis(generate("figure1"))
    rec = next(r for r in records if r.vertex == 0)
    assert rec.identification_ok and rec.identification_candidates == (4,)
    assert rec.one_triangle_ok
    assert rec.adjacent_triangles_raw != rec.adjacent_triangles  # artifact excluded
    assert rec.excluded_triangles and rec.excluded_triangles[0][0] != rec.triangle_face
    assert rec.uniqueness_ok
    assert rec.other_specials_raw and not rec.other_specials


def test_special_analysis_artifact_records_note_hypotheses():
    records = special_vertex_analysis(generate("figure1"))
    artifacts = [r for r in records if r.vertex != 0]
    assert artifacts
    for rec in artifacts:
        assert not (rec.identification_ok and rec.one_triangle_ok and rec.uniqueness_ok)
        assert any("minimum degree" in n for n in rec.hypothesis_notes)


def test_special_analysis_dodecahedron_empty():
    assert special_vertex_analysis(generate("dodecahedron")) == []


def test_special_analysis_two_genuine_triangles_flagged():
    g, w = figure1_with_filled_triangle()
    assert g.degree(w) == 3
    records = special_vertex_analysis(g)
    rec = next(r for r in records if r.vertex == 0)
    assert not rec.one_triangle_ok
    assert len(rec.adjacent_triangles) == 2
    # the paper's argument: such a second triangle forces a 4-cycle
    assert any("4-cycle" in n for n in rec.hypothesis_notes)


def test_special_analysis_identification_clause():
    g, _ = figure1_with_filled_triangle()
    rec = next(r for r in special_vertex_analysis(g) if r.vertex == 0)
    assert rec.identification_ok  # v4 still plays the shared-vertex role
