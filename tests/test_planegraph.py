import pytest

from dpcharge.lemmas import _normally_adjacent
from dpcharge.planegraph import EmbeddingError, build_plane_graph


def test_triangle_two_faces():
    g = build_plane_graph({0: [1, 2], 1: [2, 0], 2: [0, 1]})
    assert g.vertex_count == 3 and g.edge_count == 3 and g.face_count == 2
    assert all(f.degree == 3 for f in g.faces)
    assert g.is_connected


def test_single_edge_one_face_of_degree_two():
    g = build_plane_graph({0: [1], 1: [0]})
    assert g.face_count == 1
    (f,) = g.faces
    assert f.degree == 2  # the cut edge contributes both darts
    assert not f.simple


def test_cube_faces():
    g = build_plane_graph({
        0: (4, 1, 3), 1: (5, 2, 0), 2: (6, 3, 1), 3: (7, 0, 2),
        4: (5, 0, 7), 5: (6, 1, 4), 6: (7, 2, 5), 7: (4, 3, 6),
    })
    assert (g.vertex_count, g.edge_count, g.face_count) == (8, 12, 6)
    assert sorted(f.degree for f in g.faces) == [4] * 6
    expected = {frozenset(s) for s in
                [(0, 1, 2, 3), (4, 5, 6, 7), (0, 1, 5, 4),
                 (1, 2, 6, 5), (2, 3, 7, 6), (0, 3, 7, 4)]}
    assert {f.vertex_set for f in g.faces} == expected


def test_single_vertex_has_one_empty_face():
    g = build_plane_graph({0: []})
    assert g.face_count == 1 and g.faces[0].degree == 0


def test_face_degree_sum_is_twice_edges(catalog):
    for g in catalog.values():
        assert sum(f.degree for f in g.faces) == 2 * g.edge_count


def test_euler_formula_on_connected_catalog(catalog):
    for g in catalog.values():
        assert g.is_connected
        assert g.vertex_count - g.edge_count + g.face_count == 2


def test_loop_rejected():
    with pytest.raises(EmbeddingError, match="loop"):
        build_plane_graph({0: [0, 1], 1: [0]})


def test_repeated_neighbor_rejected():
    with pytest.raises(EmbeddingError, match="repeated neighbor"):
        build_plane_graph({0: [1, 1], 1: [0, 0]})


def test_asymmetric_rotation_rejected():
    with pytest.raises(EmbeddingError, match="asymmetric"):
        build_plane_graph({0: [1], 1: []})


def test_nonplanar_rotation_rejected():
    # K4 with all rotations in ascending order embeds on the torus
    with pytest.raises(EmbeddingError, match="Euler"):
        build_plane_graph({0: [1, 2, 3], 1: [0, 2, 3], 2: [0, 1, 3], 3: [0, 1, 2]})


def test_disconnected_accepted_and_flagged():
    g = build_plane_graph({0: [1], 1: [0], 2: [3], 3: [2]})
    assert not g.is_connected
    assert len(g.components) == 2


def test_face_adjacency_triangle_inner_outer():
    g = build_plane_graph({0: [1, 2], 1: [2, 0], 2: [0, 1]})
    f1, f2 = g.faces
    # same boundary: three shared edges, three shared vertices
    assert not _normally_adjacent(f1, f2)
    assert len(g.shared_edges(f1, f2)) == 3


def test_face_adjacency_cube():
    g = build_plane_graph({
        0: (4, 1, 3), 1: (5, 2, 0), 2: (6, 3, 1), 3: (7, 0, 2),
        4: (5, 0, 7), 5: (6, 1, 4), 6: (7, 2, 5), 7: (4, 3, 6),
    })
    by_set = {f.vertex_set: f for f in g.faces}
    bottom = by_set[frozenset({0, 1, 2, 3})]
    side = by_set[frozenset({0, 1, 5, 4})]
    assert _normally_adjacent(bottom, side)


def test_face_adjacency_figure1_three_and_five():
    from dpcharge.catalog import generate
    g = generate("figure1")
    tri = next(f for f in g.faces if f.degree == 3 and 0 in f.vertex_set)
    five = next(f for f in g.faces if f.degree == 5 and 0 in f.vertex_set)
    assert _normally_adjacent(tri, five)
    assert five.vertex_set & tri.vertex_set == {0, 2}


def test_normally_adjacent_implies_adjacent(catalog):
    for g in catalog.values():
        for f in g.faces:
            for x in g.adjacent_faces(f):
                shared = len(g.shared_edges(f, x))
                assert shared >= 1
                if _normally_adjacent(f, x):
                    assert shared == 1


def test_incident_faces_corner_multiplicity():
    # path a-b-c: the middle vertex has two corners on the single face
    g = build_plane_graph({0: [1], 1: [0, 2], 2: [1]})
    assert g.face_count == 1
    assert g.incident_faces(1) == (0, 0)


@pytest.mark.parametrize("rotations,message", [
    ([(5,), ()], "vertex 0: neighbor 5 out of range"),
    ([(1, -1), (0,)], "vertex 0: neighbor -1 out of range"),
    # the first vertex with a defect is named, whatever the defect
    ([(0, 1), (0, 7)], "loop at vertex 0"),
    ([(1,), (0, 0, 2), (1,)], "repeated neighbor in rotation of vertex 1"),
    ([(1,), (0, 9)], "vertex 1: neighbor 9 out of range"),
    ([(1, 2), (0,), ()], "asymmetric rotation: 2 lists no edge back to 0"),
    ([(1,), (0, 2), (0,)], "asymmetric rotation: 2 lists no edge back to 1"),
    ([(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)],
     "Euler formula violated: V-E+F = 4-6+2 = 0 != 2 = 2 x 1 components "
     "(not a plane embedding)"),
    # a defect of a later vertex outranks a missing reverse at an earlier one
    ([(1,), (), (2,)], "loop at vertex 2"),
    ([(1,), (), (5,)], "vertex 2: neighbor 5 out of range"),
], ids=["out-of-range", "negative", "loop-first", "repeated", "range-at-second-vertex",
        "missing-reverse", "missing-reverse-later", "torus", "loop-before-reverse",
        "range-before-reverse"])
def test_rejection_messages(rotations, message):
    with pytest.raises(EmbeddingError) as info:
        build_plane_graph(rotations)
    assert str(info.value) == message


def test_face_tables_are_built_on_first_use(catalog):
    # parse, hypothesis check and B_A search (what hunt and solve run)
    # never read faces, so they never build the tuple-keyed tables
    from dpcharge.cover import random_cover
    from dpcharge.rotfile import parse_rotation_file, serialize_rotation_file
    from dpcharge.solver import find_ba
    from dpcharge.structure import Profile, check_profile

    lazy = ("faces", "_face_of_dart", "_corner_faces", "_darts")
    for name, built in catalog.items():
        g, _ = parse_rotation_file(serialize_rotation_file(built, name))
        for profile in Profile:
            check_profile(g, profile)
        find_ba(random_cover(g, 3, 0, full=True))
        assert not set(lazy) & g.__dict__.keys(), name
        assert g.face_count == len(g.faces)
        assert g.incident_faces(0) == built.incident_faces(0)
        assert g.face_of_dart(0, g.rotations[0][0]) == built.face_of_dart(0, g.rotations[0][0])
        assert set(lazy) <= g.__dict__.keys()
