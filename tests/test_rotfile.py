import time

import pytest

from dpcharge.catalog import DEFAULT_CATALOG, generate
from dpcharge.rotfile import (RotationFileError, parse_rotation_file,
                              serialize_rotation_file)

TRIANGLE = """\
# a plane triangle
planegraph triangle
n 3
v 0: 1 2
v 1: 2 0
v 2: 0 1
"""


def test_parse_triangle():
    g, name = parse_rotation_file(TRIANGLE)
    assert name == "triangle"
    assert g.face_count == 2


def test_round_trip_is_canonical():
    for name in DEFAULT_CATALOG:
        g = generate(name)
        text = serialize_rotation_file(g, name)
        g2, name2 = parse_rotation_file(text)
        assert name2 == name
        assert g2.rotations == g.rotations
        assert serialize_rotation_file(g2, name2) == text


def test_repeated_neighbor_rejected():
    text = "planegraph x\nn 2\nv 0: 1 1\nv 1: 0 0\n"
    with pytest.raises(RotationFileError, match="repeated neighbor"):
        parse_rotation_file(text)


def test_asymmetric_rotation_names_both_vertices():
    text = "planegraph x\nn 3\nv 0: 1\nv 1: 0 2\nv 2:\n"
    with pytest.raises(RotationFileError, match="2 lists no edge back to 1"):
        parse_rotation_file(text)


def test_syntax_error_carries_line_number():
    text = "planegraph x\nn 2\nv 0: 1\nv one: 0\n"
    with pytest.raises(RotationFileError, match="line 4"):
        parse_rotation_file(text)


def test_out_of_range_vertex():
    text = "planegraph x\nn 2\nv 0: 5\n"
    with pytest.raises(RotationFileError, match="out of range"):
        parse_rotation_file(text)


def test_missing_header():
    with pytest.raises(RotationFileError, match="header"):
        parse_rotation_file("n 3\nv 0: 1\n")


def test_duplicate_vertex_line():
    text = "planegraph x\nn 2\nv 0: 1\nv 0: 1\nv 1: 0\n"
    with pytest.raises(RotationFileError, match="duplicate"):
        parse_rotation_file(text)


def test_comments_and_blanks_ignored():
    text = "\n# hi\nplanegraph t\n\nn 2\n# mid\nv 0: 1\nv 1: 0\n\n"
    g, _ = parse_rotation_file(text)
    assert g.edge_count == 1


def test_header_only_parse_is_linear():
    # every vertex isolated: one component and one face per vertex
    start = time.perf_counter()
    g, _ = parse_rotation_file("planegraph big\nn 100000\n")
    assert time.perf_counter() - start < 10
    assert len(g.components) == 100000 and g.face_count == 100000
