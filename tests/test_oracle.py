from itertools import product

import pytest

from dpcharge.catalog import DEFAULT_CATALOG, generate
from dpcharge.cover import enumerate_covers, random_cover
from dpcharge.oracle import SIZE_GUARD, brute_ba, brute_defective
from dpcharge.planegraph import build_plane_graph
from dpcharge.solver import DefectVector, find_ba, find_defective_dp

EDGE = build_plane_graph({0: [1], 1: [0]})
D022 = DefectVector((0, 2, 2))


def test_all_single_edge_covers_agree():
    for cover in enumerate_covers(EDGE, 3, 5):
        assert find_ba(cover).status is brute_ba(cover).status
        assert find_defective_dp(cover, D022).status is brute_defective(cover, D022).status


def test_seeded_triangle_covers_agree():
    g = generate("triangle")
    for seed in range(60):
        cover = random_cover(g, 3, seed, full=True)
        assert find_ba(cover).status is brute_ba(cover).status
        assert find_defective_dp(cover, D022).status is brute_defective(cover, D022).status


def test_every_triangle_cover_agrees():
    # exhaustive: all 34^3 covers of the smallest cycle
    g = generate("triangle")
    for cover in enumerate_covers(g, 3, 5):
        assert find_ba(cover).status is brute_ba(cover).status
        assert (find_defective_dp(cover, D022).status
                is brute_defective(cover, D022).status)


@pytest.mark.parametrize("name", [n for n in DEFAULT_CATALOG
                                  if generate(n).vertex_count <= SIZE_GUARD])
def test_every_small_budget_vector_agrees(name):
    # budgets 0 and 1 are where a placed node saturates and blocks its
    # neighbors, so every vector in {0,1,2}^k is checked
    g = generate(name)
    for k in (1, 2, 3):
        vectors = [DefectVector(b) for b in product(range(3), repeat=k)]
        for full in (True, False):
            for seed in range(10):
                cover = random_cover(g, k, seed, full)
                for d in vectors:
                    assert (find_defective_dp(cover, d).status
                            is brute_defective(cover, d).status), (k, full, seed, d)


def test_size_guard():
    g = generate("cube")  # 8 vertices
    with pytest.raises(ValueError, match="limited"):
        brute_ba(random_cover(g, 3, 0, full=True))
