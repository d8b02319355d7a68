"""Property-based checks over seeded random covers and catalog graphs."""

import json
from itertools import product
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from dpcharge.catalog import generate
from dpcharge.cover import (cover_doc, cover_from_json, cover_to_json,
                            enumerate_covers, identity_cover, random_cover,
                            validate_cover)
from dpcharge.cycles import cycles_of_length
from dpcharge.discharge import RuleSet, audit, run_rules
from dpcharge.solver import SearchStatus, find_ba, verify_ba

SMALL_GRAPHS = ["triangle", "k4", "cycle:5", "theta:1,2,2", "cube", "figure1"]


@given(name=st.sampled_from(SMALL_GRAPHS), seed=st.integers(0, 2**63 - 1),
       full=st.booleans())
@settings(max_examples=200, deadline=None)
def test_ba_necessity_on_random_covers(name, seed, full):
    cover = random_cover(generate(name), 3, seed, full)
    out = find_ba(cover, node_limit=200_000)
    if out.status is SearchStatus.FOUND:
        assert verify_ba(cover, out.ordered).passed


@given(name=st.sampled_from(SMALL_GRAPHS), seed=st.integers(0, 2**63 - 1),
       full=st.booleans())
@settings(max_examples=60, deadline=None)
def test_random_cover_reproducible(name, seed, full):
    g = generate(name)
    assert cover_to_json(random_cover(g, 3, seed, full)) == \
        cover_to_json(random_cover(g, 3, seed, full))


@given(a=st.integers(1, 3), b=st.integers(1, 3), c=st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_theta_cycle_spectrum(a, b, c):
    g = generate(f"theta:{a},{b},{c}")
    expected = {a + b + 2, a + c + 2, b + c + 2}
    for k in range(3, min(12, g.vertex_count) + 1):
        cycles = cycles_of_length(g, k)
        assert bool(cycles) == (k in expected)
        for cyc in cycles:
            assert len(set(cyc)) == k


def test_identity_cover_matches_proper_coloring():
    # independence in the identity cover is exactly properness in the graph
    for name in ("triangle", "k4", "cycle:5"):
        g = generate(name)
        cover = identity_cover(g, 3)
        for combo in product((1, 2, 3), repeat=g.vertex_count):
            t = dict(enumerate(combo))
            independent = not any(
                (t[u], t[v]) in cover.matchings[(u, v)] for (u, v) in g.edges)
            proper = all(t[u] != t[v] for (u, v) in g.edges)
            assert independent == proper


def test_partition_property_identity_covers():
    # a passing order on an identity cover partitions the graph into
    # three linear forests, the first class independent
    for name in ("triangle", "cycle:5", "cycle:7", "figure1"):
        g = generate(name)
        out = find_ba(identity_cover(g, 3))
        assert out.status is SearchStatus.FOUND
        t = out.ordered.assignment
        class1 = [v for v, c in t.items() if c == 1]
        assert not any(g.has_edge(u, v) for u in class1 for v in class1 if u < v)
        for color in (1, 2, 3):
            verts = {v for v, c in t.items() if c == color}
            inside = [(u, v) for (u, v) in g.edges if u in verts and v in verts]
            deg: dict[int, int] = {}
            for u, v in inside:
                deg[u] = deg.get(u, 0) + 1
                deg[v] = deg.get(v, 0) + 1
            assert all(d <= 2 for d in deg.values())
            # acyclic: each class's edge count stays below its vertex count
            assert len(inside) < len(verts) + 1 if verts else True


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_conservation_on_random_decorations(seed):
    # decorate a catalog graph with seeded pendants: charge still conserved
    import random
    from dpcharge.catalog import PlanePatch
    rng = random.Random(seed)
    base = generate(rng.choice(["triangle", "cycle:5", "figure1", "k4"]))
    p = PlanePatch({v: list(base.rotations[v]) for v in base.vertices()})
    for _ in range(rng.randrange(4)):
        p.pendant_in_biggest_face(rng.randrange(base.vertex_count))
    g = p.build()
    for ruleset in (RuleSet.RS48, RuleSet.RS46):
        report = audit(run_rules(g, ruleset))
        assert report.sum_final == report.sum_initial == -8


def test_single_edge_matching_count_closed_form():
    from dpcharge.planegraph import build_plane_graph
    edge = build_plane_graph({0: [1], 1: [0]})
    for k in (1, 2, 3):
        enumerated = sum(1 for _ in enumerate_covers(edge, k, 5))
        assert enumerated == sum(comb(k, j) ** 2 * factorial(j) for j in range(k + 1))


# -- cover JSON: the input boundary -------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5) | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=4), kids,
                                                              max_size=4),
    max_leaves=12)
THETA = generate("theta:1,2,2")
VALID_COVER = cover_doc(random_cover(THETA, 3, 5, False))
N = THETA.vertex_count
# keys as they could be spelled: canonical, reversed, self-loops, non-edges,
# out-of-range vertices and malformed text
KEYS = (st.builds(lambda u, v: f"{u}-{v}", st.integers(0, N + 1), st.integers(0, N + 1))
        | st.sampled_from(["-1-0", "0-01", "00-1", "0 - 1", "0-1-2", "", "x-y"])
        | st.text(max_size=5))
PAIRS = st.lists(st.lists(st.integers(0, 4), min_size=2, max_size=2), max_size=4)


def _load_then_validate(doc) -> None:
    """Only ValueError escapes, and every accepted cover is valid."""
    if not (isinstance(doc, dict) and isinstance(doc.get("graph"), str)):
        with pytest.raises(ValueError):  # no graph, embedded or supplied
            cover_from_json(json.dumps(doc))
    try:
        cover = cover_from_json(json.dumps(doc), graph=THETA)
    except ValueError:
        return
    assert validate_cover(cover) == ()
    assert all(u < v and THETA.has_edge(u, v) for u, v in cover.matchings)
    *_, adj = cover.node_graph  # every matched pair is one cover edge
    assert sum(map(len, adj)) == 2 * sum(map(len, cover.matchings.values()))


@given(doc=JSON_VALUES | st.fixed_dictionaries(
    {}, optional={"k": JSON_VALUES, "lists": JSON_VALUES, "matchings": JSON_VALUES,
                  "provenance": JSON_VALUES, "graph": JSON_VALUES}))
@settings(max_examples=300, deadline=None)
def test_cover_json_arbitrary_documents(doc):
    _load_then_validate(doc)


@given(lists=st.dictionaries(st.sampled_from([str(v) for v in range(N + 1)]),
                             st.lists(st.integers(-1, 4), max_size=4) | JSON_VALUES,
                             max_size=2),
       matchings=st.dictionaries(KEYS, PAIRS | JSON_VALUES, max_size=4),
       drop=st.lists(st.sampled_from(sorted(VALID_COVER["matchings"])), max_size=3),
       k=st.sampled_from([3, 3, 3, 0, 4, -1, "3", True, 3.0]))
@settings(max_examples=400, deadline=None)
def test_cover_json_mutations_of_a_valid_cover(lists, matchings, drop, k):
    doc = json.loads(json.dumps(VALID_COVER))
    doc["k"] = k
    doc["lists"].update(lists)
    for key in drop:
        doc["matchings"].pop(key, None)
    doc["matchings"].update(matchings)
    _load_then_validate(doc)


@given(keys=st.lists(st.tuples(st.integers(0, N + 1), st.integers(0, N + 1)), min_size=1,
                     max_size=4),
       pairs=PAIRS)
@settings(max_examples=200, deadline=None)
def test_cover_json_reversed_duplicated_and_non_edge_keys(keys, pairs):
    doc = json.loads(json.dumps(VALID_COVER))
    for u, v in keys:
        doc["matchings"][f"{u}-{v}"] = pairs
    _load_then_validate(doc)
    if any(not (u < v and THETA.has_edge(u, v)) for u, v in keys):
        with pytest.raises(ValueError, match="^invalid cover: "):
            cover_from_json(json.dumps(doc), graph=THETA)
