"""The face trace against an independent reference.

The reference is the straightforward algorithm: trace darts in rotation
order, rotate each walk to start at its least dart, sort the walks, and
check Euler's formula on every component separately.  ``build_plane_graph``
must accept exactly the same rotation systems and report the same faces,
dart map, corners and shared edges.
"""

import pytest
from hypothesis import given, settings, strategies as st

from dpcharge.catalog import DEFAULT_CATALOG, generate
from dpcharge.planegraph import EmbeddingError, build_plane_graph


def _components(rotations):
    seen, comps = set(), []
    for root in range(len(rotations)):
        if root in seen:
            continue
        seen.add(root)
        comp, stack = {root}, [root]
        while stack:
            for w in rotations[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    comp.add(w)
                    stack.append(w)
        comps.append(comp)
    return comps


def reference_walks(rotations):
    """Face walks in id order, or None when some component is not a sphere."""
    index = [{w: i for i, w in enumerate(rot)} for rot in rotations]
    seen, walks = set(), []
    for u, rot_u in enumerate(rotations):
        for v in rot_u:
            if (u, v) in seen:
                continue
            walk, cur = [], (u, v)
            while cur not in seen:
                seen.add(cur)
                walk.append(cur)
                a, b = cur
                cur = (b, rotations[b][(index[b][a] + 1) % len(rotations[b])])
            i = walk.index(min(walk))
            walks.append(tuple(walk[i:] + walk[:i]))
    walks.sort(key=lambda w: w[0])
    comps = _components(rotations)
    walks += [() for comp in comps if len(comp) == 1]
    for comp in comps:
        edges = sum(len(rotations[v]) for v in comp) // 2
        faces = sum(1 for w in walks if w and w[0][0] in comp) + (edges == 0)
        if len(comp) - edges + faces != 2:
            return None
    return walks


def _edges(walk):
    return {(min(u, v), max(u, v)) for u, v in walk}


def check_against_reference(rotations):
    expected = reference_walks(rotations)
    try:
        g = build_plane_graph(rotations)
    except EmbeddingError as exc:
        assert expected is None, exc
        assert "Euler" in str(exc)
        return
    assert expected is not None
    assert [f.walk for f in g.faces] == expected
    assert [f.id for f in g.faces] == list(range(len(expected)))
    for i, walk in enumerate(expected):
        for u, v in walk:
            assert g.face_of_dart(u, v).id == i
    for v in g.vertices():
        assert g.incident_faces(v) == tuple(sorted(
            i for i, walk in enumerate(expected) for u, _ in walk if u == v))
    for f in g.faces:
        for h in g.faces[f.id + 1:]:
            shared = _edges(f.walk) & _edges(h.walk)
            assert g.shared_edges(f, h) == shared
            assert g.shared_edges(h, f) == shared


@pytest.mark.parametrize("name", DEFAULT_CATALOG)
def test_catalog_matches_reference(name):
    check_against_reference(generate(name).rotations)


@st.composite
def rotation_systems(draw):
    """Disjoint unions of catalog graphs and isolated vertices, relabelled.

    Relabelling and cyclic shifts keep every embedding plane; shuffling a
    rotation of degree three or more may give a positive genus.
    """
    parts = draw(st.lists(st.sampled_from(DEFAULT_CATALOG), min_size=1, max_size=2))
    rotations = []
    for name in parts:
        base = len(rotations)
        rotations += [tuple(base + w for w in rot) for rot in generate(name).rotations]
    rotations += [()] * draw(st.integers(0, 2))
    n = len(rotations)
    perm = draw(st.permutations(range(n)))
    relabelled = [()] * n
    for u, rot in enumerate(rotations):
        shift = draw(st.integers(0, max(len(rot) - 1, 0)))
        relabelled[perm[u]] = tuple(perm[w] for w in rot[shift:] + rot[:shift])
    for v in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        if len(relabelled[v]) >= 3:
            relabelled[v] = tuple(draw(st.permutations(relabelled[v])))
    return relabelled


@given(rotation_systems())
@settings(max_examples=300, deadline=None)
def test_random_systems_match_reference(rotations):
    check_against_reference(rotations)


def test_torus_component_rejected_among_plane_ones():
    # K4 with ascending rotations embeds on the torus; a triangle and an
    # isolated vertex are spheres, so the graph as a whole still fails
    torus_k4 = [(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)]
    triangle = [(5, 6), (6, 4), (4, 5)]
    rotations = torus_k4 + triangle + [()]
    assert reference_walks(rotations) is None
    with pytest.raises(EmbeddingError, match="Euler"):
        build_plane_graph(rotations)
