"""Local configurations realizing each case of the final-charge analyses.

Each fixture pins one focal element (a vertex or a face), builds a small
embedded graph in which that element's surroundings match one case of
the per-element analysis, and states the exact final charge the rules
must produce.  Environment checks assert the surroundings really are
what the case assumes, so a silently wrong construction cannot pass.

The gadgets freely use leaves and 2-vertices away from the focal
element; only the focal element's case conditions matter.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from dpcharge.catalog import PlanePatch, generate
from dpcharge.discharge import RuleSet, face_key, vertex_key
from dpcharge.planegraph import PlaneGraph
from dpcharge.structure import classify_vertices


def fraction_replay(ledger, last_phase=2):
    """Initial charges plus one Fraction add per transfer, as written in the paper."""
    out = dict(ledger.initial)
    for t in ledger.transfers:
        if t.phase <= last_phase:
            out[t.source] -= t.amount
            out[t.target] += t.amount
    return out


@dataclass(frozen=True)
class FocalCase:
    name: str
    ruleset: RuleSet
    graph: PlaneGraph
    focal: str  # ledger element key
    expected: Fraction | None  # exact final charge; None = only >= 0
    environment: Callable[[PlaneGraph], bool]


def _env_vertex(degree: int, kind: str | None = None,
                face_degrees: tuple[int, ...] | None = None):
    def check(g: PlaneGraph, v: int) -> bool:
        if g.degree(v) != degree:
            return False
        cls = classify_vertices(g)
        if kind == "good" and v not in cls.good3:
            return False
        if kind == "bad" and v not in cls.bad3:
            return False
        if face_degrees is not None:
            if sorted(g.faces[f].degree for f in g.incident_faces(v)) != sorted(face_degrees):
                return False
        return True
    return check


def _env_face(degree: int, triangles: int | None = None,
              good3: int | None = None, bad3: int | None = None):
    def check(g: PlaneGraph, fid: int) -> bool:
        f = g.faces[fid]
        if f.degree != degree:
            return False
        if triangles is not None:
            tris = [x for x in g.adjacent_faces(f) if x.degree == 3]
            if len(tris) != triangles:
                return False
        cls = classify_vertices(g)
        if good3 is not None and sum(1 for u in f.vertex_set if u in cls.good3) != good3:
            return False
        if bad3 is not None and sum(1 for u in f.vertex_set if u in cls.bad3) != bad3:
            return False
        return True
    return check


def _five_star(bad_count: int) -> tuple[PlaneGraph, int]:
    """Degree-5 hub with `bad_count` bad 3-neighbors (paired off) and the
    rest boosted to degree 4."""
    assert bad_count % 2 == 0
    hub = 0
    p = PlanePatch({0: []})
    spokes = []
    for _ in range(5):
        w = p.new_vertex()
        p.rot[w] = [hub]
        p.rot[hub].append(w)
        spokes.append(w)
    for i in range(0, bad_count, 2):
        a, b = spokes[i], spokes[i + 1]
        # close a triangle [hub, a, b] so a and b are mutual 3-neighbors
        p.add_chord(a, b, after_at_a=hub, after_at_b=p._prev(b, hub))
    for i in range(bad_count):
        p.pendant_in_biggest_face(spokes[i])
    for i in range(bad_count, 5):
        for _ in range(3):
            p.pendant_in_biggest_face(spokes[i])
    return p.build(), hub


def _six_star_all_bad() -> tuple[PlaneGraph, int]:
    hub = 0
    p = PlanePatch({0: []})
    spokes = []
    for _ in range(6):
        w = p.new_vertex()
        p.rot[w] = [hub]
        p.rot[hub].append(w)
        spokes.append(w)
    for i in range(0, 6, 2):
        a, b = spokes[i], spokes[i + 1]
        p.add_chord(a, b, after_at_a=hub, after_at_b=p._prev(b, hub))
    for w in spokes:
        p.pendant_in_biggest_face(w)
    return p.build(), hub


def _wheel4() -> tuple[PlaneGraph, int]:
    p = PlanePatch.from_cycle(4)
    hub = p.new_vertex()
    p.rot[hub] = [3, 2, 1, 0]
    for v in range(4):
        p.rot[v].insert(1, hub)  # between prev and next: inside the 4-cycle
    return p.build(), hub


def _good3_two_hexagons() -> tuple[PlaneGraph, int]:
    # two 6-faces share edge v-x; v's third face is the big outside
    p = PlanePatch.from_cycle(6)  # hexagon 1: vertices 0..5, v=0, x=5
    chain = p.attach_path(5, 0, 4, after_at_u=0, after_at_v=1)  # hexagon 2
    for _ in range(2):
        p.pendant_in_biggest_face(1)
    p.pendant_in_biggest_face(5)
    for _ in range(2):
        p.pendant_in_biggest_face(chain[-1])
    return p.build(), 0


def _v_3_5_big(neighbor_degrees: tuple[int, int, int]) -> tuple[PlaneGraph, int]:
    """3-vertex v on a 3-face, a 5-face and an 8+-face; the three
    neighbors are boosted to the requested degrees (use 3 to leave a
    neighbor as a 3-vertex, making v bad)."""
    p = PlanePatch.from_cycle(3)  # triangle [v=0, a=1, b=2]
    chain = p.attach_path(2, 0, 3, after_at_u=0, after_at_v=1)  # 5-face [0,2,w1,w2,w3]
    w3 = chain[-1]
    for target, u in zip(neighbor_degrees, (1, 2, w3)):
        base = len(p.rot[u])
        for _ in range(target - base):
            p.pendant_in_biggest_face(u)
    return p.build(), 0


def _figure1_special(good: bool) -> tuple[PlaneGraph, int]:
    """figure1 with the triangle [v4 v5 v6] opened into a 5-face and the
    special vertex's neighbors boosted: good=True boosts all three to 4+,
    otherwise v5 stays a 3-vertex and v1, v2 become 5-vertices."""
    g = generate("figure1")
    p = PlanePatch({v: list(g.rotations[v]) for v in g.vertices()})
    if good:
        p.add_pendant(5, after=4)     # lands in [4,5,6], killing the 3-face
        p.add_pendant(1, after=7)     # outer
        p.add_pendant(2, after=1)     # outer
    else:
        p.add_pendant(6, after=5)     # opens [4,5,6] from inside, v5 stays degree 3
        for _ in range(2):
            p.add_pendant(1, after=7)
        for _ in range(2):
            p.add_pendant(2, after=1)
    return p.build(), 0


def _triangle_three_pentagons() -> tuple[PlaneGraph, int]:
    p = PlanePatch.from_cycle(3)
    for (u, v) in ((0, 1), (1, 2), (2, 0)):
        p.attach_face_on_edge(u, v, 5)
    g = p.build()
    (tri,) = [f.id for f in g.faces if f.degree == 3]
    return g, tri


def _five_face(patterns: str) -> tuple[PlaneGraph, int]:
    """5-cycle with decorations; `patterns` selects the case:

    rs48_two_tri_two_good   triangles on (0,1), (2,3); good 3-vertices 1, 3
    rs48_two_tri_three      triangles on (0,1), (2,3); bad pair 1, 2; good 4
    rs46_two_good           no triangles; good 3-vertices 0, 2
    rs46_three              no triangles; bad pair 2, 3; good 0
    beta_one_tri_two_good   triangle on (0,1); good 3-vertices 2, 4
    beta_one_tri_three      triangle on (0,1); good 0; bad pair 2, 3
    """
    p = PlanePatch.from_cycle(5)
    boost = {}
    if patterns == "rs48_two_tri_two_good":
        p.attach_face_on_edge(0, 1, 3)
        p.attach_face_on_edge(2, 3, 3)
        boost = {0: 4, 1: 3, 2: 4, 3: 3, 4: 4}
    elif patterns == "rs48_two_tri_three":
        p.attach_face_on_edge(0, 1, 3)
        p.attach_face_on_edge(2, 3, 3)
        boost = {0: 4, 1: 3, 2: 3, 3: 4, 4: 3}
    elif patterns == "rs46_two_good":
        boost = {0: 3, 1: 4, 2: 3, 3: 4, 4: 4}
    elif patterns == "rs46_three":
        boost = {0: 3, 1: 4, 2: 3, 3: 3, 4: 4}
    elif patterns == "beta_one_tri_two_good":
        p.attach_face_on_edge(0, 1, 3)
        boost = {0: 4, 1: 4, 2: 3, 3: 4, 4: 3}
    elif patterns == "beta_one_tri_three":
        p.attach_face_on_edge(0, 1, 3)
        boost = {0: 3, 1: 4, 2: 3, 3: 3, 4: 4}
    else:
        raise ValueError(patterns)
    for v, target in boost.items():
        while len(p.rot[v]) < target:
            p.pendant_in_biggest_face(v)
    g = p.build()
    (five,) = [f.id for f in g.faces
               if f.degree == 5 and f.vertex_set >= {0, 1, 2, 3, 4}]
    return g, five


def _six_face(four_bad: bool) -> tuple[PlaneGraph, int]:
    p = PlanePatch.from_cycle(6)
    p.attach_face_on_edge(0, 1, 3)
    if four_bad:
        boost = {0: 4, 1: 4, 2: 3, 3: 3, 4: 3, 5: 3}
    else:
        boost = {0: 4, 1: 3, 2: 4, 3: 3, 4: 4, 5: 3}
    for v, target in boost.items():
        while len(p.rot[v]) < target:
            p.pendant_in_biggest_face(v)
    g = p.build()
    (six,) = [f.id for f in g.faces if f.degree == 6]
    return g, six


def _seven_face(ruleset: RuleSet) -> tuple[PlaneGraph, int]:
    p = PlanePatch.from_cycle(7)
    if ruleset is RuleSet.RS46:
        # CD(v) allows normally adjacent 3-faces on a 7-face
        p.attach_face_on_edge(0, 1, 3)
        p.attach_face_on_edge(3, 4, 3)
        boost = {0: 4, 1: 4, 2: 3, 3: 4, 5: 4, 6: 3}
    else:
        boost = {0: 3, 1: 4, 2: 3, 3: 4, 4: 3, 5: 4, 6: 4}
    for v, target in boost.items():
        while len(p.rot[v]) < target:
            p.pendant_in_biggest_face(v)
    g = p.build()
    (seven,) = [f.id for f in g.faces if f.degree == 7]
    return g, seven


def _eight_face_two_triangles() -> tuple[PlaneGraph, int]:
    # two triangles joined by a cut edge; the outside is a non-simple 8-face
    p = PlanePatch({0: [1, 2], 1: [2, 0], 2: [0, 1]})
    a = p.new_vertex()
    p.rot[a] = [2]
    p.rot[2].insert(0, a)  # cut edge 2-3
    b = p.new_vertex()
    c = p.new_vertex()
    p.rot[b] = [a, c]
    p.rot[c] = [b, a]
    p.rot[a].extend([b, c])
    g = p.build()
    (eight,) = [f.id for f in g.faces if f.degree == 8]
    return g, eight


def _eight_face_cut_vertex() -> tuple[PlaneGraph, int]:
    # a triangle and a pentagon sharing one cut vertex; outside: 8-face
    p = PlanePatch.from_cycle(3)
    d, e, g_, h = (p.new_vertex() for _ in range(4))
    p.rot[d] = [2, e]
    p.rot[e] = [d, g_]
    p.rot[g_] = [e, h]
    p.rot[h] = [g_, 2]
    p.rot[2] = [0, d, h, 1]  # pentagon nested in the corner between 0 and 1
    p.add_pendant(d, after=e)   # inside the pentagon: d becomes a good 3-vertex
    p.add_pendant(g_, after=h)
    graph = p.build()
    (eight,) = [f.id for f in graph.faces if f.degree == 8]
    return graph, eight


def _nine_face() -> tuple[PlaneGraph, int]:
    p = PlanePatch.from_cycle(9)
    for (u, v) in ((0, 1), (2, 3), (4, 5), (6, 7), (8, 0)):
        p.attach_face_on_edge(u, v, 3)
    for v in (2, 4, 6, 8):
        p.pendant_in_biggest_face(v)
    g = p.build()
    (nine,) = [f.id for f in g.faces if f.degree == 9]
    return g, nine


def _ten_face() -> tuple[PlaneGraph, int]:
    p = PlanePatch.from_cycle(10)
    for (u, v) in ((0, 1), (2, 3), (4, 5), (6, 7), (8, 9)):
        p.attach_face_on_edge(u, v, 3)
    for v in (0, 2, 4, 6, 8):
        p.pendant_in_biggest_face(v)
    g = p.build()
    (ten,) = [f.id for f in g.faces if f.degree == 10]
    return g, ten


def _three_pentagon_star(bad_center: bool) -> tuple[PlaneGraph, int]:
    # center 0 with three pentagons around it
    p = PlanePatch({0: [1, 2, 3], 1: [0], 2: [0], 3: [0]})
    a, b = p.attach_path(1, 2, 2, after_at_u=0, after_at_v=0)
    c, d = p.attach_path(2, 3, 2, after_at_u=b, after_at_v=0)
    w1, w2 = p.attach_path(1, 3, 2, after_at_u=0, after_at_v=d)
    if bad_center:
        # 1 and 2 become 5-vertices; 3 stays a 3-vertex (the bad witness)
        for _ in range(2):
            p.pendant_in_biggest_face(1)
        for _ in range(2):
            p.pendant_in_biggest_face(2)
    else:
        for v in (1, 2, 3):
            p.pendant_in_biggest_face(v)
    return p.build(), 0


def _v_3face_two_sevens(bad_center: bool) -> tuple[PlaneGraph, int]:
    # v on a 3-face and two 7-faces (the RS46 3-vertex second case)
    p = PlanePatch.from_cycle(3)  # triangle [0, 1, 2]
    c = p.add_pendant(0, after=1)
    p.attach_path(c, 1, 4, after_at_u=0, after_at_v=2)
    # the second 7-face: path from 2 to c closing [(0,2),(2,..),..,(..,c),(c,0)]
    prev_c = p._prev(c, 0)
    p.attach_path(2, c, 4, after_at_u=0, after_at_v=prev_c)
    targets = {1: 5, 2: 5} if bad_center else {1: 4, 2: 4, c: 4}
    for v, target in targets.items():
        while len(p.rot[v]) < target:
            p.pendant_in_biggest_face(v)
    return p.build(), 0


def _bowtie_six_face() -> tuple[PlaneGraph, int]:
    # two triangles at a cut vertex; the non-simple 6-face outside is focal
    p = PlanePatch({0: [1, 2, 3, 4], 1: [0, 2], 2: [1, 0], 3: [0, 4], 4: [3, 0]})
    p.attach_path(0, 1, 2, after_at_u=1, after_at_v=2)   # splits triangle [0,1,2]
    p.attach_path(0, 3, 2, after_at_u=3, after_at_v=4)   # splits triangle [0,3,4]
    p.add_pendant(2, after=0)
    p.add_pendant(4, after=0)
    g = p.build()
    (six,) = [f.id for f in g.faces if f.degree == 6]
    return g, six


def build_cases() -> list[FocalCase]:
    cases: list[FocalCase] = []
    F = Fraction

    def vertex_case(name, ruleset, built, expected, **env):
        g, v = built
        check = _env_vertex(**env)
        cases.append(FocalCase(name, ruleset, g, vertex_key(v), expected,
                               lambda gr, vv=v, ck=check: ck(gr, vv)))

    def face_case(name, ruleset, built, expected, **env):
        g, fid = built
        check = _env_face(**env)
        cases.append(FocalCase(name, ruleset, g, face_key(fid), expected,
                               lambda gr, ff=fid, ck=check: ck(gr, ff)))

    # -- rule set RS48: vertex cases -----------------------------------
    vertex_case("rs48 good 3-vertex, two 6-faces", RuleSet.RS48,
                _good3_two_hexagons(), F(5, 6),
                degree=3, kind="good", face_degrees=(6, 6, 20))
    vertex_case("rs48 good 3-vertex, 3/5/8+ faces", RuleSet.RS48,
                _v_3_5_big((4, 4, 4)), F(0),
                degree=3, kind="good")
    vertex_case("rs48 good special 3-vertex", RuleSet.RS48,
                _figure1_special(good=True), F(1, 6),
                degree=3, kind="good", face_degrees=(3, 5, 6))
    vertex_case("rs48 bad 3-vertex, two 6+-faces", RuleSet.RS48,
                _bad3_two_hexagons(), F(5, 12),
                degree=3, kind="bad")
    vertex_case("rs48 bad 3-vertex, 3/5/8+ faces", RuleSet.RS48,
                _v_3_5_big((5, 5, 3)), F(0),
                degree=3, kind="bad")
    vertex_case("rs48 bad special 3-vertex", RuleSet.RS48,
                _figure1_special(good=False), F(1, 3),
                degree=3, kind="bad", face_degrees=(3, 5, 6))
    vertex_case("rs48 4-vertex untouched", RuleSet.RS48, _wheel4(), F(0), degree=4)
    vertex_case("rs48 5-vertex, four bad 3-neighbors", RuleSet.RS48,
                _five_star(4), F(0), degree=5)
    vertex_case("rs48 6-vertex, six bad 3-neighbors", RuleSet.RS48,
                _six_star_all_bad(), F(1, 2), degree=6)

    # -- rule set RS48: face cases --------------------------------------
    face_case("rs48 3-face among three 5-faces", RuleSet.RS48,
              _triangle_three_pentagons(), F(0), degree=3)
    face_case("rs48 5-face, two 3-faces, two good 3-vertices", RuleSet.RS48,
              _five_face("rs48_two_tri_two_good"), F(0),
              degree=5, triangles=2, good3=2, bad3=0)
    face_case("rs48 5-face, two 3-faces, three 3-vertices", RuleSet.RS48,
              _five_face("rs48_two_tri_three"), F(0),
              degree=5, triangles=2, good3=1, bad3=2)
    face_case("rs48 6-face, one 3-face, three good 3-vertices", RuleSet.RS48,
              _six_face(four_bad=False), F(1, 6),
              degree=6, triangles=1, good3=3, bad3=0)
    face_case("rs48 6-face, one 3-face, four bad 3-vertices", RuleSet.RS48,
              _six_face(four_bad=True), F(2, 3),
              degree=6, triangles=1, good3=0, bad3=4)
    face_case("rs48 7-face, no 3-faces, three good 3-vertices", RuleSet.RS48,
              _seven_face(RuleSet.RS48), F(3, 2),
              degree=7, triangles=0, good3=3, bad3=0)
    face_case("rs48 8-face: two 3-cycles and a cut edge", RuleSet.RS48,
              _eight_face_two_triangles(), F(5, 2),
              degree=8, triangles=2, good3=0, bad3=2)
    face_case("rs48 8-face: 3-cycle and 5-cycle at a cut vertex", RuleSet.RS48,
              _eight_face_cut_vertex(), F(2),
              degree=8, triangles=1, good3=2, bad3=0)
    face_case("rs48 9-face, five 3-faces, four good 3-vertices", RuleSet.RS48,
              _nine_face(), F(0),
              degree=9, triangles=5, good3=4, bad3=0)
    face_case("rs48 10-face, five 3-faces, five good 3-vertices", RuleSet.RS48,
              _ten_face(), F(1, 6),
              degree=10, triangles=5, good3=5, bad3=0)

    # -- rule set RS46: vertex cases ------------------------------------
    vertex_case("rs46 good 3-vertex, three 5-faces", RuleSet.RS46,
                _three_pentagon_star(bad_center=False), F(0),
                degree=3, kind="good", face_degrees=(5, 5, 5))
    vertex_case("rs46 good 3-vertex, 3-face and two 7-faces", RuleSet.RS46,
                _v_3face_two_sevens(bad_center=False), F(0),
                degree=3, kind="good", face_degrees=(3, 7, 7))
    vertex_case("rs46 bad 3-vertex, three 5-faces", RuleSet.RS46,
                _three_pentagon_star(bad_center=True), F(0),
                degree=3, kind="bad", face_degrees=(5, 5, 5))
    vertex_case("rs46 bad 3-vertex, 3-face and two 7-faces", RuleSet.RS46,
                _v_3face_two_sevens(bad_center=True), F(0),
                degree=3, kind="bad", face_degrees=(3, 7, 7))
    vertex_case("rs46 4-vertex untouched", RuleSet.RS46, _wheel4(), F(0), degree=4)
    vertex_case("rs46 5-vertex, four bad 3-neighbors", RuleSet.RS46,
                _five_star(4), F(0), degree=5)
    vertex_case("rs46 6-vertex, six bad 3-neighbors", RuleSet.RS46,
                _six_star_all_bad(), F(1, 2), degree=6)

    # -- rule set RS46: face cases --------------------------------------
    face_case("rs46 3-face among three 5-faces", RuleSet.RS46,
              _triangle_three_pentagons(), F(0), degree=3)
    face_case("rs46 5-face, two good 3-vertices", RuleSet.RS46,
              _five_face("rs46_two_good"), F(1, 3),
              degree=5, triangles=0, good3=2, bad3=0)
    face_case("rs46 5-face, three 3-vertices, two bad", RuleSet.RS46,
              _five_face("rs46_three"), F(1, 3),
              degree=5, triangles=0, good3=1, bad3=2)
    face_case("rs46 6-face: two triangles at a cut vertex, four bad", RuleSet.RS46,
              _bowtie_six_face(), F(1),
              degree=6, triangles=0, good3=0, bad3=4)
    face_case("rs46 7-face, two 3-faces, three good 3-vertices", RuleSet.RS46,
              _seven_face(RuleSet.RS46), F(5, 6),
              degree=7, triangles=2, good3=3, bad3=0)
    return cases


def _bad3_two_hexagons() -> tuple[PlaneGraph, int]:
    # as the good variant, but one neighbor stays a 3-vertex and the
    # other two become 5-vertices (the R1 payers)
    p = PlanePatch.from_cycle(6)
    chain = p.attach_path(5, 0, 4, after_at_u=0, after_at_v=1)
    for _ in range(3):
        p.pendant_in_biggest_face(1)
    for _ in range(2):
        p.pendant_in_biggest_face(5)
    p.pendant_in_biggest_face(chain[-1])
    return p.build(), 0


def beta_proof_cases() -> list[tuple[str, PlaneGraph, int]]:
    """The two 5-face patterns computed in the beta lower-bound proof;
    both must come out at exactly 1/3."""
    out = []
    for pattern in ("beta_one_tri_two_good", "beta_one_tri_three"):
        g, fid = _five_face(pattern)
        out.append((pattern, g, fid))
    return out


def beta_family() -> list[tuple[str, PlaneGraph, int]]:
    """Configurations with a genuine special 3-vertex on a 5-face.

    Varies the special vertex's class, the treatment of the far 5-face
    vertex, and harmless outer decorations; every member keeps the
    mechanized hypotheses (one adjacent 3-face and a 3-vertex pattern
    within the analysis cases), so beta must stay at least 1/3.
    """
    out = []
    for good in (False, True):
        for v3_pendants in (0, 1, 2):
            for extra in (0, 1, 2):
                g0 = generate("figure1")
                p = PlanePatch({v: list(g0.rotations[v]) for v in g0.vertices()})
                if good:
                    p.add_pendant(5, after=4)
                    p.add_pendant(1, after=7)
                    p.add_pendant(2, after=1)
                else:
                    p.add_pendant(6, after=5)
                    for _ in range(2):
                        p.add_pendant(1, after=7)
                    for _ in range(2):
                        p.add_pendant(2, after=1)
                for _ in range(v3_pendants):
                    p.pendant_in_biggest_face(3)
                for _ in range(extra):
                    p.pendant_in_biggest_face(7)
                g = p.build()
                (fid,) = [f.id for f in g.faces
                          if f.degree == 5 and f.vertex_set >= {0, 2, 3, 4, 5}]
                name = f"special-{'good' if good else 'bad'}-v3p{v3_pendants}-x{extra}"
                out.append((name, g, fid))
    return out
