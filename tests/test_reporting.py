"""``dump_json`` writes exactly the bytes of the stdlib's indented writer."""

import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dpcharge import cli
from dpcharge.catalog import DEFAULT_CATALOG, generate
from dpcharge.cover import cover_doc, identity_cover, random_cover
from dpcharge.discharge import RuleSet, run_rules
from dpcharge.reporting import dump_json, frac_str, ledger_to_json


def stdlib(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=1)


# strings built from the characters an encoder must get right: JSON
# punctuation, escapes, control characters and non-ASCII text
TRICKY = st.text(st.sampled_from('{}[]",:\\ \n\r\t\x00\x1f\x7f/é€ 😀ab01'), max_size=8)
STRINGS = TRICKY | st.text(max_size=6)
SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(-3, 5)
           | st.floats() | STRINGS)
VALUES = st.recursive(
    SCALARS,
    lambda kids: st.lists(kids, max_size=5) | st.dictionaries(STRINGS, kids, max_size=5),
    max_leaves=30)


@st.composite
def deep(draw):
    """A value wrapped in up to 60 single-child lists and objects."""
    value = draw(VALUES)
    for wrap in draw(st.lists(st.booleans(), max_size=60)):
        value = {draw(STRINGS): value} if wrap else [value]
    return value


@st.composite
def shared(draw):
    """One object reached several times, at equal and at different depths."""
    inner = draw(VALUES)
    return {"a": inner, "b": [inner, {"c": inner}], "d": [[inner], inner],
            "e": draw(st.lists(st.just(inner), max_size=3))}


@given(VALUES | deep() | shared())
@settings(max_examples=500, deadline=None)
def test_dump_json_matches_stdlib(doc):
    assert dump_json(doc) == stdlib(doc)


# -- the shapes that the writer encodes in one call or as records ---------

# fragments of the text between two containers, so a string can look like
# a join or an opener
JOINS = st.lists(st.sampled_from(['": [', '": {', ': [', ': {', '},', '],', '}, {', '"', '\\',
                                  ',\n ', ' ', '[', '{', 'a', '": [[', ']],', '\\"', '[]']),
                 max_size=5).map("".join)
KEYS = STRINGS | JOINS
FLAT_SCALARS = st.none() | st.booleans() | st.integers(-3, 5) | st.floats() | STRINGS | JOINS
FLAT_LIST = st.lists(FLAT_SCALARS, min_size=1, max_size=4)
FLAT_DICT = st.dictionaries(KEYS, FLAT_SCALARS, min_size=1, max_size=4)
FLAT = FLAT_LIST | FLAT_DICT | FLAT_LIST.map(tuple)
# lists of flat lists or tuples, written in one call one level further
# down; LOOSE breaks that shape the ways the writer must notice: scalars,
# deeper or empty lists and objects among the flat lists
NESTED = st.lists(FLAT_LIST | FLAT_LIST.map(tuple), min_size=1, max_size=4)
LOOSE = st.lists(FLAT_LIST | FLAT_SCALARS | NESTED | st.just([]) | st.lists(FLAT_DICT, max_size=2),
                 min_size=1, max_size=4)
ONE_KIND = (st.lists(FLAT_LIST, min_size=1, max_size=5)
            | st.lists(FLAT_DICT, min_size=1, max_size=5)
            | st.dictionaries(KEYS, FLAT_LIST, min_size=1, max_size=5)
            | st.dictionaries(KEYS, FLAT_DICT, min_size=1, max_size=5)
            | st.lists(NESTED | NESTED.map(tuple), min_size=1, max_size=4)
            | st.dictionaries(KEYS, NESTED | NESTED.map(tuple), min_size=1, max_size=4)
            | st.lists(NESTED | LOOSE, min_size=1, max_size=4)
            | st.dictionaries(KEYS, NESTED | LOOSE, min_size=1, max_size=4))


@st.composite
def records(draw):
    """Objects with one key set, whose values mix scalars, flat and nested
    containers, and objects drawn earlier: records shared within a list,
    across lists, and at different depths."""
    keys = draw(st.lists(KEYS, min_size=1, max_size=4, unique=True))
    pool: list = []
    values = FLAT_SCALARS | FLAT | ONE_KIND | st.lists(FLAT, max_size=2)

    def record():
        rec = {k: draw(values | st.sampled_from(pool) if pool else values) for k in keys}
        pool.append(rec)
        return rec

    lists = [[record() for _ in range(draw(st.integers(1, 4)))] for _ in range(3)]
    for lst in lists:  # repeats within a list and across lists
        lst += draw(st.lists(st.sampled_from(pool), max_size=3))
    return {"a": lists[0], "b": [lists[1], {"c": lists[2]}], "d": pool[0],
            "e": [[pool[-1]], lists[0]]}


@given(ONE_KIND | FLAT | records() | st.lists(ONE_KIND, max_size=3)
       | st.dictionaries(KEYS, ONE_KIND, max_size=3))
@settings(max_examples=1500, deadline=None)
def test_dump_json_shapes_match_stdlib(doc):
    assert dump_json(doc) == stdlib(doc)


@pytest.mark.parametrize("doc", [
    {'": [': [1, 2]}, {"a": [1], ': [': [2]}, {"k": ['": [x', 1]}, {"k": [": [x"]},
    {"x": {"a": ": {"}, "y": {"b": 1}}, {'": {': {"a": 1}}, [{"a": '}, {'}, {"a": "},"}],
    [["],", "\\"], ["[", "]"]], [{1: [0]}, {True: [1]}], [{1.0: [0]}, {1: [1]}],
    [{"a": [1]}, {"b": [2]}], [{"a": [1], "b": {}}, {"b": {}, "a": []}], [(1, 2), [3]],
    {"k": ({"a": [1]}, {"a": [2]})}, [{"a": 1}, {}], [[1], []], {"a": [1], "b": []},
    {"a": [[1, 2], 3, [[4]]]}, [[[1, 2], 3, [[4]]]], [["["], [[1]]], {"[": [5], "b": [[1]]},
    {"a": [[], [1]]}, [[[1]], [[]]], {"a": [[{"b": 1}]]}, {"a": [[[1]]]}, {"k": ((1, 2), (3, 4))},
    {'": [[': [[1]]}, {"a": [['": [[']]}, {'a"': [[1]], "b": [[2]]}, {"]],": [[1]], "b": [[2]]},
], ids=repr)
def test_dump_json_shape_edges(doc):
    assert dump_json(doc) == stdlib(doc)


@pytest.mark.parametrize("name", ["cycle:40", "theta:4,5,6", "dodecahedron"])
@pytest.mark.parametrize("rules", list(RuleSet))
def test_ledger_documents_match_stdlib(name, rules):
    doc = ledger_to_json(run_rules(generate(name), rules))
    assert dump_json(doc) == stdlib(doc)


SHARED = {"name": "x", "items": [1, [2]]}


@pytest.mark.parametrize("doc", [
    {}, [], (), {"": {}}, [[], {}, [[]]], {"x": ()}, (1, (2, [3])),
    {1: "int key", 2.5: "float key"}, {True: [1], False: {}}, {None: [0]}, {"k": [float("nan")]},
    [float("inf"), -float("inf"), -0.0, 1e300, 10**30],
    pytest.param({"a": [SHARED] * 2, "b": [[SHARED] * 2]}, id="one record at depths 2 and 3"),
], ids=repr)
def test_dump_json_edge_values(doc):
    assert dump_json(doc) == stdlib(doc)


def _stable_id(doc) -> str:
    """``repr`` with object addresses dropped, so case names are the same every run."""
    return re.sub(r" at 0x[0-9a-f]+>", ">", repr(doc))


@pytest.mark.parametrize("doc", [
    {"x": object()}, [object(), [1]], {(1, 2): 3}, {(1, 2): [3]}, {1: "a", "b": [2]},
    {"f": Fraction(1, 2)},
], ids=_stable_id)
def test_dump_json_rejects_what_the_stdlib_rejects(doc):
    with pytest.raises(TypeError) as ours:
        dump_json(doc)
    with pytest.raises(TypeError) as theirs:
        stdlib(doc)
    assert str(ours.value) == str(theirs.value)


@pytest.mark.parametrize("name", DEFAULT_CATALOG)
def test_catalog_documents_match_stdlib(name, tmp_path, monkeypatch):
    g = generate(name)
    written = []
    monkeypatch.setattr(cli, "dump_json", lambda doc: written.append(doc) or dump_json(doc))
    path = tmp_path / "g.pg"
    assert cli.cli_dispatch(["gen", name, "-o", str(path)]) == 0
    for profile, rules in (("no48", "rs48"), ("no46", "rs46")):
        out = str(tmp_path / "out.json")
        cli.cli_dispatch(["structure", str(path), "--profile", profile, "--json", out])
        if g.is_connected:
            cli.cli_dispatch(["discharge", str(path), "--rules", rules, "--json", out])
            written.append(ledger_to_json(run_rules(g, RuleSet(rules))))
    written += [cover_doc(identity_cover(g, 3))]
    written += [cover_doc(random_cover(g, 3, seed, full))
                for seed in (0, 1) for full in (False, True)]
    assert len(written) == 2 + 4 * g.is_connected + 5
    for doc in written:
        assert dump_json(doc) == stdlib(doc)


@pytest.mark.parametrize("value,text", [
    (Fraction(-7, 12), "-7/12"), (Fraction(-3), "-3"), (Fraction(0), "0"), (0, "0"),
    (5, "5"), (-8, "-8"), (Fraction(12, 4), "3"), (Fraction(10, 4), "5/2"),
    (Fraction(1, 12), "1/12"),
])
def test_frac_str(value, text):
    assert frac_str(value) == text
