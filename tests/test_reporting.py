"""``dump_json`` writes ``json.dumps(doc, sort_keys=True)``: one ASCII
line, keys sorted.  Every JSON file the command line writes is that text
of what it holds."""

import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dpcharge import cli
from dpcharge.catalog import DEFAULT_CATALOG, generate
from dpcharge.discharge import RuleSet, run_rules
from dpcharge.reporting import dump_json, frac_str, ledger_to_json


def stdlib(doc) -> str:
    return json.dumps(doc, sort_keys=True)


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


@given(VALUES | deep())
@settings(max_examples=500, deadline=None)
def test_dump_json_matches_stdlib(doc):
    text = dump_json(doc)
    assert text == stdlib(doc) and text.isascii() and "\n" not in text


# keys and strings that read like JSON punctuation, beside nested lists,
# tuples and non-str keys
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
def test_catalog_documents_match_stdlib(name, tmp_path):
    g = str(tmp_path / "g.pg")
    assert cli.cli_dispatch(["gen", name, "-o", g]) == 0
    out = lambda stem: str(tmp_path / f"{stem}.json")  # noqa: E731
    for profile, rules in (("no48", "rs48"), ("no46", "rs46")):
        cli.cli_dispatch(["structure", g, "--profile", profile, "--json", out(profile)])
        cli.cli_dispatch(["discharge", g, "--rules", rules, "--json", out(rules)])
        # with k = 1 every seed a hunt runs leaves a candidate cover
        cli.cli_dispatch(["hunt", g, "--profile", profile, "--k", "1", "--seeds", "0..1",
                          "--json", out(f"hunt-{profile}"),
                          "--save-dir", str(tmp_path / f"saved-{profile}")])
    cli.cli_dispatch(["solve", g, "--mode", "ba", "--k", "5", "--json", out("ba")])
    cli.cli_dispatch(["solve", g, "--mode", "defect", "--defects", "0,9,9", "--json", out("defect")])
    reports = sorted(tmp_path.glob("*.json"))
    saved = sorted(tmp_path.glob("saved-*/*.json"))
    hunts = [json.loads((tmp_path / f"hunt-{p}.json").read_text()) for p in ("no48", "no46")]
    embedded = [c["cover"] for doc in hunts for c in doc["candidates"]]
    assert len(reports) == 8
    assert len(saved) == len(embedded) == 2 * sum(not doc["skipped"] for doc in hunts)
    for text in [f.read_text(encoding="utf-8") for f in reports + saved] + embedded:
        assert text == stdlib(json.loads(text)) and text.isascii() and "\n" not in text


@pytest.mark.parametrize("value,text", [
    (Fraction(-7, 12), "-7/12"), (Fraction(-3), "-3"), (Fraction(0), "0"), (0, "0"),
    (5, "5"), (-8, "-8"), (Fraction(12, 4), "3"), (Fraction(10, 4), "5/2"),
    (Fraction(1, 12), "1/12"),
])
def test_frac_str(value, text):
    assert frac_str(value) == text
