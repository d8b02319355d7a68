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


@pytest.mark.parametrize("doc", [
    {}, [], (), {"": {}}, [[], {}, [[]]], {"x": ()}, (1, (2, [3])),
    {1: "int key", 2.5: "float key"}, {True: [1], False: {}}, {None: [0]}, {"k": [float("nan")]},
    [float("inf"), -float("inf"), -0.0, 1e300, 10**30],
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
