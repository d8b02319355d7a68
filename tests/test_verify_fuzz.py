"""Fuzz target for the transversal document that ``verify`` reads.

Real ``solve --json`` outputs, one B_A and one defective, are mutated at
any depth: a key or list entry is dropped, a value is retyped, or a value
is replaced by an arbitrary JSON value.  ``verify`` then runs on the
result with each combination of flags.  Only the documented exit codes
may appear (0 pass, 1 violation, 2 input error), never a traceback, and a
verdict (0 or 1) is given only on a document whose cover loads and passes
``validate_cover``, with k of at least 1.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from dpcharge.cli import cli_dispatch
from dpcharge.cover import cover_from_doc, validate_cover
from dpcharge.rotfile import load_rotation_file

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5) | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids,
                                                              max_size=3),
    max_leaves=8)
RETYPES = (str, lambda v: [v], lambda v: {"0": v}, lambda v: None, lambda v: True,
           lambda v: 1.5, lambda v: -1, lambda v: 0)
FLAGS = ([], ["--order"], ["--defects", "0,2,2"], ["--order", "--defects", "0,2,2"])


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    """The graph file, the two recorded documents and a path for the mutated one."""
    d = tmp_path_factory.mktemp("verify-fuzz")
    g_path = d / "k4.pg"
    assert cli_dispatch(["gen", "k4", "-o", str(g_path)]) == 0
    docs = {}
    for mode, extra in (("ba", []), ("defect", ["--defects", "0,2,2"])):
        out = d / f"{mode}.json"
        sink = io.StringIO()
        with redirect_stdout(sink):
            assert cli_dispatch(["solve", str(g_path), "--mode", mode, *extra,
                                 "--cover", "random", "--seed", "3", "--full",
                                 "--json", str(out)]) == 0
        docs[mode] = out.read_text()
    return g_path, docs, d / "t.json"


def _paths(node, path=()):
    """Every position in a JSON document, the root included."""
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, path + (key,))


def _mutate(doc, data):
    path = data.draw(st.sampled_from(list(_paths(doc))))
    op = data.draw(st.sampled_from(["drop", "retype", "replace"]))
    if not path:
        return data.draw(JSON_VALUES) if op == "replace" else doc
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if op == "drop":
        del parent[key]
    elif op == "retype":
        parent[key] = data.draw(st.sampled_from(RETYPES))(parent[key])
    else:
        parent[key] = data.draw(JSON_VALUES)
    return doc


def _check_verify(g_path, t_path, doc, flags) -> None:
    t_path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_dispatch(["verify", str(g_path), "--transversal", str(t_path), *flags])
    assert code in (0, 1, 2)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ") and not out.getvalue()
        return
    cover = cover_from_doc(doc["cover"], graph=load_rotation_file(str(g_path))[0])
    assert cover.k >= 1
    assert validate_cover(cover) == ()


@given(data=st.data())
@settings(max_examples=400, deadline=None)
def test_fuzz_mutated_transversal_documents(data, solved):
    g_path, docs, t_path = solved
    doc = json.loads(docs[data.draw(st.sampled_from(sorted(docs)))])
    for _ in range(data.draw(st.integers(1, 3))):
        doc = _mutate(doc, data)
    _check_verify(g_path, t_path, doc, data.draw(st.sampled_from(FLAGS)))


@pytest.mark.parametrize("flags", FLAGS[:3], ids=["none", "order", "defects"])
@pytest.mark.parametrize("mode", ["ba", "defect"])
def test_unmutated_documents_get_a_verdict(solved, mode, flags):
    g_path, docs, t_path = solved
    _check_verify(g_path, t_path, json.loads(docs[mode]), flags)
