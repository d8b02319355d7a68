import json

import pytest

from dpcharge.catalog import generate
from dpcharge.cli import cli_dispatch
from dpcharge.cover import cover_doc, identity_cover
from dpcharge.rotfile import graph_hash, serialize_rotation_file

from test_solver import paper_cover


@pytest.fixture
def figure1_file(tmp_path):
    path = tmp_path / "f.pg"
    assert cli_dispatch(["gen", "figure1", "-o", str(path)]) == 0
    return str(path)


def test_gen_and_faces(figure1_file, capsys):
    assert cli_dispatch(["faces", figure1_file]) == 0
    out = capsys.readouterr().out
    assert out.count("face ") == 5
    assert "F=5" in out


def test_gen_unknown_name(tmp_path):
    assert cli_dispatch(["gen", "nonesuch", "-o", str(tmp_path / "x.pg")]) == 2


@pytest.mark.parametrize("argv", [["gen", "nosuch", "-o", "x.pg"],
                                  ["hunt", "nosuch", "--profile", "no48"]],
                         ids=["gen", "hunt"])
def test_unknown_catalog_name_message(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert cli_dispatch(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: unknown catalog graph 'nosuch'\n")
    assert not (tmp_path / "x.pg").exists()


def test_missing_file_is_usage_error():
    assert cli_dispatch(["faces", "/no/such/file.pg"]) == 2


def test_bad_arguments_usage_error():
    assert cli_dispatch(["structure"]) == 2
    assert cli_dispatch(["bogus-command"]) == 2


def test_structure_output(figure1_file, capsys):
    assert cli_dispatch(["structure", figure1_file, "--profile", "no48"]) == 0
    out = capsys.readouterr().out
    assert "4-cycle-free: True" in out
    assert "special" in out
    assert "hypothesis-not-met" in out  # delta < 3 items


def test_discharge_negative_exit(figure1_file, tmp_path, capsys):
    out_json = tmp_path / "ledger.json"
    code = cli_dispatch(["discharge", figure1_file, "--rules", "rs48",
                         "--json", str(out_json)])
    assert code == 1  # hypothesis-violating graph keeps negative elements
    doc = json.loads(out_json.read_text())
    assert doc["audit"]["sum_initial"] == "-8"
    assert doc["audit"]["conservation_ok"] is True
    assert doc["transfers"]


@pytest.mark.parametrize("text", [
    "planegraph two\nn 4\nv 0: 1\nv 1: 0\nv 2: 3\nv 3: 2\n",
    "planegraph empty\nn 0\n",  # no vertices: no component, so not connected
], ids=["two-components", "no-vertices"])
def test_discharge_rejects_disconnected(text, tmp_path, capsys):
    path = tmp_path / "g.pg"
    path.write_text(text)
    assert cli_dispatch(["discharge", str(path), "--rules", "rs46"]) == 2
    assert "requires a connected graph" in capsys.readouterr().err


@pytest.mark.parametrize("mode", [["--mode", "defect", "--defects", "0,2,2"], ["--mode", "ba"]],
                         ids=["defect", "ba"])
def test_solve_without_vertices_finds_the_empty_transversal(mode, tmp_path, capsys):
    path = tmp_path / "empty.pg"
    path.write_text("planegraph empty\nn 0\n")
    assert cli_dispatch(["solve", str(path), "--k", "3", "--cover", "identity"] + mode) == 0
    assert "found (0 nodes)" in capsys.readouterr().out


def test_solve_defect_k4(tmp_path, capsys):
    path = tmp_path / "k4.pg"
    assert cli_dispatch(["gen", "k4", "-o", str(path)]) == 0
    code = cli_dispatch(["solve", str(path), "--mode", "defect", "--k", "3",
                         "--defects", "0,2,2", "--cover", "identity"])
    assert code == 0
    assert "coloring:" in capsys.readouterr().out


def test_solve_ba_random_cover_with_output(tmp_path, capsys):
    g_path = tmp_path / "c5.pg"
    t_path = tmp_path / "t.json"
    cli_dispatch(["gen", "cycle:5", "-o", str(g_path)])
    code = cli_dispatch(["solve", str(g_path), "--mode", "ba", "--k", "3",
                         "--cover", "random", "--seed", "11", "--full",
                         "--json", str(t_path)])
    assert code == 0
    doc = json.loads(t_path.read_text())
    assert "order" in doc and len(doc["assignment"]) == 5
    # the verify command must accept what solve recorded
    assert cli_dispatch(["verify", str(g_path), "--transversal", str(t_path),
                         "--order"]) == 0


def test_solve_json_cover_records_the_cover_k(tmp_path):
    # with --cover json the cover file sets k, whatever --k says
    g_path, c_path, t_path = tmp_path / "k4.pg", tmp_path / "c.json", tmp_path / "t.json"
    assert cli_dispatch(["gen", "k4", "-o", str(g_path)]) == 0
    c_path.write_text(json.dumps(cover_doc(identity_cover(generate("k4"), 5))))
    assert cli_dispatch(["solve", str(g_path), "--mode", "ba", "--cover", "json",
                         "--cover-json", str(c_path), "--json", str(t_path)]) == 0
    doc = json.loads(t_path.read_text())
    assert doc["k"] == doc["cover"]["k"] == 5
    assert cli_dispatch(["verify", str(g_path), "--transversal", str(t_path)]) == 0


def test_solve_exhausted_exit(tmp_path):
    path = tmp_path / "d.pg"
    cli_dispatch(["gen", "dodecahedron", "-o", str(path)])
    code = cli_dispatch(["solve", str(path), "--mode", "defect", "--k", "3",
                         "--defects", "0,0,0", "--cover", "identity",
                         "--limit", "3"])
    assert code == 3


def test_verify_paper_cover_rejects(tmp_path, capsys):
    cover = paper_cover()
    g_path = tmp_path / "p3.pg"
    g_path.write_text(serialize_rotation_file(cover.graph, "p3"))
    t_path = tmp_path / "t.json"
    doc = {
        "graph_hash": graph_hash(cover.graph, "p3"),
        "mode": "ba",
        "k": 1,
        "assignment": {"0": 1, "1": 2, "2": 1},
        "order": [[0, 1], [2, 1], [1, 2]],
        "cover": cover_doc(cover),
    }
    t_path.write_text(json.dumps(doc))
    code = cli_dispatch(["verify", str(g_path), "--transversal", str(t_path),
                         "--order"])
    assert code == 1
    out = capsys.readouterr().out
    assert "condition (" in out


def test_verify_defects(tmp_path, capsys):
    g_path = tmp_path / "k3.pg"
    cli_dispatch(["gen", "triangle", "-o", str(g_path)])
    t_path = tmp_path / "t.json"
    cli_dispatch(["solve", str(g_path), "--mode", "defect", "--k", "3",
                  "--defects", "0,0,0", "--cover", "identity",
                  "--json", str(t_path)])
    assert cli_dispatch(["verify", str(g_path), "--transversal", str(t_path)]) == 0


def test_hunt_cli(tmp_path, capsys):
    report = tmp_path / "hunt.json"
    code = cli_dispatch(["hunt", "cycle:5", "cube", "--profile", "no46",
                         "--k", "3", "--seeds", "0..4", "--json", str(report)])
    assert code == 0
    out = capsys.readouterr().out
    assert "skipped cube" in out
    doc = json.loads(report.read_text())
    assert doc["found"] == 5 and not doc["candidates"]


def test_version(capsys):
    code = cli_dispatch(["--version"])
    assert code == 0


@pytest.mark.parametrize("seeds", ["9..3", "5..4"])
def test_hunt_empty_seed_range_is_usage_error(seeds, capsys):
    assert cli_dispatch(["hunt", "cycle:5", "--profile", "no46", "--seeds", seeds]) == 2
    assert "empty seed range" in capsys.readouterr().err


@pytest.mark.parametrize("limit", ["0", "-5"])
@pytest.mark.parametrize("command", ["solve", "hunt"])
def test_limit_below_one_is_usage_error(command, limit, tmp_path, capsys):
    g_path = tmp_path / "k4.pg"
    assert cli_dispatch(["gen", "k4", "-o", str(g_path)]) == 0
    args = (["solve", str(g_path), "--mode", "ba"] if command == "solve"
            else ["hunt", "cycle:5", "--profile", "no46"])
    capsys.readouterr()
    assert cli_dispatch(args + ["--limit", limit]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --limit must be at least 1, got {limit}\n"
    assert captured.out == ""


@pytest.mark.parametrize("k", ["0", "65", str(10**30)])
@pytest.mark.parametrize("command", ["solve", "hunt"])
def test_k_outside_its_range_is_usage_error(command, k, tmp_path, capsys):
    # a k past the range sized a cover by it: 10**30 escaped as an
    # OverflowError, and k = 10**8 would build lists of 10**8 colors
    g_path = tmp_path / "k4.pg"
    assert cli_dispatch(["gen", "k4", "-o", str(g_path)]) == 0
    args = (["solve", str(g_path), "--mode", "ba"] if command == "solve"
            else ["hunt", "cycle:5", "--profile", "no46", "--seeds", "0..0"])
    capsys.readouterr()
    assert cli_dispatch(args + ["--k", k]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --k must be between 1 and 64, got {k}\n"
    assert captured.out == ""


def test_k_at_its_maximum_is_accepted(tmp_path):
    g_path = tmp_path / "k4.pg"
    assert cli_dispatch(["gen", "k4", "-o", str(g_path)]) == 0
    assert cli_dispatch(["solve", str(g_path), "--mode", "ba", "--k", "64"]) == 0


def _solved_transversal(tmp_path, graph_name):
    g_path = tmp_path / "solved.pg"
    t_path = tmp_path / "t.json"
    assert cli_dispatch(["gen", graph_name, "-o", str(g_path)]) == 0
    assert cli_dispatch(["solve", str(g_path), "--mode", "ba", "--cover", "random",
                         "--seed", "3", "--full", "--json", str(t_path)]) == 0
    return t_path


def test_verify_against_other_graph_is_usage_error(tmp_path, capsys):
    t_path = _solved_transversal(tmp_path, "cycle:5")
    other = tmp_path / "other.pg"
    assert cli_dispatch(["gen", "triangle", "-o", str(other)]) == 0
    capsys.readouterr()
    assert cli_dispatch(["verify", str(other), "--transversal", str(t_path)]) == 2
    assert "graph hash" in capsys.readouterr().err


@pytest.mark.parametrize("missing", ["cover", "assignment", "graph_hash"])
def test_verify_missing_key_is_usage_error(tmp_path, capsys, missing):
    t_path = _solved_transversal(tmp_path, "cycle:5")
    doc = json.loads(t_path.read_text())
    del doc[missing]
    t_path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = cli_dispatch(["verify", str(tmp_path / "solved.pg"), "--transversal", str(t_path)])
    assert code == 2
    assert f"no '{missing}'" in capsys.readouterr().err


def _colour_nine_pair(cover):
    pairs = cover["matchings"]["0-1"]
    pairs[0] = [9, pairs[0][1]]


def _one_colour_list(cover):
    cover["lists"]["0"] = cover["lists"]["0"][:1]


def _node_matched_twice(cover):
    pairs = cover["matchings"]["0-1"]
    pairs[1] = [pairs[0][0], pairs[1][1]]


@pytest.mark.parametrize("edit,violation", [
    (_colour_nine_pair, "color 9 not in list of 0"),
    (_one_colour_list, "vertex 0: list size 1 < k=3"),
    (_node_matched_twice, "matched twice"),
], ids=["colour-9-pair", "one-colour-list", "node-matched-twice"])
def test_verify_invalid_cover_is_usage_error(tmp_path, capsys, edit, violation):
    t_path = _solved_transversal(tmp_path, "cycle:5")
    doc = json.loads(t_path.read_text())
    edit(doc["cover"])
    t_path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = cli_dispatch(["verify", str(tmp_path / "solved.pg"), "--transversal", str(t_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "invalid cover" in err and violation in err


def test_verify_reports_an_invalid_cover_before_a_malformed_assignment(tmp_path, capsys):
    t_path = _solved_transversal(tmp_path, "cycle:5")
    doc = json.loads(t_path.read_text())
    doc["cover"]["k"] = 0
    doc["assignment"] = []
    t_path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = cli_dispatch(["verify", str(tmp_path / "solved.pg"), "--transversal", str(t_path)])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert captured.err == "error: invalid cover: k must be at least 1, got 0\n"


@pytest.mark.parametrize("k", [0, -1])
@pytest.mark.parametrize("flag", [["--order"], ["--defects", "0,2,2"]], ids=["order", "defects"])
def test_verify_rejects_k_below_one(tmp_path, capsys, k, flag):
    # the lists still hold k4's three colours, so only k itself is wrong
    t_path = _solved_transversal(tmp_path, "k4")
    doc = json.loads(t_path.read_text())
    doc["cover"]["k"] = k
    t_path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = cli_dispatch(["verify", str(tmp_path / "solved.pg"), "--transversal", str(t_path)]
                        + flag)
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert captured.err == f"error: invalid cover: k must be at least 1, got {k}\n"


def _defect_budgets_not_a_list(doc):
    del doc["order"]
    doc["defects"] = 5


def _order_colour_a_list(doc):
    doc["order"][0][1] = [1]


@pytest.mark.parametrize("edit,message", [
    (_defect_budgets_not_a_list, "defects must be a list"),
    (_order_colour_a_list, "order entries and defects must be integers"),
], ids=["defects-int", "order-colour-list"])
def test_malformed_transversal_is_usage_error(tmp_path, capsys, edit, message):
    t_path = _solved_transversal(tmp_path, "k4")
    doc = json.loads(t_path.read_text())
    edit(doc)
    t_path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = cli_dispatch(["verify", str(tmp_path / "solved.pg"), "--transversal", str(t_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed transversal") and message in err


@pytest.mark.parametrize("defects", ["absent", "empty"])
def test_verify_with_nothing_to_check_is_usage_error(tmp_path, capsys, defects):
    g_path, t_path = tmp_path / "k4.pg", tmp_path / "t.json"
    assert cli_dispatch(["gen", "k4", "-o", str(g_path)]) == 0
    assert cli_dispatch(["solve", str(g_path), "--mode", "defect", "--defects", "0,2,2",
                         "--json", str(t_path)]) == 0
    doc = json.loads(t_path.read_text())
    assert "order" not in doc
    if defects == "absent":
        del doc["defects"]
    else:
        doc["defects"] = []
    t_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli_dispatch(["verify", str(g_path), "--transversal", str(t_path)]) == 2
    captured = capsys.readouterr()
    assert "nothing to verify" in captured.err and not captured.out
    # an explicit check still runs
    assert cli_dispatch(["verify", str(g_path), "--transversal", str(t_path),
                         "--defects", "0,2,2"]) == 0


@pytest.mark.parametrize("source", ["flag", "recorded"])
@pytest.mark.parametrize("budgets", ["0,0,0,0,7", "0,0,0"], ids=["long", "short"])
def test_verify_rejects_a_defect_vector_whose_length_is_not_k(tmp_path, capsys, source,
                                                              budgets):
    g_path, t_path = tmp_path / "k4.pg", tmp_path / "t.json"
    assert cli_dispatch(["gen", "k4", "-o", str(g_path)]) == 0
    assert cli_dispatch(["solve", str(g_path), "--mode", "defect", "--k", "4",
                         "--defects", "0,0,0,0", "--json", str(t_path)]) == 0
    verify = ["verify", str(g_path), "--transversal", str(t_path)]
    if source == "flag":
        verify += ["--defects", budgets]
    else:
        doc = json.loads(t_path.read_text())
        doc["defects"] = [int(b) for b in budgets.split(",")]
        t_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli_dispatch(verify) == 2
    n = budgets.count(",") + 1
    message = f"error: defect vector length {n} != k=4\n"
    assert capsys.readouterr() == ("", message)
    # solve gives the same vector the same answer
    assert cli_dispatch(["solve", str(g_path), "--mode", "defect", "--k", "4",
                         "--defects", budgets]) == 2
    assert capsys.readouterr() == ("", message)


def test_verify_runs_every_check_asked_for(tmp_path, capsys):
    g_path, t_path = tmp_path / "k4.pg", tmp_path / "t.json"
    assert cli_dispatch(["gen", "k4", "-o", str(g_path)]) == 0
    assert cli_dispatch(["solve", str(g_path), "--mode", "ba", "--json", str(t_path)]) == 0
    verify = ["verify", str(g_path), "--transversal", str(t_path)]
    capsys.readouterr()
    assert cli_dispatch(verify + ["--order"]) == 0
    assert cli_dispatch(verify + ["--defects", "0,0,0"]) == 1
    capsys.readouterr()
    # the order passes, the budgets do not: both are checked, and it fails
    assert cli_dispatch(verify + ["--order", "--defects", "0,0,0"]) == 1
    out = capsys.readouterr().out
    assert "order conditions pass" in out and "> budget 0" in out


@pytest.mark.parametrize("argv", [
    ["gen", "k4", "-o", "{tmp}/missing/k4.pg"],
    ["discharge", "{tmp}/k4.pg", "--rules", "rs48", "--json", "{tmp}/missing/x.json"],
    ["faces", "{tmp}"],
], ids=["gen-into-missing-dir", "discharge-json-into-missing-dir", "faces-of-a-directory"])
def test_file_errors_are_usage_errors(tmp_path, capsys, argv):
    assert cli_dispatch(["gen", "k4", "-o", str(tmp_path / "k4.pg")]) == 0
    capsys.readouterr()
    assert cli_dispatch([a.format(tmp=tmp_path) for a in argv]) == 2
    captured = capsys.readouterr()
    assert any(line.startswith("error: ") for line in captured.err.splitlines())
    assert "Traceback" not in captured.out + captured.err


# Graphs past the interpreter's default recursion depth (about 1000 frames):
# both searches must run on an explicit stack.


@pytest.fixture(scope="module")
def long_cycle(tmp_path_factory):
    path = tmp_path_factory.mktemp("long") / "c1500.pg"
    assert cli_dispatch(["gen", "cycle:1500", "-o", str(path)]) == 0
    return path


def test_solve_ba_long_cycle(long_cycle, tmp_path):
    t_path = tmp_path / "t.json"
    assert cli_dispatch(["solve", str(long_cycle), "--mode", "ba", "--k", "3",
                         "--cover", "random", "--seed", "1", "--full",
                         "--json", str(t_path)]) == 0
    assert cli_dispatch(["verify", str(long_cycle), "--transversal", str(t_path),
                         "--order"]) == 0


def test_solve_defect_long_cycle(long_cycle, tmp_path):
    t_path = tmp_path / "t.json"
    assert cli_dispatch(["solve", str(long_cycle), "--mode", "defect", "--defects", "0,2,2",
                         "--k", "3", "--cover", "random", "--seed", "1", "--full",
                         "--json", str(t_path)]) == 0
    assert cli_dispatch(["verify", str(long_cycle), "--transversal", str(t_path)]) == 0


def test_hunt_long_cycle(long_cycle, capsys):
    assert cli_dispatch(["hunt", str(long_cycle), "--profile", "no48",
                         "--seeds", "0..1"]) == 0
    assert "found: 2;" in capsys.readouterr().out


# A malformed or non-canonical cover is an input error: exit 2, a message,
# no traceback.  Each case edits the cover of a solved triangle transversal
# and hands it to solve (as --cover-json) or to verify (inside the file).


def _with(d, key, value):
    return {**d, key: value}


def _without(d, key):
    return {k: v for k, v in d.items() if k != key}


def _matching(d, key, pairs):
    return {**d, "matchings": {**d["matchings"], key: pairs}}


def _reversed_key(d):
    m = dict(d["matchings"])
    m["1-0"] = m.pop("0-1")
    return {**d, "matchings": m}


@pytest.mark.parametrize("command,edit,message", [
    ("solve", None, "cannot read cover"),
    ("solve", "{", "Expecting property name"),
    ("solve", lambda d: [d], "must be an object"),
    ("solve", lambda d: _without(d, "k"), "must be an object with k, lists and matchings"),
    ("solve", lambda d: _without(d, "lists"), "must be an object with k, lists"),
    ("solve", lambda d: _without(d, "matchings"), "must be an object with k, lists"),
    ("solve", lambda d: _with(d, "lists", [[1, 2, 3]] * 3), "malformed lists"),
    ("solve", lambda d: _matching(d, "0-x", []), "not 'u-v'"),
    ("solve", lambda d: _matching(d, "0-1", 5), "not iterable"),
    ("solve", lambda d: _matching(d, "0-1", [[1]]), "not enough values to unpack"),
    ("solve", lambda d: _matching(d, "0-1", [[1, 1.5]]), "every color must be integers"),
    ("solve", _reversed_key, "key not canonical"),
    ("solve", lambda d: _matching(d, "1-0", [[2, 1]]), "key not canonical"),
    ("verify", lambda d: _with(d, "lists", {**d["lists"], "0": [1, 2, "x"]}),
     "every color must be integers"),
    ("verify", lambda d: _with(d, "k", "3"), "k and every color must be integers"),
    ("verify", _reversed_key, "key not canonical"),
], ids=["missing-file", "not-json", "not-an-object", "no-k", "no-lists", "no-matchings",
        "lists-not-an-object", "key-not-int-int", "matching-not-a-list", "pair-of-one",
        "float-colour", "solve-reversed-key", "solve-key-and-reversed-key",
        "verify-string-colour", "verify-string-k", "verify-reversed-key"])
def test_malformed_cover_is_usage_error(tmp_path, capsys, command, edit, message):
    g_path, t_path = tmp_path / "k3.pg", tmp_path / "t.json"
    assert cli_dispatch(["gen", "triangle", "-o", str(g_path)]) == 0
    assert cli_dispatch(["solve", str(g_path), "--mode", "ba", "--cover", "identity",
                         "--json", str(t_path)]) == 0
    doc = json.loads(t_path.read_text())
    if command == "verify":
        doc["cover"] = edit(doc["cover"])
        t_path.write_text(json.dumps(doc))
        argv = ["verify", str(g_path), "--transversal", str(t_path)]
    else:
        c_path = tmp_path / "cover.json"
        if edit is not None:
            c_path.write_text(edit if isinstance(edit, str) else json.dumps(edit(doc["cover"])))
        argv = ["solve", str(g_path), "--mode", "defect", "--defects", "0,0,0",
                "--cover", "json", "--cover-json", str(c_path)]
    capsys.readouterr()
    assert cli_dispatch(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err
