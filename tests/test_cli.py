import json
import os
import signal
import subprocess
import sys

import pytest

from dpcharge import catalog
from dpcharge.catalog import DEFAULT_CATALOG, generate
from dpcharge.cli import cli_dispatch
from dpcharge.cover import cover_doc, cover_from_json, identity_cover
from dpcharge.rotfile import graph_hash, serialize_rotation_file
from dpcharge.solver import SearchStatus, find_ba

from cli_child import SRC, run_limited
from cover_fixtures import paper_cover


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


def _cap_error(name: str, vertices: str) -> str:
    return f"error: catalog graph {name!r} would have {vertices} vertices, more than 100,000\n"


# one vertex past the cap: a lost cap builds about 100 MB and exits 0
@pytest.mark.parametrize("argv, name", [
    (["gen", "cycle:100001", "-o", "x.pg"], "cycle:100001"),
    (["hunt", "cycle:100001", "--profile", "no48", "--seeds", "0..0"], "cycle:100001"),
    (["gen", "theta:49999,49999,1", "-o", "x.pg"], "theta:49999,49999,1"),
], ids=["gen-cycle", "hunt-cycle", "gen-theta"])
def test_catalog_graph_past_its_cap_is_usage_error(tmp_path, monkeypatch, capsys, argv, name):
    monkeypatch.chdir(tmp_path)
    assert cli_dispatch(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", _cap_error(name, "100,001"))
    assert not (tmp_path / "x.pg").exists()


# sizes that no memory holds, run in a child limited to 1 GB: these
# allocated until memory ran out, and the MemoryError escaped with exit
# 1, the code of a violation
@pytest.mark.parametrize("argv, name, vertices", [
    (["gen", "cycle:1000000000000", "-o", "x.pg"], "cycle:1000000000000", "1,000,000,000,000"),
    (["hunt", "cycle:1000000000000", "--profile", "no48"], "cycle:1000000000000",
     "1,000,000,000,000"),
    (["gen", "theta:1000000000000,1,1", "-o", "x.pg"], "theta:1000000000000,1,1",
     "1,000,000,000,004"),
], ids=["gen-cycle", "hunt-cycle", "gen-theta"])
def test_catalog_graph_no_memory_holds_is_usage_error(tmp_path, argv, name, vertices):
    done = run_limited(argv, cwd=str(tmp_path))
    assert (done.returncode, done.stdout, done.stderr) == (2, "", _cap_error(name, vertices))
    assert not (tmp_path / "x.pg").exists()


def test_catalog_cap_counts_every_vertex(tmp_path, monkeypatch):
    monkeypatch.setattr(catalog, "MAX_CATALOG_VERTICES", 10)
    out = str(tmp_path / "x.pg")
    # a theta graph has its two hubs besides the inner vertices of its paths
    for name, code in (("cycle:10", 0), ("cycle:11", 2), ("theta:3,3,2", 0),
                       ("theta:3,3,3", 2), ("theta:0,4,4", 0), ("theta:0,4,5", 2)):
        assert cli_dispatch(["gen", name, "-o", out]) == code, name


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


@pytest.mark.parametrize("profile", ["no48", "no46"])
def test_structure_without_vertices_meets_every_degree_hypothesis(profile, tmp_path, capsys):
    # no vertex breaks a minimum-degree bound, so no item lacks its hypothesis
    path, report = tmp_path / "empty.pg", tmp_path / "s.json"
    path.write_text("planegraph empty\nn 0\n")
    assert cli_dispatch(["structure", str(path), "--profile", profile,
                         "--json", str(report)]) == 0
    out = capsys.readouterr().out
    assert "None" not in out and "hypothesis-not-met" not in out
    text = report.read_text()
    assert "None" not in text
    lemmas = json.loads(text)["lemmas"]
    assert len(lemmas) == (7 if profile == "no48" else 5)
    assert all(r["verdict"] == "holds" and r["notes"] == [] for r in lemmas)


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


@pytest.mark.parametrize("cover", ["identity", "random"])
def test_solve_rejects_a_cover_json_it_would_not_read(cover, tmp_path, capsys):
    # the cover file is read only with --cover json; named beside another
    # cover, even a missing file would otherwise be ignored
    g_path = tmp_path / "t.pg"
    assert cli_dispatch(["gen", "triangle", "-o", str(g_path)]) == 0
    capsys.readouterr()
    argv = ["solve", str(g_path), "--mode", "ba", "--cover-json", str(tmp_path / "nosuch.json")]
    assert cli_dispatch(argv + (["--cover", cover] if cover == "random" else [])) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"error: --cover-json is read only with --cover json, not --cover {cover}\n")


@pytest.mark.parametrize("argv,message", [
    (["--mode", "ba", "--defects", "x"],
     "--defects is read only with --mode defect, not --mode ba"),
    (["--mode", "ba", "--seed", "5", "--full"],
     "--seed is read only with --cover random, not --cover identity"),
    (["--mode", "ba", "--seed", "0"],
     "--seed is read only with --cover random, not --cover identity"),
    (["--mode", "ba", "--full"], "--full is read only with --cover random, not --cover identity"),
    (["--mode", "ba", "--cover", "json", "--full"],
     "--full is read only with --cover random, not --cover json"),
    # and one that it needs, or cannot read
    (["--mode", "ba", "--cover", "json"], "--cover json requires --cover-json PATH"),
    (["--mode", "defect"], "--mode defect requires --defects d1,d2,..."),
    # argparse would read "-1,2,2" after a space as an option
    (["--mode", "defect", "--defects=-1,2,2"], "defect budgets must be non-negative"),
    (["--mode", "defect", "--defects", "a,2,2"],
     "--defects must be comma-separated integers, got 'a,2,2'"),
    (["--mode", "defect", "--defects", "0,,2"],
     "--defects must be comma-separated integers, got '0,,2'"),
], ids=["defects", "seed-full", "seed-0", "full", "full-json", "json-without-cover-json",
        "defect-without-defects", "negative-budget", "letter-budget", "empty-budget"])
def test_solve_rejects_an_option_it_would_not_read(argv, message, tmp_path, capsys):
    g_path = tmp_path / "t.pg"
    assert cli_dispatch(["gen", "triangle", "-o", str(g_path)]) == 0
    capsys.readouterr()
    assert cli_dispatch(["solve", str(g_path)] + argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_solve_random_cover_without_seed_uses_seed_0(tmp_path, capsys):
    g_path = tmp_path / "t.pg"
    assert cli_dispatch(["gen", "triangle", "-o", str(g_path)]) == 0
    capsys.readouterr()
    argv = ["solve", str(g_path), "--mode", "ba", "--cover", "random"]
    assert cli_dispatch(argv) == 0
    out = capsys.readouterr().out
    assert "cover random seed 0 full False" in out
    assert cli_dispatch(argv + ["--seed", "0"]) == 0
    assert capsys.readouterr().out == out


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


# The paper's two checks over the whole catalog: both rule sets on every
# graph, and a seeded hunt under both profiles.


@pytest.mark.parametrize("rules", ["rs48", "rs46"])
@pytest.mark.parametrize("name", DEFAULT_CATALOG)
def test_discharge_every_catalog_graph(name, rules, tmp_path, capsys):
    # the total is forced to -8, so some element always ends negative
    path = tmp_path / "g.pg"
    assert cli_dispatch(["gen", name, "-o", str(path)]) == 0
    capsys.readouterr()
    assert cli_dispatch(["discharge", str(path), "--rules", rules]) == 1
    out = capsys.readouterr().out
    assert "\n  sum of initial charges: -8 (identity -8: ok)\n" in out
    assert "\n  conservation: ok\n" in out


@pytest.mark.parametrize("profile", ["no48", "no46"])
def test_hunt_without_graphs_hunts_the_whole_catalog(profile, tmp_path, capsys):
    report = tmp_path / f"hunt-{profile}.json"
    assert cli_dispatch(["hunt", "--profile", profile, "--seeds", "0..1",
                         "--json", str(report)]) == 0
    doc = json.loads(report.read_text())
    skipped = [s["name"] for s in doc["skipped"]]
    hunted = [name for name in DEFAULT_CATALOG if name not in skipped]
    assert [g["name"] for g in doc["graphs"]] == list(DEFAULT_CATALOG)
    assert doc["seeds"] == [0, 1] and doc["candidates"] == []
    # every seed of every graph hunted is found, a candidate or exhausted
    assert doc["found"] + len(doc["candidates"]) + len(doc["exhausted"]) == 2 * len(hunted) > 0
    assert "candidates: 0;" in capsys.readouterr().out


P3_TEXT = "planegraph p3\nn 3\nv 0: 1\nv 1: 0 2\nv 2: 1\n"  # the triangle less edge 0-2


def _p3_file(tmp_path, name="p3"):
    path = tmp_path / "p3.pg"
    path.write_text(P3_TEXT.replace("p3", name, 1))
    return str(path)


def test_hunt_candidate_replays_on_its_own_graph_only(tmp_path, capsys):
    # a candidate cover embeds its graph; on another graph file it is an
    # input error, not a search with the other graph's edges unmatched
    p3, tri, out = _p3_file(tmp_path), str(tmp_path / "k3.pg"), tmp_path / "out"
    assert cli_dispatch(["gen", "triangle", "-o", tri]) == 0
    assert cli_dispatch(["hunt", p3, "--profile", "no48", "--k", "1", "--seeds", "0..0",
                         "--save-dir", str(out)]) == 1
    candidate = str(out / "candidate-p3-0.json")
    solve = ["--mode", "ba", "--k", "1", "--cover", "json", "--cover-json", candidate]
    capsys.readouterr()
    assert cli_dispatch(["solve", p3, *solve]) == 1
    assert "-> none (3 nodes)" in capsys.readouterr().out
    assert cli_dispatch(["solve", tri, *solve]) == 2
    assert "embedded graph is not the graph supplied" in capsys.readouterr().err


def test_hunt_reports_every_exhausted_seed(tmp_path, capsys):
    tri, report = str(tmp_path / "k3.pg"), tmp_path / "h.json"
    assert cli_dispatch(["gen", "triangle", "-o", tri]) == 0
    capsys.readouterr()
    assert cli_dispatch(["hunt", tri, "--profile", "no48", "--seeds", "0..1", "--limit", "1",
                         "--json", str(report)]) == 3
    assert "exhausted: 2" in capsys.readouterr().out
    doc = json.loads(report.read_text())
    assert doc["exhausted"] == [{"graph": "triangle", "seed": 0}, {"graph": "triangle", "seed": 1}]
    assert doc["found"] == 0 and not doc["candidates"]


def test_hunt_candidate_report_holds_the_saved_cover(tmp_path, capsys):
    p3, report, out = _p3_file(tmp_path), tmp_path / "h.json", tmp_path / "out"
    assert cli_dispatch(["hunt", p3, "--profile", "no48", "--k", "1", "--seeds", "0..0",
                         "--json", str(report), "--save-dir", str(out)]) == 1
    (candidate,) = json.loads(report.read_text())["candidates"]
    assert (candidate["graph"], candidate["seed"], candidate["replay_verdict"]) == ("p3", 0, "none")
    assert candidate["cover"] == (out / "candidate-p3-0.json").read_text()
    assert find_ba(cover_from_json(candidate["cover"])).status is SearchStatus.NONE


def test_hunt_save_dir_rejects_a_graph_name_that_is_no_file_name(tmp_path, capsys):
    for name in (f"a{os.sep}b", "a\0b"):
        p3, out = _p3_file(tmp_path, name), tmp_path / "out"
        argv = ["hunt", p3, "--profile", "no48", "--k", "1", "--seeds", "0..1"]
        capsys.readouterr()
        assert cli_dispatch(argv + ["--save-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "cannot be part of a file name" in captured.err
        assert not out.exists()
        assert cli_dispatch(argv) == 1  # without --save-dir the name is only a label


def test_hunt_save_dir_rejects_two_graphs_with_one_name(tmp_path, capsys):
    # both candidates would be saved as candidate-g-0.json, the second over the first
    p3, p4 = tmp_path / "g1.pg", tmp_path / "g2.pg"
    p3.write_text(P3_TEXT.replace("p3", "g", 1))
    p4.write_text("planegraph g\nn 4\nv 0: 1\nv 1: 0 2\nv 2: 1 3\nv 3: 2\n")
    out = tmp_path / "out"
    argv = ["hunt", str(p3), str(p4), "--profile", "no48", "--k", "1", "--seeds", "0..0"]
    capsys.readouterr()
    assert cli_dispatch(argv + ["--save-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "two graphs are named 'g'" in captured.err
    assert not out.exists()
    assert cli_dispatch(argv) == 1  # without --save-dir the name is only a label
    assert capsys.readouterr().out.count("candidate") == 1


def test_version(capsys):
    code = cli_dispatch(["--version"])
    assert code == 0


@pytest.mark.parametrize("seeds,message", [
    ("9..3", "empty seed range '9..3': A must not exceed B"),
    ("5..4", "empty seed range '5..4': A must not exceed B"),
    ("5..x", "bad seed range '5..x', expected A..B"),
], ids=["9..3", "5..4", "5..x"])
def test_hunt_empty_seed_range_is_usage_error(seeds, message, capsys):
    assert cli_dispatch(["hunt", "cycle:5", "--profile", "no46", "--seeds", seeds]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_hunt_seed_range_past_its_cap_is_usage_error(capsys):
    # listing these seeds raised a MemoryError at once, which escaped
    # with exit 1, the code of a hunt candidate
    assert cli_dispatch(["hunt", "cycle:5", "--profile", "no48",
                         "--seeds", "0..999999999999"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: seed range '0..999999999999' holds more than "
                            "1,000,000 seeds\n")
    assert captured.out == ""


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


def test_verify_colour_outside_its_list_is_usage_error(tmp_path, capsys):
    t_path = _solved_transversal(tmp_path, "k4")
    doc = json.loads(t_path.read_text())
    del doc["order"]
    doc["assignment"]["0"] = 7
    t_path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = cli_dispatch(["verify", str(tmp_path / "solved.pg"), "--transversal", str(t_path),
                         "--defects", "0,2,2"])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert captured.err == "error: not a transversal: color 7 not in list of vertex 0\n"


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
    # budgets that are not integers are an input error, found after the order verdict
    assert cli_dispatch(verify + ["--order", "--defects", "0,,2"]) == 2
    assert capsys.readouterr() == ("k4: order conditions pass\n", "error: --defects must be "
                                   "comma-separated integers, got '0,,2'\n")


# json keeps the last of two equal keys and int() reads "00", "+2" and " 2"
# as vertex ids, so these were read as some other assignment, or ended in
# int()'s own message
@pytest.mark.parametrize("entries, message", [
    ('"0": 1, "00": 2, "1": 2, "2": 2', "assignment key '00' is not a vertex id"),
    ('"0": 1, "1": 2, "+2": 2', "assignment key '+2' is not a vertex id"),
    ('"0": 1, "1": 2, "2": 2, "x": 1', "assignment key 'x' is not a vertex id"),
    ('"0": 3, "0": 1, "1": 2, "2": 2', "key '0' appears twice"),
], ids=["leading-zero", "plus-sign", "not-a-number", "verbatim-repeat"])
def test_verify_rejects_a_second_spelling_of_a_vertex_key(tmp_path, capsys, entries, message):
    g_path, t_path = tmp_path / "tri.pg", tmp_path / "t.json"
    assert cli_dispatch(["gen", "triangle", "-o", str(g_path)]) == 0
    assert cli_dispatch(["solve", str(g_path), "--mode", "defect", "--defects", "0,2,2",
                         "--json", str(t_path)]) == 0
    doc = json.loads(t_path.read_text())
    del doc["assignment"]
    t_path.write_text(json.dumps(doc)[:-1] + ', "assignment": {' + entries + "}}")
    capsys.readouterr()
    assert cli_dispatch(["verify", str(g_path), "--transversal", str(t_path),
                         "--defects", "0,2,2"]) == 2
    assert capsys.readouterr() == ("", f"error: malformed transversal: {message}\n")


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


def test_closed_output_pipe_ends_the_process_by_sigpipe(tmp_path):
    # a reader that stops early says nothing about the input, so this is
    # not exit 2 with "error: [Errno 32] Broken pipe" but what cat and head do
    path = tmp_path / "c.pg"
    assert cli_dispatch(["gen", "cycle:20000", "-o", str(path)]) == 0
    with subprocess.Popen([sys.executable, "-m", "dpcharge", "discharge", str(path),
                           "--rules", "rs48"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env={**os.environ, "PYTHONPATH": SRC}) as proc:
        assert proc.stdout.readline() == b"cycle:20000: rules rs48, 0 transfers\n"
        proc.stdout.close()  # megabytes of output are still to come
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == -signal.SIGPIPE
    assert err == b""


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


def _lists_of_other_vertices(d):
    return _with(d, "lists", {**d["lists"], "7": [1, 2, 3], "x": "junk"})


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
    ("solve", _lists_of_other_vertices, "vertices only"),
    ("verify", _lists_of_other_vertices, "vertices only"),
    ("solve", lambda d: _with(d, "graph", P3_TEXT), "embedded graph is not the graph supplied"),
    ("verify", lambda d: _with(d, "graph", P3_TEXT), "embedded graph is not the graph supplied"),
    ("solve", lambda d: _with(d, "graph", None), "embedded graph must be rotation-file text"),
    ("solve", lambda d: _with(d, "lists", {**d["lists"], "0": [1, 2, 3, 5]}),
     "color 5 has no defect budget (k=3)"),
], ids=["missing-file", "not-json", "not-an-object", "no-k", "no-lists", "no-matchings",
        "lists-not-an-object", "key-not-int-int", "matching-not-a-list", "pair-of-one",
        "float-colour", "solve-reversed-key", "solve-key-and-reversed-key",
        "verify-string-colour", "verify-string-k", "verify-reversed-key",
        "solve-lists-of-other-vertices", "verify-lists-of-other-vertices",
        "solve-embedded-graph-of-another-graph", "verify-embedded-graph-of-another-graph",
        "embedded-graph-not-text", "colour-without-budget"])
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
