"""Fuzz target for the command line.

Hypothesis draws an argv from the subcommands and their flags, with
numbers that are negative, zero or very large, and with file arguments
that are a valid graph, cover or transversal, a malformed one, a missing
path or a directory.  ``cli_dispatch`` must return one of the documented
exit codes (0, 1, 2, 3) and let no exception escape.

Two inputs are kept small on purpose, because their cost grows with the
value by design: a ``hunt`` seed range runs one job per seed, so a range
spans at most three seeds, and ``hunt`` always names its graphs (with
none it runs the whole catalog).  Each graph it builds is a small catalog
graph, so any node budget ends quickly.

Catalog sizes are also drawn past ``MAX_CATALOG_VERTICES``, for ``gen``
and ``hunt``.  Such a command runs in a child process that limits its
own address space to 1 GB, so if the cap were lost it would fail with a
``MemoryError`` traceback instead of taking the machine's memory.  No
size at or below the cap that would build a large graph is drawn.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from dpcharge.cli import cli_dispatch

from cli_child import run_limited

# one vertex past the cap, and two sizes that no memory holds
PAST_THE_CAP = ["cycle:100001", "cycle:1000000000000", "theta:1000000000000,1,1"]

BIG = 10**30
NUMBERS = st.one_of(
    st.integers(-1, 5).map(str),
    st.sampled_from([64, 65, 2**63, BIG, -BIG, -7]).map(str),
    st.sampled_from(["", "x", "2.5", "1e3", "0x10", " 7", "-0", "٣", "1" * 5000]))


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Paths by role: valid, malformed, missing and directory inputs, and outputs."""
    d = tmp_path_factory.mktemp("cli-fuzz")
    graph = d / "k4.pg"
    sink = io.StringIO()
    with redirect_stdout(sink):
        assert cli_dispatch(["gen", "k4", "-o", str(graph)]) == 0
        for mode, extra in (("ba", []), ("defect", ["--defects", "0,2,2"])):
            assert cli_dispatch(["solve", str(graph), "--mode", mode, *extra, "--cover", "random",
                                 "--seed", "3", "--full", "--json", str(d / f"{mode}.json")]) == 0
    (d / "bad.pg").write_text("planegraph x\nn 3\nv 0: 1\n")
    (d / "bad.json").write_text('{"k": 3, "lists": [')
    (d / "cover.json").write_text((d / "ba.json").read_text())
    # the valid choices are repeated, so most commands get past their input checks
    bad_graphs = [str(d / "bad.pg"), str(d / "missing.pg"), str(d)]
    return {
        "graph": [str(graph)] * 4 + bad_graphs,
        "hunt_graph": [str(graph), "k4", "cycle:5", "theta:1,2,2", "cycle:2", "nonesuch"]
                      + bad_graphs + PAST_THE_CAP,
        "json_in": [str(d / "ba.json"), str(d / "defect.json"), str(d / "cover.json")] * 2
                   + [str(d / "bad.json"), str(d / "missing.json"), str(d)],
        "out": [str(d / "out.json")] * 4 + [str(d / "no-dir" / "out.json"), str(d)],
    }


def _seeds(draw) -> str:
    a = draw(st.integers(-3, 5) | st.sampled_from([BIG, -BIG]))
    return draw(st.sampled_from([f"{a}..{a + draw(st.integers(-2, 2))}", str(a), "..",
                                 f"{a}..", "x..y", f"{a}...{a}", f"{a}..{a}..{a}"]))


def _draw_argv(draw, files) -> list[str]:
    """A subcommand with its required options (each left out one time in
    ten), some optional ones, and now and then an option of another
    subcommand."""
    pick = lambda role: draw(st.sampled_from(files[role]))  # noqa: E731
    often = lambda: draw(st.sampled_from([True] * 9 + [False]))  # noqa: E731
    defects = ["--defects", ",".join(draw(st.lists(NUMBERS, max_size=4)))]
    profile = ["--profile", draw(st.sampled_from(["no48", "no46"] * 4 + ["no4"]))]
    numbers = [["--k", draw(NUMBERS)], ["--limit", draw(NUMBERS)]]
    command = draw(st.sampled_from(["gen", "faces", "structure", "discharge", "solve",
                                    "verify", "hunt", "bogus", "--version"]))
    args, required, optional = [], [], []
    if command == "gen":
        args = [draw(st.sampled_from(["k4", "triangle", "cycle:5", "theta:2,2,3", "cycle:2",
                                      "cycle:x", "theta:1,2", "nonesuch", "", *PAST_THE_CAP]))]
        required = [["-o", pick("out")]]
    elif command == "hunt":
        args = draw(st.lists(st.sampled_from(files["hunt_graph"]), min_size=1, max_size=2))
        required = [profile]
        optional = numbers + [["--seeds", _seeds(draw)], ["--json", pick("out")],
                              ["--save-dir", pick("out")]]
    elif command not in ("bogus", "--version"):
        args = [pick("graph")]
        optional = [] if command in ("faces", "verify") else [["--json", pick("out")]]
        if command == "structure":
            required = [profile]
        elif command == "discharge":
            required = [["--rules", draw(st.sampled_from(["rs48", "rs46"] * 4 + ["r1"]))]]
        elif command == "solve":
            mode = draw(st.sampled_from(["ba", "defect"] * 4 + ["x"]))
            required = [["--mode", mode]] + ([defects] if mode == "defect" else [])
            cover = draw(st.sampled_from(["identity", "random", "json"] * 3 + ["x"]))
            optional += numbers + [defects, ["--cover", cover], ["--seed", draw(NUMBERS)],
                                   ["--cover-json", pick("json_in")], ["--full"]]
        elif command == "verify":
            required = [["--transversal", pick("json_in")]]
            optional += [["--order"], defects]
    argv = [command] + args
    for option in required:
        if often():
            argv += option
    if optional:
        for option in draw(st.lists(st.sampled_from(optional), max_size=4)):
            argv += option
    if not often():
        argv += draw(st.sampled_from([profile, ["--json", pick("out")], ["--order"], ["-x"]]))
    return argv


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_fuzz_cli_arguments(data, files):
    argv = _draw_argv(data.draw, files)
    if set(argv) & set(PAST_THE_CAP):
        done = run_limited(argv)
        code, output = done.returncode, done.stdout + done.stderr
        assert "Traceback" not in output, (argv, output[-300:])
    else:
        sink = io.StringIO()
        with redirect_stdout(sink), redirect_stderr(sink):
            code = cli_dispatch(argv)
        output = sink.getvalue()
    assert code in (0, 1, 2, 3), (argv, code, output[-300:])
