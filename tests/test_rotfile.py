import io
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from dpcharge.catalog import DEFAULT_CATALOG, generate
from dpcharge.cli import cli_dispatch
from dpcharge.rotfile import (RotationFileError, parse_rotation_file,
                              serialize_rotation_file)

TRIANGLE = """\
# a plane triangle
planegraph triangle
n 3
v 0: 1 2
v 1: 2 0
v 2: 0 1
"""


def test_parse_triangle():
    g, name = parse_rotation_file(TRIANGLE)
    assert name == "triangle"
    assert g.face_count == 2


def test_round_trip_is_canonical():
    for name in DEFAULT_CATALOG:
        g = generate(name)
        text = serialize_rotation_file(g, name)
        g2, name2 = parse_rotation_file(text)
        assert name2 == name
        assert g2.rotations == g.rotations
        assert serialize_rotation_file(g2, name2) == text


def test_repeated_neighbor_rejected():
    text = "planegraph x\nn 2\nv 0: 1 1\nv 1: 0 0\n"
    with pytest.raises(RotationFileError, match="repeated neighbor"):
        parse_rotation_file(text)


def test_asymmetric_rotation_names_both_vertices():
    text = "planegraph x\nn 3\nv 0: 1\nv 1: 0 2\nv 2:\n"
    with pytest.raises(RotationFileError, match="2 lists no edge back to 1"):
        parse_rotation_file(text)


def test_syntax_error_carries_line_number():
    text = "planegraph x\nn 2\nv 0: 1\nv one: 0\n"
    with pytest.raises(RotationFileError, match="line 4"):
        parse_rotation_file(text)


def test_out_of_range_vertex():
    text = "planegraph x\nn 2\nv 0: 5\n"
    with pytest.raises(RotationFileError, match="out of range"):
        parse_rotation_file(text)


def test_missing_header():
    with pytest.raises(RotationFileError, match="header"):
        parse_rotation_file("n 3\nv 0: 1\n")


def test_missing_count():
    with pytest.raises(RotationFileError) as info:
        parse_rotation_file("planegraph g\n")
    assert str(info.value) == "missing 'n <count>' line"


def test_duplicate_vertex_line():
    text = "planegraph x\nn 2\nv 0: 1\nv 0: 1\nv 1: 0\n"
    with pytest.raises(RotationFileError, match="duplicate"):
        parse_rotation_file(text)


def test_comments_and_blanks_ignored():
    text = "\n# hi\nplanegraph t\n\nn 2\n# mid\nv 0: 1\nv 1: 0\n\n"
    g, _ = parse_rotation_file(text)
    assert g.edge_count == 1
    # CRLF line ends, and a comment and a blank line between the 'v' lines
    g, _ = parse_rotation_file("planegraph t\r\nn 2\r\nv 1: 0\r\n# mid\r\n\r\nv 0: 1\r\n")
    assert g.rotations == ((1,), (0,))


def test_header_only_file_is_rejected_at_once(tmp_path, capsys):
    # the header's count allocates nothing: every vertex needs its 'v' line
    text = "planegraph big\nn 2000000\n"
    start = time.perf_counter()
    with pytest.raises(RotationFileError, match="0 'v' lines for n 2000000"):
        parse_rotation_file(text)
    assert time.perf_counter() - start < 1
    path = tmp_path / "big.pg"
    path.write_text(text)
    assert cli_dispatch(["faces", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    with pytest.raises(RotationFileError, match="2 'v' lines for n 3"):
        parse_rotation_file("planegraph x\nn 3\nv 0: 1\nv 1: 0\n")


def test_isolated_vertices_parse_in_linear_time():
    # every vertex isolated: one component and one face per vertex
    n = 100000
    text = f"planegraph big\nn {n}\n" + "".join(f"v {v}:\n" for v in range(n))
    start = time.perf_counter()
    g, _ = parse_rotation_file(text)
    assert time.perf_counter() - start < 10
    assert len(g.components) == n and g.face_count == n


def test_non_ascii_digits_rejected():
    # '²' passes str.isdigit but not int(): it used to escape as a bare ValueError
    for text in ("planegraph x\nn ²\n", "planegraph x\nn 2\nv ²: 1\n",
                 "planegraph x\nn 2\nv 0: ²\n", "planegraph x\nn \u0663\n"):
        with pytest.raises(RotationFileError):
            parse_rotation_file(text)


# -- fuzz target: only RotationFileError, and exit 2 through the CLI ----

VALID = serialize_rotation_file(generate("figure1"), "figure1")
TOKENS = st.sampled_from(["planegraph", "n", "v", "x", ":", "0", "1", "2", "7", "8", "12",
                          "-1", "01", "²", "\u0663", "#", " ", "\t", "\n", "\r", "\x0c",
                          "\u2028"])


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.pg"


def _parse_and_run_faces(text: str, path) -> None:
    try:
        parse_rotation_file(text)
        parsed = True
    except RotationFileError:
        parsed = False
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_dispatch(["faces", str(path)])
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if parsed:
        assert code == 0
    else:
        assert code == 2 and err.getvalue().startswith("error: ")


@given(text=st.text(max_size=120) | st.lists(TOKENS, max_size=50).map("".join))
@settings(max_examples=400, deadline=None)
def test_fuzz_arbitrary_text(text, fuzz_file):
    _parse_and_run_faces(text, fuzz_file)


@given(data=st.data())
@settings(max_examples=400, deadline=None)
def test_fuzz_mutations_of_a_valid_file(data, fuzz_file):
    lines = VALID.splitlines()
    for _ in range(data.draw(st.integers(1, 6))):
        i = data.draw(st.integers(0, len(lines) - 1))
        op = data.draw(st.sampled_from(["delete", "duplicate", "swap", "edit", "edit",
                                        "garble", "insert"]))
        if op == "delete" and len(lines) > 1:
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = data.draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op in ("edit", "garble"):
            tokens = lines[i].split(" ")
            k = data.draw(st.integers(0, len(tokens) - 1))
            tokens[k] = data.draw(TOKENS if op == "edit" else st.text(max_size=3))
            lines[i] = " ".join(tokens)
        elif op == "insert":
            lines.insert(i, data.draw(st.lists(TOKENS, max_size=8).map(" ".join)))
    _parse_and_run_faces("\n".join(lines) + "\n", fuzz_file)


# -- malformed 'v' lines: exact messages ---------------------------------

HEAD = "planegraph x\nn 3\n"


@pytest.mark.parametrize("body,message", [
    ("v 0: ²\n", "line 3: bad neighbor token '²'"),
    ("v 0: 1 ٣ 2\n", "line 3: bad neighbor token '٣'"),
    ("v 0: 1 x 9\n", "line 3: bad neighbor token 'x'"),
    ("v 0: 9 x\n", "line 3: neighbor 9 out of range 0..2"),
    ("v 0: 007\n", "line 3: neighbor 7 out of range 0..2"),
    ("v 0: 1 -1\n", "line 3: bad neighbor token '-1'"),
    ("v 0: 1\nv 1:\nv 2:\n", "asymmetric rotation: 1 lists no edge back to 0"),
    ("v 0: 1 1\nv 1: 0\nv 2:\n", "repeated neighbor in rotation of vertex 0"),
    ("v 0: 0 1\nv 1: 0\nv 2:\n", "loop at vertex 0"),
    ("v 0: 01 2\nv 1: 0\nv 2: 0\n", None),  # leading zeros are still numbers
    ("v 00: 01 2\nv 01: 0\nv 2: 000\n", None),
    ("v 0: 1 2\r\nv 1: 0\r\nv 2: 0\r\n", None),
    ("v 0:\t1\t2\nv 1:\t0 \nv 2 :\t0\t\n", None),
    ("v 0: 1 2\n\n# c\nv 1: 0\n  \t\nv 2: 0\n", None),
    ("v 2: 0\nv 0: 1 2\nv 1: 0\n", None),
    ("v 0: 1 2\nv\t1: 0\nv 2: 0\n", "line 4: expected 'v <id>: <neighbors>', got 'v\\t1: 0'"),
    ("v 0: +1 2\nv 1: 0\nv 2: 0\n", "line 3: bad neighbor token '+1'"),
    ("v +0: 1 2\nv 1: 0\nv 2: 0\n", "line 3: bad vertex id '+0'"),
    ("v \u0660: 1 2\nv 1: 0\nv 2: 0\n", "line 3: bad vertex id '\u0660'"),
    ("v 0: 1 2\nv 1 0\nv 2: 0\n", "line 4: bad vertex id '1 0'"),
    ("v 0: 1 2\nv 0: 1 2\nv 1: 0\nv 2: 0\n", "line 4: duplicate rotation for vertex 0"),
    ("v 0: 1 2\nv 1: x\nv 2: 0\n", "line 4: bad neighbor token 'x'"),
    ("v 0: 1 2\nv 1: 0 x\nv 2: 0\nv 2: 0\nv 9: 0\n", "line 4: bad neighbor token 'x'"),
    ("v 0: 1 2\nv 1: 0\nv 3: 0\n", "line 5: vertex id 3 out of range 0..2"),
], ids=["superscript", "arabic-indic", "first-bad-token", "range-before-token",
        "leading-zeros-out-of-range", "negative", "empty-rotation", "repeated-neighbor",
        "loop", "leading-zeros", "leading-zeros-in-ids", "crlf", "tabs", "comments-between",
        "out-of-order", "tab-after-v", "plus-neighbor", "plus-id", "non-ascii-id", "no-colon",
        "duplicate-middle", "bad-token-middle", "first-bad-line-of-several", "id-out-of-range"])
def test_malformed_rotation_lines(body, message):
    if message is None:
        g, _ = parse_rotation_file(HEAD + body)
        assert g.rotations == ((1, 2), (0,), (0,))
        return
    with pytest.raises(RotationFileError) as info:
        parse_rotation_file(HEAD + body)
    assert str(info.value) == message


# -- numbers past int()'s digit limit (4300 digits by default) -------------

LONG = "1" * 5000


@pytest.mark.parametrize("text,message", [
    (f"planegraph x\nn {LONG}\n", "line 2: count has 5000 digits, too many to convert"),
    (f"{HEAD}v {LONG}: 1 2\n", "line 3: vertex id has 5000 digits, too many to convert"),
    (f"{HEAD}v 0: 1 {LONG}\n", "line 3: neighbor has 5000 digits, too many to convert"),
    (f"{HEAD}v 0: 1 2\nv 1: {LONG} x\n", "line 4: neighbor has 5000 digits, too many to convert"),
], ids=["count", "vertex-id", "neighbor", "neighbor-before-bad-token"])
def test_numbers_past_the_digit_limit(text, message):
    with pytest.raises(RotationFileError) as info:
        parse_rotation_file(text)
    assert str(info.value) == message


def test_cli_names_the_line_of_an_overlong_number(tmp_path, capsys):
    path = tmp_path / "long.pg"
    path.write_text(f"{HEAD}v 0: 1 2\nv 1: 0 {LONG}\nv 2: 0 1\n")
    assert cli_dispatch(["faces", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: line 4: neighbor has 5000 digits, too many to convert\n")
