"""The input readers, the document writers, the cover builders, the
transversal checkers, the profile check and the cover searches cost time
linear in the input size.

Each one runs on a cycle:N input (the profile check on theta:N,N,N as
well), or a document of N records, at N = 2,000 and at N = 16,000, the
best of five runs with the cyclic garbage collector paused.  Eight times the input should take about
eight times as long; a quadratic reader would take about 64 times as
long, so a ratio below 20 tells them apart with room for timing noise.
"""

import gc
import time
from dataclasses import replace

import pytest

from dpcharge.catalog import generate
from dpcharge.cover import (cover_doc, cover_from_json, cover_to_json, identity_cover,
                            random_cover)
from dpcharge.reporting import dump_json
from dpcharge.rotfile import RotationFileError, parse_rotation_file, serialize_rotation_file
from dpcharge.solver import (DefectVector, OrderedTransversal, find_ba, find_defective_dp,
                             verify_ba, verify_defective)
from dpcharge.structure import Profile, check_profile

SIZES = (2_000, 16_000)


def _rotation_text(n: int) -> str:
    return serialize_rotation_file(generate(f"cycle:{n}"), "ring")


def _last_line_defect(n: int) -> str:
    # the file is well formed up to its last line, whose last token is bad
    head, _ = _rotation_text(n).rstrip("\n").rsplit("\n", 1)
    return f"{head}\nv {n - 1}: {n - 2} x\n"


def _parse_rejected(text: str) -> None:
    with pytest.raises(RotationFileError, match="bad neighbor token 'x'"):
        parse_rotation_file(text)


def _last_dart_asymmetric(n: int) -> str:
    # the last vertex also lists vertex 1, which lists no edge back: the
    # builder finds that only at the file's last darts
    return _rotation_text(n).rstrip("\n") + " 1\n"


def _build_rejected(text: str) -> None:
    with pytest.raises(RotationFileError, match="asymmetric rotation: 1 lists no edge back"):
        parse_rotation_file(text)


def _best_seconds(read, arg) -> float:
    times = []
    for _ in range(5):
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            read(arg)
            times.append(time.perf_counter() - start)
        finally:
            gc.enable()
    return min(times)


@pytest.mark.parametrize("read,make", [
    (parse_rotation_file, _rotation_text),
    (cover_from_json, lambda n: cover_to_json(random_cover(generate(f"cycle:{n}"), 3, 0, True))),
    (_parse_rejected, _last_line_defect),
    (_build_rejected, _last_dart_asymmetric),
], ids=["parse_rotation_file", "cover_from_json", "defect-on-last-line",
        "asymmetric-last-dart"])
def test_reader_time_is_linear_in_input_size(read, make):
    small, large = (_best_seconds(read, make(n)) for n in SIZES)
    assert large / small < 20, (small, large)


def _full_cover(n: int):
    return random_cover(generate(f"cycle:{n}"), 3, 0, True)


def _solve_document(n: int) -> dict:
    """A document shaped as ``solve --json`` writes it."""
    cover = _full_cover(n)
    return {"version": "0", "command": "solve", "graph_hash": "0" * 16, "mode": "defect",
            "k": 3, "assignment": {str(v): 1 + v % 3 for v in cover.graph.vertices()},
            "cover": cover_doc(cover), "defects": [0, 2, 2]}


def _ledger_document(n: int) -> dict:
    """A document shaped as ``discharge --json`` writes it, with ``n``
    negative elements that all share one configuration and one notes tuple."""
    config = {"kind": "low-degree-vertex", "vertices": [0], "detail": "vertex 0 has degree 2 <= 2"}
    notes = ("minimum degree 2 < 3 (vertex 0)", "6-cycle present: (0, 1, 2, 3, 4, 5)")
    return {"ruleset": "rs46", "audit": {"negatives": [
        {"element": f"v{v}", "final": "-2", "reducible": [config], "hypothesis_notes": notes}
        for v in range(n)]}}


@pytest.mark.parametrize("write,make", [
    (cover_to_json, _full_cover),
    (dump_json, _solve_document),
    (dump_json, _ledger_document),
], ids=["cover_to_json", "dump_json-solve", "dump_json-ledger"])
def test_writer_time_is_linear_in_input_size(write, make):
    small, large = (_best_seconds(write, make(n)) for n in SIZES)
    assert large / small < 20, (small, large)


def _path_transversal(n: int):
    """cycle:n under the identity cover, vertex 0 colored 3 and the rest 2,
    in vertex order: the chosen nodes induce a path, and both checks pass."""
    g = generate(f"cycle:{n}")
    t = {v: 2 if v else 3 for v in g.vertices()}
    return identity_cover(g, 3), OrderedTransversal(t, tuple(t.items()))


# each check gets a fresh copy of the cover, so nothing it derives is cached
def _verify_order(case) -> None:
    cover, ot = case
    assert verify_ba(replace(cover), ot).passed


def _verify_budgets(case) -> None:
    cover, ot = case
    assert verify_defective(replace(cover), ot.assignment, DefectVector((0, 2, 2))).passed


@pytest.mark.parametrize("check", [_verify_order, _verify_budgets],
                         ids=["verify_ba", "verify_defective"])
def test_checker_time_is_linear_in_input_size(check):
    small, large = (_best_seconds(check, _path_transversal(n)) for n in SIZES)
    assert large / small < 20, (small, large)


def _cycle(n: int):
    return generate(f"cycle:{n}")


# the node graph is read from a fresh copy of the cover, so it is built anew
@pytest.mark.parametrize("build,make", [
    (lambda g: random_cover(g, 3, 0, True), _cycle),
    (lambda g: random_cover(g, 3, 0, False), _cycle),
    (lambda c: replace(c).node_graph, lambda n: random_cover(_cycle(n), 3, 0, True)),
], ids=["random_cover-full", "random_cover-partial", "node_graph"])
def test_cover_build_time_is_linear_in_input_size(build, make):
    small, large = (_best_seconds(build, make(n)) for n in SIZES)
    assert large / small < 20, (small, large)


def _fresh_graphs(name: str) -> list:
    """One graph for each of the five runs of ``_best_seconds``: a graph
    keeps its witnesses, so a second check on it would search nothing."""
    return [generate(name) for _ in range(5)]


def _check_both_profiles(graphs: list) -> None:
    graph = graphs.pop()
    for profile in Profile:
        check_profile(graph, profile)


@pytest.mark.parametrize("family", ["cycle:{n}", "theta:{n},{n},{n}"], ids=["cycle", "theta"])
def test_profile_check_time_is_linear_in_input_size(family):
    small, large = (_best_seconds(_check_both_profiles, _fresh_graphs(family.format(n=n)))
                    for n in SIZES)
    assert large / small < 20, (small, large)


def _search_ba(cover) -> None:
    assert find_ba(cover).nodes_expanded == cover.graph.vertex_count


def _search_defective(cover) -> None:
    out = find_defective_dp(cover, DefectVector((0, 2, 2)))
    assert out.nodes_expanded == cover.graph.vertex_count


def _searched_cover(n: int):
    """A full k = 3 cover of cycle:n with its node graph built, so only
    the search is timed.  Neither search backtracks on it: one node
    expanded per vertex."""
    cover = _full_cover(n)
    cover.node_graph
    return cover


@pytest.mark.parametrize("search", [_search_ba, _search_defective],
                         ids=["find_ba", "find_defective_dp"])
def test_search_time_is_linear_in_input_size(search):
    small, large = (_best_seconds(search, _searched_cover(n)) for n in SIZES)
    assert large / small < 20, (small, large)
