import tracemalloc

from dpcharge.catalog import generate
from dpcharge.cover import cover_from_json, cover_to_json
from dpcharge.hunt import hunt
from dpcharge.solver import SearchStatus, find_ba
from dpcharge.structure import Profile

from cover_fixtures import paper_cover


def test_hunt_no46_cycles_all_found():
    graphs = [("cycle:5", generate("cycle:5")), ("cycle:7", generate("cycle:7"))]
    report = hunt(Profile.NO46, 3, range(50), graphs)
    assert report.found == 100
    assert not report.candidates and not report.exhausted and not report.skipped


def test_hunt_no48_nine_cycle():
    report = hunt(Profile.NO48, 3, range(50), [("cycle:9", generate("cycle:9"))])
    assert report.found == 50 and not report.candidates


def test_hunt_skips_profile_violations():
    report = hunt(Profile.NO48, 3, range(3), [("cube", generate("cube"))])
    assert report.skipped and report.skipped[0][0] == "cube"
    assert "4-cycle" in report.skipped[0][1]
    assert report.found == 0


def test_replay_reproduces_verdict():
    doc = cover_to_json(paper_cover())
    first = find_ba(cover_from_json(doc))
    second = find_ba(cover_from_json(doc))
    assert first.status is SearchStatus.NONE
    assert second.status is SearchStatus.NONE


def test_hunt_deterministic_report():
    graphs = [("cycle:5", generate("cycle:5"))]
    a = hunt(Profile.NO46, 3, range(10), graphs)
    b = hunt(Profile.NO46, 3, range(10), graphs)
    assert a.to_json() == b.to_json()


def test_hunt_threaded_matches_sequential():
    graphs = [("cycle:5", generate("cycle:5")), ("cycle:7", generate("cycle:7"))]
    seq = hunt(Profile.NO46, 3, range(8), graphs, threads=1)
    par = hunt(Profile.NO46, 3, range(8), graphs, threads=4)
    assert seq.to_json() == par.to_json()


def test_hunt_memory_does_not_grow_with_seeds():
    # each cover is dropped once its job is folded into the report
    graphs = [("cycle:60", generate("cycle:60"))]
    peaks = []
    for seeds in (range(2), range(200)):
        tracemalloc.start()
        try:
            report = hunt(Profile.NO48, 3, seeds, graphs)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert report.found == len(seeds)
    assert peaks[1] <= 2 * peaks[0]
