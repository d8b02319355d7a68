"""Correctness gate, applied to the outputs of a pass outside the timed region.

- Every FOUND is checked with ``verify_ba`` / ``verify_defective`` on the
  cover the benchmark asked for.  ``hunt`` reports carry no transversal,
  so each of its FOUND covers is solved again here and verified.
- Every NONE is checked with the brute-force oracle on each component
  small enough for it; a NONE that no small component confirms is
  flagged as unverified, and one that the oracle refutes is an error.
- Exit codes must agree with the JSON report the command wrote.
- Digests of a report's deterministic fields (everything but
  ``command``, which names the benchmark's scratch paths) are compared
  across passes and, for the fixed canary inputs, with recorded values.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

from dpcharge.cli import EXIT_EXHAUSTED, EXIT_OK, EXIT_VIOLATION
from dpcharge.cover import Cover, cover_from_json, random_cover
from dpcharge.oracle import SIZE_GUARD, brute_ba, brute_defective
from dpcharge.planegraph import build_plane_graph
from dpcharge.solver import (DefectVector, OrderedTransversal, SearchStatus, find_ba,
                             verify_ba, verify_defective)


@dataclass
class Outcome:
    errors: list[str] = field(default_factory=list)
    verdicts: int = 0
    unverified: int = 0


def digest(path: str) -> str | None:
    if not path or not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    doc.pop("command", None)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _load(path: str) -> dict | None:
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _component_cover(cover: Cover, comp) -> Cover:
    verts = sorted(comp)
    index = {v: i for i, v in enumerate(verts)}
    graph = build_plane_graph([[index[w] for w in cover.graph.rotations[v]] for v in verts])
    matchings = {(index[u], index[v]): pairs for (u, v), pairs in cover.matchings.items()
                 if u in index}
    return Cover(graph, cover.k, tuple(cover.lists[v] for v in verts), matchings)


def confirm_none(cover: Cover, defects: DefectVector | None) -> bool | None:
    """True if the oracle finds a component with no colouring, False if it
    colours every component, None if a component is too large for it."""
    too_large = False
    for comp in cover.graph.components:
        if len(comp) > SIZE_GUARD:
            too_large = True
            continue
        sub = _component_cover(cover, comp)
        out = brute_ba(sub) if defects is None else brute_defective(sub, defects)
        if out.status is SearchStatus.NONE:
            return True
    return None if too_large else False


def _requested_cover(cmd) -> Cover:
    graph = cmd.graph.graph
    if cmd.meta["cover"] == "json":
        with open(cmd.meta["cover_path"], "r", encoding="utf-8") as fh:
            return cover_from_json(fh.read(), graph=graph)
    return random_cover(graph, cmd.meta["k"], cmd.meta["seed"], True)


def _check_none(res: Outcome, cover: Cover, defects: DefectVector | None, what: str) -> None:
    confirmed = confirm_none(cover, defects)
    if confirmed is False:
        res.errors.append(f"{what}: NONE, but the oracle colours every component")
    elif confirmed is None:
        res.unverified += 1


def check(cmd, code) -> Outcome:
    """Check one command's exit code and report against each other."""
    res = Outcome()
    if code not in (EXIT_OK, EXIT_VIOLATION, EXIT_EXHAUSTED):
        res.errors.append(f"exit code {code}")
        return res
    if cmd.kind == "verify":
        if code != EXIT_OK:
            res.errors.append("a transversal the solver found fails verify")
        return res
    doc = _load(cmd.out)
    if cmd.kind == "structure":
        if doc is None:
            res.errors.append("no report written")
            return res
        violated = any(item["verdict"] == "violated" for item in doc["lemmas"])
        if code != (EXIT_VIOLATION if violated else EXIT_OK):
            res.errors.append(f"exit {code} disagrees with the lemma verdicts")
        res.verdicts = 1
    elif cmd.kind == "discharge":
        if doc is None:
            res.errors.append("no report written")
            return res
        audit = doc["audit"]
        if not (audit["euler_identity_ok"] and audit["conservation_ok"]):
            res.errors.append("ledger fails the -8 identity or conservation")
        if code != (EXIT_VIOLATION if audit["negatives"] else EXIT_OK):
            res.errors.append(f"exit {code} disagrees with the negative charges")
        res.verdicts = 1
    elif cmd.kind == "solve":
        _check_solve(cmd, code, doc, res)
    elif cmd.kind == "hunt":
        _check_hunt(cmd, code, doc, res)
    return res


def _check_solve(cmd, code, doc, res: Outcome) -> None:
    cover = _requested_cover(cmd)
    defects = None
    if cmd.meta["mode"] == "defect":
        defects = DefectVector(tuple(int(x) for x in cmd.meta["defects"].split(",")))
    if code == EXIT_EXHAUSTED:
        return
    res.verdicts = 1
    if code == EXIT_VIOLATION:
        _check_none(res, cover, defects, "solve")
        return
    if doc is None:
        res.errors.append("FOUND without a transversal file")
        return
    written = cover_from_json(json.dumps(doc["cover"]), graph=cover.graph)
    if written.lists != cover.lists or dict(written.matchings) != dict(cover.matchings):
        res.errors.append("transversal file holds another cover than the one requested")
        return
    assignment = {int(v): c for v, c in doc["assignment"].items()}
    if defects is None:
        order = tuple((v, c) for v, c in doc["order"])
        passed = verify_ba(cover, OrderedTransversal(assignment, order)).passed
    else:
        passed = verify_defective(cover, assignment, defects).passed
    if not passed:
        res.errors.append("FOUND transversal fails verification")


def _check_hunt(cmd, code, doc, res: Outcome) -> None:
    if doc is None:
        res.errors.append("no report written")
        return
    expected = (EXIT_VIOLATION if doc["candidates"]
                else EXIT_EXHAUSTED if doc["exhausted"] else EXIT_OK)
    if code != expected:
        res.errors.append(f"exit {code} disagrees with the hunt report")
    seeds = cmd.meta["seeds"]
    undecided = {e["seed"] for e in doc["exhausted"]} | {c["seed"] for c in doc["candidates"]}
    if doc["found"] + len(doc["candidates"]) + len(doc["exhausted"]) != len(seeds):
        res.errors.append("hunt report does not account for every seed")
    graph = cmd.graph.graph
    for seed in seeds:
        if seed in undecided:
            continue
        cover = random_cover(graph, cmd.meta["k"], seed, True)
        out = find_ba(cover, node_limit=cmd.meta["limit"])
        if out.status is not SearchStatus.FOUND or not verify_ba(cover, out.ordered).passed:
            res.errors.append(f"seed {seed}: counted FOUND but not found and verified again")
    for cand in doc["candidates"]:
        _check_none(res, cover_from_json(cand["cover"]), None, f"hunt seed {cand['seed']}")
    res.verdicts = doc["found"] + len(doc["candidates"])
