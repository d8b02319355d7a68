"""Hunting: seeded adversarial covers against the order-constrained solver.

For each admissible graph and each seed, build a full-matching random
cover and search for an order-constrained (B_A) coloring.  A definitive
"none" is a candidate, a cover with no B_A coloring to be inspected (not
a counterexample to the paper's DP-(0,2,2) theorem: on one transversal,
B_A neither implies (0,2,2) nor follows from it).  Its full cover is
serialized and replayed at once, and the verdicts must match.  Budget
exhaustions are listed separately: they decide nothing.

Graphs that fail the profile's cycle conditions are skipped with a
note, since the theorems say nothing about them.

``threads`` > 1 evaluates (graph, seed) pairs on a thread pool; report
assembly stays deterministic regardless.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cover import cover_from_json, cover_to_json, random_cover
from .planegraph import PlaneGraph
from .reporting import TOOL_VERSION
from .rotfile import graph_hash
from .solver import DEFAULT_NODE_LIMIT, SearchStatus, find_ba
from .structure import Profile, check_profile


@dataclass(frozen=True)
class HuntCandidate:
    graph_name: str
    seed: int
    cover_json: str
    replay_verdict: str


@dataclass
class HuntReport:
    command: str
    profile: Profile
    k: int
    seeds: tuple[int, ...]
    graphs: tuple[tuple[str, str], ...]  # (name, input hash)
    skipped: list[tuple[str, str]] = field(default_factory=list)  # (name, reason)
    found: int = 0
    candidates: list[HuntCandidate] = field(default_factory=list)
    exhausted: list[tuple[str, int]] = field(default_factory=list)  # (name, seed)

    def to_json(self) -> dict:
        return {
            "version": TOOL_VERSION,
            "command": self.command,
            "profile": self.profile.value,
            "k": self.k,
            "seeds": list(self.seeds),
            "graphs": [{"name": n, "hash": h} for n, h in self.graphs],
            "skipped": [{"name": n, "reason": r} for n, r in self.skipped],
            "found": self.found,
            "candidates": [
                {"graph": c.graph_name, "seed": c.seed,
                 "replay_verdict": c.replay_verdict, "cover": c.cover_json}
                for c in self.candidates
            ],
            "exhausted": [{"graph": n, "seed": s} for n, s in self.exhausted],
        }


def hunt(profile: Profile, k: int, seeds: range | list[int],
         graphs: list[tuple[str, PlaneGraph]], node_limit: int = DEFAULT_NODE_LIMIT,
         threads: int = 1, command: str | None = None) -> HuntReport:
    seed_list = tuple(seeds)
    if command is None:
        names = " ".join(name for name, _ in graphs)
        span = f"{seed_list[0]}..{seed_list[-1]}" if seed_list else ""
        command = f"hunt --profile {profile.value} --k {k} --seeds {span} {names}"
    admissible: list[tuple[str, PlaneGraph]] = []
    report = HuntReport(
        command=command,
        profile=profile,
        k=k,
        seeds=seed_list,
        graphs=tuple((name, graph_hash(g, name)) for name, g in graphs),
    )
    for name, g in graphs:
        hyp = check_profile(g, profile)
        if not hyp.cycles_ok:
            report.skipped.append((name, "; ".join(hyp.notes())))
        else:
            admissible.append((name, g))

    # drawn as they run: a list would hold one tuple per graph and seed at once
    jobs = ((name, g, seed) for name, g in admissible for seed in seed_list)

    def run(job):
        name, g, seed = job
        cover = random_cover(g, k, seed, full=True)
        outcome = find_ba(cover, node_limit=node_limit)
        return name, seed, cover, outcome

    def fold(results) -> None:
        # each job is folded in as it finishes, so no cover outlives its job
        for name, seed, cover, outcome in results:
            if outcome.status is SearchStatus.FOUND:
                report.found += 1
            elif outcome.status is SearchStatus.EXHAUSTED:
                report.exhausted.append((name, seed))
            else:
                doc = cover_to_json(cover)
                replay = find_ba(cover_from_json(doc), node_limit=node_limit)
                report.candidates.append(HuntCandidate(
                    graph_name=name, seed=seed, cover_json=doc,
                    replay_verdict=replay.status.value))

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor  # not loaded by a sequential hunt

        with ThreadPoolExecutor(max_workers=threads) as pool:
            fold(pool.map(run, jobs))
    else:
        fold(map(run, jobs))
    return report
