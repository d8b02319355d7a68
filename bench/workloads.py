"""The three workloads as fixed, seeded lists of CLI commands.

Each workload is a closed loop with one client: the benchmark sends the
next command only after the previous one returned.  The seed fixes the
graphs (through the generators) and the cover seeds; the program sees
only the rotation files and cover files written here.

- ``audit``: ``structure`` and ``discharge`` under both profiles on
  diagonal grids (triangle-rich, fail both profiles), honeycombs
  (no48-admissible) and subdivided grids (no46-admissible).  Loads the
  graph-analysis layers and never the solver; the admissible half forces
  exhaustive cycle searches, the diagonal grids let a search stop early.
- ``hunt``: ``hunt`` in seed blocks of full random covers on admissible
  graphs.  ``find_ba`` does nearly all the work and does not backtrack
  there, so this is the workload for constant-factor solver work and the
  one where graph-analysis changes should show no change.
- ``decide``: ``solve`` where the search must backtrack or cannot decide
  within its budget: defective colourings of full random covers of small
  triangle-rich grids, and the padded NONE gadget, each with a fixed
  ``--limit``.  Every transversal found is read back with ``verify``.

``decide`` also bypasses the graph-analysis layers, and ``hunt`` bypasses
both the lemma checks and the backtracking search.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from random import Random

import graphs as gen

WORKLOADS = ("audit", "hunt", "decide")

# (family, rows, cols, graphs) per size; cycles use rows as their length.
# Many small graphs and a few large ones: every pass needs at least 100
# commands so the latency p90 has ten samples beyond it.  The lemma
# checks stop at the first witness, so diagonal grids vary in cost from
# seed to seed; honeycombs and subdivided grids, whose cost does not, are
# numerous enough at both ends to hold the median and the p90 command.
# The counts put the median and the p90 inside a dense band of command
# costs, not at the edge of a gap, so a small shift in the order of the
# commands does not move them far: in audit the median falls among the
# ~31 ms discharges of the small honeycombs and diagonal grids, and the
# p90 among the 250-390 ms commands on the largest graphs.
AUDIT_SIZES = {
    "full": [("diag", 8, 8, 6),
             ("hex", 6, 11, 9), ("hex", 8, 15, 2), ("hex", 12, 25, 4),
             ("subgrid", 5, 5, 6), ("subgrid", 7, 7, 2), ("subgrid", 11, 12, 4)],
    "smoke": [("diag", 5, 5, 1), ("hex", 4, 7, 1), ("subgrid", 3, 3, 1)],
}
# hunt: (family, rows, cols, seed blocks); each block is HUNT_BLOCK seeds.
# The p90 falls among the 18 blocks on graphs of V 176-190, whose costs
# (110-210 ms) depend on the cover, so that band is wide enough for its
# quantile not to move with the seed.
HUNT_SIZES = {
    "full": [("hex", 6, 11, 20), ("hex", 8, 13, 10), ("hex", 10, 19, 6), ("hex", 12, 25, 1),
             ("subgrid", 5, 5, 20), ("subgrid", 6, 6, 10), ("subgrid", 8, 8, 6),
             ("subgrid", 10, 10, 1),
             ("cycle", 60, 0, 20), ("cycle", 100, 0, 10), ("cycle", 180, 0, 6),
             ("cycle", 300, 0, 1)],
    "smoke": [("hex", 4, 7, 1), ("subgrid", 3, 3, 1), ("cycle", 12, 0, 1)],
}
HUNT_BLOCK = 2
HUNT_LIMIT = 2_000_000

# decide: (grid side, graphs, defective covers per graph, B_A covers per graph).
# Whether a search exhausts its budget depends more on the graph than on
# the cover, so the solves are spread over many graphs with few covers
# each; that keeps the share of undecided solves, and with it the
# throughput, from swinging with the seed.
DECIDE_GRIDS = {"full": [(6, 40, 4, 0), (8, 8, 3, 1)], "smoke": [(5, 1, 2, 1)]}
DECIDE_GADGETS = {"full": (60, 30), "smoke": (1, 20)}  # (count, isolated vertices)
DEFECTS = "0,2,2"
SOLVE_LIMIT = 5000


@dataclass
class Cmd:
    kind: str  # structure | discharge | solve | verify | hunt
    argv: list[str]
    out: str  # JSON file the command writes
    graph: gen.Generated
    meta: dict = field(default_factory=dict)
    follow: "Cmd | None" = None  # verify run after a solve that wrote a transversal


@dataclass
class Plan:
    graphs: list[gen.Generated]
    cmds: list[Cmd]


def _expand(sizes):
    for family, a, b, count in sizes:
        for _ in range(count):
            yield family, a, b


def _make(family: str, a: int, b: int, seed: int) -> gen.Generated:
    if family == "diag":
        return gen.diagonal_grid(a, b, seed)
    if family == "hex":
        return gen.honeycomb(a, b, seed)
    if family == "subgrid":
        return gen.subdivided_grid(a, b, seed)
    return gen.cycle(a, seed)


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _graph_file(workdir: str, g: gen.Generated) -> str:
    return _write(os.path.join(workdir, g.name + ".pg"), g.text)


def build(workload: str, seed: int, size: str, workdir: str) -> Plan:
    """Generate the inputs, write them under workdir and list the commands."""
    rng = Random(f"{workload}:{seed}")
    os.makedirs(workdir, exist_ok=True)
    out = lambda stem: os.path.join(workdir, stem + ".json")  # noqa: E731
    graphs: list[gen.Generated] = []
    cmds: list[Cmd] = []

    if workload == "audit":
        for family, a, b in _expand(AUDIT_SIZES[size]):
            g = _make(family, a, b, rng.randrange(1 << 30))
            graphs.append(g)
            path = _graph_file(workdir, g)
            for profile, rules in (("no48", "rs48"), ("no46", "rs46")):
                o = out(f"{g.name}-structure-{profile}")
                cmds.append(Cmd("structure", ["structure", path, "--profile", profile,
                                              "--json", o], o, g))
                o = out(f"{g.name}-discharge-{rules}")
                cmds.append(Cmd("discharge", ["discharge", path, "--rules", rules,
                                              "--json", o], o, g))

    elif workload == "hunt":
        for i, (family, a, b, blocks) in enumerate(HUNT_SIZES[size]):
            g = _make(family, a, b, rng.randrange(1 << 30))
            graphs.append(g)
            path = _graph_file(workdir, g)
            profile = {"hex": "no48", "subgrid": "no46"}.get(family, ("no48", "no46")[i % 2])
            base = rng.randrange(1 << 20)
            for blk in range(blocks):
                lo = base + blk * HUNT_BLOCK
                hi = lo + HUNT_BLOCK - 1
                o = out(f"{g.name}-hunt-{lo}")
                cmds.append(Cmd("hunt", ["hunt", path, "--profile", profile, "--k", "3",
                                         "--seeds", f"{lo}..{hi}", "--limit", str(HUNT_LIMIT),
                                         "--json", o], o, g,
                                {"seeds": list(range(lo, hi + 1)), "k": 3, "limit": HUNT_LIMIT}))

    elif workload == "decide":
        for side, count, covers, ba_covers in DECIDE_GRIDS[size]:
            for _ in range(count):
                g = gen.diagonal_grid(side, side, rng.randrange(1 << 30))
                graphs.append(g)
                path = _graph_file(workdir, g)
                for mode, n in (("defect", covers), ("ba", ba_covers)):
                    for _ in range(n):
                        s = rng.randrange(1 << 20)
                        o = out(f"{g.name}-{mode}-{s}")
                        argv = ["solve", path, "--mode", mode, "--k", "3", "--cover", "random",
                                "--seed", str(s), "--full", "--limit", str(SOLVE_LIMIT),
                                "--json", o]
                        meta = {"mode": mode, "cover": "random", "seed": s, "k": 3}
                        check = ["--order"]
                        if mode == "defect":
                            argv[4:4] = ["--defects", DEFECTS]
                            check = ["--defects", DEFECTS]
                            meta["defects"] = DEFECTS
                        follow = Cmd("verify", ["verify", path, "--transversal", o] + check,
                                     "", g)
                        cmds.append(Cmd("solve", argv, o, g, meta, follow))
        count, padding = DECIDE_GADGETS[size]
        for _ in range(count):
            g, cover_text = gen.gadget(padding, rng.randrange(1 << 30))
            graphs.append(g)
            path = _graph_file(workdir, g)
            cover_path = _write(os.path.join(workdir, g.name + "-cover.json"), cover_text)
            o = out(f"{g.name}-ba")
            cmds.append(Cmd("solve", ["solve", path, "--mode", "ba", "--cover", "json",
                                      "--cover-json", cover_path, "--limit", str(SOLVE_LIMIT),
                                      "--json", o], o, g,
                            {"mode": "ba", "cover": "json", "cover_path": cover_path}))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return Plan(graphs, cmds)
