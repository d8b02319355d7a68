#!/usr/bin/env python3
"""dpcharge benchmark: seeded graph families fed to the real CLI.

    python3 bench/run.py --workload audit|hunt|decide --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Each workload (see ``workloads.py``) is a closed loop with one
client that runs a fixed, seeded list of CLI commands in-process through
``dpcharge.cli.cli_dispatch``, with output captured, in whole passes
until ``--seconds`` have elapsed and at least MIN_PASSES passes ran.  One
untimed warm-up pass comes first; ``gate.py`` checks its outputs in full,
and every later run of a command must repeat its exit code and report
digest.  ``DPCHARGE_THREADS`` is unset.

On a shared machine other load can slow the same code by up to 1.7x
for seconds to minutes at a time (seen on a 2-core VM).  So a command's latency is
the median over its passes, the percentiles are taken over the commands
of one pass, and throughput is commands (or verdicts) per second of the
summed command latencies.  A slow spell that lasts longer than a run
still moves all of these, so every time is also scaled to a reference
speed: after each command, outside its timing, the benchmark times a
fixed pure-Python loop that never calls the program, and every time of
the run, set-up included, is multiplied by REF_MS over the median of
those loop times (a rate is divided by it).  Over ten 40-second runs of
decide with different seeds on a 2-core VM, the spread (quartile distance
over median) of its throughput was 0.16 in wall-clock time and 0.03
scaled.  The wall-clock values are printed in the log lines.  A program
change that slowed the interpreter as a whole, for example a thread left
spinning, would slow the loop too and not show.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` is the
separate traced run: each pass runs every command untraced and traced
back to back (their difference is the tracing overhead), then it sweeps
every layer's public functions directly on the workload's graphs, and
reports per-layer metrics.  Spans, input properties and metrics are written to
``bench/results/`` when the run ends.

The metric names and units are read from ``BENCHMARK.json``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--size smoke`` runs the
smallest inputs.  When the outputs change on purpose, the failing canary
prints its new digest; copy it into ``golden.json`` by hand.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from random import Random

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(BENCH, "golden.json")
RESULTS = os.path.join(BENCH, "results")
WORK = os.path.join(BENCH, ".work")

SETUP_REPS = 9
# Median time of reference_ms() on a 2-core x86-64 VM at its usual speed;
# a scaled time reads as a wall time on that machine.
REF_MS = 0.14
MIN_PASSES = 3
SWEEP_LIMIT = 5000
HUNT_PROBE_MAX_V = 200


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("audit", "hunt", "decide"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    return p.parse_args(argv)


# -- set-up -------------------------------------------------------------


def _ref_step(x: int, i: int) -> int:
    return (x * 31 + i) % 100003


def reference_ms() -> float:
    """Time a fixed pure-Python loop (calls, integer arithmetic, a growing
    dict and list) that never touches the program."""
    t0 = time.perf_counter_ns()
    x, table, seq = 1, {}, []
    for i in range(400):
        x = _ref_step(x, i)
        table[i] = x
        seq.append(table[i] & 255)
    return (time.perf_counter_ns() - t0) / 1e6


def scaled(value: float, unit: str, ref: list[float]) -> float:
    """A measured value at the reference speed, given the reference loop
    times taken in the same run: times shrink and rates grow when the
    machine ran slower than REF_MS."""
    slow = statistics.median(ref) / REF_MS
    if unit in ("ms", "s"):
        return value / slow
    if unit == "1/s":
        return value * slow
    return value


def setup(workload: str, seed: int, size: str, workdir: str):
    """Import the program and generate and write the inputs, SETUP_REPS
    times from a clean module table; returns the median time and the last
    rep's CLI module, plan and gate module."""
    times = []
    for _ in range(SETUP_REPS):
        shutil.rmtree(workdir, ignore_errors=True)
        for name in [m for m in sys.modules
                     if m == "dpcharge" or m.startswith("dpcharge.")
                     or m in ("graphs", "workloads", "gate")]:
            del sys.modules[name]
        t0 = time.perf_counter()
        cli = importlib.import_module("dpcharge.cli")
        workloads = importlib.import_module("workloads")
        plan = workloads.build(workload, seed, size, workdir)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), cli, plan, importlib.import_module("gate")


# -- the closed loop ----------------------------------------------------


def run_cmd(cli, argv, out: str):
    if out and os.path.exists(out):
        os.remove(out)
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        t0 = time.perf_counter_ns()
        try:
            code = cli.cli_dispatch(argv)  # looked up per call, so tracing can wrap it
        except Exception as exc:  # a traceback is a failed command, not a crash
            code = f"exception {type(exc).__name__}: {exc}"
        t1 = time.perf_counter_ns()
    return code, (t1 - t0) / 1e6


def run_command(cli, gate, cmds, i: int, records: list, tracer=None) -> None:
    """Run command i; records (key, exit code, ms, report digest).

    A key is the command's index, or the index plus len(cmds) for the
    verify that follows a solve which wrote a transversal.  The digest is
    taken right after the command, so each record pairs an exit code with
    the report that same run wrote."""
    cmd = cmds[i]
    if tracer:
        tracer.op += 1
    code, ms = run_cmd(cli, cmd.argv, cmd.out)
    records.append((i, code, ms, gate.digest(cmd.out)))
    if cmd.follow is not None and code == 0 and os.path.exists(cmd.out):
        if tracer:
            tracer.op += 1
        code, ms = run_cmd(cli, cmd.follow.argv, "")
        records.append((i + len(cmds), code, ms, None))


def run_pass(cli, gate, cmds, records: list, ref: list | None = None) -> None:
    for i in range(len(cmds)):
        run_command(cli, gate, cmds, i, records)
        if ref is not None:
            ref.append(reference_ms())


def by_key(plan, key: int):
    n = len(plan.cmds)
    return plan.cmds[key] if key < n else plan.cmds[key - n].follow


def warm_up(cli, plan, gate) -> tuple[dict, dict]:
    """One untimed pass, gated in full; returns per-key outcomes and the
    (exit code, digest) that every later run of the key must repeat."""
    warm: list = []
    run_pass(cli, gate, plan.cmds, warm)
    outcomes = {key: gate.check(by_key(plan, key), code) for key, code, _, _ in warm}
    return outcomes, {key: (code, dig) for key, code, _, dig in warm}


def canary(cli, gate, workloads, workload: str, workdir: str) -> str:
    """Combined digest of the reports for the fixed smoke inputs of seed 0."""
    plan = workloads.build(workload, 0, "smoke", workdir)
    records: list = []
    run_pass(cli, gate, plan.cmds, records)
    h = hashlib.sha256()
    for key, code, _, dig in records:
        h.update(f"{key} {code} {dig}\n".encode())
    return h.hexdigest()


# -- the traced sweep ---------------------------------------------------


def sweep(tracer, plan, seed: int) -> None:
    """Call each layer's public functions directly on the workload's graphs."""
    from dpcharge import (cycles, discharge, lemmas, reporting, rotfile, solver,
                          structure)
    from dpcharge import cover as cov

    hunt = importlib.import_module("dpcharge.hunt")  # the package exports a function "hunt"

    rng = Random(f"sweep:{seed}")
    for g in plan.graphs:
        tracer.op += 1
        graph, _ = rotfile.parse_rotation_file(g.text)
        with tracer.span("planegraph.adjacent_faces", {}) as counts:
            counts["planegraph.adjacent_pairs"] = sum(len(graph.adjacent_faces(f))
                                                      for f in graph.faces)
        for k in (4, 6, 8):
            cycles.cycles_of_length(graph, k)
        c = cov.random_cover(graph, 3, rng.randrange(1 << 20), True)
        with tracer.span("cover.json_roundtrip"):
            cov.cover_from_json(cov.cover_to_json(c))
    smallest: dict[str, object] = {}
    for g in plan.graphs:
        if g.family not in smallest or g.graph.vertex_count < smallest[g.family].graph.vertex_count:
            smallest[g.family] = g
    for g in smallest.values():
        tracer.op += 1
        graph = g.graph
        for profile in structure.Profile:
            structure.check_profile(graph, profile)
            lemmas.check_structural_lemmas(graph, profile)
        structure.classify_vertices(graph)
        structure.find_reducible(graph)
        lemmas.special_vertex_analysis(graph)
        if graph.is_connected:
            for rules in discharge.RuleSet:
                ledger = discharge.run_rules(graph, rules)
                discharge.audit(ledger)
                reporting.ledger_to_json(ledger)
        c = cov.random_cover(graph, 3, rng.randrange(1 << 20), True)
        solver.find_ba(c, node_limit=SWEEP_LIMIT)
        solver.find_defective_dp(c, solver.DefectVector((0, 2, 2)), node_limit=SWEEP_LIMIT)
    groups: dict[str, list] = {}
    for g in plan.graphs:
        if g.graph.vertex_count <= HUNT_PROBE_MAX_V:
            for profile in g.admissible_for:
                if len(groups.setdefault(profile, [])) < 3:
                    groups[profile].append((g.name, g.graph))
    base = rng.randrange(1 << 20)
    for threads in (1, 2):
        tracer.op += 1
        with tracer.span(f"hunt.threads{threads}"):
            for profile, graphs in sorted(groups.items()):
                hunt.hunt(structure.Profile(profile), 3, range(base, base + 2), graphs,
                          threads=threads)


def input_properties(plan, layers: dict) -> dict:
    from dpcharge.structure import Profile, check_profile

    import graphs as gen

    sizes = [g.graph.vertex_count for g in plan.graphs]
    pairs = [check_profile(g.graph, p).cycles_ok for g in plan.graphs for p in Profile]
    searches = layers.get("solver.searches", 0)
    return {
        "graphs": len(plan.graphs),
        "commands_per_pass": len(plan.cmds),
        "vertex_range": [min(sizes), max(sizes)],
        "face_degree_histogram": gen.face_degree_histogram([g.graph for g in plan.graphs]),
        "admissible_share": sum(pairs) / len(pairs),
        "searches": searches,
        "backtracked_share": layers.get("solver.backtracked", 0) / searches if searches else None,
    }


# -- main -----------------------------------------------------------------


def quantile90(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10)[8]


def measure(args, cli, plan, gate):
    records: list = []
    ref: list = []
    passes = 0
    t0 = time.perf_counter()
    while passes < MIN_PASSES or time.perf_counter() - t0 < args.seconds:
        run_pass(cli, gate, plan.cmds, records, ref)
        passes += 1
    return records, ref, passes, time.perf_counter() - t0


def command_latencies(records) -> dict[int, float]:
    """Each command's median latency over the passes it ran in."""
    per_key: dict[int, list[float]] = {}
    for key, _, ms, _ in records:
        per_key.setdefault(key, []).append(ms)
    return {key: statistics.median(v) for key, v in per_key.items()}


def traced(args, cli, plan, gate):
    import spans

    tracer = spans.Tracer()
    plain, records, per_pass, ref = [], [], [], []
    t0 = time.perf_counter()
    while len(per_pass) < MIN_PASSES - 1 or time.perf_counter() - t0 < args.seconds:
        lo = len(tracer.spans)
        for i in range(len(plan.cmds)):
            # untraced and traced back to back, in alternating order, so a
            # change of machine load falls on both sides of the overhead
            for traced_run in (False, True) if i % 2 else (True, False):
                if not traced_run:
                    run_command(cli, gate, plan.cmds, i, plain)
                    continue
                tracer.install()
                try:
                    run_command(cli, gate, plan.cmds, i, records, tracer)
                finally:
                    tracer.uninstall()
            ref.append(reference_ms())
        layer = spans.aggregate(tracer.spans, lo)
        layer["trace.spans"] = len(tracer.spans) - lo
        per_pass.append(layer)
    lo = len(tracer.spans)
    tracer.install()
    try:
        sweep(tracer, plan, args.seed)
    finally:
        tracer.uninstall()
    swept = spans.aggregate(tracer.spans, lo)
    keys = set(swept).union(*per_pass)
    layers = {k: statistics.median(p.get(k, 0.0) for p in per_pass) + swept.get(k, 0.0)
              for k in keys}
    layers["trace.overhead_frac"] = (sum(command_latencies(records).values())
                                     / sum(command_latencies(plain).values()) - 1)
    layers["trace.ops"] = tracer.op
    nodes = layers.get("solver.find_ba_nodes", 0)
    layers["solver.find_ba_useful_ratio"] = layers.get("solver.find_ba_placed", 0) / nodes if nodes else 0.0
    searches = layers.get("solver.searches", 0)
    layers["solver.backtracked_frac"] = layers.get("solver.backtracked", 0) / searches if searches else 0.0
    cli_only = {k: statistics.median(p.get(k, 0.0) for p in per_pass) for k in keys}
    return records, plain, ref, layers, cli_only, tracer.spans


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dpcharge", "cli.py")):
        print(f"error: no dpcharge sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH)
    os.environ.pop("DPCHARGE_THREADS", None)
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir: str) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    setup_s, cli, plan, gate = setup(args.workload, args.seed, args.size,
                                     os.path.join(workdir, "inputs"))
    import dpcharge
    import workloads

    if os.path.dirname(os.path.dirname(os.path.abspath(dpcharge.__file__))) != SRC:
        print(f"error: dpcharge was imported from {dpcharge.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    outcomes, reference = warm_up(cli, plan, gate)
    if args.trace:
        records, plain, ref, layers, cli_only, span_list = traced(args, cli, plan, gate)
        runs = records + plain
    else:
        records, ref, passes, wall = measure(args, cli, plan, gate)
        runs = records
    for key, code, _, dig in runs:
        outcome = outcomes.setdefault(key, gate.Outcome())
        if reference.get(key) != (code, dig) and not outcome.errors:
            outcome.errors.append("exit code or report differs from the gated warm-up")

    golden_digest = canary(cli, gate, workloads, args.workload,
                           os.path.join(workdir, "canary"))
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        golden = json.load(fh)
    canary_ok = golden.get(args.workload) == golden_digest

    bad = {key for key, o in outcomes.items() if o.errors}
    attempted = len(runs)
    failed = sum(1 for key, _, _, _ in runs if key in bad)
    undecided = sum(1 for _, code, _, _ in runs if code == 3)
    verdicts = sum(outcomes[key].verdicts for key, _, _, _ in records if key not in bad)
    unverified = sum(outcomes[key].unverified for key, _, _, _ in records)
    correct = failed == 0 and canary_ok

    lines = [f"workload {args.workload} seed {args.seed} size {args.size} "
             f"trace {args.trace}: {attempted} commands attempted"]
    for key in sorted(bad):
        lines.append(f"  FAILED {' '.join(by_key(plan, key).argv[:1])} "
                     f"{os.path.basename(by_key(plan, key).argv[1])}: "
                     + "; ".join(outcomes[key].errors))
    if not canary_ok:
        lines.append(f"  FAILED canary digest {golden_digest} != recorded "
                     f"{golden.get(args.workload)}")
    lines.append(f"  error_frac {failed / attempted:.6f} ratio; undecided_frac "
                 f"{undecided / attempted:.6f} ratio; unverified NONE {unverified}")

    result: dict = {"workload": args.workload, "seed": args.seed, "size": args.size,
                    "trace": args.trace, "correct": correct, "attempted": attempted,
                    "failed": failed}
    if args.trace:
        wall_clock = {m["name"]: layers.get(m["name"], 0.0) for m in spec["per_layer"]}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        result["input_properties"] = input_properties(plan, cli_only)
        result["spans_fields"] = ["name", "start_ns", "end_ns", "parent", "op", "counts"]
        result["spans"] = span_list
        lines.append("  input properties: " + json.dumps(result["input_properties"]))
    else:
        lat = list(command_latencies(records).values())
        busy_s = sum(lat) / 1000
        p90 = quantile90(lat)
        wall_clock = {
            "setup_s": setup_s,
            "cmds_per_s": len(lat) / busy_s,
            "cmd_p50_ms": statistics.median(lat),
            "cmd_p90_ms": p90,
            "verdicts_per_s": verdicts / passes / busy_s,
            "decided_frac": 1 - undecided / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        lines.append(f"  {passes} passes in {wall:.3f} s; {len(lat)} latency samples "
                     f"(median of each command's passes), {sum(1 for x in lat if x > p90)} "
                     f"beyond p90")
    lines.append(f"  reference loop median {statistics.median(ref):.4f} ms over "
                 f"{len(ref)} samples (REF_MS {REF_MS})")
    metrics = {}
    for name, unit in units.items():
        value = scaled(wall_clock[name], unit, ref)
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"  {name} {value:.6g} {unit} (wall clock {wall_clock[name]:.6g})")
    result["metrics"] = metrics
    result["log"] = lines

    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
