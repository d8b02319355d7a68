"""Command-line surface.

Subcommands: gen, faces, structure, discharge, solve, verify, hunt.
Exit codes: 0 success / verdict passes; 1 violation or hunt
candidate; 2 input or usage error; 3 search budget exhausted.  main()
lets SIGPIPE end a command whose output pipe closes early.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import signal
import sys
from itertools import chain

from .catalog import DEFAULT_CATALOG, MAX_CATALOG_VERTICES, generate
from .cover import (Cover, cover_doc, cover_from_doc, cover_from_json, identity_cover,
                    random_cover)
from .discharge import RuleSet, audit, run_rules
from .hunt import hunt as run_hunt
from .lemmas import Verdict, check_structural_lemmas, special_vertex_analysis
from .planegraph import PlaneGraph
from .reporting import TOOL_VERSION, dump_json, frac_str, ledger_to_json, reducible_to_json
from .rotfile import RotationFileError, graph_hash, load_rotation_file, serialize_rotation_file
from .solver import (DEFAULT_NODE_LIMIT, DefectVector, OrderedTransversal, SearchStatus,
                     find_ba, find_defective_dp, verify_ba, verify_defective)
from .structure import Profile, check_profile, classify_vertices, find_reducible

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_EXHAUSTED = 3

# k sizes every list and matching of a cover; plane graphs are
# DP-5-colorable, so nothing of interest lies past MAX_K
MAX_K = 64
# a hunt lists its seeds, in memory and in its report, so a longer range
# is refused before any seed is listed
MAX_SEEDS = 1_000_000


class CliError(Exception):
    pass


def _load(path: str) -> tuple[PlaneGraph, str]:
    if not os.path.exists(path):
        raise CliError(f"no such file: {path}")
    try:
        return load_rotation_file(path)
    except RotationFileError as exc:
        raise CliError(f"{path}: {exc}") from exc


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="dpcharge",
                                  description="plane-graph coloring and discharging workbench")
    top.add_argument("--version", action="version", version=f"dpcharge {TOOL_VERSION}")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a catalog graph as a rotation file")
    p.add_argument("name", help=f"one of: {', '.join(DEFAULT_CATALOG)}, cycle:N, theta:a,b,c "
                   f"(at most {MAX_CATALOG_VERTICES:,} vertices)")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("faces", help="print the faces of an embedded graph")
    p.add_argument("file")

    p = sub.add_parser("structure", help="hypothesis profile, vertex classes, lemma checks")
    p.add_argument("file")
    p.add_argument("--profile", choices=[x.value for x in Profile], required=True)
    p.add_argument("--json", dest="json_out", metavar="OUT")

    p = sub.add_parser("discharge", help="run a discharging rule set and audit the ledger")
    p.add_argument("file")
    p.add_argument("--rules", choices=[x.value for x in RuleSet], required=True)
    p.add_argument("--json", dest="json_out", metavar="OUT")

    p = sub.add_parser("solve", help="search a cover for a coloring")
    p.add_argument("file")
    p.add_argument("--mode", choices=["ba", "defect"], required=True)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--defects", help="comma-separated budgets, e.g. 0,2,2; "
                   "needed by --mode defect, an error with --mode ba")
    p.add_argument("--cover", choices=["identity", "random", "json"], default="identity")
    p.add_argument("--seed", type=int,
                   help="random cover seed (default 0); an error with any other --cover")
    p.add_argument("--full", action="store_true",
                   help="random cover: perfect matchings; an error with any other --cover")
    p.add_argument("--cover-json", metavar="PATH",
                   help="cover file; needed by --cover json, an error with any other --cover")
    p.add_argument("--limit", type=int, default=DEFAULT_NODE_LIMIT, help="search node budget")
    p.add_argument("--json", dest="json_out", metavar="OUT",
                   help="write the transversal (with its cover) for later verify")

    p = sub.add_parser("verify", help="check a recorded transversal")
    p.add_argument("file")
    p.add_argument("--transversal", required=True, metavar="T_JSON")
    p.add_argument("--order", action="store_true",
                   help="check the left-to-right order conditions")
    p.add_argument("--defects", help="check defective budgets d1,d2,...")

    p = sub.add_parser("hunt", help="seeded hunt for covers with no B_A coloring")
    p.add_argument("graphs", nargs="*",
                   help="catalog names or rotation files (default: whole catalog); "
                   f"a catalog graph has at most {MAX_CATALOG_VERTICES:,} vertices")
    p.add_argument("--profile", choices=[x.value for x in Profile], required=True)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--seeds", default="0..9",
                   help=f"seed range A..B, inclusive, of at most {MAX_SEEDS:,} seeds")
    p.add_argument("--limit", type=int, default=DEFAULT_NODE_LIMIT)
    p.add_argument("--json", dest="json_out", metavar="OUT")
    p.add_argument("--save-dir", metavar="DIR", help="persist candidate covers here")
    return top


def _cmd_gen(args) -> int:
    g = generate(args.name)
    text = serialize_rotation_file(g, name=args.name.replace(" ", ""))
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {args.name}: V={g.vertex_count} E={g.edge_count} F={g.face_count} "
          f"-> {args.output}")
    return EXIT_OK


def _cmd_faces(args) -> int:
    g, name = _load(args.file)
    print(f"{name}: V={g.vertex_count} E={g.edge_count} F={g.face_count} "
          f"connected={g.is_connected}")
    for f in g.faces:
        kind = "cycle" if f.simple else "walk"
        verts = " ".join(str(u) for u in f.boundary_vertices)
        print(f"  face {f.id}: degree {f.degree} ({kind}) [{verts}]")
    return EXIT_OK


def _cmd_structure(args) -> int:
    g, name = _load(args.file)
    profile = Profile(args.profile)
    hyp = check_profile(g, profile)
    print(f"{name}: profile {profile.value}")
    print(f"  connected: {hyp.connected}; minimum degree: {hyp.min_degree}")
    print(f"  4-cycle-free: {hyp.four_cycle is None}"
          + (f" (witness {hyp.four_cycle})" if hyp.four_cycle else ""))
    print(f"  {hyp.other_length}-cycle-free: {hyp.other_cycle is None}"
          + (f" (witness {hyp.other_cycle})" if hyp.other_cycle else ""))
    cls = classify_vertices(g)
    print(f"  3-vertices: {len(cls.bad3) + len(cls.good3)} "
          f"(bad {len(cls.bad3)}, good {len(cls.good3)}, special {len(cls.special)})")
    red = find_reducible(g)
    print(f"  reducible configurations: {len(red)}")
    for r in red:
        print(f"    [{r.kind}] {r.detail}")
    items = check_structural_lemmas(g, profile)
    for item in items:
        line = f"    {item.item}: {item.verdict.value}"
        if item.verdict is Verdict.HYPOTHESIS_NOT_MET:
            line += (f" (conclusion {'holds' if item.conclusion_holds else 'fails'}"
                     + (f", witness {item.witness}" if item.witness else "") + ")")
        elif item.witness:
            line += f" witness {item.witness}"
        print(line)
    if profile is Profile.NO48:
        for rec in special_vertex_analysis(g):
            print(f"    special vertex {rec.vertex}: identification "
                  f"{'ok' if rec.identification_ok else 'FAILED'}, "
                  f"one 3-face {'ok' if rec.one_triangle_ok else 'FAILED'}, "
                  f"uniqueness {'ok' if rec.uniqueness_ok else 'FAILED'}")
    if args.json_out:
        doc = {
            "version": TOOL_VERSION,
            "command": f"structure {args.file} --profile {args.profile}",
            "input_hash": graph_hash(g, name),
            "profile": profile.value,
            "hypothesis": {
                "connected": hyp.connected,
                "min_degree": hyp.min_degree,
                "four_cycle": list(hyp.four_cycle) if hyp.four_cycle else None,
                f"{hyp.other_length}_cycle":
                    list(hyp.other_cycle) if hyp.other_cycle else None,
                "cycles_ok": hyp.cycles_ok,
            },
            "reducible": [reducible_to_json(r) for r in red],
            "lemmas": [{"item": r.item, "verdict": r.verdict.value,
                        "conclusion_holds": r.conclusion_holds,
                        "witness": repr(r.witness) if r.witness else None,
                        "notes": list(r.hypothesis_notes)}
                       for r in items],
        }
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(dump_json(doc))
    return EXIT_VIOLATION if any(r.verdict is Verdict.VIOLATED for r in items) else EXIT_OK


def _cmd_discharge(args) -> int:
    g, name = _load(args.file)
    ledger = run_rules(g, RuleSet(args.rules))
    report = audit(ledger)
    print(f"{name}: rules {args.rules}, {len(ledger.transfers)} transfers")
    print(f"  sum of initial charges: {frac_str(report.sum_initial)} "
          f"(identity -8: {'ok' if report.euler_identity_ok else 'VIOLATED'})")
    print(f"  conservation: {'ok' if report.conservation_ok else 'VIOLATED'}")
    for note in ledger.flags + ledger.rule_violations:
        print(f"  note: {note}")
    if report.negatives:
        lines = [f"  elements with negative final charge: {len(report.negatives)}"]
        for n in report.negatives:
            lines.append(f"    {n.key}: {frac_str(n.final)}")
            lines += [f"      reducible [{r.kind}] {r.detail}" for r in n.nearby_reducible]
            lines += [f"      hypothesis: {note}" for note in n.hypothesis_notes]
        print("\n".join(lines))
    if args.json_out:
        doc = ledger_to_json(ledger, report)
        doc["version"] = TOOL_VERSION
        doc["command"] = f"discharge {args.file} --rules {args.rules}"
        doc["input_hash"] = graph_hash(g, name)
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(dump_json(doc))
        print(f"  ledger written to {args.json_out}")
    return EXIT_VIOLATION if report.negatives else EXIT_OK


# each option of solve that is read with one value of another: (option, other, value)
_READ_ONLY_WITH = (("--cover-json", "cover", "json"), ("--defects", "mode", "defect"),
                   ("--seed", "cover", "random"), ("--full", "cover", "random"))


def _make_cover(args, g: PlaneGraph) -> Cover:
    if args.cover == "identity":
        return identity_cover(g, args.k)
    if args.cover == "random":
        return random_cover(g, args.k, args.seed or 0, args.full)
    if not args.cover_json:
        raise CliError("--cover json requires --cover-json PATH")
    try:
        with open(args.cover_json, "r", encoding="utf-8") as fh:
            return cover_from_json(fh.read(), graph=g)
    except OSError as exc:
        raise CliError(f"cannot read cover: {exc}")


def _parse_defects(spec: str) -> DefectVector:
    try:
        budgets = tuple(int(x) for x in spec.split(","))
    except ValueError:
        raise CliError(f"--defects must be comma-separated integers, got {spec!r}") from None
    return DefectVector(budgets)


def _check_limit(limit: int) -> None:
    if limit < 1:
        raise CliError(f"--limit must be at least 1, got {limit}")


def _check_k(k: int) -> None:
    if not 1 <= k <= MAX_K:
        raise CliError(f"--k must be between 1 and {MAX_K}, got {k}")


def _cmd_solve(args) -> int:
    _check_limit(args.limit)
    _check_k(args.k)
    g, name = _load(args.file)
    for option, other, value in _READ_ONLY_WITH:  # an option given is never ignored
        given = getattr(args, option[2:].replace("-", "_"))
        if given is not None and given is not False and getattr(args, other) != value:
            raise CliError(f"{option} is read only with --{other} {value}, "
                           f"not --{other} {getattr(args, other)}")
    cover = _make_cover(args, g)
    if args.mode == "defect":
        if not args.defects:
            raise CliError("--mode defect requires --defects d1,d2,...")
        d = _parse_defects(args.defects)
        outcome = find_defective_dp(cover, d, node_limit=args.limit)
        ordered = None
        assignment = outcome.transversal
    else:
        outcome = find_ba(cover, node_limit=args.limit)
        ordered = outcome.ordered
        assignment = ordered.assignment if ordered else None

    print(f"{name}: mode {args.mode}, cover {args.cover}"
          + (f" seed {args.seed or 0} full {args.full}" if args.cover == "random" else "")
          + f" -> {outcome.status.value} ({outcome.nodes_expanded} nodes)")
    if assignment:
        items = " ".join(f"{v}->{assignment[v]}" for v in sorted(assignment))
        print(f"  coloring: {items}")
    if ordered:
        print("  order: " + " ".join(f"({v},{c})" for v, c in ordered.order))
    if args.json_out and assignment:
        doc = {
            "version": TOOL_VERSION,
            "command": f"solve {args.file} --mode {args.mode} --cover {args.cover}",
            "graph_hash": graph_hash(g, name),
            "mode": args.mode,
            "k": cover.k,
            "assignment": {str(v): c for v, c in assignment.items()},
            "cover": cover_doc(cover),
        }
        if ordered:
            doc["order"] = [[v, c] for v, c in ordered.order]
        if args.mode == "defect":
            doc["defects"] = list(d.budgets)
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(dump_json(doc))
        print(f"  transversal written to {args.json_out}")
    if outcome.status is SearchStatus.FOUND:
        return EXIT_OK
    if outcome.status is SearchStatus.EXHAUSTED:
        return EXIT_EXHAUSTED
    return EXIT_VIOLATION


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A transversal object, refused if a key repeats (json keeps the last)."""
    doc: dict = {}
    for key, value in pairs:
        if key in doc:
            raise CliError(f"malformed transversal: key {key!r} appears twice")
        doc[key] = value
    return doc


def _vertex_id(key: str) -> int:
    """The vertex an assignment key names: only str(v) spells vertex v."""
    try:
        if str(v := int(key)) == key:
            return v
    except ValueError:
        pass
    raise CliError(f"malformed transversal: assignment key {key!r} is not a vertex id")


def _cmd_verify(args) -> int:
    g, name = _load(args.file)
    try:
        with open(args.transversal, "r", encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read transversal: {exc}")
    if not isinstance(doc, dict):
        raise CliError("transversal file is not a JSON object")
    for key in ("cover", "assignment", "graph_hash"):
        if key not in doc:
            raise CliError(f"transversal file has no {key!r} entry")
    recorded = doc["graph_hash"]
    actual = graph_hash(g, name)
    if recorded != actual:
        raise CliError(f"transversal was recorded for graph hash {recorded}, "
                       f"but {args.file} hashes to {actual}")
    try:
        cover = cover_from_doc(doc["cover"], graph=g)
        assignment = {_vertex_id(v): c for v, c in doc["assignment"].items()}
    except (KeyError, TypeError, AttributeError) as exc:
        raise CliError(f"malformed transversal: {exc!r}")
    order, budgets = doc.get("order", []), doc.get("defects", [])
    if not (isinstance(order, list) and all(isinstance(e, list) and len(e) == 2 for e in order)):
        raise CliError("malformed transversal: order must be a list of [vertex, color] pairs")
    if not isinstance(budgets, list):
        raise CliError("malformed transversal: defects must be a list of budgets")
    if not set(map(type, chain(assignment.values(), *order, budgets))) <= {int}:
        raise CliError("malformed transversal: colors, order entries and defects must be integers")
    # with no flag given, the recorded order is checked, else the recorded budgets
    check_order = args.order or ("order" in doc and not args.defects)
    if args.defects or check_order:
        budgets = args.defects or []
    if not (check_order or budgets):
        raise CliError("nothing to verify: the transversal has no order and no defects; "
                       "pass --order or --defects")
    ok = True
    if check_order:
        if "order" not in doc:
            raise CliError("transversal file has no order array")
        ot = OrderedTransversal(assignment, tuple(map(tuple, order)))
        report = verify_ba(cover, ot)
        if report.passed:
            print(f"{name}: order conditions pass")
        else:
            v = report.violation
            print(f"{name}: condition ({v.condition}) violated at position "
                  f"{v.position}: {v.detail}")
            ok = False
    if budgets:  # --defects is parsed only here, after any order verdict is printed
        d = _parse_defects(args.defects) if args.defects else DefectVector(tuple(budgets))
        report = verify_defective(cover, assignment, d)
        if report.passed:
            print(f"{name}: defective budgets respected")
        else:
            for v, c, deg, budget in report.violations:
                print(f"{name}: vertex {v} color {c}: degree {deg} > budget {budget}")
            ok = False
    return EXIT_OK if ok else EXIT_VIOLATION


def _parse_seed_range(spec: str) -> range:
    if ".." in spec:
        a, b = spec.split("..", 1)
        return range(int(a), int(b) + 1)
    return range(int(spec), int(spec) + 1)


def _cmd_hunt(args) -> int:
    _check_limit(args.limit)
    _check_k(args.k)
    names = list(args.graphs) or list(DEFAULT_CATALOG)
    graphs: list[tuple[str, PlaneGraph]] = []
    for name in names:
        if os.path.exists(name):
            g, label = _load(name)
            graphs.append((label, g))
        else:
            graphs.append((name, generate(name)))
    for i, (label, _) in enumerate(graphs):  # candidate files are named after the graphs
        if args.save_dir and (os.sep in label or "\0" in label):
            raise CliError(f"--save-dir: graph name {label!r} cannot be part of a file name")
        if args.save_dir and label in (other for other, _ in graphs[:i]):
            raise CliError(f"--save-dir: two graphs are named {label!r}")
    try:
        seeds = _parse_seed_range(args.seeds)
    except ValueError:
        raise CliError(f"bad seed range {args.seeds!r}, expected A..B")
    if not seeds:
        raise CliError(f"empty seed range {args.seeds!r}: A must not exceed B")
    if seeds.stop - seeds.start > MAX_SEEDS:
        raise CliError(f"seed range {args.seeds!r} holds more than {MAX_SEEDS:,} seeds")
    profile = Profile(args.profile)
    command = (f"hunt --profile {args.profile} --k {args.k} "
               f"--seeds {args.seeds} {' '.join(names)}")
    report = run_hunt(profile, args.k, seeds, graphs, node_limit=args.limit,
                      command=command)
    print(f"hunt: profile {profile.value}, k={args.k}, seeds {args.seeds}")
    for name, reason in report.skipped:
        print(f"  skipped {name}: {reason}")
    print(f"  found: {report.found}; candidates: {len(report.candidates)}; "
          f"exhausted: {len(report.exhausted)}")
    if args.save_dir and report.candidates:
        os.makedirs(args.save_dir, exist_ok=True)
        for c in report.candidates:
            path = os.path.join(args.save_dir, f"candidate-{c.graph_name}-{c.seed}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(c.cover_json)
            print(f"  candidate cover saved: {path} (replay: {c.replay_verdict})")
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(dump_json(report.to_json()))
    if report.candidates:
        return EXIT_VIOLATION
    if report.exhausted:
        return EXIT_EXHAUSTED
    return EXIT_OK


_COMMANDS = {
    "gen": _cmd_gen,
    "faces": _cmd_faces,
    "structure": _cmd_structure,
    "discharge": _cmd_discharge,
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "hunt": _cmd_hunt,
}


def cli_dispatch(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    # a reader that closes the pipe early ends the process as it ends cat
    # or head: killed by SIGPIPE, with nothing on stderr
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
