"""Span recording for the traced run, from outside the program.

``Tracer.install`` replaces each layer's public functions, in every
loaded ``dpcharge`` module that binds them, with a wrapper that records
a span: name, start, end, parent span and op id.  Nothing inside
``src/`` is changed; ``uninstall`` puts the originals back.  Spans stay
in memory until the run ends.  A layer is a module: its busy time is
the time covered by its outermost spans, its self time the part of its
spans that no child span covers.
"""

from __future__ import annotations

import sys
import threading
from contextlib import contextmanager
from time import perf_counter_ns


def _search_counts(prefix: str):
    def counts(args, kwargs, r) -> dict:
        cover = args[0] if args else kwargs["cover"]
        v = cover.graph.vertex_count
        return {f"{prefix}_nodes": r.nodes_expanded,
                f"{prefix}_placed": v if r.status.value == "found" else 0,
                "solver.exhausted": int(r.status.value == "budget-exhausted"),
                "solver.backtracked": int(r.nodes_expanded > v), "solver.searches": 1}
    return counts


# (module, function, span name, counters taken from the arguments and result)
TARGETS = (
    ("dpcharge.cli", "cli_dispatch", "cli.dispatch", None),
    ("dpcharge.rotfile", "parse_rotation_file", "rotfile.parse",
     lambda a, k, r: {"rotfile.bytes": len(a[0] if a else k["text"])}),
    ("dpcharge.rotfile", "serialize_rotation_file", "rotfile.serialize", None),
    ("dpcharge.planegraph", "build_plane_graph", "planegraph.build",
     lambda a, k, r: {"planegraph.faces": r.face_count,
                     "planegraph.components": len(r.components)}),
    ("dpcharge.cycles", "cycles_of_length", "cycles.search",
     lambda a, k, r: {"cycles.found": len(r)}),
    ("dpcharge.structure", "check_profile", "structure.check_profile", None),
    ("dpcharge.structure", "classify_vertices", "structure.classify", None),
    ("dpcharge.structure", "find_reducible", "structure.reducible", None),
    ("dpcharge.discharge", "run_rules", "discharge.run_rules",
     lambda a, k, r: {"discharge.transfers": len(r.transfers)}),
    ("dpcharge.discharge", "audit", "discharge.audit",
     lambda a, k, r: {"discharge.negatives": len(r.negatives)}),
    ("dpcharge.lemmas", "check_structural_lemmas", "lemmas.check", None),
    ("dpcharge.lemmas", "special_vertex_analysis", "lemmas.special", None),
    ("dpcharge.reporting", "ledger_to_json", "reporting.ledger_json", None),
    ("dpcharge.reporting", "dump_json", "reporting.dump_json", None),
    ("dpcharge.cover", "random_cover", "cover.random_cover", None),
    ("dpcharge.cover", "cover_to_json", "cover.to_json", None),
    ("dpcharge.cover", "cover_from_json", "cover.from_json", None),
    ("dpcharge.cover", "validate_cover", "cover.validate", None),
    ("dpcharge.solver", "find_ba", "solver.find_ba", _search_counts("solver.find_ba")),
    ("dpcharge.solver", "find_defective_dp", "solver.find_defective",
     _search_counts("solver.find_defective")),
    ("dpcharge.solver", "verify_ba", "solver.verify", None),
    ("dpcharge.solver", "verify_defective", "solver.verify", None),
    ("dpcharge.hunt", "hunt", "hunt.run",
     lambda a, k, r: {"hunt.jobs": r.found + len(r.candidates) + len(r.exhausted)}),
)

class Tracer:
    def __init__(self):
        # (name, start_ns, end_ns, parent index, op id, counters)
        self.spans: list[tuple] = []
        self.op = 0
        self._local = threading.local()
        self._lock = threading.Lock()  # hunt may call wrapped functions from a pool
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, fn, counters, args, kwargs):
        counts = {} if counters else None
        with self.span(name, counts):
            result = fn(*args, **kwargs)
        if counters:  # the span tuple holds this dict, so it sees the update
            counts.update(counters(args, kwargs, result))
        return result

    @contextmanager
    def span(self, name: str, counts: dict | None = None):
        """Record a span around the body; the body may fill ``counts``."""
        stack = self._stack()
        with self._lock:
            sid = len(self.spans)
            self.spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(sid)
        t0 = perf_counter_ns()
        try:
            yield counts
        finally:
            t1 = perf_counter_ns()
            stack.pop()
            self.spans[sid] = (name, t0, t1, parent, self.op, counts)

    def install(self) -> None:
        loaded = [m for n, m in list(sys.modules.items())
                  if m is not None and (n == "dpcharge" or n.startswith("dpcharge."))]
        for module, func, name, counters in TARGETS:
            original = getattr(sys.modules[module], func)

            def wrapper(*args, _fn=original, _name=name, _counters=counters, **kwargs):
                return self._call(_name, _fn, _counters, args, kwargs)

            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()


def aggregate(spans: list[tuple], lo: int = 0, hi: int | None = None) -> dict[str, float]:
    """Per module: calls, busy and self ms; per span name: busy ms; counter sums.

    Covers spans[lo:hi], which must hold whole ops (every parent inside).
    """
    hi = len(spans) if hi is None else hi
    out: dict[str, float] = {}
    child_ns = [0] * len(spans)
    for name, t0, t1, parent, _, _ in spans[lo:hi]:
        if parent >= 0:
            child_ns[parent] += t1 - t0

    def outermost(i: int, same) -> bool:
        p = spans[i][3]
        while p >= 0:
            if same(spans[p][0]):
                return False
            p = spans[p][3]
        return True

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0.0) + value

    for i in range(lo, hi):
        name, t0, t1, _, _, counts = spans[i]
        module = name.split(".", 1)[0]
        dur_ms = (t1 - t0) / 1e6
        add(f"{module}.calls", 1)
        add(f"{module}.self_ms", dur_ms - child_ns[i] / 1e6)
        if outermost(i, lambda n: n.split(".", 1)[0] == module):
            add(f"{module}.busy_ms", dur_ms)
        if outermost(i, lambda n: n == name):
            add(f"{name}_ms", dur_ms)
        for key, value in (counts or {}).items():
            add(key, value)
    return out
