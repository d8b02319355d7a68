"""Small helpers shared by the machine-readable outputs.

Rationals are serialized as "p/q" strings so exactness survives JSON.
Every report and cover file is written by ``dump_json``, the one source
of the format; the command line reads cover and transversal files back
with ``read_json``.
"""

from __future__ import annotations

import json
from fractions import Fraction

TOOL_VERSION = "0.1.0"


def frac_str(x: Fraction | int) -> str:
    n, d = (x if isinstance(x, Fraction) else Fraction(x)).as_integer_ratio()
    return f"{n}/{d}" if d != 1 else str(n)


def dump_json(doc: dict) -> str:
    """``json.dumps(doc, sort_keys=True)``: one line, keys sorted, and
    non-ASCII characters as ``\\uXXXX`` escapes.  ``python -m json.tool``
    indents it for reading."""
    return json.dumps(doc, sort_keys=True)


def read_json(text: str, what: str):
    """The values of JSON ``text``.  A repeated key, which json reads
    last-wins, and nesting deeper than the decoder follows raise
    ValueError, with a message that starts with ``what``."""
    def unique_keys(pairs: list[tuple[str, object]]) -> dict:
        doc = dict(pairs)
        if len(doc) < len(pairs):
            seen = set()
            for key, _ in pairs:
                if key in seen:
                    raise ValueError(f"{what}: key {key!r} appears twice")
                seen.add(key)
        return doc

    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except RecursionError:
        raise ValueError(f"{what}: nested too deep to read") from None


def reducible_to_json(r) -> dict:
    return {"kind": r.kind, "vertices": list(r.vertices), "detail": r.detail}


def ledger_to_json(ledger, report=None) -> dict:
    """Ledger as a JSON document: charges as "p/q", itemized transfers.

    ``report`` is the ledger's audit when the caller already has it.
    """
    from .discharge import audit

    if report is None:
        report = audit(ledger)
    return {
        "ruleset": ledger.ruleset.value,
        "initial": {k: frac_str(v) for k, v in sorted(ledger.initial.items())},
        "transfers": [
            {"source": source, "target": target, "amount": frac_str(amount),
             "rule": rule, "phase": phase}
            for source, target, amount, rule, phase in ledger.transfers
        ],
        "final": {k: frac_str(v) for k, v in sorted(report.final.items())},
        "beta": {f"f{fid}": frac_str(b) for fid, b in sorted(ledger.betas.items())},
        "flags": list(ledger.flags),
        "rule_violations": list(ledger.rule_violations),
        "audit": {
            "sum_initial": frac_str(report.sum_initial),
            "sum_final": frac_str(report.sum_final),
            "euler_identity_ok": report.euler_identity_ok,
            "conservation_ok": report.conservation_ok,
            "negatives": [
                {"element": n.key, "final": frac_str(n.final),
                 "reducible": [reducible_to_json(r) for r in n.nearby_reducible],
                 "hypothesis_notes": n.hypothesis_notes}
                for n in report.negatives
            ],
        },
    }
