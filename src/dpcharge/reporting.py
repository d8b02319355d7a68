"""Small helpers shared by the machine-readable outputs.

Rationals are serialized as "p/q" strings so exactness survives JSON.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

TOOL_VERSION = "0.1.0"


def frac_str(x: Fraction | int) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


def input_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def dump_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=1)


def ledger_to_json(ledger, report=None) -> dict:
    """Ledger as a JSON document: charges as "p/q", itemized transfers.

    ``report`` is the ledger's audit when the caller already has it.
    """
    from .discharge import audit

    if report is None:
        report = audit(ledger)
    return {
        "ruleset": ledger.ruleset.value if ledger.ruleset else None,
        "initial": {k: frac_str(v) for k, v in sorted(ledger.initial.items())},
        "transfers": [
            {"source": t.source, "target": t.target, "amount": frac_str(t.amount),
             "rule": t.rule, "phase": t.phase}
            for t in ledger.transfers
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
                 "reducible": [{"kind": r.kind, "vertices": list(r.vertices),
                                "detail": r.detail} for r in n.nearby_reducible],
                 "hypothesis_notes": list(n.hypothesis_notes)}
                for n in report.negatives
            ],
        },
    }
