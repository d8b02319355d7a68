"""Small helpers shared by the machine-readable outputs.

Rationals are serialized as "p/q" strings so exactness survives JSON.
"""

from __future__ import annotations

import functools
import hashlib
from fractions import Fraction
from itertools import repeat
from json.encoder import c_make_encoder, encode_basestring_ascii

TOOL_VERSION = "0.1.0"


def frac_str(x: Fraction | int) -> str:
    n, d = (x if isinstance(x, Fraction) else Fraction(x)).as_integer_ratio()
    return f"{n}/{d}" if d != 1 else str(n)


def input_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def dump_json(doc: dict) -> str:
    """``json.dumps(doc, sort_keys=True, indent=1)``, byte for byte.

    The stdlib writes indented output with its pure-Python encoder.  Here
    the C encoder writes every container whose children are all scalars
    in one call, and a container reached twice is written once per dump.
    """
    out: list[str] = []
    _write(doc, 0, out, {})
    return "".join(out)


_CONTAINERS = (list, tuple, dict)
_SCALARS = frozenset([str, int, float, bool, type(None)])


def _unserializable(o):
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


@functools.cache
def _flat_writer(level: int):
    """The C encoder, compact except that items are separated by a line
    break and ``level`` spaces: the indented form of a flat container
    whose children sit at ``level``."""
    return c_make_encoder(None, _unserializable, encode_basestring_ascii, None,
                          ": ", ",\n" + " " * level, True, False, True)


def _write(o, level: int, out: list[str], memo: dict) -> None:
    """Append the text of ``o`` to ``out``; ``memo`` maps a container
    already written at ``level`` to the slice of ``out`` holding it."""
    if isinstance(o, str):
        out.append(encode_basestring_ascii(o))
        return
    if not isinstance(o, _CONTAINERS):
        out += _flat_writer(0)(o, 0)
        return
    key = (id(o), level)  # every container lives as long as the dump
    span = memo.get(key)
    if span is not None:
        out += out[span[0]:span[1]]
        return
    start = len(out)
    _write_container(o, level, out, memo)
    memo[key] = (start, len(out))


def _write_container(o, level: int, out: list[str], memo: dict) -> None:
    is_dict = isinstance(o, dict)
    if not o:
        out.append("{}" if is_dict else "[]")
        return
    inner = level + 1
    children = o.values() if is_dict else o
    # exact scalar types are the common case and cheaper to test than isinstance
    if (_SCALARS.issuperset(map(type, children))
            or not any(map(isinstance, children, repeat(_CONTAINERS)))):
        flat = "".join(_flat_writer(inner)(o, 0))
        out.append(f"{flat[0]}\n{' ' * inner}{flat[1:-1]}\n{' ' * level}{flat[-1]}")
        return
    sep = ",\n" + " " * inner
    out.append(("{" if is_dict else "[") + sep[1:])
    if is_dict:
        for i, (k, v) in enumerate(sorted(o.items())):
            out.append(f"{sep if i else ''}{_key(k)}: ")
            _write(v, inner, out, memo)
    else:
        for i, v in enumerate(o):
            if i:
                out.append(sep)
            _write(v, inner, out, memo)
    out.append(f"\n{' ' * level}{'}' if is_dict else ']'}")


def _key(k) -> str:
    # the stdlib's key conversion: str as is, float/int/bool/None as their literal
    if not isinstance(k, str):
        if not (k is None or isinstance(k, (int, float))):
            raise TypeError(f"keys must be str, int, float, bool or None, "
                            f"not {k.__class__.__name__}")
        k = "".join(_flat_writer(0)(k, 0))
    return encode_basestring_ascii(k)


def reducible_to_json(r) -> dict:
    return {"kind": r.kind, "vertices": list(r.vertices), "detail": r.detail}


def ledger_to_json(ledger, report=None) -> dict:
    """Ledger as a JSON document: charges as "p/q", itemized transfers.

    ``report`` is the ledger's audit when the caller already has it.  A
    reducible configuration near several negative elements, and the
    hypothesis notes that every negative element carries, are one object
    each in the document, so ``dump_json`` writes them once.
    """
    from .discharge import audit

    if report is None:
        report = audit(ledger)
    configs: dict = {}
    notes: dict = {}
    for n in report.negatives:
        for r in n.nearby_reducible:
            if r not in configs:
                configs[r] = reducible_to_json(r)
        if n.hypothesis_notes not in notes:
            notes[n.hypothesis_notes] = list(n.hypothesis_notes)
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
                 "reducible": [configs[r] for r in n.nearby_reducible],
                 "hypothesis_notes": notes[n.hypothesis_notes]}
                for n in report.negatives
            ],
        },
    }
