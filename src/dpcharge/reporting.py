"""Small helpers shared by the machine-readable outputs.

Rationals are serialized as "p/q" strings so exactness survives JSON.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import chain, repeat
from json.encoder import c_make_encoder, encode_basestring_ascii

TOOL_VERSION = "0.1.0"


def frac_str(x: Fraction | int) -> str:
    n, d = (x if isinstance(x, Fraction) else Fraction(x)).as_integer_ratio()
    return f"{n}/{d}" if d != 1 else str(n)


def dump_json(doc: dict) -> str:
    """``json.dumps(doc, sort_keys=True, indent=1)``, byte for byte.

    The stdlib writes indented output with its pure-Python encoder.  Here
    one C-encoder call writes a flat container, one whose children are
    non-empty flat containers of one kind, or one whose children are
    non-empty lists of non-empty flat lists, as a cover's matchings are.
    Such a container goes item by item when a string in it could be read
    as the text between two children, or the output shows a leaf that is
    a container or an empty list.
    """
    out: list[str] = []
    _write(doc, 0, out)
    return "".join(out)


_CONTAINERS = (list, tuple, dict)
_SCALARS = frozenset([str, int, float, bool, type(None)])
_STR = frozenset([str])
_LISTS = frozenset([list, tuple])
_BRACKETS = {dict: "{}", list: "[]", tuple: "[]"}


def _unserializable(o):
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


@functools.cache
def _flat_writer(level: int):
    """The C encoder, compact except that items are separated by a line
    break and ``level`` spaces: the indented form of a flat container
    whose children sit at ``level``."""
    return c_make_encoder(None, _unserializable, encode_basestring_ascii, None,
                          ": ", ",\n" + " " * level, True, False, True)


def _write(o, level: int, out: list[str]) -> None:
    """Append the text of ``o``, whose items sit at ``level`` + 1, to
    ``out``.  A non-empty container is one C-encoder call when it is flat
    or its children are flat containers of one kind, the record path for a
    list of objects with one key set, and item by item otherwise."""
    if isinstance(o, str):
        out.append(encode_basestring_ascii(o))
        return
    if not isinstance(o, _CONTAINERS):
        out += _flat_writer(0)(o, 0)
        return
    if not o:
        out.append("{}" if isinstance(o, dict) else "[]")
        return
    is_dict = isinstance(o, dict)
    inner = level + 1
    children = o.values() if is_dict else o
    kinds = set(map(type, children))
    if len(kinds) == 1 and _BRACKETS.keys() >= kinds:
        if all(children) and _write_one_kind(o, is_dict, kinds.pop(), level, out):
            return
    # exact scalar types are the common case and cheaper to test than issubclass
    elif kinds <= _SCALARS or not any(issubclass(k, _CONTAINERS) for k in kinds):
        flat = "".join(_flat_writer(inner)(o, 0))
        out.append(f"{flat[0]}\n{' ' * inner}{flat[1:-1]}\n{' ' * level}{flat[-1]}")
        return
    sep = ",\n" + " " * inner
    out.append(("{" if is_dict else "[") + sep[1:])
    if is_dict:
        for i, (k, v) in enumerate(sorted(o.items())):
            out.append(f"{sep if i else ''}{_key(k)}: ")
            _write(v, inner, out)
    else:
        for i, v in enumerate(o):
            if i:
                out.append(sep)
            _write(v, inner, out)
    out.append(f"\n{' ' * level}{'}' if is_dict else ']'}")


def _write_one_kind(o, is_dict: bool, kind: type, level: int, out: list[str]) -> bool:
    """Write ``o``, whose children are non-empty containers of one
    ``kind``, if a fast path fits: one C-encoder call when the children
    are flat or lists of lists, else the record path for a list of objects
    with one key set.  False, having written nothing, when none fits."""
    children = o.values() if is_dict else o
    grandchildren = map(dict.values, children) if kind is dict else children
    text = None
    if all(map(_SCALARS.issuperset, map(map, repeat(type), grandchildren))):
        text = _flat_children(o, is_dict, _BRACKETS[kind], level, 1)
    elif kind is not dict and _LISTS.issuperset(map(type, chain.from_iterable(children))):
        text = _flat_children(o, is_dict, "[]", level, 2)
    elif kind is dict and not is_dict:
        # str keys only: 1, 1.0 and True are equal keys with different text
        keys = o[0].keys()
        if _STR.issuperset(map(type, keys)) and all(map(keys.__eq__, map(dict.keys, o))):
            _write_records(o, level, out)
            return True
    if text is not None:
        out.append(text)
    return text is not None


def _flat_children(o, is_dict: bool, brackets: str, level: int, depth: int) -> str | None:
    """The text of ``o`` from one C-encoder call.  Its children are
    non-empty containers with the ``brackets`` given, flat at ``depth`` 1;
    at depth 2, lists of lists, which the output must show flat and
    non-empty.  None when it does not, or when a string could be mistaken
    for the text between two children.

    The encoder separates items at every depth with a line break and the
    leaves' indent.  It never writes a raw line break in a string, so a
    closing bracket, that separator and an opening bracket (or a key's
    quote) can only be a join of two containers.  Joins are re-indented
    from the outside in, and once re-indented match no deeper pattern.
    """
    text = "".join(_flat_writer(level + depth + 1)(o, 0))
    # the grandchildren are lists, so a surplus bracket is a leaf container or in a string
    if depth == 2 and (text.count("[") + text.count("{") != 1 + len(o) + sum(
            map(len, o.values() if is_dict else o)) or "[]" in text):
        return None
    op, cl, op_in, cl_in = _child_edges(brackets, level, depth)
    ind0, ind1 = " " * level, " " * (level + 1)
    if is_dict:
        # each child opens after its key; a string holding the same text
        # would be taken for an opener, so then the count is off
        opener = f'": {op}'
        if text.count(opener) != len(o):
            return None
        body = text[1:-1 - depth].replace(opener, f'": {op_in}').replace(
            f'{cl},\n{" " * (level + depth + 1)}"', f'{cl_in},\n{ind1}"')
        text = f"{{\n{ind1}{body}{cl_in}\n{ind0}}}"
    else:
        body = _list_joins(text[1 + depth:-1 - depth], brackets, level, depth)
        text = f"[\n{ind1}{op_in}{body}{cl_in}\n{ind0}]"
    return _list_joins(text, "[]", level + 1, 1) if depth == 2 else text


def _list_joins(text: str, brackets: str, level: int, depth: int) -> str:
    """``text`` with each join of two children of a list at ``level``, as
    ``_child_edges`` describes them, re-indented."""
    op, cl, op_in, cl_in = _child_edges(brackets, level, depth)
    return text.replace(f"{cl},\n{' ' * (level + depth + 1)}{op}",
                        f"{cl_in},\n{' ' * (level + 1)}{op_in}")


@functools.cache
def _child_edges(brackets: str, level: int, depth: int) -> tuple[str, str, str, str]:
    """How a child at ``level`` + 1 with ``brackets``, its ends nested
    ``depth`` deep in lists, opens and closes: compact, then indented."""
    opens, closes = [brackets[0]] + ["["] * (depth - 1), ["]"] * (depth - 1) + [brackets[1]]
    return ("".join(opens), "".join(closes),
            "".join(f"{b}\n{' ' * (level + 2 + i)}" for i, b in enumerate(opens)),
            "".join(f"\n{' ' * (level + depth - i)}{b}" for i, b in enumerate(closes)))


def _write_records(o: list, level: int, out: list[str]) -> None:
    """A list of objects with one set of str keys, not all flat: the key
    text is built once per key order and level."""
    inner = level + 1
    sep, end = ",\n" + " " * inner, f"\n{' ' * inner}}}"
    heads = _record_heads(tuple(o[0]), inner)
    out.append("[" + sep[1:])
    for i, rec in enumerate(o):
        if i:
            out.append(sep)
        for head, k in heads:
            v = rec[k]
            if type(v) is str:
                out.append(head + encode_basestring_ascii(v))
            else:
                out.append(head)
                _write(v, inner + 1, out)
        out.append(end)
    out.append(f"\n{' ' * level}]")


@functools.cache
def _record_heads(names: tuple[str, ...], level: int) -> tuple[tuple[str, str], ...]:
    """(text before the value, key) for each key of an object at
    ``level``, in sorted order."""
    pad = "\n" + " " * (level + 1)
    return tuple([(f"{',' if j else '{'}{pad}{encode_basestring_ascii(k)}: ", k)
                  for j, k in enumerate(sorted(names))])


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
