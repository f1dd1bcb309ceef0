"""JSON and DOT serialization for posets and spaces.

Poset files carry {"elements": [...], "leq": [[a, b], ...]} where the
pairs may be any generating relation — loading takes the transitive
closure and re-validates.  Space files carry {"points": [...],
"opens": [[...], ...]} with every open written out as a point list.
Emission is canonical (cover pairs only, sorted), so a save/load
round trip is the identity.
"""

from __future__ import annotations

import json

from .errors import InputError
from .posets import FinPoset, cover_pairs, validate_poset
from .spaces import FinSpace, make_space


def poset_to_json(poset: FinPoset) -> dict:
    pairs = sorted(
        (poset.labels[i], poset.labels[j]) for i, j in poset.covers()
    )
    return {
        "elements": list(poset.labels),
        "leq": [list(p) for p in pairs],
    }


def _labels(value, what: str) -> list:
    """`value` itself when it is a list of string labels."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise InputError(f"{what} must be a list of string labels")
    return value


def poset_from_json(data) -> FinPoset:
    if not isinstance(data, dict):
        raise InputError("poset document must be a JSON object")
    try:
        elements = data["elements"]
        leq = data["leq"]
    except (KeyError, TypeError):
        raise InputError('poset document needs "elements" and "leq"') from None
    elements = _labels(elements, '"elements"')
    if not isinstance(leq, list):
        raise InputError('"leq" must be a list of [a, b] pairs')
    pairs = []
    for entry in leq:
        if len(_labels(entry, '"leq" entries')) != 2:
            raise InputError('"leq" entries must be [a, b] pairs')
        pairs.append(tuple(entry))
    return validate_poset(tuple(elements), tuple(pairs))


def space_to_json(space: FinSpace) -> dict:
    return {
        "points": list(space.labels),
        "opens": [list(space.labels_of_mask(u)) for u in space.opens],
    }


def space_from_json(data) -> FinSpace:
    if not isinstance(data, dict):
        raise InputError("space document must be a JSON object")
    try:
        points = data["points"]
        opens = data["opens"]
    except (KeyError, TypeError):
        raise InputError('space document needs "points" and "opens"') from None
    points = _labels(points, '"points"')
    if not isinstance(opens, list):
        raise InputError('"opens" must be a list of point lists')
    index = {p: i for i, p in enumerate(points)}
    masks = []
    for u in opens:
        m = 0
        for p in _labels(u, '"opens" entries'):
            if p not in index:
                raise InputError(f"open set names unknown point {p!r}")
            m |= 1 << index[p]
        masks.append(m)
    return make_space(tuple(points), tuple(masks))


def _load(path: str, reader):
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None
    return reader(data)


def load_poset(path: str) -> FinPoset:
    return _load(path, poset_from_json)


def load_space(path: str) -> FinSpace:
    return _load(path, space_from_json)


# ---------------------------------------------------------------------------
# DOT emission


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _hasse_dot(name: str, labels, up, down) -> str:
    """DOT text of a preorder's Hasse diagram (`cover_pairs`), drawn bottom
    to top."""
    lines = [f"digraph {_dot_quote(name)} {{", "  rankdir=BT;"]
    for lbl in labels:
        lines.append(f"  {_dot_quote(lbl)};")
    for i, j in cover_pairs(up, down):
        lines.append(
            f"  {_dot_quote(labels[i])} -> {_dot_quote(labels[j])};"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def poset_dot(poset: FinPoset, name: str = "poset") -> str:
    """Hasse diagram, lower elements drawn below their covers."""
    return _hasse_dot(name, poset.labels, poset.up, poset.down)


def space_dot(space: FinSpace, name: str = "space") -> str:
    """Hasse diagram of the specialization preorder.

    Hyperspace points arrive already labeled by their closed-set
    contents, so the same renderer serves both levels.
    """
    return _hasse_dot(name, space.labels, space.spec_up, space.spec_down)
