"""File formats: JSON fan and endomorphism documents."""

from __future__ import annotations

import json
from typing import NamedTuple

from .errors import InputError


class FanDocument(NamedTuple):
    dim: int
    rays: tuple[tuple[int, ...], ...]
    cones: tuple[tuple[int, ...], ...]
    name: str = ""


def _load_json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError("%s: syntax error at line %d, column %d: %s"
                         % (what, exc.lineno, exc.colno, exc.msg)) from exc


def _int_vector(obj, what: str):
    if (not isinstance(obj, list)
            or not all(isinstance(e, int) and not isinstance(e, bool)
                       for e in obj)):
        raise InputError("%s must be a list of integers, got %r" % (what, obj))
    return tuple(obj)


def parse_fan(text: str) -> FanDocument:
    """Parse a fan document; diagnostics carry line/column on syntax errors."""
    data = _load_json(text, "fan document")
    if not isinstance(data, dict):
        raise InputError("fan document must be a JSON object")
    for key in ("dim", "rays", "cones"):
        if key not in data:
            raise InputError("fan document is missing %r" % key)
    dim = data["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise InputError("dim must be a positive integer")
    if not isinstance(data["rays"], list) or not isinstance(data["cones"], list):
        raise InputError("rays and cones must be lists")
    rays = tuple(_int_vector(r, "ray %d" % i)
                 for i, r in enumerate(data["rays"]))
    cones = tuple(_int_vector(c, "cone %d" % i)
                  for i, c in enumerate(data["cones"]))
    name = data.get("name", "")
    if not isinstance(name, str):
        raise InputError("name must be a string")
    return FanDocument(dim=dim, rays=rays, cones=cones, name=name)


def parse_endo(text: str) -> tuple[tuple[int, ...], ...]:
    """The rows of an endomorphism document's square integer matrix."""
    data = _load_json(text, "endomorphism document")
    if not isinstance(data, dict) or "matrix" not in data:
        raise InputError("endomorphism document must be an object with 'matrix'")
    if not isinstance(data["matrix"], list) or not data["matrix"]:
        raise InputError("matrix must be a non-empty list of rows")
    rows = tuple(_int_vector(r, "matrix row %d" % i)
                 for i, r in enumerate(data["matrix"]))
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise InputError("matrix must be square")
    return rows
