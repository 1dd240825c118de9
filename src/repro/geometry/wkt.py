"""Well-Known Text reader and writer.

Supports the seven simple-features types used across the paper's datasets:
POINT, LINESTRING, POLYGON, MULTIPOINT, MULTILINESTRING, MULTIPOLYGON and
GEOMETRYCOLLECTION, plus the EMPTY keyword.
"""

from __future__ import annotations

import math
import re
from typing import List, Tuple

from repro.geometry.base import Geometry
from repro.geometry.errors import WKTParseError
from repro.geometry.linestring import LineString
from repro.geometry.multi import (
    GeometryCollection,
    MultiLineString,
    MultiPoint,
    MultiPolygon,
)
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon

Coordinate = Tuple[float, float]

_TOKEN_RE = re.compile(
    r"""
    (?P<word>[A-Za-z]+)
  | (?P<number>[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<comma>,)
  | (?P<ws>\s+)
    """,
    re.VERBOSE,
)


class _Tokens:
    """A tiny cursor over the WKT token stream."""

    def __init__(self, text: str) -> None:
        self._items: List[Tuple[str, str]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                raise WKTParseError(
                    f"unexpected character {text[pos]!r} at offset {pos}"
                )
            kind = m.lastgroup or ""
            if kind != "ws":
                self._items.append((kind, m.group()))
            pos = m.end()
        self._idx = 0

    def peek(self) -> Tuple[str, str]:
        if self._idx >= len(self._items):
            return ("eof", "")
        return self._items[self._idx]

    def next(self) -> Tuple[str, str]:
        tok = self.peek()
        self._idx += 1
        return tok

    def expect(self, kind: str) -> str:
        got_kind, value = self.next()
        if got_kind != kind:
            raise WKTParseError(f"expected {kind}, got {value!r}")
        return value

    @property
    def exhausted(self) -> bool:
        return self._idx >= len(self._items)


def loads_wkt(text: str) -> Geometry:
    """Parse a WKT string into a geometry object."""
    from repro.geometry.errors import GeometryError

    tokens = _Tokens(text)
    try:
        geom = _parse_geometry(tokens)
    except WKTParseError:
        raise
    except GeometryError as exc:
        # Structurally invalid geometry inside syntactically valid WKT
        # (e.g. a two-coordinate polygon ring) is still a parse failure.
        raise WKTParseError(str(exc)) from exc
    if not tokens.exhausted:
        raise WKTParseError(f"trailing input after geometry: {tokens.peek()[1]!r}")
    return geom


def _parse_geometry(tokens: _Tokens) -> Geometry:
    keyword = tokens.expect("word").upper()
    if keyword == "POINT":
        coords = _parse_coord_list(tokens, empty_ok=True)
        if not coords:
            return MultiPoint([])  # POINT EMPTY has no Point representation
        if len(coords) != 1:
            raise WKTParseError("POINT must have exactly one coordinate")
        return Point(*coords[0])
    if keyword == "LINESTRING":
        coords = _parse_coord_list(tokens, empty_ok=True)
        if not coords:
            return MultiLineString([])
        return LineString(coords)
    if keyword == "POLYGON":
        rings = _parse_ring_list(tokens)
        if not rings:
            return MultiPolygon([])
        return Polygon(rings[0], rings[1:])
    if keyword == "MULTIPOINT":
        return MultiPoint(Point(*c) for c in _parse_multipoint(tokens))
    if keyword == "MULTILINESTRING":
        return MultiLineString(
            LineString(r) for r in _parse_ring_list(tokens, min_len=2)
        )
    if keyword == "MULTIPOLYGON":
        return MultiPolygon(_parse_multipolygon(tokens))
    if keyword == "GEOMETRYCOLLECTION":
        return GeometryCollection(_parse_collection(tokens))
    raise WKTParseError(f"unknown geometry type {keyword!r}")


def _is_empty(tokens: _Tokens) -> bool:
    kind, value = tokens.peek()
    if kind == "word" and value.upper() == "EMPTY":
        tokens.next()
        return True
    return False


def _parse_coord(tokens: _Tokens) -> Coordinate:
    x = _parse_ordinate(tokens)
    y = _parse_ordinate(tokens)
    # Silently accept and drop a Z/M ordinate.
    while tokens.peek()[0] == "number":
        _parse_ordinate(tokens)
    return (x, y)


def _parse_ordinate(tokens: _Tokens) -> float:
    text = tokens.expect("number")
    value = float(text)
    if not math.isfinite(value):
        # e.g. 1e999: an overflowing literal would become inf, which
        # no geometry operation (or the WKT writer) can represent.
        raise WKTParseError(f"coordinate {text!r} is not finite")
    return value


def _parse_coord_list(tokens: _Tokens, empty_ok: bool = False) -> List[Coordinate]:
    if empty_ok and _is_empty(tokens):
        return []
    tokens.expect("lparen")
    coords = [_parse_coord(tokens)]
    while tokens.peek()[0] == "comma":
        tokens.next()
        coords.append(_parse_coord(tokens))
    tokens.expect("rparen")
    return coords


def _parse_ring_list(
    tokens: _Tokens, min_len: int = 4
) -> List[List[Coordinate]]:
    if _is_empty(tokens):
        return []
    tokens.expect("lparen")
    rings = [_parse_coord_list(tokens)]
    while tokens.peek()[0] == "comma":
        tokens.next()
        rings.append(_parse_coord_list(tokens))
    tokens.expect("rparen")
    return rings


def _parse_multipoint(tokens: _Tokens) -> List[Coordinate]:
    if _is_empty(tokens):
        return []
    tokens.expect("lparen")
    coords: List[Coordinate] = []
    while True:
        # Both MULTIPOINT (1 2, 3 4) and MULTIPOINT ((1 2), (3 4)) are legal.
        if tokens.peek()[0] == "lparen":
            tokens.next()
            coords.append(_parse_coord(tokens))
            tokens.expect("rparen")
        else:
            coords.append(_parse_coord(tokens))
        if tokens.peek()[0] == "comma":
            tokens.next()
            continue
        break
    tokens.expect("rparen")
    return coords


def _parse_multipolygon(tokens: _Tokens) -> List[Polygon]:
    if _is_empty(tokens):
        return []
    tokens.expect("lparen")
    polys: List[Polygon] = []
    while True:
        rings = _parse_ring_list(tokens)
        polys.append(Polygon(rings[0], rings[1:]))
        if tokens.peek()[0] == "comma":
            tokens.next()
            continue
        break
    tokens.expect("rparen")
    return polys


def _parse_collection(tokens: _Tokens) -> List[Geometry]:
    if _is_empty(tokens):
        return []
    tokens.expect("lparen")
    geoms = [_parse_geometry(tokens)]
    while tokens.peek()[0] == "comma":
        tokens.next()
        geoms.append(_parse_geometry(tokens))
    tokens.expect("rparen")
    return geoms


# -- serialisation -----------------------------------------------------------


def _fmt(value: float) -> str:
    """Render a float the way WKT usually does (no trailing zeros)."""
    text = repr(float(value))
    if text.endswith(".0"):
        text = text[:-2]
    return text


def _coords_text(coords) -> str:
    return ", ".join(f"{_fmt(x)} {_fmt(y)}" for x, y in coords)


def dumps_wkt(geom: Geometry) -> str:
    """Serialise a geometry to WKT."""
    if isinstance(geom, Point):
        return f"POINT ({_fmt(geom.x)} {_fmt(geom.y)})"
    if isinstance(geom, Polygon):
        rings = ", ".join(f"({_coords_text(r.coords)})" for r in geom.rings)
        return f"POLYGON ({rings})"
    if isinstance(geom, LineString):
        return f"LINESTRING ({_coords_text(geom.coords)})"
    if isinstance(geom, MultiPoint):
        if geom.is_empty:
            return "MULTIPOINT EMPTY"
        inner = ", ".join(f"({_fmt(p.x)} {_fmt(p.y)})" for p in geom.geoms)
        return f"MULTIPOINT ({inner})"
    if isinstance(geom, MultiLineString):
        if geom.is_empty:
            return "MULTILINESTRING EMPTY"
        inner = ", ".join(f"({_coords_text(g.coords)})" for g in geom.geoms)
        return f"MULTILINESTRING ({inner})"
    if isinstance(geom, MultiPolygon):
        if geom.is_empty:
            return "MULTIPOLYGON EMPTY"
        parts = []
        for poly in geom.geoms:
            rings = ", ".join(f"({_coords_text(r.coords)})" for r in poly.rings)
            parts.append(f"({rings})")
        return f"MULTIPOLYGON ({', '.join(parts)})"
    if isinstance(geom, GeometryCollection):
        if geom.is_empty:
            return "GEOMETRYCOLLECTION EMPTY"
        inner = ", ".join(dumps_wkt(g) for g in geom.geoms)
        return f"GEOMETRYCOLLECTION ({inner})"
    raise TypeError(f"cannot serialise {type(geom).__name__} to WKT")
