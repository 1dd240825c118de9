"""RDF term model.

Terms are immutable and interning-friendly: the triple store dictionary-
encodes them to integers, so cheap ``__eq__``/``__hash__`` matter more than
rich behaviour.  Literals carry an optional datatype URI or language tag and
expose a best-effort typed Python value (:attr:`Literal.value`), including
geometry values for ``strdf:geometry`` / ``strdf:WKT`` literals.
"""

from __future__ import annotations

import itertools
from datetime import date, datetime
from typing import Any, Optional, Union

_XSD = "http://www.w3.org/2001/XMLSchema#"
_STRDF = "http://strdf.di.uoa.gr/ontology#"

#: Datatypes treated as WKT-serialised geometries (the paper uses both
#: ``strdf:geometry`` and ``strdf:WKT`` in its queries).
GEOMETRY_DATATYPES = frozenset(
    {
        _STRDF + "geometry",
        _STRDF + "WKT",
        "http://www.opengis.net/ont/geosparql#wktLiteral",
    }
)


class Term:
    """Marker base class for RDF terms."""

    __slots__ = ()

    def __getstate__(self) -> dict:
        """Slot-state pickling for immutable ``__slots__`` terms.

        The guarded ``__setattr__`` of the concrete classes breaks the
        default slot restore; collecting and re-applying slot values via
        ``object.__setattr__`` keeps terms picklable across processes.
        """
        state = {}
        for klass in type(self).__mro__:
            for slot in getattr(klass, "__slots__", ()):
                if hasattr(self, slot):
                    state[slot] = getattr(self, slot)
        return state

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)


class URI(Term):
    """An IRI reference."""

    __slots__ = ("value",)

    def __init__(self, value: str) -> None:
        if not value:
            raise ValueError("URI must be non-empty")
        object.__setattr__(self, "value", str(value))

    def __setattr__(self, name: str, val: object) -> None:
        raise AttributeError("URI is immutable")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, URI) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("URI", self.value))

    def __repr__(self) -> str:
        return f"<{self.value}>"

    def n3(self) -> str:
        return f"<{self.value}>"

    def local_name(self) -> str:
        """Heuristic suffix after the last ``#`` or ``/``."""
        for sep in ("#", "/"):
            if sep in self.value:
                return self.value.rsplit(sep, 1)[1]
        return self.value


class BNode(Term):
    """A blank node with a process-unique label."""

    __slots__ = ("label",)

    _counter = itertools.count()

    def __init__(self, label: Optional[str] = None) -> None:
        if label is None:
            label = f"b{next(BNode._counter)}"
        object.__setattr__(self, "label", label)

    def __setattr__(self, name: str, val: object) -> None:
        raise AttributeError("BNode is immutable")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BNode) and self.label == other.label

    def __hash__(self) -> int:
        return hash(("BNode", self.label))

    def __repr__(self) -> str:
        return f"_:{self.label}"

    def n3(self) -> str:
        return f"_:{self.label}"


class Literal(Term):
    """An RDF literal with optional datatype or language tag."""

    __slots__ = ("lexical", "datatype", "language", "_value")

    def __init__(
        self,
        lexical: object,
        datatype: Optional[Union[str, URI]] = None,
        language: Optional[str] = None,
    ) -> None:
        if datatype is not None and language is not None:
            raise ValueError("a literal cannot have both datatype and language")
        inferred: Optional[str] = None
        if isinstance(lexical, bool):
            inferred = _XSD + "boolean"
            lexical = "true" if lexical else "false"
        elif isinstance(lexical, int):
            inferred = _XSD + "integer"
            lexical = str(lexical)
        elif isinstance(lexical, float):
            inferred = _XSD + "double"
            lexical = repr(lexical)
        elif isinstance(lexical, datetime):
            inferred = _XSD + "dateTime"
            lexical = lexical.isoformat()
        elif isinstance(lexical, date):
            inferred = _XSD + "date"
            lexical = lexical.isoformat()
        if datatype is None:
            datatype = inferred
        if isinstance(datatype, URI):
            datatype = datatype.value
        object.__setattr__(self, "lexical", str(lexical))
        object.__setattr__(self, "datatype", datatype)
        object.__setattr__(self, "language", language)
        object.__setattr__(self, "_value", _UNSET)

    @classmethod
    def from_str(
        cls,
        lexical: str,
        datatype: Optional[str] = None,
        language: Optional[str] = None,
    ) -> "Literal":
        """``Literal(lexical, datatype, language)`` for a str lexical
        form and a str datatype or language tag (not both), built
        without ``__init__``'s conversions: the durable decoder reads
        every literal it decodes through here."""
        term = _new(cls)
        _set_lexical(term, lexical)
        _set_datatype(term, datatype)
        _set_language(term, language)
        _set_value(term, _UNSET)
        return term

    def __setattr__(self, name: str, val: object) -> None:
        raise AttributeError("Literal is immutable")

    @property
    def value(self) -> Any:
        """Typed Python value (parsed lazily and cached)."""
        if self._value is _UNSET:
            object.__setattr__(self, "_value", _parse_value(self))
        return self._value

    @property
    def is_geometry(self) -> bool:
        return self.datatype in GEOMETRY_DATATYPES

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Literal)
            and self.lexical == other.lexical
            and self.datatype == other.datatype
            and self.language == other.language
        )

    def __hash__(self) -> int:
        return hash(("Literal", self.lexical, self.datatype, self.language))

    def __repr__(self) -> str:
        return self.n3()

    def n3(self) -> str:
        escaped = (
            self.lexical.replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
        )
        base = f'"{escaped}"'
        if self.language:
            return f"{base}@{self.language}"
        if self.datatype:
            return f"{base}^^<{self.datatype}>"
        return base


_new = object.__new__
# The slot setters, which skip the immutability guard of __setattr__.
_set_lexical = Literal.lexical.__set__
_set_datatype = Literal.datatype.__set__
_set_language = Literal.language.__set__
_set_value = Literal._value.__set__


class Variable(Term):
    """A SPARQL variable (only used inside query patterns)."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        object.__setattr__(self, "name", name.lstrip("?$"))

    def __setattr__(self, name: str, val: object) -> None:
        raise AttributeError("Variable is immutable")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Variable) and self.name == other.name

    def __hash__(self) -> int:
        return hash(("Variable", self.name))

    def __repr__(self) -> str:
        return f"?{self.name}"

    def n3(self) -> str:
        return f"?{self.name}"


class _Unset:
    __slots__ = ()

    def __reduce__(self):
        # Pickling must preserve the sentinel's identity: the lazy
        # ``Literal.value`` check is ``is _UNSET``, so an unpickled copy
        # of the sentinel would permanently mask the parsed value.
        return (_get_unset, ())


def _get_unset() -> "_Unset":
    return _UNSET


_UNSET = _Unset()

_NUMERIC_TYPES = {
    _XSD + "integer": int,
    _XSD + "int": int,
    _XSD + "long": int,
    _XSD + "short": int,
    _XSD + "nonNegativeInteger": int,
    _XSD + "float": float,
    _XSD + "double": float,
    _XSD + "decimal": float,
}


def _parse_value(lit: Literal) -> Any:
    dt = lit.datatype
    text = lit.lexical
    if dt is None:
        return text
    caster = _NUMERIC_TYPES.get(dt)
    if caster is not None:
        try:
            return caster(text)
        except ValueError:
            return text
    if dt == _XSD + "boolean":
        return text.strip().lower() in ("true", "1")
    if dt == _XSD + "dateTime":
        try:
            return datetime.fromisoformat(text)
        except ValueError:
            return text
    if dt == _XSD + "date":
        try:
            return date.fromisoformat(text)
        except ValueError:
            return text
    if dt in GEOMETRY_DATATYPES:
        # Equal WKT text yields the *same* geometry object process-wide
        # (identity matters: spatial caches downstream key on it).
        from repro.perf.geometry_cache import geometry_from_wkt

        try:
            return geometry_from_wkt(text)
        except Exception:
            return text
    if dt == _STRDF + "period":
        from repro.rdf.temporal import Period, PeriodError

        try:
            return Period.parse(text)
        except PeriodError:
            return text
    return text
