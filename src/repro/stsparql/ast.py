"""Abstract syntax tree for the stSPARQL dialect.

The parser produces these nodes; the evaluator consumes them directly (the
algebra is simple enough that a separate lowering step would add nothing).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from repro.rdf.term import Term, Variable

# -- expressions ---------------------------------------------------------


class Expression:
    """Marker base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class TermExpr(Expression):
    """A constant RDF term or a variable reference."""

    term: Term


@dataclass(frozen=True)
class UnaryExpr(Expression):
    op: str  # "!" | "-" | "+"
    operand: Expression


@dataclass(frozen=True)
class BinaryExpr(Expression):
    op: str  # "||" "&&" "=" "!=" "<" "<=" ">" ">=" "+" "-" "*" "/"
    left: Expression
    right: Expression


@dataclass(frozen=True)
class FunctionCall(Expression):
    """A built-in or extension function call.

    ``name`` is either a lowercase built-in keyword ("bound", "str", ...)
    or a full URI for extension functions like strdf:anyInteract.
    """

    name: str
    args: Tuple[Expression, ...]


@dataclass(frozen=True)
class Aggregate(Expression):
    """An aggregate call (COUNT/SUM/AVG/MIN/MAX/SAMPLE/GROUP_CONCAT or a
    spatial aggregate such as strdf:union)."""

    name: str
    arg: Optional[Expression]  # None only for COUNT(*)
    distinct: bool = False


@dataclass(frozen=True)
class ExistsExpr(Expression):
    pattern: "GroupGraphPattern"
    negated: bool = False


# -- graph patterns ------------------------------------------------------


@dataclass(frozen=True)
class TriplePattern:
    subject: Term
    predicate: Term
    object: Term

    def variables(self) -> List[Variable]:
        return [
            t
            for t in (self.subject, self.predicate, self.object)
            if isinstance(t, Variable)
        ]


class PatternElement:
    """Marker base class for group-pattern members."""

    __slots__ = ()


@dataclass(frozen=True)
class InlineData:
    """An inline ``VALUES`` block (SPARQL 1.1 §10.2): a constant
    relation over ``columns``, one tuple of terms per row (None is
    ``UNDEF``, an unbound cell)."""

    columns: Tuple[Variable, ...]
    rows: Tuple[Tuple[Optional[Term], ...], ...]

    def variables(self) -> List[Variable]:
        return list(self.columns)


@dataclass(frozen=True)
class BGP(PatternElement):
    """A basic graph pattern: a conjunctive block of triple patterns,
    plus the ``VALUES`` blocks written among them — joins commute, so
    the planner places each block among the patterns like one more
    relation."""

    triples: Tuple[TriplePattern, ...]
    values: Tuple[InlineData, ...] = ()


@dataclass(frozen=True)
class Filter(PatternElement):
    expression: Expression


@dataclass(frozen=True)
class Optional_(PatternElement):
    pattern: "GroupGraphPattern"


@dataclass(frozen=True)
class UnionPattern(PatternElement):
    left: "GroupGraphPattern"
    right: "GroupGraphPattern"


@dataclass(frozen=True)
class Bind(PatternElement):
    expression: Expression
    variable: Variable


@dataclass(frozen=True)
class MinusPattern(PatternElement):
    pattern: "GroupGraphPattern"


@dataclass(frozen=True)
class GroupGraphPattern(PatternElement):
    elements: Tuple[PatternElement, ...]


@dataclass(frozen=True)
class SubSelect(PatternElement):
    query: "SelectQuery"


# -- queries ---------------------------------------------------------------


@dataclass(frozen=True)
class Projection:
    """One SELECT item: a bare variable or ``(expr AS ?var)``."""

    variable: Variable
    expression: Optional[Expression] = None  # None = project the variable


@dataclass(frozen=True)
class OrderCondition:
    expression: Expression
    descending: bool = False


@dataclass(frozen=True)
class SelectQuery:
    projections: Tuple[Projection, ...]  # empty = SELECT *
    pattern: GroupGraphPattern
    distinct: bool = False
    group_by: Tuple[Expression, ...] = ()
    having: Tuple[Expression, ...] = ()
    order_by: Tuple[OrderCondition, ...] = ()
    limit: Optional[int] = None
    offset: int = 0

    @property
    def select_star(self) -> bool:
        return not self.projections


@dataclass(frozen=True)
class AskQuery:
    pattern: GroupGraphPattern


@dataclass(frozen=True)
class ConstructQuery:
    """CONSTRUCT { template } WHERE { pattern } [solution modifiers]."""

    template: Tuple[TriplePattern, ...]
    pattern: GroupGraphPattern
    limit: Optional[int] = None
    offset: int = 0


# -- updates ---------------------------------------------------------------


@dataclass(frozen=True)
class UpdateRequest:
    """DELETE/INSERT ... WHERE, or the DATA forms (where_pattern None)."""

    delete_template: Tuple[TriplePattern, ...] = ()
    insert_template: Tuple[TriplePattern, ...] = ()
    where_pattern: Optional[GroupGraphPattern] = None


Query = Union[SelectQuery, AskQuery, ConstructQuery, UpdateRequest]
