"""stSPARQL error hierarchy (rooted in :mod:`repro.errors`)."""

from repro.errors import Permanent, ReproError, Transient


class SparqlError(ReproError):
    """Base class for all engine errors."""


class SparqlParseError(SparqlError, Permanent):
    """Raised when query text cannot be parsed."""


class SparqlEvalError(SparqlError, Permanent):
    """Raised when a query is structurally valid but cannot be evaluated."""


class QueryTimeoutError(SparqlError, Transient):
    """Raised when a request overran its ``timeout=`` budget.

    The deadline is cooperative: every operator checks it inside its
    loops — before each item when an item may evaluate an expression or
    probe an index, before each block of rows when it only copies them —
    and so does result encoding, so a timed-out query stops within one
    item or block of its deadline.  Transient — the same request may fit
    the budget against a smaller snapshot or a warmer cache.
    """


class ExpressionError(Exception):
    """Internal: an expression evaluated to an error value.

    Follows SPARQL semantics — a FILTER over an error is false; a projected
    error leaves the variable unbound.  Never escapes the evaluator.
    """
