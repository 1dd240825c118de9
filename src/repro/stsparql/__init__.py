"""stSPARQL query and update engine — our Strabon reimplementation.

The engine evaluates the stSPARQL dialect of the paper: SPARQL 1.1
SELECT/ASK queries and updates extended with the ``strdf:`` spatial
vocabulary — spatial predicates (``strdf:anyInteract``, ``strdf:contains``,
...), spatial constructors (``strdf:intersection``, ``strdf:union``,
``strdf:boundary``, ``strdf:buffer``) and the ``strdf:union`` spatial
aggregate, over geometry literals typed ``strdf:geometry`` / ``strdf:WKT``.

Entry point: :class:`repro.stsparql.engine.Strabon`.
"""

from repro.stsparql.engine import SnapshotView, Strabon
from repro.stsparql.errors import SparqlError, SparqlParseError, SparqlEvalError
from repro.stsparql.eval import SolutionSet

__all__ = [
    "SnapshotView",
    "SolutionSet",
    "SparqlError",
    "SparqlEvalError",
    "SparqlParseError",
    "Strabon",
]
