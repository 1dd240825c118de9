"""The NOA product ontology (paper §3.2.1, Figure 5)."""

from repro.ontology.noa import (
    CONFIRMATION_CONFIRMED,
    CONFIRMATION_UNCONFIRMED,
    noa_ontology_triples,
)

__all__ = [
    "CONFIRMATION_CONFIRMED",
    "CONFIRMATION_UNCONFIRMED",
    "noa_ontology_triples",
]
