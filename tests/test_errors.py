"""The unified exception hierarchy and its transient/permanent markers."""

from __future__ import annotations

from repro.arraydb.errors import ArrayDBError, VaultError
from repro.errors import (
    AcquisitionFailed,
    ConfigurationError,
    Permanent,
    PermanentError,
    ReproError,
    ServiceStateError,
    StageTimeoutError,
    Transient,
    TransientError,
    is_transient,
)
from repro.faults import FaultInjected
from repro.geometry.errors import GeometryError
from repro.stsparql.errors import (
    SparqlError,
    SparqlEvalError,
    SparqlParseError,
)


def test_package_bases_join_the_hierarchy():
    for cls in (ArrayDBError, SparqlError, GeometryError):
        assert issubclass(cls, ReproError)


def test_data_and_query_errors_are_permanent():
    for cls in (
        VaultError,
        SparqlParseError,
        SparqlEvalError,
        GeometryError,
        AcquisitionFailed,
    ):
        assert issubclass(cls, Permanent), cls
        assert not is_transient(cls("x"))


def test_infrastructure_errors_are_transient():
    for cls in (StageTimeoutError, FaultInjected):
        assert issubclass(cls, Transient), cls
        assert is_transient(cls("x"))


def test_compatibility_bases_preserved():
    # Pre-hierarchy code caught ValueError / RuntimeError; the new
    # classes keep those bases so existing except clauses still work.
    assert issubclass(ConfigurationError, ValueError)
    assert issubclass(ServiceStateError, RuntimeError)
    assert issubclass(GeometryError, ValueError)


def test_markers_do_not_leak_into_each_other():
    assert not is_transient(PermanentError("x"))
    assert not is_transient(ReproError("unmarked is not retryable"))
    assert not is_transient(KeyError("foreign errors are not retryable"))
    assert issubclass(TransientError, Transient)
    assert not issubclass(TransientError, Permanent)
