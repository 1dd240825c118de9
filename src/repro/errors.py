"""``repro.errors`` — the unified exception hierarchy.

Every package-level error base (``stsparql``, ``arraydb``, ``geometry``)
and the service-layer errors derive from :class:`ReproError`, so callers
can catch one type at the system boundary.  Two *marker* bases classify
failures the way the fault-tolerance layer (:mod:`repro.faults`) cares
about:

* :class:`Transient` — the operation may succeed if simply tried again
  (an injected infrastructure fault, a timeout).  This
  is what :class:`repro.faults.RetryPolicy` retries by default.
* :class:`Permanent` — retrying cannot help (corrupt data, a parse
  error, an impossible configuration).  These fail fast: the runtime
  quarantines or degrades instead of retrying.

Errors carrying neither marker are treated as permanent — retry loops
must opt *in* to retrying, never out.

Concrete classes raised by the service runtime itself also live here
(:class:`ConfigurationError`, :class:`ServiceStateError`,
:class:`StageTimeoutError`, :class:`AcquisitionFailed`) so that :mod:`repro.core` and
:mod:`repro.faults` need not import each other for their exception
types.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "Transient",
    "Permanent",
    "TransientError",
    "PermanentError",
    "ConfigurationError",
    "ServiceStateError",
    "SnapshotWriteError",
    "StageTimeoutError",
    "AcquisitionFailed",
    "is_transient",
]


class ReproError(Exception):
    """Base class of every error raised by the ``repro`` system."""


class Transient(Exception):
    """Marker base: the failure is retryable (see module docstring)."""


class Permanent(Exception):
    """Marker base: retrying cannot change the outcome."""


class TransientError(ReproError, Transient):
    """A concrete retryable error (also the base for injected faults)."""


class PermanentError(ReproError, Permanent):
    """A concrete non-retryable error."""


class ConfigurationError(PermanentError, ValueError):
    """Invalid configuration (unknown mode, bad option value...).

    Subclasses :class:`ValueError` so pre-existing callers catching the
    ad-hoc ``ValueError`` the service and monitor used to raise keep
    working.
    """


class ServiceStateError(PermanentError, RuntimeError):
    """An operation requested in a state that cannot serve it
    (e.g. a thematic map from the pre-TELEIOS configuration, or use of
    a closed service).  Subclasses :class:`RuntimeError` for
    compatibility with the ad-hoc errors it replaces."""


class SnapshotWriteError(PermanentError, TypeError):
    """A mutation was attempted on a frozen graph snapshot (or through
    a read-only snapshot query endpoint).  Subclasses :class:`TypeError`
    because immutability violations are type errors in spirit."""


class StageTimeoutError(TransientError):
    """A pipeline stage overran its deadline."""


class AcquisitionFailed(PermanentError):
    """An acquisition could not be processed at all (every band of its
    input was lost or undecodable)."""


class DurabilityError(PermanentError):
    """Durable state on disk is unusable (bad magic, failed CRC in a
    checkpoint body, unsupported format version).  A torn WAL *tail* is
    not an error — recovery truncates it — but corruption anywhere a
    completed commit should live is."""


def is_transient(error: BaseException) -> bool:
    """True when ``error`` carries the :class:`Transient` marker.

    Unmarked errors are *not* transient: retrying is opt-in.
    """
    return isinstance(error, Transient) and not isinstance(
        error, Permanent
    )
