"""Hierarchical tracing spans.

A :class:`Span` measures one named unit of work; spans opened while
another span is active in the same thread or task become its children,
so a recorded trace reconstructs the call tree of an acquisition
(ingestion → vault → chain → annotation → refinement →
dissemination).

Two entry points on :class:`Tracer`:

* :meth:`Tracer.span` — a context manager that is a **complete no-op**
  when the tracer is disabled (hot paths: one attribute check, no
  allocation),
* :meth:`Tracer.measure` — always returns a real, measuring span (used
  where the duration feeds a public timing field such as
  ``ChainTimings`` or ``OperationTiming``) but records it into the
  tracer only when enabled.

Both close the span and mark it failed if the body raises; the
exception always propagates.  Spans are thread- and task-safe: the
active-span stack is an immutable tuple in a :mod:`contextvars`
variable, so each thread and each asyncio task sees its own (two
requests interleaved on one event loop never parent under each
other), and the finished-span list is guarded by a lock.  No
dependencies beyond the standard library.

Distributed tracing (:mod:`repro.obs.trace`) builds on two hooks here:

* every span carries a ``trace_id``: inherited from its parent, from
  the task's *ambient* remote context (:meth:`Tracer.use_context`),
  or minted fresh for a new root,
* a forked child must neither mis-parent its spans under the stack it
  inherited nor mint span ids that collide with the parent's —
  :meth:`Tracer.reset_after_fork` (wired to ``os.register_at_fork``
  for the global tracer) drops the inherited stacks and rebases the id
  counter into a random high range.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional

__all__ = [
    "Span",
    "NullSpan",
    "NULL_SPAN",
    "Tracer",
    "mint_trace_id",
]


def mint_trace_id() -> str:
    """A fresh 64-bit trace id as 16 lowercase hex characters."""
    return os.urandom(8).hex()


class Span:
    """One timed, named unit of work."""

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "trace_id",
        "start",
        "end",
        "wall_start",
        "attributes",
        "status",
        "error",
    )

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: Optional[int],
        attributes: Optional[Dict[str, Any]] = None,
        trace_id: Optional[str] = None,
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.wall_start = time.time()
        self.start = time.perf_counter()
        self.end: Optional[float] = None
        self.attributes: Dict[str, Any] = dict(attributes or {})
        self.status = "ok"
        self.error: Optional[str] = None

    # -- measurement ------------------------------------------------------

    @property
    def duration(self) -> float:
        """Elapsed seconds (to now while the span is still open)."""
        end = self.end if self.end is not None else time.perf_counter()
        return end - self.start

    def close(self) -> "Span":
        if self.end is None:
            self.end = time.perf_counter()
        return self

    # -- annotation -------------------------------------------------------

    def set(self, **attributes: Any) -> "Span":
        """Attach key/value attributes; returns the span for chaining."""
        self.attributes.update(attributes)
        return self

    # -- serialisation ----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready record (see :mod:`repro.obs.export`)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "wall_start": self.wall_start,
            "duration_s": self.duration,
            "status": self.status,
            "error": self.error,
            "attributes": dict(self.attributes),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, id={self.span_id}, "
            f"parent={self.parent_id}, {self.duration:.6f}s, {self.status})"
        )


class NullSpan:
    """The do-nothing span handed out by a disabled tracer."""

    __slots__ = ()

    name = ""
    span_id = -1
    parent_id = None
    trace_id = None
    status = "ok"
    error = None
    duration = 0.0
    attributes: Dict[str, Any] = {}

    def set(self, **attributes: Any) -> "NullSpan":
        return self

    def close(self) -> "NullSpan":
        return self

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


#: Shared singleton — ``Tracer.span`` returns this when disabled, so the
#: disabled fast path allocates nothing.
NULL_SPAN = NullSpan()


class _SpanContext:
    """Context manager that opens/closes one span on a tracer."""

    __slots__ = ("_tracer", "_name", "_attributes", "_always", "_span")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        attributes: Dict[str, Any],
        always: bool,
    ) -> None:
        self._tracer = tracer
        self._name = name
        self._attributes = attributes
        self._always = always
        self._span: Optional[Span] = None

    def __enter__(self) -> Span:
        tracer = self._tracer
        recording = tracer.enabled
        if recording:
            parent, trace_id = tracer._parentage()
        else:
            parent, trace_id = None, None
        span = Span(
            self._name,
            tracer._next_id(),
            parent,
            self._attributes,
            trace_id=trace_id,
        )
        if recording:
            spans = tracer._spans
            spans.set(spans.get() + (span,))
        self._span = span
        return span

    def __exit__(self, exc_type, exc, tb) -> bool:
        span = self._span
        assert span is not None
        span.close()
        if exc_type is not None:
            span.status = "error"
            span.error = f"{exc_type.__name__}: {exc}"
        tracer = self._tracer
        stack = tracer._spans.get()
        if span in stack:
            # Normally the top of the stack; tolerate interleaved exits.
            tracer._spans.set(tuple(s for s in stack if s is not span))
            tracer._record(span)
            if span.status == "error":
                tracer._count_failure(span)
        elif span.status == "error" and tracer.enabled:
            tracer._count_failure(span)
        return False  # never swallow the exception

    async def __aenter__(self) -> Span:  # pragma: no cover - convenience
        return self.__enter__()

    async def __aexit__(self, *exc) -> bool:  # pragma: no cover
        return self.__exit__(*exc)


class _AmbientContext:
    """Context manager installing a remote parent for new root spans."""

    __slots__ = ("_tracer", "_context")

    def __init__(self, tracer: "Tracer", context) -> None:
        self._tracer = tracer
        self._context = context

    def __enter__(self):
        if self._context is not None:
            contexts = self._tracer._contexts
            contexts.set(contexts.get() + (self._context,))
        return self._context

    def __exit__(self, *exc) -> bool:
        if self._context is not None:
            contexts = self._tracer._contexts
            # Normally the top; tolerate interleaved exits.
            contexts.set(
                tuple(c for c in contexts.get() if c is not self._context)
            )
        return False


class Tracer:
    """Collects spans; thread-safe; cheap to call when disabled."""

    def __init__(self, enabled: bool = True, max_spans: int = 250_000):
        self.enabled = enabled
        self.max_spans = max_spans
        #: Spans dropped after hitting ``max_spans`` (backstop, not a cap
        #: any realistic run reaches).
        self.dropped = 0
        self._lock = threading.Lock()
        self._new_stacks()
        self._finished: List[Span] = []
        self._counter = itertools.count(1)
        self.failure_counts: Dict[str, int] = {}
        #: Optional hook invoked (with the span) whenever a span closes
        #: with an error — the global hub wires this to a metrics counter.
        self.on_failure: Optional[Callable[[Span], None]] = None
        #: Optional hook invoked with every recorded span — the global
        #: hub wires this to the flight recorder.
        self.on_record: Optional[Callable[[Span], None]] = None

    # -- span creation ----------------------------------------------------

    def span(self, name: str, /, **attributes: Any):
        """Open a child span of the current one; no-op when disabled."""
        if not self.enabled:
            return NULL_SPAN
        return _SpanContext(self, name, attributes, always=False)

    def measure(self, name: str, /, **attributes: Any) -> _SpanContext:
        """Like :meth:`span` but always measures.

        The yielded span is real even when the tracer is disabled (its
        ``duration`` is valid after exit) — it is simply not recorded.
        Use where the timing feeds a public field.
        """
        return _SpanContext(self, name, attributes, always=True)

    def trace(self, name: Optional[str] = None, **attributes: Any):
        """Decorator form: ``@tracer.trace("stage.name")``."""

        def decorate(fn: Callable) -> Callable:
            label = name or fn.__qualname__

            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any):
                if not self.enabled:
                    return fn(*args, **kwargs)
                with self.span(label, **attributes):
                    return fn(*args, **kwargs)

            return wrapper

        return decorate

    # -- distributed tracing ----------------------------------------------

    def use_context(self, context) -> _AmbientContext:
        """Install ``context`` as the ambient remote parent here.

        While active, spans opened in this thread or task with an
        empty local stack parent under ``context.span_id`` and inherit
        ``context.trace_id`` instead of starting a fresh trace.  Accepts
        ``None`` (no-op) so call sites need no branching.
        """
        return _AmbientContext(self, context)

    def reset_after_fork(self) -> None:
        """Make the tracer safe to use in a freshly forked child.

        The child inherits the parent's span stack (so new spans would
        mis-parent under spans it does not own), its
        finished-span list (the parent's spans, not the child's), and
        its span-id counter (ids repeating the parent's).  Clear the
        first two and rebase the counter into a random high range;
        ``enabled`` is preserved.
        """
        self._lock = threading.Lock()
        self._new_stacks()
        self._finished = []
        self.failure_counts = {}
        self.dropped = 0
        base = (int.from_bytes(os.urandom(5), "big") << 20) | 1
        self._counter = itertools.count(base)

    # -- introspection ----------------------------------------------------

    def current(self) -> Optional[Span]:
        """The innermost open span in this thread or task, if any."""
        stack = self._spans.get()
        return stack[-1] if stack else None

    def spans(self) -> List[Span]:
        """Finished spans, in completion order."""
        with self._lock:
            return list(self._finished)

    def clear(self) -> None:
        with self._lock:
            self._finished.clear()
            self.failure_counts.clear()
            self.dropped = 0

    # -- state ------------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    # -- internals --------------------------------------------------------

    def _next_id(self) -> int:
        return next(self._counter)

    def _new_stacks(self) -> None:
        """Fresh span and ambient-context stacks.  A context variable
        holds a tuple, never a list: a task that pushes sets its own
        copy, so tasks and threads never share one stack, and fresh
        variables hide whatever the old ones held (a forked child's
        inherited stacks)."""
        self._spans: contextvars.ContextVar = contextvars.ContextVar(
            "repro_spans", default=()
        )
        self._contexts: contextvars.ContextVar = contextvars.ContextVar(
            "repro_trace_contexts", default=()
        )

    def _parentage(self):
        """(parent span id, trace id) for a new span here."""
        stack = self._spans.get()
        if stack:
            top = stack[-1]
            return top.span_id, top.trace_id
        contexts = self._contexts.get()
        if contexts:
            ctx = contexts[-1]
            return ctx.span_id, ctx.trace_id
        return None, mint_trace_id()

    def _record(self, span: Span) -> None:
        with self._lock:
            if len(self._finished) >= self.max_spans:
                self.dropped += 1
                return
            self._finished.append(span)
        if self.on_record is not None:
            self.on_record(span)

    def _count_failure(self, span: Span) -> None:
        with self._lock:
            self.failure_counts[span.name] = (
                self.failure_counts.get(span.name, 0) + 1
            )
        if self.on_failure is not None:
            self.on_failure(span)
