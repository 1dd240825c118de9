"""TraceContext propagation and recent_traces grouping."""

from __future__ import annotations

import pytest

from repro.obs import Tracer, context_of, mint_trace_id, recent_traces
from repro.obs.trace import (
    PARENT_SPAN_HEADER,
    TRACE_ID_HEADER,
    TraceContext,
)
from repro.obs.span import NULL_SPAN


def test_mint_trace_id_is_hex_and_unique():
    ids = {mint_trace_id() for _ in range(64)}
    assert len(ids) == 64
    for tid in ids:
        assert len(tid) == 16
        assert all(c in "0123456789abcdef" for c in tid)


def test_every_span_in_a_tree_shares_the_root_trace_id():
    tracer = Tracer(enabled=True)
    with tracer.span("root") as root:
        with tracer.span("child") as child:
            with tracer.span("grandchild") as grandchild:
                pass
    assert root.trace_id is not None
    assert child.trace_id == root.trace_id
    assert grandchild.trace_id == root.trace_id


def test_separate_roots_mint_separate_trace_ids():
    tracer = Tracer(enabled=True)
    with tracer.span("first") as a:
        pass
    with tracer.span("second") as b:
        pass
    assert a.trace_id != b.trace_id


def test_header_round_trip():
    ctx = TraceContext(trace_id="deadbeef01234567", span_id=42)
    headers = ctx.to_headers()
    assert headers == {
        TRACE_ID_HEADER: "deadbeef01234567",
        PARENT_SPAN_HEADER: "42",
    }
    assert TraceContext.from_headers(headers) == ctx


def test_from_headers_is_case_insensitive():
    ctx = TraceContext.from_headers(
        {"X-Trace-Id": "ABCDEF", "X-Parent-Span": "7"}
    )
    assert ctx == TraceContext(trace_id="abcdef", span_id=7)


@pytest.mark.parametrize(
    "headers",
    [
        {},
        {TRACE_ID_HEADER: ""},
        {TRACE_ID_HEADER: "not hex!"},
        {TRACE_ID_HEADER: "zzzz"},
        {TRACE_ID_HEADER: "a" * 65},
    ],
)
def test_from_headers_rejects_malformed_trace_ids(headers):
    assert TraceContext.from_headers(headers) is None


def test_from_headers_degrades_bad_parent_to_zero():
    ctx = TraceContext.from_headers(
        {TRACE_ID_HEADER: "abc123", PARENT_SPAN_HEADER: "not-a-number"}
    )
    assert ctx == TraceContext(trace_id="abc123", span_id=0)


def test_context_of_live_span_and_null_span():
    tracer = Tracer(enabled=True)
    with tracer.span("work") as span:
        ctx = context_of(span)
        assert ctx == TraceContext(
            trace_id=span.trace_id, span_id=span.span_id
        )
    assert context_of(NULL_SPAN) is None


def test_ambient_context_parents_new_roots():
    """A root opened under use_context joins the remote caller's trace."""
    tracer = Tracer(enabled=True)
    ctx = TraceContext(trace_id="feedface00000001", span_id=99)
    with tracer.use_context(ctx):
        with tracer.span("remote.work") as span:
            pass
    assert span.trace_id == "feedface00000001"
    assert span.parent_id == 99
    # Outside the context, roots mint fresh traces again.
    with tracer.span("local.work") as other:
        pass
    assert other.trace_id != "feedface00000001"


def test_use_context_none_is_a_no_op():
    tracer = Tracer(enabled=True)
    with tracer.use_context(None):
        with tracer.span("work") as span:
            pass
    assert span.parent_id is None


def test_reset_after_fork_drops_inherited_state_and_rebases_ids():
    tracer = Tracer(enabled=True)
    with tracer.span("parent.done") as done:
        pass
    with tracer.span("parent.open") as inherited:
        tracer.reset_after_fork()  # what a forked child runs
        assert tracer.current() is None
        assert tracer.spans() == []
        with tracer.span("child") as child:
            pass
    assert child.parent_id is None
    assert child.trace_id != inherited.trace_id
    assert child.span_id > (1 << 20) > done.span_id
    assert tracer.enabled


def test_recent_traces_groups_and_orders():
    tracer = Tracer(enabled=True)
    with tracer.span("first.root"):
        with tracer.span("first.child"):
            pass
    with tracer.span("second.root"):
        pass
    traces = recent_traces(tracer)
    assert len(traces) == 2
    # Most recent first.
    assert traces[0]["root"] == "second.root"
    assert traces[1]["root"] == "first.root"
    assert traces[1]["span_count"] == 2
    assert traces[1]["status"] == "ok"
    assert "first.child" in traces[1]["tree"]


def test_recent_traces_filters_and_limits():
    tracer = Tracer(enabled=True)
    for k in range(5):
        with tracer.span(f"root-{k}") as span:
            pass
    wanted = span.trace_id
    only = recent_traces(tracer, trace_id=wanted)
    assert len(only) == 1
    assert only[0]["trace_id"] == wanted
    assert len(recent_traces(tracer, limit=2)) == 2


def test_recent_traces_flags_error_traces():
    tracer = Tracer(enabled=True)
    with pytest.raises(RuntimeError):
        with tracer.span("doomed"):
            raise RuntimeError("boom")
    traces = recent_traces(tracer)
    assert traces[0]["status"] == "error"
