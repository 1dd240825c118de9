"""The row-wise reference evaluator, as the differential suites use it.

Production code picks its evaluator from the operation (reads are
columnar, update ``WHERE`` is row-wise) and offers no way to override
that, so the oracle is built here: a plain
:class:`~repro.stsparql.eval.Evaluator` on the *same* graph as the
engine under test, wired to inference and the engine's R-tree exactly
like the engine wires its own evaluators.
"""

from repro.rdf.inference import RDFSInference
from repro.stsparql.eval import Evaluator
from repro.stsparql.parser import parse


def reference_evaluator(
    engine, explain_log=None, initial=None
) -> Evaluator:
    evaluator = Evaluator(
        engine.graph,
        inference=RDFSInference(engine.graph),
        spatial_candidates=engine.spatial_candidates,
        initial=initial,
    )
    evaluator.explain_log = explain_log
    return evaluator


def reference_select(engine, text):
    return reference_evaluator(engine).select(parse(text))


def reference_ask(engine, text):
    return reference_evaluator(engine).ask(parse(text))
