"""Lightweight RDFS inference.

The map-overlay queries of the paper traverse the Corine Land Cover class
taxonomy (``?landUse a ?landUseType`` must see superclasses too), so the
engine needs ``rdfs:subClassOf`` reasoning.  We implement the two RDFS
entailment rules that matter here:

* rdfs9  — ``?x a C``, ``C rdfs:subClassOf D`` ⟹ ``?x a D``
* rdfs11 — transitivity of ``rdfs:subClassOf``

Inference is materialised on demand into a side structure; the base graph
is never mutated, and results are invalidated automatically when the graph
changes (via :attr:`Graph.generation`).
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Set

from repro.rdf.graph import Graph
from repro.rdf.namespace import RDF, RDFS
from repro.rdf.term import Term

_RDF_TYPE = RDF.type


class RDFSInference:
    """Materialised subclass closure over a base graph."""

    def __init__(self, graph: Graph) -> None:
        self._graph = graph
        self._generation = -1
        self._superclasses: Dict[Term, Set[Term]] = {}
        self._instances_cache: Dict[Term, list] = {}

    def _refresh(self) -> None:
        if self._generation == self._graph.generation:
            return
        self._instances_cache = {}
        direct: Dict[Term, Set[Term]] = {}
        for s, _, o in self._graph.triples(None, RDFS.subClassOf, None):
            direct.setdefault(s, set()).add(o)
        # One walk per class, so every class on a subClassOf cycle sees
        # the whole cycle (a memoised recursion would cut it short at
        # whichever class it entered first).
        closure: Dict[Term, Set[Term]] = {}
        for cls, parents in direct.items():
            reached: Set[Term] = set()
            stack = list(parents)
            while stack:
                parent = stack.pop()
                if parent not in reached:
                    reached.add(parent)
                    stack.extend(direct.get(parent, ()))
            reached.discard(cls)
            closure[cls] = reached
        self._superclasses = closure
        self._generation = self._graph.generation

    def superclasses(self, cls: Term) -> Set[Term]:
        """All (transitive) superclasses of ``cls``, excluding itself."""
        self._refresh()
        return set(self._superclasses.get(cls, ()))

    def subclasses(self, cls: Term) -> Set[Term]:
        """All (transitive) subclasses of ``cls``, excluding itself."""
        self._refresh()
        return {
            c for c, supers in self._superclasses.items() if cls in supers
        }

    def types_of(self, node: Term) -> Set[Term]:
        """Asserted plus inferred ``rdf:type`` values of ``node``."""
        self._refresh()
        types: Set[Term] = set(self._graph.objects(node, RDF.type))
        inferred: Set[Term] = set()
        for t in types:
            inferred |= self._superclasses.get(t, set())
        return types | inferred

    def has_type(self, node: Term, cls: Term) -> bool:
        """True when ``node`` is an instance of ``cls`` or a subclass.

        The membership twin of :meth:`instances_of`: it reads the
        node's own asserted types and the memoised closure, so it costs
        O(types of ``node``) however many instances ``cls`` has.
        """
        self._refresh()
        graph = self._graph
        si, ti = graph.term_id(node), graph.term_id(_RDF_TYPE)
        if si is None or ti is None:
            return False
        superclasses = self._superclasses
        for _, _, oi in graph.triples_ids(si, ti, None):
            t = graph.term_for_id(oi)
            if t == cls or cls in superclasses.get(t, ()):
                return True
        return False

    def instances_of(self, cls: Term) -> Iterator[Term]:
        """Nodes typed as ``cls`` or any of its subclasses (memoised per
        graph generation — pattern evaluators hit this in tight loops)."""
        self._refresh()
        cached = self._instances_cache.get(cls)
        if cached is None:
            seen: Set[Term] = set()
            cached = []
            for target in {cls, *self.subclasses(cls)}:
                for s in self._graph.subjects(RDF.type, target):
                    if s not in seen:
                        seen.add(s)
                        cached.append(s)
            self._instances_cache[cls] = cached
        yield from cached

    def type_triples(self, node: Optional[Term] = None):
        """Yield (s, rdf:type, o) pairs with inference applied."""
        self._refresh()
        if node is not None:
            for t in self.types_of(node):
                yield (node, RDF.type, t)
            return
        seen_subjects: Set[Term] = set()
        for s, _, _ in self._graph.triples(None, RDF.type, None):
            if s in seen_subjects:
                continue
            seen_subjects.add(s)
            for t in self.types_of(s):
                yield (s, RDF.type, t)
