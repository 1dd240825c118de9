"""A seeded subscriber stream over a durable subscription engine.

:func:`write_state` registers subscriptions of every kind under fixed
ids (the engine mints random ones), commits a few acquisitions of
hotspots, acknowledges, removes one subscription and closes, leaving
``notifications.log`` and ``registry.log`` in the directory it is
given.  Nothing in it depends on the hash seed, so the bytes it leaves
must not either.
"""

from __future__ import annotations

import itertools
import random
from typing import List
from unittest import mock

from repro.durable import NotificationBatch
from repro.serve import SnapshotPublisher, SubscriptionEngine
from repro.serve import subscribe
from repro.serve.subscribe import delta_from_ops
from repro.stsparql import Strabon

PREFIX = (
    "PREFIX noa: "
    "<http://teleios.di.uoa.gr/ontologies/noaOntology.owl#>\n"
    "PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>\n"
)
WKT = "<http://strdf.di.uoa.gr/ontology#WKT>"
MUNICIPALITIES = [f"http://example.org/muni/{name}" for name in "ABCD"]


def _hotspots(strabon: Strabon, start: int, count: int, rng) -> None:
    statements = []
    for n in range(start, start + count):
        subject = f"<http://example.org/hotspot/{n}>"
        statements += [
            f"{subject} a noa:Hotspot .",
            f'{subject} strdf:hasGeometry "POINT ({rng.uniform(21, 27):.4f} '
            f'{rng.uniform(36, 41):.4f})"^^{WKT} .',
            f'{subject} noa:hasConfidence "{rng.uniform(0.3, 1):.2f}" .',
            f"{subject} noa:isInMunicipality "
            f"<{rng.choice(MUNICIPALITIES)}> .",
        ]
    strabon.update(
        PREFIX + "INSERT DATA {\n" + "\n".join(statements) + "\n}"
    )


def write_state(
    state_dir: str, commits: int = 4, seed: int = 7
) -> List[NotificationBatch]:
    """Run the stream into ``state_dir``; returns the logged batches."""
    rng = random.Random(seed)
    counter = itertools.count()
    strabon = Strabon()
    publisher = SnapshotPublisher()
    with mock.patch.object(
        subscribe,
        "_mint_ids",
        lambda count: [f"{next(counter):012x}" for _ in range(count)],
    ):
        engine = SubscriptionEngine(state_dir=state_dir, fsync="never")
        try:
            engine.bind(strabon, publisher)
            strabon.graph.start_journal()
            publisher.publish(strabon)
            fences = []
            for _ in range(300):
                x, y = rng.uniform(21, 26), rng.uniform(36, 40)
                w, h = rng.uniform(0.2, 1.5), rng.uniform(0.2, 1.5)
                doc = {"kind": "filter", "bbox": [x, y, x + w, y + h]}
                if rng.random() < 0.5:
                    doc["min_confidence"] = round(rng.uniform(0.3, 0.9), 2)
                if rng.random() < 0.2:
                    doc["municipality"] = rng.choice(MUNICIPALITIES)
                fences.append(doc)
            subs = list(engine.register_many(fences))
            subs += engine.register_many(
                [{"kind": "fwi", "min_class": name}
                 for name in ("low", "moderate", "high")]
            )
            subs.append(
                engine.register(
                    {
                        "kind": "stsparql",
                        "query": PREFIX
                        + "SELECT ?h WHERE { ?h a noa:Hotspot . "
                        + "?h noa:hasConfidence ?c . "
                        + 'FILTER(?c >= "0.6") }',
                    }
                )
            )
            for k in range(commits):
                _hotspots(strabon, 20 * k, 20, rng)
                engine.process_commit(
                    publisher.sequence + 1,
                    delta_from_ops(strabon.graph.drain_journal()),
                    wal_seq=None if k == commits - 1 else k + 1,
                )
                publisher.publish(strabon)
                engine.ack(subs[k].id, publisher.sequence)
            engine.remove(subs[-2].id)
            return engine.log.batches
        finally:
            engine.close()
