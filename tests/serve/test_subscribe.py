"""Subscription registry, validation and incremental evaluation."""

from __future__ import annotations

import json
import os
import random

import pytest

from repro.durable import WriteAheadLog
from repro.durable.codec import unpack_block
from repro.durable.cursors import NotificationBatch, SubscriptionRows
from repro.errors import DurabilityError
from repro.geometry import Envelope, RTree
from repro.rdf.inference import RDFSInference
from repro.rdf.namespace import NOA
from repro.serve import SnapshotPublisher
from repro.serve.subscribe import (
    DANGER_CLASSES,
    Subscription,
    SubscriptionEngine,
    SubscriptionError,
    SubscriptionRegistry,
    danger_class,
    delta_from_ops,
    _parse_batch,
    _Registered,
    municipality_score,
    validate_standing_query,
)
from repro.stsparql import Strabon

from tests.serve.subscription_oracle import add_many, add_one, from_dict

PREFIX = (
    "PREFIX noa: "
    "<http://teleios.di.uoa.gr/ontologies/noaOntology.owl#>\n"
    "PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>\n"
)

WKT = "<http://strdf.di.uoa.gr/ontology#WKT>"


def _insert_hotspot(
    strabon: Strabon,
    n: int,
    lon: float,
    lat: float,
    confidence: float = 0.8,
    municipality: str = "http://example.org/muni/A",
) -> str:
    subject = f"http://example.org/hotspot/{n}"
    strabon.update(
        PREFIX
        + f"""INSERT DATA {{
            <{subject}> a noa:Hotspot .
            <{subject}> strdf:hasGeometry
                "POINT ({lon} {lat})"^^{WKT} .
            <{subject}> noa:hasConfidence "{confidence}" .
            <{subject}> noa:isInMunicipality <{municipality}> .
        }}"""
    )
    return subject


def _delta(strabon: Strabon):
    """The commit's delta: everything journaled since the last drain."""
    return delta_from_ops(strabon.graph.drain_journal())


def _engine_on(strabon: Strabon) -> SubscriptionEngine:
    publisher = SnapshotPublisher()
    engine = SubscriptionEngine()
    engine.bind(strabon, publisher)
    strabon.graph.start_journal()
    publisher.publish(strabon)
    return engine


def _validate(doc, sub_id: str, sequence: int) -> Subscription:
    """One document through the subscription validator, as the
    subscription it registers."""
    (sub,) = _Registered(_parse_batch([doc], [sub_id], sequence)[0])
    return sub


class TestValidation:
    def test_rejects_unknown_kind(self):
        with pytest.raises(SubscriptionError):
            _validate({"kind": "nope"}, "x", 0)

    def test_rejects_bad_bbox(self):
        with pytest.raises(SubscriptionError):
            _validate(
                {"kind": "filter", "bbox": [1, 2, 3]}, "x", 0
            )

    @pytest.mark.parametrize(
        "bbox", [[25, 38, 24, 39], [24, 39, 25, 38], [25, 39, 24, 38]]
    )
    def test_rejects_inverted_bbox(self, bbox):
        with pytest.raises(SubscriptionError, match="bbox"):
            _validate({"kind": "filter", "bbox": bbox}, "x", 0)

    def test_rejects_non_boolean_confirmed(self):
        with pytest.raises(SubscriptionError):
            _validate(
                {"kind": "filter", "confirmed": "yes"}, "x", 0
            )

    def test_fwi_min_class_must_be_named(self):
        with pytest.raises(SubscriptionError):
            _validate(
                {"kind": "fwi", "min_class": "apocalyptic"}, "x", 0
            )
        sub = _validate(
            {"kind": "fwi", "min_class": "extreme"}, "x", 0
        )
        assert sub.min_class == DANGER_CLASSES.index("extreme")

    def test_standing_query_must_be_plain_select(self):
        validate_standing_query(
            PREFIX + "SELECT ?h WHERE { ?h a noa:Hotspot }"
        )
        with pytest.raises(SubscriptionError):
            validate_standing_query(
                PREFIX + "ASK { ?h a noa:Hotspot }"
            )

    def test_standing_query_rejects_modifiers_and_aggregates(self):
        with pytest.raises(SubscriptionError):
            validate_standing_query(
                PREFIX
                + "SELECT ?h WHERE { ?h a noa:Hotspot } LIMIT 5"
            )
        with pytest.raises(SubscriptionError):
            validate_standing_query(
                PREFIX
                + "SELECT (COUNT(?h) AS ?n) WHERE "
                + "{ ?h a noa:Hotspot }"
            )

    def test_standing_query_requires_h_variable(self):
        with pytest.raises(SubscriptionError):
            validate_standing_query(
                PREFIX + "SELECT ?x WHERE { ?x a noa:Hotspot }"
            )

    @pytest.mark.parametrize(
        "query",
        [
            # ?hs merely contains the text "?h": seeding ?h left ?hs
            # free, so every changed hotspot matched.
            "SELECT ?hs WHERE { ?hs a noa:Hotspot ; "
            "noa:hasConfidence ?c . FILTER(?c > 0.95) }",
            # ?h bound but not projected: the full re-run reads no ?h.
            "SELECT ?c WHERE { ?h a noa:Hotspot ; "
            "noa:hasConfidence ?c . FILTER(?c > 0.95) }",
            # A subselect is evaluated once from the seed, not per row.
            "SELECT ?h WHERE { ?h a noa:Hotspot . { SELECT ?h WHERE "
            "{ ?h noa:hasConfidence ?c . FILTER(?c > 0.95) } } }",
            "SELECT ?h WHERE { ?h a noa:Hotspot . FILTER(EXISTS { "
            "{ SELECT ?x WHERE { ?x noa:hasConfidence ?c } } }) }",
            # ?h only in a FILTER or an OPTIONAL: unbound in the full
            # re-run, bound by the seed.
            "SELECT ?h WHERE { ?x a noa:Hotspot . FILTER(?h = ?x) }",
            "SELECT ?h WHERE { ?x a noa:Hotspot . "
            "OPTIONAL { ?x noa:isInMunicipality ?h } }",
            "SELECT ?h WHERE { { ?h a noa:Hotspot } UNION "
            "{ ?x a noa:Hotspot } }",
            # Read before the triple pattern that binds it: the seed
            # is visible to the OPTIONAL / FILTER, the full re-run's
            # empty row is not.
            "SELECT ?h WHERE { OPTIONAL { ?h noa:isInMunicipality ?m } "
            "?h a noa:Hotspot }",
            "SELECT ?h WHERE { FILTER(?h != noa:x) ?h a noa:Hotspot }",
        ],
    )
    def test_standing_query_fragment_is_checked_on_the_ast(
        self, query
    ):
        with pytest.raises(SubscriptionError):
            validate_standing_query(PREFIX + query)

    @pytest.mark.parametrize(
        "query",
        [
            "SELECT * WHERE { ?h a noa:Hotspot ; noa:hasConfidence ?c }",
            "SELECT DISTINCT ?h ?c WHERE { { ?h a noa:Hotspot } "
            "?h noa:hasConfidence ?c }",
            "SELECT ?h WHERE { { ?h a noa:Hotspot } UNION "
            "{ ?h noa:hasConfidence ?c } }",
            "SELECT ?h WHERE { ?h a noa:Hotspot . "
            "OPTIONAL { ?h noa:isInMunicipality ?m } "
            "FILTER(!bound(?m)) MINUS { ?h noa:hasConfidence ?c } }",
        ],
    )
    def test_standing_query_fragment_accepts(self, query):
        validate_standing_query(PREFIX + query)

    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "filter", "bbox": [float("nan")] * 4},
            {"kind": "filter", "bbox": [20.0, 36.0, float("inf"), 40.0]},
            {"kind": "filter", "bbox": [False, 36.0, 25.0, 40.0]},
            {"kind": "filter", "min_confidence": float("nan")},
            {"kind": "filter", "min_confidence": float("-inf")},
            {"kind": "filter", "min_confidence": True},
            {"kind": "filter", "min_confidence": "0.5x"},
        ],
    )
    def test_rejects_non_finite_numbers(self, doc):
        with pytest.raises(SubscriptionError):
            _validate(doc, "x", 0)

    def test_filter_subscriptions_take_no_query(self):
        with pytest.raises(SubscriptionError):
            _validate(
                {"kind": "filter", "query": "SELECT ?h WHERE {}"},
                "x",
                0,
            )

    def test_round_trips_through_dict(self):
        sub = _validate(
            {
                "kind": "filter",
                "bbox": [20.0, 36.0, 25.0, 40.0],
                "min_confidence": 0.5,
                "confirmed": True,
            },
            "abc",
            7,
        )
        doc = sub.to_dict()
        again = _validate(
            doc, doc["id"], doc["created_sequence"]
        )
        assert again == sub


class TestDangerClass:
    @pytest.mark.parametrize(
        "score,name",
        [
            (0.0, "low"),
            (0.49, "low"),
            (0.5, "moderate"),
            (1.5, "high"),
            (3.0, "very-high"),
            (5.0, "extreme"),
            (99.0, "extreme"),
        ],
    )
    def test_thresholds(self, score, name):
        assert DANGER_CLASSES[danger_class(score)] == name


class TestRegistry:
    def _sub(self, n: int, bbox=None) -> Subscription:
        return from_dict(
            {"kind": "filter", "bbox": bbox}, f"sub{n}", 0
        )

    def test_point_probe_finds_only_covering_geofences(self):
        registry = SubscriptionRegistry()
        add_many(
            registry,
            [
                self._sub(0, [0.0, 0.0, 10.0, 10.0]),
                self._sub(1, [20.0, 20.0, 30.0, 30.0]),
                self._sub(2, None),  # global — always a candidate
            ]
        )
        hits = {
            s.id for s in registry.geofence_candidates(5.0, 5.0)
        }
        assert hits == {"sub0", "sub2"}

    def test_removal_tombstones_until_rebuild(self):
        registry = SubscriptionRegistry()
        add_many(
            registry,
            [
                self._sub(n, [0.0, 0.0, 10.0, 10.0])
                for n in range(3)
            ]
        )
        assert registry.remove("sub1")
        assert not registry.remove("sub1")
        hits = {
            s.id for s in registry.geofence_candidates(5.0, 5.0)
        }
        assert hits == {"sub0", "sub2"}

    def test_pending_inserts_are_probed_before_rebuild(self):
        registry = SubscriptionRegistry()
        add_one(registry, self._sub(0, [0.0, 0.0, 10.0, 10.0]))
        hits = {
            s.id for s in registry.geofence_candidates(5.0, 5.0)
        }
        assert hits == {"sub0"}

    def test_probe_order_is_pack_order_then_registration_order(self):
        """Inserts and removals reshape the tree but not the order a
        probe returns geofences in, so batch bytes do not move."""
        registry = SubscriptionRegistry()
        add_many(
            registry,
            [self._sub(n, [0.0, 0.0, 10.0 + n, 10.0 + n]) for n in range(40)]
        )
        packed = [s.id for s in registry.geofence_candidates(5.0, 5.0)]
        assert sorted(packed) == sorted(f"sub{n}" for n in range(40))
        add_one(registry, self._sub(100, [4.0, 4.0, 6.0, 6.0]))
        add_one(registry, self._sub(101, [-50.0, -50.0, 50.0, 50.0]))
        assert registry.remove(packed[3])
        hits = [s.id for s in registry.geofence_candidates(5.0, 5.0)]
        assert hits == packed[:3] + packed[4:] + ["sub100", "sub101"]

    @pytest.mark.parametrize("seed", range(4))
    def test_random_churn_probes_equal_a_scan_of_live_filters(self, seed):
        rng = random.Random(seed)
        registry = SubscriptionRegistry()
        live = {}
        made = iter(range(10**6))

        def fresh() -> Subscription:
            bbox = None
            if rng.random() < 0.9:
                x, y = rng.uniform(0, 40), rng.uniform(0, 40)
                bbox = [x, y, x + rng.uniform(0, 8), y + rng.uniform(0, 8)]
            return self._sub(next(made), bbox)

        for _ in range(300):
            roll = rng.random()
            if roll < 0.45:
                sub = add_one(registry, fresh())
                live[sub.id] = sub
            elif roll < 0.55:
                batch = [fresh() for _ in range(rng.randint(0, 40))]
                add_many(registry, batch)
                live.update((sub.id, sub) for sub in batch)
            elif live and roll < 0.95:
                sub_id = rng.choice(sorted(live))
                assert registry.remove(sub_id)
                del live[sub_id]
            else:
                assert not registry.remove("sub-unknown")
            for _ in range(5):
                x, y = rng.uniform(-2, 50), rng.uniform(-2, 50)
                got = [s.id for s in registry.geofence_candidates(x, y)]
                want = [
                    s.id
                    for s in live.values()
                    if s.bbox is None or s.bbox.contains_point(x, y)
                ]
                assert sorted(got) == sorted(want)
        assert len(registry) == len(live)

    def test_single_adds_and_removes_never_repack(self, monkeypatch):
        def fence(n: int, x: float, y: float) -> Subscription:
            return self._sub(n, [x, y, x + 0.5, y + 0.5])

        registry = SubscriptionRegistry()
        add_many(
            registry,
            [fence(n, n % 200 * 0.1, n // 200 * 0.1) for n in range(20_000)],
        )
        packs = []
        bulk_load = RTree.bulk_load

        def counting_bulk_load(*args, **kwargs):
            packs.append(1)
            return bulk_load(*args, **kwargs)

        monkeypatch.setattr(RTree, "bulk_load", counting_bulk_load)
        for n in range(200):
            add_one(registry, fence(20_000 + n, n * 0.1, 5.0))
        for n in range(200):
            assert registry.remove(f"sub{n * 97}")
        assert packs == []
        assert len(registry.geofence_candidates(10.05, 5.5)) == len(
            [
                s
                for s in registry.list()
                if s.bbox.contains_point(10.05, 5.5)
            ]
        )

    def test_duplicate_ids_are_refused(self):
        registry = SubscriptionRegistry()
        add_one(registry, self._sub(0))
        with pytest.raises(SubscriptionError):
            add_one(registry, self._sub(0))

    def test_counts_by_kind(self):
        registry = SubscriptionRegistry()
        add_one(registry, self._sub(0))
        add_one(
            registry,
            from_dict(
                {"kind": "fwi", "min_class": "low"}, "f", 0
            )
        )
        assert registry.counts() == {
            "filter": 1,
            "stsparql": 0,
            "fwi": 1,
        }


def _query_sub(sub_id: str, where: str, select: str = "?h"):
    return from_dict(
        {
            "kind": "stsparql",
            "query": PREFIX + f"SELECT {select} WHERE {{ {where} }}",
        },
        sub_id,
        0,
    )


class TestShapes:
    FLOOR = "?h a noa:Hotspot ; noa:hasConfidence ?c . FILTER(?c >= {})"

    def test_queries_equal_but_for_filter_literals_share_a_shape(self):
        registry = SubscriptionRegistry()
        add_many(
            registry,
            [
                _query_sub("a", self.FLOOR.format('"0.5"')),
                _query_sub("b", self.FLOOR.format("0.7")),
                _query_sub("c", self.FLOOR.format("0.7")),  # same text
                _query_sub("d", "?h a noa:Hotspot ."),  # no literal
                _query_sub("e", "?h a noa:Hotspot .", select="*"),
            ]
        )
        shapes = registry.shapes()
        assert [members for _, members in shapes] == [
            ["a", "b", "c"],
            ["d"],
            ["e"],
        ]
        floors, plain, star = (shape for shape, _ in shapes)
        assert floors.members == {
            "a": ('"0.5"',), "b": ("0.7",), "c": ("0.7",),
        }
        assert "SELECT ?h ?__shape_id WHERE { VALUES (?__shape_id " + (
            '?__shape_0) { ("a" "0.5") }  ?h a noa:Hotspot ; '
            "noa:hasConfidence ?c . FILTER(?c >= ?__shape_0) }"
        ) in floors.text(["a"])
        assert 'WHERE { VALUES (?__shape_id) { ("d") }  ?h' in plain.text(
            ["d"]
        )
        assert star.text(["e"]).endswith(
            'SELECT ?h ?__shape_id WHERE { VALUES (?__shape_id) { ("e") }'
            "  ?h a noa:Hotspot . }"
        )
        assert registry.remove("a") and registry.remove("d")
        assert [members for _, members in registry.shapes()] == [
            ["b", "c"],
            ["e"],
        ]
        assert '"0.5"' not in floors.text(["b", "c"])

    def test_lifted_literals_keep_each_query_s_answer(self):
        strabon = Strabon()
        engine = _engine_on(strabon)
        wheres = [
            self.FLOOR.format('"0.5"'),
            self.FLOOR.format('"0.9"'),
            # A literal inside OPTIONAL and one with a language tag.
            '?h a noa:Hotspot . OPTIONAL { ?h noa:hasConfidence ?c . '
            'FILTER(?c = "0.8") } FILTER(bound(?c) && "x"@en != "y")',
            # The user's own variable in the shape's namespace.
            '?h noa:hasConfidence ?__shape_0 . FILTER(?__shape_0 < "0.7")',
        ]
        subs = engine.register_many(
            [
                {"kind": "stsparql", "query": PREFIX + f"SELECT ?h WHERE {{ {w} }}"}
                for w in wheres
            ]
        )
        assert len(engine.registry.shapes()) == 3
        _insert_hotspot(strabon, 1, 23.0, 38.0, confidence=0.8)
        _insert_hotspot(strabon, 2, 23.1, 38.0, confidence=0.6)
        batch = engine.process_commit(2, _delta(strabon))
        hot = "http://example.org/hotspot/"
        assert batch.keys() == [
            (subs[0].id, hot + "1"),
            (subs[0].id, hot + "2"),
            (subs[2].id, hot + "1"),
            (subs[3].id, hot + "2"),
        ]


class TestDeltaExtraction:
    def test_collects_subjects_and_municipalities(self):
        from repro.durable.codec import OP_ADD, OP_REMOVE
        from repro.rdf.term import URI

        s = URI("http://example.org/h1")
        m = URI("http://example.org/muni/A")
        ops = [
            (OP_ADD, (s, NOA.hasConfidence, m)),
            (OP_REMOVE, (s, NOA.isInMunicipality, m)),
        ]
        delta = delta_from_ops(ops)
        assert delta.subjects == ("http://example.org/h1",)
        assert delta.municipalities == ("http://example.org/muni/A",)
        assert not delta.full_rescan

    def test_clear_forces_full_rescan(self):
        from repro.durable.codec import OP_CLEAR

        delta = delta_from_ops([(OP_CLEAR, None)])
        assert delta.full_rescan

    def test_subclass_change_flags_the_schema(self):
        from repro.durable.codec import OP_ADD
        from repro.rdf.namespace import RDFS
        from repro.rdf.term import URI

        flare = URI("http://example.org/Flare")
        delta = delta_from_ops(
            [(OP_ADD, (flare, RDFS.subClassOf, NOA.Hotspot))]
        )
        assert delta.full_rescan
        # Unlike a clear, the schema change keeps its subjects.
        assert delta.subjects == ("http://example.org/Flare",)
        assert not delta_from_ops(
            [(OP_ADD, (flare, NOA.hasConfidence, NOA.Hotspot))]
        ).full_rescan


class TestEngine:
    def test_filter_subscription_notifies_on_new_hotspot(self):
        strabon = Strabon()
        engine = _engine_on(strabon)
        sub = engine.register(
            {"kind": "filter", "min_confidence": 0.5}
        )
        subject = _insert_hotspot(strabon, 1, 23.7, 38.0)
        batch = engine.process_commit(2, _delta(strabon))
        keys = {
            (d["subscription"], d["subject"])
            for d in batch.notifications
        }
        assert (sub.id, subject) in keys

    def test_notification_is_exactly_once_per_subject(self):
        strabon = Strabon()
        engine = _engine_on(strabon)
        engine.register({"kind": "filter"})
        _insert_hotspot(strabon, 1, 23.7, 38.0)
        first = engine.process_commit(2, _delta(strabon))
        assert len(first.notifications) == 1
        # Touch the same subject again — already notified, no repeat.
        strabon.update(
            PREFIX
            + 'INSERT DATA { <http://example.org/hotspot/1> '
            + 'noa:hasConfidence "0.9" . }'
        )
        second = engine.process_commit(3, _delta(strabon))
        assert second.refs == ()

    def test_an_undone_commit_leaves_the_pre_commit_state(self):
        strabon = Strabon()
        engine = _engine_on(strabon)
        engine.register({"kind": "filter"})
        _insert_hotspot(strabon, 1, 23.7, 38.0)
        ops = strabon.graph.drain_journal()
        with engine.evaluation_undone():
            undone = engine.process_commit(2, delta_from_ops(ops))
        kept = engine.process_commit(2, delta_from_ops(ops))
        assert len(undone.notifications) == 1
        assert set(undone.keys()) == set(kept.keys())
        # The kept commit marked the subject seen: no repeat.
        again = engine.process_commit(2, delta_from_ops(ops))
        assert again.refs == ()

    def test_priming_suppresses_pre_existing_matches(self):
        strabon = Strabon()
        _insert_hotspot(strabon, 1, 23.7, 38.0)
        engine = _engine_on(strabon)  # hotspot already published
        engine.register({"kind": "filter"})
        strabon.update(
            PREFIX
            + 'INSERT DATA { <http://example.org/hotspot/1> '
            + 'noa:hasConfidence "0.9" . }'
        )
        batch = engine.process_commit(2, _delta(strabon))
        assert batch.refs == ()  # it matched before "now"

    @pytest.mark.parametrize("bulk", [False, True])
    def test_priming_marks_exactly_the_brute_force_pairs(self, bulk):
        rng = random.Random(11)
        strabon = Strabon()
        hotspots = {}
        for n in range(30):
            lon = round(rng.uniform(20, 28), 3)
            lat = round(rng.uniform(34, 42), 3)
            confidence = round(rng.uniform(0.1, 1.0), 2)
            subject = _insert_hotspot(strabon, n, lon, lat, confidence)
            hotspots[subject] = (lon, lat, confidence)
        engine = _engine_on(strabon)
        docs = []
        for _ in range(40):
            doc = {"kind": "filter"}
            if rng.random() < 0.85:
                x, y = rng.uniform(19, 28), rng.uniform(33, 42)
                doc["bbox"] = [
                    round(x, 3),
                    round(y, 3),
                    round(x + rng.uniform(0.5, 4), 3),
                    round(y + rng.uniform(0.5, 4), 3),
                ]
            if rng.random() < 0.5:
                doc["min_confidence"] = round(rng.uniform(0.2, 0.9), 2)
            docs.append(doc)
        subs = list(engine.register_many(docs[:10]))
        if bulk:
            subs += engine.register_many(docs[10:])
        else:
            subs += [engine.register(doc) for doc in docs[10:]]
        for sub in subs:
            want = {
                subject
                for subject, (lon, lat, confidence) in hotspots.items()
                if (sub.bbox is None or sub.bbox.contains_point(lon, lat))
                and (
                    sub.min_confidence is None
                    or confidence >= sub.min_confidence
                )
            }
            assert engine._seen.get(sub.id, set()) == want

    def test_register_many_with_an_inverted_geofence_registers_nothing(
        self,
    ):
        engine = _engine_on(Strabon())
        with pytest.raises(SubscriptionError, match="bbox"):
            engine.register_many(
                [
                    {"kind": "filter", "bbox": [20, 36, 25, 40]},
                    {"kind": "filter", "bbox": [25, 38, 24, 39]},
                ]
            )
        assert len(engine.registry) == 0

    def test_geofence_excludes_outside_hotspots(self):
        strabon = Strabon()
        engine = _engine_on(strabon)
        engine.register(
            {"kind": "filter", "bbox": [20.0, 36.0, 25.0, 40.0]}
        )
        _insert_hotspot(strabon, 1, 23.0, 38.0)  # inside
        _insert_hotspot(strabon, 2, 5.0, 5.0)  # outside
        batch = engine.process_commit(2, _delta(strabon))
        subjects = {d["subject"] for d in batch.notifications}
        assert subjects == {"http://example.org/hotspot/1"}

    def test_stsparql_standing_query_binds_h_per_subject(self):
        strabon = Strabon()
        engine = _engine_on(strabon)
        sub = engine.register(
            {
                "kind": "stsparql",
                "query": PREFIX
                + "SELECT ?h WHERE { ?h a noa:Hotspot . "
                + "?h noa:hasConfidence ?c . "
                + 'FILTER(?c >= "0.7") }',
            }
        )
        _insert_hotspot(strabon, 1, 23.0, 38.0, confidence=0.9)
        _insert_hotspot(strabon, 2, 23.1, 38.1, confidence=0.3)
        batch = engine.process_commit(2, _delta(strabon))
        mine = [
            d
            for d in batch.notifications
            if d["subscription"] == sub.id
        ]
        assert [d["subject"] for d in mine] == [
            "http://example.org/hotspot/1"
        ]

    def test_incremental_and_full_agree_on_the_accepted_fragment(self):
        """The two queries the substring check let through made the
        incremental path notify hotspots the full re-run never did;
        they are refused now, and the corrected query agrees."""
        strabon = Strabon()
        engine = _engine_on(strabon)
        floor = "noa:hasConfidence ?c . FILTER(?c > 0.95) }"
        for refused in (
            "SELECT ?hs WHERE { ?hs a noa:Hotspot ; " + floor,
            "SELECT ?c WHERE { ?h a noa:Hotspot ; " + floor,
        ):
            with pytest.raises(SubscriptionError):
                engine.register(
                    {"kind": "stsparql", "query": PREFIX + refused}
                )
        # (The inserted confidences are plain literals: compare as text.)
        sub = engine.register(
            {
                "kind": "stsparql",
                "query": PREFIX
                + "SELECT ?h WHERE { ?h a noa:Hotspot ; "
                + floor.replace("0.95", '"0.95"'),
            }
        )
        oracle = SubscriptionEngine()
        add_one(oracle.registry, sub)
        oracle.evaluate_full(strabon, 1)
        _insert_hotspot(strabon, 1, 23.0, 38.0, confidence=0.99)
        for n in (2, 3, 4):
            _insert_hotspot(strabon, n, 23.1, 38.1, confidence=0.5)
        incremental = {
            d["subject"]
            for d in engine.process_commit(
                2, _delta(strabon)
            ).notifications
        }
        full = {
            d["subject"]
            for d in oracle.evaluate_full(strabon, 2).notifications
        }
        assert incremental == full == {"http://example.org/hotspot/1"}

    @pytest.mark.parametrize("hotspots", [5, 50])
    def test_one_engine_call_per_standing_query_with_pending_subjects(
        self, hotspots, monkeypatch
    ):
        """Queries of distinct shapes each cost one call when pending."""
        strabon = Strabon()
        engine = _engine_on(strabon)
        everything = engine.register(
            {
                "kind": "stsparql",
                "query": PREFIX
                + "SELECT ?h WHERE { ?h a noa:Hotspot ; "
                + 'noa:hasConfidence ?c . FILTER(?c >= "0.0") }',
            }
        )
        # ``>`` where the first has ``>=``: equal but for the operator,
        # so a shape of its own.
        engine.register(
            {
                "kind": "stsparql",
                "query": PREFIX
                + "SELECT ?h WHERE { ?h a noa:Hotspot ; "
                + 'noa:hasConfidence ?c . FILTER(?c > "0.99") }',
            }
        )
        engine.register(
            {
                "kind": "stsparql",
                "query": PREFIX
                + "SELECT ?h WHERE { ?h a noa:Hotspot ; "
                + "strdf:hasGeometry ?g . FILTER(strdf:anyInteract("
                + '"POLYGON ((20 36, 25 36, 25 40, 20 40, 20 36))"'
                + f"^^{WKT}, ?g)) }}",
            }
        )
        assert len(engine.registry.shapes()) == 3
        calls = []
        query = Strabon.query

        def counted(self, *args, **kwargs):
            calls.append(args[0])
            return query(self, *args, **kwargs)

        def commit(sequence):
            calls.clear()
            monkeypatch.setattr(Strabon, "query", counted)
            try:
                batch = engine.process_commit(sequence, _delta(strabon))
            finally:
                monkeypatch.setattr(Strabon, "query", query)
            return batch, len(calls)

        for n in range(hotspots):
            _insert_hotspot(strabon, n, 23.0 + n * 0.01, 38.0)
        batch, engine_calls = commit(2)
        assert engine_calls == 3  # every query has pending subjects
        mine = [
            d
            for d in batch.notifications
            if d["subscription"] == everything.id
        ]
        assert len(mine) == hotspots
        # Touch every hotspot again: ``everything`` and the region
        # query have seen them all, the strict 0.99 floor none.
        for n in range(hotspots):
            strabon.update(
                PREFIX
                + f"INSERT DATA {{ <http://example.org/hotspot/{n}> "
                + 'noa:hasConfidence "0.6" . }'
            )
        _, engine_calls = commit(3)
        assert engine_calls == 1

    @pytest.mark.parametrize("hotspots", [5, 50])
    def test_one_engine_call_per_shape_with_pending_subjects(
        self, hotspots, monkeypatch
    ):
        """Two floors share one shape, the region query is another."""
        strabon = Strabon()
        engine = _engine_on(strabon)
        def floor(value):
            return {
                "kind": "stsparql",
                "query": PREFIX
                + "SELECT ?h WHERE { ?h a noa:Hotspot ; "
                + f'noa:hasConfidence ?c . FILTER(?c >= "{value}") }}',
            }

        everything = engine.register(floor(0.0))
        engine.register(floor(0.99))
        engine.register(
            {
                "kind": "stsparql",
                "query": PREFIX
                + "SELECT ?h WHERE { ?h a noa:Hotspot ; "
                + "strdf:hasGeometry ?g . FILTER(strdf:anyInteract("
                + '"POLYGON ((20 36, 25 36, 25 40, 20 40, 20 36))"'
                + f"^^{WKT}, ?g)) }}",
            }
        )
        calls = []
        query = Strabon.query

        def counted(self, *args, **kwargs):
            calls.append(args[0])
            return query(self, *args, **kwargs)

        def commit(sequence):
            calls.clear()
            monkeypatch.setattr(Strabon, "query", counted)
            try:
                batch = engine.process_commit(sequence, _delta(strabon))
            finally:
                monkeypatch.setattr(Strabon, "query", query)
            return batch, len(calls)

        for n in range(hotspots):
            _insert_hotspot(strabon, n, 23.0 + n * 0.01, 38.0)
        batch, engine_calls = commit(2)
        assert engine_calls == 2  # every shape has pending subjects
        mine = [
            d
            for d in batch.notifications
            if d["subscription"] == everything.id
        ]
        assert len(mine) == hotspots
        # Touch every hotspot again: ``everything`` and the region
        # query have seen them all, the 0.99 floor none, so only the
        # floors' shape runs.
        for n in range(hotspots):
            strabon.update(
                PREFIX
                + f"INSERT DATA {{ <http://example.org/hotspot/{n}> "
                + 'noa:hasConfidence "0.6" . }'
            )
        _, engine_calls = commit(3)
        assert engine_calls == 1

    def test_fwi_fires_on_class_transition_only(self):
        strabon = Strabon()
        engine = _engine_on(strabon)
        sub = engine.register({"kind": "fwi", "min_class": "low"})
        _insert_hotspot(strabon, 1, 23.0, 38.0, confidence=0.4)
        first = engine.process_commit(2, _delta(strabon))
        fwi = [
            d for d in first.notifications if d["kind"] == "fwi"
        ]
        assert fwi == []  # 0.4 is still "low" — no transition
        _insert_hotspot(strabon, 2, 23.1, 38.1, confidence=0.4)
        second = engine.process_commit(3, _delta(strabon))
        fwi = [
            d for d in second.notifications if d["kind"] == "fwi"
        ]
        assert len(fwi) == 1
        assert fwi[0]["subscription"] == sub.id
        assert fwi[0]["payload"]["danger_class"] == "moderate"
        assert fwi[0]["payload"]["previous_class"] == "low"

    def test_fwi_baseline_credits_every_municipality_of_a_hotspot(self):
        # A pixel straddling a boundary sits in both municipalities;
        # the baseline must score it where per-commit transitions do.
        strabon = Strabon()
        a = "http://example.org/muni/A"
        b = "http://example.org/muni/B"
        subject = _insert_hotspot(
            strabon, 1, 23.0, 38.0, confidence=1.0, municipality=a
        )
        strabon.update(
            PREFIX
            + f"INSERT DATA {{ <{subject}> noa:isInMunicipality <{b}> . }}"
        )
        engine = _engine_on(strabon)
        graph = strabon.graph
        inference = RDFSInference(graph)
        expected = {
            m: danger_class(municipality_score(graph, inference, m))
            for m in (a, b)
        }
        assert expected == {a: 1, b: 1}
        assert engine._fwi_classes == expected
        # A commit touching only B leaves its class where it was.
        engine.register({"kind": "fwi", "min_class": "low"})
        _insert_hotspot(strabon, 2, 23.5, 38.5, confidence=0.0,
                        municipality=b)
        batch = engine.process_commit(2, _delta(strabon))
        assert [
            d for d in batch.notifications if d["kind"] == "fwi"
        ] == []

    def test_fwi_min_class_filters_transitions(self):
        strabon = Strabon()
        engine = _engine_on(strabon)
        engine.register({"kind": "fwi", "min_class": "extreme"})
        _insert_hotspot(strabon, 1, 23.0, 38.0, confidence=1.0)
        batch = engine.process_commit(2, _delta(strabon))
        assert [
            d for d in batch.notifications if d["kind"] == "fwi"
        ] == []

    def test_remove_drops_seen_state_and_cursor(self):
        strabon = Strabon()
        engine = _engine_on(strabon)
        sub = engine.register({"kind": "filter"})
        engine.ack(sub.id, 5)
        assert engine.cursor(sub.id) == 5
        assert engine.remove(sub.id)
        assert engine.cursor(sub.id) == 0
        assert not engine.remove(sub.id)

    def test_ack_is_monotonic(self):
        strabon = Strabon()
        engine = _engine_on(strabon)
        sub = engine.register({"kind": "filter"})
        assert engine.ack(sub.id, 3) == 3
        assert engine.ack(sub.id, 1) == 3  # regressions ignored

    def test_raising_listener_does_not_break_fanout(self):
        strabon = Strabon()
        engine = _engine_on(strabon)
        engine.register({"kind": "filter"})
        seen = []
        engine.add_listener(
            lambda b: (_ for _ in ()).throw(RuntimeError("bug"))
        )
        engine.add_listener(lambda b: seen.append(b.sequence))
        _insert_hotspot(strabon, 1, 23.0, 38.0)
        batch = engine.process_commit(2, _delta(strabon))
        engine.publish_batch(batch)
        assert seen == [2]

    def test_subclass_typed_star_is_served_and_notified(self):
        """Alerts and /v1/hotspots agree on what a hotspot is: a star
        typed by a subclass of noa:Hotspot is served, notified to a
        matching geofence and standing query, and counted as FWI
        evidence."""
        from repro.serve import query_hotspots

        strabon = Strabon()
        strabon.update(
            PREFIX
            + "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>\n"
            + "INSERT DATA { <http://example.org/Flare> "
            + "rdfs:subClassOf noa:Hotspot . }"
        )
        publisher = SnapshotPublisher()
        engine = SubscriptionEngine()
        engine.bind(strabon, publisher)
        strabon.graph.start_journal()
        publisher.publish(strabon)
        fence = engine.register(
            {"kind": "filter", "bbox": [20.0, 36.0, 25.0, 40.0]}
        )
        standing = engine.register(
            {
                "kind": "stsparql",
                "query": PREFIX
                + "SELECT ?h WHERE { ?h a noa:Hotspot ; "
                + "noa:hasConfidence ?c }",
            }
        )
        danger = engine.register({"kind": "fwi", "min_class": "low"})
        subject = "http://example.org/hotspot/flare"
        strabon.update(
            PREFIX
            + f"""INSERT DATA {{
                <{subject}> a <http://example.org/Flare> .
                <{subject}> strdf:hasGeometry
                    "POINT (23.0 38.0)"^^{WKT} .
                <{subject}> noa:hasConfidence "0.9" .
                <{subject}> noa:hasAcquisitionDateTime
                    "2007-08-24T13:00:00" .
                <{subject}> noa:isInMunicipality
                    <http://example.org/muni/A> .
            }}"""
        )
        batch = engine.process_commit(2, _delta(strabon))
        keys = {
            (d["subscription"], d["subject"])
            for d in batch.notifications
        }
        assert (fence.id, subject) in keys
        assert (standing.id, subject) in keys
        assert (danger.id, "http://example.org/muni/A") in keys
        published = publisher.publish(strabon)
        served = query_hotspots(published)["features"]
        assert [f["properties"]["hotspot"] for f in served] == [subject]

    def test_stats_reports_counts(self):
        strabon = Strabon()
        engine = _engine_on(strabon)
        engine.register({"kind": "filter"})
        stats = engine.stats()
        assert stats["subscriptions"] == 1
        assert stats["durable"] is False


def _durable_engine(strabon: Strabon, state_dir: str) -> SubscriptionEngine:
    publisher = SnapshotPublisher()
    engine = SubscriptionEngine(state_dir=state_dir)
    engine.bind(strabon, publisher)
    strabon.graph.start_journal()
    publisher.publish(strabon)
    return engine


def _tree_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(base, name))
        for base, _dirs, names in os.walk(path)
        for name in names
    )


class TestDurableState:
    def test_a_hotspot_matched_k_times_logs_its_payload_once(
        self, tmp_path
    ):
        state_dir = str(tmp_path / "subs")
        strabon = Strabon()
        engine = _durable_engine(strabon, state_dir)
        try:
            subs = engine.register_many(
                [{"kind": "filter", "bbox": [23.0, 37.0, 24.0, 39.0]}] * 6
            )
            subject = _insert_hotspot(strabon, 1, 23.5, 38.0)
            engine.process_commit(2, _delta(strabon))
        finally:
            engine.close()
        with WriteAheadLog(
            os.path.join(state_dir, "notifications.log")
        ) as log:
            (record,) = log.replayed
        batch = NotificationBatch.from_payload(record.payload)
        assert [s for s, _ in batch.subjects] == [subject]
        assert sorted(sub for sub, _, _ in batch.refs) == sorted(
            s.id for s in subs
        )
        raw, _ = unpack_block(record.payload, 4, "batch")
        assert raw.count(b'"lon"') == 1

    def test_registration_costs_its_own_bytes_not_the_registry(
        self, tmp_path
    ):
        state_dir = str(tmp_path / "subs")
        engine = _durable_engine(Strabon(), state_dir)
        try:
            engine.register_many(
                {
                    "kind": "filter",
                    "bbox": [20.0 + n % 9, 35.0, 21.0 + n % 9, 36.0],
                    "min_confidence": 0.5,
                }
                for n in range(2000)
            )
            registry = os.path.join(state_dir, "registry.log")
            for change in (
                lambda: engine.register({"kind": "filter"}),
                lambda: engine.remove(engine.registry.list()[0].id),
            ):
                with open(registry, "rb") as fh:
                    before = fh.read()
                size = _tree_bytes(state_dir)
                change()
                assert _tree_bytes(state_dir) - size < 2048
                with open(registry, "rb") as fh:
                    assert fh.read().startswith(before)  # append-only
        finally:
            engine.close()

    def test_reopen_restores_the_registry_and_seen_sets(self, tmp_path):
        state_dir = str(tmp_path / "subs")
        strabon = Strabon()
        publisher = SnapshotPublisher()
        engine = SubscriptionEngine(state_dir=state_dir)
        engine.bind(strabon, publisher)
        strabon.graph.start_journal()
        publisher.publish(strabon)
        try:
            kept = engine.register({"kind": "filter"})
            publisher.publish(strabon)
            late = engine.register_many(
                [{"kind": "filter", "min_confidence": 0.5}] * 2
            )
            gone = engine.register({"kind": "fwi", "min_class": "high"})
            engine.remove(gone.id)
            for n in (1, 2):
                _insert_hotspot(strabon, n, 23.5, 38.0 + n / 10)
                engine.process_commit(
                    publisher.sequence + 1, _delta(strabon)
                )
                publisher.publish(strabon)
            registered = {
                s.id: s.to_dict() for s in engine.registry.list()
            }
            # Every subscription registered before any hotspot: the
            # seen-sets are exactly the delivered (logged) pairs.
            seen = {k: set(v) for k, v in engine._seen.items() if v}
        finally:
            engine.close()
        assert kept.created_sequence == 1
        assert {s.created_sequence for s in late} == {2}
        assert sorted(map(len, seen.values())) == [2, 2, 2]
        for _ in range(2):  # the first reopen folds, the second reads it
            reopened = SubscriptionEngine(state_dir=state_dir)
            try:
                assert {
                    s.id: s.to_dict() for s in reopened.registry.list()
                } == registered
                assert reopened.registry.get(gone.id) is None
                assert {
                    k: v for k, v in reopened._seen.items() if v
                } == seen
            finally:
                reopened.close()
        with WriteAheadLog(os.path.join(state_dir, "registry.log")) as log:
            assert len(log.replayed) == 1

    def test_primed_matches_stay_silent_after_a_restart(self, tmp_path):
        state_dir = str(tmp_path / "subs")
        strabon = Strabon()
        subject = _insert_hotspot(strabon, 1, 23.5, 38.0)
        engine = _durable_engine(strabon, state_dir)
        try:
            subs = [
                engine.register({"kind": "filter"}),
                engine.register(
                    {
                        "kind": "stsparql",
                        "query": PREFIX
                        + "SELECT ?h WHERE { ?h a noa:Hotspot ; "
                        + 'noa:hasConfidence ?c . FILTER(?c >= "0.5") }',
                    }
                ),
            ]
            assert all(subject in engine._seen[s.id] for s in subs)
        finally:
            engine.close()
        for sequence in (2, 3):  # the first reopen folds the log
            reopened = _durable_engine(strabon, state_dir)
            try:
                # A later change to the primed hotspot's star.
                strabon.update(
                    PREFIX
                    + f"INSERT DATA {{ <{subject}> noa:hasConfirmation "
                    + f"noa:confirmed{sequence} . }}"
                )
                batch = reopened.process_commit(sequence, _delta(strabon))
                assert batch.refs == ()
                # Primed pairs live in the registry log: never replayed.
                assert all(
                    not b.refs for b in reopened.replay_after(0)
                )
            finally:
                reopened.close()
        with WriteAheadLog(os.path.join(state_dir, "registry.log")) as log:
            (record,) = log.replayed
        head, rows = SubscriptionRows.decode(record.payload)
        assert rows.ids == [s.id for s in subs]
        assert head["primed"] == [[s.id, [subject]] for s in subs]

    def test_old_layout_state_is_refused(self, tmp_path):
        legacy = tmp_path / "legacy"
        legacy.mkdir()
        (legacy / "registry.json").write_text(
            '{"version": 1, "subscriptions": []}'
        )
        with pytest.raises(DurabilityError, match="registry.json"):
            SubscriptionEngine(state_dir=str(legacy))
        old_cursors = tmp_path / "old-cursors"
        old_cursors.mkdir()
        (old_cursors / "cursors.json").write_text(
            '{"version": 1, "cursors": {}}'
        )
        with pytest.raises(DurabilityError, match="cursors.json"):
            SubscriptionEngine(state_dir=str(old_cursors))
        old_batches = tmp_path / "old-batches"
        old_batches.mkdir()
        with WriteAheadLog(str(old_batches / "notifications.log")) as log:
            log.append(
                json.dumps(
                    {"sequence": 2, "wal_seq": 1, "notifications": []}
                ).encode()
            )
        with pytest.raises(DurabilityError, match="notifications.log"):
            SubscriptionEngine(state_dir=str(old_batches))
