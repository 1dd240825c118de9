"""Filter subscriptions as columns: batch validation, probes and
predicates against brute force, priming through the spatial index,
all-or-nothing registration and reopen."""

from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.durable import RegistryLog
from repro.serve import SnapshotPublisher
from repro.serve import subscribe
from repro.serve.subscribe import (
    HotspotRecord,
    Subscription,
    SubscriptionEngine,
    SubscriptionError,
    SubscriptionRegistry,
    _parse_batch,
    _Registered,
)
from repro.stsparql import Strabon
from repro.stsparql.engine import SnapshotView

from tests.serve.subscription_oracle import (
    add_many,
    add_one,
    from_dict,
    municipality_matches,
)
from tests.serve.test_subscribe import PREFIX, _delta, _insert_hotspot

QUERY = PREFIX + "SELECT ?h WHERE { ?h a <http://example.org/T> }"
FLOOR_QUERY = (
    PREFIX + "SELECT ?h WHERE { ?h a noa:Hotspot ; noa:hasConfidence ?c . "
    'FILTER(?c >= "0.5") }'
)

_numbers = st.one_of(
    st.floats(),
    st.integers(-1000, 1000),
    st.integers(min_value=2**1030, max_value=2**1040),
)
_values = st.one_of(
    st.none(),
    st.booleans(),
    _numbers,
    st.sampled_from(["1.5", " 2 ", "nan", "-inf", "1_0", "x", ""]),
)
_boxes = st.one_of(
    st.none(),
    st.lists(_values, min_size=3, max_size=5),
    st.tuples(_values, _values, _values, _values),
    # Well-formed and inverted boxes.
    st.tuples(
        st.floats(-50, 50),
        st.floats(-50, 50),
        st.floats(0, 5),
        st.floats(0, 5),
    ).map(lambda t: [t[0], t[1], t[0] + t[2], t[1] + t[3]]),
    st.tuples(
        st.floats(-50, 50), st.floats(-50, 50), st.floats(0.1, 5)
    ).map(lambda t: [t[0] + t[2], t[1], t[0], t[1] + 1]),
)
_documents = st.fixed_dictionaries(
    {},
    optional={
        "kind": st.sampled_from(
            ["filter", "filter", "fwi", "fwi", "stsparql", "stsparql", "x"]
        ),
        "bbox": _boxes,
        "min_confidence": _values,
        "confirmed": _values,
        "municipality": st.one_of(
            st.none(), st.sampled_from(["A", "B", "C"]), st.integers(0, 3)
        ),
        "query": st.sampled_from(
            [
                None,
                QUERY,
                FLOOR_QUERY,
                FLOOR_QUERY.replace("0.5", "0.7"),
                QUERY + " ORDER BY ?h",
                "SELECT nonsense",
                "",
                5,
                [QUERY],
            ]
        ),
        "min_class": st.sampled_from(
            ["low", "extreme", "apocalyptic", None, 2, ["high"]]
        ),
    },
)
_batches = st.lists(
    st.one_of(
        _documents,
        _documents,
        _documents,
        st.one_of(st.none(), st.integers(), st.lists(st.integers())),
    ),
    max_size=8,
)


def _verdict(call):
    try:
        return call(), None
    except Exception as error:  # noqa: BLE001 — the verdict under test
        return None, (type(error), str(error))


class TestBatchValidation:
    @settings(max_examples=400, deadline=None)
    @given(_batches)
    def test_batch_verdicts_equal_from_dict(self, docs):
        """Every kind: the batch accepts what the one-document oracle
        accepts, with the same subscriptions, and refuses with the
        oracle's error for the first document it refuses."""
        ids = [f"id{k}" for k in range(len(docs))]
        want, want_error = _verdict(
            lambda: [
                from_dict(doc, ids[k], 3)
                for k, doc in enumerate(docs)
            ]
        )
        got, got_error = _verdict(lambda: _parse_batch(docs, ids, 3))
        assert got_error == want_error
        if want_error is None:
            rows, lifted = got
            assert list(_Registered(rows)) == want
            assert sorted(lifted) == sorted(
                {sub.query for sub in want if sub.kind == "stsparql"}
            )

    @pytest.mark.parametrize(
        "bad",
        [
            {"kind": "filter", "bbox": [True, 36.0, 25.0, 40.0]},
            {"kind": "filter", "bbox": [20.0, 36.0, math.inf, 40.0]},
            {"kind": "filter", "bbox": [20.0, 36.0, 25.0]},
            {"kind": "filter", "bbox": [25.0, 36.0, 20.0, 40.0]},
            {"kind": "filter", "min_confidence": math.nan},
            {"kind": "filter", "confirmed": 1},
            "not a document",
        ],
    )
    def test_one_bad_document_registers_nothing(self, bad, tmp_path):
        engine = SubscriptionEngine(state_dir=str(tmp_path / "subs"))
        good = [{"kind": "filter", "bbox": [20, 36, 21, 37]}] * 5
        with pytest.raises(SubscriptionError):
            engine.register_many(good + [bad] + good)
        assert len(engine.registry) == 0
        assert engine.registry.geofence_candidates(20.5, 36.5) == []
        engine.close()
        reopened = SubscriptionEngine(state_dir=str(tmp_path / "subs"))
        assert len(reopened.registry) == 0
        reopened.close()

    @pytest.mark.parametrize(
        "doc",
        [
            {"min_confidence": 2**1040},
            {"bbox": [0, 0, 1, 2**1040]},
            {"kind": "fwi", "bbox": [0, 0, 2**1040, 1]},
        ],
    )
    def test_an_integer_too_large_for_a_float_is_refused(self, doc):
        """JSON integers have no size limit; one no float can hold is a
        SubscriptionError (an HTTP 422), not an OverflowError."""
        with pytest.raises(SubscriptionError, match="too large"):
            SubscriptionEngine().register_many([{"kind": "filter"}, doc])

    def test_numeric_strings_are_accepted_as_from_dict_accepts_them(self):
        docs = [{"bbox": ["20", " 36", "21.5", 37], "min_confidence": "0.5"}]
        (sub,) = _Registered(_parse_batch(docs, ["a"], 0)[0])
        assert sub == from_dict(docs[0], "a", 0)

    def test_ids_are_twelve_hex_characters(self):
        engine = SubscriptionEngine()
        subs = engine.register_many([{"kind": "filter"}] * 50)
        assert len({sub.id for sub in subs}) == 50
        assert all(
            len(sub.id) == 12 and int(sub.id, 16) >= 0 for sub in subs
        )


def _record(rng, n, lon, lat):
    return HotspotRecord(
        subject=f"h{n}",
        lon=lon,
        lat=lat,
        confidence=rng.choice([None, round(rng.uniform(0, 1), 2)]),
        confirmation=rng.choice([None, "confirmed", "unconfirmed"]),
        municipality=rng.choice(
            [None, "http://example.org/muni#A", "http://example.org/B", "C"]
        ),
    )


def _brute_matches(sub, record) -> bool:
    if sub.bbox is not None and not sub.bbox.contains_point(
        record.lon, record.lat
    ):
        return False
    if sub.min_confidence is not None and (
        record.confidence is None or record.confidence < sub.min_confidence
    ):
        return False
    if sub.confirmed is not None and record.confirmed != sub.confirmed:
        return False
    if sub.municipality is not None and not municipality_matches(
        record.municipality, sub.municipality
    ):
        return False
    return True


class TestColumnChurn:
    @pytest.mark.parametrize("seed", range(4))
    def test_probe_order_and_predicates_equal_brute_force(self, seed):
        """Random single and bulk registrations and removals: every
        probe returns the live geofences covering the point in the
        last pack's order, then in registration order, then the
        bbox-less filters; every match is the brute-force predicate."""
        rng = random.Random(seed)
        registry = SubscriptionRegistry()
        live = {}
        rank = {}
        made = itertools.count()

        def fresh() -> Subscription:
            doc = {"kind": "filter"}
            if rng.random() < 0.9:
                x, y = rng.uniform(0, 40), rng.uniform(0, 40)
                w, h = rng.uniform(0, 8), rng.uniform(0, 8)
                doc["bbox"] = [x, y, x + w, y + h]
            if rng.random() < 0.4:
                doc["min_confidence"] = round(rng.uniform(0, 1), 2)
            if rng.random() < 0.3:
                doc["confirmed"] = rng.random() < 0.5
            if rng.random() < 0.3:
                doc["municipality"] = rng.choice(["A", "B", "C", "muni#A"])
            return from_dict(doc, f"s{next(made)}", 0)

        for _ in range(300):
            roll = rng.random()
            if roll < 0.45:
                sub = add_one(registry, fresh())
                live[sub.id] = sub
                rank[sub.id] = len(rank) + 10**6
            elif roll < 0.55:
                batch = [fresh() for _ in range(rng.randint(0, 40))]
                add_many(registry, batch)
                live.update((sub.id, sub) for sub in batch)
                # A pack orders every live geofence afresh.
                table = registry._table
                rank = {
                    table.ids[row]: order
                    for order, row in enumerate(registry._rtree.payloads())
                }
            elif live and roll < 0.95:
                sub_id = rng.choice(sorted(live))
                assert registry.remove(sub_id)
                del live[sub_id]
            else:
                assert not registry.remove("s-unknown")
            for n in range(5):
                record = _record(
                    rng, n, rng.uniform(-2, 50), rng.uniform(-2, 50)
                )
                got = registry.geofence_candidates(record.lon, record.lat)
                covering = [
                    s
                    for s in live.values()
                    if s.bbox is not None
                    and s.bbox.contains_point(record.lon, record.lat)
                ]
                want = sorted(covering, key=lambda s: rank[s.id]) + [
                    s for s in live.values() if s.bbox is None
                ]
                assert [s.id for s in got] == [s.id for s in want]
                assert got == want
                matched = registry.filter_matches([record])
                assert matched == [
                    (0, s.id) for s in want if _brute_matches(s, record)
                ]
        assert len(registry) == len(live)
        assert registry.list() == sorted(live.values(), key=lambda s: s.id)


def _hotspot_store(rng, count):
    strabon = Strabon()
    for n in range(count):
        _insert_hotspot(
            strabon,
            n,
            round(rng.uniform(20, 28), 4),
            round(rng.uniform(34, 42), 4),
            round(rng.uniform(0.1, 1.0), 2),
        )
    return strabon


@pytest.fixture(scope="module")
def store480():
    return _hotspot_store(random.Random(480), 480)


def _bound(strabon, state_dir=None):
    publisher = SnapshotPublisher()
    engine = SubscriptionEngine(state_dir=state_dir)
    engine.bind(strabon, publisher)
    strabon.graph.start_journal()
    publisher.publish(strabon)
    return engine


class TestPriming:
    @pytest.mark.parametrize("seed", range(3))
    def test_index_priming_equals_the_full_scan(
        self, seed, store480, monkeypatch, counter_ids
    ):
        """Priming reads only the stars the spatial index puts near the
        new fences; the primed sets equal the full-scan path's."""
        rng = random.Random(seed)
        docs = []
        for _ in range(60):
            doc = {"kind": "filter"}
            if rng.random() < 0.95:
                x, y = rng.uniform(19, 28), rng.uniform(33, 42)
                size = rng.choice([0.1, 0.5, 2.0])
                doc["bbox"] = [x, y, x + size, y + size]
            if rng.random() < 0.5:
                doc["min_confidence"] = round(rng.uniform(0.2, 0.9), 2)
            docs.append(doc)
        seen = []
        for full_scan in (False, True):
            if full_scan:
                monkeypatch.setattr(
                    SnapshotView, "spatial_search", lambda self, area: None
                )
            counter_ids.next = 0
            engine = _bound(store480)
            engine.register_many(docs[:30])
            for doc in docs[30:45]:
                engine.register(doc)
            engine.register_many(docs[45:])
            seen.append({k: v for k, v in engine._seen.items() if v})
        assert seen[0] == seen[1]
        assert sum(map(len, seen[0].values())) > 0

    def test_a_single_registration_reads_only_nearby_stars(
        self, store480, monkeypatch
    ):
        engine = _bound(store480)
        read = []
        record = subscribe.hotspot_record

        def counted(graph, inference, subject):
            read.append(subject)
            return record(graph, inference, subject)

        monkeypatch.setattr(subscribe, "hotspot_record", counted)
        engine.register({"kind": "filter", "bbox": [23.0, 37.0, 23.5, 37.5]})
        assert 0 < len(read) < 40


class _FailingAppend(Exception):
    pass


class TestAllOrNothing:
    @pytest.mark.parametrize("bulk", [False, True])
    def test_a_failed_log_append_takes_the_registration_back(
        self, bulk, tmp_path, monkeypatch
    ):
        strabon = Strabon()
        subject = _insert_hotspot(strabon, 1, 23.5, 38.0)
        state_dir = str(tmp_path / "subs")
        engine = _bound(strabon, state_dir)
        kept = engine.register_many(
            [{"kind": "filter", "bbox": [23, 37, 24, 39]}] * 3
        )
        before = {k: set(v) for k, v in engine._seen.items()}

        def refuse(self, payload):
            raise _FailingAppend("disk full")

        monkeypatch.setattr(RegistryLog, "_append_bytes", refuse)
        docs = [
            {"kind": "filter", "bbox": [23, 37, 24, 39]},
            {"kind": "filter"},
            {"kind": "fwi", "min_class": "low"},
            {"kind": "stsparql", "query": QUERY},
        ]
        with pytest.raises(_FailingAppend):
            if bulk:
                engine.register_many(docs)
            else:
                engine.register(docs[0])
        for doc in docs[1:] if not bulk else ():
            with pytest.raises(_FailingAppend):
                engine.register(doc)
        monkeypatch.undo()
        assert len(engine.registry) == 3
        assert engine.registry.counts() == {
            "filter": 3, "stsparql": 0, "fwi": 0,
        }
        assert {k: v for k, v in engine._seen.items()} == before
        candidates = engine.registry.geofence_candidates(23.5, 38)
        assert [s.id for s in candidates] == [s.id for s in kept]
        # The next commit notifies only the durable subscriptions.
        strabon.update(
            PREFIX
            + f"INSERT DATA {{ <{subject}x> a noa:Hotspot ; "
            + '<http://strdf.di.uoa.gr/ontology#hasGeometry> '
            + '"POINT (23.6 38.1)"^^<http://strdf.di.uoa.gr/ontology#WKT> . }'
        )
        batch = engine.process_commit(2, _delta(strabon))
        assert {ref[0] for ref in batch.refs} == {s.id for s in kept}
        engine.close()
        reopened = SubscriptionEngine(state_dir=state_dir)
        assert sorted(s.id for s in reopened.registry.list()) == sorted(
            s.id for s in kept
        )
        reopened.close()


class TestReopen:
    def test_documents_cursors_and_primed_sets_survive_a_reopen(
        self, tmp_path
    ):
        strabon = _hotspot_store(random.Random(5), 40)
        state_dir = str(tmp_path / "subs")
        engine = _bound(strabon, state_dir)
        rng = random.Random(9)
        docs = []
        for n in range(300):
            x, y = rng.uniform(20, 27), rng.uniform(34, 41)
            doc = {"kind": "filter", "bbox": [x, y, x + 1, y + 1]}
            if n % 3 == 0:
                doc["min_confidence"] = 0.5
            if n % 5 == 0:
                doc["municipality"] = "A"
            if n % 7 == 0:
                doc["confirmed"] = n % 2 == 0
            if n % 11 == 0:
                del doc["bbox"]
            docs.append(doc)
        docs += [
            {"kind": "fwi", "min_class": "high"},
            {"kind": "stsparql", "query": QUERY},
        ]
        subs = engine.register_many(docs)
        single = engine.register({"kind": "filter", "bbox": [22, 36, 23, 37]})
        for sub in list(subs)[::13]:
            engine.remove(sub.id)
        for n, sub in enumerate(engine.registry.list()[:50]):
            engine.ack(sub.id, n + 1)
        before = (
            [s.to_dict() for s in engine.registry.list()],
            engine.stats()["cursors"],
            {k: v for k, v in engine._seen.items() if v},
        )
        assert before[2] and single.id in {s["id"] for s in before[0]}
        engine.close()
        for _ in range(2):  # the first reopen folds, the second reads it
            reopened = SubscriptionEngine(state_dir=state_dir)
            after = (
                [s.to_dict() for s in reopened.registry.list()],
                reopened.stats()["cursors"],
                {k: v for k, v in reopened._seen.items() if v},
            )
            reopened.close()
            assert after == before

    def test_a_reopen_keeps_registration_order(self, tmp_path, counter_ids):
        """Standing queries and FWI subscriptions come back in
        registration order whatever fields each document set, so a
        shape's member order (its ``VALUES`` text) and a commit's refs
        are the same after a restart."""
        floor = (
            PREFIX + "SELECT ?h WHERE {{ ?h a noa:Hotspot ; "
            "noa:hasConfidence ?c . FILTER(?c >= {}) }}"
        )
        docs = [
            {"kind": "stsparql", "query": floor.format('"0.1"')},
            {
                "kind": "stsparql",
                "query": floor.format('"0.2"'),
                "bbox": [20, 34, 28, 42],
            },
            {"kind": "stsparql", "query": floor.format('"0.3"')},
            {"kind": "fwi", "min_class": "low"},
            {"kind": "fwi", "min_class": "low", "municipality": "A"},
            {"kind": "fwi", "min_class": "low"},
        ]
        strabon = Strabon()
        publisher = SnapshotPublisher()
        strabon.graph.start_journal()
        publisher.publish(strabon)

        def engine(name):
            engine = SubscriptionEngine(state_dir=str(tmp_path / name))
            engine.bind(strabon, publisher)
            return engine

        def order(engine):
            registry = engine.registry
            return (
                [s.id for s in registry.standing_queries()],
                [s.id for s in registry.fwi_subscriptions()],
                [
                    (members, shape.text(members))
                    for shape, members in registry.shapes()
                ],
            )

        engines = []
        for name in ("kept", "reopened"):
            counter_ids.next = 0
            engines.append(engine(name))
            engines[-1].register_many(docs)
        before = order(engines[1])
        assert before[0] + before[1] == [f"{k:012x}" for k in range(6)]
        engines[1].close()
        engines[1] = engine("reopened")
        assert order(engines[1]) == before == order(engines[0])
        _insert_hotspot(strabon, 1, 23.5, 38.0, confidence=0.9)
        delta = _delta(strabon)
        batches = [engine.process_commit(2, delta) for engine in engines]
        assert batches[1].refs == batches[0].refs
        assert [ref[0] for ref in batches[0].refs] == [
            f"{k:012x}" for k in range(6)
        ]
        for engine in engines:
            engine.close()

    def test_each_standing_query_is_parsed_once(self, tmp_path, monkeypatch):
        """``alert_fanout``'s standing queries: registering them parses
        each distinct text once (validation and constant lifting share
        the parse), and so does a reopen."""
        from benchmarks.e2e import workloads
        from repro.stsparql.parser import Parser

        docs = [
            doc
            for doc in workloads.bulk_subscriptions(
                workloads.WORKLOADS["alert_fanout"], 8803
            )
            if doc["kind"] == "stsparql"
        ]
        assert len(docs) == 40
        texts = len({doc["query"] for doc in docs})
        calls = []
        parse_query = Parser.parse_query

        def counted(self):
            calls.append(1)
            return parse_query(self)

        monkeypatch.setattr(Parser, "parse_query", counted)
        state_dir = str(tmp_path / "subs")
        engine = SubscriptionEngine(state_dir=state_dir)
        engine.register_many(docs)
        engine.close()
        assert len(calls) == texts <= 40
        calls.clear()
        reopened = SubscriptionEngine(state_dir=state_dir)
        assert len(reopened.registry.shapes()) == 2
        reopened.close()
        assert len(calls) == texts
