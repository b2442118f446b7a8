"""Unit tests for repro.persist."""

import pickle

import pytest

from repro.core.dynamize import DynamicMultiKOrp
from repro.core.lc_kw import LcKwIndex
from repro.core.orp_kw import OrpKwIndex
from repro.errors import ValidationError
from repro.geometry.halfspaces import HalfSpace
from repro.geometry.rectangles import Rect
from repro.persist import FORMAT_VERSION, load_index, save_index
from repro.service.engine import QueryEngine
from repro.telemetry import EventLog

from helpers import random_dataset


class _StandIn:
    """Pickled by reference, then renamed to a class path that no longer exists."""


class TestRoundTrip:
    def test_orp_round_trip(self, rng, tmp_path):
        ds = random_dataset(rng, 80)
        index = OrpKwIndex(ds, k=2)
        path = tmp_path / "orp.idx"
        save_index(index, path)
        loaded = load_index(path)
        rect = Rect((2.0, 2.0), (8.0, 8.0))
        for _ in range(10):
            words = rng.sample(range(1, 9), 2)
            assert sorted(o.oid for o in loaded.query(rect, words)) == sorted(
                o.oid for o in index.query(rect, words)
            )

    def test_lc_round_trip(self, rng, tmp_path):
        ds = random_dataset(rng, 60)
        index = LcKwIndex(ds, k=2)
        path = tmp_path / "lc.idx"
        save_index(index, path)
        loaded = load_index(path, expected_class=LcKwIndex)
        h = HalfSpace((1.0, 1.0), 10.0)
        assert sorted(o.oid for o in loaded.query([h], [1, 2])) == sorted(
            o.oid for o in index.query([h], [1, 2])
        )

    def test_engine_round_trip_answers_and_costs(self, rng, tmp_path):
        engine = QueryEngine(random_dataset(rng, 300), max_k=4, cache_size=0)
        path = tmp_path / "engine.idx"
        save_index(engine, path)
        loaded = load_index(path, expected_class=QueryEngine)
        for i in range(40):
            lo = (rng.uniform(0, 6), rng.uniform(0, 6))
            rect = Rect(lo, (lo[0] + rng.uniform(1, 4), lo[1] + rng.uniform(1, 4)))
            words = rng.sample(range(1, 9), 1 + i % 4)
            budget = (None, 40, 400)[i % 3]
            want, want_record = engine.serve(rect, words, budget=budget)
            got, got_record = loaded.serve(rect, words, budget=budget)
            assert [o.oid for o in got] == [o.oid for o in want]
            assert got_record.to_dict() == want_record.to_dict()

    def test_dynamized_index_does_not_save_its_event_log(self, tmp_path):
        # The log is a live attachment, often shared across a serving stack;
        # saving it would hand every loaded index a stale private copy.
        events = EventLog()
        index = DynamicMultiKOrp(dim=2, max_k=2, events=events)
        index.insert((0.1, 0.2), {1, 2})
        assert events.stats()["emitted"] == 2  # carry_merge + epoch_publish
        path = tmp_path / "dynamic.idx"
        save_index(index, path)
        loaded = load_index(path, expected_class=DynamicMultiKOrp)
        assert loaded._events is None
        assert index._events is events  # saving does not detach the original
        loaded.insert((0.3, 0.4), {1, 2})
        assert events.stats()["emitted"] == 2
        assert sorted(o.oid for o in loaded.query(Rect((0.0, 0.0), (1.0, 1.0)), [1, 2])) == [0, 1]

    def test_expected_class_enforced(self, rng, tmp_path):
        ds = random_dataset(rng, 20)
        index = OrpKwIndex(ds, k=2)
        path = tmp_path / "x.idx"
        save_index(index, path)
        with pytest.raises(ValidationError):
            load_index(path, expected_class=LcKwIndex)


class TestEnvelopeValidation:
    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "garbage.idx"
        path.write_bytes(b"this is not a pickle")
        with pytest.raises(ValidationError):
            load_index(path)

    def test_foreign_pickle_rejected(self, tmp_path):
        path = tmp_path / "foreign.idx"
        path.write_bytes(pickle.dumps({"something": "else"}))
        with pytest.raises(ValidationError):
            load_index(path)

    def test_wrong_format_version_rejected(self, rng, tmp_path):
        ds = random_dataset(rng, 10)
        index = OrpKwIndex(ds, k=2)
        envelope = {
            "magic": "repro-index",
            "format": FORMAT_VERSION + 1,
            "library_version": "9.9.9",
            "index_class": "OrpKwIndex",
            "index": index,
        }
        path = tmp_path / "future.idx"
        path.write_bytes(pickle.dumps(envelope))
        with pytest.raises(ValidationError):
            load_index(path)

    def test_format_1_kd_node_rejected(self, tmp_path):
        # Format 1 pickled each kd node with its split attributes as slots;
        # they are computed on first read now and cannot be set.
        from repro.kdtree import KdNode

        class Format1Node:
            def __reduce__(self):
                return (object.__new__, (KdNode,), (None, {"axis": 0, "children": []}))

        envelope = {
            "magic": "repro-index",
            "format": 1,
            "library_version": "0.0.0",
            "index_class": "KdTree",
            "index": Format1Node(),
        }
        path = tmp_path / "format1.idx"
        path.write_bytes(pickle.dumps(envelope))
        with pytest.raises(ValidationError, match="older format"):
            load_index(path)

    def test_format_2_dynamic_module_rejected(self, tmp_path):
        # Format 2 pickled DynamicOrpKw under the removed repro.core.dynamic
        # module; such a file must be refused as an older format, not crash
        # with ModuleNotFoundError.
        envelope = {
            "magic": "repro-index",
            "format": 2,
            "library_version": "1.0.0",
            "index_class": "DynamicOrpKw",
            "index": _StandIn(),
        }
        raw = pickle.dumps(envelope, protocol=0)
        stand_in = f"c{_StandIn.__module__}\n{_StandIn.__qualname__}\n".encode()
        assert stand_in in raw
        path = tmp_path / "format2_dynamic.idx"
        path.write_bytes(raw.replace(stand_in, b"crepro.core.dynamic\nDynamicOrpKw\n"))
        with pytest.raises(ValidationError, match="older format") as excinfo:
            load_index(path)
        assert isinstance(excinfo.value.__cause__, ModuleNotFoundError)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_index(tmp_path / "nope.idx")
