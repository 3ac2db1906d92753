"""The result cache's on-disk store, below ``ResultCache``: the
two-character fan-out layout, the canonical entry encoding, atomic
writes, the error contract for damaged entries, and the read-only
behaviour of scans, totals and vacuum on a missing root."""

import json
import os
import pickle

import pytest

from repro.experiments.cache import FileTreeBackend
from repro.experiments.cache.filetree import decode_payload, encode_payload

KEYS = ("cd" * 32, "ab" * 32, "ef" * 32, "ab" + "01" * 31)


@pytest.fixture
def store(tmp_path):
    return FileTreeBackend(tmp_path / "store")


class TestLayout:
    def test_path_fans_out_on_the_first_two_characters(self, store):
        key = "3f" + "00" * 31
        assert store.path(key) == store.root / "3f" / f"{key}.json"

    def test_root_accepts_strings_and_paths(self, tmp_path):
        assert FileTreeBackend(str(tmp_path)).root == FileTreeBackend(tmp_path).root

    def test_store_writes_canonical_sorted_json(self, store):
        payload = {"zeta": [1, 2], "alpha": {"b": 1, "a": 2}, "mid": "inf"}
        store.store("ab" * 32, payload)
        text = store.path("ab" * 32).read_text()
        assert text == json.dumps(payload, sort_keys=True) == encode_payload(payload)

    def test_scan_is_key_sorted(self, store):
        for key in KEYS:
            store.store(key, {"k": key})
        keys = [key for key, _ in store.scan()]
        assert keys == sorted(KEYS)

    def test_scan_yields_entry_texts(self, store):
        store.store("ab" * 32, {"v": 1})
        assert list(store.scan()) == [("ab" * 32, encode_payload({"v": 1}))]

    def test_scan_ignores_temp_files_and_root_level_files(self, store):
        store.store("ab" * 32, {"v": 1})
        (store.root / "ab" / "leftover.tmp").write_text("{half")
        (store.root / "cache.db").write_bytes(b"from an older release")
        assert [key for key, _ in store.scan()] == ["ab" * 32]
        assert store.storage_stats()["entries"] == 1


class TestLoadAndStore:
    def test_load_absent_key_is_none(self, store):
        assert store.load("ab" * 32) is None
        store.store("cd" * 32, {"v": 1})
        assert store.load("ab" * 32) is None

    def test_round_trip(self, store):
        payload = {"solved": [True, False], "failure": [0.125, 1.0], "v": "inf"}
        store.store("ab" * 32, payload)
        assert store.load("ab" * 32) == payload

    def test_store_overwrites_in_place(self, store):
        store.store("ab" * 32, {"v": 1})
        store.store("ab" * 32, {"v": 2})
        assert store.load("ab" * 32) == {"v": 2}
        assert store.storage_stats()["entries"] == 1
        assert not list(store.root.rglob("*.tmp"))

    def test_store_text_keeps_bytes_verbatim(self, store):
        store.store_text("ab" * 32, '{"b": 1,   "a": 2}')
        assert store.path("ab" * 32).read_text() == '{"b": 1,   "a": 2}'
        assert store.load("ab" * 32) == {"a": 2, "b": 1}

    def test_failed_write_leaves_old_entry_and_no_temp_file(self, store, monkeypatch):
        store.store("ab" * 32, {"v": 1})

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            store.store("ab" * 32, {"v": 2})
        monkeypatch.undo()
        assert store.load("ab" * 32) == {"v": 1}
        assert not list(store.root.rglob("*.tmp"))

    @pytest.mark.parametrize(
        "garbage",
        ["", "not json {", "[1, 2]", '"text"', "null", "42"],
        ids=["empty", "not-json", "list", "string", "null", "number"],
    )
    def test_undecodable_entry_raises_value_error(self, store, garbage):
        store.store_text("ab" * 32, garbage)
        with pytest.raises(ValueError):
            store.load("ab" * 32)

    def test_discard_removes_and_tolerates_absent(self, store):
        store.store("ab" * 32, {"v": 1})
        store.discard("ab" * 32)
        assert store.load("ab" * 32) is None
        store.discard("ab" * 32)  # already gone
        store.discard("cd" * 32)  # never written, fan-out dir absent too

    def test_store_is_picklable_and_stateless(self, store):
        store.store("ab" * 32, {"v": 1})
        clone = pickle.loads(pickle.dumps(store))
        assert clone.root == store.root
        assert clone.load("ab" * 32) == {"v": 1}


class TestEncoding:
    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"nested": {"b": [1.5, "inf", None], "a": True}},
            {"text": "périodes ≤ 10"},
            {"tiny": 1.25e-300, "big": 1.0e300, "neg": -0.0},
        ],
        ids=["empty", "nested", "unicode", "floats"],
    )
    def test_round_trip(self, payload):
        text = encode_payload(payload)
        assert decode_payload(text) == payload
        assert encode_payload(decode_payload(text)) == text

    def test_encoding_ignores_insertion_order(self):
        assert encode_payload({"a": 1, "b": 2}) == encode_payload({"b": 2, "a": 1})


class TestMissingRoot:
    """Read-side operations on a directory that was never written must
    report an empty store and must not create it."""

    def test_scan_and_totals(self, store):
        assert list(store.scan()) == []
        assert store.storage_stats() == {"entries": 0, "bytes": 0}
        assert not store.root.exists()

    def test_vacuum(self, store):
        assert store.vacuum() == {"removed_tmp": 0, "removed_dirs": 0}
        assert not store.root.exists()


class TestVacuum:
    def test_keeps_entries_and_their_directories(self, store):
        for key in KEYS:
            store.store(key, {"k": key})
        assert store.vacuum() == {"removed_tmp": 0, "removed_dirs": 0}
        assert [key for key, _ in store.scan()] == sorted(KEYS)

    def test_removes_orphans_then_has_nothing_left_to_do(self, store):
        store.store("ab" * 32, {"v": 1})
        store.store("cd" * 32, {"v": 2})
        store.discard("cd" * 32)  # leaves an empty fan-out directory
        (store.root / "ab" / "orphan.tmp").write_text("{half")
        assert store.vacuum() == {"removed_tmp": 1, "removed_dirs": 1}
        assert store.vacuum() == {"removed_tmp": 0, "removed_dirs": 0}
        assert store.load("ab" * 32) == {"v": 1}
