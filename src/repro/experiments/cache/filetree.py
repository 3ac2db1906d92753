"""The result cache's on-disk store: one JSON file per key.

Layout::

    <root>/<key[:2]>/<key>.json

Each entry is the canonical text ``json.dumps(payload, sort_keys=True)``
(:func:`encode_payload`).  Writes are atomic
(:func:`repro.obs.ledger.write_atomic`: a temp file in the destination
directory + ``os.replace``), so concurrent runs sharing a cache
directory never observe a partial entry.  Zero shared state
beyond the filesystem: no handles, nothing to pickle, works on any
shared POSIX mount.

Error contract
--------------
:meth:`FileTreeBackend.load` returns ``None`` for an absent key and
raises ``ValueError`` (or ``OSError``) for an entry that exists but
cannot be decoded — :class:`~repro.experiments.cache.ResultCache` maps
the former to a plain miss and the latter to its ``corrupt`` counter
before discarding the entry.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Iterator

from repro.obs.ledger import write_atomic

__all__ = ["FileTreeBackend", "decode_payload", "encode_payload"]


def encode_payload(payload: dict) -> str:
    """The canonical entry text: sorted-keys JSON."""
    return json.dumps(payload, sort_keys=True)


def decode_payload(text: str) -> dict:
    """Decode canonical entry text, raising ``ValueError`` when the
    stored bytes are not a JSON object (torn write, disk damage)."""
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise ValueError(f"undecodable cache entry: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError("cache entry is not a JSON object")
    return payload


class FileTreeBackend:
    """Keyed entry store under *root*; see the module docstring."""

    def __init__(self, root: "str | os.PathLike[str]") -> None:
        self.root = pathlib.Path(root)

    def path(self, key: str) -> pathlib.Path:
        """Where *key*'s entry lives (two-hex-char fan-out directories)."""
        return self.root / key[:2] / f"{key}.json"

    def load(self, key: str) -> "dict | None":
        """Record stored under *key*, ``None`` if absent; raises
        ``ValueError``/``OSError`` on an undecodable entry."""
        try:
            text = self.path(key).read_text()
        except FileNotFoundError:
            return None
        return decode_payload(text)

    def store(self, key: str, payload: dict) -> None:
        """Persist *payload* under *key* in the canonical encoding."""
        self.store_text(key, encode_payload(payload))

    def store_text(self, key: str, text: str) -> None:
        """Atomic write: temp file in the destination dir + ``os.replace``."""
        write_atomic(self.path(key), text)

    def discard(self, key: str) -> None:
        """Drop *key* if present (corrupt-entry recovery); absent is fine."""
        try:
            self.path(key).unlink()
        except OSError:
            pass

    def scan(self) -> "Iterator[tuple[str, str]]":
        """Yield every ``(key, entry_text)`` in sorted key order."""
        if not self.root.is_dir():
            return
        for prefix in sorted(p for p in self.root.iterdir() if p.is_dir()):
            for entry in sorted(prefix.glob("*.json")):
                yield entry.stem, entry.read_text()

    def storage_stats(self) -> dict:
        """Persistent on-disk totals (entry count, bytes) — what
        ``repro cache stats`` reports without a live sweep."""
        entries = 0
        size = 0
        if self.root.is_dir():
            for entry in self.root.rglob("*.json"):
                entries += 1
                size += entry.stat().st_size
        return {"entries": entries, "bytes": size}

    def vacuum(self) -> dict:
        """Sweep leftovers an interrupted writer can leave behind:
        orphaned ``*.tmp`` files and fan-out directories emptied by
        corrupt-entry recovery."""
        removed_tmp = 0
        removed_dirs = 0
        if self.root.is_dir():
            for tmp in list(self.root.rglob("*.tmp")):
                try:
                    tmp.unlink()
                    removed_tmp += 1
                except OSError:
                    pass
            for prefix in list(self.root.iterdir()):
                if prefix.is_dir():
                    try:
                        prefix.rmdir()
                        removed_dirs += 1
                    except OSError:  # not empty — still holds entries
                        pass
        return {"removed_tmp": removed_tmp, "removed_dirs": removed_dirs}
