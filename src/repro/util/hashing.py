"""Content hashes of JSON-able payloads and of the package source,
without numpy.

The run ledger's run_ids, the result cache's unit keys and the run
records a warm ``scenario run`` replays all derive from
:func:`content_hash`; the keys also carry :func:`source_digest` and
:func:`file_digest`, and their bound tokens :func:`encode_bound`.  All
four live here, apart from the model codecs of :mod:`repro.io` (which
re-exports :func:`content_hash`), so that hashing imports nothing
beyond the standard library.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
from typing import Any

__all__ = ["canonical_json", "content_hash", "encode_bound", "file_digest", "source_digest"]

#: The directory of the :mod:`repro` package.
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Payload types :func:`canonical_json` renders as they are.
_PLAIN = (dict, list, tuple, str, int, float, bool, type(None))


def canonical_json(payload: Any) -> str:
    """Render *payload* as canonical JSON: sorted keys, no whitespace.

    Python's ``repr``-based float serialization is shortest-round-trip,
    so two equal floats always render identically — the rendering is a
    stable identity for a JSON-able value across processes and machines.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)


def encode_bound(value: float) -> "float | str":
    """JSON-safe encoding of a period/latency bound: finite floats pass
    through, ``inf`` (an unbounded problem) becomes the string
    ``"inf"`` so canonical JSON (``allow_nan=False``) accepts it.  The
    single encoding shared by the :mod:`repro.io` codec, the result
    cache's key tokens and unit entries, and the CLI manifests."""
    value = float(value)
    return value if math.isfinite(value) else repr(value)


def content_hash(*payloads: Any) -> str:
    """SHA-256 hex digest of one or more JSON-able payloads.

    Model objects (:class:`~repro.core.chain.TaskChain`,
    :class:`~repro.core.platform.Platform`, a
    :class:`~repro.solve.Problem`, ...) are accepted too and encoded
    via :func:`repro.io.to_dict` first, which imports the model layer.
    The experiment result cache keys entries with this: equal content
    gives equal keys across process restarts (unlike ``hash``, which
    is salted per process).
    """
    digest = hashlib.sha256()
    for payload in payloads:
        if not isinstance(payload, _PLAIN):
            from repro.io import to_dict

            payload = to_dict(payload)
        digest.update(canonical_json(payload).encode())
        digest.update(b"\x1f")
    return digest.hexdigest()


def file_digest(path: str) -> "str | None":
    """SHA-256 of a file's bytes; ``None`` when it cannot be read."""
    try:
        with open(path, "rb") as handle:
            return hashlib.sha256(handle.read()).hexdigest()
    except OSError:
        return None


@functools.lru_cache(maxsize=None)
def source_digest() -> str:
    """SHA-256 over the relative path and bytes of every ``*.py`` file
    of the :mod:`repro` package, in sorted path order; computed once per
    process.

    ``__version__`` lives in ``repro/__init__.py``, so a release moves
    it too.  Other files (``__pycache__``, data files) do not.
    """
    files = []
    for folder, dirs, names in os.walk(_PACKAGE_ROOT):
        dirs[:] = [d for d in dirs if d != "__pycache__"]
        files.extend(os.path.join(folder, n) for n in names if n.endswith(".py"))
    digest = hashlib.sha256()
    for path in sorted(files):
        with open(path, "rb") as handle:
            data = handle.read()
        digest.update(path[len(_PACKAGE_ROOT):].encode())
        digest.update(b"\0%d\0" % len(data))
        digest.update(data)
    return digest.hexdigest()
