"""Content hashes of JSON-able payloads, without numpy.

The run ledger's run_ids, the result cache's unit keys and the run
records a warm ``scenario run`` replays all derive from
:func:`content_hash`.  It lives here, apart from the model codecs of
:mod:`repro.io` (which re-exports it), so that hashing a plain payload
imports nothing beyond the standard library.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

__all__ = ["canonical_json", "content_hash"]

#: Payload types :func:`canonical_json` renders as they are.
_PLAIN = (dict, list, tuple, str, int, float, bool, type(None))


def canonical_json(payload: Any) -> str:
    """Render *payload* as canonical JSON: sorted keys, no whitespace.

    Python's ``repr``-based float serialization is shortest-round-trip,
    so two equal floats always render identically — the rendering is a
    stable identity for a JSON-able value across processes and machines.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)


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
