"""Wire protocol of the scheduler service.

One frame per line: a JSON object terminated by ``\\n``, always carrying
a protocol version (``"v"``) and a frame ``"type"``.  Requests
additionally carry a client-chosen ``"id"`` that every response frame
about that request echoes back, so one connection can have several
requests in flight.

Request frames (client → server)::

    {"v": 1, "type": "solve",    "id": "...", "instance": {...},
     "algorithm": "three_halves", "params": {...}}
    {"v": 1, "type": "sweep",    "id": "...", "families": [...],
     "machines": [...], "sizes": [...], "seeds": [...],
     "algorithms": [...]}
    {"v": 1, "type": "status",   "id": "..."}
    {"v": 1, "type": "stats",    "id": "..."}
    {"v": 1, "type": "cancel",   "id": "...", "target": "<request id>"}
    {"v": 1, "type": "shutdown", "id": "..."}

Response frames (server → client)::

    {"v": 1, "type": "accepted",  "id": "...", "key": "<cache key>"}
    {"v": 1, "type": "busy",      "id": "...", "reason": "..."}
    {"v": 1, "type": "progress",  "id": "...", "done": 3, "total": 8}
    {"v": 1, "type": "result",    "id": "...", "cached": false,
     "record": {<RunRecord.to_dict()>}}
    {"v": 1, "type": "sweep_result", "id": "...", "executed": 4,
     "cache_hits": 4, "errors": 0}
    {"v": 1, "type": "status",    "id": "...", ...counters...}
    {"v": 1, "type": "stats",     "id": "...", "metrics": {...}}
    {"v": 1, "type": "cancelled", "id": "...", "ok": true}
    {"v": 1, "type": "error",     "id": "...", "message": "..."}
    {"v": 1, "type": "bye",       "id": "..."}

Frames are encoded with sorted keys so the byte stream for a given
frame is deterministic (golden tests rely on this).  A frame whose
``"v"`` does not match :data:`PROTOCOL_VERSION` is rejected with
:class:`ProtocolError` — version skew must fail loudly at the boundary,
not deep inside a solve.

Volatile timing fields: ``progress``, ``result`` and ``sweep_result``
frames carry a server-stamped ``"elapsed_ms"`` — monotonic milliseconds
since the server admitted the request — so clients can print
per-request latency.  Like a record's ``wall_time``, it is **volatile
telemetry**: its value varies run to run, it is excluded from the
golden frames' compared fields, and it never enters canonical record
output.  The ``stats`` request returns the server's metrics snapshot
(request counters, queue depth, cache sizes, and per-request latency
percentiles from :func:`repro.obs.percentiles`).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Mapping, Optional, Union

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "REQUEST_TYPES",
    "RESPONSE_TYPES",
    "ProtocolError",
    "encode_frame",
    "decode_frame",
    "validate_request",
    "solve_request",
    "sweep_request",
    "status_request",
    "stats_request",
    "cancel_request",
    "shutdown_request",
]

#: Current wire protocol version (see module docstring).
PROTOCOL_VERSION = 1

#: Longest request line the server reads, newline included.  A solve
#: request for the bench grid's largest instance (n_target 10⁵, about
#: 250,000 jobs) encodes to about 10 MB; 64 MiB leaves six times that,
#: and bounds what a client that never sends a newline can make the
#: server buffer.
MAX_FRAME_BYTES = 64 * 1024 * 1024

REQUEST_TYPES = ("solve", "sweep", "status", "stats", "cancel", "shutdown")
RESPONSE_TYPES = (
    "accepted",
    "busy",
    "progress",
    "result",
    "sweep_result",
    "status",
    "stats",
    "cancelled",
    "error",
    "bye",
)

#: Required fields per request type, beyond ``v``/``type``/``id``.
_REQUEST_FIELDS = {
    "solve": ("instance", "algorithm"),
    "sweep": ("algorithms",),
    "status": (),
    "stats": (),
    "cancel": ("target",),
    "shutdown": (),
}


class ProtocolError(ValueError):
    """A frame that violates the wire protocol (bad JSON, wrong version,
    unknown type, missing required field)."""


def encode_frame(frame: Mapping[str, Any]) -> bytes:
    """Serialize one frame to its wire form (sorted-key JSON + newline).

    ``v`` is filled in when absent; a missing ``type`` is a programming
    error and raises :class:`ProtocolError`.
    """
    if "type" not in frame:
        raise ProtocolError("frame has no 'type'")
    data = dict(frame)
    data.setdefault("v", PROTOCOL_VERSION)
    return (
        json.dumps(data, sort_keys=True, separators=(",", ":"), default=str)
        + "\n"
    ).encode("utf-8")


def decode_frame(line: Union[str, bytes]) -> Dict[str, Any]:
    """Parse and version-check one wire line into a frame dict."""
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        frame = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"malformed frame: {exc}") from exc
    if not isinstance(frame, dict):
        raise ProtocolError("frame is not a JSON object")
    version = frame.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version!r} "
            f"(server speaks {PROTOCOL_VERSION})"
        )
    kind = frame.get("type")
    if kind not in REQUEST_TYPES and kind not in RESPONSE_TYPES:
        raise ProtocolError(f"unknown frame type {kind!r}")
    return frame


def validate_request(frame: Mapping[str, Any]) -> Dict[str, Any]:
    """Check a decoded frame is a well-formed *request* and return it."""
    kind = frame.get("type")
    if kind not in REQUEST_TYPES:
        raise ProtocolError(f"{kind!r} is not a request type")
    if not isinstance(frame.get("id"), str) or not frame["id"]:
        raise ProtocolError(f"{kind} request has no 'id'")
    for field in _REQUEST_FIELDS[kind]:
        if field not in frame:
            raise ProtocolError(f"{kind} request missing {field!r}")
    return dict(frame)


# --------------------------------------------------------------------- #
# Request builders (the client side of the protocol)
# --------------------------------------------------------------------- #

def solve_request(
    request_id: str,
    instance: Mapping[str, Any],
    algorithm: str,
    params: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    return {
        "v": PROTOCOL_VERSION,
        "type": "solve",
        "id": request_id,
        "instance": dict(instance),
        "algorithm": algorithm,
        "params": dict(params or {}),
    }


def sweep_request(
    request_id: str,
    algorithms,
    *,
    families=("uniform",),
    machines=(4,),
    sizes=(10,),
    seeds=(0,),
) -> Dict[str, Any]:
    return {
        "v": PROTOCOL_VERSION,
        "type": "sweep",
        "id": request_id,
        "algorithms": list(algorithms),
        "families": list(families),
        "machines": list(machines),
        "sizes": list(sizes),
        "seeds": list(seeds),
    }


def status_request(request_id: str) -> Dict[str, Any]:
    return {"v": PROTOCOL_VERSION, "type": "status", "id": request_id}


def stats_request(request_id: str) -> Dict[str, Any]:
    """A metrics-snapshot request (counters, queue depth, latency
    percentiles); see the module docstring's volatility note."""
    return {"v": PROTOCOL_VERSION, "type": "stats", "id": request_id}


def cancel_request(request_id: str, target: str) -> Dict[str, Any]:
    return {
        "v": PROTOCOL_VERSION,
        "type": "cancel",
        "id": request_id,
        "target": target,
    }


def shutdown_request(request_id: str) -> Dict[str, Any]:
    return {"v": PROTOCOL_VERSION, "type": "shutdown", "id": request_id}
