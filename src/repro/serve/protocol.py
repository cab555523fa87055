"""Wire protocol for the resident query service.

Newline-delimited JSON over TCP — one request object per line, one
response object per line, in order. Chosen over HTTP deliberately:
the repo has no web-framework dependency, the protocol is trivially
driveable from tests and ``nc``, and framing by line keeps both ends
at ~30 lines of code.

Request::

    {"op": "query", "query": [0, 1, 2], "kind": "query",
     "k": null, "algorithm": null, "tenant": "default",
     "deadline_ms": 250, "id": "c1-17"}

``op`` may also be ``"ping"`` (liveness), ``"stats"`` (service
counters) or ``"update"`` (maintained engines only: ``inserts`` is an
array of value arrays, ``deletes`` an array of stable record ids).
Responses echo ``id`` and carry ``ok``; errors are typed::

    {"id": "c1-17", "ok": false,
     "error": {"type": "overload", "reason": "queue-full",
               "retry_after_s": 0.12, "message": "..."}}

Error types: ``overload`` (shed — retry after ``retry_after_s``),
``deadline`` (the request's own budget expired at ``stage``),
``query-error`` (execution failed after retries), ``bad-request``
(malformed or failing validation — do not retry).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from repro.errors import DeadlineError, OverloadError, ReproError

__all__ = [
    "ServeRequest",
    "decode_request",
    "encode",
    "error_response",
    "ok_response",
]

_VALID_OPS = ("query", "ping", "stats", "update")
_VALID_KINDS = ("query", "skyband", "subset")


@dataclass(frozen=True)
class ServeRequest:
    """A validated, decoded request line."""

    op: str
    request_id: str
    query: tuple[Any, ...] | None = None
    kind: str = "query"
    k: int | None = None
    algorithm: str | None = None
    attributes: tuple[int, ...] | None = None
    tenant: str = "default"
    deadline_ms: float | None = None
    #: op='update' only — records to insert (list of value arrays) and
    #: stable record ids to delete.
    inserts: tuple[tuple[Any, ...], ...] = ()
    deletes: tuple[int, ...] = ()


class BadRequest(ReproError):
    """Malformed request line; reported as ``bad-request``, never retried."""


def decode_request(line: bytes | str) -> ServeRequest:
    """Parse one wire line into a :class:`ServeRequest`.

    Raises :class:`BadRequest` on anything malformed. Validation here
    is structural only — semantic checks (query arity, label range)
    happen against the dataset in the service, where the schema lives.
    """
    try:
        obj = json.loads(line)
    except (ValueError, UnicodeDecodeError) as exc:
        raise BadRequest(f"request is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise BadRequest("request must be a JSON object")
    op = obj.get("op", "query")
    if op not in _VALID_OPS:
        raise BadRequest(f"unknown op {op!r} (expected one of {_VALID_OPS})")
    request_id = str(obj.get("id", ""))
    if op == "update":
        inserts = obj.get("inserts") or ()
        deletes = obj.get("deletes") or ()
        if not isinstance(inserts, (list, tuple)):
            raise BadRequest("inserts must be an array of value arrays")
        for rec in inserts:
            if not isinstance(rec, (list, tuple)) or not rec:
                raise BadRequest("each insert must be a non-empty array")
        if not isinstance(deletes, (list, tuple)):
            raise BadRequest("deletes must be an array of record ids")
        for rid in deletes:
            if not isinstance(rid, int) or isinstance(rid, bool) or rid < 0:
                raise BadRequest("each delete must be a non-negative record id")
        if not inserts and not deletes:
            raise BadRequest("update needs at least one insert or delete")
        return ServeRequest(
            op="update",
            request_id=request_id,
            inserts=tuple(tuple(rec) for rec in inserts),
            deletes=tuple(deletes),
        )
    if op != "query":
        return ServeRequest(op=op, request_id=request_id)
    query = obj.get("query")
    if not isinstance(query, (list, tuple)) or not query:
        raise BadRequest("query must be a non-empty array")
    kind = obj.get("kind", "query")
    if kind not in _VALID_KINDS:
        raise BadRequest(f"unknown kind {kind!r} (expected one of {_VALID_KINDS})")
    k = obj.get("k")
    if k is not None:
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise BadRequest("k must be a positive integer")
        if kind != "skyband":
            raise BadRequest("k is only meaningful for kind='skyband'")
    attributes = obj.get("attributes")
    if attributes is not None:
        if not isinstance(attributes, (list, tuple)) or not attributes:
            raise BadRequest("attributes must be a non-empty array")
        attributes = tuple(attributes)
    elif kind == "subset":
        raise BadRequest("kind='subset' needs an attributes array")
    deadline_ms = obj.get("deadline_ms")
    if deadline_ms is not None:
        if not isinstance(deadline_ms, (int, float)) or isinstance(
            deadline_ms, bool
        ) or deadline_ms <= 0:
            raise BadRequest("deadline_ms must be a positive number")
        deadline_ms = float(deadline_ms)
    algorithm = obj.get("algorithm")
    if algorithm is not None and not isinstance(algorithm, str):
        raise BadRequest("algorithm must be a string")
    return ServeRequest(
        op="query",
        request_id=request_id,
        query=tuple(query),
        kind=kind,
        k=k,
        algorithm=algorithm,
        attributes=attributes,
        tenant=str(obj.get("tenant", "default")),
        deadline_ms=deadline_ms,
    )


def encode(obj: dict[str, Any]) -> bytes:
    """Serialize one response object to a wire line."""
    return json.dumps(obj, separators=(",", ":")).encode() + b"\n"


def ok_response(request_id: str, payload: dict[str, Any]) -> dict[str, Any]:
    out = {"id": request_id, "ok": True}
    out.update(payload)
    return out


def error_response(request_id: str, exc: BaseException) -> dict[str, Any]:
    """Map an exception to its typed wire error."""
    err: dict[str, Any]
    if isinstance(exc, OverloadError):
        err = {
            "type": "overload",
            "reason": exc.reason,
            "retry_after_s": exc.retry_after_s,
        }
    elif isinstance(exc, DeadlineError):
        err = {"type": "deadline", "stage": exc.stage}
    elif isinstance(exc, BadRequest):
        err = {"type": "bad-request"}
    else:
        # ExecutionFailed wraps a structured QueryError — surface the
        # original failure type, not the wrapper's.
        inner = getattr(exc, "query_error", None)
        kind = inner.error_type if inner is not None else type(exc).__name__
        err = {"type": "query-error", "kind": kind}
        if inner is not None:
            err["attempts"] = inner.attempts
    err["message"] = str(exc)
    return {"id": request_id, "ok": False, "error": err}
