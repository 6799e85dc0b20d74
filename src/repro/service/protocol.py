"""Wire protocol of the transformation service: typed and versioned.

A request on the wire is one JSON object::

    {"protocol": 2, "op": "analyze", "args": {"program": "...", ...}}

and every response is::

    {"protocol": 2, "ok": true,  "result": {...},
     "cached": false, "coalesced": false, "served_ns": 1234567}
    {"protocol": 2, "ok": false, "error": "...", "error_kind": "ParseError"}

Each operation has a frozen request dataclass here; the ``args`` object
is exactly its non-``op`` fields.  :func:`decode_request` validates the
protocol version, the op name, and the argument names/requiredness, and
returns the typed request — the server never touches raw dicts.  The
``result`` payload of a pipeline op is the ``to_payload()`` dict of the
matching :mod:`repro.api` result class (see :data:`repro.api.OPS`), so a
client reconstructs the same dataclass the CLI renders locally.

Programs always travel as source text, never as file paths: the daemon
has no business reading the client's filesystem, and canonical program
text is what the engine pool shards by.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, ClassVar, Mapping

from repro.util.errors import ServiceError

__all__ = [
    "PROTOCOL_VERSION", "REQUEST_TYPES", "Response",
    "AnalyzeRequest", "CheckRequest", "TransformRequest", "CompleteRequest",
    "RunRequest", "TuneRequest", "ExplainRequest",
    "SubmitRequest", "JobPollRequest", "JobResultRequest", "JobCancelRequest",
    "PingRequest", "MetricsRequest", "ShutdownRequest",
    "encode_request", "decode_request",
]

#: Bumped on any incompatible change to request args or result payloads.
PROTOCOL_VERSION = 2


@dataclass(frozen=True)
class AnalyzeRequest:
    """Dependence analysis (``repro deps``)."""

    op: ClassVar[str] = "analyze"
    program: str
    refine: bool = False
    sample_params: tuple[str, ...] = ()
    jobs: int | None = None


@dataclass(frozen=True)
class CheckRequest:
    """Legality verdict for a transformation spec (``repro check``).

    ``symbolic=True`` appeals a Theorem-2 rejection to the fractal
    symbolic oracle (docs/SYMBOLIC.md); the field defaults off so
    pre-symbolic clients keep working unchanged."""

    op: ClassVar[str] = "check"
    program: str
    spec: str = ""
    symbolic: bool = False


@dataclass(frozen=True)
class TransformRequest:
    """Code generation for a legal spec (``repro transform``)."""

    op: ClassVar[str] = "transform"
    program: str
    spec: str = ""
    simplify: bool = False


@dataclass(frozen=True)
class CompleteRequest:
    """Completion of a partial transformation (``repro complete``)."""

    op: ClassVar[str] = "complete"
    program: str
    lead: str = ""


@dataclass(frozen=True)
class RunRequest:
    """Execution with any registered backend (``repro run``)."""

    op: ClassVar[str] = "run"
    program: str
    params: dict[str, int] = dataclasses.field(default_factory=dict)
    backend: str = "reference"
    trace: bool = False


@dataclass(frozen=True)
class TuneRequest:
    """Autotuning search (``repro tune``).  Served under the program's
    shard lock and never result-cached: the daemon's persistent tune
    store is the cache."""

    op: ClassVar[str] = "tune"
    program: str
    name: str = ""
    params: dict[str, int] | None = None
    backend: str = "source-vec"
    beam_width: int = 4
    depth: int = 2
    top_k: int = 3
    repeat: int = 3
    use_cache: bool = True
    force: bool = False
    include_structural: bool = True
    tile_sizes: tuple[int, ...] | None = None
    max_candidates: int | None = None
    cross_check: str = "full"
    #: Appeal Theorem-2 rejections to the fractal symbolic oracle
    #: (docs/SYMBOLIC.md).  Defaults off, so requests serialized by
    #: older clients keep their exact meaning.
    symbolic: bool = False


@dataclass(frozen=True)
class ExplainRequest:
    """Decision provenance (``repro explain``)."""

    op: ClassVar[str] = "explain"
    program: str
    name: str = ""
    phase: str | None = None
    spec: str | None = None
    lead: str | None = None
    params: dict[str, int] = dataclasses.field(default_factory=dict)
    as_json: bool = False
    verbose: bool = False


@dataclass(frozen=True)
class SubmitRequest:
    """Enqueue a pipeline op on the async job queue; returns a job id
    immediately (docs/SERVICE.md)."""

    op: ClassVar[str] = "submit"
    submit_op: str = ""
    args: dict[str, Any] = dataclasses.field(default_factory=dict)


@dataclass(frozen=True)
class JobPollRequest:
    op: ClassVar[str] = "job_poll"
    job_id: str = ""


@dataclass(frozen=True)
class JobResultRequest:
    op: ClassVar[str] = "job_result"
    job_id: str = ""


@dataclass(frozen=True)
class JobCancelRequest:
    op: ClassVar[str] = "job_cancel"
    job_id: str = ""


@dataclass(frozen=True)
class PingRequest:
    op: ClassVar[str] = "ping"


@dataclass(frozen=True)
class MetricsRequest:
    op: ClassVar[str] = "metrics"


@dataclass(frozen=True)
class ShutdownRequest:
    """Ask the daemon to shut down gracefully (drain, flush, exit) —
    the HTTP twin of SIGTERM, so tests and CI need no signals."""

    op: ClassVar[str] = "shutdown"


REQUEST_TYPES: dict[str, type] = {
    cls.op: cls
    for cls in (
        AnalyzeRequest, CheckRequest, TransformRequest, CompleteRequest,
        RunRequest, TuneRequest, ExplainRequest,
        SubmitRequest, JobPollRequest, JobResultRequest, JobCancelRequest,
        PingRequest, MetricsRequest, ShutdownRequest,
    )
}


def encode_request(req) -> dict:
    """Typed request → wire dict."""
    args = {}
    for f in dataclasses.fields(req):
        v = getattr(req, f.name)
        if isinstance(v, tuple):
            v = list(v)
        args[f.name] = v
    return {"protocol": PROTOCOL_VERSION, "op": req.op, "args": args}


def decode_request(wire: Mapping[str, Any]):
    """Wire dict → typed request, validating version, op and args."""
    if not isinstance(wire, Mapping):
        raise ServiceError("request body must be a JSON object")
    proto = wire.get("protocol")
    if proto != PROTOCOL_VERSION:
        raise ServiceError(
            f"unsupported protocol version {proto!r} (this daemon speaks "
            f"{PROTOCOL_VERSION})"
        )
    op = wire.get("op")
    cls = REQUEST_TYPES.get(op)
    if cls is None:
        raise ServiceError(
            f"unknown op {op!r} (known: {', '.join(sorted(REQUEST_TYPES))})"
        )
    args = wire.get("args") or {}
    if not isinstance(args, Mapping):
        raise ServiceError(f"args for {op!r} must be a JSON object")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(args) - names)
    if unknown:
        raise ServiceError(f"unknown argument(s) for {op!r}: {', '.join(unknown)}")
    kwargs = dict(args)
    for f in dataclasses.fields(cls):
        if f.name in kwargs and isinstance(kwargs[f.name], list):
            kwargs[f.name] = tuple(kwargs[f.name])
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ServiceError(f"bad arguments for {op!r}: {exc}") from None


@dataclass
class Response:
    """One service response; ``result`` is the op's payload dict."""

    ok: bool
    result: dict | None = None
    error: str | None = None
    error_kind: str | None = None
    cached: bool = False
    coalesced: bool = False
    served_ns: int | None = None
    protocol: int = PROTOCOL_VERSION

    def to_wire(self) -> dict:
        wire: dict[str, Any] = {"protocol": self.protocol, "ok": self.ok}
        if self.ok:
            wire["result"] = self.result
            wire["cached"] = self.cached
            wire["coalesced"] = self.coalesced
        else:
            wire["error"] = self.error
            wire["error_kind"] = self.error_kind
        if self.served_ns is not None:
            wire["served_ns"] = self.served_ns
        return wire

    @classmethod
    def from_wire(cls, wire: Mapping[str, Any]) -> "Response":
        if not isinstance(wire, Mapping) or "ok" not in wire:
            raise ServiceError("malformed service response")
        proto = wire.get("protocol")
        if proto != PROTOCOL_VERSION:
            raise ServiceError(
                f"service answered with unsupported protocol {proto!r}"
            )
        return cls(
            ok=bool(wire["ok"]),
            result=wire.get("result"),
            error=wire.get("error"),
            error_kind=wire.get("error_kind"),
            cached=bool(wire.get("cached", False)),
            coalesced=bool(wire.get("coalesced", False)),
            served_ns=wire.get("served_ns"),
        )

    def unwrap(self) -> dict:
        """The result payload, or the remote failure as a
        :class:`ServiceError` carrying the remote error class name."""
        if not self.ok:
            raise ServiceError(
                self.error or "service request failed",
                kind=self.error_kind or "ServiceError",
            )
        return self.result or {}
