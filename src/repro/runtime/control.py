"""Control-plane messages used only by the live runtime.

These never appear in the simulator: connection handshakes, status probes
(used by the load generator and the cluster supervisor to read committed
counts, state digests and the latency-stage breakdown) and graceful shutdown.
They ride the same binary wire codec as the consensus messages.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Any

from repro.runtime.codec import (
    _I64,
    _r_json,
    _r_str,
    _w_json,
    _w_str,
    register_wire_type,
)


@dataclass(frozen=True)
class Hello:
    """First frame on every connection: who is calling, and in what role
    (a client hello makes the replica route replies back over it)."""

    node_id: int
    role: str = "replica"  # "replica" | "client"


@dataclass(frozen=True)
class StatusRequest:
    """Probe a replica for its current progress (``nonce`` pairs the reply)."""

    nonce: int = 0


@dataclass(frozen=True)
class StatusReply:
    """A replica's answer to a :class:`StatusRequest`."""

    nonce: int
    replica: int
    committed: int
    rejected: int
    state_digest: str
    delivered_frontier: tuple[int, ...] = ()
    view_changes: int = 0
    stage_breakdown: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class MetricsRequest:
    """Probe a replica for its metrics-registry snapshot (mid-run polling)."""

    nonce: int = 0


@dataclass(frozen=True)
class MetricsReply:
    """A replica's registry snapshot: flat ``{instrument name: value}``.

    Histograms appear expanded (``<name>.count/.mean/.p50/.p99/.max``); an
    empty map means the replica runs with observability disabled.
    """

    nonce: int
    replica: int
    uptime: float = 0.0
    metrics: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class RecoveryRequest:
    """Ask a peer for the state a restarted replica is missing.

    ``frontier`` is the requestor's delivered frontier after local WAL
    replay; the peer answers with its snapshot (when the requestor is too
    far behind) plus a batch of committed blocks above that frontier.
    """

    nonce: int
    replica: int
    frontier: tuple[int, ...] = ()


#: Committed blocks per :class:`RecoveryReply`; the requestor loops with
#: fresh requests until a reply comes back empty-handed.
RECOVERY_BLOCK_BATCH = 512


@dataclass(frozen=True)
class RecoveryReply:
    """A peer's answer to a :class:`RecoveryRequest`.

    ``snapshot`` is the peer's latest durable snapshot as canonical JSON
    (empty string when the requestor's frontier already covers it, or the
    peer has none); ``blocks`` are wire-encoded committed blocks above the
    requestor's frontier, capped at :data:`RECOVERY_BLOCK_BATCH` per reply.
    ``views`` carries the peer's installed view per instance so the
    requestor can fast-forward instead of re-running view changes, and
    ``checkpoint_epoch``/``checkpoint_digest`` pin the latest quorum-stable
    checkpoint for cross-verification after replay.
    """

    nonce: int
    replica: int
    frontier: tuple[int, ...] = ()
    views: tuple[int, ...] = ()
    checkpoint_epoch: int = -1
    checkpoint_digest: str = ""
    snapshot: str = ""
    blocks: tuple[dict, ...] = ()


@dataclass(frozen=True)
class ShutdownRequest:
    """Ask a replica server to stop serving and exit cleanly."""

    reason: str = ""


@dataclass(frozen=True)
class LinkUpdate:
    """Retarget a replica's blocked-peer set (partition fault injection).

    ``blocked`` is the *absolute* set of peer ids the receiving replica must
    not send frames to — not a delta — so overlapping partition rules and
    heals compose idempotently: the chaos controller recomputes the full set
    from every active rule and pushes it after each change.  An empty set
    heals everything.
    """

    nonce: int = 0
    blocked: tuple[int, ...] = ()


def _decode_hello(data: dict[str, Any]) -> Hello:
    return Hello(
        node_id=int(data["node_id"]),
        role=data.get("role", "replica"),
    )


def _decode_status_request(data: dict[str, Any]) -> StatusRequest:
    return StatusRequest(nonce=int(data.get("nonce", 0)))


def _decode_status_reply(data: dict[str, Any]) -> StatusReply:
    return StatusReply(
        nonce=int(data.get("nonce", 0)),
        replica=int(data["replica"]),
        committed=int(data["committed"]),
        rejected=int(data.get("rejected", 0)),
        state_digest=data["state_digest"],
        delivered_frontier=tuple(int(v) for v in data.get("delivered_frontier", [])),
        view_changes=int(data.get("view_changes", 0)),
        stage_breakdown={
            str(k): float(v) for k, v in data.get("stage_breakdown", {}).items()
        },
    )


def _decode_metrics_request(data: dict[str, Any]) -> MetricsRequest:
    return MetricsRequest(nonce=int(data.get("nonce", 0)))


def _decode_metrics_reply(data: dict[str, Any]) -> MetricsReply:
    return MetricsReply(
        nonce=int(data.get("nonce", 0)),
        replica=int(data["replica"]),
        uptime=float(data.get("uptime", 0.0)),
        metrics={str(k): float(v) for k, v in data.get("metrics", {}).items()},
    )


def _decode_recovery_request(data: dict[str, Any]) -> RecoveryRequest:
    return RecoveryRequest(
        nonce=int(data.get("nonce", 0)),
        replica=int(data["replica"]),
        frontier=tuple(int(v) for v in data.get("frontier", [])),
    )


def _decode_recovery_reply(data: dict[str, Any]) -> RecoveryReply:
    return RecoveryReply(
        nonce=int(data.get("nonce", 0)),
        replica=int(data["replica"]),
        frontier=tuple(int(v) for v in data.get("frontier", [])),
        views=tuple(int(v) for v in data.get("views", [])),
        checkpoint_epoch=int(data.get("checkpoint_epoch", -1)),
        checkpoint_digest=data.get("checkpoint_digest", ""),
        snapshot=data.get("snapshot", ""),
        blocks=tuple(data.get("blocks", [])),
    )


def _decode_shutdown(data: dict[str, Any]) -> ShutdownRequest:
    return ShutdownRequest(reason=data.get("reason", ""))


def _decode_link_update(data: dict[str, Any]) -> LinkUpdate:
    return LinkUpdate(
        nonce=int(data.get("nonce", 0)),
        blocked=tuple(int(v) for v in data.get("blocked", [])),
    )


# -- binary layouts ----------------------------------------------------------


def _b_enc_hello(out: list[bytes], msg: Hello) -> None:
    out.append(_I64.pack(msg.node_id))
    _w_str(out, msg.role)


def _b_dec_hello(buf: bytes, off: int) -> tuple[Hello, int]:
    (node_id,) = _I64.unpack_from(buf, off)
    role, off = _r_str(buf, off + _I64.size)
    return Hello(node_id=node_id, role=role), off


def _b_enc_status_request(out: list[bytes], msg: StatusRequest) -> None:
    out.append(_I64.pack(msg.nonce))


def _b_dec_status_request(buf: bytes, off: int) -> tuple[StatusRequest, int]:
    (nonce,) = _I64.unpack_from(buf, off)
    return StatusRequest(nonce=nonce), off + 8


_STATUS_FIXED = struct.Struct(">qqqqq")  # nonce, replica, committed, rejected, view_changes


def _b_enc_status_reply(out: list[bytes], msg: StatusReply) -> None:
    out.append(
        _STATUS_FIXED.pack(
            msg.nonce, msg.replica, msg.committed, msg.rejected, msg.view_changes
        )
    )
    _w_str(out, msg.state_digest)
    frontier = msg.delivered_frontier
    out.append(struct.pack(f">I{len(frontier)}q", len(frontier), *frontier))
    _w_json(out, msg.stage_breakdown)


def _b_dec_status_reply(buf: bytes, off: int) -> tuple[StatusReply, int]:
    nonce, replica, committed, rejected, view_changes = _STATUS_FIXED.unpack_from(
        buf, off
    )
    state_digest, off = _r_str(buf, off + _STATUS_FIXED.size)
    (count,) = struct.unpack_from(">I", buf, off)
    frontier = struct.unpack_from(f">{count}q", buf, off + 4)
    off += 4 + 8 * count
    breakdown, off = _r_json(buf, off)
    return (
        StatusReply(
            nonce=nonce,
            replica=replica,
            committed=committed,
            rejected=rejected,
            state_digest=state_digest,
            delivered_frontier=frontier,
            view_changes=view_changes,
            stage_breakdown={str(k): float(v) for k, v in breakdown.items()},
        ),
        off,
    )


def _w_i64_seq(out: list[bytes], values: tuple[int, ...]) -> None:
    out.append(struct.pack(f">I{len(values)}q", len(values), *values))


def _r_i64_seq(buf: bytes, off: int) -> tuple[tuple[int, ...], int]:
    (count,) = struct.unpack_from(">I", buf, off)
    values = struct.unpack_from(f">{count}q", buf, off + 4)
    return values, off + 4 + 8 * count


_RECOVERY_REQ_FIXED = struct.Struct(">qq")  # nonce, replica


def _b_enc_recovery_request(out: list[bytes], msg: RecoveryRequest) -> None:
    out.append(_RECOVERY_REQ_FIXED.pack(msg.nonce, msg.replica))
    _w_i64_seq(out, msg.frontier)


def _b_dec_recovery_request(buf: bytes, off: int) -> tuple[RecoveryRequest, int]:
    nonce, replica = _RECOVERY_REQ_FIXED.unpack_from(buf, off)
    frontier, off = _r_i64_seq(buf, off + _RECOVERY_REQ_FIXED.size)
    return RecoveryRequest(nonce=nonce, replica=replica, frontier=frontier), off


_RECOVERY_REPLY_FIXED = struct.Struct(">qqq")  # nonce, replica, checkpoint_epoch


def _b_enc_recovery_reply(out: list[bytes], msg: RecoveryReply) -> None:
    out.append(_RECOVERY_REPLY_FIXED.pack(msg.nonce, msg.replica, msg.checkpoint_epoch))
    _w_i64_seq(out, msg.frontier)
    _w_i64_seq(out, msg.views)
    _w_str(out, msg.checkpoint_digest)
    _w_str(out, msg.snapshot)
    # Control-plane one-shot transfer, not the consensus hot path — length-
    # prefixed JSON for the block batch keeps the layout trivially stable.
    _w_json(out, {"blocks": list(msg.blocks)})


def _b_dec_recovery_reply(buf: bytes, off: int) -> tuple[RecoveryReply, int]:
    nonce, replica, checkpoint_epoch = _RECOVERY_REPLY_FIXED.unpack_from(buf, off)
    frontier, off = _r_i64_seq(buf, off + _RECOVERY_REPLY_FIXED.size)
    views, off = _r_i64_seq(buf, off)
    checkpoint_digest, off = _r_str(buf, off)
    snapshot, off = _r_str(buf, off)
    wrapped, off = _r_json(buf, off)
    return (
        RecoveryReply(
            nonce=nonce,
            replica=replica,
            frontier=frontier,
            views=views,
            checkpoint_epoch=checkpoint_epoch,
            checkpoint_digest=checkpoint_digest,
            snapshot=snapshot,
            blocks=tuple(wrapped.get("blocks", [])),
        ),
        off,
    )


def _b_enc_shutdown(out: list[bytes], msg: ShutdownRequest) -> None:
    _w_str(out, msg.reason)


def _b_dec_shutdown(buf: bytes, off: int) -> tuple[ShutdownRequest, int]:
    reason, off = _r_str(buf, off)
    return ShutdownRequest(reason=reason), off


def _b_enc_link_update(out: list[bytes], msg: LinkUpdate) -> None:
    out.append(_I64.pack(msg.nonce))
    _w_i64_seq(out, msg.blocked)


def _b_dec_link_update(buf: bytes, off: int) -> tuple[LinkUpdate, int]:
    (nonce,) = _I64.unpack_from(buf, off)
    blocked, off = _r_i64_seq(buf, off + 8)
    return LinkUpdate(nonce=nonce, blocked=blocked), off


def _b_enc_metrics_request(out: list[bytes], msg: MetricsRequest) -> None:
    out.append(_I64.pack(msg.nonce))


def _b_dec_metrics_request(buf: bytes, off: int) -> tuple[MetricsRequest, int]:
    (nonce,) = _I64.unpack_from(buf, off)
    return MetricsRequest(nonce=nonce), off + 8


_METRICS_FIXED = struct.Struct(">qqd")  # nonce, replica, uptime


def _b_enc_metrics_reply(out: list[bytes], msg: MetricsReply) -> None:
    out.append(_METRICS_FIXED.pack(msg.nonce, msg.replica, msg.uptime))
    _w_json(out, msg.metrics)


def _b_dec_metrics_reply(buf: bytes, off: int) -> tuple[MetricsReply, int]:
    nonce, replica, uptime = _METRICS_FIXED.unpack_from(buf, off)
    metrics, off = _r_json(buf, off + _METRICS_FIXED.size)
    return (
        MetricsReply(
            nonce=nonce,
            replica=replica,
            uptime=uptime,
            metrics={str(k): float(v) for k, v in metrics.items()},
        ),
        off,
    )


register_wire_type(
    Hello,
    "hello",
    lambda m: {"node_id": m.node_id, "role": m.role},
    _decode_hello,
    binary=(16, _b_enc_hello, _b_dec_hello),
)
register_wire_type(
    StatusRequest,
    "status_request",
    lambda m: {"nonce": m.nonce},
    _decode_status_request,
    binary=(17, _b_enc_status_request, _b_dec_status_request),
)
register_wire_type(
    StatusReply,
    "status_reply",
    lambda m: {
        "nonce": m.nonce,
        "replica": m.replica,
        "committed": m.committed,
        "rejected": m.rejected,
        "state_digest": m.state_digest,
        "delivered_frontier": list(m.delivered_frontier),
        "view_changes": m.view_changes,
        "stage_breakdown": m.stage_breakdown,
    },
    _decode_status_reply,
    binary=(18, _b_enc_status_reply, _b_dec_status_reply),
)
register_wire_type(
    ShutdownRequest,
    "shutdown",
    lambda m: {"reason": m.reason},
    _decode_shutdown,
    binary=(19, _b_enc_shutdown, _b_dec_shutdown),
)
register_wire_type(
    MetricsRequest,
    "metrics_request",
    lambda m: {"nonce": m.nonce},
    _decode_metrics_request,
    binary=(20, _b_enc_metrics_request, _b_dec_metrics_request),
)
register_wire_type(
    RecoveryRequest,
    "recovery_request",
    lambda m: {
        "nonce": m.nonce,
        "replica": m.replica,
        "frontier": list(m.frontier),
    },
    _decode_recovery_request,
    binary=(22, _b_enc_recovery_request, _b_dec_recovery_request),
)
register_wire_type(
    RecoveryReply,
    "recovery_reply",
    lambda m: {
        "nonce": m.nonce,
        "replica": m.replica,
        "frontier": list(m.frontier),
        "views": list(m.views),
        "checkpoint_epoch": m.checkpoint_epoch,
        "checkpoint_digest": m.checkpoint_digest,
        "snapshot": m.snapshot,
        "blocks": list(m.blocks),
    },
    _decode_recovery_reply,
    binary=(23, _b_enc_recovery_reply, _b_dec_recovery_reply),
)
register_wire_type(
    LinkUpdate,
    "link_update",
    lambda m: {"nonce": m.nonce, "blocked": list(m.blocked)},
    _decode_link_update,
    binary=(24, _b_enc_link_update, _b_dec_link_update),
)
register_wire_type(
    MetricsReply,
    "metrics_reply",
    lambda m: {
        "nonce": m.nonce,
        "replica": m.replica,
        "uptime": m.uptime,
        "metrics": m.metrics,
    },
    _decode_metrics_reply,
    binary=(21, _b_enc_metrics_reply, _b_dec_metrics_reply),
)
