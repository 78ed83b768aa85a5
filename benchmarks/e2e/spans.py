"""In-memory span recorder for the traced pass, and the per-layer metrics.

The wrappers live here, in the benchmark's own files, around the calls into
each layer of ``repro``; nothing under ``src/`` knows about them.  Every
cluster the benchmark hosts shares one process and one thread, so one stack
gives each span its parent and ``self time = duration - children`` holds.
Only synchronous callables are wrapped: a coroutine suspended at an ``await``
would leave its span on the stack while other work ran under it.

A span is ``(name, start_ns, end_ns, parent)``; ``parent`` is the index of
the enclosing span in the same list, ``-1`` at the root.  They are kept in
memory and written by :meth:`SpanRecorder.dump` after the run.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import resource
import sys
import time
from collections import defaultdict
from typing import Any, Callable

#: Spans that wait instead of compute; left out of the CPU budget.
WAITING_SPANS = frozenset({"wal.fsync"})


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def resident_kb() -> int:
    """Resident set of this process right now (``ru_maxrss`` is its peak)."""
    with open("/proc/self/statm", encoding="ascii") as statm:
        return int(statm.read().split()[1]) * resource.getpagesize() // 1024


class SpanRecorder:
    """Records spans and boundary counts while ``recording`` is set."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int] | None] = []
        #: Sizes measured at a boundary (bytes framed, transactions per block).
        self.sums: dict[str, int] = defaultdict(int)
        #: Ordering-layer wait of each released block, in milliseconds.
        self.release_waits_ms: list[float] = []
        self.recording = False
        self._stack: list[int] = []
        self._block_arrivals: dict[tuple[int, Any], int] = {}
        self._gc_open: tuple[int, int] | None = None

    @classmethod
    def installed_if(cls, trace: bool) -> "SpanRecorder | None":
        """A recorder with its wrappers in place for a traced repeat, else
        ``None`` (call after importing the modules the repeat will use)."""
        if not trace:
            return None
        recorder = cls()
        recorder.install()
        return recorder

    # -- wrapping -------------------------------------------------------------

    def wrap(
        self,
        name: str,
        function: Callable,
        measure: Callable[[tuple, Any], int] | None = None,
    ) -> Callable:
        """``function`` recorded as span ``name``; ``measure(args, result)``
        is added to ``sums[name]`` per call."""
        spans, stack, sums = self.spans, self._stack, self.sums
        clock = time.perf_counter_ns

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not self.recording:
                return function(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            started = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                spans[index] = (name, started, clock(), parent)
                stack.pop()
            if measure is not None:
                sums[name] += measure(args, result)
            return result

        return traced

    def patch_method(self, owner: type, attribute: str, name: str, measure=None) -> None:
        original = owner.__dict__[attribute]
        setattr(owner, attribute, self.wrap(name, original, measure))

    def patch_function(self, function: Callable, name: str, measure=None) -> None:
        """Replace ``function`` in every loaded ``repro`` module that holds a
        reference to it (modules import each other's functions by name)."""
        traced = self.wrap(name, function, measure)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attribute, value in list(vars(module).items()):
                if value is function:
                    setattr(module, attribute, traced)

    def patch_orderer(self, owner: type) -> None:
        """``on_deliver`` as a span, plus the time from a block entering the
        orderer to its appearing in a returned release list."""
        original = owner.__dict__["on_deliver"]
        traced = self.wrap("ordering.on_deliver", original)
        arrivals, waits = self._block_arrivals, self.release_waits_ms

        @functools.wraps(original)
        def on_deliver(orderer, block, *args, **kwargs):
            if not self.recording:
                return original(orderer, block, *args, **kwargs)
            arrivals.setdefault((id(orderer), block.block_id), time.perf_counter_ns())
            released = traced(orderer, block, *args, **kwargs)
            now = time.perf_counter_ns()
            for ordered in released:
                arrived = arrivals.pop((id(orderer), ordered.block_id), None)
                if arrived is not None:
                    waits.append((now - arrived) / 1e6)
            return released

        owner.on_deliver = on_deliver

    def _gc_callback(self, phase: str, info: dict) -> None:
        # Collections do not nest, so one open slot is enough.  As a child
        # span a pause is subtracted from whichever layer it interrupted.
        if phase == "start":
            if self.recording:
                self._gc_open = (len(self.spans), time.perf_counter_ns())
                self._stack.append(len(self.spans))
                self.spans.append(None)
        elif self._gc_open is not None:
            index, started = self._gc_open
            self._gc_open = None
            self._stack.pop()
            parent = self._stack[-1] if self._stack else -1
            self.spans[index] = (
                f"gc.gen{info['generation']}",
                started,
                time.perf_counter_ns(),
                parent,
            )

    def install(self) -> None:
        """Wrap the layer boundaries of every ``repro`` module loaded so far.

        Never undone: a traced repeat has a process of its own.
        """
        from repro.cluster.replica import MultiBFTReplica
        from repro.core.orthrus import OrthrusCore
        from repro.crypto.digest import digest, sha256_hex
        from repro.ledger.escrow import EscrowLog
        from repro.net.latency import WANLatencyModel
        from repro.ordering.ladon import LadonGlobalOrderer

        # ``receive`` routes every inbound message and ``_on_deliver`` (private,
        # but the one place a delivered block turns into replies) every block;
        # without them that work would hide in pbft's spans or in ``other``.
        self.patch_method(MultiBFTReplica, "receive", "replica.receive")
        self.patch_method(MultiBFTReplica, "_on_deliver", "replica.deliver")
        self.patch_method(OrthrusCore, "select_batch", "core.select")
        self.patch_method(OrthrusCore, "on_block_delivered", "core.deliver")
        self.patch_method(EscrowLog, "escrow", "ledger.escrow")
        self.patch_function(sha256_hex, "crypto.digest")
        self.patch_function(digest, "crypto.digest")
        self.patch_orderer(LadonGlobalOrderer)
        self.patch_method(WANLatencyModel, "delay", "net.delay")
        if "repro.runtime.server" in sys.modules:
            self._install_runtime()
        gc.callbacks.append(self._gc_callback)

    def _install_runtime(self) -> None:
        from repro.obs.trace import TraceWriter
        from repro.runtime import codec, framing
        from repro.runtime.client import OrthrusClient
        from repro.runtime.transport import AsyncioTransport
        from repro.runtime.wal import WalWriter
        from repro.sb.pbft.endpoint import PBFTEndpoint

        def framed_bytes(args, result):
            return len(result)

        def block_size(args, result):
            return len(args[1].transactions)

        self.patch_method(OrthrusClient, "submit_nowait", "client.submit")
        # No public synchronous entry point covers the reply path.
        self.patch_method(OrthrusClient, "_handle_reply", "client.reply")
        self.patch_function(codec.encode_envelope, "codec.encode")
        self.patch_function(codec.decode_envelope, "codec.decode")
        self.patch_function(codec.decode_envelopes, "codec.decode")
        self.patch_function(framing.encode_frame, "framing.frame", framed_bytes)
        self.patch_function(framing.encode_super_frame, "framing.super_frame")
        self.patch_function(framing.split_super_frame, "framing.split")
        self.patch_method(AsyncioTransport, "send", "transport.send")
        self.patch_method(AsyncioTransport, "broadcast", "transport.send")
        self.patch_method(PBFTEndpoint, "handle_message", "pbft.handle")
        self.patch_method(PBFTEndpoint, "broadcast_block", "pbft.propose", block_size)
        self.patch_method(WalWriter, "append", "wal.append")
        self.patch_method(WalWriter, "flush", "wal.flush")
        self.patch_method(TraceWriter, "emit", "obs.trace_emit")
        # The WAL calls ``os.fsync`` through its module's ``os``; as a child
        # span it separates the wait for the disk from the flush's own work.
        os.fsync = self.wrap("wal.fsync", os.fsync)

    # -- results --------------------------------------------------------------

    def totals(self) -> tuple[dict[str, int], dict[str, int], dict[str, list[int]]]:
        """Per span name: self nanoseconds, call count and durations."""
        finished = [span for span in self.spans if span is not None]
        self_ns: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        durations: dict[str, list[int]] = defaultdict(list)
        for name, started, ended, parent in finished:
            duration = ended - started
            self_ns[name] += duration
            calls[name] += 1
            durations[name].append(duration)
            enclosing = self.spans[parent] if parent >= 0 else None
            if enclosing is not None:
                self_ns[enclosing[0]] -= duration
        return self_ns, calls, durations

    def dump(self, path: str) -> None:
        """One JSON array ``[name, start_ns, end_ns, parent]`` per line; line
        number (from 0) is the span's index, the value ``parent`` refers to."""
        with open(path, "w", encoding="utf-8") as sink:
            for span in self.spans:
                sink.write(json.dumps(span, separators=(",", ":")) + "\n")


def layer_metrics(
    recorder: SpanRecorder, *, committed: int, window_cpu_s: float
) -> dict[str, float]:
    """The span-derived per-layer metrics of one traced window."""
    self_ns, calls, durations = recorder.totals()
    per_tx = 1.0 / max(committed, 1)
    blocks = max(calls["pbft.propose"], 1)

    def us_per_tx(name: str) -> float:
        return self_ns[name] / 1e3 * per_tx

    gc_ns = sum(value for name, value in self_ns.items() if name.startswith("gc."))
    busy_ns = sum(
        value for name, value in self_ns.items() if name not in WAITING_SPANS
    )
    return {
        "client.submit_us_per_tx": us_per_tx("client.submit"),
        "client.reply_us_per_tx": us_per_tx("client.reply"),
        "codec.encode_us_per_tx": us_per_tx("codec.encode"),
        "codec.decode_us_per_tx": us_per_tx("codec.decode"),
        "codec.encode_calls_per_tx": calls["codec.encode"] * per_tx,
        "framing.super_frames_per_tx": calls["framing.super_frame"] * per_tx,
        "framing.split_us_per_tx": us_per_tx("framing.split"),
        "transport.send_us_per_tx": us_per_tx("transport.send"),
        "transport.frames_per_tx": calls["framing.frame"] * per_tx,
        "transport.bytes_per_tx": recorder.sums["framing.frame"] * per_tx,
        "pbft.handle_us_per_tx": us_per_tx("pbft.handle") + us_per_tx("pbft.propose"),
        "pbft.msgs_per_block": calls["pbft.handle"] / blocks,
        "pbft.txs_per_block": recorder.sums["pbft.propose"] / blocks,
        "replica.receive_us_per_tx": us_per_tx("replica.receive"),
        "replica.deliver_us_per_tx": us_per_tx("replica.deliver"),
        "core.select_us_per_tx": us_per_tx("core.select"),
        "core.deliver_us_per_tx": us_per_tx("core.deliver"),
        "ledger.escrow_us_per_tx": us_per_tx("ledger.escrow"),
        "crypto.digest_us_per_tx": us_per_tx("crypto.digest"),
        "ordering.on_deliver_us_per_block": self_ns["ordering.on_deliver"]
        / 1e3
        / max(calls["ordering.on_deliver"], 1),
        "ordering.release_wait_ms_p50": percentile(recorder.release_waits_ms, 0.50),
        "ordering.release_wait_ms_p99": percentile(recorder.release_waits_ms, 0.99),
        "wal.append_us_per_tx": us_per_tx("wal.append") + us_per_tx("wal.flush"),
        "wal.flush_calls_per_tx": calls["wal.flush"] * per_tx,
        "wal.flush_wait_ms_p99": percentile(durations["wal.fsync"], 0.99) / 1e6,
        "obs.trace_emit_us_per_tx": us_per_tx("obs.trace_emit"),
        "gc.pause_ms_per_ktx": gc_ns / 1e6 * per_tx * 1e3,
        "gc.gen2_collections": float(calls["gc.gen2"]),
        "net.delay_us_per_tx": us_per_tx("net.delay"),
        "trace.other_us_per_tx": (window_cpu_s * 1e9 - busy_ns) / 1e3 * per_tx,
    }
