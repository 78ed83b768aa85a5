"""Crypto/codec worker-process pool for the live runtime.

Replica event loops are single-threaded; under load the CPU they burn on
wire decoding, digest computation and signature checks is CPU *not* spent
running the consensus state machine.  :class:`WorkerPool` moves that work
into a small :class:`~concurrent.futures.ProcessPoolExecutor`, with a
batch-oriented API — one submit carries many items, one result returns them
all — so the per-job IPC overhead amortises across a burst.

Offloading only pays when there are spare cores and the batches are big
enough to beat the pickle round-trip.  :class:`InlineWorkers` is the
same-process fallback with the identical async API: small clusters (and
single-core hosts) configure ``workers=0`` and every call runs inline on the
event loop.  ``make_worker_pool`` picks between the two, so callers never
branch.

The batch functions are module-level and operate on plain picklable values,
which makes them equally callable in-process — property tests assert the
pool and the inline path produce identical results.
"""

from __future__ import annotations

import asyncio
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Sequence

from repro.crypto.digest import canonical_bytes, sha256_hex
from repro.crypto.keys import PublicKeyInfrastructure
from repro.crypto.signatures import Signature, verify
from repro.runtime.codec import WireCodecError, decode_envelope
from repro.runtime.framing import FrameError, is_super_frame, split_super_frame

#: Inbound batches below this byte size are decoded inline even when a pool
#: is configured: the pickle round-trip would cost more than the decode.
OFFLOAD_MIN_BYTES = 4096


def _init_worker() -> None:
    # Wire-type registration happens at import time; the control-plane types
    # live outside the codec module, so a fresh worker process must import
    # them before it can decode a status or hello frame.
    import repro.runtime.control  # noqa: F401


# -- batch functions (run in workers or inline; pure, picklable I/O) ----------


def decode_payloads(
    payloads: Sequence[bytes], *, warm_digests: bool = False
) -> list[tuple[int, Any] | WireCodecError]:
    """Decode frame payloads (splitting super-frames) to (sender, message).

    Undecodable entries become the :class:`WireCodecError` itself, so one
    corrupt frame cannot poison the rest of its batch.  With
    ``warm_digests=True`` every decoded block's digest memo is populated
    before the batch is returned — when this runs in a worker process the
    memo travels back through the pickle, and the event loop never pays for
    the hash.
    """
    out: list[tuple[int, Any] | WireCodecError] = []
    for payload in payloads:
        try:
            if is_super_frame(payload):
                for envelope in split_super_frame(payload):
                    out.append(decode_envelope(envelope))
            else:
                out.append(decode_envelope(payload))
        except (WireCodecError, FrameError) as exc:
            out.append(WireCodecError(str(exc)))
    if warm_digests:
        for entry in out:
            if not isinstance(entry, tuple):
                continue
            _warm_digests(entry[1])
    return out


def _warm_digests(message: Any) -> None:
    """Populate the digest memo of any block the message carries.

    ``Block.digest`` is a memoizing property — reading it once stores the
    hash on the instance, and the memo travels with the block through the
    pickle back to the event loop.
    """
    block = getattr(message, "block", None)
    if block is not None:
        _ = block.digest
    for attribute in ("pending", "reproposals"):
        pairs = getattr(message, attribute, None)
        if pairs:
            for _, block in pairs:
                _ = block.digest


def digest_batch(values: Sequence[Any]) -> list[str]:
    """Content digests of ``values`` (same function consensus uses)."""
    return [sha256_hex(canonical_bytes(value)) for value in values]


def verify_batch(
    pki: PublicKeyInfrastructure,
    pairs: Sequence[tuple[Signature, Any]],
) -> list[bool]:
    """Verify ``(signature, message)`` pairs against ``pki``."""
    return [verify(pki, signature, message) for signature, message in pairs]


# -- pool / fallback ----------------------------------------------------------


class InlineWorkers:
    """Same-process fallback with the :class:`WorkerPool` API.

    Every call executes synchronously on the caller's thread; the ``await``
    costs one loop iteration and nothing else.
    """

    workers = 0

    async def decode(
        self, payloads: Sequence[bytes]
    ) -> list[tuple[int, Any] | WireCodecError]:
        return decode_payloads(payloads)

    async def digests(self, values: Sequence[Any]) -> list[str]:
        return digest_batch(values)

    async def verify(
        self,
        pki: PublicKeyInfrastructure,
        pairs: Sequence[tuple[Signature, Any]],
    ) -> list[bool]:
        return verify_batch(pki, pairs)

    def close(self) -> None:
        pass


class WorkerPool:
    """Batched crypto/codec offload onto worker processes."""

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("WorkerPool needs at least 1 worker (use InlineWorkers)")
        self.workers = workers
        # fork is much cheaper to start than spawn and inherits the wire-type
        # registry; fall back to the platform default elsewhere (the
        # initializer re-imports the registrations either way).
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context("fork") if "fork" in methods else None
        self._executor = ProcessPoolExecutor(
            max_workers=workers, mp_context=context, initializer=_init_worker
        )
        #: Batches and items shipped to the pool (observability).
        self.batches_submitted = 0
        self.items_submitted = 0

    def _run(self, function, /, *args):
        self.batches_submitted += 1
        loop = asyncio.get_running_loop()
        return loop.run_in_executor(self._executor, function, *args)

    async def decode(
        self, payloads: Sequence[bytes]
    ) -> list[tuple[int, Any] | WireCodecError]:
        self.items_submitted += len(payloads)
        return await self._run(_decode_warm, list(payloads))

    async def digests(self, values: Sequence[Any]) -> list[str]:
        self.items_submitted += len(values)
        return await self._run(digest_batch, list(values))

    async def verify(
        self,
        pki: PublicKeyInfrastructure,
        pairs: Sequence[tuple[Signature, Any]],
    ) -> list[bool]:
        self.items_submitted += len(pairs)
        return await self._run(verify_batch, pki, list(pairs))

    def close(self) -> None:
        self._executor.shutdown(wait=False, cancel_futures=True)


def _decode_warm(payloads: Sequence[bytes]) -> list[tuple[int, Any] | WireCodecError]:
    # Digest warming only pays across a process boundary, so the pool decodes
    # through this wrapper and the inline path does not.
    return decode_payloads(payloads, warm_digests=True)


def make_worker_pool(workers: int) -> WorkerPool | InlineWorkers:
    """Pool of ``workers`` processes, or the inline fallback for ``<= 0``."""
    if workers and workers > 0:
        return WorkerPool(workers)
    return InlineWorkers()
