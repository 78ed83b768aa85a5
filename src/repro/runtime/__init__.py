"""Live cluster runtime: asyncio TCP transport, replica servers, clients.

This package hosts the same consensus code the simulator runs — the
:class:`~repro.cluster.replica.MultiBFTReplica` and its PBFT endpoints —
behind a real asyncio TCP transport, turning the reproduction into a system
that serves actual network traffic:

* :mod:`repro.runtime.codec` — struct-packed binary wire codec for every
  cluster and PBFT message type;
* :mod:`repro.runtime.framing` — length-prefixed frame I/O, batched
  :class:`FrameReader` and super-frame packing;
* :mod:`repro.runtime.transport` — :class:`AsyncioTransport`, the live
  implementation of :class:`~repro.net.transport.NodeTransport` (TCP or Unix
  domain sockets, coalesced writes);
* :mod:`repro.runtime.workers` — batched crypto/codec offload onto a worker
  process pool, with a same-process fallback;
* :mod:`repro.runtime.server` — :class:`ReplicaServer`, one OS process per
  replica;
* :mod:`repro.runtime.client` — :class:`OrthrusClient`, an async client with
  pipelining, ``f + 1`` reply matching and timeout/retry;
* :mod:`repro.runtime.loadgen` — closed- and open-loop load generation;
* :mod:`repro.runtime.cluster` — :class:`LocalCluster`, spawn-and-supervise a
  localhost deployment;
* :mod:`repro.runtime.chaos` — live fault injection: apply a
  :class:`~repro.cluster.faults.FaultPlan` (stragglers, scheduled crashes and
  restarts, Byzantine abstention) to a real cluster.

The simulator remains the deterministic reference; the live runtime trades
determinism for real sockets, real processes and wall-clock time (see
``docs/live_runtime.md``).
"""

from repro.runtime.chaos import (
    ChaosController,
    ChaosEvent,
    ChaosRunResult,
    fault_plan_from_json,
    fault_plan_to_json,
    run_chaos,
)
from repro.runtime.client import ClientConfig, OrthrusClient, TxResult
from repro.runtime.cluster import ClusterSpec, LocalCluster
from repro.runtime.codec import (
    WIRE_VERSION,
    WireCodecError,
    decode_envelope,
    decode_envelopes,
    decode_payload,
    encode_envelope,
    encode_payload,
    wire_tags,
)
from repro.runtime.config import ReplicaRuntimeConfig
from repro.runtime.framing import (
    FrameError,
    FrameReader,
    encode_super_frame,
    is_super_frame,
    split_super_frame,
    write_frame,
)
from repro.runtime.loadgen import LoadGenConfig, LoadGenerator, LoadReport
from repro.runtime.server import ReplicaServer
from repro.runtime.transport import AsyncioTransport, install_uvloop
from repro.runtime.workers import InlineWorkers, WorkerPool, make_worker_pool

__all__ = [
    "AsyncioTransport",
    "ChaosController",
    "ChaosEvent",
    "ChaosRunResult",
    "ClientConfig",
    "ClusterSpec",
    "fault_plan_from_json",
    "fault_plan_to_json",
    "run_chaos",
    "FrameError",
    "FrameReader",
    "InlineWorkers",
    "LoadGenConfig",
    "LoadGenerator",
    "LoadReport",
    "LocalCluster",
    "OrthrusClient",
    "ReplicaRuntimeConfig",
    "ReplicaServer",
    "TxResult",
    "WIRE_VERSION",
    "WireCodecError",
    "WorkerPool",
    "decode_envelope",
    "decode_envelopes",
    "decode_payload",
    "encode_envelope",
    "encode_payload",
    "encode_super_frame",
    "install_uvloop",
    "is_super_frame",
    "make_worker_pool",
    "split_super_frame",
    "wire_tags",
    "write_frame",
]
