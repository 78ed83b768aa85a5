"""Host-speed calibration: a fixed stdlib-only kernel timed while a run measures.

This host's CPU runs the same Python code up to twice as slowly from one
minute to the next (see README, "Noise policy").  Every CPU-bound time the
benchmark reports is therefore rescaled by ``REFERENCE_MS / median kernel
time`` sampled *inside* the measured interval, so the metrics read "at
reference host speed" instead of "at whatever speed the host had".

The kernel must never import or call the program under test: an optimisation
there would speed the yardstick up and read as a regression.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import struct
import time

#: Median kernel time on this host when it is quiet, inside a loaded process.
#: Only fixes the unit ("reference host"); changing it rescales every metric.
REFERENCE_MS = 0.27

_PAYLOAD = b"p" * 500


class _Record:
    __slots__ = ("index", "digest", "pair")

    def __init__(self, index: int, digest: bytes, pair: tuple[int, int]) -> None:
        self.index = index
        self.digest = digest
        self.pair = pair


def _mix(left: int, right: int) -> int:
    return (left * 31 + right) & 0xFFFF


def kernel() -> int:
    """Hashing, packing, JSON, small objects, dict traffic and calls: the
    instruction mix of a replica handling messages, in fixed proportions."""
    table: dict[bytes, _Record] = {}
    frames: list[bytes] = []
    digest = b""
    accumulator = 0
    for index in range(96):
        digest = hashlib.sha256(_PAYLOAD + digest).digest()
        accumulator = _mix(accumulator, digest[0])
        table[digest[:8]] = _Record(index, digest, (index, accumulator))
        frames.append(struct.pack(">IHQ", index, 7, accumulator) + digest)
        if index % 8 == 0:
            frames.append(
                json.dumps(
                    {"k": digest.hex(), "v": [index, accumulator]}, sort_keys=True
                ).encode()
            )
    return len(b"".join(frames)) + len(table)


def sample_ms() -> float:
    """One timed kernel execution in milliseconds (wall clock: whatever
    slows the kernel down slows the program down too)."""
    started = time.perf_counter_ns()
    kernel()
    return (time.perf_counter_ns() - started) / 1e6


def samples_ms(count: int) -> list[float]:
    return [sample_ms() for _ in range(count)]


def speed_factor(kernel_ms: list[float]) -> float:
    """``< 1`` when the host ran slower than the reference while sampling."""
    return REFERENCE_MS / statistics.median(kernel_ms)


def cpu_at_reference(wall_s: float, cpu_s: float, factor: float) -> float:
    """CPU seconds the reference host would have spent on the same work.

    Only the busy share of the interval is rescaled.  A saturated loop
    (``cpu / wall`` near 1) slows down exactly as the kernel does; a loop that
    sleeps between events wakes to cold caches, and that work slows down far
    less than the kernel: over four sets of ten runs the open-loop workload's
    CPU per transaction spread 12-19 % rescaled in full and 5-8 % weighted by
    utilisation, the other workloads the same either way (README).
    """
    busy = min(1.0, cpu_s / wall_s)
    return cpu_s * (1.0 - busy * (1.0 - factor))


def rescale(wall_s: float, cpu_s: float, factor: float) -> float:
    """Wall time with its CPU share rescaled to the reference host; time
    spent waiting (timers, fsync, injected delay) is left as measured."""
    return wall_s - cpu_s + cpu_at_reference(wall_s, cpu_s, factor)
