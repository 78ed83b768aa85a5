"""Deterministic random-number utilities.

All stochastic choices in the library flow through :class:`DeterministicRNG`
so that a single integer seed reproduces an entire experiment bit-for-bit.
The class wraps :class:`random.Random` and adds the distributions the
network model and workload generator need (jitter, Zipf, order statistics).
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Iterable, Sequence, TypeVar

T = TypeVar("T")


class DeterministicRNG:
    """Seeded random source with the distributions used across the library."""

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._random = random.Random(self._seed)

    @property
    def seed(self) -> int:
        """The seed this generator was created with."""
        return self._seed

    def fork(self, label: str) -> "DeterministicRNG":
        """Return an independent RNG derived from this seed and ``label``.

        Forking lets separate subsystems (network, workload, faults) draw from
        independent streams while remaining reproducible from one root seed.

        The derivation uses a stable digest rather than Python's built-in
        ``hash()``: string hashing is randomised per interpreter process
        (``PYTHONHASHSEED``), which would make runs irreproducible across
        invocations — and result caching keyed by scenario spec unsound.
        """
        digest = hashlib.sha256(f"{self._seed}:{label}".encode("utf-8")).digest()
        derived = int.from_bytes(digest[:8], "big") & 0x7FFFFFFF
        return DeterministicRNG(derived)

    def uniform(self, low: float, high: float) -> float:
        """Uniform sample in ``[low, high]``."""
        return self._random.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high]`` inclusive."""
        return self._random.randint(low, high)

    def random(self) -> float:
        """Uniform sample in ``[0, 1)``."""
        return self._random.random()

    def exponential(self, mean: float) -> float:
        """Exponential sample with the given mean (mean <= 0 returns 0)."""
        if mean <= 0:
            return 0.0
        return self._random.expovariate(1.0 / mean)

    def normal(self, mean: float, stddev: float) -> float:
        """Gaussian sample."""
        return self._random.gauss(mean, stddev)

    def lognormal_jitter(self, scale: float, sigma: float = 0.25) -> float:
        """Positive multiplicative jitter around ``scale``.

        Used for per-message latency jitter: the result has median ``scale``
        and a heavy right tail, matching measured WAN latency distributions.
        """
        if scale <= 0:
            return 0.0
        return scale * math.exp(self._random.gauss(0.0, sigma))

    def lognormal_jitters(self, scales: Iterable[float], sigma: float) -> list[float]:
        """:meth:`lognormal_jitter` of each scale in turn, in one pass.

        Same draws, same order and same float operations as calling
        :meth:`lognormal_jitter` per scale: no draw where a scale is <= 0.
        """
        gauss, exp = self._random.gauss, math.exp
        return [
            scale * exp(gauss(0.0, sigma)) if scale > 0 else 0.0 for scale in scales
        ]

    def choice(self, items: Sequence[T]) -> T:
        """Uniform choice from a non-empty sequence."""
        return self._random.choice(items)

    def sample(self, items: Sequence[T], count: int) -> list[T]:
        """Sample ``count`` distinct items."""
        return self._random.sample(items, count)

    def shuffle(self, items: list[T]) -> None:
        """Shuffle a list in place."""
        self._random.shuffle(items)

    def zipf_index(self, population: int, exponent: float = 1.0) -> int:
        """Return an index in ``[0, population)`` with Zipfian skew.

        Index 0 is the most popular element.  Implemented by inverse-CDF over
        the (cached) harmonic weights, which is exact and dependency-free.
        """
        if population <= 0:
            raise ValueError("population must be positive")
        weights = self._zipf_weights(population, exponent)
        target = self._random.random() * weights[-1]
        return _bisect_left(weights, target)

    def _zipf_weights(self, population: int, exponent: float) -> list[float]:
        key = (population, exponent)
        cache = getattr(self, "_zipf_cache", None)
        if cache is None:
            cache = {}
            self._zipf_cache = cache
        if key not in cache:
            cumulative: list[float] = []
            total = 0.0
            for rank in range(1, population + 1):
                total += 1.0 / (rank**exponent)
                cumulative.append(total)
            cache[key] = cumulative
        return cache[key]

    def order_statistic(
        self, samples: Iterable[float], quantile_index: int
    ) -> float:
        """Return the ``quantile_index``-th smallest value of ``samples``."""
        ordered = sorted(samples)
        if not ordered:
            raise ValueError("samples must be non-empty")
        index = min(max(quantile_index, 0), len(ordered) - 1)
        return ordered[index]


def _bisect_left(values: Sequence[float], target: float) -> int:
    low, high = 0, len(values)
    while low < high:
        mid = (low + high) // 2
        if values[mid] < target:
            low = mid + 1
        else:
            high = mid
    return min(low, len(values) - 1)
