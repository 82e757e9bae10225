"""Deterministic random-number utilities.

Every stochastic component of the simulator (workload generators, the
perturbation used to compute confidence intervals, backoff jitter) draws from
an explicitly seeded :class:`random.Random` derived through this module, so a
run is reproducible from ``(seed, config)`` alone.
"""

from __future__ import annotations

import functools
import hashlib
import random
from typing import Iterable, List, Sequence, Tuple, TypeVar

T = TypeVar("T")

#: Seed used by harness entry points when the caller does not supply one.
DEFAULT_SEED = 0xC0FFEE


def make_rng(seed: int, *streams: object) -> random.Random:
    """Return an independent RNG for a named stream.

    ``streams`` identifies the consumer (e.g. ``("workload", thread_id)``) so
    that adding a new consumer does not perturb the draws seen by existing
    ones — the classic trick for stable pseudo-random simulations.
    """
    key = repr((seed,) + tuple(streams)).encode("utf-8")
    digest = hashlib.sha256(key).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def perturbed_seeds(seed: int, runs: int) -> List[int]:
    """Seeds for pseudo-randomly perturbed runs (95% CI methodology [2])."""
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    base = random.Random(seed)
    return [base.randrange(1 << 48) for _ in range(runs)]


def weighted_choice(rng: random.Random, items: Sequence[T],
                    weights: Iterable[float]) -> T:
    """Pick one item with the given relative weights."""
    total = 0.0
    cumulative = []
    for w in weights:
        if w < 0:
            raise ValueError("weights must be non-negative")
        total += w
        cumulative.append(total)
    if total <= 0:
        raise ValueError("at least one weight must be positive")
    x = rng.random() * total
    for item, bound in zip(items, cumulative):
        if x < bound:
            return item
    return items[-1]


@functools.lru_cache(maxsize=64, typed=True)
def _zipf_bounds(n: int, skew: float) -> Tuple[float, Tuple[float, ...]]:
    """Total and cumulative harmonic weights of ranks ``1..n``: a pure
    function of its arguments, computed once per shape a workload uses."""
    total = 0.0
    bounds = []
    for rank in range(1, n + 1):
        total += 1.0 / (rank ** skew)
        bounds.append(total)
    return total, tuple(bounds)


def zipf_rank(rng: random.Random, n: int, skew: float = 1.0) -> int:
    """Draw a 0-based rank from an (approximate) Zipf distribution over n items.

    Used by workloads whose access popularity is skewed (e.g. hot database
    locks). Implemented by inverse-transform over the harmonic weights; for
    the small ``n`` the workloads use this is exact and cheap to set up.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if skew < 0:
        raise ValueError(f"skew must be >= 0, got {skew}")
    total, bounds = _zipf_bounds(n, skew)
    x = rng.random() * total
    lo, hi = 0, n - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if x < bounds[mid]:
            hi = mid
        else:
            lo = mid + 1
    return lo
