"""Percentiles as the benchmark reports them (nearest rank)."""

from __future__ import annotations

from typing import Optional, Sequence


def _rank(p: int, n: int) -> int:
    """Nearest rank of the ``p``-th percentile of ``n`` samples (exact
    integer ceiling; float ``p / 100 * n`` rounds 98% of 500 up to 491)."""
    return max(1, -(-p * n // 100))


def percentile(values: Sequence[float], p: int) -> float:
    """Nearest-rank ``p``-th percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


def tail_percentile(n: int) -> Optional[int]:
    """The highest whole percentile with at least ten of ``n`` samples
    above its nearest rank, or None when that would not exceed the
    median (fewer than 20 samples)."""
    for p in range(99, 50, -1):
        if n - _rank(p, n) >= 10:
            return p
    return None
