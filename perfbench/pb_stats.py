"""Order statistics the benchmark reports.

Timings are reported as a median plus the highest percentile that still
has at least :data:`TAIL_BEYOND` samples beyond it, together with that
percentile and the sample count, so a tail figure is never read off a
handful of samples.

Over a long window that rule reaches ever rarer events (p99.9 of 10 000
samples), which on a shared machine are scheduler hiccups that come and
go from run to run, and it moves the percentile whenever throughput
changes.  :func:`block_tail` therefore applies the rule to consecutive
blocks of at most :data:`TAIL_BLOCK` samples (p95 of a full block) and
reports the median block.  On a cache-hit service workload of about 2 ms
an op, p98 and p99 blocks spread 0.46-0.51 of their median across seeds,
p95 blocks 0.17.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

#: a tail percentile must leave at least this many samples above it
TAIL_BEYOND = 10

#: most samples in one block of :func:`block_tail` (p95 for a full block)
TAIL_BLOCK = 200


@dataclass(frozen=True)
class Tail:
    """The tail of a latency sample under the ≥10-beyond rule."""

    value: float
    #: nearest-rank percentile of ``value`` (100 * rank / samples)
    percentile: float
    #: samples strictly after ``value`` in sorted order
    beyond: int
    samples: int


def tail(samples: list[float], beyond: int = TAIL_BEYOND) -> Tail | None:
    """The highest nearest-rank percentile with ``beyond`` samples after it.

    With ``n`` sorted samples the value at rank ``r`` (1-based) has
    ``n - r`` samples after it, so the answer is rank ``n - beyond``.
    Returns ``None`` when there are not more than ``beyond`` samples.
    """
    values = sorted(samples)
    rank = len(values) - beyond
    if rank < 1:
        return None
    return Tail(
        value=values[rank - 1],
        percentile=100.0 * rank / len(values),
        beyond=len(values) - rank,
        samples=len(values),
    )


@dataclass(frozen=True)
class BlockTail:
    """The median of per-block tails, with what they were taken over."""

    value: float
    percentile: float
    blocks: int
    samples: int


def block_tail(samples: list[float], block: int = TAIL_BLOCK) -> BlockTail | None:
    """The median over blocks of the ≥10-beyond tail, blocks in sample order.

    ``samples`` splits into ``ceil(n / block)`` consecutive blocks of equal
    size (within one sample); every block's :func:`tail` is taken, and the
    median of those values is returned with the smallest block's
    percentile.  ``None`` when no block has more than ten samples.
    """
    count = -(-len(samples) // block) if samples else 0
    bounds = [round(i * len(samples) / count) for i in range(count + 1)] if count else []
    tails = [tail(samples[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    if not tails or any(t is None for t in tails):
        return None
    return BlockTail(
        value=statistics.median(t.value for t in tails),
        percentile=min(t.percentile for t in tails),
        blocks=len(tails),
        samples=len(samples),
    )


def quartile_spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median.

    Quartiles as ``statistics.quantiles(values, n=4)`` computes them.
    """
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
