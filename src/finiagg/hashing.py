"""Split and spread hashing: partitions and the offsets that spread them.

The split hash sends a sample to one of ``kd`` partitions by the remainder
of its feature sum. The spread hash sends partition ``j`` to the ``d``
classifiers ``{(j + r) mod kd : r in R}`` for a fixed offset set ``R``; its
inverse tells each classifier which partitions it trains on. Any distinct-
element ``R`` makes the hash balanced, so every partition feeds exactly
``d`` classifiers and every classifier consumes exactly ``d`` partitions.
The split hash and the inverse are the readable reference in
``finiagg.reference``; ``arrays`` applies them to blocks of rows.

Offset generation is pinned to a named, platform-independent generator so
that identical ``(k, d, seed)`` inputs yield bit-identical layouts anywhere:

* state setup: one splitmix64 step over the seed
  (``s += 0x9E3779B97F4A7C15``; ``z = s``; ``z = (z ^ z>>30) * 0xBF58476D1CE4E5B9``;
  ``z = (z ^ z>>27) * 0x94D049BB133111EB``; ``z ^= z>>31``), zero mapped to the
  splitmix increment so the xorshift state is never zero;
* draws: xorshift64* (``x ^= x<<12``; ``x ^= x>>25``; ``x ^= x<<27``;
  output ``x * 0x2545F4914F6CDD1D``), all arithmetic mod 2^64;
* selection: a partial Fisher-Yates over ``[0, kd)`` taking ``d`` values,
  indexing each draw by ``value % remaining``.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterator

from .errors import DataError, DTooLarge, LimitError, UsageError

_MASK64 = (1 << 64) - 1
_SPLITMIX_INC = 0x9E3779B97F4A7C15


def _xorshift64star(seed: int) -> Iterator[int]:
    """Deterministic 64-bit draws; see the module docstring for constants."""
    z = (seed + _SPLITMIX_INC) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    x = z ^ (z >> 31) or _SPLITMIX_INC
    while True:
        x ^= (x << 12) & _MASK64
        x ^= x >> 25
        x ^= (x << 27) & _MASK64
        yield (x * 0x2545F4914F6CDD1D) & _MASK64


class SpreadOffsets(namedtuple("SpreadOffsets", "offsets kd")):
    """The offset set R: ``d`` distinct integers in ``[0, kd)``, sorted."""

    __slots__ = ()

    def __new__(cls, offsets: tuple[int, ...], kd: int):
        if len(set(offsets)) != len(offsets):
            raise DataError(f"offsets must be distinct, got {offsets}")
        if any(r < 0 or r >= kd for r in offsets):
            raise DataError(f"offsets must lie in [0, {kd}), got {offsets}")
        return super().__new__(cls, tuple(sorted(offsets)), kd)

    @property
    def d(self) -> int:
        return len(self.offsets)


def generate_offsets(
    k: int, d: int, seed: int, dpa_compatible: bool = False
) -> SpreadOffsets:
    """Draw the offset set R for ``(k, d, seed)`` with the pinned generator.

    With ``dpa_compatible`` (valid only for ``d == 1``) the result is ``{0}``
    regardless of seed, making the d=1 layout coincide with plain disjoint
    partitioning exactly instead of up to a classifier relabeling.
    """
    kd = k * d
    if d < 1:
        raise UsageError(f"spread degree must be positive, got d={d}")
    if d > kd:
        raise DTooLarge(d, kd)
    if dpa_compatible and d != 1:
        raise UsageError(f"dpa-compatible mode requires d=1, got d={d}")
    # made for {0} too, so --dpa-compatible refuses the same kd as a seeded draw
    try:
        pool = list(range(kd))
    except (MemoryError, OverflowError):
        raise LimitError(f"the {kd} partitions do not fit in memory") from None
    if dpa_compatible:
        return SpreadOffsets((0,), kd)
    draws = _xorshift64star(seed)
    for t in range(d):
        swap = t + next(draws) % (kd - t)
        pool[t], pool[swap] = pool[swap], pool[t]
    return SpreadOffsets(tuple(pool[:d]), kd)


def spread(j: int, offsets: SpreadOffsets) -> frozenset[int]:
    """Classifier indices that consume partition ``j``."""
    kd = offsets.kd
    return frozenset((j + r) % kd for r in offsets.offsets)
