"""The vote matrix and the ensemble's aggregated prediction.

The vote matrix is the sole input to every certificate downstream: row t
holds the ``kd`` class votes for test input t, one per base classifier.
Votes are kept as a dense table (not per-class counts) because the
certificates need per-partition counts, which require knowing which
classifier cast each vote. ``arrays`` trains the ensemble and collects its
votes; the readable reference it is checked against is
``finiagg.reference``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .datamodel import AggregationConfig
from .errors import DataError, DimensionMismatch
from .hashing import SpreadOffsets
from .learners import argmax


@dataclass(frozen=True)
class VoteMatrix:
    """n_test x kd class votes plus the metadata needed to certify them."""

    votes: tuple[tuple[int, ...], ...]
    config: AggregationConfig
    offsets: SpreadOffsets
    labels: tuple[int, ...] | None = None

    def __post_init__(self):
        kd = self.config.kd
        if self.offsets.kd != kd:
            raise DataError(f"offsets kd={self.offsets.kd} does not match config kd={kd}")
        if self.offsets.d != self.config.d:
            raise DataError(f"{self.offsets.d} offsets for spread degree d={self.config.d}")
        n_classes = self.config.n_classes
        for t, row in enumerate(self.votes):
            if len(row) != kd:
                raise DimensionMismatch(f"vote row {t} has {len(row)} entries, expected {kd}")
            if min(row) < 0 or max(row) >= n_classes:
                v = next(v for v in row if v < 0 or v >= n_classes)
                raise DataError(f"vote row {t}: class {v} outside [0, {n_classes})")
        if self.labels is not None:
            if len(self.labels) != len(self.votes):
                raise DimensionMismatch(
                    f"{len(self.labels)} labels for {len(self.votes)} vote rows"
                )
            for t, lab in enumerate(self.labels):
                if lab < 0 or lab >= self.config.n_classes:
                    raise DataError(f"label {t}: class {lab} outside [0, {self.config.n_classes})")

    @property
    def n_test(self) -> int:
        return len(self.votes)


@dataclass(frozen=True)
class EnsembleStats:
    clean_accuracy: Fraction
    base_accuracy: Fraction


def aggregate_prediction(row: Sequence[int], n_classes: int) -> int:
    """Majority vote over one row; ties go to the smaller class index.

    Only the classes with votes are counted, in class order, never all
    ``n_classes``: a class without votes never beats one with votes.
    """
    counts = Counter(row)
    classes = sorted(counts)
    return classes[argmax([counts[c] for c in classes])] if classes else 0
