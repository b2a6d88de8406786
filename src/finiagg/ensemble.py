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

from collections import Counter, namedtuple
from fractions import Fraction
from typing import NamedTuple, Sequence

from .datamodel import AggregationConfig
from .errors import DataError, DimensionMismatch
from .hashing import SpreadOffsets
from .learners import argmax


class VoteMatrix(namedtuple("VoteMatrix", "votes config offsets labels")):
    """n_test x kd class votes plus the metadata needed to certify them."""

    __slots__ = ()

    def __new__(cls, votes: tuple[tuple[int, ...], ...], config: AggregationConfig,
                offsets: SpreadOffsets, labels: tuple[int, ...] | None = None):
        kd = config.kd
        if offsets.kd != kd:
            raise DataError(f"offsets kd={offsets.kd} does not match config kd={kd}")
        if offsets.d != config.d:
            raise DataError(f"{offsets.d} offsets for spread degree d={config.d}")
        n_classes = config.n_classes
        for t, row in enumerate(votes):
            if len(row) != kd:
                raise DimensionMismatch(f"vote row {t} has {len(row)} entries, expected {kd}")
            if min(row) < 0 or max(row) >= n_classes:
                v = next(v for v in row if v < 0 or v >= n_classes)
                raise DataError(f"vote row {t}: class {v} outside [0, {n_classes})")
        if labels is not None:
            if len(labels) != len(votes):
                raise DimensionMismatch(f"{len(labels)} labels for {len(votes)} vote rows")
            for t, lab in enumerate(labels):
                if lab < 0 or lab >= n_classes:
                    raise DataError(f"label {t}: class {lab} outside [0, {n_classes})")
        return super().__new__(cls, votes, config, offsets, labels)

    @property
    def n_test(self) -> int:
        return len(self.votes)


class EnsembleStats(NamedTuple):
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
