"""Core domain types: labeled samples, datasets, the ensemble's configuration and its votes.

Training data is a multiset of integer feature vectors with class labels.
All types are immutable and hashable.

Two built-in learners allow end-to-end runs without external ML
dependencies: ``majority-label`` ignores features and predicts the most
frequent training label; ``nearest-centroid`` predicts the class whose mean
feature vector is nearest in squared distance, compared in exact integers.
Votes of any other learner reach the certifier through a vote-matrix file,
which names no learner. Both built-ins break every tie toward the smaller
class index (``argmax``), and models trained on an empty subset predict
class 0. Prediction never touches floating point. The models and their
trainer are the readable reference in ``finiagg.reference``; ``arrays``
votes by the same rules.

The vote matrix is the sole input to every certificate downstream: row t
packs the ``kd`` class votes for test input t, one per base classifier, in
one ``bytes``, each vote as wide as ``n_classes`` needs (``pack``). Votes
are a dense table, not per-class counts, because the certificates need
per-partition counts, which require knowing which classifier cast each
vote. The ensemble predicts by majority vote, ties to the smaller class
index (``aggregate_prediction``).
"""

from __future__ import annotations

import operator
import struct
from collections import Counter, namedtuple
from typing import Iterable, Sequence

from .errors import (
    DataError, DimensionMismatch, LabelOutOfRange, LimitError, NegativeFeature, RaggedRow, RowError, UnknownLearnerKind
)
from .hashing import SpreadOffsets

MAJORITY_LABEL = "majority-label"
NEAREST_CENTROID = "nearest-centroid"
KNOWN_KINDS = (MAJORITY_LABEL, NEAREST_CENTROID)


class LabeledSample(namedtuple("LabeledSample", "features label")):
    """One training sample: non-negative features plus a class label, every cell an ``int``."""

    __slots__ = ()

    def __new__(cls, features: tuple[int, ...], label: int):  # a bool or a float is refused, never coerced
        self = super().__new__(cls, features, label)
        if not all(type(v) is int for v in (*features, label)):
            raise DataError(f"sample cells must be ints, got {self}")
        return self


class Dataset:
    """A multiset of samples with fixed feature width and class count; ``len`` counts the samples.

    Printed, compared and hashed by its fields, which cannot be set, as the records are.
    """

    __slots__ = ("samples", "n_classes", "feature_dim")

    def __init__(self, samples: tuple[LabeledSample, ...], n_classes: int, feature_dim: int):
        if n_classes < 1:
            raise DataError(f"n_classes must be positive, got {n_classes}")
        if feature_dim < 1:
            raise DataError(f"feature_dim must be positive, got {feature_dim}")
        for idx, s in enumerate(samples):
            check_row(idx, s.label, s.features, n_classes, feature_dim)
        for name, value in zip(Dataset.__slots__, (samples, n_classes, feature_dim)):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return self.samples, self.n_classes, self.feature_dim

    def __setattr__(self, name, *value):  # the fields are set once, in __init__
        raise AttributeError(f"cannot set or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is Dataset else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):  # pickled and copied through __init__, not by setting fields
        return Dataset, self._values()

    def __repr__(self) -> str:
        return "Dataset(samples={!r}, n_classes={!r}, feature_dim={!r})".format(*self._values())

    def __len__(self) -> int:
        return len(self.samples)


class AggregationConfig(namedtuple("AggregationConfig", "k d n_classes")):
    """Hyperparameters of the split/spread ensemble.

    ``k`` is the inverse sensitivity (each sample reaches a 1/k fraction of
    the classifiers), ``d`` the spread degree (how many classifiers consume
    each partition). The ensemble has ``kd = k * d`` partitions and equally
    many base classifiers.
    """

    __slots__ = ()

    def __new__(cls, k: int, d: int, n_classes: int):
        if k < 1:
            raise DataError(f"k must be positive, got {k}")
        if d < 1:
            raise DataError(f"d must be positive, got {d}")
        if n_classes < 1:
            raise DataError(f"n_classes must be positive, got {n_classes}")
        return super().__new__(cls, k, d, n_classes)

    @property
    def kd(self) -> int:
        return self.k * self.d


class LearnerSpec(namedtuple("LearnerSpec", "kind")):
    __slots__ = ()

    def __new__(cls, kind: str):
        if kind not in KNOWN_KINDS:
            raise UnknownLearnerKind(kind)
        return super().__new__(cls, kind)


_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}  # struct's unsigned formats, by size in bytes


def byte_width(bound: int, what: str) -> int:
    """Fewest bytes, of 1, 2, 4 and 8, that hold every value in ``[0, bound]``."""
    for width in _FORMATS:
        if bound >> 8 * width == 0:
            return width
    raise LimitError(f"{what} up to {bound} do not fit in a 64-bit integer")


def pack(values: Sequence[int], width: int) -> bytes:
    """``values`` as ``width``-byte little-endian unsigned ints; one out of range raises ValueError or struct.error."""
    if width == 1 and type(values) in (list, tuple, bytes):  # not an array: bytes() would copy its buffer
        return bytes(values)
    return struct.pack(f"<{len(values)}{_FORMATS[width]}", *values)


def unpack(data: bytes, count: int) -> Sequence[int]:
    """The ``count`` ints ``pack`` packed in ``data``: the bytes themselves at one byte each, else a tuple."""
    return data if len(data) == count else struct.unpack(f"<{count}{_FORMATS[len(data) // count]}", data)


class VoteMatrix(namedtuple("VoteMatrix", "votes config offsets labels")):
    """n_test x kd class votes, one ``pack``ed ``bytes`` per row, plus the metadata to certify them; read once."""

    __slots__ = ()

    def __new__(cls, votes: Iterable[bytes | Sequence[int]], config: AggregationConfig,
                offsets: SpreadOffsets, labels: tuple[int, ...] | None = None):
        kd = config.kd
        if offsets.kd != kd:
            raise DataError(f"offsets kd={offsets.kd} does not match config kd={kd}")
        if offsets.d != config.d:
            raise DataError(f"{offsets.d} offsets for spread degree d={config.d}")
        n_classes = config.n_classes
        width = byte_width(n_classes - 1, "class indices")  # refused before any row is read
        allowed = bytes(range(min(n_classes, 256)))  # translate deletes them all from a 1-byte row in range
        rows = []
        for t, row in enumerate(votes):
            if type(row) is not bytes:  # else taken as packed
                if len(row) != kd:
                    raise DimensionMismatch(f"vote row {t} has {len(row)} entries, expected {kd}")
                try:
                    row = pack(row, width)
                except (ValueError, struct.error, TypeError):  # a vote outside [0, 2^(8 width)), or not an int
                    for vote in row:  # only on failure: name the first offending vote
                        try:
                            operator.index(vote)
                        except TypeError:
                            raise DataError(f"vote row {t}: {vote!r} is not an integer") from None
                        _check_classes(f"vote row {t}: class", (vote,), n_classes)
                    raise
            elif len(row) != kd * width:
                raise DimensionMismatch(f"vote row {t} has {len(row)} bytes, expected {kd * width}")
            if row.translate(None, allowed) if width == 1 else max(unpack(row, kd)) >= n_classes:
                _check_classes(f"vote row {t}: class", unpack(row, kd), n_classes)
            rows.append(row)
        if labels is not None:
            if len(labels) != len(rows):
                raise DimensionMismatch(f"{len(labels)} labels for {len(rows)} vote rows")
            for t, lab in enumerate(labels):
                _check_classes(f"label {t}: class", (lab,), n_classes)
        return super().__new__(cls, tuple(rows), config, offsets, labels)

    @property
    def n_test(self) -> int:
        return len(self.votes)


def _check_classes(what: str, classes: Iterable[int], n_classes: int) -> None:
    """Raise a ``DataError`` that names the first class outside ``[0, n_classes)``."""
    for c in classes:
        if not 0 <= c < n_classes:
            raise DataError(f"{what} {c} outside [0, {n_classes})")


def argmax(scores: Sequence) -> int:
    """Index of the largest score; ties go to the smaller index."""
    best = 0
    for c in range(1, len(scores)):
        if scores[c] > scores[best]:
            best = c
    return best


def aggregate_prediction(row: Sequence[int], n_classes: int) -> int:
    """Majority vote over one row; ties go to the smaller class index.

    Only the classes with votes are counted, in class order, never all
    ``n_classes``: a class without votes never beats one with votes.
    """
    counts = Counter(row)
    classes = sorted(counts)
    return classes[argmax([counts[c] for c in classes])] if classes else 0


def validate_dataset(
    rows: Iterable[Sequence[int]],
    n_classes: int | None = None,
    feature_dim: int | None = None,
) -> Dataset:
    """Build a ``Dataset`` from parsed rows of ``(label, f0, ..., f{n-1})``.

    ``n_classes`` defaults to ``max(label) + 1``; ``feature_dim`` to the width
    of the first row (callers that parsed a CSV header pass it explicitly, so
    even empty files validate). Errors name the offending zero-based row index.
    """
    samples: list[LabeledSample] = []
    max_label = -1
    for idx, row in enumerate(rows):
        try:
            sample = LabeledSample(tuple(row[1:]), row[0])
        except DataError as exc:  # a cell that is not an ``int``
            raise RowError(idx, str(exc)) from None
        if feature_dim is None:
            feature_dim = len(sample.features)
        check_row(idx, sample.label, sample.features, n_classes, feature_dim)
        max_label = max(max_label, sample.label)
        samples.append(sample)

    if n_classes is None:
        if max_label < 0:
            raise DataError("empty dataset needs an explicit n_classes")
        n_classes = max_label + 1
    if feature_dim is None:
        raise DataError("cannot infer feature_dim from an empty dataset")
    return Dataset(tuple(samples), n_classes, feature_dim)


def check_row(
    idx: int, label: int, features: Sequence[int], n_classes: int | None, feature_dim: int
) -> None:
    """Raise the error for row ``idx`` if it breaks a dataset rule, checked in this order.

    The row must have ``feature_dim`` features, none negative, and a label in
    ``[0, n_classes)``; without ``n_classes`` any non-negative label passes.
    """
    if len(features) != feature_dim:
        raise RaggedRow(idx, feature_dim, len(features))
    if features and min(features) < 0:
        col = next(col for col, value in enumerate(features) if value < 0)
        raise NegativeFeature(idx, col, features[col])
    if label < 0 or (n_classes is not None and label >= n_classes):
        raise LabelOutOfRange(idx, label, n_classes if n_classes is not None else 0)
