"""Deterministic base learners.

Two built-ins allow end-to-end runs without external ML dependencies:

* ``majority-label`` ignores features and predicts the most frequent
  training label;
* ``nearest-centroid`` predicts the class whose mean feature vector is
  nearest in squared distance, compared in exact integers.

Votes of any other learner reach the certifier through a vote-matrix
file, which names no learner.

Both built-ins break every tie toward the smaller class index, and models
trained on an empty subset predict class 0. Prediction never touches
floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .datamodel import LabeledSample
from .errors import DimensionMismatch, LimitError, UnknownLearnerKind

MAJORITY_LABEL = "majority-label"
NEAREST_CENTROID = "nearest-centroid"
KNOWN_KINDS = (MAJORITY_LABEL, NEAREST_CENTROID)


@dataclass(frozen=True)
class LearnerSpec:
    kind: str

    def __post_init__(self):
        if self.kind not in KNOWN_KINDS:
            raise UnknownLearnerKind(self.kind)


def argmax(scores: Sequence) -> int:
    """Index of the largest score; ties go to the smaller index."""
    best = 0
    for c in range(1, len(scores)):
        if scores[c] > scores[best]:
            best = c
    return best


@dataclass(frozen=True)
class MajorityLabelModel:
    n_classes: int
    label_counts: tuple[int, ...]

    def predict(self, features: Sequence[int]) -> int:
        return argmax(self.label_counts)


@dataclass(frozen=True)
class NearestCentroidModel:
    """Per-class feature sums and counts; the centroid of class c is sum_c / n_c.

    Only classes present in the training subset have centroids and enter the
    argmin. Distances ``|x - sum_a/n_a|^2`` and ``|x - sum_b/n_b|^2`` are
    compared by cross-multiplication,
    ``n_b^2 * |n_a x - sum_a|^2  vs  n_a^2 * |n_b x - sum_b|^2``,
    so the decision is exact at any magnitude.
    """

    n_classes: int
    feature_dim: int
    class_counts: tuple[int, ...]
    class_sums: tuple[tuple[int, ...], ...]

    def predict(self, features: Sequence[int]) -> int:
        if not any(self.class_counts):
            return 0
        if len(features) != self.feature_dim:
            raise DimensionMismatch(
                f"expected {self.feature_dim} features, got {len(features)}"
            )
        best: int | None = None
        best_num = 0  # |n_c x - sum_c|^2 for the current best
        best_den = 1  # n_c^2 for the current best
        for c in range(self.n_classes):
            n_c = self.class_counts[c]
            if n_c == 0:
                continue
            s_c = self.class_sums[c]
            num = sum((n_c * x - s) ** 2 for x, s in zip(features, s_c))
            if best is None or num * best_den < best_num * n_c * n_c:
                best, best_num, best_den = c, num, n_c * n_c
        return 0 if best is None else best


TrainedModel = MajorityLabelModel | NearestCentroidModel


def train(
    spec: LearnerSpec, subset: Sequence[LabeledSample], n_classes: int
) -> TrainedModel:
    """Train one base model on a subset, given in any order.

    Both built-ins reduce the subset to order-independent sums, so training
    is a pure function of the subset multiset. They hold a count for every
    one of the ``n_classes`` classes; when those cannot be allocated,
    ``LimitError`` says so.
    """
    dim = len(subset[0].features) if subset else 0
    try:
        counts = [0] * n_classes
        if spec.kind == NEAREST_CENTROID:
            sums = [[0] * dim for _ in range(n_classes)]
    except (MemoryError, OverflowError):
        raise LimitError(f"a model of {n_classes} classes does not fit in memory") from None
    if spec.kind == MAJORITY_LABEL:
        for s in subset:
            counts[s.label] += 1
        return MajorityLabelModel(n_classes, tuple(counts))
    for s in subset:
        counts[s.label] += 1
        row = sums[s.label]
        for col, v in enumerate(s.features):
            row[col] += v
    return NearestCentroidModel(n_classes, dim, tuple(counts), tuple(tuple(r) for r in sums))


def predict(model: TrainedModel, features: Sequence[int]) -> int:
    return model.predict(features)
