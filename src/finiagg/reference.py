"""Readable references that no command runs; the fast paths are checked against them.

Each one states a decision rule plainly: the margin table of one vote row
with its fine radius and 2d-cap baseline, the d=1 disjoint-partition radius,
the certificate confined to a set of partitions and the certified accuracy
under one shared poison set (``certifier``), the two base learners and their
trainer (``arrays`` votes by the same rules), the split hash and the
ensemble it trains, the exhaustive adversary
(``oracle.branch_and_bound_radius``) and the exact d→∞ ensemble on one input
(``infinite_aggregation``). No module that ``finiagg.cli`` loads imports this
one; the package exports its public names on first access.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from typing import Iterable, Sequence

from .certifier import ENUMERATION_CAP, _shared_set_size
from .datamodel import (
    MAJORITY_LABEL, NEAREST_CENTROID, AggregationConfig, Dataset, LabeledSample, LearnerSpec, VoteMatrix,
    aggregate_prediction, argmax, unpack,
)
from .errors import DataError, DimensionMismatch, InstanceTooLarge, LimitError
from .hashing import SpreadOffsets, spread
from .infinite_aggregation import IAVoteDistribution, ia_vote_distributions
from .oracle import DEFAULT_LIMIT, _partition_masks  # 16, as infinite_aggregation's


class MarginTable(namedtuple("MarginTable", "prediction kd d n_classes global_counts partition_counts")):
    """Vote statistics of one test sample, global and per partition; ``partition_counts[class][partition]``."""

    __slots__ = ()

    def __new__(cls, prediction: int, kd: int, d: int, n_classes: int, global_counts: tuple[int, ...],
                partition_counts: tuple[tuple[int, ...], ...]):
        if sum(global_counts) != kd:
            raise DataError("global vote counts do not sum to kd")
        for j in range(kd):
            if sum(partition_counts[c][j] for c in range(n_classes)) != d:
                raise DataError(f"partition {j}: per-class counts do not sum to d")
        for c in range(n_classes):
            if sum(partition_counts[c]) != d * global_counts[c]:
                raise DataError(f"class {c}: partition counts do not sum to d * N_c")
        return super().__new__(cls, prediction, kd, d, n_classes, global_counts, partition_counts)

    def rhs(self, challenger: int) -> int:
        """Integer margin against ``challenger``, tie-break included."""
        c = self.prediction
        return (
            self.global_counts[c]
            - self.global_counts[challenger]
            - (1 if challenger < c else 0)
        )

    def delta_elements(self, challenger: int, scope: Iterable[int] | None = None) -> list[int]:
        """Worst-case margin losses ``e_j``, sorted descending.

        ``scope`` restricts the partitions an adversary may touch; the
        default is all of them.
        """
        c = self.prediction
        a_c = self.partition_counts[c]
        a_q = self.partition_counts[challenger]
        js = range(self.kd) if scope is None else scope
        return sorted((self.d + a_c[j] - a_q[j] for j in js), reverse=True)


def margin_table(row: Sequence[int], offsets: SpreadOffsets, n_classes: int) -> MarginTable:
    """Tabulate one vote row into global and per-partition counts.

    The table has a row for every one of the ``n_classes`` classes; when
    they cannot be allocated, ``LimitError`` says so.
    """
    kd = offsets.kd
    d = offsets.d
    try:
        counts = [0] * n_classes
        per_part = [[0] * kd for _ in range(n_classes)]
    except (MemoryError, OverflowError):
        raise LimitError(f"a margin table of {n_classes} classes does not fit in memory") from None
    for v in row:
        counts[v] += 1
    for j in range(kd):
        for i in spread(j, offsets):
            per_part[row[i]][j] += 1
    return MarginTable(
        argmax(counts),
        kd,
        d,
        n_classes,
        tuple(counts),
        tuple(tuple(r) for r in per_part),
    )


def _scan_radius(elements_desc: Sequence[int], rhs: int) -> int:
    """Largest m whose top-m element sum stays within rhs.

    Elements are non-negative, so prefix sums are nondecreasing and a linear
    scan suffices.
    """
    total = 0
    m = 0
    for e in elements_desc:
        total += e
        if total > rhs:
            break
        m += 1
    return m


def fa_radius(table: MarginTable, label: int | None = None) -> int:
    """Certified radius from the per-partition margin statistics.

    For each challenger, the radius is the largest budget whose worst-case
    margin loss (top-m sum of the delta multiset) stays within the integer
    margin; the sample's radius is the minimum over challengers, capped at
    ``kd``. Returns -1 when a label is supplied and the prediction misses it.
    """
    c = table.prediction
    if label is not None and c != label:
        return -1
    radius = table.kd
    for cp in range(table.n_classes):
        if cp == c:
            continue
        radius = min(radius, _scan_radius(table.delta_elements(cp), table.rhs(cp)))
    return radius


def dpa_baseline_radius(table: MarginTable, label: int | None = None) -> int:
    """Baseline radius over the same kd classifiers with every e_j at its cap 2d."""
    c = table.prediction
    if label is not None and c != label:
        return -1
    radius = table.kd
    for cp in range(table.n_classes):
        if cp == c:
            continue
        radius = min(radius, max(0, table.rhs(cp) // (2 * table.d)))
    return radius


def margin_tables(matrix: VoteMatrix) -> list[MarginTable]:
    n_classes = matrix.config.n_classes
    return [margin_table(unpack(row, matrix.config.kd), matrix.offsets, n_classes) for row in matrix.votes]


class MajorityLabelModel(namedtuple("MajorityLabelModel", "n_classes label_counts")):
    __slots__ = ()

    def predict(self, features: Sequence[int]) -> int:
        return argmax(self.label_counts)


class NearestCentroidModel(namedtuple("NearestCentroidModel", "n_classes feature_dim class_counts class_sums")):
    """Per-class feature sums and counts; the centroid of class c is sum_c / n_c.

    Only classes present in the training subset have centroids and enter the
    argmin. Distances ``|x - sum_a/n_a|^2`` and ``|x - sum_b/n_b|^2`` are
    compared by cross-multiplication,
    ``n_b^2 * |n_a x - sum_a|^2  vs  n_a^2 * |n_b x - sum_b|^2``,
    so the decision is exact at any magnitude.
    """

    __slots__ = ()

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


def split_hash(sample: LabeledSample, kd: int) -> int:
    """Partition index of a sample: sum of its feature values mod ``kd``.

    The label is deliberately excluded from the sum.
    """
    return sum(sample.features) % kd


def spread_inverse(i: int, offsets: SpreadOffsets) -> frozenset[int]:
    """Partition indices consumed by classifier ``i``."""
    kd = offsets.kd
    return frozenset((i - r) % kd for r in offsets.offsets)


def build_partitions(dataset: Dataset, kd: int) -> tuple[tuple[LabeledSample, ...], ...]:
    """Split the dataset by the split hash; returns the ``kd`` partitions, partition ``j`` at index ``j``."""
    buckets: list[list[LabeledSample]] = [[] for _ in range(kd)]
    for s in dataset.samples:
        buckets[split_hash(s, kd)].append(s)
    return tuple(map(tuple, buckets))


def train_ensemble(
    dataset: Dataset,
    config: AggregationConfig,
    spec: LearnerSpec,
    offsets: SpreadOffsets,
) -> list[TrainedModel]:
    """Train the ``kd`` base models from the ``kd`` partitions of the split hash.

    Model ``i`` trains on the union of the ``d`` partitions that
    ``spread_inverse(i, offsets)`` names, pooled in no particular order:
    both built-in learners reduce a subset to order-independent sums.
    """
    if offsets.kd != config.kd:
        raise DataError(f"offsets kd={offsets.kd} does not match config kd={config.kd}")
    partitions = build_partitions(dataset, config.kd)
    models = []
    for i in range(config.kd):
        pooled = [s for j in spread_inverse(i, offsets) for s in partitions[j]]
        models.append(train(spec, pooled, config.n_classes))
    return models


def collect_votes(
    models: Sequence[TrainedModel],
    test_inputs: Sequence[Sequence[int]],
    config: AggregationConfig,
    offsets: SpreadOffsets,
    labels: Sequence[int] | None = None,
) -> VoteMatrix:
    """Evaluate every model on every test input."""
    if len(models) != config.kd:
        raise DimensionMismatch(f"{len(models)} models for kd={config.kd}")
    rows = tuple(tuple(m.predict(x) for m in models) for x in test_inputs)
    return VoteMatrix(rows, config, offsets, tuple(labels) if labels is not None else None)


def dpa_radius(row: Sequence[int], n_classes: int, label: int | None = None) -> int:
    """Certified radius of a plain disjoint-partition ensemble of k classifiers.

    Each poison changes at most one vote, shifting the margin to any
    challenger by at most 2, hence ``floor(rhs / 2)`` per challenger: the
    2d-cap baseline of the row read as a d=1 ensemble (offsets ``{0}``).
    Returns -1 when a label is supplied and the prediction misses it.
    """
    table = margin_table(row, SpreadOffsets((0,), len(row)), n_classes)
    return dpa_baseline_radius(table, label)


def conditional_certified(
    table: MarginTable,
    affected: Iterable[int],
    budget: int,
    label: int | None = None,
) -> bool:
    """Certify against adversaries confined to the given partition set.

    True iff the prediction is correct (when a label is given) and, for every
    challenger, the sum of the ``min(budget, |Q|)`` largest delta elements
    restricted to the partitions in ``Q`` stays within the margin.
    """
    c = table.prediction
    if label is not None and c != label:
        return False
    q = tuple(affected)
    take = max(0, min(budget, len(q)))
    for cp in range(table.n_classes):
        if cp == c:
            continue
        elements = table.delta_elements(cp, q)
        if sum(elements[:take]) > table.rhs(cp):
            return False
    return True


def certified_accuracy(
    tables: Sequence[MarginTable],
    labels: Sequence[int],
    budget: int,
    enumeration_cap: int = ENUMERATION_CAP,
) -> tuple[Fraction, tuple[int, ...]]:
    """Worst-case test accuracy over all attacks sharing one poison set.

    Minimizes the mean of ``conditional_certified`` over every partition
    subset Q of size ``min(budget, kd)``; larger scopes only weaken the
    certificate, so smaller Q never attain the minimum. Returns the minimum
    and the first Q (in lexicographic order) attaining it.
    """
    kd = tables[0].kd if tables else 0  # without rows, EmptyTestSet is raised before kd is read
    q_size = _shared_set_size(labels, len(tables), kd, budget, enumeration_cap)
    return min(
        (Fraction(sum(conditional_certified(t, q, q_size, l) for t, l in zip(tables, labels)), len(tables)), q)
        for q in combinations(range(kd), q_size)
    )


def _class_masks(row: Sequence[int], n_classes: int) -> list[int]:
    masks = [0] * n_classes
    for i, v in enumerate(row):
        masks[v] |= 1 << i
    return masks


def _flips(
    subset: tuple[int, ...],
    part_masks: Sequence[int],
    class_masks: Sequence[int],
    counts: Sequence[int],
    prediction: int,
) -> bool:
    affected = 0
    for j in subset:
        affected |= part_masks[j]
    size = affected.bit_count()
    hit = [(affected & class_masks[c]).bit_count() for c in range(len(counts))]
    winner_left = counts[prediction] - hit[prediction]
    for w in range(len(counts)):
        if w == prediction:
            continue
        gained = counts[w] - hit[w] + size
        if gained > winner_left or (gained == winner_left and w < prediction):
            return True
    return False


def exact_poison_radius(
    row: Sequence[int],
    offsets: SpreadOffsets,
    n_classes: int,
    label: int | None = None,
    limit: int = DEFAULT_LIMIT,
) -> int:
    """Largest budget no exhaustive attack can beat; -1 on a wrong prediction."""
    kd = offsets.kd
    if kd > limit:
        raise InstanceTooLarge(f"kd={kd} exceeds the oracle limit {limit}")
    prediction = aggregate_prediction(row, n_classes)
    if label is not None and prediction != label:
        return -1
    part_masks = _partition_masks(offsets)
    class_masks = _class_masks(row, n_classes)
    counts = [m.bit_count() for m in class_masks]
    for m in range(1, kd + 1):
        for subset in combinations(range(kd), m):
            if _flips(subset, part_masks, class_masks, counts, prediction):
                return m - 1
    return kd


def conditional_exact_check(
    row: Sequence[int],
    offsets: SpreadOffsets,
    affected: Iterable[int],
    budget: int,
    n_classes: int,
    label: int | None = None,
    limit: int = DEFAULT_LIMIT,
) -> bool:
    """True iff no attack confined to the given partitions flips the prediction."""
    kd = offsets.kd
    if kd > limit:
        raise InstanceTooLarge(f"kd={kd} exceeds the oracle limit {limit}")
    prediction = aggregate_prediction(row, n_classes)
    if label is not None and prediction != label:
        return False
    q = tuple(affected)
    take = max(0, min(budget, len(q)))
    if take == 0:
        return True
    part_masks = _partition_masks(offsets)
    class_masks = _class_masks(row, n_classes)
    counts = [m.bit_count() for m in class_masks]
    # Flips are monotone in the touched set, so only maximal subsets matter.
    for subset in combinations(q, take):
        if _flips(subset, part_masks, class_masks, counts, prediction):
            return False
    return True


def ia_votes(
    dataset: Dataset,
    features: Sequence[int],
    k: int,
    spec: LearnerSpec,
    limit: int = DEFAULT_LIMIT,
) -> IAVoteDistribution:
    """Evaluate the subsampled ensemble exactly on one input; see ``ia_vote_distributions``."""
    return ia_vote_distributions(dataset, [features], k, spec, limit)[0]


def ia_brute_force_check(
    dataset: Dataset,
    features: Sequence[int],
    k: int,
    spec: LearnerSpec,
    budget: int,
    pool: Sequence[LabeledSample],
    limit: int = DEFAULT_LIMIT,
) -> bool:
    """Exhaustively confirm the prediction survives every reachable attack.

    Attacks remove up to ``budget`` samples from the dataset and insert
    up to the remaining budget from ``pool`` (with repetition). Every
    enumerated variant stays within the symmetric-distance ball, but the
    restricted pool covers only part of it: a True result is necessary
    for a sound certificate, never proof of tightness.
    """
    n = len(dataset.samples)
    if n + budget > limit:
        raise InstanceTooLarge(
            f"|D|+budget={n + budget} exceeds the exhaustive limit {limit}"
        )
    baseline = ia_votes(dataset, features, k, spec, limit).prediction
    positions = range(n)
    for removals in range(budget + 1):
        for removed in combinations(positions, removals):
            kept = [s for i, s in enumerate(dataset.samples) if i not in removed]
            for insertions in range(budget - removals + 1):
                for added in combinations_with_replacement(pool, insertions):
                    variant = Dataset(
                        tuple(kept) + tuple(added), dataset.n_classes, dataset.feature_dim
                    )
                    if ia_votes(variant, features, k, spec, limit).prediction != baseline:
                        return False
    return True
