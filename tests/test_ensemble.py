import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from finiagg import (
    AggregationConfig,
    LabeledSample,
    LearnerSpec,
    VoteMatrix,
    aggregate_prediction,
    build_partitions,
    build_report,
    collect_votes,
    generate_offsets,
    predict,
    train,
    train_ensemble,
    validate_dataset,
)
from finiagg.datamodel import Dataset
from finiagg.errors import DataError, DimensionMismatch, EmptyTestSet
from finiagg import SpreadOffsets, spread_inverse

MAJORITY = LearnerSpec("majority-label")
CENTROID = LearnerSpec("nearest-centroid")


def _toy_dataset():
    rows = [(i % 2, i, (3 * i) % 5) for i in range(14)]
    return validate_dataset(rows)


def test_d1_models_equal_per_partition_models():
    ds = _toy_dataset()
    config = AggregationConfig(k=4, d=1, n_classes=2)
    offsets = SpreadOffsets((0,), 4)
    models = train_ensemble(ds, config, MAJORITY, offsets)
    partitions = build_partitions(ds, config.kd)
    for i, model in enumerate(models):
        assert model == train(MAJORITY, partitions[i][::-1], 2)


def test_train_ensemble_hand_enumerated():
    # kd=4, R={0,1}: classifier i trains on partitions {i, i-1 mod 4}
    a = LabeledSample((0,), 0)   # hash 0
    b = LabeledSample((1,), 0)   # hash 1
    c = LabeledSample((3,), 1)   # hash 3
    ds = Dataset((a, b, c), n_classes=2, feature_dim=1)
    config = AggregationConfig(k=2, d=2, n_classes=2)
    for spec in (MAJORITY, CENTROID):
        models = train_ensemble(ds, config, spec, SpreadOffsets((0, 1), 4))
        assert models == [
            train(spec, [a, c], 2),
            train(spec, [a, b], 2),
            train(spec, [b], 2),
            train(spec, [c], 2),
        ]


def test_train_ensemble_conserves_label_counts_and_feature_sums(rng):
    for _ in range(50):
        k, d = rng.randint(1, 4), rng.randint(1, 3)
        kd = k * d
        n = rng.randrange(12)
        rows = [(rng.randrange(3), rng.randrange(30), rng.randrange(5)) for _ in range(n)]
        ds = validate_dataset(rows, n_classes=3) if rows else Dataset((), 3, 2)
        config = AggregationConfig(k=k, d=d, n_classes=3)
        offsets = SpreadOffsets(tuple(rng.sample(range(kd), d)), kd)
        models = train_ensemble(ds, config, CENTROID, offsets)
        counts = [0] * 3
        sums = [[0, 0] for _ in range(3)]
        for m in models:
            for c in range(3):
                counts[c] += m.class_counts[c]
                for col, v in enumerate(m.class_sums[c]):  # empty models have no columns
                    sums[c][col] += v
        for c in range(3):
            in_class = [s.features for s in ds.samples if s.label == c]
            assert counts[c] == d * len(in_class)
            assert sums[c] == [d * sum(f[col] for f in in_class) for col in range(2)]


def test_train_ensemble_is_order_independent():
    rows = [(i % 3, i, i * i % 7) for i in range(20)]
    shuffled = list(rows)
    random.Random(5).shuffle(shuffled)
    config = AggregationConfig(k=4, d=2, n_classes=3)
    offsets = generate_offsets(4, 2, 3)
    for spec in (MAJORITY, CENTROID):
        one = train_ensemble(validate_dataset(rows), config, spec, offsets)
        two = train_ensemble(validate_dataset(shuffled), config, spec, offsets)
        assert one == two


def test_models_equal_training_on_the_sorted_pooled_partitions(rng):
    saw_empty = saw_duplicate = False
    for _ in range(60):
        k, d = rng.randint(1, 4), rng.randint(1, 4)
        kd = k * d
        pool = [(rng.randrange(3), rng.randrange(6), rng.randrange(6)) for _ in range(5)]
        rows = [rng.choice(pool) for _ in range(rng.randrange(15))]
        ds = validate_dataset(rows, n_classes=3) if rows else Dataset((), 3, 2)
        config = AggregationConfig(k=k, d=d, n_classes=3)
        offsets = generate_offsets(k, d, rng.randrange(100))
        partitions = build_partitions(ds, config.kd)
        saw_empty |= any(not p for p in partitions)
        saw_duplicate |= len(set(rows)) < len(rows)
        for spec in (MAJORITY, CENTROID):
            models = train_ensemble(ds, config, spec, offsets)
            for i, model in enumerate(models):
                pooled = [s for j in spread_inverse(i, offsets) for s in partitions[j]]
                assert model == train(spec, pooled[::-1], 3)
    assert saw_empty and saw_duplicate


def test_train_ensemble_rejects_offsets_of_another_kd():
    config = AggregationConfig(k=2, d=1, n_classes=2)
    with pytest.raises(DataError):
        train_ensemble(_toy_dataset(), config, MAJORITY, SpreadOffsets((0,), 3))


def test_empty_dataset_trains_constant_zero_models():
    ds = Dataset((), n_classes=3, feature_dim=2)
    config = AggregationConfig(k=2, d=2, n_classes=3)
    models = train_ensemble(ds, config, MAJORITY, generate_offsets(2, 2, 1))
    assert len(models) == 4
    assert all(predict(m, [0, 0]) == 0 for m in models)


def test_collect_votes_shape_and_metadata():
    ds = _toy_dataset()
    config = AggregationConfig(k=3, d=1, n_classes=2)
    offsets = SpreadOffsets((0,), 3)
    models = train_ensemble(ds, config, MAJORITY, offsets)
    matrix = collect_votes(models, [(1, 2), (3, 4)], config, offsets, labels=[0, 1])
    assert matrix.n_test == 2
    assert all(len(row) == 3 for row in matrix.votes)

    empty = collect_votes(models, [], config, offsets)
    assert empty.n_test == 0
    assert empty.config == config and empty.offsets == offsets


def test_collect_votes_requires_kd_models():
    config = AggregationConfig(k=3, d=1, n_classes=2)
    with pytest.raises(DimensionMismatch):
        collect_votes([], [(1,)], config, SpreadOffsets((0,), 3))


def test_vote_matrix_validates_entries():
    config = AggregationConfig(k=2, d=1, n_classes=2)
    offsets = SpreadOffsets((0,), 2)
    with pytest.raises(DataError):
        VoteMatrix(((0, 5),), config, offsets)
    with pytest.raises(DimensionMismatch):
        VoteMatrix(((0,),), config, offsets)
    with pytest.raises(DimensionMismatch):
        VoteMatrix(((0, 1),), config, offsets, labels=(0, 1))


def test_aggregate_prediction_majority_and_ties():
    assert aggregate_prediction([0, 0, 1], 2) == 0
    assert aggregate_prediction([0, 0, 1, 1], 2) == 0
    assert aggregate_prediction([2, 1, 1, 2], 3) == 1


@given(st.lists(st.integers(0, 3), min_size=1, max_size=15), st.randoms(use_true_random=False))
def test_aggregate_prediction_is_permutation_invariant(row, rnd):
    before = aggregate_prediction(row, 4)
    rnd.shuffle(row)
    assert aggregate_prediction(row, 4) == before


def _matrix(votes, labels, n_classes=2, d=1):
    kd = len(votes[0])
    k = kd // d
    config = AggregationConfig(k=k, d=d, n_classes=n_classes)
    offsets = SpreadOffsets(tuple(range(d)), kd)
    return VoteMatrix(tuple(tuple(r) for r in votes), config, offsets,
                      tuple(labels) if labels is not None else None)


def test_ensemble_stats_perfect():
    m = _matrix([[1, 1], [0, 0]], [1, 0])
    stats = build_report(m, 0).ensemble
    assert stats.clean_accuracy == 1
    assert stats.base_accuracy == 1


def test_ensemble_stats_tie_counts_for_the_smaller_index():
    m = _matrix([[0, 1]], [0])
    stats = build_report(m, 0).ensemble
    assert stats.clean_accuracy == 1
    assert stats.base_accuracy == Fraction(1, 2)


def test_ensemble_stats_requires_labels_and_rows():
    assert build_report(_matrix([[0, 1]], None), 0).ensemble is None
    config = AggregationConfig(k=2, d=1, n_classes=2)
    empty = VoteMatrix((), config, SpreadOffsets((0,), 2), labels=())
    with pytest.raises(EmptyTestSet):
        build_report(empty, 0)


def test_parallel_training_matches_sequential():
    ds = _toy_dataset()
    config = AggregationConfig(k=3, d=2, n_classes=2)
    offsets = SpreadOffsets((0, 2), 6)
    seq = train_ensemble(ds, config, MAJORITY, offsets)
    par = train_ensemble(ds, config, MAJORITY, offsets)
    assert seq == par
    tests = [(i, i) for i in range(6)]
    assert collect_votes(seq, tests, config, offsets) == collect_votes(
        par, tests, config, offsets
    )
