import pytest

from finiagg import (
    AggregationConfig,
    LabeledSample,
    LearnerSpec,
    build_partitions,
    generate_offsets,
    split_hash,
    spread,
    spread_inverse,
    train,
    train_ensemble,
    validate_dataset,
)
from finiagg.datamodel import Dataset
from finiagg.errors import DTooLarge, LimitError, UsageError
from finiagg.hashing import SpreadOffsets


def test_split_hash_is_feature_sum_mod_kd():
    assert split_hash(LabeledSample((100, 37), 1), 12) == 5
    assert split_hash(LabeledSample((0, 0, 0), 2), 9) == 0
    assert split_hash(LabeledSample((7,), 0), 1) == 0


def test_split_hash_ignores_the_label():
    for label in range(4):
        assert split_hash(LabeledSample((4, 9), label), 6) == 1


def test_generate_offsets_dpa_compatible_mode():
    assert generate_offsets(6, 1, seed=42, dpa_compatible=True).offsets == (0,)
    with pytest.raises(UsageError):
        generate_offsets(3, 2, seed=0, dpa_compatible=True)


def test_generate_offsets_is_deterministic_and_in_range():
    for seed in (0, 1, 2**63 - 1):
        first = generate_offsets(2, 2, seed)
        again = generate_offsets(2, 2, seed)
        assert first == again
        assert len(first.offsets) == 2
        assert all(0 <= r < 4 for r in first.offsets)


@pytest.mark.parametrize("k, d, seed, offsets", [
    (2, 2, 0, (0, 2)),
    (5, 3, 7, (0, 11, 13)),
    (4, 4, 1, (0, 2, 11, 12)),
    (50, 16, 0, (122, 140, 190, 204, 324, 328, 330, 377, 406, 444, 509, 608, 610, 616, 688, 712)),
    (1200, 16, 2**64 - 1, (487, 2254, 2414, 2666, 3674, 3681, 10451, 10484, 10996, 12042, 13184, 13569,
                           14711, 16137, 18011, 19026)),
])
def test_generate_offsets_golden_values(k, d, seed, offsets):
    # the pinned generator's layouts, which must be bit-identical on every platform and release
    assert generate_offsets(k, d, seed) == SpreadOffsets(offsets, k * d)


def test_generate_offsets_varies_with_seed():
    draws = {generate_offsets(5, 3, seed).offsets for seed in range(40)}
    assert len(draws) > 1


def test_generate_offsets_rejects_zero_partitions():
    with pytest.raises(DTooLarge):
        generate_offsets(0, 2, seed=0)


@pytest.mark.parametrize("d", [0, -1])
def test_generate_offsets_refuses_a_spread_degree_below_one(d):
    with pytest.raises(UsageError) as err:
        generate_offsets(3, d, 0)
    assert type(err.value) is UsageError and str(err.value) == f"spread degree must be positive, got d={d}"


def test_generate_offsets_refuses_a_kd_it_cannot_list():
    # 10**11 entries are refused by the allocator at once; with {0} offsets the run would
    # otherwise go on to build 10**11 partitions one by one
    for dpa_compatible in (False, True):
        with pytest.raises(LimitError):
            generate_offsets(10**11, 1, seed=0, dpa_compatible=dpa_compatible)
    with pytest.raises(UsageError):
        generate_offsets(10**11, 2, seed=0, dpa_compatible=True)


def test_spread_examples():
    r01 = SpreadOffsets((0, 1), 12)
    assert spread(11, r01) == {11, 0}
    r048 = SpreadOffsets((0, 4, 8), 12)
    assert spread(3, r048) == {3, 7, 11}
    identity = SpreadOffsets((0,), 5)
    for j in range(5):
        assert spread(j, identity) == {j}


def test_spread_inverse_examples():
    r01 = SpreadOffsets((0, 1), 12)
    assert spread_inverse(0, r01) == {0, 11}
    r048 = SpreadOffsets((0, 4, 8), 12)
    assert spread_inverse(5, r048) == {5, 1, 9}


def test_spread_duality_and_balance(rng):
    for _ in range(200):
        d = rng.randint(1, 4)
        k = rng.randint(1, 4)
        kd = k * d
        offsets = SpreadOffsets(tuple(rng.sample(range(kd), d)), kd)
        for i in range(kd):
            assert len(spread(i, offsets)) == d
            assert len(spread_inverse(i, offsets)) == d
            for j in range(kd):
                assert (j in spread_inverse(i, offsets)) == (i in spread(j, offsets))


def _dataset(rows):
    return validate_dataset(rows)


def test_build_partitions_groups_by_hash():
    ds = _dataset([(0, 5), (1, 17)])
    config = AggregationConfig(k=6, d=2, n_classes=2)
    partitions = build_partitions(ds, config.kd)
    assert partitions[5] == ds.samples  # both samples hash to 5
    assert sum(len(p) for p in partitions) == len(ds)


def test_build_partitions_empty_dataset():
    ds = Dataset((), n_classes=2, feature_dim=1)
    config = AggregationConfig(k=3, d=2, n_classes=2)
    partitions = build_partitions(ds, config.kd)
    assert len(partitions) == 6
    assert all(p == () for p in partitions)


def test_build_subsets_d1_reduces_to_plain_partitions():
    # d=1 is DPA: classifier i pools partition i alone, so its model is the
    # one trained on that partition (the former build_subsets layout).
    ds = _dataset([(0, 0), (0, 1), (1, 2), (1, 3), (0, 4)])
    config = AggregationConfig(k=3, d=1, n_classes=2)
    offsets = SpreadOffsets((0,), 3)
    partitions = build_partitions(ds, config.kd)
    for spec in (LearnerSpec("majority-label"), LearnerSpec("nearest-centroid")):
        models = train_ensemble(ds, config, spec, offsets)
        for i in range(3):
            assert spread_inverse(i, offsets) == {i}
            assert models[i] == train(spec, partitions[i][::-1], 2)
