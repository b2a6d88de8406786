
import pytest

from finiagg import LabeledSample, LearnerSpec, predict, train
from finiagg.errors import DimensionMismatch, UnknownLearnerKind, UsageError

MAJORITY = LearnerSpec("majority-label")
CENTROID = LearnerSpec("nearest-centroid")


def _samples(pairs):
    return [LabeledSample(tuple(f), lab) for f, lab in pairs]


def test_majority_predicts_the_mode():
    model = train(MAJORITY, _samples([([1], 1), ([2], 1), ([3], 0)]), 2)
    assert predict(model, [99]) == 1
    assert predict(model, [0]) == 1


def test_majority_tie_goes_to_smaller_index():
    model = train(MAJORITY, _samples([([1], 0), ([2], 1)]), 2)
    assert predict(model, [5]) == 0


@pytest.mark.parametrize("spec", [MAJORITY, CENTROID])
def test_empty_subset_predicts_class_zero(spec):
    model = train(spec, [], 4)
    assert predict(model, [1, 2]) == 0


def test_centroid_prefers_the_nearer_class():
    subset = _samples([([0, 0], 0), ([10, 10], 1)])
    model = train(CENTROID, subset, 2)
    assert predict(model, [1, 1]) == 0
    assert predict(model, [9, 9]) == 1


def test_centroid_equidistant_tie_goes_to_smaller_index():
    subset = _samples([([0], 0), ([4], 1)])
    model = train(CENTROID, subset, 2)
    assert predict(model, [2]) == 0


def test_centroid_never_predicts_absent_classes():
    model = train(CENTROID, _samples([([5], 2), ([7], 2)]), 4)
    assert predict(model, [0]) == 2
    assert predict(model, [100]) == 2


def test_centroid_comparison_is_exact_beyond_float_precision():
    # centroids 1e16 + 1/2 and 1e16 + 1/3 are indistinguishable in float64
    big = 10**16
    subset = [
        LabeledSample((big,), 0),
        LabeledSample((big + 1,), 0),
        LabeledSample((big,), 1),
        LabeledSample((big,), 1),
        LabeledSample((big + 1,), 1),
    ]
    # class 0 centroid: big + 1/2; class 1 centroid: big + 1/3
    model = train(CENTROID, subset[::-1], 2)
    assert predict(model, [big]) == 1


def test_centroid_dimension_mismatch():
    model = train(CENTROID, _samples([([1, 2], 0)]), 2)
    with pytest.raises(DimensionMismatch):
        predict(model, [1, 2, 3])


def test_unknown_kind_rejected():
    with pytest.raises(UnknownLearnerKind):
        LearnerSpec("gradient-boosted")
    with pytest.raises(UsageError):
        train(LearnerSpec("external-votes"), [], 2)


@pytest.mark.parametrize("spec", [MAJORITY, CENTROID])
def test_training_is_order_independent(spec, rng):
    for _ in range(30):
        pairs = [
            ([rng.randrange(20), rng.randrange(20)], rng.randrange(3))
            for _ in range(rng.randrange(1, 10))
        ]
        samples = _samples(pairs)
        shuffled = list(samples)
        rng.shuffle(shuffled)
        assert train(spec, samples, 3) == train(spec, shuffled, 3)


@pytest.mark.parametrize("spec", [MAJORITY, CENTROID])
def test_prediction_is_pure(spec):
    model = train(spec, _samples([([3, 1], 1), ([0, 2], 0)]), 2)
    x = [2, 2]
    assert predict(model, x) == predict(model, x)
