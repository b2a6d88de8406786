
import pytest
from hypothesis import given, strategies as st

from finiagg import Dataset, LabeledSample, validate_dataset
from finiagg.errors import DataError, LabelOutOfRange, NegativeFeature, RaggedRow


def test_validate_builds_dataset():
    ds = validate_dataset([(0, 1, 2), (1, 3, 4)])
    assert ds.n_classes == 2
    assert ds.feature_dim == 2
    assert ds.samples == (LabeledSample((1, 2), 0), LabeledSample((3, 4), 1))


def test_validate_rejects_negative_feature():
    with pytest.raises(NegativeFeature) as err:
        validate_dataset([(0, 1, 2), (1, 3, -1)])
    assert err.value.row == 1


def test_validate_rejects_ragged_rows():
    with pytest.raises(RaggedRow) as err:
        validate_dataset([(0, 1, 2), (1, 3, 4, 5)])
    assert err.value.row == 1


def test_validate_rejects_label_out_of_range():
    with pytest.raises(LabelOutOfRange) as err:
        validate_dataset([(0, 1), (3, 2)], n_classes=2)
    assert err.value.row == 1
    with pytest.raises(LabelOutOfRange):
        validate_dataset([(-1, 1)])


def test_explicit_n_classes_keeps_absent_classes_valid():
    ds = validate_dataset([(0, 5)], n_classes=7)
    assert ds.n_classes == 7


def test_empty_dataset_needs_explicit_shape():
    with pytest.raises(DataError):
        validate_dataset([])
    with pytest.raises(DataError) as err:
        validate_dataset([], n_classes=3)
    assert str(err.value) == "cannot infer feature_dim from an empty dataset"
    ds = validate_dataset([], n_classes=3, feature_dim=2)
    assert len(ds) == 0 and ds.feature_dim == 2


def test_dataset_invariants_checked_on_construction():
    with pytest.raises(DataError):
        Dataset((LabeledSample((1,), 5),), n_classes=2, feature_dim=1)
    with pytest.raises(DataError):
        Dataset((LabeledSample((1, 2), 0),), n_classes=2, feature_dim=1)
    # the rules and errors of check_row, which validate_dataset raises too
    good = LabeledSample((1, 2), 0)
    for bad, error in (
        (LabeledSample((1,), 0), RaggedRow),
        (LabeledSample((1, -3), 0), NegativeFeature),
        (LabeledSample((1, 2), 2), LabelOutOfRange),
    ):
        with pytest.raises(error) as err:
            Dataset((good, good, bad), n_classes=2, feature_dim=2)
        assert err.value.row == 2


@pytest.mark.parametrize("cell", [1.7, "3", True, 2.0])
def test_cells_that_are_not_ints_are_refused_not_coerced(cell):
    for row in ((0, cell, 2), (cell, 1, 2)):
        with pytest.raises(DataError, match="must be ints") as err:
            validate_dataset([(0, 1, 2), row])
        assert err.value.row == 1 and str(err.value).startswith("row 1: ")
        with pytest.raises(DataError, match="must be ints"):
            Dataset((LabeledSample(row[1:], row[0]),), n_classes=2, feature_dim=2)

