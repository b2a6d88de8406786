"""The public records' value semantics: repr text, same-type equality and hashing, immutability, validation."""

import copy
import pickle
from fractions import Fraction

import numpy as np
import pytest

from finiagg import (
    AggregationConfig,
    CertificateReport,
    Dataset,
    EnsembleStats,
    IAVoteDistribution,
    LabeledSample,
    LearnerSpec,
    MarginTable,
    RadiusStats,
    SampleCertificate,
    SpreadOffsets,
    VerificationReport,
    VoteMatrix,
)
from finiagg.arrays import Statistics
from finiagg.errors import (
    DataError,
    DimensionMismatch,
    LabelOutOfRange,
    LimitError,
    NegativeFeature,
    RaggedRow,
    UnknownLearnerKind,
)
from finiagg.oracle import RowVerification
from finiagg.reference import MajorityLabelModel, NearestCentroidModel

CERT = SampleCertificate(predicted=1, correct=True, dpa_radius=0, fa_radius=2)
STATS = RadiusStats(Fraction(1, 2), Fraction(3))
ENSEMBLE = EnsembleStats(Fraction(1), Fraction(5, 6))
ROW = RowVerification(index=0, fa_radius=1, dpa_radius=None, exact_radius=2, gap=1, sound=True,
                      dpa_equivalent=None)

# (make, the repr of make(), a field to assign)
RECORDS = [
    (lambda: LabeledSample((1, 2), 0), "LabeledSample(features=(1, 2), label=0)", "label"),
    (lambda: Dataset((LabeledSample((1, 2), 0),), 2, 2),
     "Dataset(samples=(LabeledSample(features=(1, 2), label=0),), n_classes=2, feature_dim=2)", "samples"),
    (lambda: AggregationConfig(k=2, d=3, n_classes=4), "AggregationConfig(k=2, d=3, n_classes=4)", "k"),
    (lambda: SpreadOffsets((4, 1), 6), "SpreadOffsets(offsets=(1, 4), kd=6)", "offsets"),
    (lambda: VoteMatrix(((1, 0),), AggregationConfig(2, 1, 2), SpreadOffsets((1,), 2)),
     "VoteMatrix(votes=(b'\\x01\\x00',), config=AggregationConfig(k=2, d=1, n_classes=2), "
     "offsets=SpreadOffsets(offsets=(1,), kd=2), labels=None)", "labels"),
    (lambda: ENSEMBLE, "EnsembleStats(clean_accuracy=Fraction(1, 1), base_accuracy=Fraction(5, 6))",
     "base_accuracy"),
    (lambda: LearnerSpec("majority-label"), "LearnerSpec(kind='majority-label')", "kind"),
    (lambda: CERT, "SampleCertificate(predicted=1, correct=True, dpa_radius=0, fa_radius=2)", "fa_radius"),
    (lambda: STATS, "RadiusStats(pr_radius_up=Fraction(1, 2), mean_delta_r=Fraction(3, 1))", "pr_radius_up"),
    (lambda: CertificateReport((CERT,), (Fraction(1),), STATS, None),
     "CertificateReport(certificates=(SampleCertificate(predicted=1, correct=True, dpa_radius=0, "
     "fa_radius=2),), curve=(Fraction(1, 1),), stats=RadiusStats(pr_radius_up=Fraction(1, 2), "
     "mean_delta_r=Fraction(3, 1)), ensemble=None)", "ensemble"),
    (lambda: ROW, "RowVerification(index=0, fa_radius=1, dpa_radius=None, exact_radius=2, gap=1, "
     "sound=True, dpa_equivalent=None)", "sound"),
    (lambda: VerificationReport((ROW,)), "VerificationReport(rows=(RowVerification(index=0, fa_radius=1, "
     "dpa_radius=None, exact_radius=2, gap=1, sound=True, dpa_equivalent=None),))", "rows"),
    (lambda: IAVoteDistribution((Fraction(1), Fraction(0)), ((Fraction(1), Fraction(0)),), 2, 1, 0),
     "IAVoteDistribution(per_class=(Fraction(1, 1), Fraction(0, 1)), conditional=((Fraction(1, 1), "
     "Fraction(0, 1)),), k=2, n_samples=1, prediction=0)", "prediction"),
    (lambda: MarginTable(0, 2, 1, 2, (2, 0), ((1, 1), (0, 0))),
     "MarginTable(prediction=0, kd=2, d=1, n_classes=2, global_counts=(2, 0), "
     "partition_counts=((1, 1), (0, 0)))", "kd"),
    (lambda: MajorityLabelModel(2, (3, 1)), "MajorityLabelModel(n_classes=2, label_counts=(3, 1))", "n_classes"),
    (lambda: NearestCentroidModel(2, 1, (1, 0), ((5,), (0,))),
     "NearestCentroidModel(n_classes=2, feature_dim=1, class_counts=(1, 0), class_sums=((5,), (0,)))",
     "class_sums"),
]


@pytest.mark.parametrize("make, text, field", RECORDS, ids=[r[1].split("(")[0] for r in RECORDS])
def test_records_print_compare_and_hash_by_their_fields(make, text, field):
    record, twin = make(), make()
    assert repr(record) == text
    assert record == twin and not record != twin
    values = tuple(getattr(record, name) for name in _fields(text))
    assert hash(record) == hash(twin) == hash(values)  # as the tuple of its fields hashes
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) == getattr(twin, field)
    assert pickle.loads(pickle.dumps(record)) == record and copy.deepcopy(record) == record


def _fields(text: str) -> list[str]:
    """The top-level field names in a record's repr text, in order."""
    names, depth, start = [], 0, text.index("(") + 1
    for i, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == "=" and depth == 1:
            names.append(text[start:i].strip(", "))
        elif ch == "," and depth == 1:
            start = i + 1
    return names


def test_records_with_other_values_differ():
    assert SampleCertificate(1, True, 0, 2) != SampleCertificate(1, True, 0, 3)
    assert AggregationConfig(2, 3, 4) != AggregationConfig(2, 3, 5)
    assert SpreadOffsets((1, 4), 6) == SpreadOffsets((4, 1), 6) != SpreadOffsets((1, 4), 7)
    assert Dataset((), 2, 2) != Dataset((), 3, 2)
    assert LearnerSpec("majority-label") != LearnerSpec("nearest-centroid")


def test_derived_fields():
    assert AggregationConfig(2, 3, 4).kd == 6
    assert SpreadOffsets((4, 1), 6).d == 2
    matrix = VoteMatrix(((1, 0), (0, 0)), AggregationConfig(2, 1, 2), SpreadOffsets((1,), 2), (1, 0))
    assert matrix.n_test == 2 and matrix.labels == (1, 0)
    assert len(Dataset((LabeledSample((1,), 0),) * 3, 1, 1)) == 3


def test_statistics_hold_arrays():
    counts = np.zeros((2, 1), np.int64)
    stats = Statistics(counts, None, 0)
    assert repr(stats) == "Statistics(counts=array([[0],\n       [0]]), sums=None, max_cell=0)"
    assert stats == Statistics(counts, None, 0)  # the same array object
    with pytest.raises(TypeError):
        hash(stats)  # an array is not hashable
    with pytest.raises(AttributeError):
        stats.sums = counts


@pytest.mark.parametrize("args, message", [
    ((0, 1, 2), "k must be positive, got 0"),
    ((1, -1, 2), "d must be positive, got -1"),
    ((1, 1, 0), "n_classes must be positive, got 0"),
])
def test_aggregation_config_validation(args, message):
    with pytest.raises(DataError) as err:
        AggregationConfig(*args)
    assert str(err.value) == message


@pytest.mark.parametrize("offsets, kd, message", [
    ((3, 1, 3), 5, "offsets must be distinct, got (3, 1, 3)"),
    ([3, 5], 5, "offsets must lie in [0, 5), got [3, 5]"),
    ((-1, 2), 5, "offsets must lie in [0, 5), got (-1, 2)"),
])
def test_spread_offsets_validation(offsets, kd, message):
    with pytest.raises(DataError) as err:
        SpreadOffsets(offsets, kd)
    assert str(err.value) == message


def test_spread_offsets_are_sorted():
    offsets = SpreadOffsets([5, 0, 3], 6)
    assert offsets.offsets == (0, 3, 5) and type(offsets.offsets) is tuple


CONFIG, OFFSETS = AggregationConfig(2, 1, 3), SpreadOffsets((1,), 2)


@pytest.mark.parametrize("args, error, message", [
    ((((0, 1),), CONFIG, SpreadOffsets((1,), 3)), DataError, "offsets kd=3 does not match config kd=2"),
    ((((0, 1),), AggregationConfig(1, 2, 3), OFFSETS), DataError, "1 offsets for spread degree d=2"),
    ((((0, 1), (0,)), CONFIG, OFFSETS), DimensionMismatch, "vote row 1 has 1 entries, expected 2"),
    ((((0, 3),), CONFIG, OFFSETS), DataError, "vote row 0: class 3 outside [0, 3)"),
    ((((2, 0), (-1, 5)), CONFIG, OFFSETS), DataError, "vote row 1: class -1 outside [0, 3)"),
    ((((0, 1),), CONFIG, OFFSETS, (0, 1)), DimensionMismatch, "2 labels for 1 vote rows"),
    ((((0, 1), (1, 1)), CONFIG, OFFSETS, (2, 3)), DataError, "label 1: class 3 outside [0, 3)"),
    ((((0, 1),), CONFIG, OFFSETS, (-1,)), DataError, "label 0: class -1 outside [0, 3)"),
    (((b"\0",), CONFIG, OFFSETS), DimensionMismatch, "vote row 0 has 1 bytes, expected 2"),
    (((b"\0\0\0",), AggregationConfig(2, 1, 300), OFFSETS), DimensionMismatch, "vote row 0 has 3 bytes, expected 4"),
    (((b"\0\0" + (300).to_bytes(2, "little"),), AggregationConfig(2, 1, 300), OFFSETS), DataError,
     "vote row 0: class 300 outside [0, 300)"),
    # a vote that is not an int, at 1 and 2 bytes a vote: the first offending vote in row order is named
    ((((0, 1.5),), CONFIG, OFFSETS), DataError, "vote row 0: 1.5 is not an integer"),
    ((((0, 1), ("1", 0)), CONFIG, OFFSETS), DataError, "vote row 1: '1' is not an integer"),
    ((((None, 7),), CONFIG, OFFSETS), DataError, "vote row 0: None is not an integer"),
    ((((1.5, 0),), AggregationConfig(2, 1, 300), OFFSETS), DataError, "vote row 0: 1.5 is not an integer"),
    ((((0, "1"),), AggregationConfig(2, 1, 300), OFFSETS), DataError, "vote row 0: '1' is not an integer"),
    ((((400, None),), AggregationConfig(2, 1, 300), OFFSETS), DataError, "vote row 0: class 400 outside [0, 300)"),
])
def test_vote_matrix_validation(args, error, message):
    with pytest.raises(error) as err:
        VoteMatrix(*args)
    assert type(err.value) is error and str(err.value) == message


def test_vote_matrix_packs_array_rows_by_value():
    """NumPy int64 rows pack their values at the matrix's width, never their 8-byte buffer."""
    for n_classes, packed in ((3, (b"\1\0", b"\2\2")), (300, (b"\1\0\0\0", b"\2\0\2\0"))):
        config = AggregationConfig(2, 1, n_classes)
        matrix = VoteMatrix(np.array([[1, 0], [2, 2]], np.int64), config, OFFSETS)
        assert matrix.votes == packed
        assert matrix == VoteMatrix(((1, 0), (2, 2)), config, OFFSETS) == VoteMatrix(packed, config, OFFSETS)


def test_vote_matrix_refuses_classes_past_8_bytes_before_reading_a_row():
    def unread():
        raise AssertionError("a vote row was read")
        yield

    with pytest.raises(LimitError) as err:
        VoteMatrix(unread(), AggregationConfig(2, 1, 2**64 + 1), OFFSETS)
    assert str(err.value) == f"class indices up to {2**64} do not fit in a 64-bit integer"
    top = VoteMatrix(((0, 2**64 - 1),), AggregationConfig(2, 1, 2**64), OFFSETS)  # the most 8 bytes hold
    assert top.votes == (bytes(8) + b"\xff" * 8,)


def test_vote_matrix_takes_keywords():
    matrix = VoteMatrix(votes=((0, 1),), config=CONFIG, offsets=OFFSETS, labels=(1,))
    assert matrix == VoteMatrix(((0, 1),), CONFIG, OFFSETS, (1,))


@pytest.mark.parametrize("features, label, text", [
    ((1, 2.0), 0, "LabeledSample(features=(1, 2.0), label=0)"),
    ((1, 2), True, "LabeledSample(features=(1, 2), label=True)"),
    (("3",), 0, "LabeledSample(features=('3',), label=0)"),
])
def test_labeled_sample_validation_names_the_sample(features, label, text):
    with pytest.raises(DataError) as err:
        LabeledSample(features, label)
    assert str(err.value) == f"sample cells must be ints, got {text}"


def test_learner_spec_validation():
    with pytest.raises(UnknownLearnerKind) as err:
        LearnerSpec("forest")
    assert str(err.value) == "unknown learner kind 'forest'"


@pytest.mark.parametrize("samples, n_classes, feature_dim, error, message", [
    ((), 0, 1, DataError, "n_classes must be positive, got 0"),
    ((), 1, 0, DataError, "feature_dim must be positive, got 0"),
    ((LabeledSample((1,), 0), LabeledSample((1, 2), 0)), 2, 1, RaggedRow,
     "row 1: expected 1 feature columns, got 2"),
    ((LabeledSample((-4,), 0),), 2, 1, NegativeFeature, "row 0: feature f0 is negative (-4)"),
    ((LabeledSample((1,), 2),), 2, 1, LabelOutOfRange, "row 0: label 2 outside [0, 2)"),
])
def test_dataset_validation(samples, n_classes, feature_dim, error, message):
    with pytest.raises(error) as err:
        Dataset(samples, n_classes, feature_dim)
    assert str(err.value) == message


@pytest.mark.parametrize("args, message", [
    ((0, 2, 1, 2, (1, 0), ((1, 1), (0, 0))), "global vote counts do not sum to kd"),
    ((0, 2, 1, 2, (2, 0), ((1, 0), (0, 0))), "partition 1: per-class counts do not sum to d"),
    ((0, 2, 1, 2, (2, 0), ((1, 0), (0, 1))), "class 0: partition counts do not sum to d * N_c"),
])
def test_margin_table_validation(args, message):
    with pytest.raises(DataError) as err:
        MarginTable(*args)
    assert str(err.value) == message
