import random

import pytest

from finiagg import SpreadOffsets
from finiagg.certifier import (
    SampleCertificate,
    dpa_baseline_radius,
    fa_radius,
    margin_tables,
)


@pytest.fixture
def rng():
    return random.Random(0xF1A99)


def random_offsets(rng: random.Random, k: int, d: int) -> SpreadOffsets:
    kd = k * d
    return SpreadOffsets(tuple(rng.sample(range(kd), d)), kd)


def random_row(rng: random.Random, kd: int, n_classes: int) -> tuple[int, ...]:
    return tuple(rng.randrange(n_classes) for _ in range(kd))


def reference_certificates(matrix) -> list[SampleCertificate]:
    """The certificates of the margin-table reference rules, to hold ``certify_matrix`` against."""
    labels = matrix.labels if matrix.labels is not None else [None] * matrix.n_test
    return [
        SampleCertificate(
            predicted=table.prediction,
            correct=None if label is None else table.prediction == label,
            dpa_radius=dpa_baseline_radius(table, label),
            fa_radius=fa_radius(table, label),
        )
        for table, label in zip(margin_tables(matrix), labels)
    ]
