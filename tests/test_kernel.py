"""The kernel behind ``certify_matrix`` against the margin-table reference."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from finiagg import AggregationConfig, SampleCertificate, SpreadOffsets, VoteMatrix
from finiagg.certifier import _histogram_radius, _vote_losses, certified_fraction_curve, certify_matrix
from finiagg.datamodel import byte_width, pack, unpack
from finiagg.errors import DataError
from finiagg.reference import _scan_radius, margin_table

from conftest import reference_certificates


def _assert_matches_reference(matrix: VoteMatrix) -> None:
    assert certify_matrix(matrix) == reference_certificates(matrix)


def test_kernel_matches_reference_on_every_small_row():
    """Every row over 2-3 classes for kd <= 6, under every offset set, with and without labels."""
    for kd in range(1, 7):
        for d in (d for d in range(1, kd + 1) if kd % d == 0):
            for n_classes in (2, 3):
                rows = tuple(itertools.product(range(n_classes), repeat=kd))
                config = AggregationConfig(k=kd // d, d=d, n_classes=n_classes)
                # each row once per label, so every row is certified both ways
                labelled = tuple(row for row in rows for _ in range(n_classes))
                labels = tuple(range(n_classes)) * len(rows)
                for offsets in itertools.combinations(range(kd), d):
                    spread = SpreadOffsets(offsets, kd)
                    _assert_matches_reference(VoteMatrix(rows, config, spread))
                    _assert_matches_reference(VoteMatrix(labelled, config, spread, labels))


@settings(max_examples=6, deadline=None)
@given(
    k=st.integers(1, 1200),
    d=st.integers(1, 16),
    n_classes=st.integers(2, 10),
    seed=st.integers(0, 2**32 - 1),
    labelled=st.booleans(),
)
@example(k=1200, d=16, n_classes=10, seed=0, labelled=False)  # kd = 19,200, as for MNIST
@example(k=1200, d=16, n_classes=2, seed=1, labelled=True)
def test_kernel_matches_reference_at_paper_scale(k, d, n_classes, seed, labelled):
    rng = random.Random(seed)
    kd = k * d
    offsets = SpreadOffsets(tuple(rng.sample(range(kd), d)), kd)
    rows = []
    for _ in range(2):
        # a favourite class with a random share, so radii range from 0 to large
        favourite, share = rng.randrange(n_classes), rng.random()
        rows.append(
            tuple(favourite if rng.random() < share else rng.randrange(n_classes) for _ in range(kd))
        )
    labels = tuple(rng.randrange(n_classes) for _ in rows) if labelled else None
    config = AggregationConfig(k=k, d=d, n_classes=n_classes)
    _assert_matches_reference(VoteMatrix(tuple(rows), config, offsets, labels))


def test_histogram_walk_matches_the_sorted_scan():
    rng = random.Random(3)
    for _ in range(2000):
        d = rng.randint(1, 4)
        losses = [rng.randint(0, 2 * d) for _ in range(rng.randint(1, 12))]
        rhs = rng.randint(0, 3 * d * len(losses))
        assert _histogram_radius(losses, rhs, 2 * d) == _scan_radius(sorted(losses, reverse=True), rhs)


def test_histogram_radius_is_at_least_the_baseline():
    """Every loss is at most 2d, so ``rhs // 2d`` of them always fit: the bound that prunes challengers."""
    for d in range(1, 4):
        for kd in range(0, 5):
            for hist in itertools.product(range(kd + 1), repeat=2 * d + 1):
                if sum(hist) == kd:
                    lanes = [e for e, n in enumerate(hist) for _ in range(n)]
                    for rhs in range(0, 2 * d * kd + 2 * d + 2):
                        assert _histogram_radius(lanes, rhs, 2 * d) >= min(kd, rhs // (2 * d))


class _CountedLanes:
    """Packed losses read back by ``unpack`` that record each value ``count`` is asked for."""

    def __init__(self, losses, d):
        width = byte_width(2 * d, "losses")
        self.lanes = unpack(pack(losses, width), len(losses))
        self.counted = []

    def __len__(self):
        return len(self.lanes)

    def count(self, value):
        self.counted.append(value)
        return self.lanes.count(value)


def test_histogram_walk_counts_each_value_from_2d_down_to_its_stop():
    """One ``count`` per loss value, from 2d down to the first value that does not fit; none below it."""
    rng = random.Random(5)
    for d in (1, 2, 3, 7, 127, 128, 200, 1000):  # 1-byte lanes up to d = 127, 2-byte ones past it
        for _ in range(150):
            kd = rng.randint(1, 40)
            top = rng.choice([2 * d, rng.randint(0, 2 * d)])  # some rows never reach the cap
            losses = [rng.randint(0, top) for _ in range(kd)]
            ranked = sorted(losses, reverse=True)
            rhs = rng.choice([rng.randint(0, sum(losses) + 1), sum(ranked[: rng.randint(0, kd)])])
            lanes = _CountedLanes(losses, d)
            radius = _histogram_radius(lanes, rhs, 2 * d)
            assert radius == _scan_radius(ranked, rhs)
            assert isinstance(lanes.lanes, bytes) == (d < 128)
            stop = ranked[radius] if radius < kd else 1  # the largest loss that does not fit
            assert lanes.counted == list(range(2 * d, stop - 1, -1))


def test_pruned_certificates_match_reference_with_evenly_matched_challengers():
    """A clear winner over challengers of nearly equal counts: no challenger's bound stops the walk."""
    rng = random.Random(9)
    for k, d, n_classes in ((400, 8, 8), (100, 16, 10), (1200, 16, 10)):
        kd = k * d
        offsets = SpreadOffsets(tuple(rng.sample(range(kd), d)), kd)
        rows = []
        for _ in range(2):
            winner = rng.randrange(n_classes)
            others = [q for q in range(n_classes) if q != winner]
            row = [winner] * (kd // 3) + [rng.choice(others) for _ in range(kd - kd // 3)]
            rng.shuffle(row)
            rows.append(tuple(row))
        labels = tuple(max(range(n_classes), key=row.count) for row in rows)
        matrix = VoteMatrix(tuple(rows), AggregationConfig(k=k, d=d, n_classes=n_classes), offsets, labels)
        _assert_matches_reference(matrix)
        for votes, label in zip(matrix.votes, labels):
            row = _vote_losses(votes, offsets, n_classes)
            row.certificate(label)
            assert sorted(row._losses) == sorted(row.challengers())  # every challenger was read


def test_certificate_stops_at_the_first_challenger_whose_bound_reaches_the_radius():
    """Challengers are computed in ascending ``rhs`` until ``min(kd, rhs // 2d)`` reaches the fine radius so far."""
    rng = random.Random(17)
    for _ in range(300):
        d = rng.randint(1, 4)
        kd, n_classes = d * rng.randint(1, 8), rng.randint(2, 7)
        offsets = SpreadOffsets(tuple(rng.sample(range(kd), d)), kd)
        favourite, share = rng.randrange(n_classes), rng.random()
        votes = tuple(favourite if rng.random() < share else rng.randrange(n_classes) for _ in range(kd))
        row, table = _vote_losses(pack(votes, 1), offsets, n_classes), margin_table(votes, offsets, n_classes)
        cert = row.certificate(row.prediction)
        want, fine = [], kd
        for rhs, q in sorted((row.rhs(q), q) for q in row.challengers()):
            if min(kd, rhs // (2 * d)) >= fine:
                break
            want.append(q)
            fine = min(fine, _scan_radius(table.delta_elements(q), rhs))
        assert list(row._losses) == want  # computed, in this order, and no other
        assert cert.fa_radius == fine


def test_certify_matrix_takes_class_indices_past_a_signed_64_bit_integer():
    n_classes = 2**63 + 1
    config = AggregationConfig(k=2, d=1, n_classes=n_classes)
    matrix = VoteMatrix(((0, n_classes - 1),), config, SpreadOffsets((0,), 2))
    assert certify_matrix(matrix) == [SampleCertificate(predicted=0, correct=None, dpa_radius=0, fa_radius=0)]


def _old_curve(radii, max_attack_size):
    n = len(radii)
    return tuple(
        Fraction(sum(1 for r in radii if r >= m), n) for m in range(max_attack_size + 1)
    )


def test_curve_matches_the_quadratic_formula():
    rng = random.Random(11)
    for _ in range(300):
        max_attack_size = rng.randint(0, 12)
        radii = [rng.randint(-1, 2 * max_attack_size + 2) for _ in range(rng.randint(1, 20))]
        assert certified_fraction_curve(radii, max_attack_size) == _old_curve(radii, max_attack_size)
    with pytest.raises(DataError):
        certified_fraction_curve([0, 1], -1)
