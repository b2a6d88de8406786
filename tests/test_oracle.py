import random
from functools import reduce
from itertools import combinations, product
from operator import or_

import pytest
from hypothesis import given, settings, strategies as st

from finiagg import (
    AggregationConfig,
    VoteMatrix,
    branch_and_bound_radius,
    conditional_certified,
    conditional_exact_check,
    dpa_radius,
    exact_poison_radius,
    fa_radius,
    margin_table,
    verify_certificates,
)
from finiagg.errors import InstanceTooLarge
from finiagg.hashing import SpreadOffsets
from finiagg.oracle import RowVerification, VerificationReport, _gains_past, _partition_masks

from conftest import random_offsets, random_row

FIG2_OFFSETS = SpreadOffsets((0, 1), 12)
FIG2_ROW = (1, 0, 1, 2, 1, 3, 1, 0, 1, 2, 1, 3)


def test_unanimous_kd4_survives_two_poisons():
    assert exact_poison_radius((0, 0, 0, 0), SpreadOffsets((0,), 4), 2) == 2


def test_golden_toy_exact_radius():
    assert exact_poison_radius(FIG2_ROW, FIG2_OFFSETS, 4) == 1
    assert exact_poison_radius((1, 1, 1, 0, 2, 3), SpreadOffsets((0,), 6), 4) == 0


def test_single_classifier_ensemble_has_no_radius():
    assert exact_poison_radius((0,), SpreadOffsets((0,), 1), 2) == 0
    assert exact_poison_radius((1,), SpreadOffsets((0,), 1), 3) == 0


def test_wrong_prediction_is_minus_one():
    assert exact_poison_radius((0, 0, 1), SpreadOffsets((0,), 3), 2, label=1) == -1


def test_oracle_size_limit():
    with pytest.raises(InstanceTooLarge):
        exact_poison_radius((0,) * 20, SpreadOffsets((0,), 20), 2)
    assert exact_poison_radius((0,) * 16, SpreadOffsets((0,), 16), 2) == 8


def test_certificate_soundness_randomized(rng):
    for _ in range(150):
        d = rng.choice([1, 2, 3])
        k = rng.randint(1, 4)
        n_classes = rng.randint(2, 4)
        offsets = random_offsets(rng, k, d)
        row = random_row(rng, k * d, n_classes)
        table = margin_table(row, offsets, n_classes)
        assert fa_radius(table) <= exact_poison_radius(row, offsets, n_classes)


def test_certificate_is_tight_on_exhaustive_kd6_space():
    # Not just sound: over the full kd=6, d=2 vote space the certified radius
    # equals the exhaustive adversary's optimum for every offset choice.
    for offsets in (SpreadOffsets((0, 1), 6), SpreadOffsets((0, 2), 6), SpreadOffsets((0, 3), 6)):
        for row in product(range(3), repeat=6):
            table = margin_table(row, offsets, 3)
            assert fa_radius(table) == exact_poison_radius(row, offsets, 3)


def test_conditional_oracle_trivial_cases():
    assert conditional_exact_check(FIG2_ROW, FIG2_OFFSETS, (), 5, 4)
    assert conditional_exact_check(FIG2_ROW, FIG2_OFFSETS, (0, 1), -2, 4)
    exact = exact_poison_radius(FIG2_ROW, FIG2_OFFSETS, 4)
    full = tuple(range(12))
    assert conditional_exact_check(FIG2_ROW, FIG2_OFFSETS, full, exact, 4)
    assert not conditional_exact_check(FIG2_ROW, FIG2_OFFSETS, full, exact + 1, 4)


def test_conditional_certificate_implies_conditional_oracle(rng):
    for _ in range(200):
        d = rng.choice([1, 2])
        k = rng.randint(1, 4)
        n_classes = rng.randint(2, 4)
        offsets = random_offsets(rng, k, d)
        kd = k * d
        row = random_row(rng, kd, n_classes)
        table = margin_table(row, offsets, n_classes)
        scope = tuple(sorted(rng.sample(range(kd), rng.randint(0, kd))))
        budget = rng.randint(0, kd)
        if conditional_certified(table, scope, budget):
            assert conditional_exact_check(row, offsets, scope, budget, n_classes)


def test_oracle_scope_monotonicity(rng):
    for _ in range(100):
        offsets = random_offsets(rng, 3, 2)
        row = random_row(rng, 6, 3)
        small = tuple(rng.sample(range(6), 2))
        large = tuple(set(small) | set(rng.sample(range(6), 2)))
        for m in (1, 2):
            if conditional_exact_check(row, offsets, large, m, 3):
                assert conditional_exact_check(row, offsets, small, m, 3)


def test_verify_certificates_randomized_batch(rng):
    rows = [random_row(rng, 6, 3) for _ in range(40)]
    labels = [rng.randrange(3) for _ in range(40)]
    offsets = SpreadOffsets((0, 1), 6)
    report = verify_certificates(VoteMatrix(rows, AggregationConfig(3, 2, 3), offsets, tuple(labels)))
    assert report.ok
    assert report.violations == ()
    assert all(r.gap >= 0 for r in report.rows)
    assert sum(report.gap_histogram().values()) == 40


def test_verify_certificates_d1_equivalence(rng):
    rows = [random_row(rng, 5, 3) for _ in range(30)]
    offsets = SpreadOffsets((2,), 5)  # any single offset, not just {0}
    report = verify_certificates(VoteMatrix(rows, AggregationConfig(5, 1, 3), offsets))
    assert report.ok
    for r in report.rows:
        assert r.dpa_equivalent is True
        assert r.dpa_radius == dpa_radius(rows[r.index], 3)


def test_verification_report_flags_unsound_rows():
    # mechanism check with synthetic rows; the real pipeline never produces one
    good = RowVerification(0, 1, None, 2, 1, True, None)
    bad = RowVerification(1, 3, None, 2, -1, False, None)
    report = VerificationReport((good, bad))
    assert not report.ok
    assert report.violations == (bad,)
    assert report.gap_histogram() == {-1: 1, 1: 1}


def test_verification_reads_rows_of_one_and_two_bytes_a_vote_alike(rng):
    """The same votes under 3 classes (1 byte a vote) and under 300 (2 bytes) give the same report."""
    rows = [random_row(rng, 6, 3) for _ in range(20)]
    offsets = SpreadOffsets((0, 2), 6)
    narrow, wide = (VoteMatrix(rows, AggregationConfig(3, 2, n_classes), offsets) for n_classes in (3, 300))
    assert {len(votes) for votes in narrow.votes} == {6} and {len(votes) for votes in wide.votes} == {12}
    assert verify_certificates(narrow) == verify_certificates(wide)


# ---------------------------------------------------------------------------
# branch_and_bound_radius, the search verify_certificates runs, against the
# exhaustive reference exact_poison_radius


def test_branch_and_bound_matches_reference_on_every_small_row():
    """Every row over 2-3 classes for kd <= 6, under every offset set, with and without labels."""
    for kd in range(1, 7):
        for d in (d for d in range(1, kd + 1) if kd % d == 0):
            for offsets in combinations(range(kd), d):
                spread_offsets = SpreadOffsets(offsets, kd)
                for n_classes in (2, 3):
                    for row in product(range(n_classes), repeat=kd):
                        for label in (None, *range(n_classes)):
                            assert branch_and_bound_radius(
                                row, spread_offsets, n_classes, label
                            ) == exact_poison_radius(row, spread_offsets, n_classes, label), (
                                row, offsets, label
                            )


@settings(max_examples=60, deadline=None)
@given(
    kd_d=st.sampled_from([(kd, d) for kd in range(1, 17) for d in range(1, kd + 1) if kd % d == 0]),
    n_classes=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
    labelled=st.booleans(),
)
def test_branch_and_bound_matches_reference_on_random_rows(kd_d, n_classes, seed, labelled):
    kd, d = kd_d
    rng = random.Random(seed)
    offsets = SpreadOffsets(tuple(rng.sample(range(kd), d)), kd)
    # a favourite class with a random share, so radii range from 0 to kd / 2
    favourite, share = rng.randrange(n_classes), rng.random()
    row = tuple(favourite if rng.random() < share else rng.randrange(n_classes) for _ in range(kd))
    label = rng.randrange(n_classes) if labelled else None
    assert branch_and_bound_radius(row, offsets, n_classes, label) == exact_poison_radius(
        row, offsets, n_classes, label
    )


# kd=24 rows from the benchmark's audit generator (seed 0): k=12, d=2, offsets {11, 21}
AUDIT_OFFSETS = SpreadOffsets((11, 21), 24)
AUDIT_ROWS = [
    ("110111111111121111111110", 1, 4),
    ("120111111111121101111211", 1, 4),
    ("000000000000002000010000", 0, 5),
    ("122222222222202222222222", 2, 5),
    ("000000000000000000000000", 0, 6),
]


@pytest.mark.parametrize("row, label, radius", AUDIT_ROWS)
def test_branch_and_bound_matches_reference_on_audit_rows(row, label, radius):
    row = tuple(map(int, row))
    for n_classes, lab in ((3, label), (3, None), (5, label)):
        assert exact_poison_radius(row, AUDIT_OFFSETS, n_classes, lab, limit=24) == radius
        assert branch_and_bound_radius(row, AUDIT_OFFSETS, n_classes, lab, limit=24) == radius


def test_branch_and_bound_keeps_the_limit_and_the_absent_class():
    with pytest.raises(InstanceTooLarge):
        branch_and_bound_radius((0,) * 20, SpreadOffsets((0,), 20), 2)
    assert branch_and_bound_radius((0,) * 20, SpreadOffsets((0,), 20), 2, limit=20) == 10
    # only classes without votes challenge; on (1, 1, 1, 1) two poisons reach a 2-2 tie, which class 0 wins
    for row, n_classes, radius in (((1, 1, 1, 1), 2, 1), ((0, 0, 0, 0), 2, 2), ((2,) * 4, 5, 1)):
        offsets = SpreadOffsets((0,), 4)
        assert exact_poison_radius(row, offsets, n_classes) == radius
        assert branch_and_bound_radius(row, offsets, n_classes) == radius


def test_pruned_search_matches_brute_force_at_every_threshold(rng):
    # On rows whose certificate is tight the first window already decides every
    # size, so the search below it is checked here, at thresholds of every height.
    for _ in range(300):
        kd = rng.randint(1, 9)
        d = rng.choice([d for d in range(1, kd + 1) if kd % d == 0])
        part_masks = _partition_masks(random_offsets(rng, kd // d, d))
        p_mask, w_mask = (rng.getrandbits(kd) for _ in range(2))
        w_mask &= ~p_mask

        def gain(a):
            return a.bit_count() + (a & p_mask).bit_count() - (a & w_mask).bit_count()

        masks = sorted(part_masks, key=gain, reverse=True)
        prefix = [0]
        for mask in masks:
            prefix.append(prefix[-1] + gain(mask))
        for m in range(kd + 1):
            best = max(gain(reduce(or_, subset, 0)) for subset in combinations(masks, m))
            for threshold in range(2 * kd + 1):
                assert _gains_past(m, threshold, gain, masks, prefix) == (best > threshold)


# Offsets whose differences cover every nonzero residue mod kd make every two
# partitions share a classifier. The certificate adds the losses of the touched
# partitions as if they were disjoint, so there it can sit below the exact radius.
COVERING_OFFSETS = SpreadOffsets((0, 1, 2, 3, 7, 15), 24)


def test_certificate_is_loose_when_every_two_partitions_share_a_classifier():
    kd = COVERING_OFFSETS.kd
    assert {(a - b) % kd for a in COVERING_OFFSETS.offsets for b in COVERING_OFFSETS.offsets} == set(range(kd))
    # class 1 holds all 24 votes and loses a tie to class 0: two poisons would have to
    # turn 12 votes, but two partitions reach at most 2d - 1 = 11 classifiers
    row = (1,) * kd
    assert fa_radius(margin_table(row, COVERING_OFFSETS, 2)) == 1
    assert exact_poison_radius(row, COVERING_OFFSETS, 2, limit=kd) == 2
    assert branch_and_bound_radius(row, COVERING_OFFSETS, 2, limit=kd) == 2


@pytest.mark.parametrize(
    "offsets, n_classes, row",
    [
        ((0, 2, 3, 18), 3, "000001021000100000020020"),
        ((0, 10, 11), 4, "120111231120110031111113211210"),
        ((0, 1, 11, 19), 4, "32133233233332233123333331333313"),
    ],
)
def test_certificate_is_loose_on_random_rows_at_kd_24_to_32(offsets, n_classes, row):
    # majority-biased rows, found by a search with the branch-and-bound oracle
    row = tuple(map(int, row))
    spread_offsets = SpreadOffsets(offsets, len(row))
    assert fa_radius(margin_table(row, spread_offsets, n_classes)) == 1
    assert exact_poison_radius(row, spread_offsets, n_classes, limit=len(row)) == 2
    assert branch_and_bound_radius(row, spread_offsets, n_classes, limit=len(row)) == 2


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_classes=st.integers(2, 4), others=st.integers(0, 4))
def test_branch_and_bound_matches_reference_where_the_certificate_is_loose(seed, n_classes, others):
    # near-unanimous rows under covering offsets, where the search below the
    # first window decides the radius
    rng = random.Random(seed)
    kd = COVERING_OFFSETS.kd
    row = [rng.randrange(n_classes)] * kd
    for i in rng.sample(range(kd), others):
        row[i] = rng.randrange(n_classes)
    row = tuple(row)
    assert branch_and_bound_radius(row, COVERING_OFFSETS, n_classes, limit=kd) == exact_poison_radius(
        row, COVERING_OFFSETS, n_classes, limit=kd
    )
