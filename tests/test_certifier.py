from fractions import Fraction
from itertools import combinations

import pytest

from finiagg import (
    AggregationConfig,
    VoteMatrix,
    build_report,
    certified_accuracy,
    certified_fraction_curve,
    certify_matrix,
    conditional_certified,
    dpa_baseline_radius,
    dpa_radius,
    fa_radius,
    margin_table,
    radius_stats,
)
from finiagg.certifier import ENUMERATION_CAP, _certified_accuracy, _shared_set_size, _vote_losses
from finiagg.errors import EmptyTestSet, EnumerationTooLarge, LengthMismatch
from finiagg.hashing import SpreadOffsets

from conftest import random_offsets, random_row

FIG2_OFFSETS = SpreadOffsets((0, 1), 12)
FIG2_ROW = (1, 0, 1, 2, 1, 3, 1, 0, 1, 2, 1, 3)
FIG2_DPA_ROW = (1, 1, 1, 0, 2, 3)

# Two-sample shared-poison construction: each sample is conditionally
# certified at budget 1 for every single-partition scope except one, and the
# two exceptional partitions differ, so no single poison location breaks both.
SHARED_OFFSETS = FIG2_OFFSETS
SHARED_ROW_A = (0, 0, 1, 0, 2, 0, 1, 0, 2, 0, 1, 2)
SHARED_ROW_B = tuple(SHARED_ROW_A[(i - 1) % 12] for i in range(12))


def _rational_fa_radius(table, label=None):
    """Independent evaluator of the certificate over exact rationals.

    Works directly with average vote fractions instead of integer counts:
    margin loss of the top-m elements (1/k) * sum(1 + avg_c|j - avg_c'|j)
    must stay within avg_c - avg_c' - 1[c'<c]/kd.
    """
    c = table.prediction
    if label is not None and c != label:
        return -1
    kd, d = table.kd, table.d
    k = kd // d
    radius = kd
    for cp in range(table.n_classes):
        if cp == c:
            continue
        gap = (
            Fraction(table.global_counts[c], kd)
            - Fraction(table.global_counts[cp], kd)
            - (Fraction(1, kd) if cp < c else 0)
        )
        elements = sorted(
            (
                1
                + Fraction(table.partition_counts[c][j], d)
                - Fraction(table.partition_counts[cp][j], d)
                for j in range(kd)
            ),
            reverse=True,
        )
        total = Fraction(0)
        m = 0
        for e in elements:
            total += e
            if Fraction(total, k) > gap:
                break
            m += 1
        radius = min(radius, m)
    return radius


# ---------------------------------------------------------------------------
# margin tables


def test_margin_table_hand_enumerated():
    offsets = SpreadOffsets((0, 1), 4)
    table = margin_table((0, 0, 0, 1), offsets, 2)
    assert table.prediction == 0
    assert table.global_counts == (3, 1)
    assert table.partition_counts[0] == (2, 2, 1, 1)
    assert table.partition_counts[1] == (0, 0, 1, 1)


def test_margin_table_unanimous_row():
    offsets = SpreadOffsets((1, 3), 8)
    table = margin_table((2,) * 8, offsets, 3)
    assert table.partition_counts[2] == (2,) * 8
    assert table.partition_counts[0] == (0,) * 8


def test_margin_table_counting_identities(rng):
    for _ in range(300):
        d = rng.randint(1, 3)
        k = rng.randint(1, 4)
        n_classes = rng.randint(2, 5)
        offsets = random_offsets(rng, k, d)
        table = margin_table(random_row(rng, k * d, n_classes), offsets, n_classes)
        kd = k * d
        assert sum(table.global_counts) == kd
        for j in range(kd):
            assert sum(table.partition_counts[c][j] for c in range(n_classes)) == d
        for c in range(n_classes):
            assert sum(table.partition_counts[c]) == d * table.global_counts[c]


def test_rhs_nonnegative_for_the_winner(rng):
    for _ in range(300):
        n_classes = rng.randint(2, 5)
        offsets = random_offsets(rng, rng.randint(1, 4), rng.randint(1, 3))
        table = margin_table(
            random_row(rng, offsets.kd, n_classes), offsets, n_classes
        )
        for cp in range(n_classes):
            if cp != table.prediction:
                assert table.rhs(cp) >= 0


# ---------------------------------------------------------------------------
# plain disjoint-partition radius


def test_dpa_radius_examples():
    assert dpa_radius((0, 0, 0, 1, 2), 3) == 1
    assert dpa_radius(FIG2_DPA_ROW, 4) == 0
    assert dpa_radius((0,) * 6, 2) == 3


def test_dpa_radius_wrong_prediction():
    assert dpa_radius((0, 0, 1), 2, label=1) == -1
    assert dpa_radius((0, 0, 1), 2, label=0) == 0
    assert dpa_radius((0, 0, 0, 1, 2), 3, label=0) == 1


# ---------------------------------------------------------------------------
# fine-grained radius


def test_fa_radius_golden_toy():
    table = margin_table(FIG2_ROW, FIG2_OFFSETS, 4)
    assert table.prediction == 1
    assert table.delta_elements(0) == [3] * 8 + [2] * 4
    assert table.rhs(0) == 3
    assert table.rhs(2) == 4 and table.rhs(3) == 4
    assert fa_radius(table) == 1
    # the matched 6-classifier disjoint ensemble certifies nothing
    assert dpa_radius(FIG2_DPA_ROW, 4) == 0


def test_fa_radius_unanimous_kd4():
    table = margin_table((0, 0, 0, 0), SpreadOffsets((0,), 4), 2)
    assert table.rhs(1) == 4
    assert table.delta_elements(1) == [2, 2, 2, 2]
    assert fa_radius(table) == 2


def test_fa_radius_d1_equals_dpa(rng):
    for _ in range(300):
        k = rng.randint(3, 8)
        n_classes = rng.randint(2, 5)
        row = random_row(rng, k, n_classes)
        table = margin_table(row, SpreadOffsets((0,), k), n_classes)
        assert fa_radius(table) == dpa_radius(row, n_classes)
        label = rng.randrange(n_classes)
        assert fa_radius(table, label) == dpa_radius(row, n_classes, label)


def test_fa_radius_matches_rational_arithmetic(rng):
    for _ in range(300):
        d = rng.randint(1, 3)
        k = rng.randint(1, 4)
        n_classes = rng.randint(2, 5)
        offsets = random_offsets(rng, k, d)
        table = margin_table(random_row(rng, k * d, n_classes), offsets, n_classes)
        label = rng.choice([None, rng.randrange(n_classes)])
        assert fa_radius(table, label) == _rational_fa_radius(table, label)


def test_fa_radius_wrong_prediction():
    table = margin_table(FIG2_ROW, FIG2_OFFSETS, 4)
    assert fa_radius(table, label=0) == -1
    assert fa_radius(table, label=1) == 1


def test_fa_dominates_baseline_and_elements_bounded(rng):
    for _ in range(300):
        d = rng.randint(1, 3)
        k = rng.randint(1, 4)
        n_classes = rng.randint(2, 4)
        offsets = random_offsets(rng, k, d)
        table = margin_table(random_row(rng, k * d, n_classes), offsets, n_classes)
        for cp in range(n_classes):
            if cp == table.prediction:
                continue
            assert all(0 <= e <= 2 * d for e in table.delta_elements(cp))
        assert fa_radius(table) >= dpa_baseline_radius(table)


def test_baseline_radius_on_golden_toy():
    table = margin_table(FIG2_ROW, FIG2_OFFSETS, 4)
    # floor(3 / (2*2)) = 0 against the strongest challenger
    assert dpa_baseline_radius(table) == 0


# ---------------------------------------------------------------------------
# conditional certificates


def test_conditional_empty_scope_certifies():
    table = margin_table(FIG2_ROW, FIG2_OFFSETS, 4)
    assert conditional_certified(table, (), 100, label=1)
    assert not conditional_certified(table, (), 100, label=0)


def test_conditional_nonpositive_budget_certifies_correct_predictions():
    table = margin_table(FIG2_ROW, FIG2_OFFSETS, 4)
    assert conditional_certified(table, tuple(range(12)), 0, label=1)
    assert conditional_certified(table, tuple(range(12)), -3, label=1)


def test_conditional_full_scope_matches_radius(rng):
    for _ in range(100):
        d = rng.randint(1, 3)
        k = rng.randint(1, 4)
        n_classes = rng.randint(2, 4)
        offsets = random_offsets(rng, k, d)
        kd = k * d
        table = margin_table(random_row(rng, kd, n_classes), offsets, n_classes)
        radius = fa_radius(table)
        full = tuple(range(kd))
        assert conditional_certified(table, full, radius)
        if radius < kd:
            assert not conditional_certified(table, full, radius + 1)


def test_conditional_on_golden_toy_single_partition():
    table = margin_table(FIG2_ROW, FIG2_OFFSETS, 4)
    j_star = max(range(12), key=lambda j: table.delta_elements(0, (j,))[0])
    assert conditional_certified(table, (j_star,), 1, label=1)
    # scope of one partition caps the adversary even with a larger budget
    assert conditional_certified(table, (j_star,), 2, label=1)


def test_conditional_is_monotone_in_scope(rng):
    for _ in range(200):
        d = rng.randint(1, 3)
        k = rng.randint(1, 3)
        n_classes = rng.randint(2, 4)
        offsets = random_offsets(rng, k, d)
        kd = k * d
        table = margin_table(random_row(rng, kd, n_classes), offsets, n_classes)
        small = tuple(sorted(rng.sample(range(kd), rng.randint(0, kd))))
        extra = tuple(sorted(set(small) | {rng.randrange(kd)}))
        m = rng.randint(0, kd)
        if conditional_certified(table, extra, m):
            assert conditional_certified(table, small, m)


# ---------------------------------------------------------------------------
# curves, accuracy, statistics


def test_curve_counts_thresholds():
    curve = certified_fraction_curve([-1, 0, 2, 5], 3)
    assert curve[0] == Fraction(3, 4)
    assert curve[1] == Fraction(1, 2)
    assert curve == tuple(sorted(curve, reverse=True))


def test_base_accuracy_counts_labels_without_votes():
    # classes 1 and 3 have votes; 0 stands for the classes without votes, and 2 and 4 have none either
    row = (1, 1, 3, 1)
    labels = (0, 2, 1, 3, 4)
    matrix = VoteMatrix((row,) * len(labels), AggregationConfig(2, 2, 5), SpreadOffsets((0, 1), 4), labels)
    label_votes = []
    certify_matrix(matrix, label_votes)
    assert label_votes == [row.count(label) for label in labels] == [0, 0, 3, 1, 0]
    stats = build_report(matrix, 0).ensemble
    assert (stats.clean_accuracy, stats.base_accuracy) == (Fraction(1, 5), Fraction(4, 20))
    unlabelled = []
    certify_matrix(VoteMatrix(matrix.votes, matrix.config, matrix.offsets), unlabelled)
    assert unlabelled == []


def test_curve_rejects_empty():
    with pytest.raises(EmptyTestSet):
        certified_fraction_curve([], 2)


def test_certified_accuracy_budget_zero_is_clean_accuracy(rng):
    offsets = SpreadOffsets((0, 1), 6)
    tables, labels = [], []
    for _ in range(8):
        row = random_row(rng, 6, 3)
        tables.append(margin_table(row, offsets, 3))
        labels.append(rng.randrange(3))
    acc, q = certified_accuracy(tables, labels, 0)
    clean = Fraction(
        sum(1 for t, l in zip(tables, labels) if t.prediction == l), len(tables)
    )
    assert acc == clean
    assert q == ()


def test_certified_accuracy_two_sample_construction():
    tables = [
        margin_table(SHARED_ROW_A, SHARED_OFFSETS, 3),
        margin_table(SHARED_ROW_B, SHARED_OFFSETS, 3),
    ]
    labels = [0, 0]
    # each sample alone is vulnerable to one poison...
    radii = [fa_radius(t, l) for t, l in zip(tables, labels)]
    assert certified_fraction_curve(radii, 1)[1] == 0
    # ...but the exceptional partitions differ: {0} for A, {1} for B
    assert [q for q in range(12) if not conditional_certified(tables[0], (q,), 1, 0)] == [0]
    assert [q for q in range(12) if not conditional_certified(tables[1], (q,), 1, 0)] == [1]
    acc, argmin_q = certified_accuracy(tables, labels, 1)
    assert acc == Fraction(1, 2)
    assert argmin_q == (0,)


def test_certified_accuracy_dominates_certified_fraction(rng):
    offsets = SpreadOffsets((0, 2), 6)
    for _ in range(20):
        tables, labels = [], []
        for _ in range(5):
            row = random_row(rng, 6, 3)
            tables.append(margin_table(row, offsets, 3))
            labels.append(rng.randrange(3))
        radii = [fa_radius(t, l) for t, l in zip(tables, labels)]
        for budget in (0, 1):
            acc, _ = certified_accuracy(tables, labels, budget)
            assert acc >= certified_fraction_curve(radii, budget)[budget]


def test_certified_accuracy_respects_enumeration_cap():
    offsets = SpreadOffsets((0, 1), 12)
    tables = [margin_table(FIG2_ROW, offsets, 4)]
    with pytest.raises(EnumerationTooLarge) as err:
        certified_accuracy(tables, [1], 3, enumeration_cap=10)
    assert err.value.count == 220  # C(12, 3)


def test_certified_accuracy_budget_beyond_kd_uses_full_scope():
    offsets = SpreadOffsets((0,), 3)
    tables = [margin_table((0, 0, 0), offsets, 2)]
    acc, q = certified_accuracy(tables, [0], 5)
    assert q == (0, 1, 2)
    assert acc == 0  # five poisons over three partitions flip everything


def test_radius_stats_examples():
    stats = radius_stats([1, 2], [1, 2])
    assert stats == radius_stats([], []) or (stats.pr_radius_up == 0 and stats.mean_delta_r == 0)
    stats = radius_stats([2, 1], [1, 1])
    assert stats.pr_radius_up == Fraction(1, 2)
    assert stats.mean_delta_r == 1
    with pytest.raises(LengthMismatch):
        radius_stats([1], [1, 2])


def test_radius_stats_on_golden_toy():
    table = margin_table(FIG2_ROW, FIG2_OFFSETS, 4)
    stats = radius_stats([fa_radius(table)], [dpa_baseline_radius(table)])
    assert stats.pr_radius_up == 1
    assert stats.mean_delta_r == 1


def test_radius_stats_counts_incorrect_rows_in_denominator():
    # one improved row, one misclassified row (-1 on both sides)
    stats = radius_stats([3, -1], [1, -1])
    assert stats.pr_radius_up == Fraction(1, 2)
    assert stats.mean_delta_r == 2


# ---------------------------------------------------------------------------
# cert-acc's kernel, on the rows cmd_cert_acc makes, against certified_accuracy,
# the least mean of the reference conditional_certified over every Q


def _kernel_certified_accuracy(rows, offsets, n_classes, labels, budget):
    """``cmd_cert_acc``'s result: ``_vote_losses`` on each row as ``VoteMatrix`` packs it, radii from its
    ``certificate``, and ``_certified_accuracy`` over them."""
    config = AggregationConfig(offsets.kd // offsets.d, offsets.d, n_classes)
    matrix = VoteMatrix(rows, config, offsets, tuple(labels))
    q_size = _shared_set_size(matrix.labels, matrix.n_test, offsets.kd, budget, ENUMERATION_CAP)
    losses = [_vote_losses(votes, offsets, n_classes) for votes in matrix.votes]
    radii = [row.certificate(label).fa_radius for row, label in zip(losses, labels)]
    return _certified_accuracy(losses, radii, q_size)


def test_certified_accuracy_matches_brute_force(rng):
    tied = 0
    for _ in range(300):
        d = rng.choice([1, 2, 3])
        k = rng.randint(1, 12 // d)
        kd = k * d
        n_classes = rng.randint(2, 4)
        offsets = random_offsets(rng, k, d)
        rows, labels = [], []
        for _ in range(rng.randint(1, 6)):
            favourite, share = rng.randrange(n_classes), rng.random()
            rows.append(tuple(favourite if rng.random() < share else rng.randrange(n_classes) for _ in range(kd)))
            labels.append(favourite if rng.random() < 0.8 else rng.randrange(n_classes))
        tables = [margin_table(row, offsets, n_classes) for row in rows]
        for budget in sorted({0, 1, rng.randint(0, kd), kd, kd + 2}):
            expected = certified_accuracy(tables, labels, budget)
            assert _kernel_certified_accuracy(rows, offsets, n_classes, labels, budget) == expected, (
                rows, labels, budget)
            hits = expected[0] * len(tables)  # the rows certified under the first minimizing Q
            tied += sum(sum(conditional_certified(t, q, budget, l) for t, l in zip(tables, labels)) == hits
                        for q in combinations(range(kd), min(budget, kd))) > 1
    assert tied  # several Q attained the minimum in some cases


@pytest.mark.parametrize("budget", [0, 1, 3, 6, 8])
def test_certified_accuracy_when_every_row_is_mispredicted_or_certified(budget):
    offsets = SpreadOffsets((0, 2), 6)
    first_q = tuple(range(min(budget, 6)))
    rows = [(0,) * 6, (1, 1, 1, 1, 1, 0), (2, 2, 2, 2, 0, 1)]
    tables = [margin_table(row, offsets, 3) for row in rows]
    # every row mispredicted: no Q matters, the first one is returned
    assert certified_accuracy(tables, [1, 0, 0], budget) == (0, first_q)
    assert _kernel_certified_accuracy(rows, offsets, 3, [1, 0, 0], budget) == (0, first_q)
    # unanimous rows: certified under every Q up to their radius, then broken by every Q
    unanimous = [(c,) * 6 for c in range(3)]
    expected = (Fraction(int(budget <= fa_radius(margin_table(unanimous[0], offsets, 3), 0))), first_q)
    assert certified_accuracy([margin_table(row, offsets, 3) for row in unanimous], [0, 1, 2], budget) == expected
    assert _kernel_certified_accuracy(unanimous, offsets, 3, [0, 1, 2], budget) == expected


def test_certified_accuracy_lanes_match_brute_force(rng):
    """Cases where one lane per (row, challenger) margin in a shared int could go wrong.

    One class and five or six, classes without votes (some below the
    prediction) under an ``n_classes`` far above them, challengers whose
    margin exceeds the cap ``|Q| * 2d`` beside binding ones, 20+ rows, d up
    to 4, budgets 0, kd and kd + 2, and ties across Q.
    """
    tied = clamped = 0
    for trial in range(48):
        d = 1 + trial % 4
        k = rng.randint(1, 10 // d)
        kd = k * d
        voted = (1, 2, 5, 6)[trial // 4 % 4]
        n_classes = voted if trial % 3 == 0 else rng.choice([voted + 1, 40])
        classes = rng.sample(range(n_classes), voted)  # the classes with votes
        offsets = random_offsets(rng, k, d)
        rows, labels = [], []
        for _ in range(rng.randint(20, 26)):
            favourite, share = rng.choice(classes), rng.uniform(0.3, 0.9)
            rivals = rng.sample(classes, rng.randint(1, voted))  # often fewer than every voted class
            rows.append(tuple(favourite if rng.random() < share else rng.choice(rivals) for _ in range(kd)))
            labels.append(favourite if rng.random() < 0.9 else rng.randrange(n_classes))
        tables = [margin_table(row, offsets, n_classes) for row in rows]
        for budget in sorted({0, rng.randint(1, 3), kd, kd + 2}):
            expected = certified_accuracy(tables, labels, budget)
            assert _kernel_certified_accuracy(rows, offsets, n_classes, labels, budget) == expected, (trial, budget)
            hits = expected[0] * len(tables)  # the rows certified under the first minimizing Q
            tied += sum(sum(conditional_certified(t, q, budget, l) for t, l in zip(tables, labels)) == hits
                        for q in combinations(range(kd), min(budget, kd))) > 1
            cap = min(budget, kd) * 2 * d
            clamped += sum(
                0 <= fa_radius(t, l) < min(budget, kd)
                and any(t.rhs(cp) > cap for cp in range(n_classes) if cp != t.prediction)
                for t, l in zip(tables, labels)
            )
    assert tied and clamped  # the minimum was tied across Q, and some scored margins were clamped
