"""``_vote_losses``, the NumPy-free losses of ``cert-acc`` and ``oracle-check``, against
``_row_losses`` and the margin-table reference, and the shared-set search over its rows."""

import itertools
import random
from fractions import Fraction

from finiagg import AggregationConfig, SpreadOffsets, VoteMatrix
from finiagg.certifier import _certified_accuracy, _row_losses, _vote_losses
from finiagg.reference import conditional_certified, dpa_baseline_radius, fa_radius, margin_table


def _assert_matches(matrix: VoteMatrix, tables: bool = True) -> None:
    """Each row's challengers, vote counts and histograms equal ``_row_losses``'; with ``tables``,
    every class's losses, over every partition and over one random scope, equal ``delta_elements``."""
    offsets, n_classes = matrix.offsets, matrix.config.n_classes
    labels = matrix.labels or (None,) * matrix.n_test
    rng = random.Random(len(matrix.votes))
    for votes, label, (c, n_c, challengers) in zip(matrix.votes, labels, _row_losses(matrix)):
        row = _vote_losses(votes, offsets, n_classes)
        assert (row.prediction, row.counts[c]) == (c, n_c)
        assert {q: (row.counts[q], row.hists[q]) for q in row.hists} == {
            q: (n_q, hist) for q, n_q, hist in challengers
        }
        if tables:
            table = margin_table(votes, offsets, n_classes)
            scope = rng.sample(range(offsets.kd), rng.randint(0, offsets.kd))
            for q in range(n_classes):
                if q != c:
                    assert row.rhs(q) == table.rhs(q)
                    assert row.delta_elements(q) == table.delta_elements(q)
                    assert row.delta_elements(q, scope) == table.delta_elements(q, scope)
            cert = row.certificate(label)
            assert (cert.fa_radius, cert.dpa_radius) == (fa_radius(table, label), dpa_baseline_radius(table, label))


def _random_rows(rng, k, d, n_classes, n_rows):
    """Rows with a favourite class of a random share, so radii range from 0 to large."""
    kd = k * d
    offsets = SpreadOffsets(tuple(rng.sample(range(kd), d)), kd)
    rows = []
    for _ in range(n_rows):
        favourite, share = rng.randrange(n_classes), rng.random()
        rows.append(tuple(favourite if rng.random() < share else rng.randrange(n_classes) for _ in range(kd)))
    labels = tuple(rng.randrange(n_classes) for _ in rows)
    return VoteMatrix(tuple(rows), AggregationConfig(k=k, d=d, n_classes=n_classes), offsets, labels)


def test_vote_losses_match_on_every_small_row():
    """Every row over 2-3 classes, and over 3 of 5 classes, for kd <= 5 under every offset set."""
    for kd in range(1, 6):
        for d in (d for d in range(1, kd + 1) if kd % d == 0):
            for n_classes, voted in ((2, 2), (3, 3), (5, 3)):
                rows = tuple(itertools.product(range(voted), repeat=kd))
                config = AggregationConfig(k=kd // d, d=d, n_classes=n_classes)
                labels = tuple(t % n_classes for t in range(len(rows)))
                for offsets in itertools.combinations(range(kd), d):
                    _assert_matches(VoteMatrix(rows, config, SpreadOffsets(offsets, kd), labels))


def test_vote_losses_match_with_lanes_past_one_byte():
    """d past 127 puts 2d past one byte, so every loss takes two."""
    rng = random.Random(127)
    for d in (128, 129, 200):
        _assert_matches(_random_rows(rng, rng.randint(1, 3), d, rng.randint(2, 4), 3))


def _many_classes(rng, k, d, n_classes, voted):
    """Rows with a vote from every class in ``voted`` and the rest of their votes from a favourite."""
    kd = k * d
    offsets = SpreadOffsets(tuple(rng.sample(range(kd), d)), kd)
    rows = []
    for _ in range(3):
        row = [rng.choice(voted)] * (kd - len(voted)) + list(voted)
        rng.shuffle(row)
        rows.append(tuple(row))
    config = AggregationConfig(k=k, d=d, n_classes=n_classes)
    return VoteMatrix(tuple(rows), config, offsets, tuple(rng.choice(voted) for _ in rows))


def test_vote_losses_match_with_more_than_256_voted_classes():
    """Class numbers past one byte, dense over class indices far apart."""
    rng = random.Random(256)
    _assert_matches(_many_classes(rng, 150, 2, 300, range(260)))
    sparse = sorted(rng.sample(range(70_000), 280))  # 280 classes with votes among 70,000
    _assert_matches(_many_classes(rng, 400, 1, 70_000, sparse), tables=False)


def test_vote_losses_match_at_paper_scale():
    """kd = 19,200 (k = 1,200, d = 16) with 10 classes, as for MNIST."""
    _assert_matches(_random_rows(random.Random(19_200), 1200, 16, 10, 2))


def _brute_force(tables, labels, q_size):
    """The lowest mean of ``conditional_certified`` over every Q, the first Q on ties."""
    kd = tables[0].kd
    return min(
        (Fraction(sum(conditional_certified(t, q, q_size, l) for t, l in zip(tables, labels)), len(tables)), q)
        for q in itertools.combinations(range(kd), q_size)
    )


def test_shared_set_search_with_lanes_wider_than_the_losses():
    """Lanes of two and three bytes around losses of one and two: the sum over Q outgrows a loss."""
    rng = random.Random(3)
    scored = 0
    for k, d, n_classes, q_size in ((130, 1, 3, 129), (1, 200, 2, 1), (1, 200, 3, 199), (1, 200, 2, 200)):
        matrix = _random_rows(rng, k, d, n_classes, 6)
        rows = [_vote_losses(votes, matrix.offsets, n_classes) for votes in matrix.votes]
        tables = [margin_table(votes, matrix.offsets, n_classes) for votes in matrix.votes]
        radii = [row.certificate(label).fa_radius for row, label in zip(rows, matrix.labels)]
        assert radii == [fa_radius(t, label) for t, label in zip(tables, matrix.labels)]
        assert _certified_accuracy(rows, radii, q_size) == _brute_force(tables, matrix.labels, q_size)
        scored += sum(0 <= r < q_size for r in radii)
    assert scored >= 8  # rows the search must score, not only count
