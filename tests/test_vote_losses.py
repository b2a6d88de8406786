"""``_vote_losses``, the NumPy-free losses of every command, against the margin-table reference,
and the shared-set search over its rows."""

import itertools
import random

from finiagg import AggregationConfig, SpreadOffsets, VoteMatrix, certifier
from finiagg.certifier import _certified_accuracy, _vote_losses
from finiagg.cli import votes_from_json, votes_to_json
from finiagg.datamodel import unpack
from finiagg.hashing import spread
from finiagg.reference import certified_accuracy, dpa_baseline_radius, fa_radius, margin_table


def _assert_matches(matrix: VoteMatrix, tables: bool = True) -> None:
    """Each row's prediction, challengers, vote counts and per-partition losses equal its margin table's; with
    ``tables``, every class's losses, over every partition and over one random scope, and the
    certificate do too. Without, the table's counts are taken over the classes with votes only. The
    matrix's vote JSON reads back as an equal matrix that writes the same text."""
    offsets, n_classes, kd, d = matrix.offsets, matrix.config.n_classes, matrix.config.kd, matrix.config.d
    text = votes_to_json(matrix)
    assert votes_from_json(text) == matrix and votes_to_json(votes_from_json(text)) == text
    labels = matrix.labels or (None,) * matrix.n_test
    rng = random.Random(len(matrix.votes))
    for packed, label in zip(matrix.votes, labels):
        row, votes = _vote_losses(packed, offsets, n_classes), unpack(packed, kd)
        if tables:
            table = margin_table(votes, offsets, n_classes)
            counts, per_part = dict(enumerate(table.global_counts)), dict(enumerate(table.partition_counts))
        else:  # a table of every class would not fit: the rows of the classes with votes, as it tabulates them
            counts = {q: votes.count(q) for q in sorted(set(votes))}
            per_part = {q: [sum(votes[i] == q for i in spread(j, offsets)) for j in range(kd)] for q in counts}
        voted = [q for q in counts if counts[q]]
        c = max(voted, key=counts.__getitem__)  # the first maximum, in class order
        absent = next(q for q in itertools.count() if counts.get(q, 0) == 0)
        challengers = [q for q in voted if q != c] + [absent] * (absent < n_classes)
        assert row.prediction == c
        assert sorted(row.challengers()) == sorted(challengers)
        for q in challengers:
            losses = [d + x - y for x, y in zip(per_part[c], per_part.get(q, [0] * kd))]
            assert row.counts[q] == counts.get(q, 0)
            assert list(row.lanes(q)) == losses
        if tables:
            scope = rng.sample(range(offsets.kd), rng.randint(0, offsets.kd))
            for q in range(n_classes):
                if q != c:
                    assert row.rhs(q) == table.rhs(q)
                    lanes = row.lanes(q if q in row.counts else absent)  # the class without votes that stands for q
                    assert sorted(lanes, reverse=True) == table.delta_elements(q)
                    assert sorted((lanes[j] for j in scope), reverse=True) == table.delta_elements(q, scope)
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


def test_vote_losses_match_on_both_sides_of_one_byte_classes():
    """Votes of class 255 fit one byte and of class 256 two; each vote width, 1, 2, 4 and 8 bytes,
    from the smallest class count that needs it, and the largest 8 bytes hold. The class sets of 1-byte
    rows: class 0 absent, only class 255 of 256, all 256 present, and a single class."""
    rng = random.Random(255)
    for voted in ((0, 255), (1, 254, 255), (3, 256), (255, 256, 257)):
        _assert_matches(_many_classes(rng, 20, 2, 300, voted))
    for k, n_classes, voted in ((20, 5, (1, 2, 4)), (20, 256, (255,)), (150, 256, range(256)), (20, 3, (1,)),
                                (20, 1, (0,))):
        _assert_matches(_many_classes(rng, k, 2, n_classes, voted))
    for n_classes in (2, 257, 65_537, 2**32 + 1, 2**64):
        voted = sorted({0, 1, n_classes // 2, n_classes - 1})
        _assert_matches(_many_classes(rng, 20, 2, n_classes, voted), tables=n_classes < 300)


class _CountedBytes(bytes):
    """A packed row, or the 1-byte alphabet, that records each class it is asked to ``count`` or to mark in a
    ``translate`` table, and the bytes each ``translate`` without a table deletes."""

    def __new__(cls, data, calls=None):
        self = super().__new__(cls, data)
        self.calls = [] if calls is None else calls
        return self

    def __getitem__(self, index):  # a plane of the row records its calls with the row's
        item = super().__getitem__(index)
        return _CountedBytes(item, self.calls) if isinstance(index, slice) else item

    def count(self, value):
        self.calls.append(("count", value))
        return super().count(value)

    def translate(self, table, delete=b""):
        self.calls.append(("delete", bytes(delete)) if table is None else ("translate", table.index(1)))
        return super().translate(table, delete)


def test_one_byte_rows_count_in_c_and_build_one_hots_only_for_the_losses_computed(monkeypatch):
    """The class set from the alphabet, deleting the row's classes and then the absent ones; one ``count`` per
    class with votes; and a one-hot, one ``translate`` of the row, for the prediction and for each computed
    challenger with votes."""
    alphabet = _CountedBytes(range(256))
    monkeypatch.setattr(certifier, "_BYTES", alphabet)
    rng, one_hots = random.Random(6), 0
    for k, d, n_classes in ((400, 8, 8), (100, 16, 10), (5, 2, 3), (130, 2, 256)):
        matrix = _random_rows(rng, k, d, n_classes, 4)
        for t, (packed, label) in enumerate(zip(matrix.votes, matrix.labels)):
            alphabet.calls.clear()
            votes = _CountedBytes(packed)
            row = _vote_losses(votes, matrix.offsets, n_classes)
            row.certificate(row.prediction if t % 2 else label)  # a mispredicted row computes no losses
            present = sorted(set(packed))
            assert alphabet.calls == [("delete", packed), ("delete", bytes(sorted(set(range(256)) - set(present))))]
            assert votes.calls == [("count", q) for q in present] + [("translate", row.prediction)] + [
                ("translate", q) for q in row._losses if row.counts[q]
            ]
            one_hots += len(votes.calls) - len(present) - 1
    assert one_hots >= 8  # challengers' one-hots, not only the predictions'


def test_vote_losses_match_at_paper_scale():
    """kd = 19,200 (k = 1,200, d = 16) with 10 classes, as for MNIST."""
    _assert_matches(_random_rows(random.Random(19_200), 1200, 16, 10, 2))


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
        assert _certified_accuracy(rows, radii, q_size) == certified_accuracy(tables, matrix.labels, q_size)
        scored += sum(0 <= r < q_size for r in radii)
    assert scored >= 8  # rows the search must score, not only count
