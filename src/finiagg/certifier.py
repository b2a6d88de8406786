"""Exact integer certificates against training-set poisoning.

Everything here works on one test sample's vote counts: the global counts
``N_c`` over the ``kd`` classifiers and the per-partition counts ``a[c][j]``
over the ``d`` classifiers that consume partition ``j``.

One poison lands in a single partition ``j`` and can, at worst, turn all
``d`` classifiers consuming ``j`` toward a challenger ``c'``: the winner
loses ``a[c][j]`` votes and the challenger gains ``d - a[c'][j]``, so the
vote margin shrinks by at most ``e_j = d + a[c][j] - a[c'][j]``. A budget
of ``m`` poisons therefore shrinks it by at most the sum of the ``m``
largest ``e_j``, and the prediction survives as long as that sum stays
within ``rhs = N_c - N_{c'} - 1[c' < c]`` (the subtraction accounts for
losing ties to smaller class indices). All comparisons are single integer
inequalities: this is the fractional certificate multiplied through by
``kd``, so no certificate can be flipped by a float boundary.

The plain disjoint-partition baseline is the same computation with every
``e_j`` replaced by its ceiling ``2d``; with ``d = 1`` the two coincide.

Every ``e_j`` is an integer in ``[0, 2d]``, so the top-m sums follow from
counting each loss value, from ``2d`` down, instead of a sort. One routine
without NumPy, ``_vote_losses``, reads a packed vote row as it is and packs
every command's losses, and one per-row rule, ``_certificate``, counts them
(``datamodel.unpack`` reads both back). Since ``e_j <= 2d``, a
challenger's fine radius is at least ``min(kd, rhs // 2d)``, its baseline, so
the rule computes only the challengers whose bound is below the fine radius
so far. The readable reference they are checked against, ``MarginTable``
with ``fa_radius`` and ``dpa_baseline_radius``, is in ``finiagg.reference``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from itertools import accumulate, combinations
from typing import Callable, Sequence

from .datamodel import VoteMatrix, argmax, byte_width, pack, unpack
from .errors import (
    DataError,
    EmptyTestSet,
    EnumerationTooLarge,
    LengthMismatch,
    LimitError,
    MissingLabels,
)
from .hashing import SpreadOffsets

ENUMERATION_CAP = 10**6  # the most shared poison sets Q that cert-acc scores by default
_BYTES = bytes(range(256))  # every 1-byte vote


class SampleCertificate(namedtuple("SampleCertificate", "predicted correct dpa_radius fa_radius")):
    __slots__ = ()


class RadiusStats(namedtuple("RadiusStats", "pr_radius_up mean_delta_r")):
    __slots__ = ()


class EnsembleStats(namedtuple("EnsembleStats", "clean_accuracy base_accuracy")):
    __slots__ = ()


class CertificateReport(namedtuple("CertificateReport", "certificates curve stats ensemble")):
    """The certificates, the curve, the radius statistics and, with labels only, the ``EnsembleStats``."""

    __slots__ = ()


def _histogram_radius(lanes: Sequence[int], rhs: int, top: int) -> int:
    """Largest m whose m largest losses sum to at most ``rhs``; ``lanes`` holds losses in ``[0, top]``.

    Walks the loss values from ``top`` down, as ``_scan_radius`` walks the
    sorted losses, with one ``lanes.count`` per value, and counts no value
    below the one where it stops; ``rhs >= 0`` because the prediction is the
    arg-max.
    """
    m = 0
    for loss in range(top, 0, -1):
        count = lanes.count(loss)
        take = min(count, rhs // loss)
        m += take
        if take < count:
            return m
        rhs -= take * loss
    return len(lanes)  # zero losses never exhaust the margin


class RowLosses:
    """One vote row's losses against each challenger, each computed when first asked for.

    ``counts`` holds ``N_q`` of the prediction and of every challenger: the
    classes with votes and the smallest class without, which stands for the
    rest. ``pack_losses(q)`` packs partition j's loss ``d + a[c][j] - a[q][j]``
    into bytes ``[j * w, (j + 1) * w)``, little-endian, where ``w`` is the
    fewest bytes that hold ``2d``; ``lanes(q)`` calls it once per challenger,
    keeps the bytes in ``_losses`` and reads them back, one loss per partition.
    """

    __slots__ = ("prediction", "kd", "d", "counts", "pack_losses", "_losses")

    def __init__(self, prediction: int, kd: int, d: int, counts: dict[int, int],
                 pack_losses: Callable[[int], bytes]):
        self.prediction, self.kd, self.d = prediction, kd, d
        self.counts, self.pack_losses = counts, pack_losses
        self._losses: dict[int, bytes] = {}

    def challengers(self) -> list[int]:
        return [q for q in self.counts if q != self.prediction]

    def rhs(self, challenger: int) -> int:
        c = self.prediction
        return self.counts[c] - self.counts.get(challenger, 0) - (challenger < c)

    def lanes(self, challenger: int) -> Sequence[int]:
        if challenger not in self._losses:
            self._losses[challenger] = self.pack_losses(challenger)
        return unpack(self._losses[challenger], self.kd)

    def certificate(self, label: int | None) -> SampleCertificate:
        return _certificate(self, label)


def _vote_losses(votes: bytes, offsets: SpreadOffsets, n_classes: int) -> RowLosses:
    """One packed vote row's prediction, vote counts and challengers' losses, without NumPy.

    The row is read as ``VoteMatrix`` holds it: ``kd`` votes of ``code``
    bytes each. A 1-byte row is read in C: its classes are the bytes that
    ``_BYTES.translate(None, votes)`` deletes, each counted by ``votes.count``.
    A wider row's come from ``unpack``, each counted by its one-hot's
    ``bit_count``. A class's one-hot is the AND, over the planes (byte b of
    every vote), of ``bytes.translate`` marking its byte b; a 1-byte row
    builds one only for the prediction and the challengers whose losses are
    computed. Challenger q's losses are one Python int with a ``w``-byte lane
    per partition: ``1 + hot[c] - hot[q]`` is 0, 1 or 2 per classifier, and
    its rotations by each offset sum to ``d + a[c] - a[q]``. No lane carries
    or borrows, since a loss is at most 2d.
    """
    kd, d = offsets.kd, offsets.d
    lane = byte_width(2 * d, "margin losses")
    code = len(votes) // kd  # bytes per vote
    planes = [votes[b::code] for b in range(code)]

    def one_hot(q: int) -> int:  # bit 8j set iff classifier j votes q
        hot = -1
        for plane, byte in zip(planes, q.to_bytes(code, "little")):
            mark = bytearray(256)
            mark[byte] = 1
            hot &= int.from_bytes(plane.translate(mark), "little")
        return hot

    classes = _BYTES.translate(None, _BYTES.translate(None, votes)) if code == 1 else sorted(set(unpack(votes, kd)))
    counts = {q: votes.count(q) if code == 1 else one_hot(q).bit_count() for q in classes}
    c = classes[argmax(list(counts.values()))]
    absent = next((i for i, q in enumerate(classes) if q != i), len(classes))
    if absent < n_classes:
        counts[absent] = 0
    ahead = one_hot(c) + int.from_bytes(b"\1" * kd, "little")  # 1 + hot[c]
    bits = 8 * lane * kd

    def pack_losses(q: int) -> bytes:
        step = ahead - one_hot(q) if counts[q] else ahead  # 0, 1 or 2 per classifier
        if lane > 1:  # widened to one lane per classifier
            step = int.from_bytes(pack(step.to_bytes(kd, "little"), lane), "little")
        step |= step << bits  # twice round, so each offset's rotation is one shift
        summed = sum(step >> 8 * lane * r for r in offsets.offsets) & (1 << bits) - 1
        return summed.to_bytes(kd * lane, "little")

    return RowLosses(c, kd, d, counts, pack_losses)


def _certificate(row: RowLosses, label: int | None) -> SampleCertificate:
    """One row's certificate: the least fine radius and baseline over its challengers.

    Every loss is at most 2d, so ``min(kd, rhs // 2d)`` losses always fit in
    the margin: it is the challenger's baseline and a lower bound on its fine
    radius. The challengers are read in ascending ``rhs``, so the first one
    is the baseline's and the walk stops at the first whose bound reaches the
    fine radius so far; no later one can lower it. A mispredicted row never
    reads its challengers.
    """
    c, kd, d = row.prediction, row.kd, row.d
    if label is not None and c != label:
        return SampleCertificate(predicted=c, correct=False, dpa_radius=-1, fa_radius=-1)
    margins = sorted((row.rhs(q), q) for q in row.challengers())
    base = min(kd, margins[0][0] // (2 * d)) if margins else kd
    fine = kd
    for rhs, q in margins:
        if min(kd, rhs // (2 * d)) >= fine:
            break
        fine = min(fine, _histogram_radius(row.lanes(q), rhs, 2 * d))
    return SampleCertificate(predicted=c, correct=None if label is None else True, dpa_radius=base, fa_radius=fine)


def certify_matrix(matrix: VoteMatrix, label_votes: list[int] | None = None) -> list[SampleCertificate]:
    """Per-sample certificates for every row of a vote matrix, from ``_vote_losses``.

    Every command's certificates come from that one routine and
    ``_certificate``, which computes only the challengers whose bound
    ``rhs // 2d`` is below the fine radius so far. ``fa_radius`` and
    ``dpa_baseline_radius`` over ``margin_tables`` in ``finiagg.reference``
    are the rules this is checked against. A labelled matrix appends each
    row's votes for its label, from its vote counts, to ``label_votes``.
    """
    n_classes, labels = matrix.config.n_classes, matrix.labels
    certs = []
    for t, votes in enumerate(matrix.votes):
        row, label = _vote_losses(votes, matrix.offsets, n_classes), None if labels is None else labels[t]
        certs.append(row.certificate(label))
        if label_votes is not None and label is not None:
            label_votes.append(row.counts.get(label, 0))  # a class without votes may have no entry
    return certs


def certified_fraction_curve(radii: Sequence[int], max_attack_size: int) -> tuple[Fraction, ...]:
    """``curve[m]`` = fraction of samples whose radius is at least m; equal points are one object."""
    n = len(radii)
    if n == 0:
        raise EmptyTestSet()
    if max_attack_size < 0:
        raise DataError(f"attack size must be non-negative, got {max_attack_size}")
    try:
        at_least = [0] * (max_attack_size + 1)
    except (MemoryError, OverflowError):
        raise LimitError(f"a curve of {max_attack_size + 1} attack sizes does not fit in memory") from None
    for r in radii:
        if r >= 0:
            at_least[min(r, max_attack_size)] += 1
    at_least[::-1] = accumulate(reversed(at_least))  # suffix sums: at_least[m] counts the radii >= m
    steps = {hits: Fraction(hits, n) for hits in set(at_least)}
    return tuple(map(steps.__getitem__, at_least))


def radius_stats(fa_radii: Sequence[int], dpa_radii: Sequence[int]) -> RadiusStats:
    """How often and by how much the fine-grained certificate beats the baseline.

    The denominator of ``pr_radius_up`` is the whole test set; the mean
    increase is taken over the improved samples only (0 if there are none).
    """
    if len(fa_radii) != len(dpa_radii):
        raise LengthMismatch(f"{len(fa_radii)} fine radii vs {len(dpa_radii)} baseline radii")
    n = len(fa_radii)
    if n == 0:
        return RadiusStats(Fraction(0), Fraction(0))
    gains = [f - d for f, d in zip(fa_radii, dpa_radii) if f > d]
    mean_gain = Fraction(sum(gains), len(gains)) if gains else Fraction(0)
    return RadiusStats(Fraction(len(gains), n), mean_gain)


def build_report(matrix: VoteMatrix, max_attack_size: int) -> CertificateReport:
    """Certificates, curve up to ``max_attack_size``, and radius and accuracy statistics."""
    label_votes: list[int] = []
    certs = certify_matrix(matrix, label_votes)
    curve = certified_fraction_curve([c.fa_radius for c in certs], max_attack_size)
    stats = radius_stats([c.fa_radius for c in certs], [c.dpa_radius for c in certs])
    ensemble = None
    if matrix.labels is not None:  # the curve has raised EmptyTestSet for n = 0
        n, kd = len(certs), matrix.config.kd
        # clean hits from the kernel's predictions and base hits from its vote counts: no second pass
        clean_hits = sum(c.correct for c in certs)
        ensemble = EnsembleStats(Fraction(clean_hits, n), Fraction(sum(label_votes), n * kd))
    return CertificateReport(tuple(certs), curve, stats, ensemble)


def _shared_set_size(labels, n_test: int, kd: int, budget: int, enumeration_cap: int) -> int:
    """``min(budget, kd)``, the size of every Q, after the checks that need no losses, in order."""
    if labels is None or len(labels) != n_test:
        raise MissingLabels("certified accuracy")
    if budget < 0:
        raise DataError(f"attack budget must be non-negative, got {budget}")
    if n_test == 0:
        raise EmptyTestSet()
    q_size = min(budget, kd)
    count = math.comb(kd, q_size)
    if count > enumeration_cap:
        raise EnumerationTooLarge(kd, budget, count, enumeration_cap)
    return q_size


def _certified_accuracy(rows: Sequence[RowLosses], radii: Sequence[int], q_size: int):
    """Worst-case accuracy over every Q of ``q_size`` partitions, and the first Q attaining it.

    Radius -1 is a mispredicted row, never certified; a row whose fine radius
    reaches ``q_size`` is certified under every Q. Since Q holds exactly as
    many partitions as the adversary may touch, its top-|Q| sum is the sum
    over Q. The other rows are scored for all Q at once, each Q with one sum
    of Python ints whose lanes hold every (row, challenger) margin.
    ``reference.certified_accuracy``, the least mean of
    ``conditional_certified`` over every Q, is the rule this is checked against.

    Lanes: each challenger of a scored row whose own radius is below
    ``q_size`` (no other can break) gets one lane of ``size`` bytes, its
    losses ``pack``ed at that width, and each row one spare lane after its
    own. A challenger with ``rhs // 2d >= q_size`` is skipped before its
    losses are computed: that bound is at most its radius. ``losses[j]``
    holds partition j's loss in every lane. It is read off the joined lanes' bytes by transposition,
    every ``kd * size``-th byte, so the fill is linear in the rows.

    Clamp and bias: a sum of ``q_size`` losses is at most
    ``cap = q_size * 2d < 2^(L-1)``, ``L = 8 * size``, and a lane's bias is
    ``2^(L-1) - 1 - min(rhs, cap)``. Biased sums stay in ``[0, 2^L)``, so no
    lane carries into or borrows from the next, and a lane's top bit is set
    exactly when the sum over Q exceeds the margin.

    Fold: adding ones over a row's lanes to their masked top bits carries
    into its spare lane iff one is set, so one ``bit_count`` counts the rows
    Q breaks. The first Q in lexicographic order that breaks the most wins.
    """
    n, kd, d = len(rows), rows[0].kd, rows[0].d
    cap = q_size * 2 * d
    lane = byte_width(2 * d, "margin losses")
    size = max(lane, byte_width(2 * cap + 1, "shared-set sums"))
    bits = 8 * size
    always = scored = 0  # rows certified under every Q, and rows some Q may break
    chunks, bias, tops, fill, carries = [], 0, 0, 0, 0
    shift = 0
    for row, radius in zip(rows, radii):
        if radius >= q_size:
            always += 1
        elif radius >= 0:
            scored += 1
            start = shift
            for q in row.challengers():
                rhs = row.rhs(q)
                if rhs // (2 * d) < q_size and _histogram_radius(row.lanes(q), rhs, 2 * d) < q_size:
                    chunks.append(pack(row.lanes(q), size))
                    bias |= (1 << bits - 1) - 1 - min(rhs, cap) << shift
                    shift += bits
                    tops |= 1 << shift - 1
            fill |= (1 << shift) - (1 << start)
            carries |= 1 << shift
            chunks.append(bytes(kd * size))  # the spare lane
            shift += bits
    joined = b"".join(chunks)
    del chunks
    losses = []
    for j in range(kd):
        part = bytearray(len(joined) // kd)
        for b in range(size):
            part[b::size] = joined[j * size + b::kd * size]
        losses.append(int.from_bytes(part, "little"))
    del joined

    best_broken, best_q = -1, ()
    for q in combinations(range(kd), q_size):
        broken = ((sum(map(losses.__getitem__, q), bias) & tops) + fill & carries).bit_count()
        if broken > best_broken:
            best_broken, best_q = broken, q
            if broken == scored:
                break  # no later Q can break more rows
    return Fraction(always + scored - best_broken, n), best_q
