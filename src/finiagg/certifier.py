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

Every ``e_j`` is an integer in ``[0, 2d]``, so the top-m sums follow from a
``2d + 1``-bin histogram of the losses instead of a sort. Two routines give
those histograms: ``_row_losses`` in NumPy for the reports, and the
NumPy-free ``_vote_losses`` for ``cert-acc`` and ``oracle-check``. Both feed
one per-row rule, ``_certificate``. The readable reference they are checked
against, ``MarginTable`` with ``fa_radius`` and ``dpa_baseline_radius``, is
in ``finiagg.reference``.
"""

from __future__ import annotations

import math
import struct
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .ensemble import EnsembleStats, VoteMatrix
from .errors import (
    DataError,
    EmptyTestSet,
    EnumerationTooLarge,
    LengthMismatch,
    LimitError,
    MissingLabels,
)
from .hashing import SpreadOffsets
from .learners import argmax

ENUMERATION_CAP = 10**6  # the most shared poison sets Q that cert-acc scores by default


@dataclass(frozen=True)
class SampleCertificate:
    predicted: int
    correct: bool | None
    dpa_radius: int
    fa_radius: int


@dataclass(frozen=True)
class RadiusStats:
    pr_radius_up: Fraction
    mean_delta_r: Fraction


@dataclass(frozen=True)
class CertificateReport:
    certificates: tuple[SampleCertificate, ...]
    curve: tuple[Fraction, ...]
    stats: RadiusStats
    ensemble: EnsembleStats | None  # None without labels


def _int_dtype(bound: int, what: str):
    """Smallest signed NumPy integer type that holds every value in ``[0, bound]``."""
    import numpy as np

    for dtype in (np.int8, np.int16, np.int32, np.int64):
        if bound <= np.iinfo(dtype).max:
            return dtype
    raise LimitError(f"{what} up to {bound} do not fit in a 64-bit integer")


def _histogram_radius(hist: Sequence[int], rhs: int) -> int:
    """Largest m whose m largest losses sum to at most ``rhs``; ``hist[e]`` counts loss e.

    Walks the bins from the largest loss down, as ``_scan_radius`` walks the
    sorted losses; ``rhs >= 0`` because the prediction is the arg-max.
    """
    m = 0
    for loss in range(len(hist) - 1, 0, -1):
        take = min(hist[loss], rhs // loss)
        m += take
        if take < hist[loss]:
            return m
        rhs -= take * loss
    return m + hist[0]  # zero losses never exhaust the margin


def _row_losses(matrix: VoteMatrix):
    """Per row: the prediction c, ``N_c``, and a lazy iterator of its challengers' ``(q, N_q, hist)``.

    ``hist[e]`` counts the partitions whose loss ``d + a[c] - a[q]`` is e,
    where ``a`` of a class is a circulant sum of its one-hot over the offsets.
    c is the first ``argmax`` over the classes with votes. Classes without
    votes share ``a[q] = 0``; the smallest has the smallest margin and stands
    for them all. Each dtype holds every value its bound allows.
    """
    import numpy as np  # imported here: commands that never certify skip its cost

    from .arrays import circulant_sum

    d, n_classes = matrix.config.d, matrix.config.n_classes
    vote_dtype = _int_dtype(n_classes - 1, "class indices")
    count_dtype = _int_dtype(d, "per-partition vote counts")
    loss_dtype = _int_dtype(2 * d, "margin losses")
    offsets = matrix.offsets.offsets

    def challengers(row, c: int, counts: dict[int, int]):
        top = circulant_sum(row == c, offsets, count_dtype).astype(loss_dtype) + d  # d + a[c]
        for q, n_q in counts.items():
            if q != c:
                losses = top - circulant_sum(row == q, offsets, count_dtype) if n_q else top
                yield q, n_q, np.bincount(losses, minlength=2 * d + 1).tolist()

    for votes in matrix.votes:
        row = np.array(votes, dtype=vote_dtype)
        classes, counts = np.unique(row, return_counts=True)
        c = int(classes[counts.argmax()])
        counts = dict(zip(classes.tolist(), counts.tolist()))
        absent = next((i for i, q in enumerate(counts) if q != i), len(counts))
        if absent < n_classes:
            counts[absent] = 0
        yield c, counts[c], challengers(row, c, counts)


_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}  # struct's unsigned formats, by size in bytes


def _width(bound: int, what: str) -> int:
    """Fewest bytes, of 1, 2, 4 and 8, that hold every value in ``[0, bound]``."""
    for width in _FORMATS:
        if bound >> 8 * width == 0:
            return width
    raise LimitError(f"{what} up to {bound} do not fit in a 64-bit integer")


def _lanes(losses: bytes, d: int) -> Sequence[int]:
    """The losses packed in ``losses``: the bytes themselves, or unpacked past one byte each."""
    width = _width(2 * d, "margin losses")
    return losses if width == 1 else struct.unpack(f"<{len(losses) // width}{_FORMATS[width]}", losses)


@dataclass(frozen=True)
class RowLosses:
    """One vote row's losses against each challenger, as ``_vote_losses`` gives them.

    ``counts`` holds ``N_q`` of the prediction and of every challenger: the
    classes with votes and the smallest class without, which stands for the
    rest. ``losses[q]`` packs partition j's loss ``d + a[c][j] - a[q][j]``
    into bytes ``[j * w, (j + 1) * w)``, little-endian, where ``w`` is the
    fewest bytes that hold ``2d``; ``hists[q][e]`` counts the partitions whose
    loss is e. The fields and ``rhs`` and ``delta_elements`` are named as
    ``MarginTable``'s, so the reference rules read a row as they read its table.
    """

    prediction: int
    kd: int
    d: int
    n_classes: int
    counts: dict[int, int]
    losses: dict[int, bytes]
    hists: dict[int, list[int]]

    def rhs(self, challenger: int) -> int:
        c = self.prediction
        return self.counts[c] - self.counts.get(challenger, 0) - (challenger < c)

    def delta_elements(self, challenger: int, scope: Iterable[int] | None = None) -> list[int]:
        if challenger not in self.counts:  # no votes: the losses of the class that stands for it
            challenger = min(self.counts, key=self.counts.__getitem__)
        lanes = _lanes(self.losses[challenger], self.d)
        return sorted((lanes[j] for j in (range(self.kd) if scope is None else scope)), reverse=True)

    def certificate(self, label: int | None) -> SampleCertificate:
        c, counts = self.prediction, self.counts
        challengers = ((q, counts[q], hist) for q, hist in self.hists.items())
        return _certificate(c, counts[c], challengers, label, self.kd, self.d)


def _vote_losses(votes: Sequence[int], offsets: SpreadOffsets, n_classes: int) -> RowLosses:
    """``_row_losses`` for one row without NumPy: the losses of ``cert-acc`` and ``oracle-check``.

    The classes with votes are numbered densely in class order and each vote
    is packed as its number, in as few bytes as the count needs. A class's
    one-hot is the AND, over those bytes, of ``bytes.translate`` marking its
    byte. ``a[q]`` is one Python int with a ``w``-byte lane per partition: the
    one-hot rotated by each offset and summed. No lane carries or borrows,
    since a count is at most d and a loss at most 2d.
    """
    kd, d = offsets.kd, offsets.d
    lane = _width(2 * d, "margin losses")
    tally = Counter(votes)
    classes = sorted(tally)
    c = classes[argmax([tally[q] for q in classes])]
    number = {q: i for i, q in enumerate(classes)}
    code = _width(len(classes) - 1, "class numbers")
    packed = struct.pack(f"<{kd}{_FORMATS[code]}", *map(number.__getitem__, votes))
    planes = [packed[b::code] for b in range(code)]

    def per_partition(q: int) -> int:  # a[q]
        hot = -1
        for plane, byte in zip(planes, number[q].to_bytes(code, "little")):
            mark = bytearray(256)
            mark[byte] = 1
            hot &= int.from_bytes(plane.translate(mark), "little")
        wide = bytearray(kd * lane)
        wide[::lane] = hot.to_bytes(kd, "little")
        wide *= 2
        return sum(int.from_bytes(wide[r * lane:(r + kd) * lane], "little") for r in offsets.offsets)

    top = per_partition(c) + int.from_bytes(d.to_bytes(lane, "little") * kd, "little")  # d + a[c]
    counts = {q: tally[q] for q in classes}
    absent = next((i for i, q in enumerate(classes) if q != i), len(classes))
    if absent < n_classes:
        counts[absent] = 0
    losses = {
        q: (top - per_partition(q) if n_q else top).to_bytes(kd * lane, "little")
        for q, n_q in counts.items() if q != c
    }
    hists = {q: list(map(_lanes(e, d).count, range(2 * d + 1))) for q, e in losses.items()}
    return RowLosses(c, kd, d, n_classes, counts, losses, hists)


def _certificate(
    c: int, n_c: int, challengers: Iterable[tuple[int, int, list[int]]], label: int | None, kd: int, d: int
) -> SampleCertificate:
    """One row's certificate from its challengers' ``(q, N_q, hist)``.

    The fine radius is ``_histogram_radius`` and the baseline ``rhs // 2d``,
    each the least over the challengers. A mispredicted row never reads its
    challengers.
    """
    if label is not None and c != label:
        return SampleCertificate(predicted=c, correct=False, dpa_radius=-1, fa_radius=-1)
    fine = base = kd
    for q, n_q, hist in challengers:
        rhs = n_c - n_q - (q < c)
        fine = min(fine, _histogram_radius(hist, rhs))
        base = min(base, rhs // (2 * d))
    return SampleCertificate(
        predicted=c,
        correct=None if label is None else True,
        dpa_radius=base,
        fa_radius=fine,
    )


def certify_matrix(matrix: VoteMatrix) -> list[SampleCertificate]:
    """Per-sample certificates for every row of a vote matrix, from ``_row_losses``.

    Every report's certificates come from here; ``fa_radius`` and
    ``dpa_baseline_radius`` over ``margin_tables`` in ``finiagg.reference``
    are the rules this is checked against.
    """
    kd, d, labels = matrix.config.kd, matrix.config.d, matrix.labels
    return [
        _certificate(c, n_c, challengers, None if labels is None else labels[t], kd, d)
        for t, (c, n_c, challengers) in enumerate(_row_losses(matrix))
    ]


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
    for m in range(max_attack_size - 1, -1, -1):
        at_least[m] += at_least[m + 1]
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
    certs = certify_matrix(matrix)
    curve = certified_fraction_curve([c.fa_radius for c in certs], max_attack_size)
    stats = radius_stats([c.fa_radius for c in certs], [c.dpa_radius for c in certs])
    ensemble = None
    if matrix.labels is not None:  # the curve has raised EmptyTestSet for n = 0
        n, kd = len(certs), matrix.config.kd
        # clean hits from the kernel's predictions: no second majority vote over any row
        clean_hits = sum(c.correct for c in certs)
        base_hits = sum(row.count(label) for row, label in zip(matrix.votes, matrix.labels))
        ensemble = EnsembleStats(Fraction(clean_hits, n), Fraction(base_hits, n * kd))
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
    over Q (``reference.conditional_certified`` is the rule for one row). The
    other rows are scored for all Q at once, each Q with one sum of Python
    ints whose lanes hold every (row, challenger) margin.

    Lanes: each challenger of a scored row whose own radius is below
    ``q_size`` (no other can break) gets one lane of ``size`` bytes, and each
    row one spare lane after its own. ``losses[j]`` holds partition j's loss
    in every lane. It is read off the joined lanes' bytes by transposition,
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
    lane = _width(2 * d, "margin losses")
    size = max(lane, (cap.bit_length() + 8) // 8)
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
            for q, hist in row.hists.items():
                rhs = row.rhs(q)
                if _histogram_radius(hist, rhs) < q_size:
                    chunk = bytearray(kd * size)
                    for b in range(lane):
                        chunk[b::size] = row.losses[q][b::lane]
                    chunks.append(chunk)
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
