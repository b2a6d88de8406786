"""Exact integer certificates against training-set poisoning.

Everything here works on one test sample's margin table: the global vote
counts ``N_c`` over the ``kd`` classifiers and the per-partition counts
``a[c][j]`` over the ``d`` classifiers that consume partition ``j``.

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

``MarginTable`` with ``fa_radius`` and ``dpa_baseline_radius`` is the
readable reference, kept here while ``cert-acc`` and ``oracle-check`` run
it; the rest, ``dpa_radius`` and ``conditional_certified``, is in
``finiagg.reference``. ``certify_matrix``, the array kernel every report's
certificates come from, gives the same certificates without tables: every
``e_j`` is an integer in ``[0, 2d]``, so the top-m sums follow from a
``2d + 1``-bin histogram of the losses instead of a sort.
"""

from __future__ import annotations

import math
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
from .hashing import SpreadOffsets, spread
from .learners import argmax


@dataclass(frozen=True)
class MarginTable:
    """Vote statistics of one test sample, global and per partition."""

    prediction: int
    kd: int
    d: int
    n_classes: int
    global_counts: tuple[int, ...]
    partition_counts: tuple[tuple[int, ...], ...]  # [class][partition]

    def __post_init__(self):
        if sum(self.global_counts) != self.kd:
            raise DataError("global vote counts do not sum to kd")
        for j in range(self.kd):
            if sum(self.partition_counts[c][j] for c in range(self.n_classes)) != self.d:
                raise DataError(f"partition {j}: per-class counts do not sum to d")
        for c in range(self.n_classes):
            if sum(self.partition_counts[c]) != self.d * self.global_counts[c]:
                raise DataError(f"class {c}: partition counts do not sum to d * N_c")

    def rhs(self, challenger: int) -> int:
        """Integer margin against ``challenger``, tie-break included."""
        c = self.prediction
        return (
            self.global_counts[c]
            - self.global_counts[challenger]
            - (1 if challenger < c else 0)
        )

    def delta_elements(self, challenger: int, scope: Iterable[int] | None = None) -> list[int]:
        """Worst-case margin losses ``e_j``, sorted descending.

        ``scope`` restricts the partitions an adversary may touch; the
        default is all of them.
        """
        c = self.prediction
        a_c = self.partition_counts[c]
        a_q = self.partition_counts[challenger]
        js = range(self.kd) if scope is None else scope
        return sorted((self.d + a_c[j] - a_q[j] for j in js), reverse=True)


def margin_table(row: Sequence[int], offsets: SpreadOffsets, n_classes: int) -> MarginTable:
    """Tabulate one vote row into global and per-partition counts.

    The table has a row for every one of the ``n_classes`` classes; when
    they cannot be allocated, ``LimitError`` says so.
    """
    kd = offsets.kd
    d = offsets.d
    try:
        counts = [0] * n_classes
        per_part = [[0] * kd for _ in range(n_classes)]
    except (MemoryError, OverflowError):
        raise LimitError(f"a margin table of {n_classes} classes does not fit in memory") from None
    for v in row:
        counts[v] += 1
    for j in range(kd):
        for i in spread(j, offsets):
            per_part[row[i]][j] += 1
    return MarginTable(
        argmax(counts),
        kd,
        d,
        n_classes,
        tuple(counts),
        tuple(tuple(r) for r in per_part),
    )


def _scan_radius(elements_desc: Sequence[int], rhs: int) -> int:
    """Largest m whose top-m element sum stays within rhs.

    Elements are non-negative, so prefix sums are nondecreasing and a linear
    scan suffices.
    """
    total = 0
    m = 0
    for e in elements_desc:
        total += e
        if total > rhs:
            break
        m += 1
    return m


def fa_radius(table: MarginTable, label: int | None = None) -> int:
    """Certified radius from the per-partition margin statistics.

    For each challenger, the radius is the largest budget whose worst-case
    margin loss (top-m sum of the delta multiset) stays within the integer
    margin; the sample's radius is the minimum over challengers, capped at
    ``kd``. Returns -1 when a label is supplied and the prediction misses it.
    """
    c = table.prediction
    if label is not None and c != label:
        return -1
    radius = table.kd
    for cp in range(table.n_classes):
        if cp == c:
            continue
        radius = min(radius, _scan_radius(table.delta_elements(cp), table.rhs(cp)))
    return radius


def dpa_baseline_radius(table: MarginTable, label: int | None = None) -> int:
    """Baseline radius over the same kd classifiers with every e_j at its cap 2d."""
    c = table.prediction
    if label is not None and c != label:
        return -1
    radius = table.kd
    for cp in range(table.n_classes):
        if cp == c:
            continue
        radius = min(radius, max(0, table.rhs(cp) // (2 * table.d)))
    return radius


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


def margin_tables(matrix: VoteMatrix) -> list[MarginTable]:
    n_classes = matrix.config.n_classes
    return [margin_table(row, matrix.offsets, n_classes) for row in matrix.votes]


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


def certify_matrix(matrix: VoteMatrix) -> list[SampleCertificate]:
    """Per-sample certificates for every row of a vote matrix, from ``_row_losses``.

    Every report's certificates come from here; ``fa_radius`` and
    ``dpa_baseline_radius`` over ``margin_tables`` are the reference this is
    checked against. A mispredicted row never sums its challengers' losses.
    """
    kd, d, labels = matrix.config.kd, matrix.config.d, matrix.labels
    certs = []
    for t, (c, n_c, challengers) in enumerate(_row_losses(matrix)):
        label = labels[t] if labels is not None else None
        if label is not None and c != label:
            certs.append(SampleCertificate(predicted=c, correct=False, dpa_radius=-1, fa_radius=-1))
            continue
        fine = base = kd
        for q, n_q, hist in challengers:
            rhs = n_c - n_q - (q < c)
            fine = min(fine, _histogram_radius(hist, rhs))
            base = min(base, rhs // (2 * d))
        certs.append(
            SampleCertificate(
                predicted=c,
                correct=None if label is None else True,
                dpa_radius=base,
                fa_radius=fine,
            )
        )
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


def certified_accuracy(
    tables: Sequence[MarginTable],
    labels: Sequence[int],
    budget: int,
    enumeration_cap: int = 10**6,
) -> tuple[Fraction, tuple[int, ...]]:
    """Worst-case test accuracy over all attacks sharing one poison set.

    Minimizes the mean conditional certificate over every partition subset Q
    of size ``min(budget, kd)``; larger scopes only weaken the certificate,
    so smaller Q never attain the minimum. Returns the minimum and the first
    Q (in lexicographic order) attaining it.

    ``finiagg.reference.conditional_certified`` is the reference for each
    row. Since Q holds exactly as many partitions as the adversary may
    touch, its top-|Q| sum is the sum over Q. A mispredicted row is never
    certified and a row whose fine radius reaches |Q| is certified under
    every Q; the others are scored for all rows at once, each Q with one
    sum of Python ints whose lanes hold every (row, challenger) margin (see
    ``_certified_accuracy``).
    """
    kd = tables[0].kd if tables else 0  # without rows, EmptyTestSet is raised before kd is read
    q_size = _shared_set_size(labels, len(tables), kd, budget, enumeration_cap)
    radii = [fa_radius(table, label) for table, label in zip(tables, labels)]
    return _certified_accuracy(tables, radii, q_size)


def _shared_set_size(labels, n_test: int, kd: int, budget: int, enumeration_cap: int) -> int:
    """``min(budget, kd)``, the size of every Q, after the checks that need no margin table, in order."""
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


def _certified_accuracy(tables, radii: Sequence[int], q_size: int):
    """``certified_accuracy``'s search over Q of ``q_size`` partitions; radius -1 is a mispredicted row.

    Lanes: every challenger of a scored row (a class with votes, or the
    smallest class without, which stands for them all) gets one ``L``-bit
    lane of a Python int, and each row one spare carry bit after its lanes.
    ``losses[j]`` holds partition j's loss ``e_j`` in every lane.

    Clamp and bias: a sum of ``q_size`` losses is at most
    ``cap = q_size * 2d < 2^(L-1)``, and a lane's bias is
    ``2^(L-1) - 1 - min(rhs, cap)``. Biased sums stay in ``[0, 2^L)``, so no
    lane carries into or borrows from the next, and a lane's top bit is set
    exactly when the sum over Q exceeds the margin.

    Fold: adding ``2^(lanes * L) - 1`` to a row's masked top bits carries
    into its spare bit iff one is set, so one ``bit_count`` counts the rows
    Q breaks. The first Q in lexicographic order that breaks the most wins.
    """
    n, kd = len(tables), tables[0].kd
    cap = q_size * 2 * tables[0].d
    width = cap.bit_length() + 1
    always = scored = 0  # rows certified under every Q, and rows some Q may break
    losses, bias, tops, fill, carries = [0] * kd, 0, 0, 0, 0
    shift = 0
    for table, radius in zip(tables, radii):
        if radius >= q_size:
            always += 1
        elif radius >= 0:
            scored += 1
            c, counts = table.prediction, table.global_counts
            a_c = table.partition_counts[c]
            absent = counts.index(0) if 0 in counts else None  # stands for every class without votes
            start = shift
            for cp, a_q in enumerate(table.partition_counts):
                if cp != c and (counts[cp] or cp == absent):
                    for j in range(kd):
                        losses[j] |= table.d + a_c[j] - a_q[j] << shift
                    bias |= (1 << width - 1) - 1 - min(table.rhs(cp), cap) << shift
                    shift += width
                    tops |= 1 << shift - 1
            fill |= (1 << shift) - (1 << start)
            carries |= 1 << shift
            shift += 1

    best_broken, best_q = -1, ()
    for q in combinations(range(kd), q_size):
        broken = ((sum(map(losses.__getitem__, q), bias) & tops) + fill & carries).bit_count()
        if broken > best_broken:
            best_broken, best_q = broken, q
            if broken == scored:
                break  # no later Q can break more rows
    return Fraction(always + scored - best_broken, n), best_q
