"""Exact array front end: the ensemble's votes from per-partition statistics.

Both built-in learners reduce a training subset to per-class label counts
and feature sums, so a partition's statistics are shared by the ``d``
classifiers that train on it: classifier ``i``'s statistics are the sum of
those of partitions ``(i - r) mod kd`` over the offsets ``r``. This module
parses a training or test CSV's body into int64 blocks of rows, folds the
training rows into (kd, C) label counts and (kd, C, F) feature sums, takes
that circulant sum, and votes with the same decision rules as the built-in
learners (``datamodel``), in NumPy arrays.

The class axis has one entry per label up to the largest training label,
not ``n_classes``: a class without samples never wins. Sums and products are
int64 while their bounds stay below 2^63 and Python ints (object arrays) past
it, so votes are exact at any magnitude, as in ``train_ensemble`` and
``collect_votes`` of ``finiagg.reference``, which these functions are
checked against; a test width unlike the training width raises
``DimensionMismatch``.
"""

from __future__ import annotations

import csv
import re
from collections import namedtuple
from typing import Iterable

import numpy as np

from .errors import DimensionMismatch
from .hashing import SpreadOffsets

INT64_LIMIT = 2**63
_TEST_BLOCK = 16  # test rows voted per (kd, 16) array
_CSV_BLOCK = 1024  # CSV lines, or parsed rows, per block
# a CSV run with any other character goes to the csv reader
_CSV_BODY = re.compile(r"[0-9+\-,\n]*")


def circulant_sum(values, shifts: Iterable[int], dtype):
    """``out[i] = sum over s in shifts of values[(i + s) mod n]``, along axis 0.

    With the offsets as shifts, a classifier-indexed array becomes the
    per-partition sum over the classifiers that consume each partition
    (``spread``); with the negated offsets, a partition-indexed array becomes
    the per-classifier sum over the partitions each classifier trains on
    (``spread_inverse``).
    """
    n = len(values)
    out = np.zeros(values.shape, dtype)
    for s in shifts:
        s %= n
        out[: n - s] += values[s:]
        out[n - s :] += values[:s]
    return out


class Statistics(namedtuple("Statistics", "counts sums max_cell")):
    """Label counts ``[i][c]``, for the centroid learner feature sums ``[i][c][f]``, and the largest cell.

    ``i`` indexes partitions or classifiers, ``c`` classes up to the largest
    label seen (at least one), ``f`` features. ``max_cell`` is the largest
    feature of any training row, 0 without rows.
    """

    __slots__ = ()


def _int64_block(lines: list[str], width: int, n_classes: int | None) -> np.ndarray | None:
    """The rows of CSV body ``lines`` as an int64 array ``(label, f0, ...)`` or ``(f0, ...)``.

    Returns None, for the caller to hand these lines and the rest to the csv
    reader, on any character but digits, ``+``, ``-``, ``,`` and LF; on a
    line longer than the csv field size limit; on a cell ``np.loadtxt``
    refuses, which within those characters is any cell but ``[+-]?[0-9]+``
    in int64; on a row not ``width`` wide; on a negative cell; and on a
    label, the first cell, at or past ``n_classes`` unless that is None.
    Blank lines are skipped, as the csv reader's rows are.
    """
    text = "".join(lines)
    if not _CSV_BODY.fullmatch(text) or max(map(len, lines)) > csv.field_size_limit():
        return None  # the csv reader refuses a field past the limit
    if text.isspace():  # only blank lines, which np.loadtxt warns about
        return np.empty((0, width), np.int64)
    try:
        rows = np.loadtxt(lines, dtype=np.int64, delimiter=",", ndmin=2)
    except ValueError:
        return None
    if rows.shape[1] != width or rows.min() < 0:
        return None
    if n_classes is not None and int(rows[:, 0].max()) >= n_classes:
        return None
    return rows


def _row_block(rows: list[tuple[int, ...]]) -> np.ndarray:
    """The csv reader's checked rows as an int64 array or, past int64, an object array of Python ints."""
    try:
        return np.array(rows, np.int64)
    except OverflowError:
        return np.array(rows, object)


def _grow(values, n_classes: int):
    """``values`` with zeros appended along the class axis (1) up to ``n_classes``."""
    # np.pad would fill an object array with np.int64 zeros, which wrap past 2^63
    out = np.zeros((len(values), n_classes, *values.shape[2:]), values.dtype)
    out[:, : values.shape[1]] = values
    return out


def partition_statistics(
    blocks: Iterable[np.ndarray], kd: int, feature_dim: int, with_sums: bool
) -> Statistics | None:
    """Fold blocks of validated rows ``(label, f0, ..., f{F-1})`` into per-partition statistics.

    Each block is an (n, 1 + F) array of non-negative cells, int64 or, from
    ``_row_block``, Python ints. A row goes to partition ``sum(features) mod
    kd``, the split hash. Row sums and feature sums are int64 until one of
    them could reach 2^63, and Python ints from that block on. Returns None
    when the arrays cannot be allocated, leaving the rest of ``blocks`` unread.
    """
    try:
        counts = np.zeros((kd, 1), np.int64)
        sums = np.zeros((kd, 1, feature_dim), np.int64) if with_sums else None
        n_rows, max_cell, max_label = 0, 0, -1
        for block in blocks:
            labels, features = block[:, 0], block[:, 1:]
            n_rows += len(block)
            max_cell = max(max_cell, int(features.max(initial=0)))
            # every row sum and partition sum is at most max(n_rows, F) * max_cell
            if max(n_rows, feature_dim) * max_cell >= INT64_LIMIT:
                features = features.astype(object, copy=False)
                if sums is not None and sums.dtype != object:
                    sums = sums.astype(object)
            max_label = max(max_label, int(labels.max(initial=-1)))
            if max_label >= counts.shape[1]:
                counts = _grow(counts, max_label + 1)
                if sums is not None:
                    sums = _grow(sums, max_label + 1)
            n_classes = counts.shape[1]
            # both no-ops on int64; every label now indexes the class axis
            key = (features.sum(axis=1) % kd).astype(np.int64, copy=False) * n_classes
            key += labels.astype(np.int64, copy=False)
            counts += np.bincount(key, minlength=counts.size).reshape(counts.shape)
            if sums is not None:
                np.add.at(sums.reshape(-1, feature_dim), key, features)
    except (MemoryError, ValueError):  # NumPy's refusals of a size; the blocks raise neither
        return None
    return Statistics(counts, sums, max_cell)


def classifier_statistics(partitions: Statistics, offsets: SpreadOffsets) -> Statistics:
    """Each classifier's statistics: the sum over the partitions ``spread_inverse`` names."""
    shifts = [-r for r in offsets.offsets]
    sums = partitions.sums
    return Statistics(
        circulant_sum(partitions.counts, shifts, np.int64),
        None if sums is None else circulant_sum(sums, shifts, sums.dtype),
        partitions.max_cell,
    )


def _centroid_dtype(max_n: int, max_cell: int, feature_dim: int):
    """int64 if no product the centroid tournament compares can reach 2^63, else object (Python ints).

    With M the largest training or test cell, ``n_c x_f`` and ``s_cf`` both
    lie in ``[0, n_c M]``, so ``|n_c x - s_c|^2 <= F (n_c M)^2`` and every
    ``num_a * n_b^2`` is at most ``F (max_n M)^2 max_n^2``.
    """
    return np.int64 if feature_dim * (max_n * max_cell) ** 2 * max_n**2 < INT64_LIMIT else object


def centroid_votes(classifiers: Statistics, test: np.ndarray) -> list[list[int]]:
    """Votes ``[t][i]`` of the nearest-centroid models on every row of the (n, F) test array.

    The squared distance of ``x`` to class c's centroid ``s_c / n_c`` is
    ``num_c / n_c^2`` with ``num_c = |n_c x - s_c|^2``. A tournament over the
    classes in index order compares them by ``num_a * n_b^2 < num_b * n_a^2``
    and skips absent classes, so ties stay with the smaller index and a
    model without samples votes 0. It runs in int64 while every compared
    product stays below 2^63 (``_centroid_dtype``), and in Python ints
    otherwise. A test array of another width than the training features
    raises ``DimensionMismatch``, as ``NearestCentroidModel.predict`` does,
    unless no model has samples or there are no test rows.
    """
    counts, sums = classifiers.counts, classifiers.sums
    kd, n_classes, feature_dim = sums.shape
    if not counts.any() or not len(test):
        return [[0] * kd for _ in range(len(test))]
    if test.shape[1] != feature_dim:
        raise DimensionMismatch(f"expected {feature_dim} features, got {test.shape[1]}")
    dtype = _centroid_dtype(int(counts.max()), max(classifiers.max_cell, int(test.max())), feature_dim)
    counts, sums, test = (a.astype(dtype, copy=False) for a in (counts, sums, test))
    den = counts * counts
    sq_sums = np.einsum("icf,icf->ic", sums, sums)
    votes = np.empty((len(test), kd), np.int64)
    for start in range(0, len(test), _TEST_BLOCK):
        x = test[start : start + _TEST_BLOCK].T  # (F, B)
        xx = (x * x).sum(axis=0)
        best = np.zeros((kd, x.shape[1]), np.int64)
        best_num = best_den = np.zeros((kd, x.shape[1]), dtype)
        have = np.zeros((kd, 1), bool)
        for c in range(n_classes):
            n_c, den_c = counts[:, c : c + 1], den[:, c : c + 1]
            # |n x - s|^2 = n^2 |x|^2 - 2 n (s . x) + |s|^2; a partial sum may wrap,
            # but int64 arithmetic is exact modulo 2^64 and the total is below 2^63
            num = sums[:, c] @ x
            num *= -2 * n_c
            num += den_c * xx
            num += sq_sums[:, c : c + 1]
            win = (n_c > 0) & (~have | (num * best_den < best_num * den_c))
            best = np.where(win, c, best)
            best_num = np.where(win, num, best_num)
            best_den = np.where(win, den_c, best_den)
            have = have | (n_c > 0)
        votes[start : start + x.shape[1]] = best.T
    return votes.tolist()
