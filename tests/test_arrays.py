"""The array front end of ``--dataset`` runs against train_ensemble + collect_votes."""

import random
import tempfile
from math import isqrt
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from finiagg import (
    AggregationConfig,
    LearnerSpec,
    collect_votes,
    generate_offsets,
    spread,
    spread_inverse,
    train_ensemble,
    validate_dataset,
)
from finiagg import arrays, cli
from finiagg.arrays import _row_block, circulant_sum, partition_statistics
from finiagg.hashing import SpreadOffsets

LEARNERS = {"majority": "majority-label", "centroid": "nearest-centroid"}
LIMIT = 2**63


@settings(max_examples=60, deadline=None)
@given(kd=st.integers(1, 12), width=st.integers(1, 3), data=st.data())
def test_circulant_sum_sums_over_spread_and_spread_inverse(kd, width, data):
    d = data.draw(st.integers(1, kd))
    offsets = SpreadOffsets(tuple(data.draw(st.permutations(range(kd)))[:d]), kd)
    cells = st.lists(st.integers(-50, 50), min_size=width, max_size=width)
    values = np.array(data.draw(st.lists(cells, min_size=kd, max_size=kd)), dtype=np.int64)
    per_partition = circulant_sum(values, offsets.offsets, np.int64)
    per_classifier = circulant_sum(values, [-r for r in offsets.offsets], np.int64)
    for j in range(kd):
        assert per_partition[j].tolist() == sum(values[i] for i in spread(j, offsets)).tolist()
        assert per_classifier[j].tolist() == sum(values[p] for p in spread_inverse(j, offsets)).tolist()


def _write_csv(path: Path, rows, width: int, labeled: bool) -> None:
    names = [f"f{i}" for i in range(width)]
    lines = [",".join((["label"] if labeled else []) + names)]
    lines += [",".join(map(str, row)) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _cli_votes(train_rows, test_inputs, width, k, d, seed, learner, n_classes):
    """Votes that ``--save-votes`` writes, and whether the block reader refused a block of the training CSV."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        _write_csv(tmp / "train.csv", train_rows, width, True)
        _write_csv(tmp / "test.csv", test_inputs, width, False)
        argv = ["curve", "--dataset", tmp / "train.csv", "--test", tmp / "test.csv",
                "--k", k, "--d", d, "--seed", seed, "--learner", learner,
                "--save-votes", tmp / "votes.json", "--out", tmp / "curve.csv"]
        if n_classes is not None:
            argv += ["--n-classes", n_classes]
        int64_block, text_lines, refused, reading = arrays._int64_block, cli._text_lines, [], []

        def read(path):  # the training CSV is read to its end before the test CSV is opened
            reading.append(str(path))
            return text_lines(path)

        def record(*args):
            block = int64_block(*args)
            if reading[-1] == str(tmp / "train.csv"):
                refused.append(block is None)
            return block

        with mock.patch.object(arrays, "_int64_block", record), mock.patch.object(cli, "_text_lines", read):
            assert cli.main([str(a) for a in argv]) == 0
        matrix = cli.load_votes(tmp / "votes.json")
        return matrix.votes, any(refused)


def _reference(train_rows, test_inputs, width, k, d, seed, learner, n_classes):
    dataset = validate_dataset(train_rows, n_classes, width)
    config = AggregationConfig(k=k, d=d, n_classes=dataset.n_classes)
    offsets = generate_offsets(k, d, seed)
    models = train_ensemble(dataset, config, LearnerSpec(LEARNERS[learner]), offsets)
    return collect_votes(models, test_inputs, config, offsets).votes, models


def _centroid_bound_args(train_rows, test_inputs, width, models):
    """``arrays._centroid_dtype``'s arguments: the largest class count of any reference model, the
    largest training or test cell M, and the feature count F."""
    max_cell = max(v for rows in ([row[1:] for row in train_rows], test_inputs) for row in rows for v in row)
    return max(max(m.class_counts) for m in models), max_cell, width


def _int64_guards(learner, train_rows, test_inputs, width, models):
    """What the front end must keep below 2^63, as (value, its power of a common feature scale).

    Computed from the reference models: every row and partition sum is at most
    ``max(n_rows, F) * max cell``, and the centroid tournament's products at
    most ``F * (max n * M)^2 * (max n)^2``, ``arrays._centroid_dtype``'s bound.
    """
    max_cell = max((v for row in train_rows for v in row[1:]), default=0)
    guards = [(max(len(train_rows), width) * max_cell, 1)]
    if learner == "centroid" and train_rows:
        max_n, m, f = _centroid_bound_args(train_rows, test_inputs, width, models)
        guards.append((f * (max_n * m) ** 2 * max_n**2, 2))
    return guards


def _scale_to_bound(guards, kd, side):
    """A factor s = 1 mod kd, which keeps every partition, that puts the input next to the bound.

    ``below`` is the largest such factor the last guard admits, ``past`` the
    next one, and ``beyond`` makes cells too large for int64 at all.
    """
    if side == "beyond":
        return 1 + kd * LIMIT
    unit, power = guards[-1]
    if unit == 0:
        return 1
    largest = (LIMIT - 1) // unit if power == 1 else isqrt((LIMIT - 1) // unit)
    return 1 + kd * ((largest - 1) // kd + (side == "past"))


@st.composite
def _cases(draw):
    k, d = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    width, n_classes = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    features = st.lists(st.integers(0, 4), min_size=width, max_size=width)
    # rows drawn from a small pool, so duplicates, hash collisions and ties are common
    pool = draw(st.lists(st.tuples(st.integers(0, n_classes - 1), features), min_size=1, max_size=6))
    train_rows = [(label, *f) for label, f in draw(st.lists(st.sampled_from(pool), max_size=14))]
    test_inputs = [tuple(x) for x in draw(st.lists(features, min_size=1, max_size=4))]
    return (
        train_rows, test_inputs, width, k, d, draw(st.integers(0, 3)),
        draw(st.sampled_from(sorted(LEARNERS))),
        n_classes if not train_rows or draw(st.booleans()) else None,
        draw(st.sampled_from(["small", "below", "past", "beyond"])),
    )


TIE = ([(1, 1), (0, 3), (2, 5)], [(2,), (4,)], 1, 1, 1, 0, "centroid", None, "small")
TIE_2D = ([(1, 0, 2), (0, 2, 0), (0, 2, 0)], [(1, 1)], 2, 1, 1, 0, "centroid", 3, "below")


@settings(max_examples=200, deadline=None)
@given(_cases())
@example(TIE)  # x = 2 is as near class 1's centroid 1 as class 0's 3: class 0 wins
@example(TIE_2D)
@example(([(0, 1, 1)] * 3, [(0, 0)], 2, 4, 3, 1, "centroid", 2, "small"))  # empty models
@example(([], [(1, 2)], 2, 2, 2, 0, "majority", 3, "small"))  # no training rows
@example(([(0, 7), (1, 7)], [(7,)], 1, 1, 1, 0, "centroid", None, "past"))
@example(([(0, 7), (1, 7)], [(7,)], 1, 1, 1, 0, "majority", None, "past"))
def test_front_end_votes_equal_the_reference(case):
    train_rows, test_inputs, width, k, d, seed, learner, n_classes, side = case
    if side != "small":
        _, models = _reference(train_rows, test_inputs, width, k, d, seed, learner, n_classes)
        guards = _int64_guards(learner, train_rows, test_inputs, width, models)
        s = _scale_to_bound(guards, k * d, side)
        train_rows = [(row[0], *(v * s for v in row[1:])) for row in train_rows]
        test_inputs = [tuple(v * s for v in x) for x in test_inputs]
    want, models = _reference(train_rows, test_inputs, width, k, d, seed, learner, n_classes)
    fits = all(v < LIMIT for v, _ in _int64_guards(learner, train_rows, test_inputs, width, models))
    if side == "below":
        assert fits
    if side == "past" and any(v for row in train_rows for v in row[1:]):
        assert not fits
    if side in ("below", "past") and learner == "centroid" and train_rows:
        args = _centroid_bound_args(train_rows, test_inputs, width, models)
        if side == "below" or args[1]:  # a past side without a nonzero cell was not scaled
            assert arrays._centroid_dtype(*args) is (np.int64 if side == "below" else object)
    got, took_csv_reader = _cli_votes(train_rows, test_inputs, width, k, d, seed, learner, n_classes)
    assert got == want
    assert took_csv_reader == any(v >= LIMIT for row in train_rows for v in row[1:])


def test_front_end_votes_equal_the_reference_on_criterion_7_workload():
    rng = random.Random(6)
    means = [(25, 25), (45, 22), (32, 45)]

    def draw(cls):
        mx, my = means[cls]
        return (max(0, round(rng.gauss(mx, 14))), max(0, round(rng.gauss(my, 14))))

    train_rows = [(i % 3, *draw(i % 3)) for i in range(600)]
    test_inputs = [draw(i % 3) for i in range(300)]
    for d in (1, 2, 4):
        for learner in LEARNERS:
            args = (train_rows, test_inputs, 2, 10, d, 2, learner, 3)
            got, took_csv_reader = _cli_votes(*args)
            assert not took_csv_reader
            assert got == _reference(*args)[0]


def _assert_exact_python_int_sums(stats, rows, kd):
    """Every feature sum in ``stats`` is a Python int, equal to the sum of the rows' cells."""
    n_classes = 1 + max(row[0] for row in rows)
    want = [[[0] * (len(rows[0]) - 1) for _ in range(n_classes)] for _ in range(kd)]
    for label, *features in rows:
        for f, v in enumerate(features):
            want[sum(features) % kd][label][f] += v
    assert stats.sums.dtype == object
    assert all(type(v) is int for v in stats.sums.flat)
    assert stats.sums.tolist() == want


def test_sums_switch_to_python_ints_mid_stream_and_then_the_class_axis_grows(tmp_path):
    # one block of small cells and labels 0-2, then label 5 with two cells of 2^62 + 1 in one
    # partition: the second block makes the sums Python ints, then adds classes 3-5
    big, kd = 2**62 + 1, 6
    rows = [(i % 3, i % 7, i % 5) for i in range(1024)] + [(5, big, 0), (4, 1, 2), (5, big, 0)]
    blocks = [np.array(rows[:1024], np.int64), np.array(rows[1024:], np.int64)]
    stats = partition_statistics(blocks, kd, 2, True)
    _assert_exact_python_int_sums(stats, rows, kd)
    assert stats.sums[big % kd, 5].tolist() == [2 * big, 0]  # past int64
    # the csv reader's rows, with a cell past int64 in the second block, fold the same way
    past = [*rows, (4, 2**64, 0)]
    stats = partition_statistics([_row_block(past[:1024]), _row_block(past[1024:])], kd, 2, True)
    _assert_exact_python_int_sums(stats, past, kd)

    test_inputs = [(big, 0), (1, 2), (0, 0)]
    _write_csv(tmp_path / "train.csv", rows, 2, True)
    _write_csv(tmp_path / "test.csv", test_inputs, 2, False)
    for learner in LEARNERS:
        args = ["certify", "--dataset", tmp_path / "train.csv", "--test", tmp_path / "test.csv",
                "--k", 3, "--d", 2, "--learner", learner, "--save-votes", tmp_path / "votes.json",
                "--out", tmp_path / "report.json"]
        assert cli.main([str(a) for a in args]) == 0
        got = cli.load_votes(tmp_path / "votes.json").votes
        assert got == _reference(rows, test_inputs, 2, 3, 2, 0, learner, None)[0]


def test_centroid_dtype_is_int64_exactly_below_2_to_the_63():
    """``F * (max_n * M)^2 * max_n^2 < 2^63`` decides, with M the largest cell, at the edge of each factor."""
    edge = isqrt(LIMIT - 1)  # edge^2 < 2^63 <= (edge + 1)^2
    assert arrays._centroid_dtype(1, edge, 1) is np.int64
    assert arrays._centroid_dtype(1, edge + 1, 1) is object
    assert arrays._centroid_dtype(1024, 2896, 1) is np.int64  # 2^40 * 2896^2 < 2^63
    assert arrays._centroid_dtype(1024, 2897, 1) is object
    assert arrays._centroid_dtype(1, 2**30, 7) is np.int64  # 7 * 2^60
    assert arrays._centroid_dtype(1, 2**30, 8) is object  # 8 * 2^60 = 2^63
    assert arrays._centroid_dtype(2**10, 2**10, 7) is np.int64  # 7 * 2^40 * 2^20
    assert arrays._centroid_dtype(2**10, 2**10, 8) is object


@pytest.mark.parametrize("rows, tests, dtype", [
    # 1,024 rows of cell 0 against 1,024 of cell M, voted at x = M: num_0 * n_1^2 = 2^40 M^2 is the bound
    ([(0, 0)] * 1024 + [(1, 2896)] * 1024, [(2896,), (1448,), (0,), (1449,)], np.int64),
    ([(0, 0)] * 1024 + [(1, 2897)] * 1024, [(2897,), (1448,), (0,), (1449,)], object),
    # large sums from small cells: the feature sums reach 2,000, the cells only 1
    ([(0, 0, 1)] * 2000 + [(1, 1, 0)] * 2000 + [(2, 1, 1)], [(0, 1), (1, 0), (1, 1), (0, 0)], np.int64),
])
def test_centroid_votes_take_int64_exactly_while_the_bound_holds(rows, tests, dtype):
    """Votes in the dtype the largest cell and count decide, equal to the reference trainer's on each side."""
    judged = []

    def record(*args):
        judged.append(centroid_dtype(*args))
        return judged[-1]

    centroid_dtype, width = arrays._centroid_dtype, len(tests[0])
    with mock.patch.object(arrays, "_centroid_dtype", record):
        got, _ = _cli_votes(rows, tests, width, 1, 1, 0, "centroid", None)
    assert judged == [dtype]
    assert got == _reference(rows, tests, width, 1, 1, 0, "centroid", None)[0]
