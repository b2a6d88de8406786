"""Command-line interface and file formats.

Formats
-------
Dataset CSV: header ``label,f0,...,f{n-1}``, integer cells (ASCII digits,
optional sign), UTF-8; CRLF and CR line ends are read as LF. Test CSVs may
drop the label column (header ``f0,...``). Each CSV is read line by line from
its open file, never held whole; a byte that is not UTF-8 fails the cell or
header name that holds it.

Vote-matrix JSON::

    {"k": int, "d": int, "offsets": [int], "n_classes": int,
     "labels": [int]?, "votes": [[int; kd]]}

Offsets are embedded so certification never re-derives them from a seed;
there must be exactly ``d`` of them, and every number must be a JSON integer.

All fractions in JSON reports appear both as exact ``"num/den"`` strings
and as advisory floats. Exit codes: 0 success, 1 usage, 2 data error,
3 limit exceeded, 4 soundness violation.
"""

from __future__ import annotations

import argparse
import bisect
import csv
import functools
import itertools
import json
import operator
import os
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .certifier import (
    ENUMERATION_CAP, RowLosses, _certified_accuracy, _shared_set_size, _vote_losses, build_report,
)
from .datamodel import (
    MAJORITY_LABEL, NEAREST_CENTROID, AggregationConfig, Dataset, LabeledSample, LearnerSpec, VoteMatrix,
    byte_width, check_row, pack, unpack, validate_dataset,
)
from .errors import (
    DataError,
    EmptyTestSet,
    FiniteAggError,
    LimitError,
    MissingLabels,
    SoundnessViolation,
    UsageError,
)
from .hashing import SpreadOffsets, generate_offsets
from .infinite_aggregation import DEFAULT_LIMIT as IA_LIMIT, ia_radius, ia_vote_distributions
from .oracle import DEFAULT_LIMIT as ORACLE_LIMIT, verify_certificates

# short names for --learner; LearnerSpec decides whether any other name is a learner kind
_LEARNER_ALIASES = {"majority": MAJORITY_LABEL, "centroid": NEAREST_CENTROID}


_INT_CELL = re.compile(r"[+-]?[0-9]+")
_CURVE_CHUNK = 1024  # the most curve points in one text, so a long run's text stays small


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are exit 1
        raise UsageError(message)


# ---------------------------------------------------------------------------
# file formats


def read_dataset_csv(path: str | Path, n_classes: int | None = None) -> Dataset:
    train = _CSV(path, n_classes)
    samples = tuple(LabeledSample(row[1:], row[0]) for row in train.rows())
    return Dataset(samples, train.n_classes, train.feature_dim)


def read_test_csv(path: str | Path, n_classes: int) -> tuple[list[tuple[int, ...]], list[int] | None]:
    """Read test inputs, and labels in ``[0, n_classes)`` if any; returns (feature rows, labels or None)."""
    test = _CSV(path, n_classes, test=True)
    rows = list(test.rows())
    if not test.labeled:
        return rows, None
    return [row[1:] for row in rows], [row[0] for row in rows]


def _read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def _text_lines(path: str | Path):
    """Yield the lines of the file at ``path`` as they are read, CRLF and CR read as LF.

    A byte that is not UTF-8 reads as U+FFFD, which no cell or header name matches. The file is
    closed when its lines run out or the generator is dropped.
    """
    try:
        with open(path, encoding="utf-8", errors="replace") as file:
            yield from file
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def _read_header(reader, path: str | Path) -> tuple[int, bool]:
    """Check the header row; returns (feature count, has a label column)."""
    try:
        header = next(reader, [])
    except csv.Error as exc:
        raise DataError(f"{path}: {exc}") from exc
    if not header:
        raise DataError(f"{path}: missing header")
    header = [h.strip() for h in header]
    labeled = header[0] == "label"
    feature_names = header[1:] if labeled else header
    expected = [f"f{i}" for i in range(len(feature_names))]
    if feature_names != expected:
        raise DataError(
            f"{path}: header must be 'label,f0,...' or 'f0,...', got {','.join(header)}"
        )
    return len(feature_names), labeled


def _int_rows(reader, path: str | Path, first: int = 0):
    """Yield each non-blank row as a tuple of ints, numbered from ``first``; blank rows are not numbered."""
    try:
        for idx, cells in enumerate(filter(None, reader), first):
            # int() would also accept " 3", "1_0" and non-ASCII digits
            if not all(map(_INT_CELL.fullmatch, cells)):
                raise DataError(f"{path}: row {idx} has a non-integer cell")
            try:
                row = tuple(map(int, cells))
            except ValueError:  # more digits than sys.get_int_max_str_digits()
                limit = sys.get_int_max_str_digits()
                raise LimitError(f"{path}: row {idx} has a cell of more than {limit} digits") from None
            yield row
    except csv.Error as exc:
        raise DataError(f"{path}: {exc}") from exc


class _CSV:
    """A training or test CSV read once, front to back, from its open file: the header, then
    ``rows()`` or ``blocks()``. A byte that is not UTF-8 is a non-integer cell or a bad header.

    Both yield the rows ``(label, f0, ...)``, or ``(f0, ...)`` for a test CSV without labels, and
    raise errors in this order: a malformed record or non-integer cell anywhere, then the first
    row ``check_row`` refuses, then the end checks. A training CSV's rows are checked with their
    labels against ``n_classes``; its end checks are the class count's, after which ``n_classes``
    is set. A test CSV's rows are checked with label 0, its errors name the file, and its end
    check is the first label outside ``[0, n_classes)``.
    """

    def __init__(self, path: str | Path, n_classes: int | None, test: bool = False):
        self._lines, self._path, self.n_classes, self._test = _text_lines(path), path, n_classes, test
        reader = csv.reader(self._lines)  # takes the header record's lines, and no more
        self.feature_dim, self.labeled = _read_header(reader, path)
        if not (test or self.labeled):
            for _ in _int_rows(reader, path):  # every cell is checked first
                pass
            raise DataError(f"{path}: training data needs a label column")

    def rows(self, head: Sequence[str] = (), first: int = 0, max_label: int = -1):
        """The csv reader's rows of ``head`` and the unread lines, numbered from ``first``;
        ``max_label`` is the largest label of the rows before them."""
        rows = _int_rows(csv.reader(itertools.chain(head, self._lines)), self._path, first)
        classes = None if self._test else self.n_classes  # a test CSV's labels are checked after every row
        bad_label = None  # a test CSV's first label outside [0, n_classes)
        for idx, row in enumerate(rows, first):
            label = row[0] if self.labeled else 0
            try:
                check_row(idx, 0 if self._test else label, row[self.labeled:], classes, self.feature_dim)
            except DataError as exc:
                for _ in rows:  # raises a later row's non-integer cell or malformed record
                    pass
                if self._test:
                    exc.args = (f"{self._path}: {exc}",)
                raise
            if self._test and bad_label is None and not 0 <= label < self.n_classes:
                bad_label = DataError(f"{self._path}: row {idx}: label {label} outside [0, {self.n_classes})")
            max_label = max(max_label, label)
            yield row
        if bad_label is not None:
            raise bad_label
        if not self._test:
            if self.n_classes is None and max_label >= 0:
                self.n_classes = max_label + 1
            validate_dataset((), self.n_classes, self.feature_dim)  # the class count's and width's checks

    def blocks(self):
        """The rows in arrays: runs of 1,024 lines that ``arrays._int64_block`` parses, then
        ``rows()`` from the first run it refuses."""
        from . import arrays  # imports numpy, which `import finiagg.cli` must not

        n_rows, max_label = 0, -1
        width = self.labeled + self.feature_dim
        while run := list(itertools.islice(self._lines, arrays._CSV_BLOCK)):
            block = arrays._int64_block(run, width, self.n_classes if self.labeled else None)
            if block is None:
                break
            n_rows, max_label = n_rows + len(block), max(max_label, int(block[:, 0].max(initial=-1)))
            yield block
        rows = self.rows(run, n_rows, max_label)  # no quote precedes the run
        while chunk := list(itertools.islice(rows, arrays._CSV_BLOCK)):
            yield arrays._row_block(chunk)


def votes_to_json(matrix: VoteMatrix) -> str:
    """The vote-matrix JSON, one field per line and one vote row per line."""
    fields: dict = {
        "k": matrix.config.k,
        "d": matrix.config.d,
        "offsets": list(matrix.offsets.offsets),
        "n_classes": matrix.config.n_classes,
    }
    if matrix.labels is not None:
        fields["labels"] = list(matrix.labels)
    head = "".join(f"  {json.dumps(key)}: {json.dumps(value)},\n" for key, value in fields.items())
    rows = ",\n".join(f"    {json.dumps(list(unpack(row, matrix.config.kd)))}" for row in matrix.votes)
    return "{\n" + head + '  "votes": [\n' + rows + "\n  ]\n}\n"


def _json_int(value, field: str) -> int:
    # exact type: true is an int subclass, and int() would truncate 1.7 or parse "3"
    if type(value) is not int:
        raise DataError(f"vote-matrix JSON field {field!r}: {value!r} is not an integer")
    return value


def _json_ints(values, field: str, bools: bool):  # values themselves, not a copy
    try:  # without true or false in the text no value is a bool, so an int sum proves them all ints, in C
        if set(map(type, values)) <= {int} if bools else type(sum(values)) is int:
            return values
    except (TypeError, OverflowError):  # a str, None, list or dict; or a float and an int too large for one
        pass
    for v in values:  # only on failure: name the first offending value
        _json_int(v, field)
    return values


def votes_from_json(text: str, source: str | Path = "vote-matrix JSON") -> VoteMatrix:
    """The vote matrix in ``text``; the text is dropped once parsed, and each row's list once its bytes exist."""
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise DataError(f"invalid vote-matrix JSON: {exc}") from exc
    except ValueError:  # json, like int(), refuses past sys.get_int_max_str_digits()
        raise LimitError(f"{source}: an integer has more than {sys.get_int_max_str_digits()} digits") from None
    bools = "true" in text or "false" in text
    del text
    try:
        k, d = _json_int(obj["k"], "k"), _json_int(obj["d"], "d")
        offsets = SpreadOffsets(tuple(_json_ints(obj["offsets"], "offsets", bools)), k * d)
        n_classes = _json_int(obj["n_classes"], "n_classes")
        rows = list(obj.pop("votes"))  # the only reference to each row's list
        for row in rows:
            _json_ints(row, "votes", bools)
        raw_labels = obj.get("labels")
        labels = tuple(_json_ints(raw_labels, "labels", bools)) if raw_labels is not None else None
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"vote-matrix JSON missing or malformed field: {exc}") from exc
    config = AggregationConfig(k=k, d=d, n_classes=n_classes)
    rows.reverse()  # popped from the end, so each list is dropped once VoteMatrix has packed it
    return VoteMatrix((rows.pop() for _ in range(len(rows))), config, offsets, labels)


def load_votes(path: str | Path) -> VoteMatrix:
    return votes_from_json(_read_text(path), path)


def _frac(fr: Fraction) -> dict:
    return {"exact": f"{fr.numerator}/{fr.denominator}", "float": float(fr)}


def _write(path: str | None, write) -> None:
    """Call ``write(stream)`` on ``path``, or on stdout and flush it; an OSError is a DataError."""
    try:
        if path is None:
            write(sys.stdout)
            sys.stdout.flush()
            return
        with open(path, "w", encoding="utf-8") as out:
            write(out)
    except OSError as exc:
        if path is None:
            _discard_stdout()
        raise DataError(f"cannot write {'stdout' if path is None else path}: {exc}") from exc


def _discard_stdout() -> None:
    """Point stdout's file descriptor at the null device, so the flush at exit cannot fail again."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # no file descriptor, so nothing is flushed to one at exit
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def _write_text(path: str | None, text: str) -> None:
    _write(path, lambda out: out.write(text))


def _write_json(path: str | None, obj) -> None:
    # json.dump writes chunk by chunk from a pure-Python encoder; certify writes its curve itself
    def dump(out) -> None:
        json.dump(obj, out, indent=2)
        out.write("\n")

    _write(path, dump)


def _by_step(curve: Sequence[Fraction], encode, between: str = ""):
    """Yield the texts of the points m, ``head + str(m) + tail`` for ``head, tail = encode(curve[m])``, joined
    by ``between``: ``encode`` once per run of one ``Fraction``, and one ``join`` per ``_CURVE_CHUNK`` points.
    The curve is ``certified_fraction_curve``'s: non-increasing, one object per fraction, so each run is
    one bisection on identity."""
    m = 0
    while m < len(curve):
        end = bisect.bisect(curve, False, m, key=functools.partial(operator.is_not, curve[m]))
        head, tail = encode(curve[m])
        for start in range(m, end, _CURVE_CHUNK):  # repr of an int is its str, and faster to call
            yield head + (tail + between + head).join(map(repr, range(start, min(start + _CURVE_CHUNK, end)))) + tail
        m = end


def curve_csv(curve: Sequence[Fraction]) -> str:
    return "attack_size,certified_fraction\n" + "".join(_by_step(curve, lambda frac: ("", f",{float(frac)!r}\n")))


def _curve_point(frac: Fraction) -> tuple[str, str]:
    """A certify report curve point's text before and after its attack size, as ``json.dump(indent=2)`` writes it."""
    fraction = json.dumps(_frac(frac), indent=2).replace("\n", "\n      ")
    return '{\n      "attack_size": ', f',\n      "certified_fraction": {fraction}\n    }}'


# ---------------------------------------------------------------------------
# pipeline helpers


def _matrix_from_args(args) -> VoteMatrix:
    if args.votes is not None:
        if args.dataset is not None or args.test is not None:
            raise UsageError("--votes excludes --dataset/--test")
        return load_votes(args.votes)
    if args.dataset is None or args.test is None:
        raise UsageError("need either --votes or both --dataset and --test")
    kind = LearnerSpec(_LEARNER_ALIASES.get(args.learner, args.learner)).kind
    # read each CSV once: a pipe or FIFO cannot be read again
    train = _CSV(args.dataset, args.n_classes)
    blocks = train.blocks()
    import numpy as np

    from . import arrays

    stats = None
    if args.k >= 1 and args.d >= 1 and train.feature_dim >= 1:  # else an error below says why
        stats = arrays.partition_statistics(blocks, args.k * args.d, train.feature_dim, kind == NEAREST_CENTROID)
    for _ in blocks:  # what the fold left unread, so the CSV's own errors come first
        pass
    # then the test CSV and the layout, and only then a refused allocation
    test = _CSV(args.test, train.n_classes, test=True)
    rows = np.concatenate([np.empty((0, test.labeled + test.feature_dim), np.int64), *test.blocks()])
    features = rows[:, test.labeled:]
    labels = tuple(rows[:, 0].tolist()) if test.labeled else None  # Python ints, which json writes
    config = AggregationConfig(k=args.k, d=args.d, n_classes=train.n_classes)
    offsets = generate_offsets(args.k, args.d, args.seed, args.dpa_compatible)
    if stats is None:
        raise LimitError(f"the per-class statistics of {config.kd} partitions do not fit in memory")
    # rebound, so the partition statistics are freed before the models vote
    stats = arrays.classifier_statistics(stats, offsets)
    if kind == MAJORITY_LABEL:  # every test row gets the same votes: one row, packed once and shared
        width = byte_width(config.n_classes - 1, "class indices")
        votes = (pack(stats.counts.argmax(axis=1).tolist(), width),) * len(features)
    else:
        votes = arrays.centroid_votes(stats, features)
    matrix = VoteMatrix(votes, config, offsets, labels)
    del stats, votes, rows, features  # freed before the matrix is written or certified
    if args.save_votes:
        _write_text(args.save_votes, votes_to_json(matrix))
    return matrix


def _delta_rows(matrix: VoteMatrix):
    """Each row's ``delta_multisets`` entry, as ``json.dump(indent=2)`` writes it two levels deep.

    Elements are losses in descending order, loss e written once per
    partition whose loss is e; the classes without votes share one text.
    Every row has one entry per class, so a class count that a list of that
    length could not hold is refused here, before any row is made.

    Each row runs ``_vote_losses`` again, after ``certify_matrix`` has: the
    report writes every certificate before the first delta, so one pass
    would hold every row's losses until then, about 173 KB a row at
    kd = 19,200 with 10 classes.
    """
    n_classes, top = matrix.config.n_classes, 2 * matrix.config.d
    try:
        [None] * n_classes  # one entry per class
    except (MemoryError, OverflowError):
        raise LimitError(f"a margin table of {n_classes} classes does not fit in memory") from None

    def elements(lanes: Sequence[int]) -> str:
        return "".join(f"\n            {e}," * lanes.count(e) for e in range(top, -1, -1))[:-1]

    def entry(row: RowLosses) -> str:
        c = row.prediction
        listed = {q: elements(row.lanes(q)) for q in row.challengers()}
        without_votes = next((q for q in listed if row.counts[q] == 0), None)
        delta = []
        for q in range(n_classes):
            if q != c:
                delta.append(
                    f'\n        {{\n          "challenger": {q},\n          "rhs": {row.rhs(q)},'
                    f'\n          "elements": [{listed[q if q in listed else without_votes]}\n          ]\n        }}'
                )
        delta_text = f'[{",".join(delta)}\n      ]' if delta else "[]"
        return f'{{\n      "prediction": {c},\n      "delta": {delta_text}\n    }}'

    return (entry(_vote_losses(votes, matrix.offsets, n_classes)) for votes in matrix.votes)


# ---------------------------------------------------------------------------
# subcommands


def cmd_certify(args) -> int:
    matrix = _matrix_from_args(args)
    max_attack = args.max_attack_size if args.max_attack_size is not None else matrix.config.kd
    deltas = _delta_rows(matrix) if args.verbose else None
    report = build_report(matrix, max_attack)
    obj: dict = {
        "command": "certify",
        "k": matrix.config.k,
        "d": matrix.config.d,
        "kd": matrix.config.kd,
        "n_classes": matrix.config.n_classes,
        "offsets": list(matrix.offsets.offsets),
        "n_test": matrix.n_test,
    }
    if report.ensemble is not None:
        obj["ensemble_stats"] = {
            "clean_accuracy": _frac(report.ensemble.clean_accuracy),
            "base_accuracy": _frac(report.ensemble.base_accuracy),
        }
    elif args.stats:
        raise MissingLabels("--stats")
    obj["radius_stats"] = {
        "pr_radius_up": _frac(report.stats.pr_radius_up),
        "mean_delta_r": _frac(report.stats.mean_delta_r),
    }
    obj["certificates"] = [
        {
            "predicted": c.predicted,
            "correct": c.correct,
            "fa_radius": c.fa_radius,
            "dpa_radius": c.dpa_radius,
        }
        for c in report.certificates
    ]
    head = json.dumps(obj, indent=2).removesuffix("\n}")

    def write(out) -> None:  # json.dump(indent=2)'s bytes; no long list is encoded as one string
        def entry(key: str, items) -> None:  # a list-valued key, from each item's text two levels deep
            sep = f',\n  "{key}": [\n    '
            for text in items:
                out.write(sep + text)
                sep = ",\n    "
            out.write("\n  ]")

        out.write(head)
        entry("curve", _by_step(report.curve, _curve_point, ",\n    "))
        if deltas is not None:
            entry("delta_multisets", deltas)
        out.write("\n}\n")

    _write(args.out, write)
    if args.curve:
        _write_text(args.curve, curve_csv(report.curve))
    return 0


def cmd_curve(args) -> int:
    matrix = _matrix_from_args(args)
    max_attack = args.max_attack_size if args.max_attack_size is not None else matrix.config.kd
    _write_text(args.out, curve_csv(build_report(matrix, max_attack).curve))
    return 0


def cmd_compare(args) -> int:
    matrix = _matrix_from_args(args)
    stats = build_report(matrix, 0).stats
    _write_json(
        args.out,
        {
            "command": "compare",
            "n_test": matrix.n_test,
            "pr_radius_up": _frac(stats.pr_radius_up),
            "mean_delta_r": _frac(stats.mean_delta_r),
        },
    )
    return 0


def cmd_cert_acc(args) -> int:
    matrix = _matrix_from_args(args)
    labels = matrix.labels
    q_size = _shared_set_size(labels, matrix.n_test, matrix.config.kd, args.budget, args.enumeration_cap)
    rows = [_vote_losses(votes, matrix.offsets, matrix.config.n_classes) for votes in matrix.votes]
    radii = [row.certificate(label).fa_radius for row, label in zip(rows, labels)]
    accuracy, argmin_q = _certified_accuracy(rows, radii, q_size)
    fraction = Fraction(sum(r >= args.budget for r in radii), len(rows))
    _write_json(
        args.out,
        {
            "command": "cert-acc",
            "budget": args.budget,
            "certified_accuracy": _frac(accuracy),
            "certified_fraction": _frac(fraction),
            "argmin_q": list(argmin_q),
        },
    )
    return 0


def cmd_oracle_check(args) -> int:
    matrix = _matrix_from_args(args)
    if matrix.n_test == 0:
        raise EmptyTestSet()
    report = verify_certificates(matrix, args.oracle_limit)
    obj = {
        "command": "oracle-check",
        "n_test": matrix.n_test,
        "ok": report.ok,
        "gap_histogram": {str(g): c for g, c in report.gap_histogram().items()},
        "rows": [r._asdict() for r in report.rows],  # the fields, in declaration order
    }
    _write_json(args.out, obj)
    if not report.ok:
        raise SoundnessViolation(
            f"{len(report.violations)} row(s) failed verification"
        )
    return 0


def cmd_ia(args) -> int:
    spec = LearnerSpec(_LEARNER_ALIASES.get(args.learner, args.learner))
    dataset = read_dataset_csv(args.dataset, args.n_classes)
    features, labels = read_test_csv(args.test, dataset.n_classes)
    if not features:
        raise EmptyTestSet()
    dists = ia_vote_distributions(dataset, features, args.k, spec, args.limit)
    results = []
    for idx, dist in enumerate(dists):
        label = labels[idx] if labels is not None else None
        results.append(
            {
                "prediction": dist.prediction,
                "correct": (dist.prediction == label) if label is not None else None,
                "radius": ia_radius(dist),
                "per_class": [_frac(f) for f in dist.per_class],
                "conditional": [[_frac(f) for f in row] for row in dist.conditional],
            }
        )
    _write_json(
        args.out,
        {
            "command": "ia",
            "k": args.k,
            "n_classes": dataset.n_classes,
            "n_train": len(dataset),
            "results": results,
        },
    )
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def _add_matrix_args(p: _Parser) -> None:
    p.add_argument("--dataset", help="training CSV (label,f0,...)")
    p.add_argument("--test", help="test CSV (label,f0,... or f0,...)")
    p.add_argument("--votes", help="vote-matrix JSON produced elsewhere")
    p.add_argument("--k", type=int, default=10, help="inverse sensitivity")
    p.add_argument("--d", type=int, default=1, help="spread degree")
    p.add_argument("--seed", type=int, default=0, help="offset generator seed")
    p.add_argument("--learner", default="centroid", help="majority | centroid")
    p.add_argument("--n-classes", type=int, default=None, help="override inferred class count")
    p.add_argument("--dpa-compatible", action="store_true", help="force offsets {0} (d=1 only)")
    p.add_argument("--save-votes", default=None, help="also write the vote-matrix JSON here")
    p.add_argument("--out", default=None, help="output path (default stdout)")


def build_parser() -> _Parser:
    parser = _Parser(prog="finiagg", description=__doc__ and __doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="train or ingest votes, then certify")
    _add_matrix_args(p)
    p.add_argument("--curve", default=None, help="also write the certified-fraction curve CSV here")
    p.add_argument("--max-attack-size", type=int, default=None)
    p.add_argument("--stats", action="store_true", help="require accuracy statistics")
    p.add_argument("--verbose", action="store_true", help="include per-sample delta multisets")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("curve", help="certified-fraction curve CSV only")
    _add_matrix_args(p)
    p.add_argument("--max-attack-size", type=int, default=None)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("compare", help="radius statistics vs the disjoint baseline")
    _add_matrix_args(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("cert-acc", help="worst-case accuracy under a shared poison set")
    _add_matrix_args(p)
    p.add_argument("--budget", type=int, default=1)
    p.add_argument("--enumeration-cap", type=int, default=ENUMERATION_CAP)
    p.set_defaults(func=cmd_cert_acc)

    p = sub.add_parser("oracle-check", help="verify certificates against brute force")
    _add_matrix_args(p)
    p.add_argument("--oracle-limit", type=int, default=ORACLE_LIMIT)
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("ia", help="exhaustive subsampled-ensemble evaluation")
    p.add_argument("--dataset", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--learner", default="centroid")
    p.add_argument("--n-classes", type=int, default=None)
    p.add_argument("--limit", type=int, default=IA_LIMIT)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_ia)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except FiniteAggError as exc:
        sys.stderr.write(
            json.dumps(
                {
                    "error": type(exc).__name__,
                    "message": str(exc),
                    "exit_code": exc.exit_code,
                }
            )
            + "\n"
        )
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
