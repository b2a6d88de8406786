"""Robustness fuzz: ``main`` on generated vote files, CSVs and argv, in process.

Every run must return a documented exit code (4 only from ``oracle-check``).
A failing run writes exactly one JSON line to stderr, naming that code; a
successful one writes nothing there. No exception may escape ``main``. A
successful ``certify`` or ``curve`` run writes the bytes of the per-point
reference (``reference_certify_outputs``) for the matrix it certified.

An example carries at most one defect, in one file or in the options, so
that most runs get past the readers into training, voting and certifying.
Sizes stay small: kd <= 64, at most 20 rows, budgets and attack sizes up to
100, and the audit limits at or below their defaults. The only large sizes
are class counts and labels from 2^40 up and the literal 10^11, which the
allocator refuses at once; a size it would grant is never drawn.

The last tests hold the int64 block reader to the csv reader: ``certify
--dataset`` with and without the block reader must write the same bytes and
exit with the same code, on generated training and test files, on training
files of more than one 1,024-line block with a defect in a later one, and on
pinned training and test files.
"""

import contextlib
import io
import json
import random
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import pytest
from conftest import reference_certify_outputs
from hypothesis import given, settings, strategies as st

from finiagg import arrays, cli
from finiagg.cli import main

BIG = 10**11
HUGE = [2**40, 2**63 - 1, 2**63, 2**63 + 1, 2**64, 2**70]
FILES = ("train.csv", "test.csv", "votes.json", "out.json", "curve.csv", "saved.json")
COMMANDS = ["certify", "curve", "compare", "cert-acc", "oracle-check", "ia"]


def _check(argv, files: dict[str, bytes]) -> None:
    matrices = []  # (options, vote matrix) of each run's certified matrix
    matrix_from_args = cli._matrix_from_args

    def record(args):
        matrix = matrix_from_args(args)
        matrices.append((args, matrix))
        return matrix

    with tempfile.TemporaryDirectory() as tmp:
        for name, content in files.items():
            (Path(tmp) / name).write_bytes(content)
        argv = [str(Path(tmp) / a) if a in FILES else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with mock.patch.object(cli, "_matrix_from_args", record):
                code = main(argv)
        if code == 0 and argv[0] in ("certify", "curve"):
            _check_outputs(argv[0], *matrices[0], out.getvalue())
    assert code in (0, 1, 2, 3, 4), (argv, code)
    if code == 4:
        assert argv[0] == "oracle-check"
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == [], argv
    else:
        assert len(lines) == 1, (argv, lines)
        error = json.loads(lines[0])
        assert error["exit_code"] == code
        assert isinstance(error["error"], str) and isinstance(error["message"], str)


def _check_outputs(command: str, args, matrix, stdout: str) -> None:
    """Hold a run's report and curve CSV to the per-point reference, byte for byte."""
    size = args.max_attack_size if args.max_attack_size is not None else matrix.config.kd
    verbose = command == "certify" and args.verbose
    report, csv = reference_certify_outputs(matrix, size, verbose)
    written = Path(args.out).read_text(encoding="utf-8") if args.out else stdout
    if command == "curve":
        assert written == csv, args
        return
    assert written == report, args
    if args.curve:
        assert Path(args.curve).read_text(encoding="utf-8") == csv, args


BIG_INTS = [2**31, *HUGE]
# int() and json refuse more than 4,300 digits; json.dumps cannot write such an int, so a vote
# file holds this marker, which vote_files replaces with the digits
LONG_DIGITS, LONG_INT = "9" * 4301, "<4301 digits>"
json_values = st.recursive(
    st.one_of(
        st.integers(-3, 12), st.sampled_from([*BIG_INTS, -(2**63) - 1, LONG_INT]), st.booleans(), st.none(),
        st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=3),
    ),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6,
)
# class counts are small or too large to allocate, never in between
class_counts = st.one_of(st.integers(-1, 5), st.sampled_from(HUGE))


@st.composite
def kd_pairs(draw):
    k = draw(st.integers(1, 16))
    return k, draw(st.integers(1, min(4, 64 // k)))


def _defect(draw, broken: bool, kinds: list[str]) -> str:
    return draw(st.sampled_from(kinds)) if broken else "none"


# --- vote files -------------------------------------------------------------


@st.composite
def vote_files(draw, broken: bool) -> bytes:
    k, d = draw(kd_pairs())
    kd = k * d
    n_classes = draw(st.integers(1, 5))
    if draw(st.integers(0, 5)) == 0:  # the kernel then counts classes no table or dtype may hold
        n_classes = draw(st.sampled_from(HUGE))
    classes = st.sampled_from(sorted({*range(min(n_classes, 3)), n_classes - 1}))
    n_rows = draw(st.integers(0, 6))
    favourite = draw(classes)
    votes = st.sampled_from([True, True, False]).flatmap(lambda fav: st.just(favourite) if fav else classes)
    obj = {
        "k": k,
        "d": d,
        "offsets": draw(st.permutations(range(kd)))[:d],
        "n_classes": n_classes,
        "labels": draw(st.lists(votes, min_size=n_rows, max_size=n_rows)),
        "votes": [draw(st.lists(votes, min_size=kd, max_size=kd)) for _ in range(n_rows)],
    }
    if draw(st.booleans()):
        del obj["labels"]
    defect = _defect(draw, broken, ["drop", "replace", "cell", "ragged", "cut", "bytes", "array"])
    field = draw(st.sampled_from(sorted(obj)))
    nested = isinstance(obj[field], list) and obj[field]
    if defect == "drop":
        del obj[field]
    elif defect == "replace" or (defect in ("cell", "ragged") and not nested):
        obj[field] = draw(json_values)
    elif defect == "cell":  # a cell of a list, or of a vote row
        target = obj[field]
        i = draw(st.integers(0, len(target) - 1))
        if isinstance(target[i], list) and target[i]:
            target, i = target[i], draw(st.integers(0, len(target[i]) - 1))
        target[i] = draw(json_values)
    elif defect == "ragged":
        obj[field] = obj[field][:-1]
    text = json.dumps(obj).replace(json.dumps(LONG_INT), LONG_DIGITS).encode("utf-8")
    if defect == "cut":
        return text[: draw(st.integers(0, len(text) - 1))]
    if defect == "bytes":
        return text + b"\xff\xfe"
    if defect == "array":
        return json.dumps([obj]).encode("utf-8")
    return text


# --- CSVs -------------------------------------------------------------------

bad_cells = st.sampled_from(["", "x", " 3", "1_0", "３", "1.5", '"2"', '"', "-1", "1e3", LONG_DIGITS])


@st.composite
def csv_files(draw, labelled: bool, width: int, max_rows: int, broken: bool) -> bytes:
    header = [f"f{i}" for i in range(width)]
    if labelled:
        header = ["label", *header]
    cells = st.integers(0, 9).map(str)
    if draw(st.integers(0, 3)) == 0:  # cells past int64 send a run to the csv reader
        cells = st.one_of(cells, st.sampled_from(["-0", "+4", *map(str, BIG_INTS)]))
    rows = []
    for _ in range(draw(st.integers(0, max_rows))):
        row = [draw(cells) for _ in range(width)]
        rows.append([str(draw(st.integers(0, 3))), *row] if labelled else row)
    kinds = ["header", "ragged", "cell", "blank", "quote", "bytes", "crlf"]
    defect = _defect(draw, broken, kinds + ["label"] * labelled)
    at = draw(st.integers(0, len(rows))) - 1
    if defect == "header":
        header = draw(st.sampled_from([header[::-1], [*header, "g"], [], [f" {h}" for h in header]]))
    elif defect == "ragged" and rows:
        rows[at] = rows[at][: draw(st.integers(0, len(rows[at])))] + ["1"] * draw(st.integers(0, 1))
    elif defect == "cell" and rows and rows[at]:
        rows[at][draw(st.integers(0, len(rows[at]) - 1))] = draw(bad_cells)
    elif defect == "label" and rows:
        rows[at][0] = draw(st.sampled_from(["4", "+1", str(2**40), str(2**70)]))
    elif defect == "blank":
        rows.insert(at + 1, [])
    elif defect == "quote" and rows and rows[at]:
        rows[at][0] = f'"{rows[at][0]}"'
    text = "\n".join(",".join(row) for row in [header, *rows]) + "\n"
    if defect == "crlf":
        text = text.replace("\n", "\r\n")
    data = text.encode("utf-8")
    return data + b"\xff" if defect == "bytes" else data


# --- options ----------------------------------------------------------------


@st.composite
def options(draw, command: str, broken: bool):
    k, d = draw(kd_pairs())
    learner = draw(st.sampled_from(["centroid", "majority", "nearest-centroid", "majority-label"]))
    size = draw(st.integers(0, 100))
    n_classes = None
    limit = 16
    dpa = d == 1 and draw(st.integers(0, 3)) == 0
    defect = _defect(draw, broken, ["k", "d", "learner", "n-classes", "size", "dpa", "limit"])
    if defect == "k":
        k, dpa = draw(st.sampled_from([-1, 0, BIG])), False  # {0} offsets list no kd-sized pool
    elif defect == "d":
        d = draw(st.sampled_from([-1, 0]))
    elif defect == "learner":
        learner = draw(st.sampled_from(["external", "external-votes", "knn", ""]))
    elif defect == "n-classes":
        n_classes = draw(class_counts)
    elif defect == "size":
        size = draw(st.sampled_from([-1, BIG]))
    elif defect == "dpa":
        dpa = True
    elif defect == "limit":
        limit = draw(st.integers(0, 15))
    opts = ["--k", str(k), "--learner", learner]
    if n_classes is not None:
        opts += ["--n-classes", str(n_classes)]
    if command == "ia":
        opts += ["--limit", str(min(limit, 8))]  # 2^|D| models
    else:
        opts += ["--d", str(d), "--seed", str(draw(st.one_of(st.integers(-2, 3), st.sampled_from(BIG_INTS))))]
        opts += ["--dpa-compatible"] * dpa
        if draw(st.booleans()):
            opts += ["--save-votes", "saved.json"]
    if command in ("certify", "curve") and (defect == "size" or draw(st.booleans())):
        opts += ["--max-attack-size", str(size)]
    if command == "certify":
        opts += draw(st.lists(st.sampled_from(["--verbose", "--stats"]), unique=True))
        if draw(st.booleans()):
            opts += ["--curve", "curve.csv"]
    if command == "cert-acc":
        opts += ["--budget", str(size), "--enumeration-cap", str(draw(st.integers(1, 2000)))]
    if command == "oracle-check":
        opts += ["--oracle-limit", str(limit)]
    if draw(st.booleans()):
        opts += ["--out", "out.json"]
    return opts


# --- the runs ---------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_vote_files_never_escape(data):
    command = data.draw(st.sampled_from(COMMANDS[:-1]))
    broken = data.draw(st.sampled_from(["none", "none", "votes", "options"]))
    argv = [command, "--votes", "votes.json", *data.draw(options(command, broken == "options"))]
    _check(argv, {"votes.json": data.draw(vote_files(broken == "votes"))})


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_csv_files_never_escape(data):
    command = data.draw(st.sampled_from(COMMANDS))
    broken = data.draw(st.sampled_from(["none", "none", "train", "test", "options"]))
    width = data.draw(st.integers(1, 3))
    test_width = width
    if broken == "test" and data.draw(st.booleans()):
        test_width = data.draw(st.sampled_from([0, width - 1, width + 1]))
    max_rows = 8 if command == "ia" else 20  # 2^rows models, under ia's --limit
    files = {
        "train.csv": data.draw(csv_files(True, width, max_rows, broken == "train")),
        "test.csv": data.draw(csv_files(data.draw(st.booleans()), test_width, 6, broken == "test")),
    }
    argv = [command, "--dataset", "train.csv", "--test", "test.csv"]
    _check([*argv, *data.draw(options(command, broken == "options"))], files)


tokens = st.one_of(
    st.sampled_from(["--votes", "--dataset", "--test", "--k", "--d", "--seed", "--budget", "--verbose",
                     "--n-classes", "--out", "--max-attack-size", "--learner", "--dpa-compatible",
                     "--enumeration-cap", "--oracle-limit", "--limit", "--nope", "-x", "--"]),
    st.sampled_from(FILES + ("missing.csv",)),
    st.integers(-2, 8).map(str),  # so kd <= 64 and every limit stays at or below its default
    st.sampled_from(["x", "1.5", "", "majority", str(2**70)]),
)


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from([*COMMANDS, "nope"]), argv=st.lists(tokens, max_size=8))
def test_argv_never_escapes(command, argv):
    files = {
        "train.csv": b"label,f0,f1\n0,1,2\n1,5,6\n0,2,2\n",
        "test.csv": b"label,f0,f1\n0,1,2\n1,5,5\n",
        "votes.json": json.dumps(
            {"k": 2, "d": 1, "offsets": [0], "n_classes": 2, "labels": [1], "votes": [[1, 1]]}
        ).encode("utf-8"),
    }
    _check([command, *argv], files)


# --- the int64 block reader against the csv reader --------------------------


def _certify_twice(train: bytes, argv, width: int = 2, test: bytes | None = None) -> dict[str, bool]:
    """Run ``certify`` on ``train`` and ``test`` with and without the block reader.

    Returns, for "train.csv" and "test.csv", whether the block reader parsed
    every body block of that CSV that was read. Without it, every body block
    is refused, so the csv reader parses the whole body, and the training
    rows are folded and the test rows voted on by the same ``arrays`` code. Both runs must give the same exit code,
    stdout, stderr and written files. Any warning raised in ``main`` is an
    error, so none can reach stderr. The default test CSV holds three
    labelled rows that the block reader parses.
    """
    if test is None:
        header = ",".join(["label"] + [f"f{i}" for i in range(width)])
        rows = "".join(f"{c},{','.join([str(3 * c + 1)] * width)}\n" for c in range(3))
        test = f"{header}\n{rows}".encode("utf-8")
    int64_block, read_text = arrays._int64_block, cli._read_text
    refused = {"train.csv": [], "test.csv": []}  # whether the normal run's block reader refused each block
    reading = []  # the name of each file read, the training CSV to its end before the test CSV

    def read(path):
        reading.append(Path(path).name)
        return read_text(path)

    def record(*args):
        block = int64_block(*args)
        refused[reading[-1]].append(block is None)
        return block

    results = []
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "train.csv").write_bytes(train)
        (Path(tmp) / "test.csv").write_bytes(test)
        argv = [str(Path(tmp) / a) if a in FILES else a for a in argv]
        for parser in (record, lambda *args: None):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
                warnings.simplefilter("error")
                with mock.patch.object(arrays, "_int64_block", parser), mock.patch.object(cli, "_read_text", read):
                    code = main(argv)
            written = {}
            for name in ("out.json", "curve.csv", "saved.json"):
                path = Path(tmp) / name
                if path.exists():
                    written[name] = path.read_bytes()
                    path.unlink()
            results.append((code, out.getvalue(), err.getvalue(), written))
    assert results[0] == results[1], argv
    return {name: not any(blocks) for name, blocks in refused.items()}


PARITY_ARGV = ["certify", "--dataset", "train.csv", "--test", "test.csv"]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_block_reader_matches_the_csv_reader(data):
    broken = data.draw(st.sampled_from(["none", "train", "train", "test", "options"]))
    width = data.draw(st.integers(1, 3))
    train = data.draw(csv_files(True, width, 20, broken == "train"))
    test = data.draw(csv_files(data.draw(st.booleans()), width, 6, broken == "test"))
    _certify_twice(train, PARITY_ARGV + data.draw(options("certify", broken == "options")), width, test)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_block_reader_matches_the_csv_reader_past_the_first_block(data):
    width = data.draw(st.integers(1, 3))
    header, _, body = data.draw(csv_files(True, width, 20, True)).partition(b"\n")
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    lines = data.draw(st.integers(1024, 2100))  # valid lines before the drawn body and its defect
    filler = "".join(",".join(str(rng.randrange(c)) for c in [4] + [10] * width) + "\n" for _ in range(lines))
    train = header + b"\n" + filler.encode("ascii") + body
    _certify_twice(train, PARITY_ARGV + data.draw(options("certify", False)), width)


_ROWS = "".join(f"{i % 3},{i % 7},{i % 5}\n" for i in range(1024))  # exactly one block
PINNED = {  # id: (training CSV, extra argv, whether the block reader parses every body block)
    # a cell in int64, but max(rows, F) * max cell, the bound on sums, is not: Python-int sums
    "2^63-1": ("label,f0,f1\n0,1,9223372036854775807\n", [], True),
    "2^62": ("label,f0,f1\n0,1,4611686018427387904\n", [], True),
    "2^62-1": ("label,f0,f1\n0,1,4611686018427387903\n", [], True),
    "2^63": ("label,f0,f1\n0,1,2\n1,9223372036854775808,0\n", [], False),
    # no model holds a counter per class, so neither reader needs n_classes of them
    "classes-2^40-past-int64": ("label,f0,f1\n0,1,2\n1,18446744073709551616,0\n",
                                ["--n-classes", str(2**40)], False),
    "classes-2^63+1": ("label,f0,f1\n0,1,2\n1,3,4\n", ["--n-classes", str(2**63 + 1)], True),
    "signs-and-zeros": ("label,f0,f1\n0,-0,2\n+1,+0,007\n", [], True),
    "crlf": ("label,f0,f1\r\n0,1,2\r\n1,3,4\r\n", [], True),  # read as LF, by both readers
    "cr": ("label,f0,f1\n0,1,2\r1,3,4\n", [], True),
    "bom-header": ("\ufefflabel,f0,f1\n0,1,2\n", [], True),  # a header error: no body block is read
    "bom-body": ("label,f0,f1\n\ufeff0,1,2\n", [], False),
    "quoted-cell": ('label,f0,f1\n0,"1",2\n', [], False),
    "space-in-cell": ("label,f0,f1\n0, 1,2\n", [], False),  # np.loadtxt would strip it
    "comment": ("label,f0,f1\n0,1,2#3\n", [], False),  # np.loadtxt would drop it
    "quoted-header": ('"label","f0","f1"\n0,1,2\n', [], True),
    "header-over-two-lines": ('label,f0,"f1\n"\n0,1,2\n', [], True),
    "header-only": ("label,f0,f1\n", [], True),
    "header-only-with-classes": ("label,f0,f1\n", ["--n-classes", "3"], True),
    "field-past-csv-limit": ("label,f0,f1\n0,1," + "0" * 140_000 + "2\n", [], False),
    "blank-last-block": ("label,f0,f1\n" + _ROWS + "\n" * 5, [], True),
    "blank-first-blocks": ("label,f0,f1\n" + "\n" * 2048 + _ROWS, [], True),
    "no-final-lf": ("label,f0,f1\n" + _ROWS + "1,2,3", [], True),
    "later-cell": ("label,f0,f1\n" + _ROWS + "1,2,x\n", [], False),
    "later-sign": ("label,f0,f1\n" + _ROWS + "1,2,+-3\n", [], False),
    "later-ragged": ("label,f0,f1\n" + _ROWS + "1,2\n", [], False),
    "later-width": ("label,f0,f1\n" + _ROWS + "1,2,3,4\n" * 3, [], False),  # a second block one cell wider
    "later-label": ("label,f0,f1\n" + _ROWS + "3,2,2\n", ["--n-classes", "3"], False),
    "later-negative-feature": ("label,f0,f1\n" + _ROWS + "1,2,-1\n", [], False),
    "later-negative-label": ("label,f0,f1\n" + _ROWS + "-1,2,1\n", [], False),
    # the csv reader takes over at a later block, and its rows are folded after the block reader's
    "later-quoted-cell": ("label,f0,f1\n" + _ROWS + '0,"1",2\n' + _ROWS, [], False),
    "later-past-int64": ("label,f0,f1\n" + _ROWS + f"1,2,{2**64}\n" + _ROWS * 2, [], False),
}


@pytest.mark.parametrize("case", PINNED)
def test_block_reader_matches_the_csv_reader_on_pinned_files(case):
    train, extra, taken = PINNED[case]
    for learner in ("centroid", "majority"):
        argv = ["certify", "--dataset", "train.csv", "--test", "test.csv", "--k", "3", "--d", "2",
                "--learner", learner, "--save-votes", "saved.json", *extra]
        assert _certify_twice(train.encode("utf-8"), argv)["train.csv"] == taken


_TEST_ROWS = "".join(f"{i % 3},{i % 7},{i % 5}\n" for i in range(1100))  # two blocks
PINNED_TESTS = {  # id: (test CSV, extra argv, whether the block reader parses every body block)
    "no-label-column": ("f0,f1\n2,2\n8,8\n", [], True),
    "quoted-cell": ('label,f0,f1\n0,"2",2\n1,8,8\n', [], False),
    "2^64": (f"label,f0,f1\n0,2,2\n1,8,{2**64}\n", [], False),
    "crlf": ("label,f0,f1\r\n0,2,2\r\n1,8,8\r\n", [], True),  # read as LF, by both readers
    "bom-body": ("label,f0,f1\n\ufeff0,2,2\n", [], False),
    "blank-lines": ("label,f0,f1\n\n0,2,2\n\n\n1,8,8\n\n", [], True),
    "negative-label": ("label,f0,f1\n0,2,2\n-1,8,8\n", [], False),
    "label-past-n-classes": ("label,f0,f1\n0,2,2\n4,8,8\n", ["--n-classes", "4"], False),
    "two-blocks": ("label,f0,f1\n" + _TEST_ROWS, [], True),
    "ragged-in-block-2": ("label,f0,f1\n" + _TEST_ROWS[:6300] + "0,1\n" + _TEST_ROWS[6306:], [], False),  # row 1050
}


@pytest.mark.parametrize("case", PINNED_TESTS)
def test_block_reader_matches_the_csv_reader_on_pinned_test_files(case):
    test, extra, taken = PINNED_TESTS[case]
    train = ("label,f0,f1\n" + _ROWS).encode("utf-8")
    for learner in ("centroid", "majority"):
        argv = ["certify", "--dataset", "train.csv", "--test", "test.csv", "--k", "3", "--d", "2",
                "--learner", learner, "--save-votes", "saved.json", *extra]
        assert _certify_twice(train, argv, test=test.encode("utf-8"))["test.csv"] == taken
