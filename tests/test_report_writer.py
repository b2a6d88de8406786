"""``certify`` and ``curve`` write the bytes of the per-point reference, byte for byte.

``certify`` streams its curve from the curve's steps and its ``--verbose``
deltas from the kernel's loss histograms; ``reference_certify_outputs`` builds
the report as one ``json.dumps(indent=2)`` of a dict with a dict per point and
the deltas from margin tables, and the CSV with an f-string per point.
"""

import json
import random

import pytest
from conftest import _frac, random_offsets, reference_certify_outputs

from finiagg import certifier, cli
from finiagg.certifier import certified_fraction_curve, certify_matrix
from finiagg.cli import main, votes_from_json


def _write_votes(tmp_path, obj: dict, labels, labelled: bool):
    if labelled:
        obj["labels"] = labels
    path = tmp_path / "votes.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path, votes_from_json(path.read_text(encoding="utf-8"))


def _vote_file(tmp_path, rng: random.Random, n_test: int, labelled: bool):
    """A random vote file; each row leans to one class, and about 30% of the labels miss it."""
    k, d = rng.randint(1, 8), rng.randint(1, 4)
    kd, n_classes = k * d, rng.randint(2, 4)
    votes, labels = [], []
    for _ in range(n_test):
        favourite, lean = rng.randrange(n_classes), rng.random()
        votes.append([favourite if rng.random() < lean else rng.randrange(n_classes) for _ in range(kd)])
        labels.append(rng.randrange(n_classes) if rng.random() < 0.3 else favourite)
    obj = {"k": k, "d": d, "offsets": list(random_offsets(rng, k, d).offsets), "n_classes": n_classes,
           "votes": votes}
    return _write_votes(tmp_path, obj, labels, labelled)


def _paper_scale_file(tmp_path, rng: random.Random, labelled: bool):
    """Three rows at k = 1,200, d = 16 and 10 classes, each voting for three classes.

    Every row has classes without votes below and above its prediction, and
    the last row's label is its runner-up, so a labelled file has a
    mispredicted row.
    """
    k, d = 1200, 16
    votes, labels = [], []
    for low, middle, high in ((2, 5, 7), (1, 4, 8), (3, 6, 8)):
        shares = {middle: 0.5, low: 0.3, high: 0.2}
        votes.append(rng.choices(list(shares), weights=list(shares.values()), k=k * d))
        labels.append(middle)
    labels[-1] = max({low, high}, key=votes[-1].count)
    obj = {"k": k, "d": d, "offsets": list(random_offsets(rng, k, d).offsets), "n_classes": 10,
           "votes": votes}
    return _write_votes(tmp_path, obj, labels, labelled)


def _one_class_file(tmp_path, rng: random.Random, labelled: bool):
    """A random-sized file of a single class, whose rows have no challengers."""
    k, d = rng.randint(1, 8), rng.randint(1, 4)
    n_test = rng.randint(1, 5)
    obj = {"k": k, "d": d, "offsets": list(random_offsets(rng, k, d).offsets), "n_classes": 1,
           "votes": [[0] * (k * d)] * n_test}
    return _write_votes(tmp_path, obj, [0] * n_test, labelled)


def _certify(tmp_path, votes, matrix, size, verbose: bool, stats: bool) -> None:
    report, curve = tmp_path / "report.json", tmp_path / "curve.csv"
    argv = ["certify", "--votes", str(votes), "--out", str(report), "--curve", str(curve)]
    argv += ["--max-attack-size", str(size)] if size is not None else []
    argv += ["--verbose"] * verbose + ["--stats"] * stats
    assert main(argv) == 0
    expected = reference_certify_outputs(matrix, matrix.config.kd if size is None else size, verbose)
    assert (report.read_text(encoding="utf-8"), curve.read_text(encoding="utf-8")) == expected, argv
    argv = ["curve", "--votes", str(votes), "--out", str(curve)]
    assert main(argv + (["--max-attack-size", str(size)] if size is not None else [])) == 0
    assert curve.read_text(encoding="utf-8") == expected[1]


@pytest.mark.parametrize(
    "rows, labelled",
    [(rows, labelled) for rows in (1, 5, 97, "one-class") for labelled in (True, False)]
    + [("paper-scale", True)],  # the reference's deltas take seconds at kd = 19,200
)
def test_certify_and_curve_write_the_reference_bytes(tmp_path, rows, labelled):
    if rows == "paper-scale":
        files = [_paper_scale_file(tmp_path, random.Random(11), labelled)]
    elif rows == "one-class":
        rng = random.Random(13 + labelled)
        files = (_one_class_file(tmp_path, rng, labelled) for _ in range(3))
    else:
        rng = random.Random(rows * 2 + labelled)
        files = (_vote_file(tmp_path, rng, rows, labelled) for _ in range(3))
    for votes, matrix in files:
        kd = matrix.config.kd
        largest = max(c.fa_radius for c in certify_matrix(matrix))
        # 0, below the largest radius, kd (given and by default) and past kd
        for size in sorted({0, max(largest - 1, 0), kd, kd + 5}) + [None]:
            for verbose in (False, True):
                _certify(tmp_path, votes, matrix, size, verbose, stats=labelled)


def test_a_curve_of_mispredicted_rows_is_all_zero_and_written_alike(tmp_path):
    rng = random.Random(3)
    votes, matrix = _vote_file(tmp_path, rng, 6, labelled=False)
    obj = json.loads(votes.read_text(encoding="utf-8"))
    obj["labels"] = [(c.predicted + 1) % matrix.config.n_classes for c in certify_matrix(matrix)]
    votes.write_text(json.dumps(obj), encoding="utf-8")
    matrix = votes_from_json(votes.read_text(encoding="utf-8"))
    for verbose in (False, True):
        _certify(tmp_path, votes, matrix, None, verbose, stats=True)
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert {c["fa_radius"] for c in report["certificates"]} == {-1}
    assert {p["certified_fraction"]["exact"] for p in report["curve"]} == {"0/1"}


def test_certify_writes_the_reference_bytes_to_stdout(tmp_path, capsys):
    votes, matrix = _vote_file(tmp_path, random.Random(5), 4, labelled=True)
    capsys.readouterr()
    assert main(["certify", "--votes", str(votes), "--verbose"]) == 0
    assert capsys.readouterr().out == reference_certify_outputs(matrix, matrix.config.kd, True)[0]


def test_certify_encodes_each_step_of_the_curve_once(tmp_path, monkeypatch):
    kd = 19_200
    votes, out = tmp_path / "votes.json", tmp_path / "report.json"
    row = [0] * 12_000 + [1] * 7_200  # radius (12,000 - 7,200) // 2 = 2,400
    obj = {"k": kd, "d": 1, "offsets": [0], "n_classes": 2, "labels": [0], "votes": [row]}
    votes.write_text(json.dumps(obj), encoding="utf-8")
    calls = []
    frac = cli._frac
    monkeypatch.setattr(cli, "_frac", lambda fr: calls.append(fr) or frac(fr))
    assert main(["certify", "--votes", str(votes), "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    steps = {p["certified_fraction"]["exact"] for p in report["curve"]}
    assert len(report["curve"]) == kd + 1 and steps == {"1/1", "0/1"}
    # the fixed fields: clean and base accuracy, pr_radius_up and mean_delta_r
    assert len(calls) <= len(steps) + 4


def test_the_curve_holds_one_object_per_distinct_fraction():
    rng = random.Random(7)
    for _ in range(100):
        radii = [rng.randint(-1, 40) for _ in range(rng.randint(1, 12))]
        curve = certified_fraction_curve(radii, rng.randint(0, 50))
        assert len({id(f) for f in curve}) == len(set(curve))


def _per_point_curve(curve) -> tuple[str, str]:
    """The report's curve entry and the curve CSV as the per-point writer made them: one f-string per point."""
    points, lines = [], []
    for m, frac in enumerate(curve):
        fraction = json.dumps(_frac(frac), indent=2).replace("\n", "\n      ")
        points.append(f'{{\n      "attack_size": {m},\n      "certified_fraction": {fraction}\n    }}')
        lines.append(f"{m},{float(frac)!r}\n")
    entry = ',\n  "curve": [\n    ' + ",\n    ".join(points) + "\n  ]"
    return entry, "attack_size,certified_fraction\n" + "".join(lines)


@pytest.mark.parametrize("size", [0, 1, 1023, 1024, 1025, 2049])
def test_the_curve_writer_writes_the_per_point_bytes(tmp_path, monkeypatch, size):
    """Runs of every length around the 1,024-point chunks, from random radii put in place of the file's."""
    rng = random.Random(size)
    votes, _ = _vote_file(tmp_path, rng, 3, labelled=True)
    report, csv = tmp_path / "report.json", tmp_path / "curve.csv"
    for _ in range(6):
        radii = [rng.choice([-1, size, rng.randint(0, size + 2)]) for _ in range(rng.randint(1, 6))]
        monkeypatch.setattr(certifier, "certified_fraction_curve", lambda _, m: certified_fraction_curve(radii, m))
        argv = ["certify", "--votes", str(votes), "--out", str(report), "--curve", str(csv)]
        assert main(argv + ["--max-attack-size", str(size)]) == 0
        entry, lines = _per_point_curve(certified_fraction_curve(radii, size))
        text = report.read_text(encoding="utf-8")
        assert text == text[: text.index(',\n  "curve": [')] + entry + "\n}\n"
        assert csv.read_text(encoding="utf-8") == lines
