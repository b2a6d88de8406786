import json
import os
from fractions import Fraction

import pytest

import finiagg.cli
from finiagg.cli import (
    main,
    read_dataset_csv,
    votes_from_json,
    votes_to_json,
)

TRAIN_CSV = """label,f0,f1
0,1,2
0,2,3
1,9,9
1,8,7
2,1,9
2,2,8
0,3,1
1,7,9
2,0,9
0,2,2
"""

TEST_CSV = """label,f0,f1
0,2,2
1,8,8
2,1,8
"""

UNLABELED_CSV = """f0,f1
2,2
8,8
"""

VOTES = {"k": 2, "d": 1, "offsets": [1], "n_classes": 2, "labels": [1], "votes": [[1, 1]]}


@pytest.fixture
def train_file(tmp_path):
    p = tmp_path / "train.csv"
    p.write_text(TRAIN_CSV, encoding="utf-8")
    return p


@pytest.fixture
def test_file(tmp_path):
    p = tmp_path / "test.csv"
    p.write_text(TEST_CSV, encoding="utf-8")
    return p


def _run(*argv):
    return main([str(a) for a in argv])


def test_certify_writes_report_and_curve(tmp_path, train_file, test_file):
    report = tmp_path / "report.json"
    curve = tmp_path / "curve.csv"
    code = _run(
        "certify", "--dataset", train_file, "--test", test_file,
        "--k", 3, "--d", 2, "--seed", 0, "--learner", "centroid",
        "--out", report, "--curve", curve,
    )
    assert code == 0
    obj = json.loads(report.read_text())
    assert obj["kd"] == 6
    assert len(obj["certificates"]) == 3
    assert all(c["fa_radius"] >= c["dpa_radius"] for c in obj["certificates"])
    lines = curve.read_text().splitlines()
    assert lines[0] == "attack_size,certified_fraction"
    # row 0 of the curve is the clean accuracy
    clean = Fraction(*map(int, obj["ensemble_stats"]["clean_accuracy"]["exact"].split("/")))
    assert float(clean) == float(lines[1].split(",")[1])


def test_certify_votes_path_matches_train_path(tmp_path, train_file, test_file):
    report_a = tmp_path / "a.json"
    report_b = tmp_path / "b.json"
    votes = tmp_path / "votes.json"
    assert _run(
        "certify", "--dataset", train_file, "--test", test_file,
        "--k", 4, "--d", 2, "--seed", 5, "--learner", "majority",
        "--out", report_a, "--save-votes", votes,
    ) == 0
    assert _run("certify", "--votes", votes, "--out", report_b) == 0
    assert report_a.read_bytes() == report_b.read_bytes()


def test_vote_matrix_json_round_trips_bit_exactly(tmp_path, train_file, test_file):
    votes = tmp_path / "votes.json"
    assert _run(
        "certify", "--dataset", train_file, "--test", test_file,
        "--k", 3, "--d", 1, "--dpa-compatible", "--learner", "centroid",
        "--save-votes", votes, "--out", tmp_path / "r.json",
    ) == 0
    text = votes.read_text(encoding="utf-8")
    assert votes_to_json(votes_from_json(text)) == text


def test_dataset_csv_round_trips_bit_exactly(tmp_path, train_file):
    ds = read_dataset_csv(train_file)
    lines = ["label," + ",".join(f"f{i}" for i in range(ds.feature_dim))]
    lines += [",".join(map(str, (s.label, *s.features))) for s in ds.samples]
    out = tmp_path / "echo.csv"
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert out.read_text(encoding="utf-8") == TRAIN_CSV
    assert read_dataset_csv(out) == ds


def test_missing_labels_with_stats_flag_fails(tmp_path, train_file, capsys):
    unlabeled = tmp_path / "unlabeled.csv"
    unlabeled.write_text(UNLABELED_CSV, encoding="utf-8")
    code = _run(
        "certify", "--dataset", train_file, "--test", unlabeled,
        "--k", 3, "--stats", "--out", tmp_path / "r.json",
    )
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "MissingLabels"


def test_unlabeled_test_set_still_certifies(tmp_path, train_file):
    unlabeled = tmp_path / "unlabeled.csv"
    unlabeled.write_text(UNLABELED_CSV, encoding="utf-8")
    report = tmp_path / "r.json"
    assert _run(
        "certify", "--dataset", train_file, "--test", unlabeled,
        "--k", 3, "--out", report,
    ) == 0
    obj = json.loads(report.read_text())
    assert "ensemble_stats" not in obj
    assert all(c["correct"] is None for c in obj["certificates"])


def test_usage_errors_exit_one(tmp_path, capsys):
    assert _run("certify") == 1
    assert _run("certify", "--votes", "v.json", "--dataset", "d.csv", "--test", "t.csv") == 1
    err_lines = capsys.readouterr().err.strip().splitlines()
    assert all(json.loads(line)["exit_code"] == 1 for line in err_lines)


def test_data_errors_exit_two(tmp_path, test_file, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("label,f0,f1\n0,1,-4\n", encoding="utf-8")
    code = _run("certify", "--dataset", bad, "--test", test_file, "--out", tmp_path / "r.json")
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "NegativeFeature"
    votes = tmp_path / "votes.json"
    votes.write_text(json.dumps(VOTES), encoding="utf-8")
    for command in ("certify", "curve"):
        assert _run(command, "--votes", votes, "--max-attack-size", -1) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "DataError"


def test_compare_on_d1_run_shows_no_improvement(tmp_path, train_file, test_file):
    out = tmp_path / "cmp.json"
    assert _run(
        "compare", "--dataset", train_file, "--test", test_file,
        "--k", 5, "--d", 1, "--learner", "majority", "--out", out,
    ) == 0
    obj = json.loads(out.read_text())
    assert obj["pr_radius_up"]["exact"] == "0/1"
    assert obj["mean_delta_r"]["exact"] == "0/1"


def test_curve_command(tmp_path, train_file, test_file):
    out = tmp_path / "curve.csv"
    assert _run(
        "curve", "--dataset", train_file, "--test", test_file,
        "--k", 3, "--d", 2, "--max-attack-size", 4, "--out", out,
    ) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 6
    fractions = [float(l.split(",")[1]) for l in lines[1:]]
    assert fractions == sorted(fractions, reverse=True)


def test_cert_acc_budget_zero_is_clean_accuracy(tmp_path, train_file, test_file):
    acc_out = tmp_path / "acc.json"
    rep_out = tmp_path / "rep.json"
    assert _run(
        "cert-acc", "--dataset", train_file, "--test", test_file,
        "--k", 3, "--d", 2, "--budget", 0, "--out", acc_out,
    ) == 0
    assert _run(
        "certify", "--dataset", train_file, "--test", test_file,
        "--k", 3, "--d", 2, "--out", rep_out,
    ) == 0
    acc = json.loads(acc_out.read_text())
    rep = json.loads(rep_out.read_text())
    assert acc["certified_accuracy"] == rep["ensemble_stats"]["clean_accuracy"]


def test_cert_acc_dominates_certified_fraction(tmp_path, train_file, test_file):
    out = tmp_path / "acc.json"
    assert _run(
        "cert-acc", "--dataset", train_file, "--test", test_file,
        "--k", 3, "--d", 2, "--budget", 1, "--out", out,
    ) == 0
    obj = json.loads(out.read_text())
    assert obj["certified_accuracy"]["float"] >= obj["certified_fraction"]["float"]


def test_cert_acc_enumeration_cap_exit_three(tmp_path, train_file, test_file, capsys):
    code = _run(
        "cert-acc", "--dataset", train_file, "--test", test_file,
        "--k", 6, "--d", 2, "--budget", 3, "--enumeration-cap", 10,
        "--out", tmp_path / "acc.json",
    )
    assert code == 3
    assert json.loads(capsys.readouterr().err)["error"] == "EnumerationTooLarge"


def test_oracle_check_passes_and_reports(tmp_path, train_file, test_file):
    out = tmp_path / "oracle.json"
    assert _run(
        "oracle-check", "--dataset", train_file, "--test", test_file,
        "--k", 3, "--d", 2, "--seed", 1, "--out", out,
    ) == 0
    obj = json.loads(out.read_text())
    assert obj["ok"] is True
    assert all(row["sound"] for row in obj["rows"])


def test_oracle_check_limit_exit_three(tmp_path, train_file, test_file, capsys):
    code = _run(
        "oracle-check", "--dataset", train_file, "--test", test_file,
        "--k", 9, "--d", 2, "--oracle-limit", 12, "--out", tmp_path / "o.json",
    )
    assert code == 3
    assert json.loads(capsys.readouterr().err)["error"] == "InstanceTooLarge"


def test_oracle_check_exits_four_and_still_writes_the_report_on_an_unsound_certificate(tmp_path, monkeypatch, capsys):
    """Every certificate of a correct row overstated by one: both rows fail, one past their exact radius."""
    from finiagg import certifier

    certificate = certifier._certificate

    def overstated(row, label):
        cert = certificate(row, label)
        return cert._replace(fa_radius=cert.fa_radius + 1) if cert.fa_radius >= 0 else cert

    monkeypatch.setattr(certifier, "_certificate", overstated)
    votes, out = tmp_path / "votes.json", tmp_path / "oracle.json"
    votes.write_text(json.dumps({"k": 3, "d": 2, "offsets": [0, 1], "n_classes": 3, "labels": [0, 1],
                                 "votes": [[0, 0, 0, 1, 0, 2], [1, 1, 0, 1, 1, 1]]}), encoding="utf-8")
    assert _run("oracle-check", "--votes", votes, "--out", out) == 4
    want = {"error": "SoundnessViolation", "message": "2 row(s) failed verification", "exit_code": 4}
    assert capsys.readouterr() == ("", json.dumps(want) + "\n")
    report = json.loads(out.read_text())
    assert report["ok"] is False and report["gap_histogram"] == {"-1": 2}
    assert [(r["gap"], r["sound"]) for r in report["rows"]] == [(-1, False), (-1, False)]


def test_ia_command_empty_dataset(tmp_path, test_file):
    empty = tmp_path / "empty.csv"
    empty.write_text("label,f0,f1\n", encoding="utf-8")
    out = tmp_path / "ia.json"
    assert _run(
        "ia", "--dataset", empty, "--test", test_file, "--k", 2,
        "--n-classes", 3, "--learner", "majority", "--out", out,
    ) == 0
    obj = json.loads(out.read_text())
    for result in obj["results"]:
        assert result["prediction"] == 0
        assert result["per_class"][0]["exact"] == "1/1"


def test_ia_command_small_dataset(tmp_path, train_file, test_file):
    small = tmp_path / "small.csv"
    small.write_text("label,f0,f1\n0,1,1\n1,9,9\n2,1,9\n", encoding="utf-8")
    out = tmp_path / "ia.json"
    assert _run(
        "ia", "--dataset", small, "--test", test_file, "--k", 3,
        "--learner", "centroid", "--out", out,
    ) == 0
    obj = json.loads(out.read_text())
    assert obj["n_train"] == 3
    for result in obj["results"]:
        total = sum(Fraction(*map(int, pc["exact"].split("/"))) for pc in result["per_class"])
        assert total == 1


def test_worker_count_does_not_change_output(tmp_path, train_file, test_file):
    outputs = []
    for workers in ("1", "4"):
        os.environ["FINIAGG_THREADS"] = workers
        try:
            report = tmp_path / f"r{workers}.json"
            curve = tmp_path / f"c{workers}.csv"
            assert _run(
                "certify", "--dataset", train_file, "--test", test_file,
                "--k", 3, "--d", 2, "--seed", 3, "--out", report, "--curve", curve,
            ) == 0
            outputs.append((report.read_bytes(), curve.read_bytes()))
        finally:
            del os.environ["FINIAGG_THREADS"]
    assert outputs[0] == outputs[1]


def test_verbose_report_includes_delta_multisets(tmp_path, train_file, test_file):
    report = tmp_path / "verbose.json"
    assert _run(
        "certify", "--dataset", train_file, "--test", test_file,
        "--k", 3, "--d", 2, "--verbose", "--out", report,
    ) == 0
    obj = json.loads(report.read_text())
    assert len(obj["delta_multisets"]) == obj["n_test"]
    entry = obj["delta_multisets"][0]["delta"][0]
    assert entry["elements"] == sorted(entry["elements"], reverse=True)


def test_vote_file_offsets_must_match_d(tmp_path, capsys):
    votes = tmp_path / "votes.json"
    for offsets in ([0, 1, 2], [0]):
        obj = {**VOTES, "k": 2, "d": 2, "offsets": offsets, "votes": [[1, 1, 1, 1]]}
        votes.write_text(json.dumps(obj), encoding="utf-8")
        assert _run("certify", "--votes", votes) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "DataError"


@pytest.mark.parametrize(
    "field, value",
    [(f, v) for f in ("k", "d", "offsets", "n_classes", "votes", "labels") for v in (True, 1.7, "3")]
    + [("csv", "1_0"), ("csv", " 3"), ("csv", "\uff13")],
)
def test_no_silent_integer_coercion(tmp_path, train_file, field, value, capsys):
    if field == "csv":
        test = tmp_path / "coerced.csv"
        test.write_text(TEST_CSV.replace("8,8", f"8,{value}"), encoding="utf-8")
        argv = ["--dataset", train_file, "--test", test]
    else:
        obj = dict(VOTES)
        if field in ("offsets", "labels"):
            obj[field] = [value]
        elif field == "votes":
            obj[field] = [[1, value]]
        else:
            obj[field] = value
        votes = tmp_path / "votes.json"
        votes.write_text(json.dumps(obj), encoding="utf-8")
        argv = ["--votes", votes]
    assert _run("certify", *argv, "--out", tmp_path / "r.json") == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "DataError"
    assert ("non-integer cell" if field == "csv" else f"'{field}'") in err["message"]


def test_unwritable_output_is_a_data_error(tmp_path, train_file, test_file, capsys):
    missing = tmp_path / "no" / "such" / "dir.json"
    argvs = [
        ["--out", tmp_path],
        ["--out", tmp_path / "r.json", "--curve", tmp_path],
        ["--out", tmp_path / "r.json", "--save-votes", missing],
    ]
    for extra in argvs:
        code = _run("certify", "--dataset", train_file, "--test", test_file, "--k", 3, *extra)
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "DataError"


EMPTY_TEST_SET = json.dumps({"error": "EmptyTestSet", "message": "test set is empty", "exit_code": 2}) + "\n"


@pytest.mark.parametrize("command", ["certify", "curve", "compare", "cert-acc", "oracle-check"])
def test_vote_commands_reject_an_empty_test_set(tmp_path, capsys, command):
    votes = tmp_path / "votes.json"
    votes.write_text(json.dumps({**VOTES, "labels": [], "votes": []}), encoding="utf-8")
    out = tmp_path / "out.json"
    assert _run(command, "--votes", votes, "--out", out) == 2
    assert capsys.readouterr() == ("", EMPTY_TEST_SET) and not out.exists()


@pytest.mark.parametrize("header", ["label,f0,f1\n", "f0,f1\n"])
def test_ia_rejects_an_empty_test_set(tmp_path, train_file, capsys, header):
    test = tmp_path / "empty.csv"
    test.write_text(header, encoding="utf-8")
    out = tmp_path / "out.json"
    assert _run("ia", "--dataset", train_file, "--test", test, "--k", 2, "--out", out) == 2
    assert capsys.readouterr() == ("", EMPTY_TEST_SET) and not out.exists()


@pytest.mark.parametrize("command", [["cert-acc", "--budget", "1"]])
def test_each_row_is_tabulated_once(tmp_path, train_file, test_file, command, monkeypatch):
    from finiagg import cli

    calls = []
    original = cli._vote_losses

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cli, "_vote_losses", counting)
    assert _run(
        *command, "--dataset", train_file, "--test", test_file,
        "--k", 3, "--d", 2, "--out", tmp_path / "out.json",
    ) == 0
    assert len(calls) == len(TEST_CSV.splitlines()) - 1


@pytest.mark.parametrize(
    "command, code, per_row",
    # certify --verbose computes each row's losses once for the report and once for its deltas
    [(["certify"], 0, 1), (["certify", "--verbose"], 0, 2), (["curve"], 0, 1), (["compare"], 0, 1),
     # cert-acc refuses its arguments before it tabulates
     (["cert-acc", "--budget", "-1"], 2, 0), (["cert-acc", "--budget", "2", "--enumeration-cap", "5"], 3, 0)],
)
def test_certifying_without_tables_tabulates_nothing(
    tmp_path, train_file, test_file, command, code, per_row, monkeypatch
):
    from finiagg import certifier, cli, oracle

    calls = []
    original = cli._vote_losses

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(certifier, "_vote_losses", counting)
    monkeypatch.setattr(cli, "_vote_losses", counting)
    monkeypatch.setattr(oracle, "_vote_losses", counting)
    assert _run(
        *command, "--dataset", train_file, "--test", test_file,
        "--k", 3, "--d", 2, "--out", tmp_path / "out.json",
    ) == code
    assert len(calls) == per_row * (len(TEST_CSV.splitlines()) - 1)


@pytest.mark.parametrize(
    "command, per_row",
    [(["oracle-check", "--d", "1"], 1), (["oracle-check", "--d", "2"], 1), (["cert-acc", "--d", "2"], 1),
     (["certify", "--verbose", "--d", "2"], 2), (["certify", "--d", "2"], 1), (["curve", "--d", "1"], 1),
     (["compare", "--d", "2"], 1)],
)
def test_loss_rows_serve_only_audits(
    tmp_path, train_file, test_file, command, per_row, monkeypatch
):
    from finiagg import certifier, cli, oracle

    calls = []
    original = cli._vote_losses

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(certifier, "_vote_losses", counting)
    monkeypatch.setattr(cli, "_vote_losses", counting)
    monkeypatch.setattr(oracle, "_vote_losses", counting)
    assert _run(
        *command, "--dataset", train_file, "--test", test_file, "--k", 3, "--out", tmp_path / "out",
    ) == 0
    assert len(calls) == per_row * (len(TEST_CSV.splitlines()) - 1)


def test_verbose_report_is_the_plain_report_plus_deltas(tmp_path, train_file, test_file):
    labelled = tmp_path / "votes.json"
    labelled.write_text(json.dumps({"k": 3, "d": 2, "offsets": [1, 4], "n_classes": 7,
                                    "labels": [0, 0, 2], "votes": WIDE_ROWS}), encoding="utf-8")
    inputs = [["--dataset", train_file, "--test", test_file, "--k", 3, "--d", 2],
              ["--dataset", train_file, "--test", test_file, "--k", 4, "--max-attack-size", 9],
              ["--votes", labelled, "--stats"]]
    for argv in inputs:
        plain, verbose = tmp_path / "plain.json", tmp_path / "verbose.json"
        assert _run("certify", *argv, "--out", plain) == 0
        assert _run("certify", *argv, "--verbose", "--out", verbose) == 0
        head = plain.read_text(encoding="utf-8").removesuffix("\n}\n")
        assert verbose.read_text(encoding="utf-8").startswith(head + ',\n  "delta_multisets": [\n')
        assert list(json.loads(verbose.read_text())) == [*json.loads(plain.read_text()), "delta_multisets"]


def test_cert_acc_budget_past_any_curve_is_certified_for_none(tmp_path, train_file, test_file):
    out = tmp_path / "acc.json"
    argv = ["cert-acc", "--dataset", train_file, "--test", test_file, "--k", 3, "--d", 2]
    assert _run(*argv, "--budget", 10**11, "--out", out) == 0
    report = json.loads(out.read_text())
    assert report["certified_fraction"] == {"exact": "0/1", "float": 0.0}
    assert report["certified_accuracy"] == {"exact": "0/1", "float": 0.0}


def test_cert_acc_computes_each_radius_once(tmp_path, train_file, test_file, monkeypatch):
    from finiagg import certifier

    calls = []
    certificate = certifier._certificate

    def counted(*args):
        calls.append(args)
        return certificate(*args)

    monkeypatch.setattr(certifier, "_certificate", counted)
    argv = ["cert-acc", "--dataset", train_file, "--test", test_file, "--k", 3, "--d", 2]
    for budget in (0, 2, 10**11):
        calls.clear()
        assert _run(*argv, "--budget", budget, "--out", tmp_path / "acc.json") == 0
        assert len(calls) == 3  # one per test row


def test_cert_acc_report_bytes_match_the_brute_force_reference(tmp_path, monkeypatch):
    import random

    from finiagg import cli
    from finiagg.reference import certified_accuracy, margin_table

    from conftest import random_offsets

    rng = random.Random(20)
    for case in range(8):
        d = rng.randint(1, 3)
        k = rng.randint(2, 9 // d)
        kd = k * d
        n_classes = rng.randint(2, 5) + (0, 1, 30)[case % 3]
        classes = rng.sample(range(n_classes), rng.randint(2, min(4, n_classes)))  # the rest get no votes
        labels, rows = [], []
        for _ in range(rng.randint(16, 24)):
            favourite, share = rng.choice(classes), rng.uniform(0.4, 0.9)
            rows.append([favourite if rng.random() < share else rng.choice(classes) for _ in range(kd)])
            labels.append(favourite if rng.random() < 0.9 else rng.randrange(n_classes))
        offsets = random_offsets(rng, k, d)
        votes = tmp_path / f"votes_{case}.json"
        votes.write_text(json.dumps({"k": k, "d": d, "offsets": list(offsets.offsets),
                                     "n_classes": n_classes, "labels": labels, "votes": rows}),
                         encoding="utf-8")
        tables = [margin_table(row, offsets, n_classes) for row in rows]  # from the rows written, not the kernel's

        for budget in (0, rng.randint(1, 3), kd + 2):
            reports = []
            for patch in (False, True):
                with monkeypatch.context() as m:
                    if patch:
                        m.setattr(cli, "_certified_accuracy",
                                  lambda rows, radii, q_size: certified_accuracy(tables, labels, q_size))
                    out = tmp_path / f"acc_{patch}.json"
                    assert _run("cert-acc", "--votes", votes, "--budget", budget, "--out", out) == 0
                    reports.append(out.read_bytes())
            assert reports[0] == reports[1], (case, budget)


def test_wide_class_indices_certify_like_the_reference(tmp_path):
    from conftest import reference_certificates

    # votes above 2**16 need 32-bit class indices; narrower ones would wrap
    votes = tmp_path / "votes.json"
    rows = [
        [69_999, 69_999, 40_000, 69_999, 3, 69_999],
        [65_536, 65_536, 65_536, 1, 65_537, 65_536],
        [5, 5, 5, 5, 5, 5],
        [33_000, 1, 33_000, 1, 2, 3],
    ]
    obj = {"k": 3, "d": 2, "offsets": [1, 4], "n_classes": 70_000,
           "labels": [69_999, 65_536, 4, 1], "votes": rows}
    votes.write_text(json.dumps(obj), encoding="utf-8")
    report = tmp_path / "report.json"
    assert _run("certify", "--votes", votes, "--out", report) == 0
    matrix = votes_from_json(votes.read_text(encoding="utf-8"))
    reference = reference_certificates(matrix)
    certs = json.loads(report.read_text())["certificates"]
    assert certs == [
        {"predicted": c.predicted, "correct": c.correct, "fa_radius": c.fa_radius,
         "dpa_radius": c.dpa_radius}
        for c in reference
    ]
    assert [c["predicted"] for c in certs] == [69_999, 65_536, 5, 1]


def test_class_indices_past_a_signed_64_bit_integer_certify(tmp_path, capsys):
    # 8-byte votes are the one class limit (2^64); a vote for class 2^63 ties with class 0
    votes = tmp_path / "votes.json"
    n_classes = 2**63 + 1
    obj = {"k": 2, "d": 1, "offsets": [0], "n_classes": n_classes, "votes": [[0, n_classes - 1]]}
    votes.write_text(json.dumps(obj), encoding="utf-8")
    assert _run("certify", "--votes", votes) == 0
    out, err = capsys.readouterr()
    assert err == ""
    report = json.loads(out)
    assert report["n_classes"] == n_classes
    assert report["certificates"] == [{"predicted": 0, "correct": None, "fa_radius": 0, "dpa_radius": 0}]
    assert [p["certified_fraction"]["exact"] for p in report["curve"]] == ["1/1", "0/1", "0/1"]


# votes stay small, so only a table over every class, not the votes, is too big
WIDE_ROWS = [[0, 0, 1, 0, 2, 0], [1, 1, 5, 1, 0, 1], [2, 2, 2, 2, 2, 1]]


def _wide_votes(path, n_classes):
    obj = {"k": 3, "d": 2, "offsets": [1, 4], "n_classes": n_classes, "labels": [0, 1, 2],
           "votes": WIDE_ROWS}
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


@pytest.mark.parametrize("n_classes", [2**40, 2**63 + 1])
def test_reference_commands_exit_three_when_classes_cannot_be_tabulated(
    tmp_path, capsys, n_classes
):
    votes = _wide_votes(tmp_path / "votes.json", n_classes)
    assert _run("certify", "--verbose", "--votes", votes) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "LimitError"
    # the audits count only the classes with votes, as certify does
    narrow = _wide_votes(tmp_path / "narrow.json", 7)
    for argv in (("cert-acc",), ("oracle-check",)):
        assert _run(*argv, "--votes", narrow) == 0, argv
        expected = capsys.readouterr()
        assert _run(*argv, "--votes", votes) == 0, argv
        assert capsys.readouterr() == expected, argv


@pytest.mark.parametrize("command", ["certify", "curve", "compare", "cert-acc", "oracle-check"])
def test_vote_files_past_8_byte_class_indices_exit_three(tmp_path, capsys, command):
    n_classes = 2**64 + 1
    votes = _wide_votes(tmp_path / "votes.json", n_classes)
    assert _run(command, "--votes", votes) == 3
    out, err = capsys.readouterr()
    assert out == ""
    message = f"class indices up to {n_classes - 1} do not fit in a 64-bit integer"
    assert err == json.dumps({"error": "LimitError", "message": message, "exit_code": 3}) + "\n"


@pytest.mark.parametrize("learner", ["centroid", "majority"])
def test_dataset_runs_past_8_byte_class_indices_save_no_votes(tmp_path, train_file, test_file, learner, capsys):
    saved = tmp_path / "saved.json"
    assert _run("certify", "--dataset", train_file, "--test", test_file, "--k", 2, "--learner", learner,
                "--n-classes", 2**64 + 1, "--save-votes", saved) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "LimitError"
    assert not saved.exists()


def test_certify_counts_only_classes_with_votes(tmp_path):
    reports = []
    for n_classes in (2**40, 7):  # 7 = largest vote + 2
        out = tmp_path / f"{n_classes}.json"
        assert _run("certify", "--votes", _wide_votes(tmp_path / "votes.json", n_classes),
                    "--out", out) == 0
        reports.append(json.loads(out.read_text()))
    wide, narrow = reports
    assert wide.pop("n_classes") == 2**40 and narrow.pop("n_classes") == 7
    assert wide == narrow
    assert "ensemble_stats" in wide


def test_commands_off_the_kernel_path_do_not_import_numpy(tmp_path, train_file, test_file):
    import subprocess
    import sys

    votes = tmp_path / "votes.json"
    votes.write_text(json.dumps({**VOTES, "votes": [[1, 0]]}), encoding="utf-8")
    # losses past one byte (d = 200), and class numbers past one byte (300 classes with votes)
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({"k": 1, "d": 200, "offsets": list(range(200)), "n_classes": 3,
                                "labels": [0], "votes": [[0] * 150 + [1] * 30 + [2] * 20]}), encoding="utf-8")
    many = tmp_path / "many.json"
    many.write_text(json.dumps({"k": 300, "d": 1, "offsets": [7], "n_classes": 400, "labels": [5],
                                "votes": [[5] * 20 + list(range(20, 300))]}), encoding="utf-8")
    audits = [[*command, "--votes", str(path)] for path in (votes, wide, many)
              for command in (["oracle-check", "--oracle-limit", "300"], ["cert-acc", "--budget", "1"],
                              ["certify"], ["certify", "--verbose"], ["curve"], ["compare"])]
    script = f"""
import sys
import finiagg.cli
assert "numpy" not in sys.modules, "import finiagg.cli"
for argv in (
    *{audits!r},
    ["ia", "--dataset", {str(train_file)!r}, "--test", {str(test_file)!r}, "--k", "2"],
):
    assert finiagg.cli.main(argv) == 0, argv
    assert "numpy" not in sys.modules, argv[0]
"""
    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.dirname(__file__), os.pardir, "src")}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_no_command_loads_dataclasses(tmp_path, train_file, test_file):
    import subprocess
    import sys

    votes = tmp_path / "votes.json"
    votes.write_text(json.dumps({**VOTES, "votes": [[1, 0]]}), encoding="utf-8")
    by_votes = [[*command, "--votes", str(votes)] for command in (
        ["certify"], ["certify", "--verbose"], ["curve"], ["compare"], ["cert-acc", "--budget", "1"],
        ["oracle-check"])]
    script = f"""
import sys
import finiagg.cli
import finiagg.reference
assert "dataclasses" not in sys.modules and "inspect" not in sys.modules, "import"
for argv in {by_votes!r}:
    assert finiagg.cli.main(argv) == 0, argv
    assert "dataclasses" not in sys.modules and "inspect" not in sys.modules, argv
for argv in (  # numpy, which the --dataset front end imports, loads inspect
    ["certify", "--dataset", {str(train_file)!r}, "--test", {str(test_file)!r}, "--k", "3", "--d", "2"],
    ["ia", "--dataset", {str(train_file)!r}, "--test", {str(test_file)!r}, "--k", "2"],
):
    assert finiagg.cli.main(argv) == 0, argv
    assert "dataclasses" not in sys.modules, argv
"""
    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.dirname(__file__), os.pardir, "src")}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_the_cli_loads_eight_package_modules():
    import subprocess
    import sys

    script = "import sys, finiagg.cli; print(sorted(n for n in sys.modules if n.split('.')[0] == 'finiagg'))"
    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.dirname(__file__), os.pardir, "src")}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(sorted(["finiagg", *(f"finiagg.{m}" for m in (
        "cli", "certifier", "datamodel", "errors", "hashing", "oracle", "infinite_aggregation"))]))


def test_the_package_loads_a_module_on_first_use_of_its_names():
    import subprocess
    import sys

    script = """
import sys
loaded = lambda: sorted(n for n in sys.modules if n.split('.')[0] == 'finiagg')
import finiagg
print(loaded())
finiagg.certify_matrix
print(loaded())
"""
    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.dirname(__file__), os.pardir, "src")}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [str(["finiagg"]), str(sorted(["finiagg", *(f"finiagg.{m}" for m in (
        "certifier", "datamodel", "errors", "hashing"))]))]


def test_no_command_imports_the_references(tmp_path, train_file, test_file):
    import subprocess
    import sys

    votes = tmp_path / "votes.json"
    votes.write_text(json.dumps({**VOTES, "votes": [[1, 0]]}), encoding="utf-8")
    data = ["--dataset", str(train_file), "--test", str(test_file), "--k", "3", "--d", "2"]
    script = f"""
import sys
import finiagg.cli
assert "finiagg.reference" not in sys.modules, "import finiagg.cli"
for argv in (
    ["certify", "--votes", {str(votes)!r}],
    ["certify", "--verbose", *{data!r}],
    ["certify", *{data!r}, "--learner", "centroid"],
    ["certify", *{data!r}, "--learner", "majority"],
    ["curve", *{data!r}],
    ["compare", *{data!r}],
    ["cert-acc", *{data!r}],
    ["cert-acc", "--votes", {str(votes)!r}, "--budget", "1"],
    ["oracle-check", *{data!r}],
    ["oracle-check", "--votes", {str(votes)!r}],
    ["ia", "--dataset", {str(train_file)!r}, "--test", {str(test_file)!r}, "--k", "2"],
):
    assert finiagg.cli.main(argv) == 0, argv
    assert "finiagg.reference" not in sys.modules, argv
assert finiagg.train is sys.modules["finiagg.reference"].train
from finiagg import spread_inverse
assert spread_inverse is finiagg.reference.spread_inverse
"""
    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.dirname(__file__), os.pardir, "src")}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("command", ["certify", "cert-acc", "oracle-check"])
@pytest.mark.parametrize("extra_key", [False, True])
def test_deeply_nested_vote_json_is_a_data_error(tmp_path, capsys, command, extra_key):
    nested = "[" * 3000 + "]" * 3000
    text = json.dumps(VOTES)[:-1] + f', "extra": {nested}}}' if extra_key else nested
    votes = tmp_path / "votes.json"
    votes.write_text(text, encoding="utf-8")
    assert _run(command, "--votes", votes) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    error = json.loads(err)
    assert (error["error"], error["exit_code"]) == ("DataError", 2)
    # the rest of the message is the json decoder's own
    assert error["message"].startswith("invalid vote-matrix JSON: maximum recursion depth exceeded")


@pytest.mark.parametrize(
    "layout, kd",
    [(["--k", 2**70], 2**70), (["--k", 2**70, "--dpa-compatible"], 2**70), (["--k", 2**32, "--d", 2**32], 2**64)],
)
def test_partitions_past_2_63_are_a_limit_error(train_file, test_file, capsys, layout, kd):
    assert _run("certify", "--dataset", train_file, "--test", test_file, *layout) == 3
    out, err = capsys.readouterr()
    message = f"the {kd} partitions do not fit in memory"
    assert out == ""
    assert err == json.dumps({"error": "LimitError", "message": message, "exit_code": 3}) + "\n"


def test_vote_json_holds_one_row_per_line():
    text = votes_to_json(votes_from_json(json.dumps({**VOTES, "labels": [1, 0], "votes": [[1, 1], [0, 1]]})))
    assert text == (
        '{\n  "k": 2,\n  "d": 1,\n  "offsets": [1],\n  "n_classes": 2,\n  "labels": [1, 0],\n'
        '  "votes": [\n    [1, 1],\n    [0, 1]\n  ]\n}\n'
    )
    assert votes_to_json(votes_from_json(text)) == text


@pytest.mark.parametrize(
    "votes, message",
    [
        ([[1, 1], [0, 2]], "vote row 1: class 2 outside [0, 2)"),
        ([[1, -1], [0, 5]], "vote row 0: class -1 outside [0, 2)"),
        ([[1, 1], [0, 1, 1]], "vote row 1 has 3 entries, expected 2"),
        ([[1, 1], [0, False]], "vote-matrix JSON field 'votes': False is not an integer"),
        ([[1, "x", 2.5]], "vote-matrix JSON field 'votes': 'x' is not an integer"),
        ([[1, 1], 7], "vote-matrix JSON missing or malformed field: 'int' object is not iterable"),
    ],
)
def test_vote_file_errors_name_the_first_bad_value(tmp_path, votes, message, capsys):
    path = tmp_path / "votes.json"
    path.write_text(json.dumps({**VOTES, "labels": None, "votes": votes}), encoding="utf-8")
    assert _run("certify", "--votes", path) == 2
    assert json.loads(capsys.readouterr().err)["message"] == message


@pytest.mark.parametrize(
    "token, value",
    [("true", "True"), ("false", "False"), ("1.0", "1.0"), ("-0.0", "-0.0"), ("1e400", "inf"),
     ("NaN", "nan"), ("Infinity", "inf"), ('"3"', "'3'"), ("null", "None"), ("[]", "[]"), ("{}", "{}"),
     (f"{10**400}, 2.5", "2.5")],  # the int is too large to add to the float
)
def test_a_later_rows_type_error_comes_before_an_earlier_rows_length_error(tmp_path, capsys, token, value):
    path = tmp_path / "votes.json"
    path.write_text('{"k": 2, "d": 1, "offsets": [1], "n_classes": 2, "votes": [[1, 1, 1], [0, %s]]}' % token,
                    encoding="utf-8")
    assert _run("certify", "--votes", path) == 2
    message = f"vote-matrix JSON field 'votes': {value} is not an integer"
    assert capsys.readouterr() == ("", json.dumps({"error": "DataError", "message": message, "exit_code": 2}) + "\n")


@pytest.mark.parametrize("extra", ['"true": 0', '"note": "false"'])
def test_a_vote_file_whose_text_holds_true_checks_every_vote_and_writes_the_same_bytes(tmp_path, monkeypatch, extra):
    plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
    obj = {**VOTES, "labels": [1, 0], "votes": [[1, 1], [0, 1]]}
    plain.write_text(json.dumps(obj), encoding="utf-8")
    marked.write_text(json.dumps(obj)[:-1] + f", {extra}}}", encoding="utf-8")
    seen = []
    json_ints = finiagg.cli._json_ints
    monkeypatch.setattr(finiagg.cli, "_json_ints", lambda *args: seen.append(args[2]) or json_ints(*args))
    for votes, bools in ((plain, False), (marked, True)):
        seen.clear()
        assert _run("certify", "--votes", votes, "--out", votes.with_suffix(".out"), "--verbose") == 0
        assert seen == [bools] * 4  # the offsets, two rows and the labels
    assert plain.with_suffix(".out").read_bytes() == marked.with_suffix(".out").read_bytes()


ROWS = "".join(f"{i % 3},{i % 7},{i % 5}\n" for i in range(1024))  # one block of the block reader

# Training CSVs the streamed reader must reject exactly as read_dataset_csv does:
# (train CSV or None for a missing file, extra argv, exit code, error, message)
STREAM_ERRORS = [
    (None, [], 2, "DataError",
     "cannot read {train}: [Errno 2] No such file or directory: '{train}'"),
    ("", [], 2, "DataError", "{train}: missing header"),
    ("label,f1\n0,1\n", [], 2, "DataError",
     "{train}: header must be 'label,f0,...' or 'f0,...', got label,f1"),
    ("f0,f1\n1,2\n", [], 2, "DataError", "{train}: training data needs a label column"),
    ("label\n0\n", [], 2, "DataError", "feature_dim must be positive, got 0"),
    ("label,f0,f1\n0,1,2\n1,2,x\n", [], 2, "DataError", "{train}: row 1 has a non-integer cell"),
    ("label,f0,f1\n0,1,2\n1,2\n", [], 2, "RaggedRow", "row 1: expected 2 feature columns, got 1"),
    ("label,f0,f1\n0,1,2\n1,2,-3\n", [], 2, "NegativeFeature", "row 1: feature f1 is negative (-3)"),
    ("label,f0,f1\n0,1,2\n3,2,2\n", ["--n-classes", "3"], 2, "LabelOutOfRange",
     "row 1: label 3 outside [0, 3)"),
    ("label,f0,f1\n-1,1,2\n", [], 2, "LabelOutOfRange", "row 0: label -1 outside [0, 0)"),
    ("label,f0,f1\n", [], 2, "DataError", "empty dataset needs an explicit n_classes"),
    ("label,f0,f1\n", ["--n-classes", "0"], 2, "DataError", "n_classes must be positive, got 0"),
    # every row is checked for integer cells before any row is validated
    ("label,f0,f1\n0,1\n0,-1,2\n0,1,x\n", [], 2, "DataError", "{train}: row 2 has a non-integer cell"),
    ("label,f0,f1\n0,1\n0,-1,2\n", [], 2, "RaggedRow", "row 0: expected 2 feature columns, got 1"),
    # blank lines are not numbered, by the cell check or by the row checks
    ("label,f0,f1\n0,1,2\n\n0,1,x\n", [], 2, "DataError", "{train}: row 1 has a non-integer cell"),
    ("label,f0,f1\n0,1,2\n\n0,-1,2\n", [], 2, "NegativeFeature", "row 1: feature f0 is negative (-1)"),
    # the training CSV is read before --k and --d are checked
    ("label,f0,f1\n0,1,x\n", ["--k", "0"], 2, "DataError", "{train}: row 0 has a non-integer cell"),
    ("label,f0,f1\n0,1\n", ["--d", "0"], 2, "RaggedRow", "row 0: expected 2 feature columns, got 1"),
    ("label,f0,f1\n0,1,x\n", ["--d", "2", "--dpa-compatible"], 2, "DataError",
     "{train}: row 0 has a non-integer cell"),
    (TRAIN_CSV, ["--k", "0"], 2, "DataError", "k must be positive, got 0"),
    (TRAIN_CSV, ["--k", "-2", "--d", "0"], 2, "DataError", "k must be positive, got -2"),
    (TRAIN_CSV, ["--d", "0"], 2, "DataError", "d must be positive, got 0"),
    (TRAIN_CSV, ["--d", "2", "--dpa-compatible"], 1, "UsageError",
     "dpa-compatible mode requires d=1, got d=2"),
    ("label,f0,f1\n0,1,2\n", [], 2, "DataError", "{test}: row 1: label 1 outside [0, 1)"),
    # over several blocks: rows are numbered across blocks and across the csv reader's takeover,
    # which starts at the first block the block reader refuses
    ("label,f0,f1\n0,1\n" + ROWS[6:] + ROWS + "0,1,x\n", [], 2, "DataError",
     "{train}: row 2048 has a non-integer cell"),
    ("label,f0,f1\n" + ROWS + f"0,1,{2**64}\n" + ROWS[6:] + "0,-1,2\n", [], 2, "NegativeFeature",
     "row 2048: feature f0 is negative (-1)"),
    ("label,f0,f1\n" + ROWS + ROWS[6:] + '0,1,"2\n3"\n' + ROWS, [], 2, "DataError",  # a quote opened in block 2
     "{train}: row 2047 has a non-integer cell"),
    ("label,f0,f1\n" + ROWS + "0,1,x\n", ["--k", "0"], 2, "DataError", "{train}: row 1024 has a non-integer cell"),
    ("label,f0,f1\n" + ROWS + "0,-1,2\n", ["--k", "0"], 2, "NegativeFeature",
     "row 1024: feature f0 is negative (-1)"),
]


@pytest.mark.parametrize("learner", ["centroid", "majority"])
@pytest.mark.parametrize("train_csv, extra, code, error, message", STREAM_ERRORS)
def test_streamed_training_csv_fails_like_the_reference(
    tmp_path, test_file, learner, train_csv, extra, code, error, message, capsys
):
    train = tmp_path / "train.csv"
    if train_csv is not None:
        train.write_text(train_csv, encoding="utf-8")
    argv = ["certify", "--dataset", train, "--test", test_file, "--learner", learner, *extra]
    assert _run(*argv) == code
    out, err = capsys.readouterr()
    assert out == ""
    want = {"error": error, "message": message.format(train=train, test=test_file), "exit_code": code}
    assert err == json.dumps(want) + "\n"


@pytest.mark.parametrize(
    "test_csv, error, message",
    [("label,f0,f1\n0,2,2\n\n1,8,x\n", "DataError", "{test}: row 1 has a non-integer cell"),
     ("label,f0,f1\n0,2,2\n\n1,8,-8\n", "NegativeFeature", "{test}: row 1: feature f1 is negative (-8)"),
     ("label,f0,f1\n0,2,2\n\n1,8\n", "RaggedRow", "{test}: row 1: expected 2 feature columns, got 1"),
     ("f0,f1\n\n2,2\n\n8,x\n", "DataError", "{test}: row 1 has a non-integer cell"),
     # labels are checked after every row's features, and a bad one is a plain DataError
     pytest.param("label,f0,f1\n5,2,2\n" + "0,1,1\n" * 1029 + "0,1,-4\n", "NegativeFeature",
                  "{test}: row 1030: feature f1 is negative (-4)", id="feature-in-block-2-before-label"),
     pytest.param("label,f0,f1\n0,2,2\n-1,8,8\n", "DataError", "{test}: row 1: label -1 outside [0, 3)",
                  id="negative-label")],
)
def test_test_csv_rows_are_numbered_without_blank_lines(tmp_path, train_file, test_csv, error, message, capsys):
    test = tmp_path / "blank.csv"
    test.write_text(test_csv, encoding="utf-8")
    assert _run("certify", "--dataset", train_file, "--test", test) == 2
    want = {"error": error, "message": message.format(test=test), "exit_code": 2}
    assert capsys.readouterr().err == json.dumps(want) + "\n"


def test_training_csv_that_is_a_directory_is_unreadable(tmp_path, test_file, capsys):
    assert _run("certify", "--dataset", tmp_path, "--test", test_file) == 2
    message = f"cannot read {tmp_path}: [Errno 21] Is a directory: '{tmp_path}'"
    assert json.loads(capsys.readouterr().err)["message"] == message


def test_empty_training_csv_with_n_classes_votes_class_zero(tmp_path, test_file):
    train = tmp_path / "train.csv"
    train.write_text("label,f0,f1\n", encoding="utf-8")
    for learner in ("centroid", "majority"):
        votes = tmp_path / "votes.json"
        assert _run("curve", "--dataset", train, "--test", test_file, "--k", 3, "--d", 2,
                    "--n-classes", 3, "--learner", learner, "--save-votes", votes,
                    "--out", tmp_path / "c.csv") == 0
        assert votes_from_json(votes.read_text(encoding="utf-8")).votes == (bytes(6),) * 3


def test_test_width_must_match_the_training_width_for_centroids(tmp_path, train_file, capsys):
    narrow = tmp_path / "narrow.csv"
    narrow.write_text("f0\n2\n8\n", encoding="utf-8")
    argv = ("certify", "--dataset", train_file, "--test", narrow, "--k", 3, "--d", 2)
    want = {"error": "DimensionMismatch", "message": "expected 2 features, got 1", "exit_code": 2}
    # the front end raises the mismatch itself, also where no model could hold n_classes counters
    for classes in ((), ("--n-classes", 2**40)):
        assert _run(*argv, *classes, "--learner", "centroid") == 2
        assert capsys.readouterr().err == json.dumps(want) + "\n"
    assert _run(*argv, "--learner", "majority", "--out", tmp_path / "r.json") == 0


@pytest.mark.parametrize(
    "content, message",
    [(b"\nlabel,f0\n0,1\n", "missing header"),
     (b"label,f0\n0,\xff\n", "row 0 has a non-integer cell"),
     (b'label,f0\n0,"' + b"1" * 140_000 + b'"\n', "field larger than field limit (131072)"),
     (b'label,"' + b"f" * 140_000 + b'"\n0,1\n', "field larger than field limit (131072)")],
    ids=["blank-header-line", "not-utf-8", "field-over-csv-limit", "header-field-over-csv-limit"],
)
def test_unreadable_csv_text_is_a_data_error(tmp_path, train_file, test_file, content, message, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(content)
    want = json.dumps({"error": "DataError", "message": f"{bad}: {message}", "exit_code": 2}) + "\n"
    for dataset, test in ((bad, test_file), (train_file, bad)):
        for command in (["certify", "--k", "3"], ["ia", "--k", "2"]):
            assert _run(*command, "--dataset", dataset, "--test", test) == 2
            assert capsys.readouterr().err == want


def test_unreadable_vote_file_text_is_a_data_error(tmp_path, capsys):
    votes, missing = tmp_path / "votes.json", tmp_path / "missing.json"
    votes.write_bytes(b"\xff")
    assert _run("certify", "--votes", votes) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "DataError"
    assert _run("certify", "--votes", missing) == 2
    message = f"cannot read {missing}: [Errno 2] No such file or directory: '{missing}'"
    assert capsys.readouterr().err == json.dumps({"error": "DataError", "message": message, "exit_code": 2}) + "\n"


# a byte that is not UTF-8 reads as U+FFFD, so it fails the header name or cell that holds it:
# id: (training CSV, test CSV or None for TEST_CSV, message)
NOT_UTF_8 = {
    "header": (b"label,f\xff0,f1\n0,1,2\n", None,
               "{train}: header must be 'label,f0,...' or 'f0,...', got label,f\ufffd0,f1"),
    "first-cell": (b"label,f0,f1\n\xff0,1,2\n", None, "{train}: row 0 has a non-integer cell"),
    "quoted-cell": (b'label,f0,f1\n0,1,2\n0,"1\xff",2\n', None, "{train}: row 1 has a non-integer cell"),
    "blank-line": (b"label,f0,f1\n0,1,2\n\xff\n0,1,2\n", None, "{train}: row 1 has a non-integer cell"),
    "unterminated-last-line": (b"label,f0,f1\n0,1,2\n0,1,2\xff", None, "{train}: row 1 has a non-integer cell"),
    "second-block": (b"label,f0,f1\n" + ROWS.encode("utf-8") + b"0,1,2\n1,\xff,2\n", None,
                     "{train}: row 1025 has a non-integer cell"),
    "test-labelled": (TRAIN_CSV.encode("utf-8"), b"label,f0,f1\n0,2,2\n1,\xff8,8\n",
                      "{test}: row 1 has a non-integer cell"),
    "test-unlabelled": (TRAIN_CSV.encode("utf-8"), b"f0,f1\n2,2\n8,8\xff\n", "{test}: row 1 has a non-integer cell"),
    "test-header": (TRAIN_CSV.encode("utf-8"), b"label,f0,f1\xff\n0,2,2\n",
                    "{test}: header must be 'label,f0,...' or 'f0,...', got label,f0,f1\ufffd"),
    # it ranks as a non-integer cell: after an earlier one, and before every row check
    "after-an-x-cell": (b"label,f0,f1\n0,1,x\n0,1,\xff\n", None, "{train}: row 0 has a non-integer cell"),
    "after-a-ragged-row": (b"label,f0,f1\n0,1\n0,1,\xff\n", None, "{train}: row 1 has a non-integer cell"),
}


@pytest.mark.parametrize("case", NOT_UTF_8)
def test_a_byte_that_is_not_utf_8_fails_the_cell_or_header_that_holds_it(tmp_path, case, capsys):
    train_csv, test_csv, message = NOT_UTF_8[case]
    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    train.write_bytes(train_csv)
    test.write_bytes(TEST_CSV.encode("utf-8") if test_csv is None else test_csv)
    want = {"error": "DataError", "message": message.format(train=train, test=test), "exit_code": 2}
    for command in (["certify", "--k", 3, "--learner", "centroid"], ["certify", "--k", 3, "--learner", "majority"],
                    ["ia", "--k", 2]):
        assert _run(*command, "--dataset", train, "--test", test) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == json.dumps(want) + "\n", command


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd to name a pipe")
def test_a_byte_that_is_not_utf_8_in_a_pipe_fails_its_row(test_file, capsys):
    read_end, write_end = os.pipe()
    os.write(write_end, b"label,f0,f1\n0,1,2\n1,\xff,2\n")  # fits in the pipe's buffer
    os.close(write_end)
    pipe = f"/dev/fd/{read_end}"
    try:
        assert _run("certify", "--dataset", pipe, "--test", test_file) == 2
    finally:
        os.close(read_end)
    want = {"error": "DataError", "message": f"{pipe}: row 1 has a non-integer cell", "exit_code": 2}
    assert capsys.readouterr().err == json.dumps(want) + "\n"


def test_every_csv_is_closed_however_its_read_ends(tmp_path, test_file):
    from unittest import mock

    from finiagg import cli

    opened = []

    def tracked(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    train, bad_test = tmp_path / "train.csv", tmp_path / "bad_test.csv"
    bad_test.write_text("f0,g1\n" + "2,2\n" * 2000, encoding="utf-8")
    # read to the end; failed at the header or at a cell, the lines after it unread; a test CSV failed
    for train_csv, test, code in [(TRAIN_CSV, test_file, 0), ("label,f1\n" + ROWS, test_file, 2),
                                  ("label,f0,f1\n0,1,x\n" + ROWS, test_file, 2), (TRAIN_CSV, bad_test, 2)]:
        train.write_text(train_csv, encoding="utf-8")
        for command in (["certify", "--k", 3], ["ia", "--k", 2]):
            opened.clear()
            with mock.patch.object(cli, "open", tracked, create=True):
                assert _run(*command, "--dataset", train, "--test", test, "--out", tmp_path / "out") == code
            assert opened and all(file.closed for file in opened), (train_csv[:12], test, command)


@pytest.mark.parametrize("text", ["", "label,f0,f1\n", "label,f0,f1\n0,1,2\n"])
def test_a_read_error_mid_file_is_a_data_error(tmp_path, text, capsys):
    import io
    from unittest import mock

    from finiagg import cli

    class FailingFile(io.StringIO):  # its text's lines, then a read error
        def __next__(self):
            if line := self.readline():
                return line
            raise OSError(5, "Input/output error")

    files = []

    def failing_open(path, **kwargs):
        files.append(FailingFile(text))
        return files[-1]

    train = tmp_path / "train.csv"
    want = {"error": "DataError", "message": f"cannot read {train}: [Errno 5] Input/output error", "exit_code": 2}
    for command in (["certify", "--k", 3], ["ia", "--k", 2]):
        files.clear()
        with mock.patch.object(cli, "open", failing_open, create=True):
            assert _run(*command, "--dataset", train, "--test", train) == 2
        assert capsys.readouterr().err == json.dumps(want) + "\n"
        assert len(files) == 1 and files[0].closed


def test_a_majority_run_shares_one_vote_row(train_file, test_file):
    from finiagg.cli import _matrix_from_args, build_parser

    argv = ["certify", "--dataset", train_file, "--test", test_file, "--k", 3, "--d", 2, "--learner", "majority"]
    votes = _matrix_from_args(build_parser().parse_args(map(str, argv))).votes
    assert len(votes) == 3
    assert all(row is votes[0] for row in votes)


# a cell past int64, which the block reader refuses and the csv reader reads
HUGE_CELL_CSV = TRAIN_CSV.replace("0,1,2\n", f"0,1,{2**64}\n")


@pytest.mark.parametrize("learner", ["centroid", "majority"])
@pytest.mark.parametrize("train_csv", [TRAIN_CSV, HUGE_CELL_CSV], ids=["int64", "past-int64"])
def test_dataset_runs_size_the_class_axis_from_the_labels(tmp_path, test_file, learner, train_csv):
    train = tmp_path / "train.csv"
    train.write_text(train_csv, encoding="utf-8")
    reports = []
    for n_classes in (2**40, 4):  # 4 = largest label + 2
        out = tmp_path / f"{n_classes}.json"
        assert _run("certify", "--dataset", train, "--test", test_file, "--k", 3, "--d", 2,
                    "--learner", learner, "--n-classes", n_classes, "--out", out) == 0
        reports.append(json.loads(out.read_text()))
    wide, narrow = reports
    assert wide.pop("n_classes") == 2**40 and narrow.pop("n_classes") == 4
    assert wide == narrow


@pytest.mark.parametrize("n_classes", [2**40, 2**63 + 1])
def test_training_references_exit_three_when_classes_cannot_be_allocated(
    tmp_path, train_file, test_file, n_classes, capsys
):
    # ia trains with the reference learners, which hold n_classes counters per model
    assert _run("ia", "--dataset", train_file, "--test", test_file, "--k", 2, "--n-classes", n_classes) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "LimitError"


@pytest.mark.parametrize("learner", ["centroid", "majority"])
def test_dataset_runs_past_a_signed_64_bit_class_index_certify(tmp_path, train_file, test_file, learner, capsys):
    # the models size their class axis from the labels, and 8-byte votes hold every class index
    huge = tmp_path / "huge.csv"
    huge.write_text(HUGE_CELL_CSV, encoding="utf-8")
    n_classes = 2**63 + 1
    for train in (train_file, huge):
        reports = []
        for classes in (n_classes, 4):  # 4 = largest label + 2
            assert _run("certify", "--dataset", train, "--test", test_file, "--k", 2,
                        "--learner", learner, "--n-classes", classes) == 0, train
            out, err = capsys.readouterr()
            assert err == ""
            reports.append(json.loads(out))
        wide, narrow = reports
        assert wide.pop("n_classes") == n_classes and narrow.pop("n_classes") == 4
        assert wide == narrow


def test_statistics_that_cannot_be_allocated_exit_three(tmp_path, train_file, test_file, capsys):
    from unittest import mock

    from finiagg import arrays

    msg = "the per-class statistics of 6 partitions do not fit in memory"
    with mock.patch.object(arrays, "partition_statistics", return_value=None):
        assert _run("certify", "--dataset", train_file, "--test", test_file, "--k", 3, "--d", 2) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": "LimitError", "message": msg, "exit_code": 3}


@pytest.mark.parametrize("defect, code, error, message", [
    ("0,-1,2\n", 2, "NegativeFeature", "row 2048: feature f0 is negative (-1)"),
    ("", 3, "LimitError", "the per-class statistics of 6 partitions do not fit in memory"),
])
def test_a_refused_allocation_mid_stream_comes_after_the_csvs_errors(
    tmp_path, test_file, defect, code, error, message, capsys
):
    from unittest import mock

    from finiagg import arrays

    # block 1 has only label 0, so the class axis grows, and is refused, on block 2
    train = tmp_path / "train.csv"
    train.write_text("label,f0,f1\n" + "0,1,2\n" * 1024 + ROWS + defect, encoding="utf-8")
    with mock.patch.object(arrays, "_grow", side_effect=MemoryError) as grow:
        assert _run("certify", "--dataset", train, "--test", test_file, "--k", 3, "--d", 2) == code
    assert grow.call_count == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == json.dumps({"error": error, "message": message, "exit_code": code}) + "\n"


def test_the_csv_reader_parses_only_from_the_first_refused_block(tmp_path, test_file):
    from unittest import mock

    from finiagg import cli, datamodel

    # blocks 1 and 2 are int64; block 3 holds a cell of 2^64, so the csv reader takes its 1,024 + 5 rows
    rest = f"0,1,{2**64}\n" + ROWS[6:] + "\n1,2,3\n" * 5
    train = tmp_path / "train.csv"
    train.write_text("label,f0,f1\n" + ROWS * 2 + rest, encoding="utf-8")
    int_rows, parsed = cli._int_rows, []

    def record(reader, path, first=0):
        for row in int_rows(reader, path, first):
            if str(path) == str(train):
                parsed.append(row)
            yield row

    no_samples = mock.patch.object(datamodel, "LabeledSample", side_effect=AssertionError("a LabeledSample"))
    with mock.patch.object(cli, "_int_rows", record), no_samples:
        assert _run("certify", "--dataset", train, "--test", test_file, "--k", 3, "--d", 2,
                    "--out", tmp_path / "report.json") == 0
    assert len(parsed) == 1024 + 5
    assert parsed[0] == (0, 1, 2**64) and parsed[-1] == (1, 2, 3)


LONG_DIGITS = "1" * 5000  # int() and json refuse more than 4,300 digits


@pytest.mark.parametrize("entry", ["certify", "ia", "test-csv", "votes"])
def test_integers_past_the_digit_limit_exit_three(tmp_path, train_file, test_file, entry, capsys):
    long = tmp_path / "long"
    if entry == "votes":
        long.write_text(json.dumps(VOTES).replace('"votes": [[1, 1]]', f'"votes": [[1, {LONG_DIGITS}]]'))
        argv = ["certify", "--votes", long]
        message = f"{long}: an integer has more than 4300 digits"
    elif entry == "test-csv":
        long.write_text(f"label,f0,f1\n0,1,{LONG_DIGITS}\n", encoding="utf-8")
        argv = ["certify", "--dataset", train_file, "--test", long]
        message = f"{long}: row 0 has a cell of more than 4300 digits"
    else:
        long.write_text(f"label,f0\n0,{LONG_DIGITS}\n1,2\n", encoding="utf-8")
        argv = [entry, "--dataset", long, "--test", test_file, "--k", 2]
        message = f"{long}: row 0 has a cell of more than 4300 digits"
    assert _run(*argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == json.dumps({"error": "LimitError", "message": message, "exit_code": 3}) + "\n"


def test_certify_counts_classes_beyond_kd_without_a_counter_per_class(tmp_path):
    big = 2**40 - 1
    wide = [[0, 0, 1, 0, big, 0], [big, big, 5, big, 0, 1], [2, 2, 2, 2, 2, 1]]
    # 7 keeps big's order against every class present and against 2, the smallest absent one
    narrow = [[7 if v == big else v for v in row] for row in wide]
    reports = []
    for n_classes, rows, labels in ((2**40, wide, [0, big, 2]), (8, narrow, [0, 7, 2])):
        votes = tmp_path / "votes.json"
        obj = {"k": 3, "d": 2, "offsets": [1, 4], "n_classes": n_classes, "labels": labels,
               "votes": rows}
        votes.write_text(json.dumps(obj), encoding="utf-8")
        out = tmp_path / f"{n_classes}.json"
        assert _run("certify", "--votes", votes, "--out", out) == 0
        reports.append(json.loads(out.read_text()))
    wide_report, narrow_report = reports
    assert wide_report.pop("n_classes") == 2**40 and narrow_report.pop("n_classes") == 8
    for cert in wide_report["certificates"]:
        cert["predicted"] = 7 if cert["predicted"] == big else cert["predicted"]
    assert wide_report == narrow_report
    assert [c["predicted"] for c in narrow_report["certificates"]] == [0, 7, 2]


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd to name a pipe")
@pytest.mark.parametrize("learner", ["centroid", "majority"])
def test_training_csv_in_a_pipe_is_read_once(tmp_path, test_file, learner, capsys):
    # a cell past int64 and a bad row each send the run to the csv reader,
    # which must see the whole pipe, which only the first reader gets
    bad = TRAIN_CSV.replace("1,8,7\n", "1,8,x\n")
    for content in (TRAIN_CSV, HUGE_CELL_CSV, bad):
        file = tmp_path / "train.csv"
        file.write_text(content, encoding="utf-8")
        read_end, write_end = os.pipe()
        os.write(write_end, content.encode("utf-8"))  # fits in the pipe's buffer
        os.close(write_end)
        pipe = f"/dev/fd/{read_end}"
        results = []
        try:
            for dataset in (file, pipe):
                out = tmp_path / "report.json"
                argv = ["certify", "--dataset", dataset, "--test", test_file, "--k", 3,
                        "--d", 2, "--learner", learner, "--out", out]
                code = _run(*argv)
                err = capsys.readouterr().err.replace(str(dataset), "<train>")
                results.append((code, err, out.read_text() if code == 0 else None))
                out.unlink(missing_ok=True)
        finally:
            os.close(read_end)
        assert results[0] == results[1]
        assert results[0][0] == (2 if content is bad else 0)


# 10**11 entries are refused by the allocator at once; a size it would grant is never tried
@pytest.mark.parametrize(
    "argv",
    [["certify", "--dataset", "{train}", "--test", "{test}", "--k", "100000000000"],
     ["certify", "--dataset", "{train}", "--test", "{test}", "--k", "100000000000", "--learner", "majority"],
     ["curve", "--votes", "{votes}", "--max-attack-size", "100000000000"],
     ["certify", "--votes", "{votes}", "--max-attack-size", "100000000000"]],
)
def test_sizes_that_cannot_be_allocated_exit_three(tmp_path, train_file, test_file, argv, capsys):
    votes = tmp_path / "votes.json"
    votes.write_text(json.dumps(VOTES), encoding="utf-8")
    argv = [a.format(train=train_file, test=test_file, votes=votes) for a in argv]
    assert _run(*argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "LimitError"


def _pipe(content: str) -> int:
    read_end, write_end = os.pipe()
    os.write(write_end, content.encode("utf-8"))  # fits in the pipe's buffer
    os.close(write_end)
    return read_end


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd to name a pipe")
@pytest.mark.parametrize("learner", ["centroid", "majority"])
def test_csvs_in_pipes_are_read_once_when_the_votes_pass_int64(tmp_path, learner, capsys):
    # a training cell whose centroid products may pass 2^63 votes in Python ints after both
    # CSVs were read; a test width unlike the training width is an error either way
    big = TRAIN_CSV.replace("0,1,2\n", f"0,1,{2**40}\n")
    for train_csv, test_csv in ((TRAIN_CSV, "f0\n2\n"), (big, UNLABELED_CSV), (TRAIN_CSV, TEST_CSV)):
        files = (tmp_path / "train.csv", tmp_path / "test.csv")
        files[0].write_text(train_csv, encoding="utf-8")
        files[1].write_text(test_csv, encoding="utf-8")
        ends = (_pipe(train_csv), _pipe(test_csv))
        pipes = tuple(f"/dev/fd/{end}" for end in ends)
        results = []
        try:
            for train, test in (files, pipes):
                out = tmp_path / "report.json"
                argv = ["certify", "--dataset", train, "--test", test, "--k", 3, "--d", 2,
                        "--learner", learner, "--out", out]
                code = _run(*argv)
                err = capsys.readouterr().err.replace(str(train), "<train>").replace(str(test), "<test>")
                results.append((code, err, out.read_text() if code == 0 else None))
                out.unlink(missing_ok=True)
        finally:
            for end in ends:
                os.close(end)
        assert results[0] == results[1]
        narrow = test_csv.startswith("f0\n")
        assert results[0][0] == (2 if narrow and learner == "centroid" else 0)


@pytest.mark.parametrize("k", [0, -2])
def test_ia_rejects_a_nonpositive_k(tmp_path, train_file, test_file, k, capsys):
    out = tmp_path / "ia.json"
    assert _run("ia", "--dataset", train_file, "--test", test_file, "--k", k, "--out", out) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and not out.exists()
    assert len(err.splitlines()) == 1
    assert json.loads(err) == {
        "error": "DataError", "message": f"k must be positive, got {k}", "exit_code": 2,
    }


@pytest.mark.parametrize("command", [["certify"], ["certify", "--stats"], ["curve"], ["compare"]])
def test_certifying_takes_no_second_majority_vote(tmp_path, train_file, test_file, command, monkeypatch):
    from finiagg import datamodel, oracle

    calls = []
    original = datamodel.aggregate_prediction

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(datamodel, "aggregate_prediction", counting)
    monkeypatch.setattr(oracle, "aggregate_prediction", counting)
    assert _run(
        *command, "--dataset", train_file, "--test", test_file, "--k", 3, "--d", 2,
        "--out", tmp_path / "out",
    ) == 0
    assert calls == []


def test_report_accuracy_equals_a_recount_of_the_votes(tmp_path, rng):
    from finiagg import aggregate_prediction, build_report

    def frac(num, den):
        fr = Fraction(num, den)
        return {"exact": f"{fr.numerator}/{fr.denominator}", "float": float(fr)}

    for case in range(150):
        k, d = rng.randint(1, 4), rng.randint(1, 3)
        kd = k * d
        n_classes = rng.choice([2, 5, 2**40 + 2])
        # few classes per matrix, so ties are common; labels may name a class without votes
        palette = rng.sample(sorted({0, 1, n_classes - 1, n_classes // 2, 2**40 % n_classes}), 2)
        rows = [[rng.choice(palette) for _ in range(kd)] for _ in range(rng.randint(1, 5))]
        labels = [rng.choice([*palette, rng.randrange(n_classes)]) for _ in rows]
        votes = tmp_path / "votes.json"
        votes.write_text(json.dumps({"k": k, "d": d, "offsets": rng.sample(range(kd), d),
                                     "n_classes": n_classes, "labels": labels, "votes": rows}))
        out = tmp_path / "report.json"
        assert _run("certify", "--votes", votes, "--out", out) == 0
        clean = sum(aggregate_prediction(row, n_classes) == lab for row, lab in zip(rows, labels))
        base = sum(row.count(lab) for row, lab in zip(rows, labels))
        want = {"clean_accuracy": frac(clean, len(rows)), "base_accuracy": frac(base, len(rows) * kd)}
        assert json.loads(out.read_text())["ensemble_stats"] == want, case
        stats = build_report(votes_from_json(votes.read_text()), 0).ensemble
        assert (stats.clean_accuracy, stats.base_accuracy) == (Fraction(clean, len(rows)),
                                                               Fraction(base, len(rows) * kd))


@pytest.mark.parametrize("command", ["certify", "ia"])
def test_the_external_learner_is_unknown(tmp_path, train_file, test_file, command, capsys):
    out = tmp_path / "out.json"
    assert _run(command, "--dataset", train_file, "--test", test_file, "--k", 3,
                "--learner", "external", "--out", out) == 1
    stdout, err = capsys.readouterr()
    assert stdout == "" and not out.exists()
    want = {"error": "UnknownLearnerKind", "message": "unknown learner kind 'external'", "exit_code": 1}
    assert err == json.dumps(want) + "\n"


class _BrokenStdout:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


def test_a_failed_stdout_write_is_one_data_error(tmp_path, monkeypatch, capsys):
    votes = tmp_path / "votes.json"
    votes.write_text(json.dumps(VOTES), encoding="utf-8")
    for command in (["certify"], ["curve"], ["compare"]):
        monkeypatch.setattr("sys.stdout", _BrokenStdout())
        assert _run(*command, "--votes", votes) == 2
        err = capsys.readouterr().err
        assert err == json.dumps({"error": "DataError", "message": "cannot write stdout: [Errno 32] Broken pipe",
                                  "exit_code": 2}) + "\n"


@pytest.mark.parametrize("stdout", ["closed-pipe", "/dev/full"])
def test_a_failed_stdout_write_in_a_process_is_one_data_error(tmp_path, stdout):
    import subprocess
    import sys

    if stdout == "/dev/full" and not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full")
    votes = tmp_path / "votes.json"
    votes.write_text(json.dumps(VOTES), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.dirname(__file__), os.pardir, "src")}
    env.pop("PYTHONUNBUFFERED", None)  # a buffered stdout is flushed once more at exit
    if stdout == "closed-pipe":  # a pipe without a reader, as when `| head` has exited
        read_end, write_end = os.pipe()
        os.close(read_end)
    else:
        write_end = os.open(stdout, os.O_WRONLY)
    try:
        for command in ("certify", "compare"):
            proc = subprocess.run(
                [sys.executable, "-m", "finiagg.cli", command, "--votes", str(votes)],
                stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=120,
            )
            assert proc.returncode == 2, proc.stderr
            assert len(proc.stderr.splitlines()) == 1, proc.stderr
            assert json.loads(proc.stderr)["error"] == "DataError"
    finally:
        os.close(write_end)


@pytest.mark.parametrize("label", [7, -1])
def test_ia_rejects_test_labels_outside_the_classes(tmp_path, train_file, label, capsys):
    test = tmp_path / "labelled.csv"
    test.write_text(f"label,f0,f1\n0,2,2\n{label},8,8\n", encoding="utf-8")
    out = tmp_path / "ia.json"
    assert _run("ia", "--dataset", train_file, "--test", test, "--k", 2, "--out", out) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and not out.exists()
    want = {"error": "DataError", "message": f"{test}: row 1: label {label} outside [0, 3)", "exit_code": 2}
    assert err == json.dumps(want) + "\n"
