"""Seeded workload inputs, the CLI invocations that consume them, and their checks.

Every input is drawn from ``numpy.random.default_rng([seed, workload tag])``,
so one seed always yields the same files. The program only ever sees the
generated files; the seed itself never reaches it (apart from the offset
seed of ``train-certify``, which is a CLI argument of the workload).

Each workload is a closed-loop batch job: the invocations of one pass run
one after another, one child process at a time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from reference import fine_and_baseline_radii


@dataclass
class Invocation:
    """One ``finiagg`` CLI call: its argv, worker setting and the files it writes."""

    label: str
    argv: list[str]
    threads: str | None  # FINIAGG_THREADS for the child; None leaves it unset
    rows: int  # test rows this call processes
    outputs: list[str]  # file names under the work dir


@dataclass
class Workload:
    name: str
    why: str
    invocations: list[Invocation]
    # work dir -> failed-check messages, keyed by invocation label
    check: Callable[[Path], dict[str, list[str]]]
    # work dir -> radii whose histogram describes the generated data
    radii: Callable[[Path], list[int]]

    @property
    def rows_per_pass(self) -> int:
        return sum(inv.rows for inv in self.invocations)


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def _write_csv(path: Path, labels, features) -> None:
    header = "label," + ",".join(f"f{i}" for i in range(features.shape[1]))
    body = np.column_stack([labels, features]).astype(np.int64)
    lines = [header] + [",".join(map(str, row)) for row in body.tolist()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_votes(path: Path, k: int, d: int, offsets, n_classes: int, labels, votes) -> None:
    rows = ",\n".join(json.dumps(row) for row in votes.tolist())
    head = json.dumps(
        {"k": k, "d": d, "offsets": sorted(offsets), "n_classes": n_classes, "labels": list(labels)}
    )[:-1]
    path.write_text(head + ', "votes": [\n' + rows + "\n]}\n", encoding="utf-8")


def _load(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _frac(obj) -> Fraction:
    return Fraction(obj["exact"])


def _check_certificates(report: dict, votes: dict) -> list[str]:
    """Compare a certify report with the independent reference on its votes."""
    arr = np.asarray(votes["votes"], dtype=np.int64)
    labels = votes.get("labels")
    pred, fine, base = fine_and_baseline_radii(
        arr, votes["offsets"], votes["n_classes"], labels
    )
    certs = report["certificates"]
    errors = []
    if len(certs) != len(arr) or report["n_test"] != len(arr):
        return [f"{len(certs)} certificates for {len(arr)} vote rows"]
    for t, c in enumerate(certs):
        if c["fa_radius"] < c["dpa_radius"]:
            errors.append(f"row {t}: fa_radius {c['fa_radius']} < dpa_radius {c['dpa_radius']}")
        if (c["predicted"], c["fa_radius"], c["dpa_radius"]) != (pred[t], fine[t], base[t]):
            errors.append(
                f"row {t}: report {c['predicted']}/{c['fa_radius']}/{c['dpa_radius']}, "
                f"reference {pred[t]}/{fine[t]}/{base[t]}"
            )
        if labels is not None and c["correct"] != (pred[t] == labels[t]):
            errors.append(f"row {t}: correct flag disagrees with the label")
    n = len(arr)
    for m, point in enumerate(report["curve"]):
        want = Fraction(sum(1 for r in fine if r >= m), n)
        if _frac(point["certified_fraction"]) != want:
            errors.append(f"curve point {m} is {point['certified_fraction']['exact']}, want {want}")
            break
    return errors[:5]


def _check_curve_csv(text: str, report: dict) -> list[str]:
    want = ["attack_size,certified_fraction"] + [
        f"{p['attack_size']},{p['certified_fraction']['float']!r}" for p in report["curve"]
    ]
    return [] if text.splitlines() == want else ["curve CSV disagrees with the report curve"]


# ---------------------------------------------------------------------------
# train-certify: train, vote, certify, save the votes, then certify them again

TC_TRAIN, TC_TEST, TC_FEATURES, TC_CLASSES = 25_000, 100, 16, 10
TC_K, TC_D = 50, 16


def _pixel_rows(rng, means, labels, sigma=80.0):
    draws = rng.normal(means[labels], sigma)
    return np.clip(np.rint(draws), 0, 255).astype(np.int64)


def train_certify(work: Path, seed: int) -> Workload:
    rng = _rng(seed, 1)
    means = rng.uniform(64, 192, size=(TC_CLASSES, TC_FEATURES))
    train_y = rng.integers(0, TC_CLASSES, TC_TRAIN)
    test_y = rng.integers(0, TC_CLASSES, TC_TEST)
    _write_csv(work / "train.csv", train_y, _pixel_rows(rng, means, train_y))
    _write_csv(work / "test.csv", test_y, _pixel_rows(rng, means, test_y))
    first = Invocation(
        "certify",
        ["certify", "--dataset", "train.csv", "--test", "test.csv", "--k", str(TC_K),
         "--d", str(TC_D), "--seed", str(seed), "--learner", "centroid", "--stats",
         "--out", "report.json", "--curve", "curve.csv", "--save-votes", "votes.json"],
        None, TC_TEST, ["report.json", "curve.csv", "votes.json"],
    )
    again = Invocation(
        "certify-votes",
        ["certify", "--votes", "votes.json", "--stats", "--out", "report2.json"],
        None, TC_TEST, ["report2.json"],
    )

    def check(work: Path) -> dict[str, list[str]]:
        report = _load(work / "report.json")
        votes = _load(work / "votes.json")
        first_errors = _check_certificates(report, votes)
        first_errors += _check_curve_csv((work / "curve.csv").read_text(encoding="utf-8"), report)
        if votes["labels"] != test_y.tolist() or len(votes["votes"][0]) != TC_K * TC_D:
            first_errors.append("saved votes do not match the test labels or kd")
        again_errors = []
        if (work / "report2.json").read_bytes() != (work / "report.json").read_bytes():
            again_errors.append("report from the saved votes differs from the first report")
        return {"certify": first_errors, "certify-votes": again_errors}

    return Workload(
        "train-certify",
        "splits and spreads 25k rows into kd=800 models, votes on 100 rows, then reads the votes back",
        [first, again], check,
        lambda work: [c["fa_radius"] for c in _load(work / "report.json")["certificates"]],
    )


# ---------------------------------------------------------------------------
# certify-wide: certify a paper-scale vote matrix with two workers

CW_K, CW_D, CW_CLASSES, CW_ROWS = 1200, 16, 10, 24
CW_GAP_LO, CW_GAP_HI = 0.003, 0.6


def certify_wide(work: Path, seed: int) -> Workload:
    rng = _rng(seed, 2)
    kd = CW_K * CW_D
    offsets = rng.choice(kd, size=CW_D, replace=False).tolist()
    # One log-uniform vote-share gap per stratum, so radii always span two
    # orders of magnitude; every eighth row is labelled with its runner-up
    # and a wide gap, so mispredicted rows (radius -1) always occur.
    edges = np.geomspace(CW_GAP_LO, CW_GAP_HI, CW_ROWS + 1)
    gaps = np.exp(rng.uniform(np.log(edges[:-1]), np.log(edges[1:])))
    rng.shuffle(gaps)
    votes = np.empty((CW_ROWS, kd), dtype=np.int64)
    labels = []
    for t, gap in enumerate(gaps):
        true, runner = rng.choice(CW_CLASSES, size=2, replace=False)
        mislabelled = t % 8 == 7
        if mislabelled:
            gap = max(gap, 0.1)
        probs = np.full(CW_CLASSES, 0.2 * (1 - gap) / (CW_CLASSES - 2))
        probs[runner] = 0.4 * (1 - gap)
        probs[true] = probs[runner] + gap
        votes[t] = rng.choice(CW_CLASSES, size=kd, p=probs / probs.sum())
        labels.append(int(runner if mislabelled else true))
    _write_votes(work / "wide.json", CW_K, CW_D, offsets, CW_CLASSES, labels, votes)
    inv = Invocation(
        "certify",
        ["certify", "--votes", "wide.json", "--out", "wide_report.json", "--curve", "wide_curve.csv"],
        "2", CW_ROWS, ["wide_report.json", "wide_curve.csv"],
    )

    def check(work: Path) -> dict[str, list[str]]:
        report = _load(work / "wide_report.json")
        errors = _check_certificates(report, _load(work / "wide.json"))
        errors += _check_curve_csv((work / "wide_curve.csv").read_text(encoding="utf-8"), report)
        return {"certify": errors}

    return Workload(
        "certify-wide",
        "certifies 24 rows of a kd=19,200 vote matrix with FINIAGG_THREADS=2; no training",
        [inv], check,
        lambda work: [c["fa_radius"] for c in _load(work / "wide_report.json")["certificates"]],
    )


# ---------------------------------------------------------------------------
# audit: exhaustive oracle, shared-poison accuracy and the exact d->inf ensemble

OR_K, OR_D, OR_CLASSES = 12, 2, 3
OR_QUOTA = {4: 8, 5: 8, 6: 4}  # rows per certified radius; 20 rows in all
CA_K, CA_D, CA_CLASSES, CA_ROWS, CA_BUDGET = 10, 4, 3, 50, 3
IA_TRAIN, IA_PROBES, IA_CLASSES, IA_FEATURES, IA_K = 13, 4, 3, 4, 3


def _spread_offsets(rng, k: int, d: int) -> list[int]:
    """Distinct offsets whose differences avoid multiples of k, so the spread is not degenerate."""
    kd = k * d
    while True:
        offsets = sorted(rng.choice(kd, size=d, replace=False).tolist())
        if all((b - a) % k for i, a in enumerate(offsets) for b in offsets[i + 1:]):
            return offsets


def _biased_rows(rng, kd: int, n_classes: int, n: int, favourite_share):
    classes = rng.integers(0, n_classes, n)
    rows = np.empty((n, kd), dtype=np.int64)
    for t, c in enumerate(classes):
        share = favourite_share(rng)
        probs = np.full(n_classes, (1 - share) / (n_classes - 1))
        probs[c] = share
        rows[t] = rng.choice(n_classes, size=kd, p=probs)
    return classes, rows


def audit(work: Path, seed: int) -> Workload:
    rng = _rng(seed, 3)

    # oracle-check: majority-biased rows kept by certified radius up to a fixed
    # quota per radius. The exhaustive search depth follows the radius, so
    # the quota keeps its cost alike across seeds.
    or_offsets = _spread_offsets(rng, OR_K, OR_D)
    kd = OR_K * OR_D
    wanted = dict(OR_QUOTA)
    kept = []
    while any(wanted.values()):
        labels, rows = _biased_rows(rng, kd, OR_CLASSES, 64, lambda r: r.uniform(0.7, 0.97))
        _, fine, _ = fine_and_baseline_radii(rows, or_offsets, OR_CLASSES, labels.tolist())
        for lab, row, radius in zip(labels, rows, fine):
            if wanted.get(radius):
                wanted[radius] -= 1
                kept.append((int(lab), row))
    kept_labels = [lab for lab, _ in kept]
    kept_rows = [row for _, row in kept]
    _write_votes(work / "oracle.json", OR_K, OR_D, or_offsets, OR_CLASSES, kept_labels,
                 np.asarray(kept_rows))

    ca_offsets = _spread_offsets(rng, CA_K, CA_D)
    labels, rows = _biased_rows(rng, CA_K * CA_D, CA_CLASSES, CA_ROWS, lambda r: r.uniform(0.4, 0.9))
    _write_votes(work / "certacc.json", CA_K, CA_D, ca_offsets, CA_CLASSES, labels.tolist(), rows)

    means = rng.uniform(64, 192, size=(IA_CLASSES, IA_FEATURES))
    ia_train_y = np.arange(IA_TRAIN) % IA_CLASSES
    ia_test_y = rng.integers(0, IA_CLASSES, IA_PROBES)
    _write_csv(work / "ia_train.csv", ia_train_y, _pixel_rows(rng, means, ia_train_y, 40.0))
    _write_csv(work / "ia_test.csv", ia_test_y, _pixel_rows(rng, means, ia_test_y, 40.0))

    invocations = [
        Invocation(
            "oracle-check",
            ["oracle-check", "--votes", "oracle.json", "--oracle-limit", str(kd), "--out", "oracle_report.json"],
            None, len(kept), ["oracle_report.json"],
        ),
        Invocation(
            "cert-acc",
            ["cert-acc", "--votes", "certacc.json", "--budget", str(CA_BUDGET), "--out", "certacc_report.json"],
            None, CA_ROWS, ["certacc_report.json"],
        ),
        Invocation(
            "ia",
            ["ia", "--dataset", "ia_train.csv", "--test", "ia_test.csv", "--k", str(IA_K),
             "--learner", "centroid", "--out", "ia_report.json"],
            None, IA_PROBES, ["ia_report.json"],
        ),
    ]

    def check(work: Path) -> dict[str, list[str]]:
        oracle = _load(work / "oracle_report.json")
        votes = _load(work / "oracle.json")
        _, fine, _ = fine_and_baseline_radii(
            np.asarray(votes["votes"]), votes["offsets"], OR_CLASSES, votes["labels"]
        )
        oracle_errors = [] if oracle["ok"] is True else ['oracle-check did not report "ok": true']
        if len(oracle["rows"]) != len(kept):
            oracle_errors.append(f"{len(oracle['rows'])} oracle rows, want {len(kept)}")
        for r in oracle["rows"]:
            if not (r["sound"] and r["fa_radius"] <= r["exact_radius"] and r["gap"] >= 0):
                oracle_errors.append(f"row {r['index']}: certificate exceeds the exact radius")
            if r["fa_radius"] != fine[r["index"]]:
                oracle_errors.append(f"row {r['index']}: fa_radius differs from the reference")

        acc = _load(work / "certacc_report.json")
        votes = _load(work / "certacc.json")
        _, fine, _ = fine_and_baseline_radii(
            np.asarray(votes["votes"]), votes["offsets"], CA_CLASSES, votes["labels"]
        )
        want_fraction = Fraction(sum(1 for r in fine if r >= CA_BUDGET), CA_ROWS)
        acc_errors = []
        if _frac(acc["certified_fraction"]) != want_fraction:
            acc_errors.append(f"certified_fraction {acc['certified_fraction']['exact']}, want {want_fraction}")
        # Certified rows survive every shared poison set, so they bound it below.
        if _frac(acc["certified_accuracy"]) < want_fraction:
            acc_errors.append("certified_accuracy is below the certified fraction")
        if len(acc["argmin_q"]) != CA_BUDGET:
            acc_errors.append("argmin_q does not hold one partition per poison")

        ia = _load(work / "ia_report.json")
        ia_errors = []
        if len(ia["results"]) != IA_PROBES or ia["n_train"] != IA_TRAIN:
            ia_errors.append("ia report has the wrong number of probes or samples")
        for i, res in enumerate(ia["results"]):
            scores = [_frac(f) for f in res["per_class"]]
            if sum(scores) != 1:
                ia_errors.append(f"probe {i}: class scores do not sum to 1")
            if res["prediction"] != max(range(IA_CLASSES), key=lambda c: (scores[c], -c)):
                ia_errors.append(f"probe {i}: prediction is not the arg-max score")
            if res["correct"] != (res["prediction"] == int(ia_test_y[i])) or not 0 <= res["radius"] <= IA_K:
                ia_errors.append(f"probe {i}: correct flag or radius out of range")
        return {"oracle-check": oracle_errors[:5], "cert-acc": acc_errors, "ia": ia_errors[:5]}

    return Workload(
        "audit",
        "exhaustive oracle at kd=24, cert-acc over C(40,3) poison sets and exact IA on 13 samples",
        invocations, check,
        lambda work: [r["exact_radius"] for r in _load(work / "oracle_report.json")["rows"]],
    )


WORKLOADS = {"train-certify": train_certify, "certify-wide": certify_wide, "audit": audit}


def radius_histogram(radii) -> dict[str, int]:
    """Counts per radius up to 7, then per power-of-two bucket 8-15, 16-31, ..."""
    hist: dict[str, int] = {}
    for r in sorted(radii):
        if r < 8:
            key = str(r)
        else:
            lo = 1 << int(math.log2(r))
            key = f"{lo}-{2 * lo - 1}"
        hist[key] = hist.get(key, 0) + 1
    return hist
