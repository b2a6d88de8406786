import json
import random

import pytest

from finiagg import SpreadOffsets
from finiagg.certifier import SampleCertificate, build_report
from finiagg.reference import dpa_baseline_radius, fa_radius, margin_tables


@pytest.fixture
def rng():
    return random.Random(0xF1A99)


def random_offsets(rng: random.Random, k: int, d: int) -> SpreadOffsets:
    kd = k * d
    return SpreadOffsets(tuple(rng.sample(range(kd), d)), kd)


def random_row(rng: random.Random, kd: int, n_classes: int) -> tuple[int, ...]:
    return tuple(rng.randrange(n_classes) for _ in range(kd))


def reference_certificates(matrix) -> list[SampleCertificate]:
    """The certificates of the margin-table reference rules, to hold ``certify_matrix`` against."""
    labels = matrix.labels if matrix.labels is not None else [None] * matrix.n_test
    return [
        SampleCertificate(
            predicted=table.prediction,
            correct=None if label is None else table.prediction == label,
            dpa_radius=dpa_baseline_radius(table, label),
            fa_radius=fa_radius(table, label),
        )
        for table, label in zip(margin_tables(matrix), labels)
    ]


def _frac(fr) -> dict:
    return {"exact": f"{fr.numerator}/{fr.denominator}", "float": float(fr)}


def reference_certify_outputs(matrix, max_attack_size: int, verbose: bool) -> tuple[str, str]:
    """The report and curve CSV that ``certify`` must write, built one curve point at a time.

    The report is ``json.dumps(indent=2)`` of a dict holding one dict per
    curve point, and with ``verbose`` each row's challengers from its margin
    table; the CSV formats every point with its own f-string.
    """
    report = build_report(matrix, max_attack_size)
    config = matrix.config
    obj: dict = {
        "command": "certify",
        "k": config.k,
        "d": config.d,
        "kd": config.kd,
        "n_classes": config.n_classes,
        "offsets": list(matrix.offsets.offsets),
        "n_test": matrix.n_test,
    }
    if report.ensemble is not None:
        obj["ensemble_stats"] = {
            "clean_accuracy": _frac(report.ensemble.clean_accuracy),
            "base_accuracy": _frac(report.ensemble.base_accuracy),
        }
    obj["radius_stats"] = {
        "pr_radius_up": _frac(report.stats.pr_radius_up),
        "mean_delta_r": _frac(report.stats.mean_delta_r),
    }
    obj["certificates"] = [
        {"predicted": c.predicted, "correct": c.correct, "fa_radius": c.fa_radius, "dpa_radius": c.dpa_radius}
        for c in report.certificates
    ]
    obj["curve"] = [
        {"attack_size": m, "certified_fraction": _frac(f)} for m, f in enumerate(report.curve)
    ]
    if verbose:
        obj["delta_multisets"] = [
            {
                "prediction": table.prediction,
                "delta": [
                    {"challenger": q, "rhs": table.rhs(q), "elements": table.delta_elements(q)}
                    for q in range(table.n_classes)
                    if q != table.prediction
                ],
            }
            for table in margin_tables(matrix)
        ]
    lines = ["attack_size,certified_fraction"]
    for m, frac in enumerate(report.curve):
        lines.append(f"{m},{float(frac)!r}")
    return json.dumps(obj, indent=2) + "\n", "\n".join(lines) + "\n"
