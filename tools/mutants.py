"""Replay planted bugs against the tests and report every one they fail to catch.

Each mutant in ``MUTANTS`` names a file, an exact text that occurs in it
once, the text's replacement, and the tests that must catch it. For each
mutant the script copies ``src/``, ``tests/`` and ``pyproject.toml`` to a
temporary directory, applies the mutant there, and runs only those tests.
The mutant is killed when every one of them fails (a parametrized test
fails when any of its cases does). It survives when one of them passes,
and it is stale when its text is no longer in the file exactly once or a
test no longer exists. The checkout itself is never changed.

Run from anywhere, with the test dependencies installed::

    python tools/mutants.py            # every mutant
    python tools/mutants.py lane-bias-low  # the named ones

It exits 0 when every mutant run is killed and 1 otherwise. A mended
survivor gets a test input or a stronger assertion, never a shorter table;
a new fast path adds its own mutants.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")


class Mutant(namedtuple("Mutant", "name path text replacement tests")):
    __slots__ = ()


MUTANTS = (
    Mutant(
        "centroid-bound-4x", "src/finiagg/arrays.py",
        "max_n**2 < INT64_LIMIT", "max_n**2 < 4 * INT64_LIMIT",
        ("tests/test_arrays.py::test_front_end_votes_equal_the_reference",
         "tests/test_arrays.py::test_centroid_dtype_is_int64_exactly_below_2_to_the_63",
         "tests/test_arrays.py::test_centroid_votes_take_int64_exactly_while_the_bound_holds"),
    ),
    Mutant(
        "json-ints-overflow-uncaught", "src/finiagg/cli.py",
        "except (TypeError, OverflowError):", "except TypeError:",
        ("tests/test_cli.py::test_a_later_rows_type_error_comes_before_an_earlier_rows_length_error",),
    ),
    Mutant(
        "json-bools-unscanned", "src/finiagg/cli.py",
        'bools = "true" in text or "false" in text', "bools = False",
        ("tests/test_cli.py::test_no_silent_integer_coercion",
         "tests/test_cli.py::test_a_vote_file_whose_text_holds_true_checks_every_vote_and_writes_the_same_bytes"),
    ),
    Mutant(
        "curve-chunk-short", "src/finiagg/cli.py",
        "min(start + _CURVE_CHUNK, end)", "min(start + _CURVE_CHUNK - 1, end)",
        ("tests/test_report_writer.py::test_the_curve_writer_writes_the_per_point_bytes",
         "tests/test_report_writer.py::test_certify_encodes_each_step_of_the_curve_once"),
    ),
    Mutant(
        "lane-bias-low", "src/finiagg/certifier.py",
        "(1 << bits - 1) - 1 - min(rhs, cap)", "(1 << bits - 1) - 2 - min(rhs, cap)",
        ("tests/test_vote_losses.py::test_shared_set_search_with_lanes_wider_than_the_losses",
         "tests/test_certifier.py::test_certified_accuracy_matches_brute_force",
         "tests/test_certifier.py::test_certified_accuracy_lanes_match_brute_force"),
    ),
    Mutant(
        "listed-first-separator", "src/finiagg/cli.py",
        'sep = "    "\n', 'sep = "   "\n',
        ("tests/test_cli.py::test_vote_json_holds_one_row_per_line",
         "tests/test_cli.py::test_vote_json_is_written_a_row_at_a_time",
         "tests/test_report_writer.py::test_certify_writes_the_reference_bytes_to_stdout"),
    ),
    Mutant(
        "class-width-before-test-width", "src/finiagg/arrays.py",
        "    if centroid and test.shape[1] != sums.shape[2]:\n"
        '        raise DimensionMismatch(f"expected {sums.shape[2]} features, got {test.shape[1]}")\n'
        "    vote = f\"<u{byte_width(n_classes - 1, 'class indices')}\"\n",
        "    vote = f\"<u{byte_width(n_classes - 1, 'class indices')}\"\n"
        "    if centroid and test.shape[1] != sums.shape[2]:\n"
        '        raise DimensionMismatch(f"expected {sums.shape[2]} features, got {test.shape[1]}")\n',
        ("tests/test_cli.py::test_test_width_must_match_the_training_width_for_centroids",),
    ),
    Mutant(
        "labels-untyped", "src/finiagg/datamodel.py",
        "set(map(type, labels)) == {int} and ", "",
        ("tests/test_records.py::test_vote_matrix_validation",),
    ),
)


def _failed(output: str, test: str) -> bool:
    """Whether pytest's ``-rfE`` summary in ``output`` lists ``test``, or any of its parametrized cases."""
    for line in output.splitlines():
        for outcome in ("FAILED ", "ERROR "):
            if line.startswith(outcome + test) and line[len(outcome + test):][:1] in ("", " ", "["):
                return True
    return False


def run(mutant: Mutant) -> tuple[str, str]:
    """Apply ``mutant`` to a copy of the tree and run its tests; returns (verdict, detail)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        for part in COPIED:
            source, target = ROOT / part, Path(tmp) / part
            if source.is_dir():
                shutil.copytree(source, target, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(source, target)
        path = Path(tmp) / mutant.path
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.text) != 1:
            return "stale", f"{mutant.path} holds its text {text.count(mutant.text)} times"
        path.write_text(text.replace(mutant.text, mutant.replacement), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *mutant.tests],
            cwd=tmp, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"},
        )
    if proc.returncode not in (0, 1):  # 2 interrupted, 3 internal error, 4 usage (a test not found), 5 none run
        return "stale", f"pytest exited {proc.returncode}: {(proc.stdout + proc.stderr).strip()[-400:]}"
    passed = [t for t in mutant.tests if not _failed(proc.stdout, t)]
    return ("survived", "passed: " + ", ".join(passed)) if passed else ("killed", f"{len(mutant.tests)} test(s) failed")


def main(argv: list[str]) -> int:
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        sys.exit(f"unknown mutants: {', '.join(sorted(unknown))}")
    start, bad = time.monotonic(), 0
    for mutant in MUTANTS:
        if argv and mutant.name not in argv:
            continue
        verdict, detail = run(mutant)
        bad += verdict != "killed"
        print(f"{verdict:9} {mutant.name}: {detail}", flush=True)
    print(f"{bad} mutant(s) not killed, {time.monotonic() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
