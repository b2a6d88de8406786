"""Benchmark of the ``finiagg`` CLI on three seeded workloads.

Usage::

    python3 benchmarks/run.py --workload {train-certify,certify-wide,audit,all}
        --seed N --seconds S --trace {0,1}

Each run generates its inputs from the seed into a temporary directory under
``.bench_work/``, then repeats passes over the workload's CLI invocations
until the next pass would end after ``--seconds``. Every invocation is a
fresh ``python3 benchmarks/launch.py`` child, one at a time, so a pass is a
closed-loop batch job. Every output of every pass is checked (see
``workloads.py``); an invocation that exits nonzero or fails a check counts
as failed.

End-to-end metrics (untraced passes, medians):

* ``wall_s``: spawn to exit, summed over one pass's invocations.
* ``setup_s``: interpreter start plus ``import finiagg.cli``, summed over one
  pass's invocations; the median of every invocation's set-up and of extra
  import-only children, times the invocations per pass.
* ``rows_per_s``: test rows per pass / (``wall_s`` - ``setup_s``).
* ``peak_rss_mb``: the largest ``VmHWM`` among one pass's children.
* ``error_rate`` (printed, not a gated metric, as it is 0 when all is well):
  failed / attempted invocations.

With ``--trace 1`` traced passes alternate with untraced ones and the result
holds the per-layer metrics of ``layers.py`` (medians over traced passes)
plus ``trace.overhead_s``, the traced minus the untraced median wall.
Traced and untraced passes must write byte-identical outputs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
give each metric with its unit and sample count, the run's provenance, the
radius histogram of the generated data and the digests of the outputs.
For seed 0 the digests must equal those in ``digests.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy

import layers
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = BENCH / "digests.json"
DIGEST_SEED = 0
HARD_LIMIT_S = 170.0  # a run must end within 180 s
SETUP_PROBES = 4  # import-only children after every pass
END_TO_END = {
    "wall_s": "s",
    "rows_per_s": "rows/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Pass:
    """One pass over a workload's invocations."""

    traced: bool
    wall_s: float = 0.0
    setup_s: list[float] = field(default_factory=list)
    rss_kb: int = 0
    failed: set[str] = field(default_factory=set)  # labels of failed invocations
    errors: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)  # per-layer metrics of a traced pass
    missing: list[str] = field(default_factory=list)  # wrapped names not found in the package


def _spawn(result: Path, trace: bool, argv: list[str], threads: str | None, cwd: Path,
           timeout: float) -> tuple[float, float, dict | None, str]:
    """Run one launcher child; returns (wall, set-up, launcher result or None, stderr)."""
    env = dict(os.environ)
    env.pop("FINIAGG_THREADS", None)
    if threads is not None:
        env["FINIAGG_THREADS"] = threads
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "launch.py"), str(result), "1" if trace else "0", *argv]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return time.monotonic() - start, 0.0, None, f"timed out after {timeout:.0f} s"
    wall = time.monotonic() - start
    if not result.exists():
        return wall, 0.0, None, proc.stderr.strip()[-400:]
    info = json.loads(result.read_text(encoding="utf-8"))
    info["rc"] = proc.returncode
    return wall, info["imported_at"] - start, info, proc.stderr.strip()[-400:]


def _run_pass(workload, work: Path, traced: bool, deadline: float) -> Pass:
    p = Pass(traced)
    dumps = []
    report_bytes = 0
    result = work / "launcher.json"
    for inv in workload.invocations:
        for name in inv.outputs:
            (work / name).unlink(missing_ok=True)
    for inv in workload.invocations:
        wall, setup, info, stderr = _spawn(
            result, traced, inv.argv, inv.threads, work, deadline - time.monotonic()
        )
        p.wall_s += wall
        if info is None or info["rc"] != 0:
            rc = None if info is None else info["rc"]
            p.failed.add(inv.label)
            p.errors.append(f"{inv.label}: exit {rc}: {stderr}")
            continue
        p.setup_s.append(setup)
        p.rss_kb = max(p.rss_kb, info["vmhwm_kb"])
        if traced:
            dumps.append(info)
            p.missing = info["missing"]
        for name in inv.outputs:
            path = work / name
            if not path.is_file():
                p.failed.add(inv.label)
                p.errors.append(f"{inv.label}: did not write {name}")
                continue
            p.digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
            if not name.startswith("votes"):
                report_bytes += path.stat().st_size
    if p.failed:
        return p
    try:
        checked = workload.check(work)
    except (ValueError, KeyError, TypeError, IndexError) as exc:  # malformed output
        checked = {inv.label: [f"unreadable output: {exc!r}"] for inv in workload.invocations}
    for label, errors in checked.items():
        if errors:
            p.failed.add(label)
            p.errors.extend(f"{label}: {e}" for e in errors)
    if traced:
        p.layers = layers.pass_metrics(dumps, [inv.rows for inv in workload.invocations], report_bytes)
    return p


def _setup_probe(work: Path) -> float | None:
    _, setup, info, _ = _spawn(work / "probe.json", False, [], None, work, 30.0)
    return setup if info is not None and info["rc"] == 0 else None


def _check_digests(workload, passes: list[Pass], seed: int) -> None:
    """Fail invocations whose outputs differ between passes or, for seed 0, from the record.

    The record holds reports and CSVs only, so the vote-file format may change.
    """
    want = dict(passes[0].digests)
    if seed == DIGEST_SEED:
        want.update(json.loads(DIGESTS.read_text(encoding="utf-8"))[workload.name])
    for p in passes:
        for inv in workload.invocations:
            if inv.label in p.failed:
                continue
            if any(p.digests.get(name) != want.get(name) for name in inv.outputs):
                p.failed.add(inv.label)
                kind = "traced" if p.traced else "untraced"
                p.errors.append(f"{inv.label}: {kind} output digest differs")


def _provenance(workload, seed: int) -> dict:
    git = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30)
            git = out.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            git = None
    src_lines = 0
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        src_lines += data.count(b"\n")
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
    return {
        "git_sha": git,
        "src_sha256": src_hash.hexdigest(),
        "src_lines": src_lines,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
        "finiagg_threads": {inv.label: inv.threads for inv in workload.invocations},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, started: float) -> dict:
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        work = Path(tmp)
        workload = workloads.WORKLOADS[name](work, seed)
        deadline = started + HARD_LIMIT_S
        _setup_probe(work)  # compiles bytecode; not measured
        untraced: list[Pass] = []
        traced: list[Pass] = []
        probes: list[float] = []
        t0 = time.monotonic()
        while True:
            want_trace = trace and len(traced) < len(untraced)
            p = _run_pass(workload, work, want_trace, deadline)
            (traced if want_trace else untraced).append(p)
            for _ in range(SETUP_PROBES):
                setup = _setup_probe(work)
                if setup is not None:
                    probes.append(setup)
            elapsed = time.monotonic() - t0
            if p.failed or time.monotonic() > deadline - 30:
                break
            if trace and not traced:
                continue
            per_pass = elapsed / (len(untraced) + len(traced))
            if elapsed + per_pass > seconds:
                break
        passes = untraced + traced
        _check_digests(workload, passes, seed)
        radii = workload.radii(work) if not any(p.failed for p in passes) else []
        digests = passes[0].digests
    try:
        WORK.rmdir()  # only when no other run is using it
    except OSError:
        pass

    attempted = len(passes) * len(workload.invocations)
    failed = sum(len(p.failed) for p in passes)
    setups = probes + [s for p in untraced for s in p.setup_s]
    wall = statistics.median(p.wall_s for p in untraced)
    setup = statistics.median(setups) * len(workload.invocations) if setups else 0.0
    e2e = {
        "wall_s": wall,
        "rows_per_s": workload.rows_per_pass / (wall - setup) if wall > setup else 0.0,
        "setup_s": setup,
        "peak_rss_mb": statistics.median(p.rss_kb for p in untraced) / 1024,
    }
    samples = {"wall_s": len(untraced), "rows_per_s": len(untraced),
               "setup_s": len(setups), "peak_rss_mb": len(untraced)}
    per_layer = {}
    if traced and all(p.layers for p in traced):
        per_layer = {m: statistics.median(p.layers[m] for p in traced) for m in traced[0].layers}
        per_layer["trace.overhead_s"] = statistics.median(p.wall_s for p in traced) - wall
    return {
        "workload": name,
        "why": workload.why,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "errors": [e for p in passes for e in p.errors][:10],
        "end_to_end": e2e,
        "samples": samples,
        "pass_walls": [round(p.wall_s, 4) for p in untraced],
        "traced_passes": len(traced),
        "per_layer": per_layer,
        "missing_spans": traced[0].missing if traced else [],
        "provenance": _provenance(workload, seed),
        "radius_histogram": workloads.radius_histogram(radii),
        "digests": digests,
    }


def _print_summary(res: dict) -> None:
    print(f"== {res['workload']}: {res['why']}")
    print("provenance " + json.dumps(res["provenance"], sort_keys=True))
    print("radius histogram " + json.dumps(res["radius_histogram"]))
    for name, unit in END_TO_END.items():
        print(f"  {name:<36} {res['end_to_end'][name]:>14.6g} {unit:<7} "
              f"median of {res['samples'][name]}")
    print(f"  untraced pass walls (s): {res['pass_walls']}")
    print(f"  {'error_rate':<36} {res['error_rate']:>14.6g} {'ratio':<7} "
          f"{res['failed']} of {res['attempted']} invocations")
    for name, value in res["per_layer"].items():
        unit = layers.UNITS[name][0]
        note = " (computed)" if name.endswith("_computed") else ""
        print(f"  {name:<36} {value:>14.6g} {unit:<7} median of {res['traced_passes']} traced{note}")
    if res["missing_spans"]:
        print("  not found or not counted, reported as zero: " + ", ".join(res["missing_spans"]))
    for error in res["errors"]:
        print("  FAILED " + error)
    print("digests " + json.dumps(res["digests"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["train-certify", "certify-wide", "audit", "all"])
    parser.add_argument("--seed", type=int, default=DIGEST_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not (SRC / "finiagg" / "cli.py").is_file():
        sys.stderr.write(f"no finiagg sources under {SRC}; run from a full checkout\n")
        return 2
    if args.workload != "all":
        res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), started)
        _print_summary(res)
        if args.trace:
            metrics = {m: {"value": res["per_layer"].get(m, 0.0), "unit": layers.UNITS[m][0]}
                       for m in layers.UNITS}
        else:
            metrics = {m: {"value": res["end_to_end"][m], "unit": u} for m, u in END_TO_END.items()}
        line = {"correct": res["correct"], "attempted": res["attempted"],
                "failed": res["failed"], "metrics": metrics}
        print(json.dumps(line))
        return 0

    # Every workload with traced passes; the last line holds every end-to-end metric.
    line = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("train-certify", "certify-wide", "audit"):
        res = run_workload(name, args.seed, args.seconds, True, time.monotonic())
        _print_summary(res)
        line["correct"] &= res["correct"]
        line["attempted"] += res["attempted"]
        line["failed"] += res["failed"]
        for m, u in END_TO_END.items():
            line["metrics"][f"{name}.{m}"] = {"value": res["end_to_end"][m], "unit": u}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
