"""In-process span recorder for a traced ``finiagg`` run.

The launcher imports ``finiagg`` and then calls ``Tracer().install()``,
which wraps the public functions named in ``WRAPPED`` and rebinds each
wrapper in every ``finiagg.*`` module that holds the original (modules use
``from .x import y``). No file of the package changes.

Only functions that run at most once per row or per model are wrapped.
Inner-loop calls (``spread``, ``conditional_certified``, a model's
``predict``) get a count computed from the arguments of a wrapped caller
instead; the names of those counts end in ``_computed``. A name that no
longer exists is recorded as missing and reports zero calls.

Each thread keeps its own span stack, so a span's self time only subtracts
children that ran on its own thread. ``ordered_map`` is wrapped so that
each task it runs becomes a span named after the caller of
``ordered_map``: work done inside the task is charged to the caller's layer,
and the caller's time blocked on the pool shows as ``parallel.ordered_map``
self time. A task on a pool thread records the ``ordered_map`` span as
its parent.

Spans stay in memory and are returned by ``dump()`` at exit as
``[name index, start, end, parent index, thread, same-thread child time,
is task]``.
"""

from __future__ import annotations

import functools
import inspect
import math
import resource
import sys
import threading
import time

# module of src/finiagg -> public functions to wrap
WRAPPED = {
    "cli": (
        "read_dataset_csv", "read_test_csv", "load_votes", "votes_to_json",
        "cmd_certify", "cmd_curve", "cmd_compare", "cmd_cert_acc", "cmd_oracle_check", "cmd_ia",
    ),
    "datamodel": ("validate_dataset",),
    "hashing": ("build_partitions", "build_subsets"),
    "learners": ("train",),
    "ensemble": ("train_ensemble", "collect_votes", "ensemble_stats"),
    "certifier": (
        "margin_table", "margin_tables", "fa_radius", "dpa_baseline_radius", "dpa_radius",
        "certify_matrix", "build_report", "certified_accuracy", "certified_fraction_curve",
        "radius_stats",
    ),
    "oracle": ("verify_certificates", "exact_poison_radius"),
    "infinite_aggregation": ("ia_votes", "ia_radius"),
    "_parallel": ("ordered_map",),
}


def _cert_acc_counts(a, r):
    tables = a["tables"]
    subsets = math.comb(tables[0].kd, min(a["budget"], tables[0].kd))
    return {
        "certifier.cert_acc_subsets_computed": subsets,
        "certifier.conditional_calls_computed": subsets * len(tables),
    }


# span name -> (bound arguments, result) -> counts to add
HOOKS = {
    "hashing.build_partitions": lambda a, r: {
        "hashing.empty_partitions": sum(1 for p in r.partitions if not p)
    },
    "hashing.build_subsets": lambda a, r: {
        "hashing.subset_samples": sum(map(len, r.subsets)),
        "hashing.spread_calls_computed": r.kd,
    },
    "certifier.margin_table": lambda a, r: {"hashing.spread_calls_computed": a["offsets"].kd},
    "oracle.exact_poison_radius": lambda a, r: {
        "hashing.spread_calls_computed": a["offsets"].kd if r >= 0 else 0
    },
    "oracle.verify_certificates": lambda a, r: {"oracle.rows": len(a["rows"])},
    "ensemble.collect_votes": lambda a, r: {
        "ensemble.predictions": len(a["models"]) * len(a["test_inputs"]),
        "learners.predictions_computed": len(a["models"]) * len(a["test_inputs"]),
    },
    "infinite_aggregation.ia_votes": lambda a, r: {
        "infinite_aggregation.subsets": 2**r.n_samples,
        "learners.predictions_computed": 2**r.n_samples,
    },
    "certifier.certify_matrix": lambda a, r: {"certifier.rows": len(r)},
    "certifier.certified_accuracy": _cert_acc_counts,
    "cli.votes_to_json": lambda a, r: {
        "cli.votes_bytes": len(r.encode("utf-8")),
        "cli.votes": a["matrix"].n_test * a["matrix"].config.kd,
    },
}

# Process CPU time over wall time around these calls gives parallel.overlap.
CPU_TIMED = {"certifier.certify_matrix"}


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.missing: list[str] = []
        self.failed_hooks: set[str] = set()  # spans whose computed counts are incomplete
        self._local = threading.local()
        self._lock = threading.Lock()

    def _name(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _add(self, counts: dict) -> None:
        with self._lock:
            for key, value in counts.items():
                self.counts[key] = self.counts.get(key, 0) + value

    def _open(self, name: int, task: bool) -> int:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        parent = stack[-1] if stack else getattr(local, "inherited", -1)
        record = [name, 0.0, 0.0, parent, threading.get_ident(), 0.0, task]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        record[1] = time.perf_counter()
        return index

    def _close(self, index: int) -> None:
        end = time.perf_counter()
        record = self.spans[index]
        record[2] = end
        stack = self._local.stack
        stack.pop()
        if stack:
            self.spans[stack[-1]][5] += end - record[1]

    def _wrap(self, name: str, fn):
        index = self._name(name)
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None
        cpu_timed = name in CPU_TIMED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if cpu_timed:
                cpu0, wall0 = _cpu_s(), time.perf_counter()
            span = self._open(index, False)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if cpu_timed:
                self._add({
                    "parallel.cpu_s": _cpu_s() - cpu0,
                    "parallel.wall_s": time.perf_counter() - wall0,
                })
            if hook is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    self._add(hook(bound.arguments, result))
                except (AttributeError, KeyError, TypeError, IndexError):
                    self.failed_hooks.add(name)
            return result

        return wrapper

    def _wrap_map(self, name: str, fn):
        index = self._name(name)
        orphan = self._name("parallel.task")

        @functools.wraps(fn)
        def wrapper(task_fn, *args, **kwargs):
            span = self._open(index, False)
            caller = self.spans[span][3]
            task_name = self.spans[caller][0] if caller >= 0 else orphan

            def task(item):
                local = self._local
                if not getattr(local, "stack", None):
                    local.inherited = span
                inner = self._open(task_name, True)
                try:
                    return task_fn(item)
                finally:
                    self._close(inner)

            try:
                return fn(task, *args, **kwargs)
            finally:
                self._close(span)

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "finiagg" or n.startswith("finiagg.")]
        for module_name, functions in WRAPPED.items():
            module = sys.modules.get(f"finiagg.{module_name}")
            for fn_name in functions:
                name = f"{module_name.lstrip('_')}.{fn_name}"
                original = getattr(module, fn_name, None)
                if original is None:
                    self.missing.append(name)
                    continue
                wrap = self._wrap_map if fn_name == "ordered_map" else self._wrap
                wrapper = wrap(name, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)

    def dump(self) -> dict:
        return {
            "names": self.names,
            "spans": self.spans,
            "counts": self.counts,
            "missing": self.missing + [f"{n} (counts)" for n in sorted(self.failed_hooks)],
        }
