"""Per-layer metrics from the spans a traced pass recorded.

Layers are the modules of ``src/finiagg`` (``_parallel`` is reported as
``parallel``, since a metric name starts with a letter). Self time is a
span's duration minus its children on the same thread. A layer's busy time
sums the self time of its spans over all threads; its wall time is the
length of the union of those self intervals. With two threads stuck on the
interpreter lock, busy time exceeds wall time.
"""

from __future__ import annotations

from collections import defaultdict

LAYERS = (
    "cli", "datamodel", "hashing", "learners", "ensemble", "certifier", "oracle",
    "infinite_aggregation", "parallel",
)
CMDS = ("cmd_certify", "cmd_curve", "cmd_compare", "cmd_cert_acc", "cmd_oracle_check", "cmd_ia")

# metric -> spans whose self time it sums
SELF = {
    "cli.read_csv_s": ("cli.read_dataset_csv", "cli.read_test_csv"),
    "cli.votes_json_s": ("cli.votes_to_json",),
    "cli.report_s": tuple(f"cli.{c}" for c in CMDS),
    "datamodel.validate_s": ("datamodel.validate_dataset",),
    "hashing.split_s": ("hashing.build_partitions",),
    "hashing.spread_s": ("hashing.build_subsets",),
    "learners.train_s": ("learners.train",),
    "ensemble.vote_s": ("ensemble.collect_votes",),
    "ensemble.stats_s": ("ensemble.ensemble_stats",),
    "certifier.margin_s": ("certifier.margin_table", "certifier.margin_tables"),
    "certifier.radius_s": ("certifier.fa_radius",),
    "certifier.baseline_s": ("certifier.dpa_baseline_radius", "certifier.dpa_radius"),
    "oracle.verify_s": ("oracle.verify_certificates",),
    "oracle.exact_s": ("oracle.exact_poison_radius",),
    "infinite_aggregation.votes_s": ("infinite_aggregation.ia_votes",),
    "infinite_aggregation.radius_s": ("infinite_aggregation.ia_radius",),
    "parallel.wait_s": ("parallel.ordered_map",),
}
# metric -> spans whose duration it sums, outermost call only
INCLUSIVE = {
    "cli.load_votes_s": ("cli.load_votes",),
    "certifier.certify_s": ("certifier.certify_matrix",),
    "certifier.cert_acc_s": ("certifier.certified_accuracy",),
}
# counts taken as they are from the tracer
COUNTS = (
    "hashing.subset_samples", "hashing.empty_partitions", "hashing.spread_calls_computed",
    "learners.predictions_computed", "certifier.cert_acc_subsets_computed",
    "certifier.conditional_calls_computed",
)

# metric -> (unit, better); the order is the order of BENCHMARK.json
UNITS = {name: ("s", "lower") for name in (*SELF, *INCLUSIVE)}
UNITS.update({name: ("count", "lower") for name in COUNTS})
UNITS.update({
    "learners.models": ("count", "lower"),
    "ensemble.us_per_prediction": ("us", "lower"),
    "cli.votes_bytes_per_vote": ("B", "lower"),
    "cli.report_bytes": ("B", "lower"),
    "certifier.ms_per_row": ("ms", "lower"),
    "certifier.margin_tables_per_row": ("count", "lower"),
    "oracle.ms_per_row": ("ms", "lower"),
    "infinite_aggregation.us_per_subset": ("us", "lower"),
    "parallel.overlap": ("ratio", "higher"),
})
for _layer in LAYERS:
    UNITS[f"{_layer}.busy_s"] = ("s", "lower")
    UNITS[f"{_layer}.wall_s"] = ("s", "lower")
UNITS.update({
    "trace.overhead_s": ("s", "lower"),
    "trace.cmd_share": ("ratio", "higher"),
    "trace.spans": ("count", "lower"),
})


def _union_length(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _invocation(dump: dict) -> dict:
    """Self time, outermost inclusive time, call count and layer intervals of one process."""
    names, spans = dump["names"], dump["spans"]
    self_s, inclusive, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    intervals = defaultdict(list)
    children = defaultdict(list)
    for name, start, end, parent, thread, _, _ in spans:
        if parent >= 0 and spans[parent][4] == thread:
            children[parent].append((start, end))
    for index, (name, start, end, parent, _, child_s, task) in enumerate(spans):
        label = names[name]
        self_s[label] += end - start - child_s
        calls[label] += not task
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            inclusive[label] += end - start
        layer = intervals[label.split(".")[0]]
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            if child_start > cursor:
                layer.append((cursor, child_start))
            cursor = max(cursor, child_end)
        if end > cursor:
            layer.append((cursor, end))
    return {
        "self": self_s,
        "inclusive": inclusive,
        "calls": calls,
        "wall": {layer: _union_length(iv) for layer, iv in intervals.items()},
        "busy": {layer: sum(e - s for s, e in iv) for layer, iv in intervals.items()},
    }


def pass_metrics(dumps: list[dict], rows: list[int], report_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass; ``dumps[i]`` processed ``rows[i]`` test rows."""
    self_s, inclusive, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    busy, wall, counts = defaultdict(float), defaultdict(float), defaultdict(float)
    margin_rows = 0
    main_s = n_spans = 0
    for dump, n_rows in zip(dumps, rows):
        one = _invocation(dump)
        for key, table in (("self", self_s), ("inclusive", inclusive), ("calls", calls),
                           ("busy", busy), ("wall", wall)):
            for name, value in one[key].items():
                table[name] += value
        for name, value in dump["counts"].items():
            counts[name] += value
        if one["calls"].get("certifier.margin_table"):
            margin_rows += n_rows
        main_s += dump["main_s"]
        n_spans += len(dump["spans"])

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    out = {m: sum(self_s[n] for n in names) for m, names in SELF.items()}
    out.update({m: sum(inclusive[n] for n in names) for m, names in INCLUSIVE.items()})
    out.update({m: counts[m] for m in COUNTS})
    out.update({
        "learners.models": calls["learners.train"],
        "ensemble.us_per_prediction": ratio(out["ensemble.vote_s"], counts["ensemble.predictions"], 1e6),
        "cli.votes_bytes_per_vote": ratio(counts["cli.votes_bytes"], counts["cli.votes"]),
        "cli.report_bytes": report_bytes,
        "certifier.ms_per_row": ratio(out["certifier.certify_s"], counts["certifier.rows"], 1e3),
        "certifier.margin_tables_per_row": ratio(calls["certifier.margin_table"], margin_rows),
        "oracle.ms_per_row": ratio(inclusive["oracle.verify_certificates"], counts["oracle.rows"], 1e3),
        "infinite_aggregation.us_per_subset": ratio(
            inclusive["infinite_aggregation.ia_votes"], counts["infinite_aggregation.subsets"], 1e6
        ),
        "parallel.overlap": ratio(counts["parallel.cpu_s"], counts["parallel.wall_s"]),
    })
    for layer in LAYERS:
        out[f"{layer}.busy_s"] = busy[layer]
        out[f"{layer}.wall_s"] = wall[layer]
    out["trace.cmd_share"] = ratio(sum(inclusive[f"cli.{c}"] for c in CMDS), main_s)
    out["trace.spans"] = n_spans
    return out
