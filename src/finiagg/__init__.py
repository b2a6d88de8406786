"""Deterministic split/spread ensembles with exact poisoning certificates."""

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "datamodel": (
        "AggregationConfig", "Dataset", "LabeledSample", "LearnerSpec", "VoteMatrix",
        "aggregate_prediction", "validate_dataset",
    ),
    "hashing": ("SpreadOffsets", "generate_offsets", "spread"),
    "certifier": (
        "CertificateReport", "EnsembleStats", "RadiusStats", "SampleCertificate", "build_report",
        "certified_fraction_curve", "certify_matrix", "radius_stats",
    ),
    "infinite_aggregation": ("IAVoteDistribution", "ia_radius", "ia_vote_distributions"),
    "oracle": ("VerificationReport", "branch_and_bound_radius", "verify_certificates"),
    "reference": (
        "MarginTable", "build_partitions", "certified_accuracy", "collect_votes", "conditional_certified",
        "conditional_exact_check", "dpa_baseline_radius", "dpa_radius", "exact_poison_radius", "fa_radius",
        "ia_brute_force_check", "ia_votes", "margin_table", "margin_tables", "predict", "split_hash",
        "spread_inverse", "train", "train_ensemble",
    ),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __getattr__(name: str):
    """Load the module that defines a public name on its first use (PEP 562).

    ``import finiagg`` loads no submodule, so ``import finiagg.cli`` loads
    only what the commands import, and never ``finiagg.reference``.
    """
    from importlib import import_module

    for module, names in _EXPORTS.items():
        if name in names:
            return getattr(import_module(f"{__name__}.{module}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
