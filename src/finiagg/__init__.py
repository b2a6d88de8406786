"""Deterministic split/spread ensembles with exact poisoning certificates."""

from .datamodel import (
    AggregationConfig,
    Dataset,
    LabeledSample,
    LearnerSpec,
    VoteMatrix,
    aggregate_prediction,
    validate_dataset,
)
from .hashing import SpreadOffsets, generate_offsets, spread
from .certifier import (
    CertificateReport,
    EnsembleStats,
    RadiusStats,
    SampleCertificate,
    build_report,
    certified_fraction_curve,
    certify_matrix,
    radius_stats,
)
from .infinite_aggregation import IAVoteDistribution, ia_radius, ia_vote_distributions
from .oracle import VerificationReport, branch_and_bound_radius, verify_certificates

__version__ = "0.1.0"

__all__ = [
    "AggregationConfig",
    "CertificateReport",
    "Dataset",
    "EnsembleStats",
    "IAVoteDistribution",
    "LabeledSample",
    "LearnerSpec",
    "MarginTable",
    "RadiusStats",
    "SampleCertificate",
    "SpreadOffsets",
    "VerificationReport",
    "VoteMatrix",
    "aggregate_prediction",
    "branch_and_bound_radius",
    "build_partitions",
    "build_report",
    "certified_accuracy",
    "certified_fraction_curve",
    "certify_matrix",
    "collect_votes",
    "conditional_certified",
    "conditional_exact_check",
    "dpa_baseline_radius",
    "dpa_radius",
    "exact_poison_radius",
    "fa_radius",
    "generate_offsets",
    "ia_brute_force_check",
    "ia_radius",
    "ia_vote_distributions",
    "ia_votes",
    "margin_table",
    "margin_tables",
    "predict",
    "radius_stats",
    "split_hash",
    "spread",
    "spread_inverse",
    "train",
    "train_ensemble",
    "validate_dataset",
    "verify_certificates",
]


def __getattr__(name: str):
    """Load ``finiagg.reference`` on first use of a name it exports (PEP 562).

    ``import finiagg.cli`` runs this module, and no command runs a reference.
    """
    if name in __all__:
        from . import reference

        return getattr(reference, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
