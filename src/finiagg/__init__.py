"""Deterministic split/spread ensembles with exact poisoning certificates."""

from .datamodel import (
    AggregationConfig,
    Dataset,
    LabeledSample,
    validate_dataset,
)
from .ensemble import (
    EnsembleStats,
    VoteMatrix,
    aggregate_prediction,
    collect_votes,
    train_ensemble,
)
from .hashing import (
    SpreadOffsets,
    build_partitions,
    generate_offsets,
    split_hash,
    spread,
    spread_inverse,
)
from .certifier import (
    CertificateReport,
    MarginTable,
    RadiusStats,
    SampleCertificate,
    build_report,
    certified_accuracy,
    certified_fraction_curve,
    certify_matrix,
    conditional_certified,
    dpa_baseline_radius,
    dpa_radius,
    fa_radius,
    margin_table,
    margin_tables,
    radius_stats,
)
from .infinite_aggregation import (
    IAVoteDistribution,
    ia_brute_force_check,
    ia_radius,
    ia_vote_distributions,
    ia_votes,
)
from .learners import LearnerSpec, predict, train
from .oracle import (
    VerificationReport,
    branch_and_bound_radius,
    conditional_exact_check,
    exact_poison_radius,
    verify_certificates,
)

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
