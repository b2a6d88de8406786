"""Exception taxonomy shared across the package.

Every error carries an ``exit_code`` so the CLI can map failures onto its
documented exit codes: 1 usage, 2 data error, 3 limit exceeded, 4 soundness
violation.
"""

from __future__ import annotations


class FiniteAggError(Exception):
    """Base class for all package errors."""

    exit_code = 2


class UsageError(FiniteAggError):
    """Mutually inconsistent or invalid configuration."""

    exit_code = 1


class DataError(FiniteAggError):
    """Malformed input data (datasets, vote matrices, labels)."""

    exit_code = 2


class RowError(DataError):
    """A dataset row that breaks a rule; ``row`` is its zero-based index."""

    def __init__(self, row: int, message: str):
        super().__init__(f"row {row}: {message}")
        self.row = row


class NegativeFeature(RowError):
    def __init__(self, row: int, column: int, value: int):
        super().__init__(row, f"feature f{column} is negative ({value})")


class RaggedRow(RowError):
    def __init__(self, row: int, expected: int, got: int):
        super().__init__(row, f"expected {expected} feature columns, got {got}")


class LabelOutOfRange(RowError):
    def __init__(self, row: int, label: int, n_classes: int):
        super().__init__(row, f"label {label} outside [0, {n_classes})")


class DTooLarge(UsageError):
    def __init__(self, d: int, kd: int):
        super().__init__(f"spread degree d={d} exceeds the number of partitions kd={kd}")


class UnknownLearnerKind(UsageError):
    def __init__(self, kind: str):
        super().__init__(f"unknown learner kind {kind!r}")


class DimensionMismatch(DataError):
    pass


class MissingLabels(DataError):
    def __init__(self, what: str = "operation"):
        super().__init__(f"{what} requires ground-truth labels, but none were provided")


class EmptyTestSet(DataError):
    def __init__(self):
        super().__init__("test set is empty")


class LengthMismatch(DataError):
    pass


class LimitError(FiniteAggError):
    """An exact computation would exceed its configured size limit."""

    exit_code = 3


class InstanceTooLarge(LimitError):
    pass


class EnumerationTooLarge(LimitError):
    def __init__(self, kd: int, budget: int, count: int, cap: int):
        super().__init__(
            f"certified accuracy at budget {budget} needs C({kd}, {budget}) = {count} "
            f"partition subsets, above the cap of {cap}"
        )
        self.count = count


class SoundnessViolation(FiniteAggError):
    """A certificate exceeded the exact brute-force radius."""

    exit_code = 4
