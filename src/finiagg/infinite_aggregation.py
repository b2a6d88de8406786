"""Exhaustive Bernoulli-subsampling classifier and its certificate.

Instead of a fixed ensemble, imagine training one base model on every
subset S of the training set, weighted by the probability that independent
1/k coin flips select exactly S. The class scores are then expected vote
fractions, and the certificate mirrors the finite one with two changes:
the per-partition statistics become per-sample conditional scores (the
expected vote fraction given that one sample is selected), and insertions
draw from an unlimited supply of a single bulk element because a new
sample has no conditional history.

Everything is computed in exact rational arithmetic over all 2^|D|
subsets, which caps this module at desk scale by design; it exists to
study and test the scheme, not to run it on real datasets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from typing import Sequence

from .datamodel import Dataset, LabeledSample
from .errors import DataError, InstanceTooLarge, LimitError
from .learners import LearnerSpec, argmax, predict, train

DEFAULT_LIMIT = 16


@dataclass(frozen=True)
class IAVoteDistribution:
    """Exact class scores, overall and conditioned on each sample's inclusion."""

    per_class: tuple[Fraction, ...]
    conditional: tuple[tuple[Fraction, ...], ...]  # [sample position][class]
    k: int
    n_samples: int
    prediction: int


def ia_votes(
    dataset: Dataset,
    features: Sequence[int],
    k: int,
    spec: LearnerSpec,
    limit: int = DEFAULT_LIMIT,
) -> IAVoteDistribution:
    """Evaluate the subsampled ensemble exactly on one input; see ``ia_vote_distributions``."""
    return ia_vote_distributions(dataset, [features], k, spec, limit)[0]


def ia_vote_distributions(
    dataset: Dataset,
    probes: Sequence[Sequence[int]],
    k: int,
    spec: LearnerSpec,
    limit: int = DEFAULT_LIMIT,
) -> tuple[IAVoteDistribution, ...]:
    """Evaluate the subsampled ensemble exactly on every probe.

    Subsets are enumerated by position bitmask, so duplicate samples carry
    their multiplicity. A subset of size s has probability
    (1/k)^s * (1 - 1/k)^(n - s); conditioning on position L rescales the
    masks containing L by k (dropping L's own selection factor).

    Each subset's model is trained once and votes on every probe. The votes
    are tallied as integer counts per subset size, which take their
    probabilities only at the end.
    """
    if k < 1:
        raise DataError(f"k must be positive, got {k}")
    n = len(dataset.samples)
    if n > limit:
        raise InstanceTooLarge(f"|D|={n} exceeds the exhaustive limit {limit}")
    n_classes = dataset.n_classes
    try:
        per_class = [[Fraction(0)] * n_classes for _ in probes]
        conditional = [[[Fraction(0)] * n_classes for _ in range(n)] for _ in probes]
    except (MemoryError, OverflowError):
        raise LimitError(f"class scores over {n_classes} classes do not fit in memory") from None
    if not probes:
        return ()  # no model to train

    # per probe, (subset size, vote) -> how many such subsets hold each
    # sample position, then how many there are in all
    tallies = [{} for _ in probes]
    for mask in range(1 << n):
        held = [i for i in range(n) if mask >> i & 1]
        model = train(spec, [dataset.samples[i] for i in held], n_classes)
        size = len(held)
        for tally, x in zip(tallies, probes):
            key = (size, predict(model, x))
            counts = tally.get(key)
            if counts is None:
                counts = tally[key] = [0] * (n + 1)
            counts[n] += 1
            for i in held:
                counts[i] += 1

    p = Fraction(1, k)
    q = 1 - p
    weight_by_size = [p**s * q ** (n - s) for s in range(n + 1)]
    dists = []
    for scores, cond, tally in zip(per_class, conditional, tallies):
        for (size, voted), counts in tally.items():
            weight = weight_by_size[size]
            scores[voted] += weight * counts[n]
            for i in range(n):
                cond[i][voted] += weight * k * counts[i]
        dists.append(
            IAVoteDistribution(
                per_class=tuple(scores),
                conditional=tuple(tuple(row) for row in cond),
                k=k,
                n_samples=n,
                prediction=argmax(scores),
            )
        )
    return tuple(dists)


def ia_radius(dist: IAVoteDistribution) -> int:
    """Largest certified budget for a subsampled-ensemble prediction.

    Against challenger c', each removal of sample L costs at most
    (1 + score_c|L - score_c'|L)/k of margin and each insertion at most
    (1 + score_c - score_c')/k (the bulk value). The worst m-poison cost
    merges the descending finite costs with unlimited bulk copies. The
    margin must exceed the cost strictly when c' < c, because a restored
    tie would already flip the prediction toward the smaller index.

    The finite costs at least as large as the bulk value are taken one by
    one; every later step costs the bulk value, so how many of them fit is
    one floor division of the margin left.
    """
    c = dist.prediction
    k = dist.k
    radius = k  # without a challenger; each step costs at least bulk, so fewer than k fit
    for cp in range(len(dist.per_class)):
        if cp == c:
            continue
        gap = dist.per_class[c] - dist.per_class[cp]
        bulk = 1 + gap
        finite = sorted(
            (1 + cond[c] - cond[cp] for cond in dist.conditional), reverse=True
        )
        strict = cp < c
        room = gap * k  # the margin in units of 1/k, less the costs taken
        m = 0
        for cost in [f for f in finite if f >= bulk]:
            room -= cost
            if room < 0 or (strict and room == 0):
                break
            m += 1
        else:  # room > 0 here when strict, since c wins ties only against larger indices
            steps, rest = divmod(room, bulk)
            m += steps - (strict and rest == 0)
        radius = min(radius, m)
    return radius


def ia_brute_force_check(
    dataset: Dataset,
    features: Sequence[int],
    k: int,
    spec: LearnerSpec,
    budget: int,
    pool: Sequence[LabeledSample],
    limit: int = DEFAULT_LIMIT,
) -> bool:
    """Exhaustively confirm the prediction survives every reachable attack.

    Attacks remove up to ``budget`` samples from the dataset and insert
    up to the remaining budget from ``pool`` (with repetition). Every
    enumerated variant stays within the symmetric-distance ball, but the
    restricted pool covers only part of it: a True result is necessary
    for a sound certificate, never proof of tightness.
    """
    n = len(dataset.samples)
    if n + budget > limit:
        raise InstanceTooLarge(
            f"|D|+budget={n + budget} exceeds the exhaustive limit {limit}"
        )
    baseline = ia_votes(dataset, features, k, spec, limit).prediction
    positions = range(n)
    for removals in range(budget + 1):
        for removed in combinations(positions, removals):
            kept = [s for i, s in enumerate(dataset.samples) if i not in removed]
            for insertions in range(budget - removals + 1):
                for added in combinations_with_replacement(pool, insertions):
                    variant = Dataset(
                        tuple(kept) + tuple(added), dataset.n_classes, dataset.feature_dim
                    )
                    if ia_votes(variant, features, k, spec, limit).prediction != baseline:
                        return False
    return True
