"""Exhaustive Bernoulli-subsampling classifier and its certificate.

Instead of a fixed ensemble, imagine training one base model on every
subset S of the training set, weighted by the probability that independent
1/k coin flips select exactly S. The class scores are then expected vote
fractions, and the certificate mirrors the finite one with two changes:
the per-partition statistics become per-sample conditional scores (the
expected vote fraction given that one sample is selected), and insertions
draw from an unlimited supply of a single bulk element because a new
sample has no conditional history.

Every one of the 2^|D| subsets is scored exactly, from per-class states, not
trained models, which caps this module at desk scale by design; it exists
to study and test the scheme, not to run it on real datasets. The readable
reference, one probe at a time and its exhaustive attack check, is in
``finiagg.reference``.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from fractions import Fraction
from itertools import chain
from math import lcm
from operator import mul
from typing import Sequence

from .datamodel import NEAREST_CENTROID, Dataset, LearnerSpec, argmax
from .errors import DataError, DimensionMismatch, InstanceTooLarge, LimitError

DEFAULT_LIMIT = 16


class IAVoteDistribution(namedtuple("IAVoteDistribution", "per_class conditional k n_samples prediction")):
    """Exact class scores, overall and conditioned on each sample's inclusion (``conditional[position][class]``)."""

    __slots__ = ()


def _subset_sums(values: Sequence[int]) -> list[int]:
    """The sum of every subset of ``values``; subset j holds the values at the set bits of j."""
    sums = [0]
    for v in values:
        sums += [s + v for s in sums]
    return sums


def ia_vote_distributions(
    dataset: Dataset,
    probes: Sequence[Sequence[int]],
    k: int,
    spec: LearnerSpec,
    limit: int = DEFAULT_LIMIT,
) -> tuple[IAVoteDistribution, ...]:
    """Evaluate the subsampled ensemble exactly on every probe.

    Subsets are enumerated by sample position, so duplicate samples carry
    their multiplicity. A model sees its subset only through each class's
    count m and feature sum s in it, and votes for the class whose state
    ranks best: the smallest exact ``|m x - s|^2 / m^2`` (nearest-centroid)
    or the largest m (majority-label), ties to the smaller index, class 0 if
    none. Per probe, all classes but the largest are ranked in one sorted
    order and fold into one list; the largest one's states are placed among
    those ranks by bisection and stream against the list, and each subset
    adds its positions to its (size, vote) tally. A subset of size t weighs
    (k-1)^(n-t) / k^n, and conditioning on position L scales the subsets
    holding L by k.
    """
    if k < 1:
        raise DataError(f"k must be positive, got {k}")
    n = len(dataset.samples)
    if n > limit:
        raise InstanceTooLarge(f"|D|={n} exceeds the exhaustive limit {limit}")
    try:
        per_class = [[0] * dataset.n_classes for _ in probes]
        conditional = [[[0] * dataset.n_classes for _ in range(n)] for _ in probes]
    except (MemoryError, OverflowError):
        raise LimitError(f"class scores over {dataset.n_classes} classes do not fit in memory") from None
    centroid = spec.kind == NEAREST_CENTROID
    lane = n + 1  # a subset's positions as 1 << i * lane, and lane n counts it
    states = {0: [(0, 0, 0)]}  # class -> (m, |s|^2, packed positions) per subset of its samples
    for i, (f, c) in enumerate((s.features, s.label) for s in dataset.samples):
        cross = _subset_sums([2 * sum(map(mul, g.features, f)) for g in dataset.samples[:i] if g.label == c])
        own, f_sq = states.setdefault(c, [(0, 0, 0)]), sum(map(mul, f, f))
        own += [(m + 1, q + v + f_sq, p + (1 << i * lane)) for (m, q, p), v in zip(own, cross)]
    voters = sorted(states)  # class 0 votes for the empty subset, with or without samples
    scale = lcm(*range(1, lane))  # a multiple of every count, so that ranks compare ints
    *folded, streamed = sorted(voters, key=lambda c: len(states[c]))
    total = k**n
    dists = []
    for x, scores, cond in zip(probes, per_class, conditional):
        if centroid and n and len(x) != dataset.feature_dim:
            raise DimensionMismatch(f"expected {dataset.feature_dim} features, got {len(x)}")
        # |m x - s|^2 / m^2 less the |x|^2 every state shares, (|s|^2 - 2 m x.s) / m^2, times scale^2
        dot = [sum(map(mul, x, s.features)) if centroid else 0 for s in dataset.samples]
        dots = {c: _subset_sums([d for d, s in zip(dot, dataset.samples) if s.label == c]) for c in states}

        def keyed(c):  # (rank key, class, index) of each nonempty state of class c
            return (((q - 2 * m * dots[c][j]) * (scale // m) ** 2 if centroid else -m, c, j)
                    for j, (m, q, _) in enumerate(states[c]) if m)

        # folded state r ranks 2r + 1, a streamed state just before it 2r, and empty states last
        ranked = sorted(chain.from_iterable(map(keyed, folded)))
        last = 2 * len(ranked) + 1
        rank = {c: [last] * len(states[c]) for c in folded}
        for r, (_, c, j) in enumerate(ranked):
            rank[c][j] = 2 * r + 1
        streamed_slot = voters.index(streamed) * lane
        vote_slot = [slot for _, c, _ in ranked for slot in (streamed_slot, voters.index(c) * lane)]
        vote_slot += [streamed_slot, 0]  # rank -> (vote, size 0)
        prefix = [(0, 1 << n * lane, last)]
        for c in folded:
            prefix = [(m1 + m2, p1 + p2, min(r1, r2))
                      for m1, p1, r1 in prefix for (m2, _, p2), r2 in zip(states[c], rank[c])]
        # only state 0, the empty one, has m = 0; classes differ, so (key, class) places the rest
        streamed_rank = chain([last], (2 * bisect_left(ranked, state) for state in keyed(streamed)))
        tally = [0] * (len(voters) * lane)
        for (m2, _, p2), r2 in zip(states[streamed], streamed_rank):
            for m1, p1, r1 in prefix:
                tally[vote_slot[min(r1, r2)] + m1 + m2] += p1 + p2
        for slot, packed in enumerate(tally):
            c, w = voters[slot // lane], (k - 1) ** (n - slot % lane)
            for i, row in enumerate([*cond, scores]):
                row[c] += w * (packed >> i * lane & (1 << lane) - 1)
        scores = tuple(Fraction(v, total) for v in scores)
        cond = tuple(tuple(Fraction(v * k, total) for v in row) for row in cond)
        dists.append(IAVoteDistribution(scores, cond, k, n, argmax(scores)))
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
