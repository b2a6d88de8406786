"""Exhaustive poisoning adversary for small ensembles.

The adversary model matches the one the certificates bound: a budget of m
poisons touches at most m partitions H, and every classifier consuming a
touched partition may afterwards vote arbitrarily. For a fixed H and a
target challenger w, setting ALL affected votes to w simultaneously
maximizes w's count and minimizes every other count, so if any assignment
of affected votes dethrones the original winner via final class w, the
all-to-w assignment does too. Enumerating (w, H) pairs is therefore an
exact search, reducing the n_classes^|A(H)| assignment space to n_classes-1
candidates per subset.

Affected-classifier sets are tracked as bitmasks over the kd classifiers,
and the search ascends by |H|, short-circuiting at the first flip; a
flip found at size m also exists at every larger size (supersets only add
adversary freedom), so the first failing level fixes the exact radius.

The readable reference, ``exact_poison_radius`` in ``finiagg.reference``,
enumerates every subset of each size; ``verify_certificates`` runs
``branch_and_bound_radius``, the same search pruned by a bound on what the
partitions still to pick can add, which gives the same radius on every row.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Sequence

from .certifier import _vote_losses
from .datamodel import VoteMatrix, aggregate_prediction, unpack
from .errors import InstanceTooLarge
from .hashing import SpreadOffsets, spread

DEFAULT_LIMIT = 16


def _partition_masks(offsets: SpreadOffsets) -> list[int]:
    masks = []
    for j in range(offsets.kd):
        mask = 0
        for i in spread(j, offsets):
            mask |= 1 << i
        masks.append(mask)
    return masks


def branch_and_bound_radius(
    row: Sequence[int],
    offsets: SpreadOffsets,
    n_classes: int,
    label: int | None = None,
    limit: int = DEFAULT_LIMIT,
) -> int:
    """``exact_poison_radius`` by a depth-first search that skips hopeless subsets.

    Let P and W be the classifiers voting the prediction p and a challenger
    w. Affecting the classifiers A flips p toward w iff the gain
    ``|A| + |A&P| - |A&W|`` exceeds ``T_w = N_p - N_w - [w < p]``. Every
    classifier adds 0, 1 or 2 to the gain and counts once however many
    touched partitions consume it, so partition j adds at most its own gain
    ``e_j``. With the partitions sorted by ``e_j`` descending, a branch that
    still picks ``left`` partitions from position i on gains at most
    ``sum(e[i:i+left])`` more, and that window only shrinks as i grows, so
    the sibling loop stops at the first window that cannot pass ``T_w``.
    Classes without votes share W = 0; the smallest has the smallest
    ``T_w`` and stands for them all. Sizes are searched upward as in the
    reference.
    """
    kd = offsets.kd
    if kd > limit:
        raise InstanceTooLarge(f"kd={kd} exceeds the oracle limit {limit}")
    prediction = aggregate_prediction(row, n_classes)
    if label is not None and prediction != label:
        return -1
    voters: dict[int, int] = {}  # class with votes -> mask of its voters
    for i, v in enumerate(row):
        voters[v] = voters.get(v, 0) | 1 << i
    p_mask = voters[prediction]
    challengers = [(w, m) for w, m in voters.items() if w != prediction]
    absent = next((c for c in range(n_classes) if c not in voters), None)
    if absent is not None:
        challengers.append((absent, 0))
    part_masks = _partition_masks(offsets)

    searches = []
    for w, w_mask in challengers:

        def gain(a: int, w_mask: int = w_mask) -> int:
            return a.bit_count() + (a & p_mask).bit_count() - (a & w_mask).bit_count()

        masks = sorted(part_masks, key=gain, reverse=True)
        prefix = [0]
        for mask in masks:
            prefix.append(prefix[-1] + gain(mask))
        threshold = p_mask.bit_count() - w_mask.bit_count() - (w < prediction)
        searches.append((gain, masks, prefix, threshold))

    for m in range(1, kd + 1):
        for gain, masks, prefix, threshold in searches:
            if _gains_past(m, threshold, gain, masks, prefix):
                return m - 1
    return kd


def _gains_past(m: int, threshold: int, gain, masks: Sequence[int], prefix: Sequence[int]) -> bool:
    """True iff the union of some m of ``masks`` gains more than ``threshold``.

    ``masks`` are sorted by ``gain`` descending and ``prefix`` holds their
    running gain sums.
    """
    kd = len(masks)

    def search(start: int, union: int, left: int) -> bool:
        have = gain(union)
        if have > threshold:
            return True  # partitions still to pick only add gain
        if left == 0:
            return False
        for i in range(start, kd - left + 1):
            if have + prefix[i + left] - prefix[i] <= threshold:
                return False
            if search(i + 1, union | masks[i], left - 1):
                return True
        return False

    return search(0, 0, m)


class RowVerification(namedtuple("RowVerification",
                                  "index fa_radius dpa_radius exact_radius gap sound dpa_equivalent")):
    __slots__ = ()


class VerificationReport(namedtuple("VerificationReport", "rows")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return all(r.sound and r.dpa_equivalent is not False for r in self.rows)

    @property
    def violations(self) -> tuple[RowVerification, ...]:
        return tuple(r for r in self.rows if not r.sound or r.dpa_equivalent is False)

    def gap_histogram(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for r in self.rows:
            hist[r.gap] = hist.get(r.gap, 0) + 1
        return dict(sorted(hist.items()))


def verify_certificates(matrix: VoteMatrix, limit: int = DEFAULT_LIMIT) -> VerificationReport:
    """Check every certificate of the matrix against the exhaustive adversary.

    Soundness requires the certified radius never to exceed the exact one;
    with d=1 the fine-grained certificate must also equal the plain
    disjoint-partition radius on the same votes. The per-row gap records
    certificate slack (0 means tight). Both certificates come from the
    row's ``_vote_losses``, on the row as the matrix holds it, and the exact
    radius from ``branch_and_bound_radius`` on its ``unpack``ed ints.
    """
    offsets, n_classes, labels = matrix.offsets, matrix.config.n_classes, matrix.labels
    verified = []
    for t, votes in enumerate(matrix.votes):
        label = labels[t] if labels is not None else None
        cert = _vote_losses(votes, offsets, n_classes).certificate(label)
        fa = cert.fa_radius
        exact = branch_and_bound_radius(unpack(votes, offsets.kd), offsets, n_classes, label, limit)
        dpa = cert.dpa_radius if offsets.d == 1 else None
        verified.append(
            RowVerification(
                index=t,
                fa_radius=fa,
                dpa_radius=dpa,
                exact_radius=exact,
                gap=exact - fa,
                sound=fa <= exact,
                dpa_equivalent=(dpa == fa) if dpa is not None else None,
            )
        )
    return VerificationReport(tuple(verified))
