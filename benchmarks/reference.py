"""Independent check of the fine and baseline certificates, in numpy.

It shares no code with ``finiagg.certifier``: per-partition counts come from
one roll of a class one-hot per offset, and the fine radius from a cumulative
sum over the sorted margin losses ``e_j = d + a_c[j] - a_c'[j]``.
"""

from __future__ import annotations

import numpy as np


def fine_and_baseline_radii(votes: np.ndarray, offsets, n_classes: int, labels=None):
    """(predictions, fine radii, baseline radii) for an (n, kd) vote array.

    A radius is -1 where a label is given and the majority vote misses it.
    """
    n, kd = votes.shape
    d = len(offsets)
    classes = np.arange(n_classes)
    preds, fine, base = [], [], []
    for t in range(n):
        row = votes[t]
        counts = np.bincount(row, minlength=n_classes)
        c = int(np.argmax(counts))  # first maximum: ties go to the smaller index
        preds.append(c)
        if labels is not None and labels[t] != c:
            fine.append(-1)
            base.append(-1)
            continue
        onehot = (row[None, :] == classes[:, None]).astype(np.int64)
        # a[q, j] = votes for q among the classifiers (j + r) mod kd, r in offsets
        a = sum(np.roll(onehot, -r, axis=1) for r in offsets)
        f = b = kd
        for q in range(n_classes):
            if q == c:
                continue
            rhs = int(counts[c] - counts[q] - (q < c))
            losses = np.sort(d + a[c] - a[q])[::-1]
            f = min(f, int(np.searchsorted(np.cumsum(losses), rhs, side="right")))
            b = min(b, max(0, rhs // (2 * d)))
        fine.append(f)
        base.append(b)
    return preds, fine, base
