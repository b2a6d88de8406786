"""Deterministic base learners.

Two built-ins allow end-to-end runs without external ML dependencies:

* ``majority-label`` ignores features and predicts the most frequent
  training label;
* ``nearest-centroid`` predicts the class whose mean feature vector is
  nearest in squared distance, compared in exact integers.

Votes of any other learner reach the certifier through a vote-matrix
file, which names no learner.

Both built-ins break every tie toward the smaller class index, and models
trained on an empty subset predict class 0. Prediction never touches
floating point. The models and their trainer are the readable reference
in ``finiagg.reference``; ``arrays`` votes by the same rules.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Sequence

from .errors import UnknownLearnerKind

MAJORITY_LABEL = "majority-label"
NEAREST_CENTROID = "nearest-centroid"
KNOWN_KINDS = (MAJORITY_LABEL, NEAREST_CENTROID)


class LearnerSpec(namedtuple("LearnerSpec", "kind")):
    __slots__ = ()

    def __new__(cls, kind: str):
        if kind not in KNOWN_KINDS:
            raise UnknownLearnerKind(kind)
        return super().__new__(cls, kind)


def argmax(scores: Sequence) -> int:
    """Index of the largest score; ties go to the smaller index."""
    best = 0
    for c in range(1, len(scores)):
        if scores[c] > scores[best]:
            best = c
    return best
