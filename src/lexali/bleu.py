"""Corpus-level BLEU over whitespace tokens, single reference.

Clipped n-gram matches and totals for orders 1 to 4 are aggregated over the
whole corpus before taking precisions. An order with an empty denominator
scores 0, and any zero precision zeroes the whole score (no smoothing at
corpus level). The brevity penalty is min(1, exp(1 - ref_len / hyp_len)).
Scores are on the 0-100 scale; identical corpora score exactly 100.0.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Hashable, Sequence
from dataclasses import dataclass

from .corpus import Sentence
from .errors import ScoringError

MAX_ORDER = 4


@dataclass(frozen=True)
class BleuReport:
    score: float
    precisions: tuple[float, float, float, float]
    brevity_penalty: float
    hyp_length: int
    ref_length: int

    def format(self) -> str:
        p1, p2, p3, p4 = (100.0 * p for p in self.precisions)
        return (
            f"BLEU = {self.score:.2f} "
            f"({p1:.1f}/{p2:.1f}/{p3:.1f}/{p4:.1f}, "
            f"BP={self.brevity_penalty:.3f})"
        )


def ngram_counts(items: Sequence[Hashable], max_order: int) -> list[Counter]:
    """Counters of the n-grams of orders 1 to min(max_order, len(items)).

    ``items`` is a token tuple or a string. An n-gram is keyed as the tuple
    of its n items, so these counters compare only with each other. The
    counter of order n sums to len(items) - n + 1.
    """
    return [
        Counter(zip(*(items[i:] for i in range(order))))
        for order in range(1, min(max_order, len(items)) + 1)
    ]


def clipped_matches(
    left: Sequence[Counter], right: Sequence[Counter], max_order: int
) -> list[int]:
    """Sum of min counts per order of two ``ngram_counts`` lists, for
    orders 1 to max_order.

    ``min`` is symmetric, so one call serves both directions of a pair. An
    order missing from either list matches nothing.
    """
    matches = [0] * max_order
    for k, (small, large) in enumerate(zip(left, right)):
        if len(large) < len(small):
            small, large = large, small
        get = large.get
        matched = 0
        for gram, count in small.items():
            other = get(gram)
            if other is not None:
                matched += count if count < other else other
        matches[k] = matched
    return matches


def corpus_bleu(
    hypotheses: Sequence[Sentence], references: Sequence[Sentence]
) -> BleuReport:
    if len(hypotheses) != len(references):
        raise ScoringError(
            f"{len(hypotheses)} hypotheses for {len(references)} references"
        )
    if not hypotheses:
        raise ScoringError("cannot score an empty corpus")

    matched = [0] * MAX_ORDER
    totals = [0] * MAX_ORDER
    hyp_length = 0
    ref_length = 0
    for hyp, ref in zip(hypotheses, references):
        hyp_length += len(hyp)
        ref_length += len(ref)
        pair_matches = clipped_matches(
            ngram_counts(hyp, MAX_ORDER), ngram_counts(ref, MAX_ORDER), MAX_ORDER
        )
        for k in range(MAX_ORDER):
            matched[k] += pair_matches[k]
            totals[k] += max(0, len(hyp) - k)

    precisions = tuple(
        m / t if t > 0 else 0.0 for m, t in zip(matched, totals)
    )
    brevity = min(1.0, math.exp(1.0 - ref_length / hyp_length)) if hyp_length else 0.0
    if any(p == 0.0 for p in precisions):
        score = 0.0
    else:
        score = 100.0 * brevity * math.exp(
            sum(math.log(p) for p in precisions) / MAX_ORDER
        )
    return BleuReport(
        score=score,
        precisions=precisions,
        brevity_penalty=brevity,
        hyp_length=hyp_length,
        ref_length=ref_length,
    )
