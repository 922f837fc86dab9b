"""Corpus-level BLEU over whitespace tokens, single reference.

Clipped n-gram matches and totals for orders 1 to 4 are aggregated over the
whole corpus before taking precisions. An order with an empty denominator
scores 0, and any zero precision zeroes the whole score (no smoothing at
corpus level). The brevity penalty is min(1, exp(1 - ref_len / hyp_len)),
and the log precisions are added left to right. Scores are on the 0-100
scale; identical corpora score exactly 100.0.

The n-gram profile of a sentence, shared with ``mbr``, holds per order a
``set`` when no n-gram repeats and a ``Counter`` when one does; unigrams
are keyed by the item itself, longer n-grams by tuples of items. When
either side of an order is a set the clipped overlap is the size of the
intersection, counted in C; only two repeating sides take the min loop.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Hashable, Sequence
from typing import NamedTuple

from .corpus import Sentence
from .errors import LexaliError

MAX_ORDER = 4


class BleuReport(NamedTuple):
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


def ngram_counts(items: Sequence[Hashable], max_order: int) -> list[set | Counter]:
    """Profile of the n-grams of orders 1 to min(max_order, len(items)).

    ``items`` is a token tuple or a string. A unigram is keyed by the item
    itself and a longer n-gram by the tuple of its n items; keys are only
    compared within one order. An order whose n-grams are all distinct is
    kept as a plain ``set``, every count being 1; an order with a repeat is
    a ``Counter``. The counts of order n sum to len(items) - n + 1.
    """
    top = min(max_order, len(items))
    shifted = [items[i:] for i in range(top)]
    profile: list[set | Counter] = []
    # equal n-grams start with equal (n - 1)-grams, so below the highest
    # order that repeats every order repeats: search from the top down
    repeats = False
    for order in range(top, 0, -1):
        if not repeats:
            grams = set(zip(*shifted[:order]) if order > 1 else items)
            repeats = len(grams) < len(items) - order + 1
        if repeats:
            grams = Counter(zip(*shifted[:order]) if order > 1 else items)
        profile.append(grams)
    profile.reverse()
    return profile


def clipped_matches(
    left: Sequence[set | Counter], right: Sequence[set | Counter], max_order: int
) -> list[int]:
    """Sum of min counts per order of two ``ngram_counts`` profiles, for
    orders 1 to max_order.

    ``min`` is symmetric, so one call serves both directions of a pair. When
    either side of an order is a set, every min is 1 on the shared n-grams
    and the overlap is the size of the intersection. An order missing from
    either profile matches nothing.
    """
    matches = [0] * max_order
    for k, (small, large) in enumerate(zip(left, right)):
        if type(large) is set:
            small, large = large, small
        if type(small) is set:
            matches[k] = len(small.intersection(large))
            continue
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
    if not hypotheses:
        raise LexaliError("cannot score an empty corpus")

    matched = [0] * MAX_ORDER
    totals = [0] * MAX_ORDER
    hyp_length = 0
    ref_length = 0
    for hyp, ref in zip(hypotheses, references, strict=True):
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
        log_sum = 0.0
        for p in precisions:
            log_sum += math.log(p)
        score = 100.0 * brevity * math.exp(log_sum / MAX_ORDER)
    return BleuReport(
        score=score,
        precisions=precisions,
        brevity_penalty=brevity,
        hyp_length=hyp_length,
        ref_length=ref_length,
    )
