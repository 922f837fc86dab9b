"""Minimum Bayes risk consensus over a candidate pool.

Every candidate is scored by its average utility against the whole pool
(itself included) and the highest-scoring candidate wins, ties going to the
smallest index. Three utilities are available, all symmetric in spirit but
used directionally as u(hypothesis, reference):

``chrf``
    Character n-gram F-score over the space-joined sentence, orders 1 to 6,
    beta = 2 (recall weighted four times precision). Precision averages the
    orders the hypothesis string is long enough to have, recall the orders
    the reference supports, so u(x, x) = 1 holds for arbitrarily short
    strings and strings with disjoint characters score 0.
``sentence_bleu``
    Token n-gram precision up to order 4, add-one smoothed per order as
    (matches + 1) / (total + 1), geometric mean, times the brevity penalty
    min(1, exp(1 - |ref| / |hyp|)).
``exact_match``
    1.0 on token-for-token equality, else 0.0.

Every utility returns 1.0 when both sides are empty and 0.0 when exactly
one side is empty. That rule lives in ``utility`` and ``expected_utilities``
alone, so the chrF and sentence BLEU scorers only see non-empty candidates.

Scoring a pool builds one profile per distinct candidate (for chrF the
character n-grams of orders 1 to min(6, length) of the joined text, for
sentence BLEU the token n-grams of orders 1 to 4, both from
``bleu.ngram_counts``: per order a ``set`` when no n-gram repeats, else a
``Counter``, with unigrams keyed by the item itself) and scores each
unordered pair of different distinct candidates once. The clipped overlap,
a sum of min counts, is the same in both directions, so one overlap per
order yields u(a, b) and u(b, a): a's chrF precision terms are b's recall
terms, and sentence BLEU shares the matched counts while each side keeps
its own totals and brevity. The floats are those of scoring every ordered
pair on its own: each order's precision is one int-by-int division, the
per-order terms are added left to right in a loop (the built-in ``sum``
compensates float sums on Python 3.12+, which would round differently
there), and each pool row adds its utilities one by one in pool order,
duplicates included, before dividing by the pool size.

A candidate's utility against itself is set to 1.0 without scoring, which
is exactly the float scoring gives. Exact match is 1.0 on equality by
definition, and an empty candidate against itself is the both-empty case.
Under chrF a text's clipped overlap with itself is, per order, its own
n-gram count n - k, so every precision and recall term is (n - k) / (n - k)
= 1.0, each mean is K / K = 1.0 for K orders, and F(1, 1) = 5.0 / 5.0.
Under sentence BLEU every order's matches equal its total t, so each
smoothed term is (t + 1) / (t + 1) = 1.0, the log sum is 0.0, the geometric
mean exp(0.0) = 1.0, and the brevity penalty min(1, exp(1 - n / n)) = 1.0.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from typing import Literal

from .bleu import clipped_matches, ngram_counts
from .corpus import Sentence

UtilityKind = Literal["chrf", "sentence_bleu", "exact_match"]

CHRF_MAX_ORDER = 6
CHRF_BETA = 2.0
BLEU_MAX_ORDER = 4

# (length, n-gram profile): the length is that of the joined text for chrF
# and the token count for sentence BLEU
Profile = tuple[int, list]


def _chrf_profile(sentence: Sentence) -> Profile:
    text = " ".join(sentence)
    return len(text), ngram_counts(text, CHRF_MAX_ORDER)


def _f_score(precision: float, recall: float) -> float:
    beta_sq = CHRF_BETA * CHRF_BETA
    denom = beta_sq * precision + recall
    if denom == 0.0:
        return 0.0
    return (1.0 + beta_sq) * precision * recall / denom


def _chrf_pair(a: Profile, b: Profile) -> tuple[float, float]:
    """(u(a, b), u(b, a)) under chrF."""
    (a_length, a_grams), (b_length, b_grams) = a, b
    matched = clipped_matches(a_grams, b_grams, CHRF_MAX_ORDER)
    # order k + 1 of a text of length n has n - k n-grams
    a_sum = b_sum = 0.0
    for k in range(len(a_grams)):
        a_sum += matched[k] / (a_length - k)
    for k in range(len(b_grams)):
        b_sum += matched[k] / (b_length - k)
    a_mean = a_sum / len(a_grams)
    b_mean = b_sum / len(b_grams)
    return _f_score(a_mean, b_mean), _f_score(b_mean, a_mean)


def _sbleu_profile(sentence: Sentence) -> Profile:
    return len(sentence), ngram_counts(sentence, BLEU_MAX_ORDER)


def _sbleu(matched: list[int], hyp_length: int, ref_length: int) -> float:
    log_sum = 0.0
    for k in range(BLEU_MAX_ORDER):
        total = max(0, hyp_length - k)
        log_sum += math.log((matched[k] + 1) / (total + 1))
    geo_mean = math.exp(log_sum / BLEU_MAX_ORDER)
    brevity = min(1.0, math.exp(1.0 - ref_length / hyp_length))
    return brevity * geo_mean


def _sbleu_pair(a: Profile, b: Profile) -> tuple[float, float]:
    """(u(a, b), u(b, a)) under smoothed sentence BLEU."""
    (a_length, a_grams), (b_length, b_grams) = a, b
    matched = clipped_matches(a_grams, b_grams, BLEU_MAX_ORDER)
    return _sbleu(matched, a_length, b_length), _sbleu(matched, b_length, a_length)


def _exact_pair(a: Sentence, b: Sentence) -> tuple[float, float]:
    value = 1.0 if a == b else 0.0
    return value, value


_UTILITIES: dict[str, tuple[Callable, Callable]] = {
    "chrf": (_chrf_profile, _chrf_pair),
    "sentence_bleu": (_sbleu_profile, _sbleu_pair),
    "exact_match": (tuple, _exact_pair),
}


def utility(hyp: Sentence, ref: Sentence, kind: UtilityKind) -> float:
    if not (hyp and ref):
        return 0.0 if hyp or ref else 1.0
    profile, pair = _UTILITIES[kind]
    return pair(profile(hyp), profile(ref))[0]


def expected_utilities(
    pool: Sequence[Sentence], kind: UtilityKind
) -> list[float]:
    """Average utility of each candidate against the whole pool, self included."""
    profile, pair = _UTILITIES[kind]
    # pools are tiny and often repetitive: score distinct candidates only
    ids: dict[Sentence, int] = {}
    pool_ids = [ids.setdefault(tuple(candidate), len(ids)) for candidate in pool]
    # u(x, x) = 1.0 exactly under every utility, and an empty candidate
    # keeps 0.0 against every other: see the module docstring
    profiles = [(i, profile(candidate)) for i, candidate in enumerate(ids) if candidate]
    table = [[0.0] * len(ids) for _ in ids]
    for n, (i, a) in enumerate(profiles):
        for j, b in profiles[n + 1:]:
            table[i][j], table[j][i] = pair(a, b)
    for i, row in enumerate(table):
        row[i] = 1.0
    scores = []
    for i in pool_ids:
        row = table[i]
        total = 0.0
        for j in pool_ids:
            total += row[j]
        scores.append(total / len(pool))
    return scores


def best_index(scores: Sequence[float]) -> int:
    """Index of the highest score; the first of ties wins."""
    return scores.index(max(scores))

