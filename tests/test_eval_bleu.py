"""Corpus BLEU scoring."""

import math
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexali.bleu import BleuReport, clipped_matches, corpus_bleu, ngram_counts
from lexali.errors import LexaliError
from oracles import _clipped, _slice_counts, corpus_bleu_loop_oracle, corpus_bleu_oracle

LONG = [
    ("the", "cat", "sat", "on", "the", "mat"),
    ("a", "dog", "barked", "loudly"),
]


def test_identical_corpora_score_exactly_100():
    report = corpus_bleu(LONG, LONG)
    assert report.score == 100.0
    assert report.precisions == (1.0, 1.0, 1.0, 1.0)
    assert report.brevity_penalty == 1.0


def test_clipping_fixture():
    """hyp [the,the,the] vs ref [the,cat]: p1 clips to 1/3, no bigram
    match, so the score is 0 and BP stays 1 (the hypothesis is longer)."""
    report = corpus_bleu([("the", "the", "the")], [("the", "cat")])
    assert report.precisions[0] == pytest.approx(1 / 3, abs=0.01)
    assert report.precisions[1] == 0.0
    assert report.score == 0.0
    assert report.brevity_penalty == 1.0
    assert report.hyp_length == 3
    assert report.ref_length == 2


def test_appending_correct_pairs_keeps_100():
    hyps = list(LONG)
    refs = list(LONG)
    for _ in range(3):
        hyps.append(LONG[0])
        refs.append(LONG[0])
        assert corpus_bleu(hyps, refs).score == 100.0


def test_brevity_penalty_applies_to_short_hypotheses():
    hyp = [("the", "cat", "sat", "on")]
    ref = [("the", "cat", "sat", "on", "the", "mat")]
    report = corpus_bleu(hyp, ref)
    assert report.brevity_penalty == pytest.approx(math.exp(1 - 6 / 4))
    assert 0.0 < report.score < 100.0


def test_no_four_gram_denominator_zeroes_the_score():
    # every sentence shorter than 4 tokens: p4 has an empty denominator
    short = [("a", "b"), ("c",)]
    report = corpus_bleu(short, short)
    assert report.precisions[3] == 0.0
    assert report.score == 0.0


def test_empty_hypothesis_corpus_scores_zero():
    report = corpus_bleu([()], [("a", "b")])
    assert report.score == 0.0
    assert report.brevity_penalty == 0.0
    assert report.hyp_length == 0


def test_empty_corpus_rejected():
    with pytest.raises(LexaliError, match="^cannot score an empty corpus$"):
        corpus_bleu([], [])


def test_report_format():
    report = corpus_bleu(LONG, LONG)
    assert report.format() == "BLEU = 100.00 (100.0/100.0/100.0/100.0, BP=1.000)"


def test_fuzzed_corpora_match_independent_scorer():
    rng = random.Random(77)
    words = ["the", "a", "cat", "dog", "sat", "ran", "on", "mat"]
    for _ in range(150):
        n = rng.randint(1, 6)
        hyps = [
            tuple(rng.choice(words) for _ in range(rng.randint(1, 8)))
            for _ in range(n)
        ]
        refs = [
            tuple(rng.choice(words) for _ in range(rng.randint(1, 8)))
            for _ in range(n)
        ]
        report = corpus_bleu(hyps, refs)
        assert report.score == pytest.approx(
            corpus_bleu_oracle(hyps, refs), abs=0.01
        )
        assert 0.0 <= report.score <= 100.0


SENTENCES = st.lists(st.sampled_from(["a", "b", "c", "the"]), max_size=7).map(tuple)


@st.composite
def sentence_pairs(draw):
    hyp = draw(SENTENCES)
    ref = draw(st.one_of(st.just(hyp), SENTENCES, SENTENCES.map(lambda s: hyp + s)))
    return hyp, ref


@settings(max_examples=150, deadline=None)
@given(pairs=st.lists(sentence_pairs(), min_size=1, max_size=6))
def test_equals_loop_reference_exactly(pairs):
    hyps = [hyp for hyp, _ in pairs]
    refs = [ref for _, ref in pairs]
    assert corpus_bleu(hyps, refs) == BleuReport(*corpus_bleu_loop_oracle(hyps, refs))


PROFILE_ORDER = 6


@st.composite
def same_kind_pairs(draw):
    """Two strings or two token tuples over one alphabet of 1 to 3 symbols,
    so that each order meets sides that repeat an n-gram and sides that do
    not."""
    symbols = draw(st.sampled_from(["a", "ab", "abc"]))
    sides = [draw(st.lists(st.sampled_from(symbols), max_size=9)) for _ in range(2)]
    if draw(st.booleans()):
        return tuple("".join(side) for side in sides)
    return tuple(tuple(symbol * 2 for symbol in side) for side in sides)


def _oracle_profile(items):
    """Per order, the loop reference's slice counts keyed as ``ngram_counts``
    keys them: a unigram by its item, a longer n-gram by its item tuple."""
    return [
        Counter({(gram[0] if order == 1 else tuple(gram)): count
                 for gram, count in _slice_counts(items, order).items()})
        for order in range(1, min(PROFILE_ORDER, len(items)) + 1)
    ]


@settings(max_examples=300, deadline=None)
@given(pair=same_kind_pairs())
@example(pair=("aab", "aba"))  # both sides repeat at order 1
@example(pair=(("aa", "aa", "bb"), ("aa", "bb")))  # one side repeats at order 1
@example(pair=("ab", "ba"))  # neither side repeats
def test_profile_and_overlap_equal_slice_counts(pair):
    left, right = pair
    profiles = [ngram_counts(items, PROFILE_ORDER) for items in pair]
    oracles = [_oracle_profile(items) for items in pair]
    for profile, oracle in zip(profiles, oracles):
        assert len(profile) == len(oracle)
        for grams, counts in zip(profile, oracle):
            # a set exactly when no n-gram of the order repeats
            assert isinstance(grams, set) == (max(counts.values()) == 1)
            assert Counter(grams) == counts
    matches = clipped_matches(*profiles, PROFILE_ORDER)
    assert matches == clipped_matches(*reversed(profiles), PROFILE_ORDER)
    for order in range(1, PROFILE_ORDER + 1):
        expected = (
            _clipped(_slice_counts(left, order), _slice_counts(right, order))
            if order <= min(len(left), len(right)) else 0
        )
        assert matches[order - 1] == expected
