"""Corpus BLEU scoring."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexali.bleu import BleuReport, corpus_bleu
from lexali.errors import ScoringError
from oracles import corpus_bleu_loop_oracle, corpus_bleu_oracle

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


def test_structural_errors():
    with pytest.raises(ScoringError):
        corpus_bleu([("a",)], [("a",), ("b",)])
    with pytest.raises(ScoringError):
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
