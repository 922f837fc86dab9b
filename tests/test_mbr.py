"""Utility functions and expected-utility consensus selection."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexali import mbr
from oracles import (
    chrf_loop_oracle,
    chrf_oracle,
    exact_oracle,
    expected_utilities_loop_oracle,
    mbr_oracle,
    sbleu_loop_oracle,
    sbleu_oracle,
)

KINDS = ("chrf", "sentence_bleu", "exact_match")

ORACLES = {
    "chrf": chrf_oracle,
    "sentence_bleu": sbleu_oracle,
    "exact_match": exact_oracle,
}

LOOP_ORACLES = {
    "chrf": chrf_loop_oracle,
    "sentence_bleu": sbleu_loop_oracle,
    "exact_match": exact_oracle,
}

# up to 7 tokens from a small vocabulary: empty sentences, texts shorter
# than 6 characters, sentences shorter than 4 tokens and shared n-grams of
# every order all occur
SENTENCES = st.lists(
    st.sampled_from(["a", "b", "ab", "ba", "abc", "the"]), max_size=7
).map(tuple)


@st.composite
def pools(draw):
    """1 to 8 candidates drawn from at most 4 distinct sentences, so most
    pools repeat a candidate."""
    distinct = draw(st.lists(SENTENCES, min_size=1, max_size=4))
    picks = draw(
        st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=8)
    )
    return [distinct[i] for i in picks]

# chrF for hyp "the cat" vs ref "the cat sat": all precisions are 1, the
# recalls are (7/11, 6/10, 5/9, 4/8, 3/7, 2/6); frozen from the reference
# implementation
CHRF_THE_CAT = 0.5643978387373788


def random_sentence(rng, max_len=4):
    return tuple(
        "".join(rng.choice("ab") for _ in range(rng.randint(1, 3)))
        for _ in range(rng.randint(0, max_len))
    )


class TestUtilities:
    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=150, deadline=None)
    @given(pool=pools())
    @example(pool=[(), ("a",), ("the", "cat"), ("x", "y", "z"), ("a", "a", "a", "a", "a")])
    def test_identity_is_one(self, kind, pool):
        # exactly 1.0, the value expected_utilities sets without scoring
        for sentence in pool:
            assert mbr.utility(sentence, sentence, kind) == 1.0
            assert LOOP_ORACLES[kind](sentence, sentence) == 1.0

    @pytest.mark.parametrize("kind", KINDS)
    def test_empty_conventions(self, kind):
        assert mbr.utility((), (), kind) == 1.0
        assert mbr.utility((), ("a",), kind) == 0.0
        assert mbr.utility(("a",), (), kind) == 0.0

    def test_chrf_disjoint_characters_zero(self):
        assert mbr.utility(("abc",), ("xyz",), "chrf") == 0.0
        assert mbr.utility(("a",), ("b",), "chrf") == 0.0

    def test_chrf_frozen_value(self):
        hyp, ref = ("the", "cat"), ("the", "cat", "sat")
        assert mbr.utility(hyp, ref, "chrf") == pytest.approx(CHRF_THE_CAT, abs=1e-6)
        assert mbr.utility(hyp, ref, "chrf") == pytest.approx(
            chrf_oracle(hyp, ref), abs=1e-6
        )

    def test_chrf_short_string_identity(self):
        # fewer than 6 characters: only the supported orders are averaged
        assert mbr.utility(("ab",), ("ab",), "chrf") == 1.0

    def test_sentence_bleu_brevity_only_case(self):
        # all smoothed precisions are 1, leaving just the brevity penalty
        value = mbr.utility(("the", "cat"), ("the", "cat", "sat"), "sentence_bleu")
        assert value == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_sentence_bleu_clipping(self):
        value = mbr.utility(("the", "the"), ("the",), "sentence_bleu")
        expected = math.exp((math.log(2 / 3) + math.log(1 / 2)) / 4)
        assert value == pytest.approx(expected, abs=1e-12)

    def test_exact_match(self):
        assert mbr.utility(("a", "b"), ("a", "b"), "exact_match") == 1.0
        assert mbr.utility(("a", "b"), ("a",), "exact_match") == 0.0

    @pytest.mark.parametrize("kind", KINDS)
    def test_bounds_on_fuzzed_pairs(self, kind):
        rng = random.Random(55)
        for _ in range(200):
            hyp = random_sentence(rng)
            ref = random_sentence(rng)
            value = mbr.utility(hyp, ref, kind)
            assert 0.0 <= value <= 1.0

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_oracle_on_fuzzed_pairs(self, kind):
        rng = random.Random(56)
        for _ in range(200):
            hyp = random_sentence(rng)
            ref = random_sentence(rng)
            assert mbr.utility(hyp, ref, kind) == pytest.approx(
                ORACLES[kind](hyp, ref), abs=1e-9
            )


def select(pool, kind):
    """The consensus pick as ``lexali mbr`` makes it: index and tokens."""
    index = mbr.best_index(mbr.expected_utilities(pool, kind))
    return index, tuple(pool[index])


class TestSelection:
    def test_single_candidate(self):
        assert select([("a",)], "chrf") == (0, ("a",))

    def test_modal_candidate_wins_exact_match(self):
        pool = [("a", "b"), ("a", "b"), ("c",)]
        index, winner = select(pool, "exact_match")
        assert index == 0
        assert winner == ("a", "b")

    def test_tie_takes_smallest_index(self):
        pool = [("a",), ("b",)]
        index, _ = select(pool, "exact_match")
        assert index == 0

    def test_scores_bounded_and_winner_at_least_one_over_n(self):
        rng = random.Random(57)
        for kind in KINDS:
            for _ in range(50):
                pool = [random_sentence(rng) for _ in range(rng.randint(1, 6))]
                scores = mbr.expected_utilities(pool, kind)
                assert all(0.0 <= s <= 1.0 for s in scores)
                index, _ = select(pool, kind)
                assert scores[index] >= 1.0 / len(pool) - 1e-12

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_double_loop_oracle(self, kind):
        rng = random.Random(58)
        for _ in range(60):
            pool = [random_sentence(rng) for _ in range(rng.randint(1, 8))]
            index, winner = select(pool, kind)
            oracle_index, oracle_winner, oracle_scores = mbr_oracle(
                pool, ORACLES[kind]
            )
            assert index == oracle_index
            assert list(winner) == oracle_winner
            impl_scores = mbr.expected_utilities(pool, kind)
            for ours, theirs in zip(impl_scores, oracle_scores):
                assert ours == pytest.approx(theirs, abs=1e-9)

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=150, deadline=None)
    @given(pool=pools())
    @example(pool=[("a", "b"), (), ("a",), ("the", "a", "b", "ab", "ba"), ("a", "b")])
    def test_equals_loop_reference_exactly(self, kind, pool):
        scores = mbr.expected_utilities(pool, kind)
        assert scores == expected_utilities_loop_oracle(pool, LOOP_ORACLES[kind])
        for hyp in pool:
            assert mbr.utility(hyp, pool[0], kind) == LOOP_ORACLES[kind](hyp, pool[0])
            assert mbr.utility(pool[0], hyp, kind) == LOOP_ORACLES[kind](pool[0], hyp)

    def test_duplicating_the_winner_never_dethrones_it(self):
        rng = random.Random(59)
        for kind in KINDS:
            for _ in range(40):
                pool = [random_sentence(rng) for _ in range(rng.randint(1, 6))]
                _, winner = select(pool, kind)
                _, winner_after = select(pool + [winner], kind)
                assert winner_after == winner

    def test_shuffling_preserves_selected_string_on_unique_maximum(self):
        # "aa ab" dominates this pool under chrF; its score is unique
        pool = [("aa", "ab"), ("aa", "ab"), ("zz",)]
        _, winner = select(pool, "chrf")
        for shuffled in (
            [("zz",), ("aa", "ab"), ("aa", "ab")],
            [("aa", "ab"), ("zz",), ("aa", "ab")],
        ):
            _, other = select(shuffled, "chrf")
            assert other == winner
