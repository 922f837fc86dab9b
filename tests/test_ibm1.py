"""Model 1 training, Viterbi alignment, likelihood, table files."""

import math
import random
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lexali import model1
from lexali.corpus import ParallelCorpus
from lexali.errors import LexaliError
from heap import traced
from oracles import (
    em_loop_oracle,
    em_oracle,
    log_likelihood,
    viterbi_loop_oracle,
    write_table_loop_oracle,
)

TOY = ParallelCorpus(
    pairs=(
        (("das", "haus"), ("the", "house")),
        (("das", "buch"), ("the", "book")),
    )
)


def random_corpus(rng, sentences=8, vocab="abcdef", tvocab="uvwxyz"):
    pairs = []
    for _ in range(sentences):
        src = tuple(rng.choice(vocab) for _ in range(rng.randint(1, 5)))
        tgt = tuple(rng.choice(tvocab) for _ in range(rng.randint(1, 5)))
        pairs.append((src, tgt))
    return ParallelCorpus(pairs=tuple(pairs))


# one vocabulary for both sides, so words repeat inside a sentence and
# appear on both sides
SENTENCE = st.lists(st.sampled_from("abcde"), min_size=1, max_size=5).map(tuple)


@st.composite
def corpora(draw):
    """Random pairs plus one pair that has a repeated conditioning word, a
    one-word sentence and a word on both sides."""
    pairs = draw(st.lists(st.tuples(SENTENCE, SENTENCE), max_size=8))
    pairs.insert(draw(st.integers(0, len(pairs))), (("a", "b", "a"), ("a",)))
    return ParallelCorpus(pairs=tuple(pairs))


@st.composite
def hapax_corpora(draw):
    """Pairs over a wide vocabulary: most words are new, so seen once in the
    corpus, and most sentences hold two or more of them on each side, among
    the common words "a" and "b"."""
    counter = iter(range(10**6))
    # None stands for a word not drawn before
    slots = st.lists(st.sampled_from([None, None, None, "a", "b"]), min_size=2, max_size=6)

    def sentence():
        return tuple(f"w{next(counter)}" if w is None else w for w in draw(slots))

    return ParallelCorpus(pairs=tuple(
        (sentence(), sentence()) for _ in range(draw(st.integers(1, 6)))
    ))


def _pairs(*pairs):
    return ParallelCorpus(pairs=tuple((tuple(s.split()), tuple(t.split())) for s, t in pairs))


@st.composite
def tables(draw):
    """A table over words "a".."e" (and NULL, which may be missing) whose
    values come from a small pool shared by every row: ties across rows and
    within a row, zeros of both signs and empty rows all occur."""
    pool = draw(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, 0.5, 1.0, 5e-324]),
                st.floats(0.0, 1.0),
            ),
            min_size=1,
            max_size=4,
        )
    )
    words = st.sampled_from("abcde")
    rows = draw(
        st.dictionaries(
            st.one_of(words, st.just(model1.NULL_WORD)),
            st.dictionaries(words, st.sampled_from(pool), max_size=5),
            max_size=6,
        )
    )
    direction = draw(st.sampled_from([model1.TGT_TO_SRC, model1.SRC_TO_TGT]))
    return model1.TranslationTable(direction=direction, probs=rows)


class TestTraining:
    def test_toy_first_iteration_hand_values(self):
        """One E/M sweep on the two-pair corpus, derived by hand: das gets
        half of "the" and a quarter each of "house" and "book"."""
        table = model1.train_model1(TOY, "tgt_to_src", 1)
        das = table.probs["das"]
        assert das["the"] == pytest.approx(0.5, abs=1e-12)
        assert das["house"] == pytest.approx(0.25, abs=1e-12)
        assert das["book"] == pytest.approx(0.25, abs=1e-12)

    def test_toy_five_iterations_the_dominates(self):
        table = model1.train_model1(TOY, "tgt_to_src", 5)
        das = table.probs["das"]
        assert das["the"] > das["house"]
        assert das["the"] > das["book"]

    def test_single_pair_converges_to_certainty(self):
        """With one pair ("a","x") both conditioning words emit only "x",
        so after the M-step both rows are the point mass 1.0 (the 0.5 lives
        in the E-step posterior, not the renormalized table)."""
        pair = ParallelCorpus(pairs=((("a",), ("x",)),))
        table = model1.train_model1(pair, "tgt_to_src", 1)
        assert table.probs["a"]["x"] == 1.0
        assert table.probs[model1.NULL_WORD]["x"] == 1.0
        assert table.probs["a"]["x"] == table.probs[model1.NULL_WORD]["x"]

    def test_direction_orientation(self):
        # src_to_tgt conditions on target words and emits source words
        pair = ParallelCorpus(pairs=((("a", "b"), ("x",)),))
        table = model1.train_model1(pair, "src_to_tgt", 1)
        assert table.direction == "src_to_tgt"
        assert table.probs["x"]["a"] == pytest.approx(0.5, abs=1e-12)
        assert table.probs["x"]["b"] == pytest.approx(0.5, abs=1e-12)

    def test_rows_normalize_after_each_iteration(self):
        rng = random.Random(3)
        for _ in range(20):
            corpus = random_corpus(rng)
            for iterations in (1, 2, 3):
                table = model1.train_model1(corpus, "tgt_to_src", iterations)
                for word, row in table.probs.items():
                    assert sum(row.values()) == pytest.approx(1.0, abs=1e-9)
                    assert all(0.0 <= p <= 1.0 for p in row.values())

    def test_matches_matrix_oracle_per_iteration(self):
        oracle_lls, oracle_probs = em_oracle(list(TOY.pairs), 5)
        for k in range(1, 6):
            table = model1.train_model1(TOY, "tgt_to_src", k)
            assert log_likelihood(table, TOY) == pytest.approx(
                oracle_lls[k - 1], abs=1e-9
            )
        final = model1.train_model1(TOY, "tgt_to_src", 5)
        for word, row in oracle_probs.items():
            for emitted, prob in row.items():
                assert final.probs[word][emitted] == pytest.approx(
                    prob, abs=1e-9
                )

    @given(corpus=st.one_of(corpora(), hapax_corpora()))
    # in each example the target side holds a group of hapaxes (x, y, z):
    # a word seen twice between two members
    @example(corpus=_pairs(("a b", "x c y"), ("b", "c")))
    # a member at the sentence end
    @example(corpus=_pairs(("a b", "x y c z"), ("a", "c")))
    # a repeated conditioning word
    @example(corpus=_pairs(("a b a", "x y"), ("b", "c")))
    # a first token that is not a hapax
    @example(corpus=_pairs(("a", "c x y"), ("a b", "c")))
    # in the next examples the source side holds a row group of hapaxes
    # (x, y, z), which tgt_to_src conditions on: the group alone
    @example(corpus=_pairs(("x a y", "b c"), ("a", "b")))
    # a row group and a group of emitted hapaxes (u, v) in one pair
    @example(corpus=_pairs(("x a y", "b u c v"), ("a", "b c")))
    # a member next to a repeated conditioning word
    @example(corpus=_pairs(("a x a y", "b c"), ("a", "b")))
    # two members, one at the sentence end
    @example(corpus=_pairs(("a x b y z", "c d"), ("a b", "c")))
    def test_equals_loop_reference_exactly(self, corpus):
        for direction in (model1.TGT_TO_SRC, model1.SRC_TO_TGT):
            for k in range(1, 7):
                table = model1.train_model1(corpus, direction, k)
                assert table.probs == em_loop_oracle(corpus, direction, k)

    def test_row_group_members_get_equal_rows_of_their_own(self):
        """x, y and z are seen once, all in the first sentence pair: one row
        is trained for the three, and each gets its own copy."""
        corpus = _pairs(("x a y z", "b c"), ("a", "b"))
        table = model1.train_model1(corpus, model1.TGT_TO_SRC, 3)
        x, y, z = (table.probs[e] for e in "xyz")
        assert x == y == z == em_loop_oracle(corpus, model1.TGT_TO_SRC, 3)["x"]
        assert len({id(x), id(y), id(z)}) == 3

    def test_cell_whose_probability_reaches_zero_is_left_out(self):
        """One probability underflows to exactly 0.0 before the last
        iteration: tgt_to_src keeps 13 of its 14 co-occurring cells."""
        corpus = ParallelCorpus(
            pairs=(
                (tuple("cada"), tuple("yw")),
                (tuple("dbc"), tuple("zzw")),
                (tuple("bddb"), tuple("ywz")),
            )
        )
        for direction in (model1.TGT_TO_SRC, model1.SRC_TO_TGT):
            table = model1.train_model1(corpus, direction, 1500)
            assert table.probs == em_loop_oracle(corpus, direction, 1500)
            if direction == model1.TGT_TO_SRC:
                assert sum(map(len, table.probs.values())) == 13
                assert set(table.probs["c"]) == {"w", "z"}

    def test_peak_memory_is_a_small_multiple_of_the_table(self):
        """EM holds the layout, two float lists and each row's words at its
        peak; the table is built after the layout is freed. About 60k table
        entries, most of them hapaxes that share a group cell or a row group:
        the peak stays within 2.1 times the table's own size (1.89 on CPython
        3.11; 2.06 there with one row per conditioning hapax, 2.35 with also
        one cell per emitted hapax)."""
        rng = random.Random(0)

        def sentence(prefix):
            length = rng.randint(5, 30)
            return tuple(f"{prefix}{rng.randrange(3000)}" for _ in range(length))

        corpus = ParallelCorpus(
            pairs=tuple((sentence("s"), sentence("t")) for _ in range(200))
        )
        table, size, peak = traced(model1.train_model1, corpus, model1.TGT_TO_SRC, 5)
        assert sum(map(len, table.probs.values())) > 55_000
        assert peak / size <= 2.1

    def test_deterministic_bit_identical(self):
        rng = random.Random(5)
        corpus = random_corpus(rng, sentences=12)
        first = model1.train_model1(corpus, "tgt_to_src", 3)
        second = model1.train_model1(corpus, "tgt_to_src", 3)
        assert first.probs == second.probs

    def test_preconditions(self):
        with pytest.raises(LexaliError, match="^cannot train on an empty corpus$"):
            model1.train_model1(ParallelCorpus(pairs=()), "tgt_to_src", 1)


class TestViterbi:
    def table(self, probs):
        return model1.TranslationTable(direction="tgt_to_src", probs=probs)

    def test_dominant_entry_wins(self):
        table = model1.train_model1(TOY, "tgt_to_src", 5)
        # "the" goes to "das" at position 0, "house" to position 1
        assert model1.viterbi_align(table, TOY.pairs[0]) == (0, 1)

    def test_unseen_word_gets_null(self):
        table = self.table({"a": {"x": 1.0}})
        assert model1.viterbi_align(table, (("a",), ("zzz",))) == (None,)

    def test_positive_tie_prefers_smallest_index(self):
        table = self.table({"a": {"x": 0.4}, "b": {"x": 0.4}})
        assert model1.viterbi_align(table, (("a", "b"), ("x",))) == (0,)

    def test_null_loses_ties_to_real_positions(self):
        table = self.table({model1.NULL_WORD: {"x": 0.4}, "a": {"x": 0.4}})
        assert model1.viterbi_align(table, (("a",), ("x",))) == (0,)

    def test_null_wins_by_strict_majority(self):
        table = self.table({model1.NULL_WORD: {"x": 0.6}, "a": {"x": 0.4}})
        assert model1.viterbi_align(table, (("a",), ("x",))) == (None,)

    def test_src_to_tgt_aligns_source_positions(self):
        table = model1.TranslationTable(
            direction="src_to_tgt", probs={"x": {"a": 0.9, "b": 0.8}}
        )
        assert model1.viterbi_align(table, (("a", "b"), ("x",))) == (0, 0)

    def test_bijective_corpus_recovered(self):
        """A repeated bijection (a-x, b-y, c-z) is recovered exactly."""
        base = (
            (("a", "b"), ("x", "y")),
            (("b", "c"), ("y", "z")),
            (("c", "a"), ("z", "x")),
        )
        corpus = ParallelCorpus(pairs=base + base)
        table = model1.train_model1(corpus, "tgt_to_src", 5)
        for pair in corpus.pairs:
            assert model1.viterbi_align(table, pair) == (0, 1)


class TestAgainstLoopReferences:
    """``viterbi_align`` and ``write_table`` equal the loops that looked up
    every candidate in the table and formatted every value where it stood."""

    @given(
        table=tables(),
        pairs=st.lists(st.tuples(SENTENCE, SENTENCE), max_size=6),
    )
    # NULL ties a position, and two positions tie, on a positive value
    @example(
        table=model1.TranslationTable(
            direction=model1.TGT_TO_SRC,
            probs={model1.NULL_WORD: {"x": 0.5}, "a": {"x": 0.5}, "b": {"x": 0.5}},
        ),
        pairs=[(("a", "b"), ("x",)), (("b", "a", "c"), ("x", "y"))],
    )
    # one emitted word with different values in different rows
    @example(
        table=model1.TranslationTable(
            direction=model1.SRC_TO_TGT,
            probs={"a": {"x": 0.25, "y": 0.25}, "b": {"x": 0.75}, "c": {}},
        ),
        pairs=[(("x", "y"), ("b", "a"))],
    )
    # 0.0 and -0.0 are equal keys with different reprs
    @example(
        table=model1.TranslationTable(
            direction=model1.TGT_TO_SRC, probs={"a": {"x": 0.0, "y": -0.0}}
        ),
        pairs=[],
    )
    def test_random_tables(self, tmp_path_factory, table, pairs):
        for pair in pairs:
            assert model1.viterbi_align(table, pair) == viterbi_loop_oracle(
                table, pair
            )
        self.assert_same_file(tmp_path_factory, table)

    @given(corpus=corpora(), iterations=st.integers(1, 4))
    def test_trained_tables(self, tmp_path_factory, corpus, iterations):
        for direction in (model1.TGT_TO_SRC, model1.SRC_TO_TGT):
            table = model1.train_model1(corpus, direction, iterations)
            for pair in corpus.pairs:
                assert model1.viterbi_align(table, pair) == viterbi_loop_oracle(
                    table, pair
                )
            self.assert_same_file(tmp_path_factory, table)

    def assert_same_file(self, tmp_path_factory, table):
        folder = tmp_path_factory.mktemp("table")
        model1.write_table(table, folder / "table.txt")
        write_table_loop_oracle(table, folder / "oracle.txt")
        assert (folder / "table.txt").read_bytes() == (
            folder / "oracle.txt"
        ).read_bytes()


@given(corpus=corpora(), data=st.data())
def test_words_with_one_occurrence_profile_get_identical_probabilities(
    corpus, data
):
    """A twin put anywhere into every emitted sentence a word occurs in, as
    often as the word, gets the word's probability bit for bit in every
    row: the repetition ``write_table`` formats once."""
    direction = data.draw(st.sampled_from([model1.TGT_TO_SRC, model1.SRC_TO_TGT]))
    emitted_side = 1 if direction == model1.TGT_TO_SRC else 0
    pairs = [list(map(list, pair)) for pair in corpus.pairs]
    word = data.draw(
        st.sampled_from(sorted({w for pair in pairs for w in pair[emitted_side]}))
    )
    for pair in pairs:
        emitted = pair[emitted_side]
        for _ in range(emitted.count(word)):
            emitted.insert(data.draw(st.integers(0, len(emitted))), "twin")
    twinned = ParallelCorpus(pairs=tuple(tuple(map(tuple, pair)) for pair in pairs))
    iterations = data.draw(st.integers(1, 5))
    table = model1.train_model1(twinned, direction, iterations)
    for row in table.probs.values():
        assert (word in row) == ("twin" in row)
        if word in row:
            assert repr(row["twin"]) == repr(row[word])


class TestLikelihood:
    def test_closed_form_single_pair(self):
        """Table with t(x|a)=1 and no NULL mass: the uniform prior over
        the two conditioning slots gives exactly log(1/2)."""
        corpus = ParallelCorpus(pairs=((("a",), ("x",)),))
        table = model1.TranslationTable(
            direction="tgt_to_src", probs={"a": {"x": 1.0}}
        )
        assert log_likelihood(table, corpus) == pytest.approx(
            math.log(0.5), abs=1e-12
        )

    def test_non_decreasing_over_iterations(self):
        rng = random.Random(11)
        for _ in range(10):
            corpus = random_corpus(rng)
            previous = -math.inf
            for iterations in range(1, 6):
                table = model1.train_model1(corpus, "tgt_to_src", iterations)
                current = log_likelihood(table, corpus)
                assert current >= previous - 1e-9
                previous = current

    def test_trained_beats_random_table(self):
        rng = random.Random(17)
        trained = model1.train_model1(TOY, "tgt_to_src", 5)
        # random table over the same support, rows renormalized
        probs = {}
        for word, row in trained.probs.items():
            weights = {f: rng.random() + 1e-6 for f in row}
            total = sum(weights.values())
            probs[word] = {f: w / total for f, w in weights.items()}
        randomized = model1.TranslationTable(
            direction="tgt_to_src", probs=probs
        )
        assert log_likelihood(trained, TOY) >= log_likelihood(
            randomized, TOY
        )

    def test_floor_keeps_unseen_tokens_finite(self):
        corpus = ParallelCorpus(pairs=((("a",), ("zzz",)),))
        table = model1.TranslationTable(
            direction="tgt_to_src", probs={"a": {"x": 1.0}}
        )
        value = log_likelihood(table, corpus)
        assert value == pytest.approx(math.log(1e-12), abs=1e-9)


class TestFiles:
    def test_table_round_trip_is_bit_exact(self, tmp_path):
        table = model1.train_model1(TOY, "tgt_to_src", 3)
        path = tmp_path / "table.txt"
        model1.write_table(table, path)
        loaded = {}
        for line in path.read_text(encoding="utf-8").splitlines():
            conditioning, emitted, prob = line.split(" ")
            loaded.setdefault(conditioning, {})[emitted] = float(prob)
        assert loaded == table.probs

    def test_table_file_sorted(self, tmp_path):
        table = model1.TranslationTable(
            direction="tgt_to_src",
            probs={"b": {"y": 1.0}, "a": {"z": 0.5, "x": 0.5}},
        )
        path = tmp_path / "table.txt"
        model1.write_table(table, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines == ["a x 0.5", "a z 0.5", "b y 1.0"]

    def test_pharaoh_output_omits_null_and_leads_with_conditioning(
        self, tmp_path
    ):
        path = tmp_path / "align.txt"
        model1.write_alignments([(1, None, 0)], path)
        assert path.read_text(encoding="utf-8") == "1-0 0-2\n"
        assert model1.read_alignment_maps(path, [(2, 3)]) == [(1, None, 0)]

    def test_alignment_map_rebuild(self, tmp_path):
        path = tmp_path / "align.txt"
        path.write_text("1-0 0-2\n\n", encoding="utf-8")
        links = model1.read_alignment_maps(path, [(2, 3), (1, 2)])
        assert links == [(1, None, 0), (None, None)]

    def test_alignment_map_link_beyond_emitted_length_rejected(self, tmp_path):
        path = tmp_path / "align.txt"
        path.write_text("1-0 0-9\n", encoding="utf-8")
        pattern = rf"{re.escape(str(path))}:1: link to emitted position 9"
        with pytest.raises(LexaliError, match=pattern):
            model1.read_alignment_maps(path, [(2, 3)])

    def test_repeated_emitted_position_rejected(self, tmp_path):
        path = tmp_path / "align.txt"
        path.write_text("0-0\n0-1 2-1\n", encoding="utf-8")
        pattern = rf"{re.escape(str(path))}:2: .*position 1"
        with pytest.raises(LexaliError, match=pattern):
            model1.read_alignment_maps(path, [(1, 1), (3, 2)])

    def test_bad_link_cell(self, tmp_path):
        path = tmp_path / "align.txt"
        path.write_text("1-x\n", encoding="utf-8")
        message = f"{path}:1: bad link '1-x'"
        with pytest.raises(LexaliError, match=f"^{re.escape(message)}$"):
            model1.read_alignment_maps(path, [(2, 2)])

    def test_out_of_range_link_rejected(self, tmp_path):
        path = tmp_path / "align.txt"
        path.write_text("5-0\n", encoding="utf-8")
        message = f"{path}:1: link 5 out of range for conditioning length 2"
        with pytest.raises(LexaliError, match=re.escape(message)):
            model1.read_alignment_maps(path, [(2, 1)])
