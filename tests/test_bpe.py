"""Byte-pair encoding: learning, application, undo, file round trips."""

import random
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lexali import bpe
from lexali.errors import SegmentationError
from oracles import bpe_apply_oracle, bpe_learn_oracle

WORD = st.text(alphabet="abcde", min_size=1, max_size=10)


@st.composite
def _learn_cases(draw):
    alphabet = "abcd"[: draw(st.integers(2, 4))]
    vocab = draw(
        st.dictionaries(
            st.text(alphabet, min_size=1, max_size=8),
            st.integers(1, 9),
            min_size=1,
            max_size=8,
        )
    )
    # every merge shortens some word, so this many merges runs past the end
    exhausted = sum(len(word) - 1 for word in vocab) + 1
    return vocab, draw(st.integers(0, exhausted))


LEARN_CASES = _learn_cases()


def low_lower_table():
    return bpe.learn_bpe({"low": 5, "lower": 2}, 10)


class TestLearn:
    def test_fixture_merge_order(self):
        """Hand-derived order: (l,o) wins its count-7 tie against (o,w)
        lexicographically, and learning exhausts after four merges."""
        table = low_lower_table()
        assert table.merges == (
            ("l", "o"),
            ("lo", "w"),
            ("e", "r"),
            ("low", "er"),
        )

    def test_min_pair_count_stops_learning(self):
        # every pair occurs once, below the threshold of 2
        assert bpe.learn_bpe({"ab": 1, "cd": 1}, 10).merges == ()

    def test_single_character_words_give_empty_table(self):
        assert bpe.learn_bpe({"a": 9, "b": 4}, 5).merges == ()

    def test_sentinel_never_merges(self):
        table = bpe.learn_bpe({"ab": 10}, 50)
        for left, right in table.merges:
            assert bpe.WORD_END not in (left, right)
        assert table.merges == (("a", "b"),)

    def test_zero_merges_allowed(self):
        assert bpe.learn_bpe({"abc": 3}, 0).merges == ()

    @given(LEARN_CASES)
    @example(({"aaaa": 3, "aaa": 2}, 10))  # overlapping repeats
    @example(({"abab": 3, "bab": 2}, 10))  # alternating pairs
    @example(({"xabx": 2, "ab": 3}, 10))  # (a, b) makes (x, ab) and (ab, x)
    @example(({"ab": 2, "cd": 2}, 10))  # two pairs tied on count
    @example(({"ba": 3, "ab": 3}, 1))  # tied, the larger pair seen first
    def test_matches_brute_force_learner(self, case):
        vocab, merges = case
        assert (
            bpe.learn_bpe(vocab, merges).merges
            == tuple(bpe_learn_oracle(vocab, merges))
        )


class TestApply:
    def test_full_merge_reassembles_known_word(self):
        assert bpe.split_word("lower", low_lower_table()) == ["lower"]

    def test_partial_merge_marks_continuations(self):
        assert bpe.split_word("lowest", low_lower_table()) == [
            "low@@",
            "e@@",
            "s@@",
            "t",
        ]

    def test_unknown_characters_stay_single(self):
        assert bpe.split_word("xy", low_lower_table()) == ["x@@", "y"]

    def test_apply_sentence_token_count_never_decreases(self):
        table = low_lower_table()
        sentence = ("low", "lower", "lowest")
        out = bpe.make_segmenter(table)(sentence)
        assert len(out) >= len(sentence)
        assert out == ("low", "lower", "low@@", "e@@", "s@@", "t")

    def test_empty_sentence(self):
        assert bpe.make_segmenter(low_lower_table())(()) == ()

    def test_vocabulary_constrained_split_reverts_merges(self):
        table = bpe.MergeTable((("a", "b"), ("ab", "c")))
        assert bpe.split_word("abc", table) == ["abc"]
        assert bpe.split_word("abc", table, vocab={"ab@@": 5, "c": 5}) == [
            "ab@@",
            "c",
        ]
        # nothing rendered is in vocabulary: fall back to characters
        assert bpe.split_word("abc", table, vocab={}) == ["a@@", "b@@", "c"]

    def test_vocabulary_threshold(self):
        table = bpe.MergeTable((("a", "b"), ("ab", "c")))
        vocab = {"abc": 1, "ab@@": 3, "c": 3}
        assert bpe.split_word("abc", table, vocab=vocab, threshold=2) == [
            "ab@@",
            "c",
        ]
        assert bpe.split_word("abc", table, vocab=vocab, threshold=1) == ["abc"]

    def test_matches_rescan_oracle(self):
        rng = random.Random(29)
        for _ in range(200):
            vocab = {
                "".join(
                    rng.choice("abc") for _ in range(rng.randint(1, 7))
                ): rng.randint(1, 9)
                for _ in range(rng.randint(1, 6))
            }
            table = bpe.learn_bpe(vocab, rng.randint(0, 10))
            word = "".join(rng.choice("abcd") for _ in range(rng.randint(1, 9)))
            assert bpe.split_word(word, table) == bpe_apply_oracle(
                word, table.merges
            )

    def test_segmenter_cache_equals_direct_application(self):
        table = low_lower_table()
        segment = bpe.make_segmenter(table)
        sentence = ("lower", "low", "lower")
        direct = [p for word in sentence for p in bpe.split_word(word, table)]
        assert segment(sentence) == tuple(direct)

    def test_duplicate_merge_pair_rejected(self):
        with pytest.raises(SegmentationError):
            bpe.MergeTable((("a", "b"), ("a", "b")))


class TestUndo:
    def test_rejoins_pieces(self):
        assert bpe.undo_bpe(("low@@", "er", "low")) == ("lower", "low")

    def test_trailing_continuation_raises(self):
        with pytest.raises(SegmentationError):
            bpe.undo_bpe(("low@@",))

    def test_empty(self):
        assert bpe.undo_bpe(()) == ()

    @given(sentence=st.lists(WORD, min_size=0, max_size=6).map(tuple))
    def test_round_trip_plain(self, sentence):
        table = low_lower_table()
        assert bpe.undo_bpe(bpe.make_segmenter(table)(sentence)) == sentence

    @given(
        vocab=st.dictionaries(WORD, st.integers(1, 9), min_size=1, max_size=6),
        merges=st.integers(0, 10),
        sentence=st.lists(WORD, min_size=0, max_size=6).map(tuple),
    )
    def test_round_trip_learned_tables(self, vocab, merges, sentence):
        table = bpe.learn_bpe(vocab, merges)
        assert bpe.undo_bpe(bpe.make_segmenter(table)(sentence)) == sentence

    @given(
        vocab=st.dictionaries(WORD, st.integers(1, 9), min_size=1, max_size=6),
        sentence=st.lists(WORD, min_size=0, max_size=6).map(tuple),
        threshold=st.integers(1, 3),
    )
    def test_round_trip_with_vocabulary(self, vocab, sentence, threshold):
        """Constrained application reverts merges but still rejoins."""
        table = bpe.learn_bpe(vocab, 10)
        subword_vocab = {}
        for word in vocab:
            for piece in bpe.split_word(word, table):
                subword_vocab[piece] = subword_vocab.get(piece, 0) + 1
        out = bpe.make_segmenter(table, subword_vocab, threshold)(sentence)
        assert bpe.undo_bpe(out) == sentence


def test_merge_file_round_trip(tmp_path):
    table = low_lower_table()
    path = tmp_path / "merges.txt"
    bpe.write_merges(table, path)
    text = path.read_text(encoding="utf-8")
    assert text.startswith("#version")
    assert "l o\n" in text
    assert bpe.read_merges(path).merges == table.merges


HEADER = "#version: lexali-bpe 1"


def test_merge_file_bad_line(tmp_path):
    path = tmp_path / "merges.txt"
    path.write_text(f"{HEADER}\na b c\n", encoding="utf-8")
    with pytest.raises(SegmentationError, match=r"merges\.txt:2: expected 'left right'"):
        bpe.read_merges(path)


@pytest.mark.parametrize(
    ("text", "message"),
    [("a b\nc\n", r"merges\.txt:1: expected '#version: lexali-bpe 1'"),
     (f"{HEADER}\na b\nc d\na b\n", r"merges\.txt:4: merge 'a b' listed twice"),
     (f"{HEADER}\n b\n", r"merges\.txt:2: empty symbol in ' b'"),
     (f"{HEADER}\r\na b\r\n", r"merges\.txt:1: expected '#version: lexali-bpe 1'"),
     (f"{HEADER}\na b\r\n", r"merges\.txt:2: whitespace in a symbol in 'a b\\r'"),
     # a subword-nmt codes file: its own header, and symbols ending in </w>
     ("#version: 0.2\nd a\nda s</w>\n", r"merges\.txt:1: expected '#version: lexali-bpe 1'"),
     (f"{HEADER}\nd a\nda s</w>\n", r"merges\.txt:3: reserved angle bracket in 'da s</w>'"),
     ("", r"merges\.txt:1: expected '#version: lexali-bpe 1'")],
    ids=["missing-header", "repeated", "empty-symbol", "crlf", "cr-in-symbol",
         "subword-nmt", "angle-bracket", "empty-file"],
)
def test_merge_file_line_rejected(tmp_path, text, message):
    path = tmp_path / "merges.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(SegmentationError, match=message):
        bpe.read_merges(path)


# a merge symbol: non-empty, with no angle bracket and no character
# str.split() splits on
SYMBOL = st.text(
    st.characters(blacklist_characters="<>", blacklist_categories=("Cs",)),
    min_size=1, max_size=4,
).filter(lambda symbol: symbol.split() == [symbol])
# a line read_merges must reject anywhere after the header
BAD_MERGE_LINE = st.one_of(
    st.just(""),
    SYMBOL,
    st.tuples(SYMBOL, SYMBOL, SYMBOL).map(" ".join),
    st.tuples(SYMBOL, SYMBOL).map(lambda pair: f"{pair[0]} {pair[1]}\r"),
    st.tuples(SYMBOL, SYMBOL).map("\t".join),
    st.tuples(SYMBOL, SYMBOL, SYMBOL).map(lambda s: f"{s[0]}\t{s[1]} {s[2]}"),
    SYMBOL.map(lambda symbol: f" {symbol}"),
    SYMBOL.map(lambda symbol: f"{symbol} "),
    st.tuples(SYMBOL, st.sampled_from("<>")).map(lambda s: f"{s[0]} {s[0]}{s[1]}"),
)


@given(
    merges=st.lists(st.tuples(SYMBOL, SYMBOL), unique=True, max_size=8),
    line_index=st.integers(0, 8),
    bad_line=BAD_MERGE_LINE,
)
def test_merge_file_round_trip_and_bad_line(tmp_path_factory, merges, line_index, bad_line):
    table = bpe.MergeTable(tuple(merges))
    path = tmp_path_factory.mktemp("merges") / "bpe.merges"
    bpe.write_merges(table, path)
    assert bpe.read_merges(path) == table
    # bytes, not text: universal newlines would split a line holding "\r"
    lines = path.read_bytes().decode("utf-8").split("\n")[:-1]
    index = 1 + line_index % len(lines)
    lines.insert(index, bad_line)
    path.write_bytes("".join(line + "\n" for line in lines).encode("utf-8"))
    with pytest.raises(SegmentationError, match=re.escape(f"{path}:{index + 1}: ")):
        bpe.read_merges(path)
