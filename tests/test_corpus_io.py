"""Corpus file loading, validation and vocabulary counting."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lexali import corpus
from lexali.errors import CorpusFormatError
from oracles import tokenize_oracle

TOKEN = st.text(alphabet="abcdefgh", min_size=1, max_size=6)
SENTENCE = st.lists(TOKEN, min_size=1, max_size=8).map(tuple)


def test_load_parallel_basic(tmp_path):
    src = tmp_path / "s.txt"
    tgt = tmp_path / "t.txt"
    src.write_text("das haus\ndas buch\n", encoding="utf-8")
    tgt.write_text("the house\nthe book\n", encoding="utf-8")
    loaded = corpus.load_parallel(src, tgt)
    assert loaded.pairs == (
        (("das", "haus"), ("the", "house")),
        (("das", "buch"), ("the", "book")),
    )


def test_whitespace_collapses(tmp_path):
    src = tmp_path / "s.txt"
    tgt = tmp_path / "t.txt"
    src.write_text("  a \t b  \n", encoding="utf-8")
    tgt.write_text("x\n", encoding="utf-8")
    loaded = corpus.load_parallel(src, tgt)
    assert loaded.pairs[0][0] == ("a", "b")


def test_tokenization_matches_character_scan(tmp_path):
    """100 fuzzed spacing patterns agree with a char-scanning tokenizer."""
    rng = random.Random(7)
    words = ["ein", "kleiner", "test", "x", "yz"]
    separators = [" ", "  ", " \t ", "\t"]
    for _ in range(100):
        line = rng.choice(["", " ", "\t"])
        for _ in range(rng.randint(1, 6)):
            line += rng.choice(words) + rng.choice(separators)
        src = tmp_path / "s.txt"
        tgt = tmp_path / "t.txt"
        src.write_text(line + "\n", encoding="utf-8")
        tgt.write_text("x\n", encoding="utf-8")
        loaded = corpus.load_parallel(src, tgt)
        assert list(loaded.pairs[0][0]) == tokenize_oracle(line)


def test_empty_line_rejected_with_line_number(tmp_path):
    src = tmp_path / "s.txt"
    tgt = tmp_path / "t.txt"
    src.write_text("a\n\nb\n", encoding="utf-8")
    tgt.write_text("x\ny\nz\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match=r"s\.txt:2: empty line"):
        corpus.load_parallel(src, tgt)


def test_line_count_mismatch_names_both_counts(tmp_path):
    src = tmp_path / "s.txt"
    tgt = tmp_path / "t.txt"
    src.write_text("a\nb\nc\n", encoding="utf-8")
    tgt.write_text("x\ny\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError) as excinfo:
        corpus.load_parallel(src, tgt)
    assert "3" in str(excinfo.value) and "2" in str(excinfo.value)


def test_invalid_utf8_names_byte_offset(tmp_path):
    src = tmp_path / "s.txt"
    tgt = tmp_path / "t.txt"
    src.write_bytes(b"das haus\n\xffx\n")
    tgt.write_text("x\ny\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="byte offset 9"):
        corpus.load_parallel(src, tgt)


@pytest.mark.parametrize("bad", ["<lex>", "a<b", "x>", "<123>"])
def test_angle_bracket_tokens_rejected(tmp_path, bad):
    src = tmp_path / "s.txt"
    tgt = tmp_path / "t.txt"
    src.write_text(f"ok {bad} ok\n", encoding="utf-8")
    tgt.write_text("x\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match="reserved angle bracket"):
        corpus.load_parallel(src, tgt)


def test_missing_file_is_a_corpus_error(tmp_path):
    with pytest.raises(CorpusFormatError, match="cannot read"):
        corpus.load_sentences(tmp_path / "nope.txt")


@given(
    pairs=st.lists(st.tuples(SENTENCE, SENTENCE), min_size=1, max_size=12)
)
def test_write_load_round_trip(tmp_path_factory, pairs):
    tmp = tmp_path_factory.mktemp("corpus")
    original = corpus.ParallelCorpus(pairs=tuple(pairs))
    corpus.write_sentences([src for src, _ in pairs], tmp / "s.txt")
    corpus.write_sentences([tgt for _, tgt in pairs], tmp / "t.txt")
    assert corpus.load_parallel(tmp / "s.txt", tmp / "t.txt") == original


def test_read_sentences_allows_empty_lines(tmp_path):
    path = tmp_path / "cand.txt"
    path.write_text("a b\n\nc\n", encoding="utf-8")
    assert corpus.read_sentences(path) == [("a", "b"), (), ("c",)]


class TestVocab:
    def corpus(self):
        return corpus.ParallelCorpus(
            pairs=(
                (("a", "b", "a"), ("x",)),
                (("b", "c"), ("x", "y")),
            )
        )

    def test_counts(self):
        assert corpus.build_vocab(self.corpus(), "source") == {
            "a": 2,
            "b": 2,
            "c": 1,
        }
        assert corpus.build_vocab(self.corpus(), "target") == {"x": 2, "y": 1}

    def test_bad_side_rejected(self):
        with pytest.raises(ValueError):
            corpus.build_vocab(self.corpus(), "middle")

    def test_empty_corpus_rejected(self):
        empty = corpus.ParallelCorpus(pairs=())
        with pytest.raises(CorpusFormatError):
            corpus.build_vocab(empty, "source")

    def test_vocab_file_round_trip(self, tmp_path):
        vocab = {"low": 5, "er": 2, "aa": 2}
        corpus.write_vocab(vocab, tmp_path / "v.txt")
        # sorted by count desc, then token
        text = (tmp_path / "v.txt").read_text(encoding="utf-8")
        assert text == "low 5\naa 2\ner 2\n"

    def test_merge_counts(self):
        merged = corpus.merge_counts({"a": 1, "b": 2}, {"b": 3, "c": 4})
        assert merged == {"a": 1, "b": 5, "c": 4}
