"""Word-for-word (lex) and reordered (ali) sequence construction."""

import random

import pytest

from lexali.errors import LexaliError
from lexali.model1 import read_alignment_maps
from lexali.sequences import make_ali, make_lex
from lexali.symmetrize import BilingualLexicon


def lexicon(mapping):
    return BilingualLexicon(
        entries={src: (tgt, 1) for src, tgt in mapping.items()}
    )


def test_lex_translates_word_for_word():
    lx = lexicon({"das": "the", "haus": "house"})
    assert make_lex(("das", "haus"), lx) == ("the", "house")


def test_lex_copies_uncovered_words():
    lx = lexicon({"das": "the"})
    assert make_lex(("das", "qqq"), lx) == ("the", "qqq")


def test_lex_preserves_length_and_order():
    rng = random.Random(2)
    lx = lexicon({"a": "x", "b": "y"})
    for _ in range(50):
        source = tuple(rng.choice("abc") for _ in range(rng.randint(0, 8)))
        out = make_lex(source, lx)
        assert len(out) == len(source)
        for src_word, out_word in zip(source, out):
            assert out_word == {"a": "x", "b": "y"}.get(src_word, src_word)


def test_ali_reorders_along_links():
    # lex is source-ordered; the alignment walks target positions
    lex = ("the", "man", "reads")
    assert make_ali(lex, (0, 2, 1)) == ("the", "reads", "man")


def test_ali_skips_null_and_allows_duplicates():
    lex = ("A", "B")
    assert make_ali(lex, (1, 1, None, 0)) == ("B", "B", "A")


def test_ali_empty_when_everything_null():
    assert make_ali(("a", "b"), (None, None)) == ()


def test_ali_length_equals_non_null_count():
    rng = random.Random(9)
    for _ in range(100):
        src_len = rng.randint(1, 6)
        tgt_len = rng.randint(0, 6)
        lex = tuple(f"w{i}" for i in range(src_len))
        links = tuple(
            rng.choice([None] + list(range(src_len))) for _ in range(tgt_len)
        )
        out = make_ali(lex, links)
        assert len(out) == sum(1 for link in links if link is not None)
        # emitted in ascending target order
        assert list(out) == [lex[i] for i in links if i is not None]


def test_ali_link_range_checked_against_lex(tmp_path):
    # the ali stage reads its links with the lex length as the conditioning
    # bound, so a link past the lex sequence never reaches make_ali
    lex = ("a", "b")
    path = tmp_path / "align.txt"
    path.write_text("3-0\n", encoding="utf-8")
    with pytest.raises(LexaliError, match="link 3 out of range"):
        read_alignment_maps(path, [(len(lex), 1)])
