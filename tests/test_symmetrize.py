"""Intersection symmetrization and lexicon extraction."""

import random

import pytest

from lexali import symmetrize
from lexali.corpus import ParallelCorpus
from lexali.errors import AlignmentError
from lexali.model1 import DirectionalAlignment
from oracles import intersect_oracle, lexicon_oracle


def alignment(links, conditioning_length):
    return DirectionalAlignment(
        links=tuple(links), conditioning_length=conditioning_length
    )


def random_direction(rng, emitted_length, conditioning_length):
    links = tuple(
        rng.choice([None] + list(range(conditioning_length)))
        for _ in range(emitted_length)
    )
    return alignment(links, conditioning_length)


def test_reciprocal_links_survive():
    t2s = alignment((0, 1, None), conditioning_length=2)
    s2t = alignment((0, 1), conditioning_length=3)
    assert symmetrize.intersect(t2s, s2t) == {(0, 0), (1, 1)}


def test_disagreeing_links_drop():
    # target 0 points at source 1; source 1 points back at target 0
    t2s = alignment((1, None), conditioning_length=2)
    s2t = alignment((None, 0), conditioning_length=2)
    assert symmetrize.intersect(t2s, s2t) == {(1, 0)}


def test_empty_when_no_agreement():
    t2s = alignment((0,), conditioning_length=1)
    s2t = alignment((None,), conditioning_length=1)
    assert symmetrize.intersect(t2s, s2t) == frozenset()


def test_length_consistency_enforced():
    t2s = alignment((0, 1), conditioning_length=2)
    s2t = alignment((0,), conditioning_length=2)
    with pytest.raises(AlignmentError):
        symmetrize.intersect(t2s, s2t)
    s2t = alignment((0, 1), conditioning_length=3)
    with pytest.raises(AlignmentError):
        symmetrize.intersect(t2s, s2t)


def test_fuzzed_equals_naive_set_intersection_and_is_one_to_one():
    rng = random.Random(23)
    for _ in range(300):
        src_len = rng.randint(1, 7)
        tgt_len = rng.randint(1, 7)
        t2s = random_direction(rng, tgt_len, src_len)
        s2t = random_direction(rng, src_len, tgt_len)
        links = symmetrize.intersect(t2s, s2t)
        assert links == intersect_oracle(t2s.links, s2t.links)
        sources = [i for i, _ in links]
        targets = [j for _, j in links]
        assert len(set(sources)) == len(sources)
        assert len(set(targets)) == len(targets)


def test_swapping_directions_transposes_the_result():
    rng = random.Random(31)
    for _ in range(100):
        src_len = rng.randint(1, 6)
        tgt_len = rng.randint(1, 6)
        t2s = random_direction(rng, tgt_len, src_len)
        s2t = random_direction(rng, src_len, tgt_len)
        forward = symmetrize.intersect(t2s, s2t)
        swapped = symmetrize.intersect(s2t, t2s)
        assert swapped == {(j, i) for i, j in forward}


class TestLexicon:
    def corpus(self):
        return ParallelCorpus(
            pairs=(
                (("haus", "alt"), ("house", "old")),
                (("haus",), ("home",)),
                (("haus",), ("house",)),
            )
        )

    def test_most_frequent_target_wins(self):
        alignments = [
            frozenset({(0, 0), (1, 1)}),
            frozenset({(0, 0)}),
            frozenset({(0, 0)}),
        ]
        lexicon = symmetrize.extract_lexicon(self.corpus(), alignments)
        assert lexicon.entries["haus"] == ("house", 2)
        assert lexicon.entries["alt"] == ("old", 1)
        assert lexicon.total_links == 4
        assert lexicon.translate("haus") == "house"
        assert lexicon.translate("unbekannt") is None

    def test_tie_breaks_to_lexicographically_smallest(self):
        corpus = ParallelCorpus(
            pairs=(
                (("a",), ("zebra",)),
                (("a",), ("apple",)),
            )
        )
        alignments = [frozenset({(0, 0)}), frozenset({(0, 0)})]
        lexicon = symmetrize.extract_lexicon(corpus, alignments)
        assert lexicon.entries["a"] == ("apple", 1)

    def test_fuzzed_matches_brute_force(self):
        rng = random.Random(41)
        for _ in range(100):
            pairs = []
            alignments = []
            for _ in range(rng.randint(1, 6)):
                src = tuple(rng.choice("abcd") for _ in range(rng.randint(1, 5)))
                tgt = tuple(rng.choice("wxyz") for _ in range(rng.randint(1, 5)))
                pairs.append((src, tgt))
                links = {
                    (rng.randrange(len(src)), rng.randrange(len(tgt)))
                    for _ in range(rng.randint(0, 4))
                }
                alignments.append(frozenset(links))
            corpus = ParallelCorpus(pairs=tuple(pairs))
            lexicon = symmetrize.extract_lexicon(corpus, alignments)
            assert lexicon.entries == lexicon_oracle(pairs, alignments)
            assert lexicon.total_links == sum(len(a) for a in alignments)

    def test_count_mismatch_rejected(self):
        with pytest.raises(AlignmentError):
            symmetrize.extract_lexicon(self.corpus(), [frozenset()])

    def test_out_of_range_positions_rejected(self):
        corpus = ParallelCorpus(pairs=((("a",), ("x",)),))
        with pytest.raises(AlignmentError):
            symmetrize.extract_lexicon(corpus, [frozenset({(1, 0)})])
        with pytest.raises(AlignmentError):
            symmetrize.extract_lexicon(corpus, [frozenset({(0, 9)})])


def test_links_file_round_trip(tmp_path):
    alignments = [frozenset({(1, 0), (0, 1)}), frozenset()]
    path = tmp_path / "links.txt"
    symmetrize.write_links(alignments, path)
    assert path.read_text(encoding="utf-8") == "0-1 1-0\n\n"
    assert symmetrize.read_links(path) == alignments


@pytest.mark.parametrize(
    "line, position",
    [("0-0 0-1", "source position 0"), ("0-1 1-1", "target position 1"),
     ("1-0 1-0", "source position 1")],
)
def test_links_file_repeated_position_rejected(tmp_path, line, position):
    path = tmp_path / "links.txt"
    path.write_text(f"0-0\n{line}\n", encoding="utf-8")
    with pytest.raises(AlignmentError, match=rf"links\.txt:2: {position} linked twice"):
        symmetrize.read_links(path)


def test_lexicon_file_round_trip(tmp_path):
    lexicon = symmetrize.BilingualLexicon(
        entries={"haus": ("house", 2), "alt": ("old", 1)}, total_links=3
    )
    path = tmp_path / "lexicon.tsv"
    symmetrize.write_lexicon(lexicon, path)
    assert path.read_text(encoding="utf-8") == "alt\told\t1\nhaus\thouse\t2\n"
    loaded = symmetrize.read_lexicon(path)
    assert loaded.entries == lexicon.entries
    assert loaded.total_links == 3


@pytest.mark.parametrize(
    ("line", "message"),
    [("buch\tbook\tnotanint", "count 'notanint' is not a non-negative integer"),
     ("buch\tbook\t-1", "count '-1' is not a non-negative integer"),
     ("haus\tZZZ\t1", "source word 'haus' listed twice"),
     ("buch\t\t1", "empty source or target word"),
     ("\tbook\t2", "empty source or target word")],
    ids=["non-integer", "negative", "repeated", "empty-target", "empty-source"],
)
def test_lexicon_file_bad_line_rejected(tmp_path, line, message):
    path = tmp_path / "lexicon.tsv"
    path.write_text(f"haus\thouse\t2\n{line}\n", encoding="utf-8")
    with pytest.raises(AlignmentError, match=rf"lexicon\.tsv:2: {message}"):
        symmetrize.read_lexicon(path)
