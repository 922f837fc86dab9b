"""Intersection symmetrization, lexicon extraction, and the Pharaoh link
files both directions and the intersection are stored in."""

import random
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lexali import model1, symmetrize
from lexali.corpus import ParallelCorpus
from lexali.errors import AlignmentError
from oracles import intersect_oracle, lexicon_oracle


def random_links(rng, emitted_length, conditioning_length):
    """One directional alignment: per emitted position a link or None."""
    return tuple(
        rng.choice([None] + list(range(conditioning_length)))
        for _ in range(emitted_length)
    )


def as_map(links):
    return {j: i for j, i in enumerate(links) if i is not None}


def test_reciprocal_links_survive():
    assert symmetrize.intersect_maps({0: 0, 1: 1}, {0: 0, 1: 1}) == {(0, 0), (1, 1)}


def test_disagreeing_links_drop():
    # target 0 points at source 1 and source 1 back at target 0; source 0
    # points at target 1, which points nowhere
    assert symmetrize.intersect_maps({0: 1}, {0: 1, 1: 0}) == {(1, 0)}


def test_empty_when_no_agreement():
    assert symmetrize.intersect_maps({0: 0}, {}) == frozenset()


def test_fuzzed_equals_naive_set_intersection_and_is_one_to_one():
    rng = random.Random(23)
    for _ in range(300):
        src_len = rng.randint(1, 7)
        tgt_len = rng.randint(1, 7)
        t2s = random_links(rng, tgt_len, src_len)
        s2t = random_links(rng, src_len, tgt_len)
        links = symmetrize.intersect_maps(as_map(t2s), as_map(s2t))
        assert links == intersect_oracle(t2s, s2t)
        sources = [i for i, _ in links]
        targets = [j for _, j in links]
        assert len(set(sources)) == len(sources)
        assert len(set(targets)) == len(targets)


def test_swapping_directions_transposes_the_result():
    rng = random.Random(31)
    for _ in range(100):
        src_len = rng.randint(1, 6)
        tgt_len = rng.randint(1, 6)
        t2s = as_map(random_links(rng, tgt_len, src_len))
        s2t = as_map(random_links(rng, src_len, tgt_len))
        forward = symmetrize.intersect_maps(t2s, s2t)
        swapped = symmetrize.intersect_maps(s2t, t2s)
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


# a cell that is not two runs of ASCII digits joined by "-"; "1-²" and
# "1-１" pass str.isdigit, and int() reads the second as 1
BAD_CELL = st.text(alphabet="0123456789-²１٣x+", min_size=1, max_size=6).filter(
    lambda cell: re.fullmatch(r"[0-9]+-[0-9]+", cell) is None
)
POSITION = st.integers(0, 120)


def assert_bad_cell_rejected(read, path, lines, line_index, cell):
    """Append the cell to one line of a valid file; the reader must name
    that file and line."""
    lines = list(lines)
    lines[line_index] += " " + cell
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    message = re.escape(f"{path}:{line_index + 1}: bad link {cell!r}")
    with pytest.raises(AlignmentError, match=message):
        read(path)


@st.composite
def directional_alignments(draw):
    length = draw(st.integers(0, 120))
    position = st.integers(0, length - 1) if length else st.nothing()
    links = draw(st.lists(st.none() | position, max_size=8))
    return model1.DirectionalAlignment(tuple(links), length)


@given(
    alignments=st.lists(directional_alignments(), min_size=1, max_size=5),
    line_index=st.integers(0, 4),
    cell=BAD_CELL,
)
@example(alignments=[model1.DirectionalAlignment((1,), 2)], line_index=0, cell="1-²")
@example(alignments=[model1.DirectionalAlignment((1,), 2)], line_index=0, cell="1-１")
def test_alignment_file_round_trip_and_bad_cell(
    tmp_path_factory, alignments, line_index, cell
):
    path = tmp_path_factory.mktemp("pharaoh") / "align.txt"
    model1.write_alignments(alignments, path)
    maps = model1.read_alignment_maps(path)
    assert maps == [as_map(alignment.links) for alignment in alignments]
    for link_map, alignment in zip(maps, alignments):
        rebuilt = model1.alignment_from_map(
            link_map, len(alignment.links), alignment.conditioning_length
        )
        assert rebuilt == alignment
    lines = path.read_text(encoding="utf-8").splitlines()
    assert_bad_cell_rejected(
        model1.read_alignment_maps, path, lines, line_index % len(lines), cell
    )


@given(
    alignments=st.lists(
        st.lists(
            st.tuples(POSITION, POSITION),
            max_size=8,
            unique_by=(lambda link: link[0], lambda link: link[1]),
        ).map(frozenset),
        min_size=1,
        max_size=5,
    ),
    line_index=st.integers(0, 4),
    cell=BAD_CELL,
)
@example(alignments=[frozenset({(0, 1)})], line_index=0, cell="1-²")
@example(alignments=[frozenset({(0, 1)})], line_index=0, cell="1-１")
def test_links_file_round_trip_and_bad_cell(
    tmp_path_factory, alignments, line_index, cell
):
    path = tmp_path_factory.mktemp("pharaoh") / "links.txt"
    symmetrize.write_links(alignments, path)
    assert symmetrize.read_links(path) == alignments
    lines = path.read_text(encoding="utf-8").splitlines()
    assert_bad_cell_rejected(
        symmetrize.read_links, path, lines, line_index % len(lines), cell
    )


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
