"""Intersection symmetrization, lexicon extraction, and the Pharaoh link
files both directions and the intersection are stored in."""

import random
import re
import sys
from functools import partial

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lexali import model1, symmetrize
from lexali.corpus import ParallelCorpus
from lexali.errors import LexaliError
from oracles import intersect_oracle, lexicon_oracle

# one digit more than int() converts from a string
MAX_DIGITS = sys.get_int_max_str_digits()
OVER_LONG = "9" * (MAX_DIGITS + 1)


def random_links(rng, emitted_length, conditioning_length):
    """One directional alignment: per emitted position a link or None."""
    return tuple(
        rng.choice([None] + list(range(conditioning_length)))
        for _ in range(emitted_length)
    )


def test_reciprocal_links_survive():
    assert symmetrize.intersect_maps((0, 1), (0, 1)) == {(0, 0), (1, 1)}


def test_disagreeing_links_drop():
    # target 0 points at source 1 and source 1 back at target 0; source 0
    # points at target 1, which points nowhere
    assert symmetrize.intersect_maps((1, None), (1, 0)) == {(1, 0)}


def test_empty_when_no_agreement():
    assert symmetrize.intersect_maps((0,), (None,)) == frozenset()


def test_fuzzed_equals_naive_set_intersection_and_is_one_to_one():
    rng = random.Random(23)
    for _ in range(300):
        src_len = rng.randint(1, 7)
        tgt_len = rng.randint(1, 7)
        t2s = random_links(rng, tgt_len, src_len)
        s2t = random_links(rng, src_len, tgt_len)
        links = symmetrize.intersect_maps(t2s, s2t)
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
        t2s = random_links(rng, tgt_len, src_len)
        s2t = random_links(rng, src_len, tgt_len)
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

    def lengths(self):
        """The bounds read_links checks the links this lexicon counts against."""
        return [(len(src), len(tgt)) for src, tgt in self.corpus().pairs]

    def test_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "links.txt"
        path.write_text("0-0 1-1\n", encoding="utf-8")
        message = f"{path}: 1 lines for 3 sentence pairs"
        with pytest.raises(LexaliError, match=re.escape(message)):
            symmetrize.read_links(path, self.lengths())

    def test_out_of_range_positions_rejected(self, tmp_path):
        path = tmp_path / "links.txt"
        for line, message in (
            ("1-0", "link 1 out of range for source length 1"),
            ("0-9", "link to target position 9 out of range for target length 1"),
        ):
            path.write_text(f"0-0 1-1\n0-0\n{line}\n", encoding="utf-8")
            with pytest.raises(LexaliError, match=re.escape(f"{path}:3: {message}")):
                symmetrize.read_links(path, self.lengths())


def test_links_file_round_trip(tmp_path):
    alignments = [frozenset({(1, 0), (0, 1)}), frozenset()]
    path = tmp_path / "links.txt"
    symmetrize.write_links(alignments, path)
    assert path.read_text(encoding="utf-8") == "0-1 1-0\n\n"
    assert symmetrize.read_links(path, [(2, 2), (1, 1)]) == alignments


# a cell that is not two runs of ASCII digits joined by "-"; "1-²" and
# "1-１" pass str.isdigit, and int() reads the second as 1
BAD_CELL = st.text(alphabet="0123456789-²１٣x+", min_size=1, max_size=6).filter(
    lambda cell: re.fullmatch(r"[0-9]+-[0-9]+", cell) is None
)


def assert_rejected(read, path, lines, message):
    """Write the lines as a file; reading it must fail with the message."""
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    with pytest.raises(LexaliError, match=re.escape(message)):
        read(path)


def assert_bad_lines_rejected(read, path, lengths, line_index, cell, sides):
    """Edit one line of a valid Pharaoh file with the given (i, j) bounds per
    line: a bad cell, a position at either bound, and one line too many or
    too few must each be rejected, naming the file and, for a cell, the line."""
    lines = path.read_text(encoding="utf-8").splitlines()
    index = line_index % len(lines)
    i_bound, j_bound = lengths[index]
    left, right = sides
    where = f"{path}:{index + 1}:"
    for cell, message in (
        (cell, f"bad link {cell!r}"),
        (f"{i_bound}-0", f"link {i_bound} out of range for {left} length {i_bound}"),
        (f"0-{j_bound}", f"link to {right} position {j_bound} out of range for "
                         f"{right} length {j_bound}"),
    ):
        edited = list(lines)
        edited[index] += " " + cell
        assert_rejected(read, path, edited, f"{where} {message}")
    n = len(lines)
    assert_rejected(read, path, [*lines, ""], f"{path}: {n + 1} lines for {n} sentence pairs")
    assert_rejected(read, path, lines[:-1], f"{path}: {n - 1} lines for {n} sentence pairs")


# a sentence length; corpus lines are never empty
LENGTH = st.integers(1, 120)


@st.composite
def directional_alignments(draw):
    """One line's links with its (conditioning, emitted) lengths."""
    conditioning_length = draw(LENGTH)
    position = st.integers(0, conditioning_length - 1)
    links = tuple(draw(st.lists(st.none() | position, max_size=8)))
    return links, (conditioning_length, len(links))


@given(
    drawn=st.lists(directional_alignments(), min_size=1, max_size=5),
    line_index=st.integers(0, 4),
    cell=BAD_CELL,
)
@example(drawn=[((1,), (2, 1))], line_index=0, cell="1-²")
@example(drawn=[((1,), (2, 1))], line_index=0, cell="1-１")
def test_alignment_file_round_trip_and_bad_cell(
    tmp_path_factory, drawn, line_index, cell
):
    alignments = [links for links, _ in drawn]
    lengths = [line_lengths for _, line_lengths in drawn]
    path = tmp_path_factory.mktemp("pharaoh") / "align.txt"
    model1.write_alignments(alignments, path)
    assert model1.read_alignment_maps(path, lengths) == alignments
    assert_bad_lines_rejected(
        partial(model1.read_alignment_maps, lengths=lengths),
        path, lengths, line_index, cell, ("conditioning", "emitted"),
    )


@st.composite
def one_to_one_alignments(draw):
    """One line's intersected links with its (source, target) lengths."""
    src_length = draw(LENGTH)
    tgt_length = draw(LENGTH)
    links = draw(
        st.lists(
            st.tuples(st.integers(0, src_length - 1), st.integers(0, tgt_length - 1)),
            max_size=8,
            unique_by=(lambda link: link[0], lambda link: link[1]),
        )
    )
    return frozenset(links), (src_length, tgt_length)


@given(
    drawn=st.lists(one_to_one_alignments(), min_size=1, max_size=5),
    line_index=st.integers(0, 4),
    cell=BAD_CELL,
)
@example(drawn=[(frozenset({(0, 1)}), (1, 2))], line_index=0, cell="1-²")
@example(drawn=[(frozenset({(0, 1)}), (1, 2))], line_index=0, cell="1-１")
def test_links_file_round_trip_and_bad_cell(
    tmp_path_factory, drawn, line_index, cell
):
    alignments = [links for links, _ in drawn]
    lengths = [line_lengths for _, line_lengths in drawn]
    path = tmp_path_factory.mktemp("pharaoh") / "links.txt"
    symmetrize.write_links(alignments, path)
    assert symmetrize.read_links(path, lengths) == alignments
    assert_bad_lines_rejected(
        partial(symmetrize.read_links, lengths=lengths),
        path, lengths, line_index, cell, ("source", "target"),
    )


@pytest.mark.parametrize(
    "line, position",
    [("0-0 0-1", "source position 0"), ("0-1 1-1", "target position 1"),
     ("1-0 1-0", "source position 1")],
)
def test_links_file_repeated_position_rejected(tmp_path, line, position):
    path = tmp_path / "links.txt"
    path.write_text(f"0-0\n{line}\n", encoding="utf-8")
    with pytest.raises(LexaliError, match=rf"links\.txt:2: {position} linked twice"):
        symmetrize.read_links(path, [(1, 1), (2, 2)])


@pytest.mark.parametrize(
    "line, faults",
    [
        ("0-0 0-0 x", ("bad link 'x'", "bad link 'x'")),
        ("0-0 1-0 9-0", ("link 9 out of range for conditioning length 3",
                         "link 9 out of range for source length 3")),
        ("1-1 0-1 1-0", ("emitted position 1 linked twice",
                         "target position 1 linked twice")),
        ("0-0 0-1 1-1", ("emitted position 1 linked twice",
                         "source position 0 linked twice")),
        pytest.param(f"0-0 0-0 0-{OVER_LONG}",
                     (f"link position has more than {MAX_DIGITS} digits",) * 2,
                     id="over-long-position"),
    ],
)
@pytest.mark.parametrize("reader", [0, 1], ids=["directional", "intersection"])
def test_link_line_reports_its_first_fault(tmp_path, reader, line, faults):
    """A bad or out-of-range cell is reported before a repeated position,
    and repeats in cell order; the intersection checks each cell's source
    position before its target position."""
    read = (model1.read_alignment_maps, symmetrize.read_links)[reader]
    path = tmp_path / "links.txt"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(LexaliError) as error:
        read(path, [(3, 3)])
    assert str(error.value) == f"{path}:1: {faults[reader]}"


def test_lexicon_file_round_trip(tmp_path):
    lexicon = symmetrize.BilingualLexicon(
        entries={"haus": ("house", 2), "alt": ("old", 1)}
    )
    path = tmp_path / "lexicon.tsv"
    symmetrize.write_lexicon(lexicon, path)
    assert path.read_text(encoding="utf-8") == "alt\told\t1\nhaus\thouse\t2\n"
    assert symmetrize.read_lexicon(path) == lexicon


# a lexicon word: any corpus token, so no angle bracket and no whitespace,
# which holds the tab and newline that delimit the file (categories Cc, Zs,
# Zl and Zp hold every character str.split splits on)
WORD = st.text(
    st.characters(
        blacklist_characters="<>", blacklist_categories=("Cs", "Cc", "Zs", "Zl", "Zp")
    ),
    min_size=1,
    max_size=5,
)
# a word read_lexicon must reject on either side
BAD_WORD = st.tuples(
    WORD, st.sampled_from(" \x0b\x0c\r\x1c\x85\xa0\u2028\u3000<>"), WORD
).map("".join)
# a line read_lexicon must reject wherever it stands
BAD_LEXICON_LINE = st.one_of(
    WORD,
    st.tuples(WORD, WORD).map("\t".join),
    st.tuples(WORD, WORD, WORD, WORD).map("\t".join),
    st.tuples(WORD, WORD, st.sampled_from(["", "-1", "1.5", "x", "²", "１"])).map(
        "\t".join
    ),
    WORD.map(lambda word: f"{word}\t\t1"),
    WORD.map(lambda word: f"\t{word}\t1"),
    st.tuples(BAD_WORD, WORD).map(lambda words: "\t".join([*words, "1"])),
    st.tuples(WORD, BAD_WORD).map(lambda words: "\t".join([*words, "1"])),
)


@given(
    entries=st.dictionaries(WORD, st.tuples(WORD, st.integers(0, 10**9)), max_size=8),
    line_index=st.integers(0, 8),
    bad_line=BAD_LEXICON_LINE,
)
def test_lexicon_file_round_trip_and_bad_line(
    tmp_path_factory, entries, line_index, bad_line
):
    lexicon = symmetrize.BilingualLexicon(entries=entries)
    path = tmp_path_factory.mktemp("lexicon") / "lexicon.tsv"
    symmetrize.write_lexicon(lexicon, path)
    assert symmetrize.read_lexicon(path) == lexicon
    lines = path.read_bytes().decode("utf-8").split("\n")[:-1]
    index = line_index % (len(lines) + 1)
    lines.insert(index, bad_line)
    path.write_bytes("".join(line + "\n" for line in lines).encode("utf-8"))
    with pytest.raises(LexaliError, match=re.escape(f"{path}:{index + 1}: ")):
        symmetrize.read_lexicon(path)


@pytest.mark.parametrize(
    ("line", "message"),
    [("buch\tbook\tnotanint", "count 'notanint' is not a non-negative integer"),
     ("buch\tbook\t-1", "count '-1' is not a non-negative integer"),
     ("haus\tZZZ\t1", "source word 'haus' listed twice"),
     ("buch\t\t1", "empty source or target word"),
     ("\tbook\t2", "empty source or target word"),
     (f"buch\tbook\t{OVER_LONG}", f"count has more than {MAX_DIGITS} digits")],
    ids=["non-integer", "negative", "repeated", "empty-target", "empty-source", "over-long"],
)
def test_lexicon_file_bad_line_rejected(tmp_path, line, message):
    path = tmp_path / "lexicon.tsv"
    path.write_text(f"haus\thouse\t2\n{line}\n", encoding="utf-8")
    with pytest.raises(LexaliError, match=rf"lexicon\.tsv:2: {message}"):
        symmetrize.read_lexicon(path)


@pytest.mark.parametrize(
    ("line", "message"),
    [("buch\tfoo bar\t1", "target word 'foo bar'"),
     ("buch\t<tgt>\t1", "target word '<tgt>'"),
     ("buch\tbo>ok\t1", "target word 'bo>ok'"),
     ("buch\tbook\x0b\t1", "target word 'book\\x0b'"),
     ("buch\t book\t1", "target word ' book'"),
     ("buch\tbo\u3000ok\t1", "target word 'bo\\u3000ok'"),
     ("das buch\tbook\t1", "source word 'das buch'"),
     ("<lex>\tbook\t1", "source word '<lex>'"),
     ("buch\r\tbook\t1", "source word 'buch\\r'")],
    ids=["space", "marker", "bracket", "vertical-tab", "leading-space",
         "ideographic-space", "source-space", "source-marker", "source-cr"],
)
def test_lexicon_word_that_is_not_a_token_rejected(tmp_path, line, message):
    path = tmp_path / "lexicon.tsv"
    path.write_bytes(f"haus\thouse\t2\n{line}\n".encode("utf-8"))
    pattern = rf"lexicon\.tsv:2: {re.escape(message)} holds whitespace or an angle bracket"
    with pytest.raises(LexaliError, match=pattern):
        symmetrize.read_lexicon(path)
