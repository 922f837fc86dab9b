"""Segment composition, control tokens, augmentation, extraction."""

import itertools
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lexali.augment import (
    MARKER_TOKENS,
    SegmentKind,
    augment_corpus,
    control_token,
    extract_segment,
    write_augmented,
)
from lexali.errors import LexaliError
from oracles import (
    augment_loop_oracle,
    compose_target,
    extract_oracle,
    parse_control_token,
    write_augmented_oracle,
)

LEX, ALI, TGT = SegmentKind.LEX, SegmentKind.ALI, SegmentKind.TGT

TOKEN = st.text(alphabet="abcdef", min_size=1, max_size=4)
SEGMENT = st.lists(TOKEN, min_size=0, max_size=5).map(tuple)

SOURCE = ("s1", "s2")
SEGMENTS = {LEX: ("l1", "l2"), ALI: ("a1",), TGT: ("t1", "t2", "t3")}


def columns(kinds, n=1):
    """n sentences' segments of the given kinds, keyed in the given order."""
    return {kind: [SEGMENTS[kind]] * n for kind in kinds}


def test_markers_and_digits():
    assert LEX.marker == "<lex>"
    assert ALI.marker == "<ali>"
    assert TGT.marker == "<tgt>"
    assert (LEX.digit, ALI.digit, TGT.digit) == ("1", "2", "3")


def test_compose_concatenates_marked_segments():
    examples = list(augment_corpus([SOURCE], columns((TGT, LEX)), "full"))
    assert examples[1] == (
        "<31> s1 s2", "<tgt> t1 t2 t3 <lex> l1 l2", "0\t31\t3\t2"
    )


def test_a_short_column_raises_instead_of_truncating():
    segments = {TGT: [SEGMENTS[TGT]] * 2, LEX: [SEGMENTS[LEX]]}
    with pytest.raises(ValueError, match="shorter"):
        list(augment_corpus([SOURCE] * 2, segments, "full"))


def test_control_token_digits_follow_order():
    assert control_token((ALI, LEX, TGT)) == "<213>"
    assert control_token((LEX, TGT)) == "<13>"
    assert parse_control_token("<213>") == (ALI, LEX, TGT)


def test_all_fifteen_control_tokens_distinct():
    kinds = list(SegmentKind)
    tokens = set()
    for size in (1, 2, 3):
        for order in itertools.permutations(kinds, size):
            tokens.add(control_token(order))
    assert len(tokens) == 15


@pytest.mark.parametrize("bad", ["<12", "12>", "<11>", "<4>", "<>", "x", "<1234>"])
def test_parse_control_token_rejects(bad):
    with pytest.raises(ValueError):
        parse_control_token(bad)


class TestAugment:
    def test_simple_mode_one_canonical_example(self):
        examples = augment_corpus([SOURCE] * 2, columns((TGT, LEX, ALI), 2), "simple")
        assert len(examples) == 2
        # canonical order is ascending digits, no control token
        assert list(examples) == [
            ("s1 s2", "<lex> l1 l2 <ali> a1 <tgt> t1 t2 t3", f"{i}\t123\t2\t1\t3")
            for i in range(2)
        ]

    def test_full_mode_emits_lexicographic_permutations(self):
        examples = augment_corpus([SOURCE], columns((LEX, ALI, TGT)), "full")
        assert len(examples) == 6
        digit_orders = [manifest.split("\t")[1] for _, _, manifest in examples]
        assert digit_orders == ["123", "132", "213", "231", "312", "321"]
        for (src_line, tgt_line, _), digits in zip(examples, digit_orders):
            token, *source = src_line.split(" ")
            order = parse_control_token(token)
            assert "".join(kind.digit for kind in order) == digits
            assert tuple(source) == SOURCE
            markers = [t for t in tgt_line.split(" ") if t in MARKER_TOKENS]
            assert markers == [kind.marker for kind in order]

    def test_two_kind_subset(self):
        examples = list(augment_corpus([SOURCE] * 3, columns((TGT, LEX), 3), "full"))
        assert len(examples) == 6
        assert [manifest.split("\t")[:2] for _, _, manifest in examples] == [
            [str(i), digits] for i in range(3) for digits in ("13", "31")
        ]

    def test_segment_lengths_recorded(self):
        examples = augment_corpus([SOURCE], columns((LEX, ALI, TGT)), "full")
        by_digits = {
            manifest.split("\t")[1]: manifest.split("\t")[2:]
            for _, _, manifest in examples
        }
        assert by_digits["123"] == ["2", "1", "3"]
        assert by_digits["321"] == ["3", "1", "2"]


class TestExtract:
    def test_missing_marker_is_none(self):
        assert extract_segment(("a", "b"), TGT) is None

    def test_present_but_empty_is_empty_tuple(self):
        assert extract_segment(("<tgt>",), TGT) == ()
        assert extract_segment(("<lex>", "<tgt>", "x"), LEX) == ()

    def test_segment_ends_at_next_marker_of_any_kind(self):
        output = ("<ali>", "a", "b", "<tgt>", "t")
        assert extract_segment(output, ALI) == ("a", "b")
        assert extract_segment(output, TGT) == ("t",)

    def test_duplicate_requested_marker_is_ambiguous(self):
        with pytest.raises(LexaliError, match="^marker <tgt> appears 2 times in the output$"):
            extract_segment(("<tgt>", "a", "<tgt>", "b"), TGT)

    def test_duplicate_other_marker_is_tolerated(self):
        output = ("<lex>", "a", "<lex>", "b", "<tgt>", "t")
        assert extract_segment(output, TGT) == ("t",)


@given(lex=SEGMENT, ali=SEGMENT, tgt=SEGMENT)
def test_extract_inverts_compose_for_every_permutation(lex, ali, tgt):
    segments = {LEX: lex, ALI: ali, TGT: tgt}
    for order in itertools.permutations((LEX, ALI, TGT)):
        composed = compose_target(segments, order)
        for kind in order:
            assert extract_segment(composed, kind) == segments[kind]


@given(
    output=st.lists(st.sampled_from(["a", "b", *sorted(MARKER_TOKENS)]), max_size=8).map(tuple),
    kind=st.sampled_from(SegmentKind),
)
@example(output=("a", "<lex>", "b"), kind=TGT)  # marker absent
@example(output=("a", "<tgt>"), kind=TGT)  # marker last
@example(output=("<tgt>", "<ali>", "a"), kind=TGT)  # another marker right after
@example(output=("<tgt>", "a", "<tgt>", "<tgt>"), kind=TGT)  # repeated marker
def test_extract_equals_list_scan(output, kind):
    expected = extract_oracle(output, kind)
    if isinstance(expected, int):
        message = f"marker {kind.marker} appears {expected} times in the output"
        with pytest.raises(LexaliError, match=f"^{re.escape(message)}$"):
            extract_segment(output, kind)
    else:
        assert extract_segment(output, kind) == expected


def test_write_augmented_files(tmp_path):
    write_augmented(
        [("<31> s", "<tgt> t <lex> l", "0\t31\t1\t1")],
        tmp_path / "a.src",
        tmp_path / "a.tgt",
        tmp_path / "a.tsv",
    )
    assert (tmp_path / "a.src").read_text(encoding="utf-8") == "<31> s\n"
    assert (tmp_path / "a.tgt").read_text(encoding="utf-8") == "<tgt> t <lex> l\n"
    assert (tmp_path / "a.tsv").read_text(encoding="utf-8") == "0\t31\t1\t1\n"


# every configured subset holds tgt; each is drawn in any order
KINDS = st.sampled_from([(TGT,), (LEX, TGT), (ALI, TGT), (LEX, ALI, TGT)]).flatmap(
    st.permutations
)


@st.composite
def corpora(draw):
    """Source sentences and one line-aligned column per kind, keyed in the
    drawn order; any sentence or segment may be empty."""
    kinds = draw(KINDS)
    size = draw(st.integers(min_value=0, max_value=4))
    sentences = st.lists(SEGMENT, min_size=size, max_size=size)
    return draw(sentences), {kind: draw(sentences) for kind in kinds}


def write_both(examples, expected):
    """The bytes of the three files from write_augmented and its oracle."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp, name) for name in ("a.src", "a.tgt", "a.tsv")]
        oracle_paths = [Path(tmp, "oracle" + path.suffix) for path in paths]
        write_augmented(examples, *paths)
        write_augmented_oracle(expected, *oracle_paths)
        return (
            [path.read_bytes() for path in paths],
            [path.read_bytes() for path in oracle_paths],
        )


@given(corpus=corpora(), mode=st.sampled_from(["simple", "full"]))
@example(corpus=([], {TGT: [], ALI: [], LEX: []}), mode="full")
@example(corpus=([()], {TGT: [()], ALI: [()], LEX: [()]}), mode="full")
@example(corpus=([()], {TGT: [("t",)]}), mode="simple")
def test_equals_loop_reference_exactly(corpus, mode):
    sources, segments = corpus
    examples = list(augment_corpus(sources, segments, mode))
    expected = augment_loop_oracle(sources, segments, mode)
    assert examples == expected
    written, oracle_written = write_both(examples, expected)
    assert written == oracle_written


@given(corpus=corpora(), mode=st.sampled_from(["simple", "full"]))
def test_examples_view_is_sized_and_re_iterable(corpus, mode):
    sources, segments = corpus
    examples = augment_corpus(sources, segments, mode)
    first = list(examples)
    assert len(examples) == len(first)
    assert list(examples) == first
    expected = augment_loop_oracle(sources, segments, mode)
    assert first == expected
    # a view already iterated writes the same bytes as the oracle
    written, oracle_written = write_both(examples, expected)
    assert written == oracle_written
