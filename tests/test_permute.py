"""Segment composition, control tokens, augmentation, extraction."""

import itertools
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lexali.augment import (
    AugmentedExample,
    SegmentKind,
    SegmentSet,
    augment_corpus,
    control_token,
    extract_segment,
    write_augmented,
)
from lexali.errors import MarkerError, PermutationError
from oracles import (
    augment_loop_oracle,
    compose_target,
    parse_control_token,
    write_augmented_oracle,
)

LEX, ALI, TGT = SegmentKind.LEX, SegmentKind.ALI, SegmentKind.TGT

TOKEN = st.text(alphabet="abcdef", min_size=1, max_size=4)
SEGMENT = st.lists(TOKEN, min_size=0, max_size=5).map(tuple)


def segment_set(lex=("l1", "l2"), ali=("a1",), tgt=("t1", "t2", "t3")):
    return SegmentSet(source=("s1", "s2"), tgt=tgt, lex=lex, ali=ali)


def test_markers_and_digits():
    assert LEX.marker == "<lex>"
    assert ALI.marker == "<ali>"
    assert TGT.marker == "<tgt>"
    assert (LEX.digit, ALI.digit, TGT.digit) == ("1", "2", "3")


def test_compose_concatenates_marked_segments():
    examples = list(augment_corpus([segment_set()], (TGT, LEX), "full"))
    assert examples[1].order == (TGT, LEX)
    assert examples[1].target_tokens == (
        "<tgt>", "t1", "t2", "t3", "<lex>", "l1", "l2"
    )


def test_compose_requires_tgt():
    with pytest.raises(PermutationError, match="tgt"):
        augment_corpus([segment_set()], (LEX, ALI), "full")


def test_compose_rejects_duplicates():
    with pytest.raises(PermutationError, match="duplicate"):
        augment_corpus([segment_set()], (TGT, TGT), "full")


def test_compose_rejects_missing_segment():
    bare = SegmentSet(source=("s",), tgt=("t",))
    with pytest.raises(PermutationError, match="segment lex is not available"):
        augment_corpus([bare], (TGT, LEX), "full")
    # checked at the call, not when the examples are first iterated
    with pytest.raises(PermutationError, match="segment lex is not available"):
        augment_corpus([segment_set(), bare], (TGT, LEX), "full")


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
    with pytest.raises(PermutationError):
        parse_control_token(bad)


class TestAugment:
    def sets(self, n=2):
        return [segment_set() for _ in range(n)]

    def test_simple_mode_one_canonical_example(self):
        examples = augment_corpus(self.sets(2), (TGT, LEX, ALI), "simple")
        assert len(examples) == 2
        for i, example in enumerate(examples):
            assert example.sentence_index == i
            # canonical order is ascending digits, no control token
            assert example.order == (LEX, ALI, TGT)
            assert example.source_tokens == ("s1", "s2")
            assert example.target_tokens[0] == "<lex>"

    def test_full_mode_emits_lexicographic_permutations(self):
        examples = augment_corpus(self.sets(1), (LEX, ALI, TGT), "full")
        assert len(examples) == 6
        digit_orders = [
            "".join(k.digit for k in example.order) for example in examples
        ]
        assert digit_orders == ["123", "132", "213", "231", "312", "321"]
        for example in examples:
            token = example.source_tokens[0]
            assert parse_control_token(token) == example.order
            assert example.source_tokens[1:] == ("s1", "s2")

    def test_two_kind_subset(self):
        examples = list(augment_corpus(self.sets(3), (TGT, LEX), "full"))
        assert len(examples) == 6
        assert examples[0].order == (LEX, TGT)
        assert examples[1].order == (TGT, LEX)

    def test_segment_lengths_recorded(self):
        examples = augment_corpus(self.sets(1), (LEX, ALI, TGT), "full")
        by_digits = {
            "".join(k.digit for k in e.order): e.segment_lengths
            for e in examples
        }
        assert by_digits["123"] == (2, 1, 3)
        assert by_digits["321"] == (3, 1, 2)

    def test_mode_and_subset_validation(self):
        with pytest.raises(ValueError):
            augment_corpus(self.sets(1), (LEX, TGT), "fancy")
        with pytest.raises(PermutationError):
            augment_corpus(self.sets(1), (LEX, ALI), "full")
        with pytest.raises(PermutationError):
            augment_corpus(self.sets(1), (), "full")


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
        with pytest.raises(MarkerError):
            extract_segment(("<tgt>", "a", "<tgt>", "b"), TGT)

    def test_duplicate_other_marker_is_tolerated(self):
        output = ("<lex>", "a", "<lex>", "b", "<tgt>", "t")
        assert extract_segment(output, TGT) == ("t",)


@given(
    source=SEGMENT,
    lex=SEGMENT,
    ali=SEGMENT,
    tgt=SEGMENT,
)
def test_extract_inverts_compose_for_every_permutation(source, lex, ali, tgt):
    segments = SegmentSet(source=source, tgt=tgt, lex=lex, ali=ali)
    for order in itertools.permutations((LEX, ALI, TGT)):
        composed = compose_target(segments, order)
        for kind in order:
            expected = {"lex": lex, "ali": ali, "tgt": tgt}[kind.name.lower()]
            assert extract_segment(composed, kind) == expected


def test_write_augmented_files(tmp_path):
    example = AugmentedExample(
        sentence_index=0,
        order=(TGT, LEX),
        source_tokens=("<31>", "s"),
        target_tokens=("<tgt>", "t", "<lex>", "l"),
        segment_lengths=(1, 1),
    )
    write_augmented(
        [example],
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
    """Kinds plus segment sets; a segment outside the kinds may be absent."""
    kinds = draw(KINDS)

    def segment(kind):
        if kind in kinds:
            return SEGMENT
        return st.one_of(st.none(), SEGMENT)

    segment_sets = draw(
        st.lists(
            st.builds(
                SegmentSet,
                source=SEGMENT,
                tgt=SEGMENT,
                lex=segment(LEX),
                ali=segment(ALI),
            ),
            max_size=4,
        )
    )
    return segment_sets, tuple(kinds)


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
@example(corpus=([], (TGT, ALI, LEX)), mode="full")
@example(
    corpus=([SegmentSet(source=(), tgt=(), lex=(), ali=())], (TGT, ALI, LEX)),
    mode="full",
)
@example(corpus=([SegmentSet(source=(), tgt=("t",))], (TGT,)), mode="simple")
def test_equals_loop_reference_exactly(corpus, mode):
    segment_sets, kinds = corpus
    examples = list(augment_corpus(segment_sets, kinds, mode))
    expected = augment_loop_oracle(segment_sets, kinds, mode)
    assert examples == expected
    written, oracle_written = write_both(examples, expected)
    assert written == oracle_written


@given(corpus=corpora(), mode=st.sampled_from(["simple", "full"]))
def test_examples_view_is_sized_and_re_iterable(corpus, mode):
    segment_sets, kinds = corpus
    examples = augment_corpus(segment_sets, kinds, mode)
    first = list(examples)
    assert len(examples) == len(first)
    assert list(examples) == first
    expected = augment_loop_oracle(segment_sets, kinds, mode)
    assert first == expected
    # a view already iterated writes the same bytes as the oracle
    written, oracle_written = write_both(examples, expected)
    assert written == oracle_written
