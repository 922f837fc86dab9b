"""Permutation multi-task augmentation with markers and control tokens.

Each training target is a concatenation of marked segments, for example
``<lex> ... <ali> ... <tgt> ...``. Simple mode emits one example per
sentence in the canonical digit order and leaves the source untouched. Full
mode emits one example per permutation of the configured segment kinds, in
lexicographic control-digit order, and prefixes the source with a control
token such as ``<213>`` naming the requested segment order (digit 1 is lex,
2 is ali, 3 is tgt). Extraction slices one segment back out of a decoded
sequence, distinguishing a missing marker (None) from a present but empty
segment (an empty sequence).

Everything that depends only on the segment order (the control token, the
markers and where each segment sits in the target) is planned once per
``augment_corpus`` call, so the per-example work is tuple concatenation and
indexing. ``augment_corpus`` checks every argument and segment when called
and returns a sized view that builds the examples again, a sentence at a
time, on each iteration, so they are never all held in memory together.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path
from typing import Literal

from .corpus import Sentence, replacing
from .errors import MarkerError, PermutationError

Mode = Literal["simple", "full"]


class SegmentKind(IntEnum):
    """A segment the model can be asked to produce; the value is its digit."""

    LEX = 1
    ALI = 2
    TGT = 3

    @property
    def digit(self) -> str:
        return str(int(self))

    @property
    def marker(self) -> str:
        return f"<{self.name.lower()}>"


MARKER_TOKENS = frozenset(kind.marker for kind in SegmentKind)


@dataclass(frozen=True)
class SegmentSet:
    """The segments available for one sentence pair."""

    source: Sentence
    tgt: Sentence
    lex: Sentence | None = None
    ali: Sentence | None = None


@dataclass(frozen=True)
class AugmentedExample:
    sentence_index: int
    order: tuple[SegmentKind, ...]
    source_tokens: Sentence
    target_tokens: Sentence
    segment_lengths: tuple[int, ...]


def _check_order(order: Sequence[SegmentKind]) -> tuple[SegmentKind, ...]:
    kinds = tuple(order)
    if not kinds:
        raise PermutationError("segment order is empty")
    if len(set(kinds)) != len(kinds):
        raise PermutationError(f"duplicate segment kind in order {kinds}")
    return kinds


def segment_of(segments: SegmentSet, kind: SegmentKind) -> Sentence:
    value: Sentence | None = getattr(segments, kind.name.lower())
    if value is None:
        raise PermutationError(f"segment {kind.name.lower()} is not available")
    return value


def control_token(order: Sequence[SegmentKind]) -> str:
    """Digit string naming a segment order, e.g. (ALI, LEX, TGT) -> "<213>"."""
    kinds = _check_order(order)
    return "<" + "".join(kind.digit for kind in kinds) + ">"


class AugmentedExamples:
    """The examples of one ``augment_corpus`` call, built on each iteration;
    one plan per order: (order, control token or () in simple mode, positions)."""

    def __init__(
        self, segment_sets: Sequence[SegmentSet], canonical: tuple[SegmentKind, ...], plans: tuple
    ) -> None:
        self.segment_sets, self.canonical, self.plans = segment_sets, canonical, plans

    def __len__(self) -> int:
        return len(self.segment_sets) * len(self.plans)

    def __iter__(self) -> Iterator[AugmentedExample]:
        markers = [(kind.marker,) for kind in self.canonical]
        for sentence_index, segments in enumerate(self.segment_sets):
            values = [segment_of(segments, kind) for kind in self.canonical]
            marked = [marker + value for marker, value in zip(markers, values)]
            lengths = [len(value) for value in values]
            source = segments.source
            for order, control, positions in self.plans:
                target: Sentence = ()
                for i in positions:
                    target += marked[i]
                yield AugmentedExample(
                    sentence_index=sentence_index,
                    order=order,
                    source_tokens=control + source,
                    target_tokens=target,
                    segment_lengths=tuple([lengths[i] for i in positions]),
                )


def augment_corpus(
    segment_sets: Sequence[SegmentSet],
    kinds: Sequence[SegmentKind],
    mode: Mode,
) -> AugmentedExamples:
    """Check the arguments and segments, and plan a whole corpus's examples.

    Simple mode: one example per sentence, canonical (ascending-digit)
    order, source unchanged. Full mode: one example per permutation of the
    configured kinds, enumerated in lexicographic control-digit order, with
    the control token prepended to the source.
    """
    canonical = tuple(sorted(_check_order(kinds)))
    if SegmentKind.TGT not in canonical:
        raise PermutationError("segment subset must include tgt")
    if mode == "simple":
        orders: list[tuple[SegmentKind, ...]] = [canonical]
    elif mode == "full":
        orders = list(itertools.permutations(canonical))
    else:
        raise ValueError(f"unknown mode: {mode!r}")
    for segments, kind in itertools.product(segment_sets, canonical):
        segment_of(segments, kind)

    position = {kind: i for i, kind in enumerate(canonical)}
    plans = tuple(
        (
            order,
            (control_token(order),) if mode == "full" else (),
            tuple(position[kind] for kind in order),
        )
        for order in orders
    )
    return AugmentedExamples(segment_sets, canonical, plans)


def extract_segment(
    output: Sequence[str], kind: SegmentKind
) -> Sentence | None:
    """Slice one segment out of a decoded token sequence.

    Returns None when the segment's marker is absent; an empty tuple when
    the marker is present but immediately followed by another marker or the
    end. A repeated marker for the requested kind is ambiguous and raises.
    """
    marker = kind.marker
    positions = [i for i, token in enumerate(output) if token == marker]
    if len(positions) > 1:
        raise MarkerError(
            f"marker {marker} appears {len(positions)} times in the output"
        )
    if not positions:
        return None
    start = positions[0] + 1
    end = len(output)
    for i in range(start, len(output)):
        if output[i] in MARKER_TOKENS:
            end = i
            break
    return tuple(output[start:end])


def write_augmented(
    examples: Iterable[AugmentedExample],
    src_path: str | Path,
    tgt_path: str | Path,
    manifest_path: str | Path,
) -> None:
    """Write augmented source/target files plus a sidecar manifest; each is
    replaced whole, the three renamed one after another.

    Manifest lines are tab-separated: sentence index, control digits, then
    one token count per segment in emission order.
    """
    digits: dict[tuple[SegmentKind, ...], str] = {}
    with replacing(src_path) as write_src, replacing(tgt_path) as write_tgt, \
            replacing(manifest_path) as write_manifest:
        for example in examples:
            order = example.order
            order_digits = digits.get(order)
            if order_digits is None:
                order_digits = digits[order] = "".join(
                    kind.digit for kind in order
                )
            write_src(" ".join(example.source_tokens) + "\n")
            write_tgt(" ".join(example.target_tokens) + "\n")
            write_manifest(
                f"{example.sentence_index}\t{order_digits}\t"
                + "\t".join(map(str, example.segment_lengths))
                + "\n"
            )
