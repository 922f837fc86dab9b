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

An example is the three lines it adds to the source, target and manifest
files. Everything that depends only on the segment order (the control
token, its digits and where each segment sits in the target) is planned
once per ``augment_corpus`` call, and each sentence's source text, marked
segments and segment lengths are joined once, so the per-example work is
joining strings. ``augment_corpus`` returns a sized view that builds the
lines again, a sentence at a time, on each iteration, so they are never all
held in memory together. The segment kinds and the mode are taken as given:
the command line checks them.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Mapping, Sequence
from enum import IntEnum
from pathlib import Path
from typing import Literal

from .corpus import Sentence, replacing
from .errors import LexaliError

Mode = Literal["simple", "full"]
Lines = tuple[str, str, str]


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


def control_token(order: Sequence[SegmentKind]) -> str:
    """Digit string naming a segment order, e.g. (ALI, LEX, TGT) -> "<213>"."""
    return "<" + "".join(kind.digit for kind in order) + ">"


class AugmentedExamples:
    """The (source, target, manifest) lines of one ``augment_corpus`` call,
    built on each iteration; one plan per order: (control token, or "" in
    simple mode, control digits, positions of its segments)."""

    def __init__(
        self, sources: Sequence[Sentence], columns: list[Sequence[Sentence]],
        markers: list[str], plans: tuple[tuple[str, str, tuple[int, ...]], ...],
    ) -> None:
        self.sources, self.columns, self.markers, self.plans = sources, columns, markers, plans

    def __len__(self) -> int:
        return len(self.sources) * len(self.plans)

    def __iter__(self) -> Iterator[Lines]:
        rows = zip(self.sources, *self.columns, strict=True)
        for index, (source, *values) in enumerate(rows):
            source_line = " ".join(source)
            after_control = " " + source_line if source else ""
            marked = [" ".join((marker, *value)) for marker, value in zip(self.markers, values)]
            lengths = [str(len(value)) for value in values]
            for control, digits, positions in self.plans:
                yield (
                    control + after_control if control else source_line,
                    " ".join([marked[i] for i in positions]),
                    f"{index}\t{digits}\t" + "\t".join([lengths[i] for i in positions]),
                )


def augment_corpus(
    sources: Sequence[Sentence],
    segments: Mapping[SegmentKind, Sequence[Sentence]],
    mode: Mode,
) -> AugmentedExamples:
    """Plan a whole corpus's examples from the source sentences and one
    column of segments per configured kind, line-aligned with the sources.

    Simple mode: one example per sentence, canonical (ascending-digit)
    order, source unchanged. Full mode: one example per permutation of the
    configured kinds, enumerated in lexicographic control-digit order, with
    the control token prepended to the source.
    """
    canonical = tuple(sorted(segments))
    orders = itertools.permutations(canonical) if mode == "full" else [canonical]
    position = {kind: i for i, kind in enumerate(canonical)}
    plans = tuple(
        (
            control_token(order) if mode == "full" else "",
            "".join(kind.digit for kind in order),
            tuple(position[kind] for kind in order),
        )
        for order in orders
    )
    return AugmentedExamples(
        sources, [segments[kind] for kind in canonical], [kind.marker for kind in canonical], plans
    )


def extract_segment(
    output: Sequence[str], kind: SegmentKind
) -> Sentence | None:
    """Slice one segment out of a decoded token sequence.

    Returns None when the segment's marker is absent; an empty tuple when
    the marker is present but immediately followed by another marker or the
    end. A repeated marker for the requested kind is ambiguous and raises.
    """
    marker = kind.marker
    count = output.count(marker)
    if count > 1:
        raise LexaliError(f"marker {marker} appears {count} times in the output")
    if not count:
        return None
    start = output.index(marker) + 1
    end = len(output)
    for i in range(start, len(output)):
        if output[i] in MARKER_TOKENS:
            end = i
            break
    return tuple(output[start:end])


def write_augmented(
    examples: Iterable[Lines],
    src_path: str | Path,
    tgt_path: str | Path,
    manifest_path: str | Path,
) -> None:
    """Write augmented source/target files plus a sidecar manifest; each is
    replaced whole, the three renamed one after another.

    Manifest lines are tab-separated: sentence index, control digits, then
    one token count per segment in emission order.
    """
    with replacing(src_path) as write_src, replacing(tgt_path) as write_tgt, \
            replacing(manifest_path) as write_manifest:
        for src_line, tgt_line, manifest_line in examples:
            write_src(src_line + "\n")
            write_tgt(tgt_line + "\n")
            write_manifest(manifest_line + "\n")
