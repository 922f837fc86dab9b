"""IBM Model 1: EM-trained lexical translation tables and Viterbi alignment.

Directions follow the mapping convention. A ``tgt_to_src`` table conditions
on source words and emits target words (it scores t(target|source)), so its
Viterbi alignment maps every *target* position to a source position or NULL.
``src_to_tgt`` is the mirror image. Every conditioning sentence is extended
with a NULL word so that unexplained emitted words have somewhere to go.

A directional alignment of one sentence pair is ``Links``: one conditioning
position, or None for NULL, per emitted position. Every stage passes it on
as is; positions read from a Pharaoh file are checked once, in
``_read_pharaoh``, against the lengths of the sentences the file belongs to.

Training is plain sequential EM. The translation table is initialized
uniformly over the emitted words each conditioning word co-occurs with, the
E-step distributes one unit of count per emitted token proportionally to the
current probabilities, and the M-step renormalizes per conditioning word.

Before the first iteration every co-occurring (conditioning, emitted) word
pair is interned to an integer cell. Each conditioning word gets a row id,
NULL first and the rest in first-seen order, and a row's cells are numbered
contiguously. A sentence pair becomes a tuple of row ids (its candidates)
plus, per emitted token, the tuple of cell ids its candidates index, so the
iterations run over flat ``probs``, ``counts`` and ``totals`` lists instead
of nested dicts.

Floating-point addition is not associative, so the arithmetic order is part
of the result. Each denominator is summed left to right in candidate order
(not with ``sum``, whose compensated summation rounds differently on newer
interpreters), and counts and totals accumulate in corpus order, token by
token and candidate by candidate. Tables are therefore bit-identical across
runs and supported Python versions.

The same order makes tables repeat values: two emitted words seen in the
same sentences the same number of times receive identical shares in the same
order, so they get bit-identical probabilities in every row, and hapaxes
sharing a sentence are common under Zipf's law. ``write_table`` therefore
formats each distinct probability once instead of once per entry.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from operator import truediv
from pathlib import Path
from typing import Literal

from .corpus import ParallelCorpus, Sentence, read_lines, write_lines
from .errors import AlignmentError, CorpusFormatError

Direction = Literal["tgt_to_src", "src_to_tgt"]

NULL_WORD = "<NULL>"

TGT_TO_SRC: Direction = "tgt_to_src"
SRC_TO_TGT: Direction = "src_to_tgt"

Links = tuple[int | None, ...]

# one sentence pair: candidate row ids, then per emitted token its cell ids
Layout = tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]


@dataclass(frozen=True)
class TranslationTable:
    """t(emitted | conditioning) for one direction; missing entries are 0."""

    direction: Direction
    probs: dict[str, dict[str, float]]


def train_model1(
    corpus: ParallelCorpus, direction: Direction, iterations: int
) -> TranslationTable:
    """Run EM for the given number of iterations (at least 1).

    The table holds an entry for every cell whose probability was positive
    going into the last iteration, and a row for every conditioning word
    whose expected count is positive.
    """
    if not corpus.pairs:
        raise CorpusFormatError("cannot train on an empty corpus")

    # (conditioning sentence, emitted sentence) pairs
    pairs = corpus.pairs
    if direction == SRC_TO_TGT:
        pairs = tuple((tgt, src) for src, tgt in pairs)
    words, row_cells, layout = _intern_cells(pairs)
    cell_rows: list[int] = []
    probs: list[float] = []
    for row, cells in enumerate(row_cells):
        if cells:
            cell_rows += [row] * len(cells)
            probs += [1.0 / len(cells)] * len(cells)

    for _ in range(iterations - 1):
        counts, totals = _expected_counts(layout, probs, len(words))
        probs = list(map(truediv, counts, map(totals.__getitem__, cell_rows)))
    counts, totals = _expected_counts(layout, probs, len(words))

    table: dict[str, dict[str, float]] = {}
    for row, cells in enumerate(row_cells):
        total = totals[row]
        if total > 0.0:
            table[words[row]] = {
                f: counts[cell] / total
                for f, cell in cells.items()
                if probs[cell] != 0.0
            }
    return TranslationTable(direction=direction, probs=table)


def _intern_cells(
    pairs: Sequence[tuple[Sentence, Sentence]],
) -> tuple[list[str], list[dict[str, int]], list[Layout]]:
    """Number every co-occurring (conditioning, emitted) word pair.

    Returns the conditioning words by row id, each row's emitted words
    mapped to their cell ids, and per sentence pair its candidate row ids
    with one tuple of cell ids per emitted token.
    """
    row_ids = {NULL_WORD: 0}
    row_words: list[dict[str, None]] = [{}]
    pair_rows = []
    for conditioning, emitted in pairs:
        rows = [0]
        for e in conditioning:
            row = row_ids.get(e)
            if row is None:
                row = row_ids[e] = len(row_words)
                row_words.append({})
            rows.append(row)
        seen = dict.fromkeys(emitted)
        for row in rows:
            row_words[row].update(seen)
        pair_rows.append(tuple(rows))
    row_cells = []
    start = 0
    for emitted_words in row_words:
        end = start + len(emitted_words)
        row_cells.append(dict(zip(emitted_words, range(start, end))))
        start = end
    layout = []
    for rows, (_, emitted) in zip(pair_rows, pairs):
        columns = [map(row_cells[row].__getitem__, emitted) for row in rows]
        layout.append((rows, tuple(zip(*columns))))
    return list(row_ids), row_cells, layout


def _expected_counts(
    layout: list[Layout], probs: list[float], n_rows: int
) -> tuple[list[float], list[float]]:
    """One E-step: expected count per cell and per conditioning row."""
    counts = [0.0] * len(probs)
    totals = [0.0] * n_rows
    for rows, tokens in layout:
        for cells in tokens:
            denom = 0.0
            for cell in cells:
                denom += probs[cell]
            if denom == 0.0:
                continue
            for row, cell in zip(rows, cells):
                share = probs[cell] / denom
                counts[cell] += share
                totals[row] += share
    return counts, totals


def viterbi_align(
    table: TranslationTable, pair: tuple[Sentence, Sentence]
) -> Links:
    """Most probable link per emitted position under the table.

    Ties on a positive probability go to the smallest conditioning position;
    NULL wins only with a probability strictly higher than every position's,
    or when every candidate scores 0. Each candidate's row is looked up once
    per sentence pair; a word without a row scores 0 everywhere.
    """
    src, tgt = pair
    if table.direction == TGT_TO_SRC:
        conditioning, emitted = src, tgt
    else:
        conditioning, emitted = tgt, src
    probs = table.probs
    missing: dict[str, float] = {}
    null_row = probs.get(NULL_WORD, missing)
    rows = [probs.get(e, missing) for e in conditioning]
    links: list[int | None] = []
    for f in emitted:
        best_i: int | None = None
        best_p = null_row.get(f, 0.0)
        for i, row in enumerate(rows):
            p = row.get(f, 0.0)
            # once best_i is a real position, equal scores keep the earlier one
            if p > best_p or (p == best_p and p > 0.0 and best_i is None):
                best_i = i
                best_p = p
        links.append(best_i)
    return tuple(links)


def write_table(table: TranslationTable, path: str | Path) -> None:
    """Write "conditioning emitted prob" lines sorted by the word pair.

    Probabilities use repr, so reading the file back is bit-exact. Each
    distinct value is formatted once; zeros are not memoized, because 0.0
    and -0.0 are equal keys with different reprs.
    """
    text: dict[float, str] = {}

    def lines() -> Iterator[str]:
        for e, row in sorted(table.probs.items()):
            for f in sorted(row):
                p = row[f]
                s = text.get(p)
                if s is None:
                    s = repr(p)
                    if p:
                        text[p] = s
                yield f"{e} {f} {s}"

    write_lines(path, lines())


def write_alignments(alignments: Iterable[Links], path: str | Path) -> None:
    """One Pharaoh-style line per sentence: "i-j" pairs with the
    conditioning position first; NULL links are omitted."""
    write_lines(path, (
        " ".join([f"{i}-{j}" for j, i in enumerate(links) if i is not None])
        for links in alignments
    ))


def _read_pharaoh(
    path: str | Path,
    lengths: Sequence[tuple[int, int]],
    sides: tuple[str, str] = ("conditioning", "emitted"),
) -> Iterator[tuple[int, list[tuple[int, int]]]]:
    """Yield each line's number and its "i-j" cells as (i, j) pairs.

    ``lengths`` holds one (i, j) bound pair per expected line, and ``sides``
    names the two positions in messages. A line count other than
    len(lengths) names the file; a cell that is not two runs of ASCII digits,
    or a position at or past its bound, names path:line. Rules on repeated
    positions belong to the callers.
    """
    lines = read_lines(path)
    if len(lines) != len(lengths):
        raise AlignmentError(
            f"{path}: {len(lines)} lines for {len(lengths)} sentence pairs"
        )
    left, right = sides
    for lineno, (line, (i_bound, j_bound)) in enumerate(zip(lines, lengths), start=1):
        cells = []
        for cell in line.split():
            i_text, sep, j_text = cell.partition("-")
            if not (sep and cell.isascii() and i_text.isdigit() and j_text.isdigit()):
                raise AlignmentError(f"{path}:{lineno}: bad link {cell!r}")
            i = int(i_text)
            j = int(j_text)
            if i >= i_bound:
                raise AlignmentError(
                    f"{path}:{lineno}: link {i} out of range for {left} "
                    f"length {i_bound}"
                )
            if j >= j_bound:
                raise AlignmentError(
                    f"{path}:{lineno}: link to {right} position {j} out of "
                    f"range for {right} length {j_bound}"
                )
            cells.append((i, j))
        yield lineno, cells


def read_alignment_maps(
    path: str | Path, lengths: Sequence[tuple[int, int]]
) -> list[Links]:
    """Parse a directional Pharaoh file, one (conditioning, emitted) length
    pair per line, back into links; each emitted position appears at most
    once per line."""
    alignments: list[Links] = []
    for lineno, cells in _read_pharaoh(path, lengths):
        links: list[int | None] = [None] * lengths[lineno - 1][1]
        for conditioning, emitted in cells:
            if links[emitted] is not None:
                raise AlignmentError(
                    f"{path}:{lineno}: emitted position {emitted} linked twice"
                )
            links[emitted] = conditioning
        alignments.append(tuple(links))
    return alignments
