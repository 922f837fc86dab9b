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
plus, per emitted token, the tuple of cell ids its candidates index. At its
peak EM holds this layout, the flat ``probs`` and ``counts`` lists and each
row's emitted words as a tuple; the M-step divides ``counts`` in place, and
the table is built after the layout and ``probs`` are freed. Hapax groups
and row groups (below) shrink all three.

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

Training uses that for hapaxes, emitted words seen once in the corpus. Two
or more in one sentence pair form a group, represented by the first, which
replaces them all when cells are interned; each row's uniform start still
counts every member. In the E-step a later member adds the representative's
shares to the totals only, at its own place in token order. So row totals
get the same adds in the same order as with a cell per member, whose cells
would have got exactly the group cells' adds; the table gives every member
its group cell's float. Members after the first follow a row's other keys,
so only the key order differs.

Conditioning words seen once are grouped the same way. Two or more in one
sentence pair form a row group, represented by the first, which replaces
them all when rows are interned. A member's row would co-occur with that
sentence pair only, so its uniform start, its shares, counts and total would
be the representative's floats at every iteration. Each emitted token keeps
its full tuple of cells for the denominator, the representative's cell at
every member's place, and a second tuple without the members' places for the
adds, so a conditioning word that repeats in a sentence still adds once per
place. The table gives every member its own copy of the representative's
row. The group's one row is numbered like any other, so each row's cells
stay contiguous.
"""

from __future__ import annotations

import sys
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Literal, NamedTuple

from .corpus import ParallelCorpus, Sentence, read_lines, write_lines
from .errors import LexaliError

Direction = Literal["tgt_to_src", "src_to_tgt"]

NULL_WORD = "<NULL>"

TGT_TO_SRC: Direction = "tgt_to_src"
SRC_TO_TGT: Direction = "src_to_tgt"

Links = tuple[int | None, ...]

# one sentence pair: candidate row ids, then per emitted token its cell ids
Layout = tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]
# a sentence pair with a group: the row ids that add; per emitted token its
# cell ids for the denominator, then the cell ids that add (both None for a
# group member after the representative); the representative's cell ids
Grouped = tuple[tuple[int, ...], tuple[tuple[int, ...] | None, ...],
                tuple[tuple[int, ...] | None, ...], tuple[int, ...] | None]
# pairs without a group, then the next pair with one, or None at the end
Run = tuple[list[Layout], Grouped | None]


class TranslationTable(NamedTuple):
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
        raise LexaliError("cannot train on an empty corpus")

    # (conditioning sentence, emitted sentence) pairs
    pairs = corpus.pairs
    if direction == SRC_TO_TGT:
        pairs = tuple((tgt, src) for src, tgt in pairs)
    words, rows, layout, groups, row_groups = _intern_cells(pairs)
    probs: list[float] = []
    for _, _, emitted, n_words in rows:
        probs += [1.0 / n_words] * len(emitted)

    for _ in range(iterations - 1):
        counts, totals = _expected_counts(layout, probs, len(words))
        del probs
        for row, start, emitted, _ in rows:
            end = start + len(emitted)
            total = totals[row]
            counts[start:end] = [c / total for c in counts[start:end]]
        probs = counts
    counts, totals = _expected_counts(layout, probs, len(words))
    # only rows with a cell that entered the last iteration at 0.0 keep probs
    zeros = {row: kept for row, start, emitted, _ in rows
             if 0.0 in (kept := probs[start:start + len(emitted)])}
    del layout, probs

    table: dict[str, dict[str, float]] = {}
    for row, start, emitted, _ in rows:
        total = totals[row]
        if total > 0.0:
            values = [c / total for c in counts[start:start + len(emitted)]]
            if row in zeros:
                cells = zip(emitted, values, zeros[row])
                table[words[row]] = {f: c for f, c, p in cells if p != 0.0}
            else:
                table[words[row]] = dict(zip(emitted, values))
    del counts, rows
    # every member of a group gets its representative's float
    for group_rows, members in groups:
        for row in group_rows:
            row_probs = table.get(words[row], {})
            if members[0] in row_probs:
                row_probs.update(dict.fromkeys(members, row_probs[members[0]]))
    # and every member of a row group its representative's row
    for rep, *members in row_groups:
        if rep in table:
            for e in members:
                table[e] = table[rep].copy()
    return TranslationTable(direction=direction, probs=table)


def _intern_cells(
    pairs: Sequence[tuple[Sentence, Sentence]],
) -> tuple[list[str], list[tuple[int, int, tuple[str, ...], int]], list[Run],
           list[tuple[tuple[int, ...], tuple[str, ...]]], list[tuple[str, ...]]]:
    """Number every co-occurring (conditioning, emitted) word pair, a group
    taking one cell per row and a row group one row.

    Returns the conditioning words by row id; per row with cells its id,
    first cell, emitted words in cell order and number of words, group
    members included; the layout in runs; per group its distinct rows and
    its members in sentence order; and each row group's members in sentence
    order.
    """
    hapaxes = {f for f, n in Counter(chain.from_iterable(
        emitted for _, emitted in pairs)).items() if n == 1}
    # NULL conditions every pair, so a word spelled like it is never seen once
    row_hapaxes = {e for e, n in Counter(chain.from_iterable(
        conditioning for conditioning, _ in pairs)).items() if n == 1 and e != NULL_WORD}
    row_ids = {NULL_WORD: 0}
    # per row its emitted words, then each word's cell
    row_cells: list[dict[str, int | None]] = [{}]
    row_members: Counter[int] = Counter()  # members beyond the representatives
    groups = []
    row_groups = []
    sentences = []
    for conditioning, emitted in pairs:
        adding = None
        if row_hapaxes and len(row_group := tuple(filter(row_hapaxes.__contains__, conditioning))) > 1:
            first = row_group[0]
            # NULL and every place but a later member's add
            adding = itemgetter(0, *[i for i, e in enumerate(conditioning, 1)
                                     if e == first or e not in row_hapaxes])
            conditioning = [first if e in row_hapaxes else e for e in conditioning]
            row_groups.append(row_group)
        rows = [0]
        for e in conditioning:
            row = row_ids.get(e)
            if row is None:
                row = row_ids[e] = len(row_cells)
                row_cells.append({})
            rows.append(row)
        rep = None
        if hapaxes and len(members := tuple(filter(hapaxes.__contains__, emitted))) > 1:
            rep = members[0]
            emitted = tuple([rep if f in hapaxes else f for f in emitted])
            groups.append((tuple(dict.fromkeys(rows)), members))
            row_members.update(dict.fromkeys(rows, len(members) - 1))
        seen = dict.fromkeys(emitted)
        for row in rows:
            row_cells[row].update(seen)
        sentences.append((tuple(rows), emitted, rep, adding))
    row_spans = []
    start = 0
    for row, cells in enumerate(row_cells):
        emitted_words = tuple(cells)
        end = start + len(emitted_words)
        cells.update(zip(emitted_words, range(start, end)))
        if emitted_words:
            n_words = len(emitted_words) + row_members[row]
            row_spans.append((row, start, emitted_words, n_words))
        start = end
    layout = []
    plain = []
    for rows, emitted, rep, adding in sentences:
        # itemgetter needs a word, and returns a lone word's cell bare
        get = itemgetter(*emitted) if len(emitted) > 1 else lambda d: [d[f] for f in emitted]
        tokens = tuple(zip(*[get(row_cells[row]) for row in rows]))
        if rep is None and adding is None:
            plain.append((rows, tokens))
            continue
        group = None
        if rep is not None:
            group = tokens[emitted.index(rep)]
            tokens = tuple([None if f == rep and cells is not group else cells
                            for f, cells in zip(emitted, tokens)])
        adds = tokens
        if adding is not None:
            rows = adding(rows)
            adds = tuple([None if cells is None else adding(cells) for cells in tokens])
        layout.append((plain, (rows, tokens, adds, group)))
        plain = []
    layout.append((plain, None))
    return list(row_ids), row_spans, layout, groups, row_groups


def _expected_counts(
    layout: list[Run], probs: list[float], n_rows: int
) -> tuple[list[float], list[float]]:
    """One E-step: expected count per cell and per conditioning row."""
    counts = [0.0] * len(probs)
    totals = [0.0] * n_rows
    for plain, grouped in layout:
        for rows, tokens in plain:
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
        if grouped is not None:
            _add_group_counts(grouped, probs, counts, totals)
    return counts, totals


def _add_group_counts(grouped: Grouped, probs: list[float],
                      counts: list[float], totals: list[float]) -> None:
    """The E-step of a sentence pair with a group or a row group (inlined, it
    slowed the other pairs' loop by 2 %): every candidate adds to the
    denominator, later row group members add nothing, and later group members
    add the representative's shares to the totals only."""
    rows, tokens, adds, group = grouped
    for cells, kept in zip(tokens, adds):
        if cells is None:
            for row, share in zip(rows, replayed):
                totals[row] += share
            continue
        denom = 0.0
        for cell in cells:
            denom += probs[cell]
        if cells is group:
            replayed = [probs[cell] / denom for cell in kept] if denom != 0.0 else []
            for row, cell, share in zip(rows, kept, replayed):
                counts[cell] += share
                totals[row] += share
        elif denom != 0.0:
            for row, cell in zip(rows, kept):
                share = probs[cell] / denom
                counts[cell] += share
                totals[row] += share


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
    path: str | Path, lengths: Sequence[tuple[int, int]], one_to_one: bool = False
) -> Iterator[Links]:
    """Yield each line's "i-j" cells as links: per emitted position j its
    conditioning position i, or None.

    ``lengths`` holds one (i, j) bound pair per expected line. A line count
    other than len(lengths) names the file. Every other fault names
    path:line: a cell that is not two runs of ASCII digits, a position of
    more digits than ``int`` converts, or one at or past its bound, and
    then, in cell order, an emitted position linked twice. A ``one_to_one``
    file, the intersection, names its sides source and target and checks
    each cell's source position before its target.
    """
    lines = read_lines(path)
    if len(lines) != len(lengths):
        raise LexaliError(
            f"{path}: {len(lines)} lines for {len(lengths)} sentence pairs"
        )
    left, right = ("source", "target") if one_to_one else ("conditioning", "emitted")
    for lineno, (line, (i_bound, j_bound)) in enumerate(zip(lines, lengths), start=1):
        cells = []
        for cell in line.split():
            i_text, sep, j_text = cell.partition("-")
            if not (sep and cell.isascii() and i_text.isdigit() and j_text.isdigit()):
                raise LexaliError(f"{path}:{lineno}: bad link {cell!r}")
            try:
                i = int(i_text)
                j = int(j_text)
            except ValueError:  # more digits than int() converts
                raise LexaliError(f"{path}:{lineno}: link position has more than "
                                  f"{sys.get_int_max_str_digits()} digits") from None
            if i >= i_bound:
                raise LexaliError(
                    f"{path}:{lineno}: link {i} out of range for {left} "
                    f"length {i_bound}"
                )
            if j >= j_bound:
                raise LexaliError(
                    f"{path}:{lineno}: link to {right} position {j} out of "
                    f"range for {right} length {j_bound}"
                )
            cells.append((i, j))
        links: list[int | None] = [None] * j_bound
        sources: set[int] = set()
        for i, j in cells:
            if one_to_one:
                if i in sources:
                    raise LexaliError(f"{path}:{lineno}: {left} position {i} linked twice")
                sources.add(i)
            if links[j] is not None:
                raise LexaliError(f"{path}:{lineno}: {right} position {j} linked twice")
            links[j] = i
        yield tuple(links)


def read_alignment_maps(
    path: str | Path, lengths: Sequence[tuple[int, int]]
) -> list[Links]:
    """Parse a directional Pharaoh file, one (conditioning, emitted) length
    pair per line, back into links; each emitted position appears at most
    once per line."""
    return list(_read_pharaoh(path, lengths))
