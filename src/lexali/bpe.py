"""Byte-pair encoding: learn merge operations, apply them, undo them.

Learning symbolizes every word as its characters followed by a word-end
sentinel. The sentinel marks the boundary but never takes part in a merge,
so merge operations only ever join in-word character material. Merges are
learned greedily: at each step the most frequent adjacent symbol pair wins,
ties broken by the lexicographically smallest (left, right) pair, and
learning stops early once no pair occurs at least twice. The best pair comes
from a lazy max-heap of (-count, pair) entries, whose order is exactly that
tie rule; an entry whose count is no longer the pair's count is stale and
skipped. A merge visits only the words holding its pair, and re-pushes only
the pairs whose count it changed. Counts are exact integers, so the order
in which the words are visited cannot change a count or a merge.

Application replays merges by rank: at each step the lowest-ranked pair
present anywhere in the word is merged at all of its non-overlapping
occurrences, scanning left to right. Every piece except the last carries the
continuation marker suffix ``@@``. With a subword vocabulary, pieces whose
rendered form is out of vocabulary are recursively split back into the two
pieces they were merged from, until every piece is in vocabulary or is a
single character.

``undo_bpe(make_segmenter(table)(s))`` is the identity for any sentence
whose tokens do not end with the continuation marker; a raw token that
already ends in ``@@`` is indistinguishable from a continuation piece once
rendered, which is inherent to the marker convention.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from pathlib import Path

from .corpus import Sentence, read_lines, write_lines
from .errors import SegmentationError

CONTINUATION_MARKER = "@@"
WORD_END = "</w>"
MIN_PAIR_COUNT = 2

_VERSION_LINE = "#version: lexali-bpe 1"

Pair = tuple[str, str]


@dataclass
class MergeTable:
    """Ordered merge operations; earlier entries have lower rank."""

    merges: tuple[Pair, ...]
    ranks: dict[Pair, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.ranks = {pair: rank for rank, pair in enumerate(self.merges)}
        if len(self.ranks) != len(self.merges):
            raise SegmentationError("merge table contains duplicate pairs")

    def __len__(self) -> int:
        return len(self.merges)


def _pair_stats(
    words: list[list[str]], freqs: list[int]
) -> tuple[dict[Pair, int], dict[Pair, set[int]]]:
    stats: dict[Pair, int] = {}
    index: dict[Pair, set[int]] = {}
    for wi, symbols in enumerate(words):
        freq = freqs[wi]
        # the sentinel is always the last symbol and never merges
        for pair in zip(symbols, symbols[1:-1]):
            stats[pair] = stats.get(pair, 0) + freq
            index.setdefault(pair, set()).add(wi)
    return stats, index


def learn_bpe(word_counts: Mapping[str, int], num_merges: int) -> MergeTable:
    """Greedily learn up to num_merges merge operations from weighted words.

    Stops early when the best remaining pair occurs fewer than
    MIN_PAIR_COUNT times (weighted by word frequency). The words are corpus
    tokens and the counts positive, as ``corpus.count_words`` gives them.
    """
    words = [list(word) + [WORD_END] for word in word_counts]
    freqs = list(word_counts.values())

    # index[pair] holds every word that has the pair, and may still hold
    # words that lost it (a merge pass over such a word changes nothing)
    # until the pair's count reaches 0
    stats, index = _pair_stats(words, freqs)
    # a pair below MIN_PAIR_COUNT is pushed only once its count reaches it,
    # so learning stops early when the heap runs out
    heap = [
        (-count, pair) for pair, count in stats.items() if count >= MIN_PAIR_COUNT
    ]
    heapq.heapify(heap)
    merges: list[Pair] = []
    while heap and len(merges) < num_merges:
        negative, best = heapq.heappop(heap)
        if stats.get(best) != -negative:
            continue  # stale: the pair's count changed after this push
        merges.append(best)
        left, right = best
        joined = left + right
        change: dict[Pair, int] = {}
        for wi in index.pop(best):
            old = words[wi]
            freq = freqs[wi]
            new: list[str] = []
            fresh = False  # whether new[-1] is a symbol this merge joined
            last = len(old) - 1  # the sentinel never merges
            i = 0
            while i < last:
                was_fresh = fresh
                fresh = old[i] == left and i + 1 < last and old[i + 1] == right
                symbol = joined if fresh else old[i]
                if fresh:
                    change[best] = change.get(best, 0) - freq
                if new and (fresh or was_fresh):
                    # the adjacency before this symbol changed its pair
                    gone, made = (old[i - 1], old[i]), (new[-1], symbol)
                    change[gone] = change.get(gone, 0) - freq
                    change[made] = change.get(made, 0) + freq
                    index.setdefault(made, set()).add(wi)
                new.append(symbol)
                i += 2 if fresh else 1
            new.append(WORD_END)
            words[wi] = new
        for pair, delta in change.items():
            if delta:
                count = stats.get(pair, 0) + delta
                if count:
                    stats[pair] = count
                    if count >= MIN_PAIR_COUNT:
                        heapq.heappush(heap, (-count, pair))
                else:
                    del stats[pair]
                    index.pop(pair, None)
    return MergeTable(tuple(merges))


@dataclass
class _Piece:
    symbol: str
    children: tuple["_Piece", "_Piece"] | None = None


def _merge_pieces(pieces: list[_Piece], pair: Pair) -> list[_Piece]:
    left, right = pair
    out: list[_Piece] = []
    i = 0
    while i < len(pieces):
        if (
            i + 1 < len(pieces)
            and pieces[i].symbol == left
            and pieces[i + 1].symbol == right
        ):
            out.append(_Piece(left + right, (pieces[i], pieces[i + 1])))
            i += 2
        else:
            out.append(pieces[i])
            i += 1
    return out


def _emit(
    piece: _Piece,
    final: bool,
    vocab: Mapping[str, int] | None,
    threshold: int,
    out: list[str],
) -> None:
    form = piece.symbol if final else piece.symbol + CONTINUATION_MARKER
    if vocab is None or vocab.get(form, 0) >= threshold:
        out.append(form)
        return
    if piece.children is None:
        # single character with no merge to revert; keep it even if unknown
        out.append(form)
        return
    left, right = piece.children
    _emit(left, False, vocab, threshold, out)
    _emit(right, final, vocab, threshold, out)


def split_word(
    word: str,
    table: MergeTable,
    vocab: Mapping[str, int] | None = None,
    threshold: int = 1,
) -> list[str]:
    """Segment one word into rendered pieces.

    The word-end sentinel is conceptually present during application but,
    since it never participates in a merge, the replay runs over the
    character symbols alone.
    """
    ranks = table.ranks
    pieces = [_Piece(ch) for ch in word]
    while len(pieces) > 1:
        best_rank: int | None = None
        for i in range(len(pieces) - 1):
            rank = ranks.get((pieces[i].symbol, pieces[i + 1].symbol))
            if rank is not None and (best_rank is None or rank < best_rank):
                best_rank = rank
        if best_rank is None:
            break
        pieces = _merge_pieces(pieces, table.merges[best_rank])
    out: list[str] = []
    last = len(pieces) - 1
    for i, piece in enumerate(pieces):
        _emit(piece, i == last, vocab, threshold, out)
    return out


def make_segmenter(
    table: MergeTable,
    vocab: Mapping[str, int] | None = None,
    threshold: int = 1,
) -> Callable[[Sentence], Sentence]:
    """Sentence segmenter with a per-word memo.

    The cache is read-mostly and only grows; suitable for reuse across a
    whole corpus. The underlying table must not be mutated afterwards.
    """
    cache: dict[str, tuple[str, ...]] = {}

    def segment(sentence: Sentence) -> Sentence:
        out: list[str] = []
        for word in sentence:
            pieces = cache.get(word)
            if pieces is None:
                pieces = tuple(split_word(word, table, vocab, threshold))
                cache[word] = pieces
            out.extend(pieces)
        return tuple(out)

    return segment


def undo_bpe(sentence: Sentence) -> Sentence:
    """Rejoin continuation-marked pieces into words.

    A piece carrying the marker must be followed by another piece; a
    trailing marked piece raises SegmentationError.
    """
    words: list[str] = []
    buffer = ""
    for token in sentence:
        if token.endswith(CONTINUATION_MARKER):
            buffer += token[: -len(CONTINUATION_MARKER)]
        else:
            words.append(buffer + token)
            buffer = ""
    if buffer:
        raise SegmentationError(
            "segmentation ends with a continuation piece and cannot be rejoined"
        )
    return tuple(words)


def write_merges(table: MergeTable, path: str | Path) -> None:
    write_lines(path, [_VERSION_LINE, *map(" ".join, table.merges)])


def read_merges(path: str | Path) -> MergeTable:
    """Load a merge table: the header line write_merges writes, then one pair
    of non-empty symbols without whitespace or angle brackets per line, each
    pair listed once. A symbol holding '<' or '>' could never merge, since no
    word holds one, and marks another tool's file (subword-nmt's '</w>')."""
    lines = read_lines(path)
    if lines[:1] != [_VERSION_LINE]:
        raise SegmentationError(f"{path}:1: expected {_VERSION_LINE!r}")
    merges: dict[Pair, None] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(" ")
        if len(parts) != 2:
            raise SegmentationError(f"{path}:{lineno}: expected 'left right'")
        pair = (parts[0], parts[1])
        if not all(pair):
            raise SegmentationError(f"{path}:{lineno}: empty symbol in {line!r}")
        if parts != line.split():
            raise SegmentationError(f"{path}:{lineno}: whitespace in a symbol in {line!r}")
        if "<" in line or ">" in line:
            raise SegmentationError(f"{path}:{lineno}: reserved angle bracket in {line!r}")
        if pair in merges:
            raise SegmentationError(f"{path}:{lineno}: merge {line!r} listed twice")
        merges[pair] = None
    return MergeTable(tuple(merges))
