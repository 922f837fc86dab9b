"""Byte-pair encoding: learn merge operations, apply them, undo them.

Learning symbolizes every word as its characters followed by a word-end
sentinel. The sentinel marks the boundary but never takes part in a merge,
so merge operations only ever join in-word character material. Merges are
learned greedily: at each step the most frequent adjacent symbol pair wins,
ties broken by the lexicographically smallest (left, right) pair, and
learning stops early once no pair occurs at least twice.

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

from collections import Counter
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


def _check_word(word: str) -> str:
    if not word:
        raise SegmentationError("cannot segment an empty word")
    if "<" in word or ">" in word:
        raise SegmentationError(
            f"word {word!r} contains a reserved angle bracket"
        )
    return word


def _pair_stats(
    words: list[list[str]], freqs: list[int]
) -> tuple[dict[Pair, int], dict[Pair, set[int]]]:
    stats: dict[Pair, int] = {}
    index: dict[Pair, set[int]] = {}
    for wi, symbols in enumerate(words):
        freq = freqs[wi]
        for pair in _word_pairs(symbols):
            stats[pair] = stats.get(pair, 0) + freq
            index.setdefault(pair, set()).add(wi)
    return stats, index


def _word_pairs(symbols: list[str]) -> list[Pair]:
    # the sentinel is always the last symbol and never merges
    return [
        (symbols[i], symbols[i + 1])
        for i in range(len(symbols) - 2)
    ]


def _best_pair(stats: dict[Pair, int]) -> Pair | None:
    best: Pair | None = None
    best_count = MIN_PAIR_COUNT - 1
    for pair, count in stats.items():
        if count > best_count or (
            count == best_count and best is not None and pair < best
        ):
            best = pair
            best_count = count
    return best


def _merge_symbols(symbols: list[str], pair: Pair) -> list[str]:
    left, right = pair
    joined = left + right
    out: list[str] = []
    i = 0
    while i < len(symbols):
        if (
            i + 1 < len(symbols)
            and symbols[i] == left
            and symbols[i + 1] == right
        ):
            out.append(joined)
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return out


def learn_bpe(word_counts: Mapping[str, int], num_merges: int) -> MergeTable:
    """Greedily learn up to num_merges merge operations from weighted words.

    Stops early when the best remaining pair occurs fewer than
    MIN_PAIR_COUNT times (weighted by word frequency).
    """
    if num_merges < 0:
        raise ValueError(f"num_merges must be >= 0, got {num_merges}")
    if not word_counts:
        raise ValueError("word_counts is empty")
    words = []
    freqs = []
    for word, count in word_counts.items():
        if count < 1:
            raise ValueError(f"word {word!r} has non-positive count {count}")
        words.append(list(_check_word(word)) + [WORD_END])
        freqs.append(count)

    stats, index = _pair_stats(words, freqs)
    merges: list[Pair] = []
    for _ in range(num_merges):
        best = _best_pair(stats)
        if best is None:
            break
        merges.append(best)
        for wi in sorted(index.get(best, ())):
            old = words[wi]
            freq = freqs[wi]
            # subtract per distinct pair, weighted by its multiplicity in
            # this word, so repeated pairs ("abab") are removed exactly once
            for pair, mult in Counter(_word_pairs(old)).items():
                remaining = stats[pair] - freq * mult
                if remaining > 0:
                    stats[pair] = remaining
                else:
                    del stats[pair]
                members = index[pair]
                members.discard(wi)
                if not members:
                    del index[pair]
            new = _merge_symbols(old, best)
            words[wi] = new
            for pair, mult in Counter(_word_pairs(new)).items():
                stats[pair] = stats.get(pair, 0) + freq * mult
                index.setdefault(pair, set()).add(wi)
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


def _rendered(piece: _Piece, final: bool, marker: str) -> str:
    return piece.symbol if final else piece.symbol + marker


def _emit(
    piece: _Piece,
    final: bool,
    vocab: Mapping[str, int] | None,
    threshold: int,
    marker: str,
    out: list[str],
) -> None:
    form = _rendered(piece, final, marker)
    if vocab is None or vocab.get(form, 0) >= threshold:
        out.append(form)
        return
    if piece.children is None:
        # single character with no merge to revert; keep it even if unknown
        out.append(form)
        return
    left, right = piece.children
    _emit(left, False, vocab, threshold, marker, out)
    _emit(right, final, vocab, threshold, marker, out)


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
    _check_word(word)
    if threshold < 1:
        raise ValueError(f"threshold must be >= 1, got {threshold}")
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
        _emit(piece, i == last, vocab, threshold, CONTINUATION_MARKER, out)
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


def undo_bpe(sentence: Sentence, marker: str = CONTINUATION_MARKER) -> Sentence:
    """Rejoin continuation-marked pieces into words.

    A piece carrying the marker must be followed by another piece; a
    trailing marked piece raises SegmentationError.
    """
    words: list[str] = []
    buffer = ""
    for token in sentence:
        if token.endswith(marker):
            buffer += token[: -len(marker)]
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
    """Load a merge table: an optional '#' header line, then one pair of
    non-empty symbols without whitespace per line, each pair listed once."""
    merges: dict[Pair, None] = {}
    for lineno, line in enumerate(read_lines(path), start=1):
        if lineno == 1 and line.startswith("#"):
            continue
        parts = line.split(" ")
        if len(parts) != 2:
            raise SegmentationError(f"{path}:{lineno}: expected 'left right'")
        pair = (parts[0], parts[1])
        if not all(pair):
            raise SegmentationError(f"{path}:{lineno}: empty symbol in {line!r}")
        if parts != line.split():
            raise SegmentationError(f"{path}:{lineno}: whitespace in a symbol in {line!r}")
        if pair in merges:
            raise SegmentationError(f"{path}:{lineno}: merge {line!r} listed twice")
        merges[pair] = None
    return MergeTable(tuple(merges))
