"""Alignment symmetrization by intersection and bilingual lexicon extraction.

The intersection keeps a (source, target) link exactly when the two
directional Viterbi alignments agree on it. Because each direction maps
every one of its emitted positions to at most one position, the surviving
link set is automatically one-to-one. The lexicon then keeps, per source
word, the target word it was most frequently linked to across the corpus,
ties broken by the lexicographically smallest target word.
"""

from __future__ import annotations

import sys
from collections.abc import Sequence
from pathlib import Path
from typing import NamedTuple

from .corpus import ParallelCorpus, read_lines, write_lines
from .errors import LexaliError
from .model1 import Links, _read_pharaoh

Link = tuple[int, int]
OneToOneAlignment = frozenset[Link]


class BilingualLexicon(NamedTuple):
    """Per source word, its best target word and that link's count."""

    entries: dict[str, tuple[str, int]]

    def translate(self, word: str) -> str | None:
        entry = self.entries.get(word)
        return entry[0] if entry else None


def intersect_maps(tgt_to_src: Links, src_to_tgt: Links) -> OneToOneAlignment:
    """Reciprocal links of one sentence pair, as (source, target).

    ``tgt_to_src`` holds a source position or None per target position, as
    ``model1.viterbi_align`` and ``model1.read_alignment_maps`` give it;
    ``src_to_tgt`` the mirror.
    """
    return frozenset(
        (i, j)
        for j, i in enumerate(tgt_to_src)
        if i is not None and src_to_tgt[i] == j
    )


def extract_lexicon(
    corpus: ParallelCorpus, alignments: Sequence[OneToOneAlignment]
) -> BilingualLexicon:
    """Count symmetrized links corpus-wide and keep the argmax per source word;
    the links are those ``read_links`` checked against the corpus."""
    counts: dict[str, dict[str, int]] = {}
    for (src, tgt), links in zip(corpus.pairs, alignments):
        for i, j in links:
            row = counts.setdefault(src[i], {})
            row[tgt[j]] = row.get(tgt[j], 0) + 1
    entries: dict[str, tuple[str, int]] = {}
    for src_word, row in counts.items():
        best_tgt, best_count = min(
            row.items(), key=lambda item: (-item[1], item[0])
        )
        entries[src_word] = (best_tgt, best_count)
    return BilingualLexicon(entries=entries)


def write_links(
    alignments: Sequence[OneToOneAlignment], path: str | Path
) -> None:
    """One line per sentence of sorted "i-j" cells, source position first."""
    write_lines(path, (
        " ".join([f"{i}-{j}" for i, j in sorted(links)]) for links in alignments
    ))


def read_links(
    path: str | Path, lengths: Sequence[tuple[int, int]]
) -> list[OneToOneAlignment]:
    """Parse "i-j" lines, one (source, target) length pair per line; each
    source and each target position appears at most once per line, as
    intersection produces them."""
    return [
        frozenset((i, j) for j, i in enumerate(links) if i is not None)
        for links in _read_pharaoh(path, lengths, one_to_one=True)
    ]


def write_lexicon(lexicon: BilingualLexicon, path: str | Path) -> None:
    """Tab-separated "source target count" lines sorted by source word."""
    write_lines(path, (
        f"{src}\t{tgt}\t{count}"
        for src, (tgt, count) in sorted(lexicon.entries.items())
    ))


def read_lexicon(path: str | Path) -> BilingualLexicon:
    """Load a lexicon file.

    Each source word appears once, with a target word and a non-negative
    integer count. Both words must be corpus tokens, without whitespace or
    angle brackets, because ``lex`` writes the target word as one token of
    a sentence.
    """
    entries: dict[str, tuple[str, int]] = {}
    for lineno, line in enumerate(read_lines(path), start=1):
        parts = line.split("\t")
        if len(parts) != 3:
            raise LexaliError(
                f"{path}:{lineno}: expected 'source<TAB>target<TAB>count'"
            )
        src_word, tgt_word, count_text = parts
        if not (src_word and tgt_word):
            raise LexaliError(f"{path}:{lineno}: empty source or target word")
        for side, word in (("source", src_word), ("target", tgt_word)):
            if word.split() != [word] or "<" in word or ">" in word:
                raise LexaliError(
                    f"{path}:{lineno}: {side} word {word!r} holds whitespace "
                    "or an angle bracket"
                )
        if not (count_text.isascii() and count_text.isdigit()):
            raise LexaliError(
                f"{path}:{lineno}: count {count_text!r} is not a "
                "non-negative integer"
            )
        try:
            count = int(count_text)
        except ValueError:  # more digits than int() converts
            raise LexaliError(
                f"{path}:{lineno}: count has more than {sys.get_int_max_str_digits()} digits"
            ) from None
        if src_word in entries:
            raise LexaliError(
                f"{path}:{lineno}: source word {src_word!r} listed twice"
            )
        entries[src_word] = (tgt_word, count)
    return BilingualLexicon(entries=entries)
