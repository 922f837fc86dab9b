"""Alignment symmetrization by intersection and bilingual lexicon extraction.

The intersection keeps a (source, target) link exactly when the two
directional Viterbi alignments agree on it. Because each direction maps
every one of its emitted positions to at most one position, the surviving
link set is automatically one-to-one. The lexicon then keeps, per source
word, the target word it was most frequently linked to across the corpus,
ties broken by the lexicographically smallest target word.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

from .corpus import ParallelCorpus, _decode, _split_lines
from .errors import AlignmentError
from .model1 import DirectionalAlignment

Link = tuple[int, int]
OneToOneAlignment = frozenset[Link]


@dataclass(frozen=True)
class BilingualLexicon:
    """Per source word, its best target word and that link's count."""

    entries: dict[str, tuple[str, int]]
    total_links: int

    def translate(self, word: str) -> str | None:
        entry = self.entries.get(word)
        return entry[0] if entry else None


def intersect_maps(
    tgt_to_src: Mapping[int, int], src_to_tgt: Mapping[int, int]
) -> OneToOneAlignment:
    """Reciprocal links between two position maps, as (source, target)."""
    return frozenset(
        (i, j) for j, i in tgt_to_src.items() if src_to_tgt.get(i) == j
    )


def intersect(
    tgt_to_src: DirectionalAlignment, src_to_tgt: DirectionalAlignment
) -> OneToOneAlignment:
    """Intersect the two directional alignments of one sentence pair.

    ``tgt_to_src`` holds one link per target position into the source;
    ``src_to_tgt`` the mirror. Their lengths must describe the same pair.
    """
    if len(tgt_to_src.links) != src_to_tgt.conditioning_length:
        raise AlignmentError(
            f"target length disagrees: {len(tgt_to_src.links)} links vs "
            f"conditioning length {src_to_tgt.conditioning_length}"
        )
    if len(src_to_tgt.links) != tgt_to_src.conditioning_length:
        raise AlignmentError(
            f"source length disagrees: {len(src_to_tgt.links)} links vs "
            f"conditioning length {tgt_to_src.conditioning_length}"
        )
    forward = {
        j: i for j, i in enumerate(tgt_to_src.links) if i is not None
    }
    backward = {
        i: j for i, j in enumerate(src_to_tgt.links) if j is not None
    }
    return intersect_maps(forward, backward)


def extract_lexicon(
    corpus: ParallelCorpus, alignments: Sequence[OneToOneAlignment]
) -> BilingualLexicon:
    """Count symmetrized links corpus-wide and keep the argmax per source word."""
    if len(alignments) != len(corpus.pairs):
        raise AlignmentError(
            f"{len(alignments)} alignments for {len(corpus.pairs)} sentence pairs"
        )
    counts: dict[str, dict[str, int]] = {}
    total = 0
    for (src, tgt), links in zip(corpus.pairs, alignments):
        for i, j in sorted(links):
            if not 0 <= i < len(src):
                raise AlignmentError(
                    f"source position {i} out of range for length {len(src)}"
                )
            if not 0 <= j < len(tgt):
                raise AlignmentError(
                    f"target position {j} out of range for length {len(tgt)}"
                )
            row = counts.setdefault(src[i], {})
            row[tgt[j]] = row.get(tgt[j], 0) + 1
            total += 1
    entries: dict[str, tuple[str, int]] = {}
    for src_word, row in counts.items():
        best_tgt, best_count = min(
            row.items(), key=lambda item: (-item[1], item[0])
        )
        entries[src_word] = (best_tgt, best_count)
    return BilingualLexicon(entries=entries, total_links=total)


def write_links(
    alignments: Sequence[OneToOneAlignment], path: str | Path
) -> None:
    """One line per sentence of sorted "i-j" cells, source position first."""
    lines = [
        " ".join(f"{i}-{j}" for i, j in sorted(links)) for links in alignments
    ]
    Path(path).write_text(
        "".join(line + "\n" for line in lines), encoding="utf-8"
    )


def read_links(path: str | Path) -> list[OneToOneAlignment]:
    """Parse "i-j" lines; each source and each target position appears at
    most once per line, as intersection produces them."""
    alignments: list[OneToOneAlignment] = []
    for lineno, line in enumerate(_split_lines(_decode(path)), start=1):
        links: dict[int, int] = {}
        targets: set[int] = set()
        for cell in line.split():
            left, sep, right = cell.partition("-")
            if not sep or not left.isdigit() or not right.isdigit():
                raise AlignmentError(f"{path}:{lineno}: bad link {cell!r}")
            i, j = int(left), int(right)
            if i in links:
                raise AlignmentError(
                    f"{path}:{lineno}: source position {i} linked twice"
                )
            if j in targets:
                raise AlignmentError(
                    f"{path}:{lineno}: target position {j} linked twice"
                )
            links[i] = j
            targets.add(j)
        alignments.append(frozenset(links.items()))
    return alignments


def write_lexicon(lexicon: BilingualLexicon, path: str | Path) -> None:
    """Tab-separated "source target count" lines sorted by source word."""
    lines = [
        f"{src}\t{tgt}\t{count}"
        for src, (tgt, count) in sorted(lexicon.entries.items())
    ]
    Path(path).write_text(
        "".join(line + "\n" for line in lines), encoding="utf-8"
    )


def read_lexicon(path: str | Path) -> BilingualLexicon:
    """Load a lexicon file.

    The file stores winning entries only, so total_links is rebuilt as the
    sum of winning counts (a floor of the original corpus-wide total). Each
    source word appears once, with a non-negative integer count.
    """
    entries: dict[str, tuple[str, int]] = {}
    total = 0
    for lineno, line in enumerate(_split_lines(_decode(path)), start=1):
        parts = line.split("\t")
        if len(parts) != 3:
            raise AlignmentError(
                f"{path}:{lineno}: expected 'source<TAB>target<TAB>count'"
            )
        src_word, tgt_word, count_text = parts
        if not (count_text.isascii() and count_text.isdigit()):
            raise AlignmentError(
                f"{path}:{lineno}: count {count_text!r} is not a "
                "non-negative integer"
            )
        if src_word in entries:
            raise AlignmentError(
                f"{path}:{lineno}: source word {src_word!r} listed twice"
            )
        count = int(count_text)
        entries[src_word] = (tgt_word, count)
        total += count
    return BilingualLexicon(entries=entries, total_links=total)
