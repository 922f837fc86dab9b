"""Parallel corpus loading, validation and vocabulary counting.

Corpus files are UTF-8 plain text with LF line endings, one sentence per
line, tokens separated by spaces. Input is assumed pre-tokenized; runs of
whitespace collapse to a single separator. Tokens containing angle brackets
are rejected at load time so that segment markers (``<lex>``, ``<ali>``,
``<tgt>``), permutation control tokens and the aligner's internal NULL word
can never collide with corpus content.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import Literal

from .errors import CorpusFormatError

Sentence = tuple[str, ...]
Side = Literal["source", "target"]


@dataclass(frozen=True)
class ParallelCorpus:
    """Line-aligned source/target sentences at the word level."""

    pairs: tuple[tuple[Sentence, Sentence], ...]


def _decode(path: str | Path) -> str:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise CorpusFormatError(f"cannot read {path}: {exc}") from exc
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusFormatError(
            f"{path}: invalid UTF-8 at byte offset {exc.start}"
        ) from exc


def _split_lines(text: str) -> list[str]:
    lines = text.split("\n")
    # a trailing newline produces one empty trailing element, not a line
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def _parse_line(line: str, path: str | Path, lineno: int) -> Sentence:
    tokens = tuple(line.split())
    if not tokens:
        raise CorpusFormatError(f"{path}:{lineno}: empty line")
    for token in tokens:
        if "<" in token or ">" in token:
            raise CorpusFormatError(
                f"{path}:{lineno}: token {token!r} contains a reserved angle bracket"
            )
    return tokens


def load_sentences(path: str | Path) -> list[Sentence]:
    """Read and validate one corpus side: no empty lines, no reserved tokens."""
    return [
        _parse_line(line, path, lineno)
        for lineno, line in enumerate(_split_lines(_decode(path)), start=1)
    ]


def read_sentences(path: str | Path) -> list[Sentence]:
    """Read token sequences without corpus validation.

    Empty lines yield empty sequences. Meant for tool-produced files
    (candidate translations, decoded output, reordered sequences) that may
    legitimately contain marker tokens or blank lines.
    """
    return [tuple(line.split()) for line in _split_lines(_decode(path))]


def write_sentences(sentences: Iterable[Sentence], path: str | Path) -> None:
    Path(path).write_text(
        "".join(" ".join(sentence) + "\n" for sentence in sentences),
        encoding="utf-8",
    )


def load_parallel(src_path: str | Path, tgt_path: str | Path) -> ParallelCorpus:
    """Load two line-aligned corpus files.

    Raises CorpusFormatError naming the offending file and line for encoding
    problems, empty lines, reserved tokens, or a line-count mismatch.
    """
    src_lines = _split_lines(_decode(src_path))
    tgt_lines = _split_lines(_decode(tgt_path))
    if len(src_lines) != len(tgt_lines):
        raise CorpusFormatError(
            f"line count mismatch: {src_path} has {len(src_lines)} lines, "
            f"{tgt_path} has {len(tgt_lines)}"
        )
    pairs = []
    for lineno, (src_line, tgt_line) in enumerate(
        zip(src_lines, tgt_lines), start=1
    ):
        src = _parse_line(src_line, src_path, lineno)
        tgt = _parse_line(tgt_line, tgt_path, lineno)
        pairs.append((src, tgt))
    return ParallelCorpus(pairs=tuple(pairs))


def build_vocab(corpus: ParallelCorpus, side: Side) -> dict[str, int]:
    """Count word frequencies on one side.

    Iteration order of the result is first-occurrence order, which keeps
    everything built on top of it deterministic.
    """
    if side not in ("source", "target"):
        raise ValueError(f"unknown side: {side!r}")
    if not corpus.pairs:
        raise CorpusFormatError("cannot build a vocabulary from an empty corpus")
    index = 0 if side == "source" else 1
    counts: Counter[str] = Counter()
    for pair in corpus.pairs:
        counts.update(pair[index])
    return dict(counts)


def write_vocab(vocab: dict[str, int], path: str | Path) -> None:
    """Write "token count" lines, most frequent first, ties alphabetical."""
    items = sorted(vocab.items(), key=lambda item: (-item[1], item[0]))
    Path(path).write_text(
        "".join(f"{token} {count}\n" for token, count in items),
        encoding="utf-8",
    )


def merge_counts(*vocabs: dict[str, int]) -> dict[str, int]:
    """Sum several frequency maps, preserving first-seen key order."""
    total: dict[str, int] = {}
    for vocab in vocabs:
        for word, count in vocab.items():
            total[word] = total.get(word, 0) + count
    return total
