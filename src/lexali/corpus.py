"""Line files: reading, writing, line-count checks, corpus validation and
word counts.

Every file lexali reads or writes is UTF-8 text with LF line endings, one
record per line, read and written through this module. A reader names the
file on an unreadable file or a bad byte; a failed write leaves a regular
file's previous bytes in place; ``check_line_counts`` names every file.

Corpus files hold one sentence per line, tokens separated by spaces. Input
is assumed pre-tokenized; runs of whitespace collapse to a single
separator. Tokens containing angle brackets are rejected at load time so
that segment markers (``<lex>``, ``<ali>``, ``<tgt>``), permutation control
tokens and the aligner's internal NULL word can never collide with corpus
content. Every sentence file a stage reads from its working directory
(``train.lex``, ``train.ali``, ``train.*.bpe``) is read under this rule
too, so no code downstream of a reader checks it again; ``train.ali`` and
``train.ali.bpe`` may also hold empty lines. Decoded output, which holds
the markers, is read without it.
"""

from __future__ import annotations

import os
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Sized
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

from .errors import CorpusFormatError

Sentence = tuple[str, ...]


@dataclass(frozen=True)
class ParallelCorpus:
    """Line-aligned source/target sentences at the word level."""

    pairs: tuple[tuple[Sentence, Sentence], ...]


def read_lines(path: str | Path) -> list[str]:
    """The lines of a UTF-8 file, split at "\\n" only, without line ends."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise CorpusFormatError(f"cannot read {path}: {exc}") from exc
    try:
        lines = raw.decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise CorpusFormatError(
            f"{path}: invalid UTF-8 at byte offset {exc.start}"
        ) from exc
    # a trailing newline produces one empty trailing element, not a line
    if lines[-1] == "":
        lines.pop()
    return lines


def _cannot_write(path: str | Path, exc: OSError) -> CorpusFormatError:
    return CorpusFormatError(f"cannot write {path}: {exc.strerror or exc}")


@contextmanager
def replacing(path: str | Path) -> Iterator[Callable[[str], None]]:
    """Yield a function writing UTF-8 text to ``<path>.<pid>.tmp``, which
    replaces the file ``path`` names (through a symlink) when the block ends,
    so two processes writing one path never share a temporary file and the
    last to finish wins. On a failure it is removed and ``path`` keeps its
    old bytes. A device or pipe
    (``/dev/null``, ``/dev/stdout``) is written directly, since a rename
    would replace it. A failed file operation raises "cannot write <path>";
    any other exception from the block passes unchanged."""
    direct = os.path.exists(path) and not os.path.isfile(path)
    target = os.path.realpath(path)
    tmp = path if direct else f"{target}.{os.getpid()}.tmp"
    try:
        handle = open(tmp, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise _cannot_write(path, exc) from exc

    def write(text: str) -> None:
        try:
            handle.write(text)
        except OSError as exc:
            raise _cannot_write(path, exc) from exc

    try:
        yield write
        try:
            handle.close()
            if not direct:
                os.replace(tmp, target)
        except OSError as exc:
            raise _cannot_write(path, exc) from exc
    finally:
        with suppress(OSError):
            handle.close()  # a no-op once closed
        if not direct:
            Path(tmp).unlink(missing_ok=True)


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Replace ``path`` with the lines, each followed by "\\n", 1024 at a time."""
    lines = iter(lines)
    with replacing(path) as write:
        while chunk := list(islice(lines, 1024)):
            write("\n".join(chunk) + "\n")


def check_line_counts(*files: tuple[str | Path, Sized]) -> None:
    """Require the same number of lines in every (path, lines) pair."""
    if len({len(lines) for _, lines in files}) > 1:
        raise CorpusFormatError(
            "line counts disagree: "
            + ", ".join(f"{path}={len(lines)}" for path, lines in files)
        )


def _parse_line(
    line: str, path: str | Path, lineno: int, empty_ok: bool = False
) -> Sentence:
    tokens = tuple(line.split())
    if not (tokens or empty_ok):
        raise CorpusFormatError(f"{path}:{lineno}: empty line")
    # one scan of the whole line; the tokens are searched only to name one
    if "<" in line or ">" in line:
        token = next(token for token in tokens if "<" in token or ">" in token)
        raise CorpusFormatError(
            f"{path}:{lineno}: token {token!r} contains a reserved angle bracket"
        )
    return tokens


def load_sentences(path: str | Path, *, empty_ok: bool = False) -> list[Sentence]:
    """Read and validate one corpus side: no reserved tokens, and no empty
    lines unless ``empty_ok``, where an empty line is an empty sentence."""
    return [
        _parse_line(line, path, lineno, empty_ok)
        for lineno, line in enumerate(read_lines(path), start=1)
    ]


def read_sentences(path: str | Path) -> list[Sentence]:
    """Read token sequences without corpus validation, for decoded output
    only (``extract``, ``mbr`` and ``bleu`` inputs), whose lines may hold
    marker tokens or be empty."""
    return [tuple(line.split()) for line in read_lines(path)]


def write_sentences(sentences: Iterable[Sentence], path: str | Path) -> None:
    write_lines(path, map(" ".join, sentences))


def load_parallel(src_path: str | Path, tgt_path: str | Path) -> ParallelCorpus:
    """Load two line-aligned corpus files.

    Raises CorpusFormatError naming the offending file and line for encoding
    problems, empty lines, reserved tokens, or a line-count mismatch.
    """
    src_lines = read_lines(src_path)
    tgt_lines = read_lines(tgt_path)
    check_line_counts((src_path, src_lines), (tgt_path, tgt_lines))
    pairs = []
    for lineno, (src_line, tgt_line) in enumerate(
        zip(src_lines, tgt_lines), start=1
    ):
        src = _parse_line(src_line, src_path, lineno)
        tgt = _parse_line(tgt_line, tgt_path, lineno)
        pairs.append((src, tgt))
    return ParallelCorpus(pairs=tuple(pairs))


def count_words(sentences: Iterable[Sentence]) -> Counter[str]:
    """Count word frequencies, in first-seen order, which keeps everything
    built on top of the counts deterministic."""
    counts: Counter[str] = Counter()
    for sentence in sentences:
        counts.update(sentence)
    if not counts:
        raise CorpusFormatError("cannot build a vocabulary from an empty corpus")
    return counts


def write_vocab(vocab: dict[str, int], path: str | Path) -> None:
    """Write "token count" lines, most frequent first, ties alphabetical."""
    items = sorted(vocab.items(), key=lambda item: (-item[1], item[0]))
    write_lines(path, (f"{token} {count}" for token, count in items))
