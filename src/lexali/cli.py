"""Command line front end.

Every subcommand reads and writes fixed artifact names inside the working
directory given by --out, so running the full pipeline is byte-identical to
chaining the individual subcommands by hand. Each stage option is declared
once, in OPTIONS; its value comes from a command line flag, else (for the
pipeline) an optional "key = value" configuration file, else its default.
Every command that writes into --out, the pipeline and each stage, holds a
lock file there while it runs; the pipeline also records a manifest of
artifact checksums.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from contextlib import contextmanager, suppress
from functools import partial
from pathlib import Path

from . import __version__, augment, bleu, bpe, corpus, mbr, model1, sequences, symmetrize
from .errors import ConfigError, LexaliError, MarkerError, PipelineError

TABLE_T2S = "model1.tgt_to_src.txt"
TABLE_S2T = "model1.src_to_tgt.txt"
ALIGN_T2S = "align.tgt_to_src.txt"
ALIGN_S2T = "align.src_to_tgt.txt"
ALIGN_INTERSECT = "align.intersect.txt"
LEXICON = "lexicon.tsv"
LEX_WORDS = "train.lex"
ALI_WORDS = "train.ali"
MERGES = "bpe.merges"
SRC_BPE = "train.src.bpe"
TGT_BPE = "train.tgt.bpe"
LEX_BPE = "train.lex.bpe"
ALI_BPE = "train.ali.bpe"
TGT_VOCAB = "vocab.tgt.bpe"
AUG_SRC = "augmented.src"
AUG_TGT = "augmented.tgt"
AUG_MANIFEST = "augmented.manifest.tsv"
RUN_MANIFEST = "manifest.json"
LOCK_FILE = "LOCK"

PIPELINE_ARTIFACTS = (
    TABLE_T2S,
    TABLE_S2T,
    ALIGN_T2S,
    ALIGN_S2T,
    ALIGN_INTERSECT,
    LEXICON,
    LEX_WORDS,
    ALI_WORDS,
    MERGES,
    SRC_BPE,
    TGT_BPE,
    LEX_BPE,
    ALI_BPE,
    TGT_VOCAB,
    AUG_SRC,
    AUG_TGT,
    AUG_MANIFEST,
)

_UTILITY_ALIASES = {
    "chrf": "chrf",
    "sbleu": "sentence_bleu",
    "exact": "exact_match",
}


def _parse_int(value: str, key: str, minimum: int) -> int:
    # ASCII digits only, as every file reader takes them: int() would also
    # read "1_0" and fullwidth digits
    if not (value.isascii() and value.removeprefix("-").isdigit()):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    parsed = int(value)
    if parsed < minimum:
        raise ConfigError(f"{key} must be >= {minimum}, got {parsed}")
    return parsed


def _parse_path(value: str, key: str) -> str:
    path = Path(value)
    if not path.exists():
        raise ConfigError(f"{key} path does not exist: {value}")
    if not path.is_file():
        raise ConfigError(f"{key} path is not a file: {value}")
    return value


def _parse_segments(value: str) -> tuple[augment.SegmentKind, ...]:
    names = [part.strip() for part in value.split(",") if part.strip()]
    kinds = []
    for name in names:
        try:
            kinds.append(augment.SegmentKind[name.upper()])
        except KeyError:
            raise ConfigError(f"unknown segment kind {name!r}") from None
    if len(set(kinds)) != len(kinds):
        raise ConfigError(f"duplicate segment kind in {value!r}")
    if augment.SegmentKind.TGT not in kinds:
        raise ConfigError("segments must include tgt")
    return tuple(kinds)


def _parse_mode(value: str) -> str:
    if value not in ("simple", "full"):
        raise ConfigError(f"mode must be 'simple' or 'full', got {value!r}")
    return value


# Every stage option, once: the parser of its string value and its default
# string (None: required). The stage and pipeline flags, the config file keys
# and the manifest's config section are all built from this table.
OPTIONS: dict[str, tuple[Callable[[str], object], str | None]] = {
    "src": (partial(_parse_path, key="src"), None),
    "tgt": (partial(_parse_path, key="tgt"), None),
    "out": (str, None),
    "iterations": (partial(_parse_int, key="iterations", minimum=1), "5"),
    "merges": (partial(_parse_int, key="merges", minimum=0), "500"),
    "segments": (_parse_segments, "lex,ali,tgt"),
    "mode": (_parse_mode, "full"),
    "vocab_threshold": (partial(_parse_int, key="vocab_threshold", minimum=1), "1"),
}

# The stage subcommands in pipeline order, each with its help text and the
# options it takes. Subcommand "x-y" runs the module function stage_x_y,
# looked up by name at call time.
STAGES: dict[str, tuple[str, tuple[str, ...]]] = {
    "align": ("train both translation tables and align", ("src", "tgt", "out", "iterations")),
    "symmetrize": ("intersect the two alignment files", ("src", "tgt", "out")),
    "lexicon": ("extract the bilingual lexicon", ("src", "tgt", "out")),
    "lex": ("translate the source word for word", ("src", "out")),
    "ali": ("reorder the lex sequence into target order", ("tgt", "out")),
    "bpe-learn": ("learn byte-pair merges", ("src", "tgt", "out", "merges")),
    "bpe-apply": ("apply the learned merges everywhere", ("src", "tgt", "out", "vocab_threshold")),
    "augment": ("emit permutation training examples", ("out", "segments", "mode")),
}


def read_config_file(path: str | Path) -> dict[str, str]:
    """Parse "key = value" lines, one option name of OPTIONS per line.

    '#' always starts a comment, so a value cannot contain '#'. Blank lines
    are skipped; an unknown, repeated or empty key is an error.
    """
    values: dict[str, str] = {}
    for lineno, raw in enumerate(corpus.read_lines(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key = key.strip()
        value = value.strip()
        if key not in OPTIONS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: key {key!r} given twice")
        if not value:
            raise ConfigError(f"{path}:{lineno}: empty value for {key!r}")
        values[key] = value
    return values


def resolve(
    args: argparse.Namespace, names: Iterable[str], file_values: Mapping[str, str]
) -> argparse.Namespace:
    """Parse each named option from its flag, else the config file, else
    its default."""
    resolved = argparse.Namespace()
    for name in names:
        parse, default = OPTIONS[name]
        value = getattr(args, name, None)
        if value is None:
            value = file_values.get(name, default)
        if value is None:
            raise ConfigError(f"missing required option {name!r}")
        setattr(resolved, name, parse(value))
    return resolved


def resolve_config(args: argparse.Namespace) -> argparse.Namespace:
    """Resolve every option for the pipeline, reading --config if given."""
    file_values = read_config_file(args.config) if getattr(args, "config", None) else {}
    return resolve(args, OPTIONS, file_values)


# ---------------------------------------------------------------- stages


def stage_align(src: str, tgt: str, out: Path, iterations: int) -> None:
    pair_corpus = corpus.load_parallel(src, tgt)
    _align_direction(pair_corpus, model1.TGT_TO_SRC, iterations, out / TABLE_T2S, out / ALIGN_T2S)
    _align_direction(pair_corpus, model1.SRC_TO_TGT, iterations, out / TABLE_S2T, out / ALIGN_S2T)


def _align_direction(
    pair_corpus: corpus.ParallelCorpus, direction: model1.Direction, iterations: int,
    table_path: Path, align_path: Path,
) -> None:
    """Train, write and apply one direction's table, freed before the next trains."""
    table = model1.train_model1(pair_corpus, direction, iterations)
    model1.write_table(table, table_path)
    alignments = [model1.viterbi_align(table, pair) for pair in pair_corpus.pairs]
    model1.write_alignments(alignments, align_path)


def stage_symmetrize(src: str, tgt: str, out: Path) -> None:
    pairs = corpus.load_parallel(src, tgt).pairs
    forward = model1.read_alignment_maps(
        out / ALIGN_T2S, [(len(s), len(t)) for s, t in pairs]
    )
    backward = model1.read_alignment_maps(
        out / ALIGN_S2T, [(len(t), len(s)) for s, t in pairs]
    )
    links = [
        symmetrize.intersect_maps(f, b) for f, b in zip(forward, backward)
    ]
    symmetrize.write_links(links, out / ALIGN_INTERSECT)


def stage_lexicon(src: str, tgt: str, out: Path) -> None:
    pair_corpus = corpus.load_parallel(src, tgt)
    links = symmetrize.read_links(
        out / ALIGN_INTERSECT, [(len(s), len(t)) for s, t in pair_corpus.pairs]
    )
    lexicon = symmetrize.extract_lexicon(pair_corpus, links)
    symmetrize.write_lexicon(lexicon, out / LEXICON)


def stage_lex(src: str, out: Path) -> None:
    sentences = corpus.load_sentences(src)
    lexicon = symmetrize.read_lexicon(out / LEXICON)
    corpus.write_sentences(
        (sequences.make_lex(sentence, lexicon) for sentence in sentences),
        out / LEX_WORDS,
    )


def stage_ali(tgt: str, out: Path) -> None:
    lex_sentences = corpus.load_sentences(out / LEX_WORDS)
    tgt_sentences = corpus.load_sentences(tgt)
    corpus.check_line_counts((out / LEX_WORDS, lex_sentences), (tgt, tgt_sentences))
    alignments = model1.read_alignment_maps(
        out / ALIGN_T2S,
        [(len(lex), len(t)) for lex, t in zip(lex_sentences, tgt_sentences)],
    )
    ali = [
        sequences.make_ali(lex, links)
        for lex, links in zip(lex_sentences, alignments)
    ]
    corpus.write_sentences(ali, out / ALI_WORDS)


def stage_bpe_learn(src: str, tgt: str, out: Path, merges: int) -> None:
    pairs = corpus.load_parallel(src, tgt).pairs
    # source words first, then the target words not seen yet
    counts = corpus.count_words([s for s, _ in pairs] + [t for _, t in pairs])
    table = bpe.learn_bpe(counts, merges)
    bpe.write_merges(table, out / MERGES)


def stage_bpe_apply(src: str, tgt: str, out: Path, vocab_threshold: int) -> None:
    table = bpe.read_merges(out / MERGES)
    segment = bpe.make_segmenter(table)

    pairs = corpus.load_parallel(src, tgt).pairs
    lex = corpus.load_sentences(out / LEX_WORDS)
    # an all-NULL target gives an empty train.ali line
    ali = corpus.load_sentences(out / ALI_WORDS, empty_ok=True)
    corpus.check_line_counts((src, pairs), (out / LEX_WORDS, lex), (out / ALI_WORDS, ali))
    src_bpe = [segment(s) for s, _ in pairs]
    corpus.write_sentences(src_bpe, out / SRC_BPE)
    tgt_bpe = [segment(t) for _, t in pairs]
    corpus.write_sentences(tgt_bpe, out / TGT_BPE)

    # the subword vocabulary that constrains the intermediate sequences is
    # counted over the segmented target side only
    tgt_vocab = corpus.count_words(tgt_bpe)
    corpus.write_vocab(tgt_vocab, out / TGT_VOCAB)

    constrained = bpe.make_segmenter(table, tgt_vocab, vocab_threshold)
    corpus.write_sentences(map(constrained, lex), out / LEX_BPE)
    corpus.write_sentences(map(constrained, ali), out / ALI_BPE)


def stage_augment(out: Path, segments: Sequence[augment.SegmentKind], mode: str) -> None:
    kinds = augment.SegmentKind
    files = {kinds.TGT: TGT_BPE, kinds.LEX: LEX_BPE, kinds.ALI: ALI_BPE}
    # the source, then only the configured sides, in the order src, tgt, lex,
    # ali; an all-NULL target gives an empty train.ali.bpe line
    sides = {
        name: corpus.load_sentences(out / name, empty_ok=name == ALI_BPE)
        for name in (SRC_BPE, *(files[kind] for kind in files if kind in segments))
    }
    corpus.check_line_counts(*((out / name, lines) for name, lines in sides.items()))
    columns = {kind: sides[files[kind]] for kind in segments}
    examples = augment.augment_corpus(sides[SRC_BPE], columns, mode)
    augment.write_augmented(
        examples, out / AUG_SRC, out / AUG_TGT, out / AUG_MANIFEST
    )


# ---------------------------------------------------------------- manifest


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _config_strings(config: argparse.Namespace) -> dict[str, str]:
    """The canonical string of every option, as the manifest records it."""
    strings = {}
    for name in OPTIONS:
        value = getattr(config, name)
        if isinstance(value, tuple):
            value = ",".join(kind.name.lower() for kind in value)
        strings[name] = str(value)
    return strings


def config_sha256(config: argparse.Namespace) -> str:
    canonical = "\n".join(
        f"{key} = {value}" for key, value in sorted(_config_strings(config).items())
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_run_manifest(config: argparse.Namespace, out: Path) -> None:
    manifest = {
        "tool": "lexali",
        "version": __version__,
        "config": _config_strings(config),
        "config_sha256": config_sha256(config),
        "artifacts": {
            name: _sha256_file(out / name) for name in PIPELINE_ARTIFACTS
        },
    }
    corpus.write_lines(
        out / RUN_MANIFEST, [json.dumps(manifest, indent=2, sort_keys=True)]
    )


# ---------------------------------------------------------------- commands


@contextmanager
def _claimed(out: str) -> Iterator[Path]:
    """Create the working directory and hold its LOCK, which holds the pid
    of this run, until the block ends."""
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            f"cannot create output directory {path}: {exc.strerror or exc}"
        ) from None
    lock = path / LOCK_FILE
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        try:
            owner = lock.read_bytes().decode("ascii").strip()
        except (OSError, UnicodeDecodeError):
            owner = ""
        raise PipelineError(
            "output directory is locked"
            + (f" by pid {owner}" if owner.isdigit() else "")
            + f"; remove {lock} if no other run is active"
        ) from None
    except OSError as exc:
        raise PipelineError(f"cannot write {lock}: {exc.strerror or exc}") from None
    pid = f"{os.getpid()}\n".encode("ascii")
    try:
        try:
            os.write(fd, pid)
        except OSError as exc:
            os.unlink(lock)
            raise PipelineError(f"cannot write {lock}: {exc.strerror or exc}") from None
        finally:
            os.close(fd)
        yield path
    finally:
        # a LOCK removed during the run, or taken by another run, stays as it is
        with suppress(OSError):
            if lock.read_bytes() == pid:
                lock.unlink()


def _run_stage(command: str, config: argparse.Namespace, out: Path) -> None:
    # looked up through the module globals, so that a wrapper installed on
    # the module attribute is the function that runs
    stage = globals()["stage_" + command.replace("-", "_")]
    kwargs = {name: getattr(config, name) for name in STAGES[command][1]}
    kwargs["out"] = out
    stage(**kwargs)


def cmd_stage(args: argparse.Namespace) -> int:
    config = resolve(args, STAGES[args.command][1], {})
    with _claimed(config.out) as out:
        _run_stage(args.command, config, out)
    return 0


def cmd_extract(args: argparse.Namespace) -> int:
    kind = augment.SegmentKind[args.kind.upper()]
    outputs = corpus.read_sentences(args.input)
    extracted: list[corpus.Sentence] = []
    missing = 0
    for lineno, sentence in enumerate(outputs, start=1):
        try:
            segment = augment.extract_segment(sentence, kind)
        except MarkerError as error:
            raise MarkerError(f"{args.input}:{lineno}: {error}") from error
        if segment is None:
            missing += 1
            segment = ()
        extracted.append(segment)
    corpus.write_sentences(extracted, args.output)
    if missing:
        print(
            f"{missing} of {len(outputs)} outputs had no {kind.marker} marker",
            file=sys.stderr,
        )
    return 0


def cmd_mbr(args: argparse.Namespace) -> int:
    if args.scores and os.path.realpath(args.scores) == os.path.realpath(args.output):
        raise ConfigError(f"--scores and --output name the same file: {args.scores}")
    kind = _UTILITY_ALIASES[args.utility]
    candidate_files = [corpus.read_sentences(path) for path in args.candidates]
    corpus.check_line_counts(*zip(args.candidates, candidate_files))
    consensus: list[corpus.Sentence] = []
    score_lines: list[str] = []
    for pool in zip(*candidate_files):
        scores = mbr.expected_utilities(pool, kind)
        consensus.append(tuple(pool[mbr.best_index(scores)]))
        cells = [f"{s:.6f}" for s in scores]
        empty = [str(i) for i, cand in enumerate(pool) if not cand]
        if empty:
            cells.append("empty=" + ",".join(empty))
        score_lines.append("\t".join(cells))
    corpus.write_sentences(consensus, args.output)
    if args.scores:
        corpus.write_lines(args.scores, score_lines)
    return 0


def cmd_bleu(args: argparse.Namespace) -> int:
    hypotheses = corpus.read_sentences(args.hyp)
    references = corpus.read_sentences(args.ref)
    corpus.check_line_counts((args.hyp, hypotheses), (args.ref, references))
    report = bleu.corpus_bleu(hypotheses, references)
    print(report.format())
    return 0


def cmd_pipeline(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    with _claimed(config.out) as out:
        for command in STAGES:
            try:
                _run_stage(command, config, out)
            except LexaliError as exc:
                raise PipelineError(f"stage {command} failed: {exc}") from exc
        write_run_manifest(config, out)
    return 0


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexali",
        description="alignment-based corpus pipeline and decoding utilities",
    )
    parser.add_argument(
        "--version", action="version", version=f"lexali {__version__}"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler: Callable, help_text: str) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=help_text)
        sub.set_defaults(handler=handler)
        return sub

    def add_options(sub: argparse.ArgumentParser, names: Iterable[str]) -> None:
        for name in names:
            default = OPTIONS[name][1]
            sub.add_argument(
                "--" + name.replace("_", "-"),
                dest=name,
                help="required" if default is None else f"default: {default}",
            )

    for command, (help_text, names) in STAGES.items():
        add_options(add(command, cmd_stage, help_text), names)

    sub = add("extract", cmd_extract, "slice one segment out of decoded output")
    sub.add_argument("--input", required=True)
    sub.add_argument("--kind", required=True, choices=["lex", "ali", "tgt"])
    sub.add_argument("--output", required=True)

    sub = add("mbr", cmd_mbr, "pick consensus translations from candidates")
    sub.add_argument("candidates", nargs="+")
    sub.add_argument("--utility", default="chrf", choices=_UTILITY_ALIASES)
    sub.add_argument("--output", required=True)
    sub.add_argument("--scores")

    sub = add("bleu", cmd_bleu, "score hypotheses against references")
    sub.add_argument("--hyp", required=True)
    sub.add_argument("--ref", required=True)

    sub = add("pipeline", cmd_pipeline, "run every stage and write a manifest")
    sub.add_argument("--config", help="file of 'key = value' lines; flags win")
    add_options(sub, OPTIONS)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except LexaliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
