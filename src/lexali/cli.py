"""Command line front end.

Every subcommand reads and writes fixed artifact names inside the working
directory given by --out, declared once per stage in STAGES, so running the
full pipeline is byte-identical to chaining the individual subcommands by
hand. Each stage option is declared once, in OPTIONS, as the add_argument
keywords of its flag: argparse parses, defaults and requires every option.
Every command that writes into --out, the pipeline and each stage, holds a
lock file there while it runs; the pipeline also records a manifest of
artifact checksums. The pipeline reads and validates --src and --tgt once,
in align, and hands each value a stage writes on to later stages in memory
until its last reader has run; it reads back from --out only align's two
alignment files. A stage subcommand reads and validates its own files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import contextmanager, suppress
from functools import cache, partial
from pathlib import Path
from typing import Any

from . import __version__, augment, bleu, bpe, corpus, mbr, model1, sequences, symmetrize
from .errors import LexaliError

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

_UTILITY_ALIASES = {
    "chrf": "chrf",
    "sbleu": "sentence_bleu",
    "exact": "exact_match",
}


def _parse_int(value: str, key: str, minimum: int) -> int:
    # ASCII digits only, as every file reader takes them: int() would also
    # read "1_0" and fullwidth digits
    if not (value.isascii() and value.removeprefix("-").isdigit()):
        raise LexaliError(f"{key} must be an integer, got {value!r}")
    try:
        parsed = int(value)
    except ValueError:  # more digits than int() converts
        raise LexaliError(f"{key} has more than {sys.get_int_max_str_digits()} digits") from None
    if parsed < minimum:
        raise LexaliError(f"{key} must be >= {minimum}, got {parsed}")
    return parsed


def _parse_path(value: str, key: str) -> str:
    path = Path(value)
    if not path.exists():
        raise LexaliError(f"{key} path does not exist: {value}")
    if not path.is_file():
        raise LexaliError(f"{key} path is not a file: {value}")
    return value


def _parse_out(value: str) -> str:
    # an empty path would name the current directory
    if not value:
        raise LexaliError("out must not be empty")
    return value


def _parse_segments(value: str) -> tuple[augment.SegmentKind, ...]:
    kinds = []
    for name in (part.strip() for part in value.split(",")):
        try:
            kinds.append(augment.SegmentKind[name.upper()])
        except KeyError:
            raise LexaliError(f"unknown segment kind {name!r}") from None
    if len(set(kinds)) != len(kinds):
        raise LexaliError(f"duplicate segment kind in {value!r}")
    if augment.SegmentKind.TGT not in kinds:
        raise LexaliError("segments must include tgt")
    return tuple(kinds)


# Every stage option, once, as the add_argument keywords of its flag: the
# parser of its string value, and its default string or required=True. The
# stage and pipeline flags and the manifest's config section are both built
# from this table.
OPTIONS: dict[str, dict[str, object]] = {
    "src": dict(type=partial(_parse_path, key="src"), required=True),
    "tgt": dict(type=partial(_parse_path, key="tgt"), required=True),
    "out": dict(type=_parse_out, required=True),
    "iterations": dict(type=partial(_parse_int, key="iterations", minimum=1), default="5"),
    "merges": dict(type=partial(_parse_int, key="merges", minimum=0), default="500"),
    "segments": dict(type=_parse_segments, default="lex,ali,tgt"),
    "mode": dict(choices=("simple", "full"), default="full"),
    "vocab_threshold": dict(type=partial(_parse_int, key="vocab_threshold", minimum=1), default="1"),
}

# The stage subcommands in pipeline order, each with its help text, the
# options it takes, the artifacts it may read from --out, in the order it
# reads them, and the artifacts it writes there. Subcommand "x-y" runs the
# module function stage_x_y, looked up by name at call time.
STAGES: dict[str, tuple[str, tuple[str, ...], tuple[str, ...], tuple[str, ...]]] = {
    "align": ("train both translation tables and align", ("src", "tgt", "out", "iterations"),
              (), (TABLE_T2S, TABLE_S2T, ALIGN_T2S, ALIGN_S2T)),
    "symmetrize": ("intersect the two alignment files", ("src", "tgt", "out"),
                   (ALIGN_T2S, ALIGN_S2T), (ALIGN_INTERSECT,)),
    "lexicon": ("extract the bilingual lexicon", ("src", "tgt", "out"),
                (ALIGN_INTERSECT,), (LEXICON,)),
    "lex": ("translate the source word for word", ("src", "out"), (LEXICON,), (LEX_WORDS,)),
    "ali": ("reorder the lex sequence into target order", ("tgt", "out"),
            (LEX_WORDS, ALIGN_T2S), (ALI_WORDS,)),
    "bpe-learn": ("learn byte-pair merges", ("src", "tgt", "out", "merges"), (), (MERGES,)),
    "bpe-apply": ("apply the learned merges everywhere", ("src", "tgt", "out", "vocab_threshold"),
                  (MERGES, LEX_WORDS, ALI_WORDS), (SRC_BPE, TGT_BPE, LEX_BPE, ALI_BPE, TGT_VOCAB)),
    # only the sides --segments names are read
    "augment": ("emit permutation training examples", ("out", "segments", "mode"),
                (SRC_BPE, TGT_BPE, LEX_BPE, ALI_BPE), (AUG_SRC, AUG_TGT, AUG_MANIFEST)),
}

PIPELINE_ARTIFACTS = tuple(name for *_, writes in STAGES.values() for name in writes)

# The last stage to read each value a pipeline holds: an artifact from its
# reads column, and the corpus of --src and --tgt where its options name either
_CORPUS = "--src --tgt"
_LAST_READER = {
    name: command for command, (_, options, reads, _) in STAGES.items()
    for name in (*reads, *((_CORPUS,) if {"src", "tgt"} & set(options) else ()))
}


# ---------------------------------------------------------------- stages

# While cmd_pipeline runs, the values its stages read, by artifact name: the
# corpus, read in align, and the exact object each stage wrote to --out for a
# later one; each is dropped after its last reader. Otherwise None, and every
# stage reads its files. symmetrize still reads align's two alignment files
# back and hands ali the tgt->src maps it parsed, because the benchmark's mini
# round must measure model1.read_maps_s until it also runs the chained stage
# subcommands (ROADMAP item 1).
_held: dict[str, Any] | None = None


def _hold(name: str, value: Any) -> Any:
    if _held is not None:
        _held[name] = value
    return value


def _take(name: str, read: Callable[[], Any]) -> Any:
    """The value held under ``name``, or else what ``read`` returns, then held."""
    return _held[name] if _held and name in _held else _hold(name, read())


def stage_align(src: str, tgt: str, out: Path, iterations: int) -> None:
    pair_corpus = _take(_CORPUS, partial(corpus.load_parallel, src, tgt))
    for direction, table_name, align_name in ((model1.TGT_TO_SRC, TABLE_T2S, ALIGN_T2S),
                                              (model1.SRC_TO_TGT, TABLE_S2T, ALIGN_S2T)):
        table = model1.train_model1(pair_corpus, direction, iterations)
        model1.write_table(table, out / table_name)
        model1.write_alignments([model1.viterbi_align(table, pair) for pair in pair_corpus.pairs],
                                out / align_name)
        del table  # freed before the next direction trains


def stage_symmetrize(src: str, tgt: str, out: Path) -> None:
    pairs = _take(_CORPUS, partial(corpus.load_parallel, src, tgt)).pairs
    lengths = [(len(s), len(t)) for s, t in pairs]
    forward = _hold(ALIGN_T2S, model1.read_alignment_maps(out / ALIGN_T2S, lengths))
    backward = model1.read_alignment_maps(out / ALIGN_S2T, [(t, s) for s, t in lengths])
    links = [symmetrize.intersect_maps(f, b) for f, b in zip(forward, backward)]
    symmetrize.write_links(_hold(ALIGN_INTERSECT, links), out / ALIGN_INTERSECT)


def stage_lexicon(src: str, tgt: str, out: Path) -> None:
    pair_corpus = _take(_CORPUS, partial(corpus.load_parallel, src, tgt))
    links = _take(ALIGN_INTERSECT, lambda: symmetrize.read_links(
        out / ALIGN_INTERSECT, [(len(s), len(t)) for s, t in pair_corpus.pairs]
    ))
    lexicon = symmetrize.extract_lexicon(pair_corpus, links)
    symmetrize.write_lexicon(_hold(LEXICON, lexicon), out / LEXICON)


def stage_lex(src: str, out: Path) -> None:
    # the source side of the pipeline's corpus, or else the file --src names
    sentences = (corpus.load_sentences(src) if _held is None
                 else [s for s, _ in _held[_CORPUS].pairs])
    lexicon = _take(LEXICON, partial(symmetrize.read_lexicon, out / LEXICON))
    lex = [sequences.make_lex(sentence, lexicon) for sentence in sentences]
    corpus.write_sentences(_hold(LEX_WORDS, lex), out / LEX_WORDS)


def stage_ali(tgt: str, out: Path) -> None:
    lex_sentences = _take(LEX_WORDS, partial(corpus.load_sentences, out / LEX_WORDS))
    # the target side of the pipeline's corpus, or else the file --tgt names
    tgt_sentences = (corpus.load_sentences(tgt) if _held is None
                     else [t for _, t in _held[_CORPUS].pairs])
    corpus.check_line_counts((out / LEX_WORDS, lex_sentences), (tgt, tgt_sentences))
    alignments = _take(ALIGN_T2S, lambda: model1.read_alignment_maps(
        out / ALIGN_T2S, [(len(lex), len(t)) for lex, t in zip(lex_sentences, tgt_sentences)]
    ))
    ali = [sequences.make_ali(lex, links) for lex, links in zip(lex_sentences, alignments)]
    corpus.write_sentences(_hold(ALI_WORDS, ali), out / ALI_WORDS)


def stage_bpe_learn(src: str, tgt: str, out: Path, merges: int) -> None:
    pairs = _take(_CORPUS, partial(corpus.load_parallel, src, tgt)).pairs
    # source words first, then the target words not seen yet
    counts = corpus.count_words([s for s, _ in pairs] + [t for _, t in pairs])
    table = bpe.learn_bpe(counts, merges)
    bpe.write_merges(_hold(MERGES, table), out / MERGES)


def stage_bpe_apply(src: str, tgt: str, out: Path, vocab_threshold: int) -> None:
    table = _take(MERGES, partial(bpe.read_merges, out / MERGES))
    segment = bpe.make_segmenter(table)

    pairs = _take(_CORPUS, partial(corpus.load_parallel, src, tgt)).pairs
    lex = _take(LEX_WORDS, partial(corpus.load_sentences, out / LEX_WORDS))
    # an all-NULL target gives an empty train.ali line
    ali = _take(ALI_WORDS, partial(corpus.load_sentences, out / ALI_WORDS, empty_ok=True))
    corpus.check_line_counts((src, pairs), (out / LEX_WORDS, lex), (out / ALI_WORDS, ali))
    src_bpe = [segment(s) for s, _ in pairs]
    corpus.write_sentences(_hold(SRC_BPE, src_bpe), out / SRC_BPE)
    tgt_bpe = [segment(t) for _, t in pairs]
    corpus.write_sentences(_hold(TGT_BPE, tgt_bpe), out / TGT_BPE)

    # the subword vocabulary that constrains the intermediate sequences is
    # counted over the segmented target side only
    tgt_vocab = corpus.count_words(tgt_bpe)
    corpus.write_vocab(tgt_vocab, out / TGT_VOCAB)

    constrained = bpe.make_segmenter(table, tgt_vocab, vocab_threshold)
    corpus.write_sentences(_hold(LEX_BPE, list(map(constrained, lex))), out / LEX_BPE)
    corpus.write_sentences(_hold(ALI_BPE, list(map(constrained, ali))), out / ALI_BPE)


def stage_augment(out: Path, segments: Sequence[augment.SegmentKind], mode: str) -> None:
    kinds = augment.SegmentKind
    files = {kinds.TGT: TGT_BPE, kinds.LEX: LEX_BPE, kinds.ALI: ALI_BPE}
    # the source, then only the configured sides, in the order src, tgt, lex,
    # ali; an all-NULL target gives an empty train.ali.bpe line
    sides = {
        name: _take(name, partial(corpus.load_sentences, out / name, empty_ok=name == ALI_BPE))
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
def _claimed(args: argparse.Namespace) -> Iterator[Path]:
    """Refuse a --src or --tgt that is a file the pipeline writes in --out,
    then create --out and hold its LOCK, which holds the pid of this run,
    until the block ends."""
    _check_outputs(
        [(f"--{name}", getattr(args, name)) for name in ("src", "tgt") if hasattr(args, name)],
        [("", os.path.join(args.out, name)) for name in (*PIPELINE_ARTIFACTS, RUN_MANIFEST)],
    )
    path = Path(args.out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise LexaliError(
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
        raise LexaliError(
            "output directory is locked"
            + (f" by pid {owner}" if owner.isdigit() else "")
            + f"; remove {lock} if no other run is active"
        ) from None
    except OSError as exc:
        raise LexaliError(f"cannot write {lock}: {exc.strerror or exc}") from None
    pid = f"{os.getpid()}\n".encode("ascii")
    try:
        try:
            os.write(fd, pid)
        except OSError as exc:
            os.unlink(lock)
            raise LexaliError(f"cannot write {lock}: {exc.strerror or exc}") from None
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


def _check_outputs(inputs: Iterable[tuple[str, str]], outputs: Iterable[tuple[str, str]]) -> None:
    """Refuse an output that names the same file as an input or an earlier
    output, since writing it would destroy that file; called before anything
    is read. Each file comes with the flag that gave it, or "" where the
    command names it itself (mbr's candidates, the artifacts in --out); the
    message names the flag the user gave."""
    read = {os.path.realpath(path): (flag, path) for flag, path in inputs}
    written: dict[str, str] = {}
    for flag, path in outputs:
        real = os.path.realpath(path)
        if real in read:
            raise LexaliError(
                f"{flag} names an input file: {path}" if flag
                else "{} names an output file: {}".format(*read[real])
            )
        if real in written:
            raise LexaliError(f"{flag} and {written[real]} name the same file: {path}")
        if flag:
            written[real] = flag


def cmd_stage(args: argparse.Namespace) -> int:
    with _claimed(args) as out:
        _run_stage(args.command, args, out)
    return 0


def cmd_extract(args: argparse.Namespace) -> int:
    _check_outputs([("--input", args.input)], [("--output", args.output)])
    kind = augment.SegmentKind[args.kind.upper()]
    outputs = corpus.read_sentences(args.input)
    extracted: list[corpus.Sentence] = []
    missing = 0
    for lineno, sentence in enumerate(outputs, start=1):
        try:
            segment = augment.extract_segment(sentence, kind)
        except LexaliError as error:
            raise LexaliError(f"{args.input}:{lineno}: {error}") from error
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
    outputs = [("--output", args.output)]
    if args.scores:
        outputs.append(("--scores", args.scores))
    _check_outputs([("", path) for path in args.candidates], outputs)
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
    global _held
    with _claimed(args) as out:
        _held = {}
        try:
            for command in STAGES:
                try:
                    _run_stage(command, args, out)
                except LexaliError as exc:
                    raise LexaliError(f"stage {command} failed: {exc}") from exc
                _held = {name: v for name, v in _held.items() if _LAST_READER[name] != command}
        finally:
            _held = None
        write_run_manifest(args, out)
    return 0


# ---------------------------------------------------------------- parser


@cache
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
            option = OPTIONS[name]
            sub.add_argument(
                "--" + name.replace("_", "-"),
                dest=name,
                help="required" if option.get("required") else "default: %(default)s",
                **option,
            )

    for command, (help_text, names, _, _) in STAGES.items():
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
    add_options(sub, OPTIONS)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        # argparse turns only an ArgumentTypeError, TypeError or ValueError
        # from a type= parser into a usage error, so a LexaliError from an
        # OPTIONS parser reaches the handler below like any other
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except LexaliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
