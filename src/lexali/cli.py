"""Command line front end.

Every subcommand reads and writes fixed artifact names inside the working
directory given by --out, so running the full pipeline is byte-identical to
chaining the individual subcommands by hand. Options come from an optional
"key = value" configuration file plus command line flags; flags win. The
pipeline records a manifest of artifact checksums and holds a lock file for
the duration of the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

from . import __version__, augment, bleu, bpe, corpus, mbr, model1, sequences, symmetrize
from .errors import (
    AlignmentError,
    ConfigError,
    LexaliError,
    PipelineError,
    ScoringError,
)

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

_CONFIG_KEYS = (
    "src",
    "tgt",
    "out",
    "iterations",
    "merges",
    "segments",
    "mode",
    "utility",
    "seed",
    "vocab_threshold",
)


@dataclass(frozen=True)
class PipelineConfig:
    src: str
    tgt: str
    out: str
    iterations: int = 5
    merges: int = 500
    segments: tuple[augment.SegmentKind, ...] = (
        augment.SegmentKind.LEX,
        augment.SegmentKind.ALI,
        augment.SegmentKind.TGT,
    )
    mode: str = "full"
    utility: str = "chrf"
    seed: int = 0
    vocab_threshold: int = 1

    def as_strings(self) -> dict[str, str]:
        return {
            "src": self.src,
            "tgt": self.tgt,
            "out": self.out,
            "iterations": str(self.iterations),
            "merges": str(self.merges),
            "segments": ",".join(k.name.lower() for k in self.segments),
            "mode": self.mode,
            "utility": self.utility,
            "seed": str(self.seed),
            "vocab_threshold": str(self.vocab_threshold),
        }


def read_config_file(path: str | Path) -> dict[str, str]:
    """Parse "key = value" lines; '#' starts a comment, blank lines skipped."""
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if not value:
            raise ConfigError(f"{path}:{lineno}: empty value for {key!r}")
        values[key] = value
    return values


def _parse_int(value: str, key: str, minimum: int) -> int:
    try:
        parsed = int(value)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {value!r}") from None
    if parsed < minimum:
        raise ConfigError(f"{key} must be >= {minimum}, got {parsed}")
    return parsed


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


def _parse_utility(value: str) -> str:
    kind = _UTILITY_ALIASES.get(value, value)
    if kind not in mbr.UTILITY_KINDS:
        raise ConfigError(f"unknown utility {value!r}")
    return kind


def resolve_config(args: argparse.Namespace) -> PipelineConfig:
    """Merge config file values and flags; flags win, then defaults."""
    file_values: dict[str, str] = {}
    if getattr(args, "config", None):
        file_values = read_config_file(args.config)

    def pick(key: str) -> str | None:
        flag = getattr(args, key, None)
        if flag is not None:
            return str(flag)
        return file_values.get(key)

    src = pick("src")
    tgt = pick("tgt")
    out = pick("out")
    for name, value in (("src", src), ("tgt", tgt), ("out", out)):
        if value is None:
            raise ConfigError(f"missing required option {name!r}")
    for name, value in (("src", src), ("tgt", tgt)):
        if not Path(value).is_file():
            raise ConfigError(f"{name} path does not exist: {value}")

    defaults = PipelineConfig(src=src, tgt=tgt, out=out)
    iterations = pick("iterations")
    merges = pick("merges")
    segments = pick("segments")
    mode = pick("mode")
    utility = pick("utility")
    seed = pick("seed")
    vocab_threshold = pick("vocab_threshold")
    if mode is not None and mode not in ("simple", "full"):
        raise ConfigError(f"mode must be 'simple' or 'full', got {mode!r}")
    return PipelineConfig(
        src=src,
        tgt=tgt,
        out=out,
        iterations=(
            _parse_int(iterations, "iterations", 1)
            if iterations is not None
            else defaults.iterations
        ),
        merges=(
            _parse_int(merges, "merges", 0)
            if merges is not None
            else defaults.merges
        ),
        segments=(
            _parse_segments(segments) if segments is not None else defaults.segments
        ),
        mode=mode if mode is not None else defaults.mode,
        utility=(
            _parse_utility(utility) if utility is not None else defaults.utility
        ),
        seed=_parse_int(seed, "seed", 0) if seed is not None else defaults.seed,
        vocab_threshold=(
            _parse_int(vocab_threshold, "vocab_threshold", 1)
            if vocab_threshold is not None
            else defaults.vocab_threshold
        ),
    )


# ---------------------------------------------------------------- stages


def stage_align(src: str, tgt: str, out: Path, iterations: int) -> None:
    pair_corpus = corpus.load_parallel(src, tgt)
    for direction, table_name, align_name in (
        (model1.TGT_TO_SRC, TABLE_T2S, ALIGN_T2S),
        (model1.SRC_TO_TGT, TABLE_S2T, ALIGN_S2T),
    ):
        table = model1.train_model1(pair_corpus, direction, iterations)
        model1.write_table(table, out / table_name)
        alignments = [
            model1.viterbi_align(table, pair) for pair in pair_corpus.pairs
        ]
        model1.write_alignments(alignments, out / align_name)


def stage_symmetrize(out: Path) -> None:
    forward = model1.read_alignment_maps(out / ALIGN_T2S)
    backward = model1.read_alignment_maps(out / ALIGN_S2T)
    if len(forward) != len(backward):
        raise AlignmentError(
            f"{ALIGN_T2S} has {len(forward)} lines, "
            f"{ALIGN_S2T} has {len(backward)}"
        )
    links = [
        symmetrize.intersect_maps(f, b) for f, b in zip(forward, backward)
    ]
    symmetrize.write_links(links, out / ALIGN_INTERSECT)


def stage_lexicon(src: str, tgt: str, out: Path) -> None:
    pair_corpus = corpus.load_parallel(src, tgt)
    links = symmetrize.read_links(out / ALIGN_INTERSECT)
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
    lex_sentences = corpus.read_sentences(out / LEX_WORDS)
    tgt_sentences = corpus.load_sentences(tgt)
    maps = model1.read_alignment_maps(out / ALIGN_T2S)
    if not len(lex_sentences) == len(tgt_sentences) == len(maps):
        raise PipelineError(
            f"line counts disagree: {LEX_WORDS}={len(lex_sentences)}, "
            f"tgt={len(tgt_sentences)}, {ALIGN_T2S}={len(maps)}"
        )
    out_sentences = []
    for lineno, (lex, tgt_sentence, link_map) in enumerate(
        zip(lex_sentences, tgt_sentences, maps), start=1
    ):
        try:
            alignment = model1.alignment_from_map(
                link_map, len(tgt_sentence), len(lex)
            )
        except AlignmentError as error:
            raise AlignmentError(f"{out / ALIGN_T2S}:{lineno}: {error}") from error
        out_sentences.append(
            sequences.make_ali(lex, alignment, len(tgt_sentence))
        )
    corpus.write_sentences(out_sentences, out / ALI_WORDS)


def stage_bpe_learn(src: str, tgt: str, out: Path, merges: int) -> None:
    pair_corpus = corpus.load_parallel(src, tgt)
    counts = corpus.merge_counts(
        corpus.build_vocab(pair_corpus, "source"),
        corpus.build_vocab(pair_corpus, "target"),
    )
    table = bpe.learn_bpe(counts, merges)
    bpe.write_merges(table, out / MERGES)


def stage_bpe_apply(src: str, tgt: str, out: Path, vocab_threshold: int) -> None:
    table = bpe.read_merges(out / MERGES)
    segment = bpe.make_segmenter(table)

    src_bpe = [segment(s) for s in corpus.load_sentences(src)]
    corpus.write_sentences(src_bpe, out / SRC_BPE)
    tgt_bpe = [segment(s) for s in corpus.load_sentences(tgt)]
    corpus.write_sentences(tgt_bpe, out / TGT_BPE)

    # the subword vocabulary that constrains the intermediate sequences is
    # counted over the segmented target side only
    tgt_vocab: dict[str, int] = {}
    for sentence in tgt_bpe:
        for token in sentence:
            tgt_vocab[token] = tgt_vocab.get(token, 0) + 1
    corpus.write_vocab(tgt_vocab, out / TGT_VOCAB)

    constrained = bpe.make_segmenter(table, tgt_vocab, vocab_threshold)
    for in_name, out_name in ((LEX_WORDS, LEX_BPE), (ALI_WORDS, ALI_BPE)):
        segmented = [
            constrained(sentence)
            for sentence in corpus.read_sentences(out / in_name)
        ]
        corpus.write_sentences(segmented, out / out_name)


def stage_augment(
    out: Path, kinds: Sequence[augment.SegmentKind], mode: str
) -> None:
    src_sentences = corpus.read_sentences(out / SRC_BPE)
    tgt_sentences = corpus.read_sentences(out / TGT_BPE)
    lex_sentences = corpus.read_sentences(out / LEX_BPE)
    ali_sentences = corpus.read_sentences(out / ALI_BPE)
    lengths = {
        len(src_sentences),
        len(tgt_sentences),
        len(lex_sentences),
        len(ali_sentences),
    }
    if len(lengths) != 1:
        raise PipelineError(
            "segmented corpus files disagree on line count: "
            f"src={len(src_sentences)}, tgt={len(tgt_sentences)}, "
            f"lex={len(lex_sentences)}, ali={len(ali_sentences)}"
        )
    segment_sets = [
        augment.SegmentSet(source=src, tgt=tgt, lex=lex, ali=ali)
        for src, tgt, lex, ali in zip(
            src_sentences, tgt_sentences, lex_sentences, ali_sentences
        )
    ]
    examples = augment.augment_corpus(segment_sets, kinds, mode)
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


def config_sha256(config: PipelineConfig) -> str:
    canonical = "\n".join(
        f"{key} = {value}" for key, value in sorted(config.as_strings().items())
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_run_manifest(config: PipelineConfig, out: Path) -> None:
    manifest = {
        "tool": "lexali",
        "version": __version__,
        "config": config.as_strings(),
        "config_sha256": config_sha256(config),
        "artifacts": {
            name: _sha256_file(out / name) for name in PIPELINE_ARTIFACTS
        },
    }
    (out / RUN_MANIFEST).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


class _OutputLock:
    """Exclusive advisory lock on the working directory."""

    def __init__(self, out: Path) -> None:
        self.path = out / LOCK_FILE
        self._fd: int | None = None

    def __enter__(self) -> "_OutputLock":
        try:
            self._fd = os.open(
                self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY
            )
        except FileExistsError:
            raise PipelineError(
                f"output directory is locked; remove {self.path} if no other "
                "run is active"
            ) from None
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._fd is not None:
            os.close(self._fd)
            os.unlink(self.path)
            self._fd = None


# ---------------------------------------------------------------- commands


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_align(args: argparse.Namespace) -> int:
    if args.iterations < 1:
        raise ConfigError(f"iterations must be >= 1, got {args.iterations}")
    stage_align(args.src, args.tgt, _out_dir(args), args.iterations)
    return 0


def cmd_symmetrize(args: argparse.Namespace) -> int:
    stage_symmetrize(_out_dir(args))
    return 0


def cmd_lexicon(args: argparse.Namespace) -> int:
    stage_lexicon(args.src, args.tgt, _out_dir(args))
    return 0


def cmd_lex(args: argparse.Namespace) -> int:
    stage_lex(args.src, _out_dir(args))
    return 0


def cmd_ali(args: argparse.Namespace) -> int:
    stage_ali(args.tgt, _out_dir(args))
    return 0


def cmd_bpe_learn(args: argparse.Namespace) -> int:
    if args.merges < 0:
        raise ConfigError(f"merges must be >= 0, got {args.merges}")
    stage_bpe_learn(args.src, args.tgt, _out_dir(args), args.merges)
    return 0


def cmd_bpe_apply(args: argparse.Namespace) -> int:
    if args.vocab_threshold < 1:
        raise ConfigError(
            f"vocab-threshold must be >= 1, got {args.vocab_threshold}"
        )
    stage_bpe_apply(args.src, args.tgt, _out_dir(args), args.vocab_threshold)
    return 0


def cmd_augment(args: argparse.Namespace) -> int:
    kinds = _parse_segments(args.segments)
    if args.mode not in ("simple", "full"):
        raise ConfigError(f"mode must be 'simple' or 'full', got {args.mode!r}")
    stage_augment(_out_dir(args), kinds, args.mode)
    return 0


def cmd_extract(args: argparse.Namespace) -> int:
    try:
        kind = augment.SegmentKind[args.kind.upper()]
    except KeyError:
        raise ConfigError(f"unknown segment kind {args.kind!r}") from None
    outputs = corpus.read_sentences(args.input)
    extracted: list[corpus.Sentence] = []
    missing = 0
    for sentence in outputs:
        segment = augment.extract_segment(sentence, kind)
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
    kind = _parse_utility(args.utility)
    candidate_files = [corpus.read_sentences(path) for path in args.candidates]
    counts = {len(lines) for lines in candidate_files}
    if len(counts) > 1:
        raise ScoringError(
            "candidate files disagree on line count: "
            + ", ".join(
                f"{path}={len(lines)}"
                for path, lines in zip(args.candidates, candidate_files)
            )
        )
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
        Path(args.scores).write_text(
            "".join(line + "\n" for line in score_lines), encoding="utf-8"
        )
    return 0


def cmd_bleu(args: argparse.Namespace) -> int:
    hypotheses = corpus.read_sentences(args.hyp)
    references = corpus.read_sentences(args.ref)
    report = bleu.corpus_bleu(hypotheses, references)
    print(report.format())
    return 0


def cmd_pipeline(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    stages: list[tuple[str, Callable[[], None]]] = [
        ("align", lambda: stage_align(config.src, config.tgt, out, config.iterations)),
        ("symmetrize", lambda: stage_symmetrize(out)),
        ("lexicon", lambda: stage_lexicon(config.src, config.tgt, out)),
        ("lex", lambda: stage_lex(config.src, out)),
        ("ali", lambda: stage_ali(config.tgt, out)),
        ("bpe-learn", lambda: stage_bpe_learn(config.src, config.tgt, out, config.merges)),
        ("bpe-apply", lambda: stage_bpe_apply(config.src, config.tgt, out, config.vocab_threshold)),
        ("augment", lambda: stage_augment(out, config.segments, config.mode)),
    ]
    with _OutputLock(out):
        for name, run in stages:
            print(f"[pipeline] {name}", file=sys.stderr)
            try:
                run()
            except LexaliError as exc:
                raise PipelineError(f"stage {name} failed: {exc}") from exc
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

    sub = add("align", cmd_align, "train both translation tables and align")
    sub.add_argument("--src", required=True)
    sub.add_argument("--tgt", required=True)
    sub.add_argument("--out", required=True)
    sub.add_argument("--iterations", type=int, default=5)

    sub = add("symmetrize", cmd_symmetrize, "intersect the two alignment files")
    sub.add_argument("--out", required=True)

    sub = add("lexicon", cmd_lexicon, "extract the bilingual lexicon")
    sub.add_argument("--src", required=True)
    sub.add_argument("--tgt", required=True)
    sub.add_argument("--out", required=True)

    sub = add("lex", cmd_lex, "translate the source word for word")
    sub.add_argument("--src", required=True)
    sub.add_argument("--out", required=True)

    sub = add("ali", cmd_ali, "reorder the lex sequence into target order")
    sub.add_argument("--tgt", required=True)
    sub.add_argument("--out", required=True)

    sub = add("bpe-learn", cmd_bpe_learn, "learn byte-pair merges")
    sub.add_argument("--src", required=True)
    sub.add_argument("--tgt", required=True)
    sub.add_argument("--out", required=True)
    sub.add_argument("--merges", type=int, default=500)

    sub = add("bpe-apply", cmd_bpe_apply, "apply the learned merges everywhere")
    sub.add_argument("--src", required=True)
    sub.add_argument("--tgt", required=True)
    sub.add_argument("--out", required=True)
    sub.add_argument("--vocab-threshold", type=int, default=1)

    sub = add("augment", cmd_augment, "emit permutation training examples")
    sub.add_argument("--out", required=True)
    sub.add_argument("--segments", default="lex,ali,tgt")
    sub.add_argument("--mode", default="full")

    sub = add("extract", cmd_extract, "slice one segment out of decoded output")
    sub.add_argument("--input", required=True)
    sub.add_argument("--kind", required=True, choices=["lex", "ali", "tgt"])
    sub.add_argument("--output", required=True)

    sub = add("mbr", cmd_mbr, "pick consensus translations from candidates")
    sub.add_argument("candidates", nargs="+")
    sub.add_argument("--utility", default="chrf")
    sub.add_argument("--output", required=True)
    sub.add_argument("--scores")

    sub = add("bleu", cmd_bleu, "score hypotheses against references")
    sub.add_argument("--hyp", required=True)
    sub.add_argument("--ref", required=True)

    sub = add("pipeline", cmd_pipeline, "run every stage and write a manifest")
    sub.add_argument("--config")
    sub.add_argument("--src")
    sub.add_argument("--tgt")
    sub.add_argument("--out")
    sub.add_argument("--iterations")
    sub.add_argument("--merges")
    sub.add_argument("--segments")
    sub.add_argument("--mode")
    sub.add_argument("--utility")
    sub.add_argument("--seed")
    sub.add_argument("--vocab-threshold", dest="vocab_threshold")

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
