"""In-memory span tracing of the lexali modules, installed from outside.

The tracer replaces public functions on the lexali module objects with
timing wrappers. This works because the CLI and the stages look every
function up through its module attribute at call time. Functions called
once per sentence or per pool are recorded as one aggregate span per
parent (start of the first call, end of the last, summed busy time and a
call count); such functions must not call other wrapped functions.

Counts are taken from arguments and return values. Heavy counts run under
``untimed()``, whose duration is removed from the tracer's clock, so they
fall outside every timed region.
"""

from __future__ import annotations

import functools
import os
import resource
import time
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

MB = 1e6

STAGES = {
    "stage_align": "align",
    "stage_symmetrize": "symmetrize",
    "stage_lexicon": "lexicon",
    "stage_lex": "lex",
    "stage_ali": "ali",
    "stage_bpe_learn": "bpe_learn",
    "stage_bpe_apply": "bpe_apply",
    "stage_augment": "augment",
    "write_run_manifest": "manifest",
}

# per-layer time metric -> span names whose self time it sums
SELF_TIME_METRICS = {
    "model1.em_s": ("model1.train_model1",),
    "model1.viterbi_s": ("model1.viterbi_align",),
    "model1.write_table_s": ("model1.write_table",),
    "model1.write_alignments_s": ("model1.write_alignments",),
    "model1.read_maps_s": ("model1.read_alignment_maps",),
    "corpus.read_s": ("corpus.load_parallel", "corpus.load_sentences", "corpus.read_sentences"),
    "corpus.write_s": ("corpus.write_sentences",),
    "symmetrize.intersect_s": ("symmetrize.intersect_maps",),
    "symmetrize.lexicon_s": ("symmetrize.extract_lexicon",),
    "symmetrize.io_s": (
        "symmetrize.write_links",
        "symmetrize.read_links",
        "symmetrize.write_lexicon",
        "symmetrize.read_lexicon",
    ),
    "sequences.lex_s": ("sequences.make_lex",),
    "sequences.ali_s": ("sequences.make_ali",),
    "bpe.learn_s": ("bpe.learn_bpe",),
    "bpe.segment_s": ("bpe.segment",),
    "bpe.segment_constrained_s": ("bpe.segment_constrained",),
    "augment.build_s": ("augment.augment_corpus",),
    "augment.write_s": ("augment.write_augmented",),
    "augment.extract_s": ("augment.extract_segment",),
    "mbr.chrf_s": ("mbr.chrf",),
    "mbr.sbleu_s": ("mbr.sentence_bleu",),
    "mbr.exact_s": ("mbr.exact_match",),
    "bleu.corpus_s": ("bleu.corpus_bleu",),
}

COUNT_METRICS = (
    "model1.em_visits",
    "model1.table_entries",
    "corpus.read_calls",
    "corpus.read_mb",
    "symmetrize.links",
    "symmetrize.lexicon_entries",
    "bpe.merges_learned",
    "bpe.tokens_out",
    "augment.examples",
    "mbr.pairs_scored",
    "bleu.ngrams",
)


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    calls: int = 1
    busy: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value


def _span_name(module: object, attr: str) -> str:
    return f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB


class Tracer:
    """Spans of one traced round, kept in memory until the run ends."""

    def __init__(self, watch_dir: Path | None = None) -> None:
        self.watch_dir = watch_dir
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._aggregates: dict[tuple[str, int | None], int] = {}
        self._paused = 0.0
        self._files: dict[str, tuple[int, int]] = {}
        self._restore: list[tuple[object, str, object]] = []

    def now(self) -> float:
        return time.perf_counter() - self._paused

    @contextmanager
    def untimed(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self._paused += time.perf_counter() - start

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, parent, self.now()))
        record = self.spans[-1]
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = self.now()
            record.busy = record.end - record.start
            self._stack.pop()

    def aggregate(self, name: str, start: float, end: float) -> Span:
        parent = self._stack[-1] if self._stack else None
        index = self._aggregates.get((name, parent))
        if index is None:
            self._aggregates[(name, parent)] = len(self.spans)
            self.spans.append(Span(name, parent, start, end, 1, end - start))
            return self.spans[-1]
        record = self.spans[index]
        record.end = end
        record.calls += 1
        record.busy += end - start
        return record

    # ------------------------------------------------------------ wrapping

    def _patch(self, module: object, attr: str, wrapper: Callable) -> None:
        original = getattr(module, attr)
        self._restore.append((module, attr, original))
        setattr(module, attr, functools.wraps(original)(wrapper(original)))

    def _spanned(
        self, module: object, attr: str, count: Callable | None = None, name: str | None = None
    ) -> None:
        name = name or _span_name(module, attr)

        def wrapper(fn):
            def call(*args, **kwargs):
                with self.span(name) as record:
                    result = fn(*args, **kwargs)
                if count is not None:
                    with self.untimed():
                        count(record, result, *args, **kwargs)
                return result

            return call

        self._patch(module, attr, wrapper)

    def _aggregated(self, name: str | Callable[..., str], count: Callable | None = None):
        def wrapper(fn):
            def call(*args, **kwargs):
                start = self.now()
                result = fn(*args, **kwargs)
                label = name(*args, **kwargs) if callable(name) else name
                record = self.aggregate(label, start, self.now())
                if count is not None:
                    count(record, result, *args, **kwargs)
                return result

            return call

        return wrapper

    def _per_call(self, module: object, attr: str, count: Callable | None = None) -> None:
        self._patch(module, attr, self._aggregated(_span_name(module, attr), count))

    def _written_bytes(self) -> int:
        """Bytes of files in watch_dir created or rewritten since the last call."""
        if self.watch_dir is None:
            return 0
        written = 0
        files = {}
        for entry in os.scandir(self.watch_dir):
            stat = entry.stat()
            files[entry.name] = (stat.st_size, stat.st_mtime_ns)
            if self._files.get(entry.name) != files[entry.name]:
                written += stat.st_size
        self._files = files
        return written

    def mark_files(self) -> None:
        """Take the file snapshot that the first stage's bytes are counted from."""
        self._written_bytes()

    def install(self, lexali: dict[str, object]) -> None:
        """Wrap the public functions of the given lexali modules by name."""
        cli, corpus, model1 = lexali["cli"], lexali["corpus"], lexali["model1"]
        symmetrize, sequences, bpe = lexali["symmetrize"], lexali["sequences"], lexali["bpe"]
        augment, mbr, bleu = lexali["augment"], lexali["mbr"], lexali["bleu"]

        def stage_count(record, result, *a, **k):
            record.add("out_mb", self._written_bytes() / MB)
            record.add("rss_mb", rss_mb())

        for attr, stage in STAGES.items():
            self._spanned(cli, attr, stage_count, f"cli.{stage}")

        def read_count(record, result, *paths, **kwargs):
            record.add("corpus.read_calls", 1)
            record.add("corpus.read_mb", sum(os.stat(p).st_size for p in paths) / MB)

        for attr in ("load_parallel", "load_sentences", "read_sentences"):
            self._spanned(corpus, attr, read_count)
        self._spanned(corpus, "write_sentences")

        def em_count(record, table, pair_corpus, direction, iterations):
            oriented = pair_corpus.pairs if direction == model1.TGT_TO_SRC else (
                (tgt, src) for src, tgt in pair_corpus.pairs
            )
            visits = sum(len(emitted) * (len(cond) + 1) for cond, emitted in oriented)
            record.add("model1.em_visits", iterations * visits)
            record.add("model1.table_entries", sum(len(row) for row in table.probs.values()))

        self._spanned(model1, "train_model1", em_count)
        for attr in ("write_table", "write_alignments", "read_alignment_maps"):
            self._spanned(model1, attr)
        self._per_call(model1, "viterbi_align")

        self._per_call(
            symmetrize,
            "intersect_maps",
            lambda record, links, *a, **k: record.add("symmetrize.links", len(links)),
        )
        self._spanned(
            symmetrize,
            "extract_lexicon",
            lambda record, lexicon, *a, **k: record.add(
                "symmetrize.lexicon_entries", len(lexicon.entries)
            ),
        )
        for attr in ("write_links", "read_links", "write_lexicon", "read_lexicon"):
            self._spanned(symmetrize, attr)

        self._per_call(sequences, "make_lex")
        self._per_call(sequences, "make_ali")

        def learn_count(record, table, word_counts, num_merges):
            record.add("bpe.merges_learned", len(table))
            record.add("bpe.merges_requested", num_merges)

        self._spanned(bpe, "learn_bpe", learn_count)

        def tokens(record, result, *a, **k):
            record.add("bpe.tokens_out", len(result))

        def make_segmenter(fn):
            def call(table, vocab=None, threshold=1):
                name = "bpe.segment" if vocab is None else "bpe.segment_constrained"
                segment = fn(table, vocab, threshold)
                return self._aggregated(name, tokens)(segment)

            return call

        self._patch(bpe, "make_segmenter", make_segmenter)

        self._spanned(
            augment,
            "augment_corpus",
            lambda record, examples, *a, **k: record.add("augment.examples", len(examples)),
        )
        self._spanned(augment, "write_augmented")
        self._per_call(augment, "extract_segment")

        def pairs(record, scores, pool, kind):
            distinct = len(set(map(tuple, pool)))
            record.add("mbr.pairs_scored", distinct * distinct)
            record.add("mbr.pairs_all", len(pool) * len(pool))

        self._patch(
            mbr,
            "expected_utilities",
            self._aggregated(lambda pool, kind: f"mbr.{kind}", pairs),
        )

        def ngrams(record, report, hypotheses, references):
            total = 0
            for sentence in (*hypotheses, *references):
                total += sum(max(0, len(sentence) - n + 1) for n in range(1, 5))
            record.add("bleu.ngrams", total)

        self._spanned(bleu, "corpus_bleu", ngrams)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()


# ---------------------------------------------------------------- metrics


def self_times(spans: list[Span]) -> list[float]:
    """Busy time of each span minus the busy time of its direct children."""
    child = [0.0] * len(spans)
    for record in spans:
        if record.parent is not None:
            child[record.parent] += record.busy
    return [record.busy - child[i] for i, record in enumerate(spans)]


def layer_metrics(spans: list[Span], names: list[str]) -> dict[str, float]:
    """Per-layer metrics of one traced round, under the names BENCHMARK.json lists.

    A listed metric that the round does not exercise stays 0.0.
    """
    own = self_times(spans)
    metrics = dict.fromkeys(names, 0.0)
    counts: dict[str, float] = {}
    by_name: dict[str, float] = {}
    for record, self_s in zip(spans, own):
        by_name[record.name] = by_name.get(record.name, 0.0) + self_s
        for key, value in record.counts.items():
            counts[key] = counts.get(key, 0.0) + value
        if record.name.startswith("cli.") and record.name[4:] in STAGES.values():
            stage = record.name[4:]
            metrics[f"cli.{stage}_s"] += record.busy
            metrics[f"cli.{stage}_out_mb"] += record.counts["out_mb"]
            metrics[f"cli.{stage}_rss_mb"] = record.counts["rss_mb"]
        elif record.parent is None:
            metrics[f"{record.name}_s"] += record.busy
            metrics["cli.self_s"] += self_s
            if record.name.startswith("cli.mbr_"):
                metrics["cli.mbr_self_s"] += self_s
    for metric, names in SELF_TIME_METRICS.items():
        metrics[metric] = sum(by_name.get(name, 0.0) for name in names)
    for metric in COUNT_METRICS:
        metrics[metric] = counts.get(metric, 0.0)
    if metrics["model1.em_s"] > 0:
        metrics["model1.em_visits_per_s"] = metrics["model1.em_visits"] / metrics["model1.em_s"]
    if counts.get("bpe.merges_requested"):
        metrics["bpe.merge_yield"] = counts["bpe.merges_learned"] / counts["bpe.merges_requested"]
    if counts.get("mbr.pairs_all"):
        metrics["mbr.memo_hit_share"] = 1.0 - counts["mbr.pairs_scored"] / counts["mbr.pairs_all"]
    return metrics
