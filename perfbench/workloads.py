"""Seeded input generators, CLI calls and output checks for each workload.

Every generator takes the seed as an argument and writes plain corpus files;
the program under test only ever sees those files through its CLI. Sizes
are fixed per workload and sentence lengths are drawn as a shuffled balanced
cycle, so the amount of work does not depend on the seed.
"""

from __future__ import annotations

import bisect
import hashlib
import importlib.util
import itertools
import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

GOLDEN_SEED = 0
GOLDEN_FILE = Path(__file__).resolve().parent / "golden.json"

# zipf-align: large vocabulary, EM and the table write dominate
ZIPF_VOCAB = 20_000
ZIPF_PAIRS = 200
ZIPF_LENGTHS = range(5, 31)
ZIPF_SWAP_P = 0.4

# mini-wide: the bundled corpus's sentence patterns, many short lines
MINI_WIDE_PAIRS = 2_000

# decode: candidate pools for mbr, hypothesis/reference pairs for bleu
POOL_SIZE = 6
DECODE_LENGTHS = range(16, 23)
CHRF_LINES = 20
SBLEU_LINES = 120
EXACT_LINES = 120
BLEU_LINES = 1_600
EXTRACT_LINES = 1_600
EMPTY_EVERY = 20

FULL_MODE_ORDERS = 6

_SRC_SYLLABLES = [c + v for c in "bdgklmnprstvz" for v in "aeiou"]
_TGT_SYLLABLES = [v + c for v in "aeiouy" for c in "fhjwxcq"]


def _word(rank: int, syllables: list[str]) -> str:
    """Pseudo-word for a frequency rank; frequent ranks get short words."""
    base = len(syllables)
    parts = [syllables[rank % base]]
    rank //= base
    while rank:
        parts.append(syllables[rank % base])
        rank //= base
    return "".join(parts)


def _balanced_lengths(rng: random.Random, lengths: range, count: int) -> list[int]:
    cycle = [lengths[i % len(lengths)] for i in range(count)]
    rng.shuffle(cycle)
    return cycle


class _Zipf:
    def __init__(self, vocab: int) -> None:
        self.src = [_word(r, _SRC_SYLLABLES) for r in range(vocab)]
        self.tgt = [_word(r, _TGT_SYLLABLES) for r in range(vocab)]
        self.cum = list(itertools.accumulate(1.0 / (r + 1) for r in range(vocab)))
        self.ranks = range(vocab)

    def sample(self, rng: random.Random, length: int) -> list[int]:
        return rng.choices(self.ranks, cum_weights=self.cum, k=length)

    def quantiles(self, rng: random.Random, count: int) -> list[int]:
        """count ranks at evenly spaced quantiles of the distribution, shuffled.

        Every seed gets the same multiset of words; only their order differs.
        """
        total = self.cum[-1]
        ranks = [bisect.bisect(self.cum, (i + 0.5) * total / count) for i in range(count)]
        rng.shuffle(ranks)
        return ranks


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_golden() -> dict:
    return json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))


# ---------------------------------------------------------------- generators


def make_zipf_corpus(seed: int, work: Path) -> tuple[Path, Path]:
    """Word-aligned Zipf translation; every third position may swap forward."""
    rng = random.Random(seed)
    zipf = _Zipf(ZIPF_VOCAB)
    lengths = _balanced_lengths(rng, ZIPF_LENGTHS, ZIPF_PAIRS)
    tokens = iter(zipf.quantiles(rng, sum(lengths)))
    src_lines, tgt_lines = [], []
    for length in lengths:
        ranks = list(itertools.islice(tokens, length))
        order = list(range(length))
        for i in range(2, length - 1, 3):
            if rng.random() < ZIPF_SWAP_P:
                order[i], order[i + 1] = order[i + 1], order[i]
        src_lines.append(" ".join(zipf.src[r] for r in ranks))
        tgt_lines.append(" ".join(zipf.tgt[ranks[i]] for i in order))
    return _write_pair(work, src_lines, tgt_lines)


def make_mini_wide_corpus(seed: int, work: Path, tools_dir: Path) -> tuple[Path, Path]:
    """Pairs from the bundled mini corpus's own sentence patterns."""
    spec = importlib.util.spec_from_file_location(
        "make_mini_corpus", tools_dir / "make_mini_corpus.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    rng = random.Random(seed)
    src_lines, tgt_lines = [], []
    for _ in range(MINI_WIDE_PAIRS):
        src, tgt = module.make_pair(rng)
        src_lines.append(" ".join(src))
        tgt_lines.append(" ".join(tgt))
    return _write_pair(work, src_lines, tgt_lines)


def copy_mini_corpus(data_dir: Path, work: Path) -> tuple[Path, Path]:
    """The bundled 1,000-pair corpus, unchanged (the self-test workload)."""
    return _write_pair(
        work,
        (data_dir / "mini.src").read_text(encoding="utf-8").splitlines(),
        (data_dir / "mini.tgt").read_text(encoding="utf-8").splitlines(),
    )


def _write_pair(work: Path, src_lines: list[str], tgt_lines: list[str]) -> tuple[Path, Path]:
    src, tgt = work / "corpus.src", work / "corpus.tgt"
    _write_lines(src, src_lines)
    _write_lines(tgt, tgt_lines)
    return src, tgt


@dataclass
class DecodeInputs:
    pools: dict[str, list[list[str]]] = field(default_factory=dict)
    candidate_files: dict[str, list[Path]] = field(default_factory=dict)
    hyp: Path | None = None
    ref: Path | None = None
    extract_input: Path | None = None
    extract_expected: str = ""


def _perturb(rng: random.Random, tokens: list[str], vocab: list[str]) -> list[str]:
    out = list(tokens)
    for _ in range(3):
        i = rng.randrange(len(out))
        edit = rng.randrange(3)
        if edit == 0:
            out[i] = rng.choice(vocab)
        elif edit == 1 and i + 1 < len(out):
            out[i], out[i + 1] = out[i + 1], out[i]
        elif len(out) > 1:
            del out[i]
    return out


def _pools(rng: random.Random, zipf: _Zipf, lines: int) -> list[list[str]]:
    """Per line: one base, four perturbations and one duplicate of them.

    Every EMPTY_EVERY-th line replaces one candidate by the empty line.
    """
    vocab = zipf.tgt[:2000]
    pools = []
    for n, length in enumerate(_balanced_lengths(rng, DECODE_LENGTHS, lines)):
        base = [zipf.tgt[r] for r in zipf.sample(rng, length)]
        pool = [base] + [_perturb(rng, base, vocab) for _ in range(POOL_SIZE - 2)]
        pool.insert(rng.randrange(len(pool) + 1), list(rng.choice(pool)))
        if n % EMPTY_EVERY == 0:
            pool[rng.randrange(POOL_SIZE)] = []
        pools.append([" ".join(tokens) for tokens in pool])
    return pools


def make_decode_inputs(seed: int, work: Path) -> DecodeInputs:
    rng = random.Random(seed)
    zipf = _Zipf(ZIPF_VOCAB)
    inputs = DecodeInputs()
    for utility, lines in (("chrf", CHRF_LINES), ("sbleu", SBLEU_LINES), ("exact", EXACT_LINES)):
        pools = _pools(rng, zipf, lines)
        files = []
        for k in range(POOL_SIZE):
            path = work / f"{utility}.cand{k}"
            _write_lines(path, [pool[k] for pool in pools])
            files.append(path)
        inputs.pools[utility] = pools
        inputs.candidate_files[utility] = files

    pairs = _pools(rng, zipf, BLEU_LINES)
    inputs.hyp, inputs.ref = work / "bleu.hyp", work / "bleu.ref"
    _write_lines(inputs.hyp, [pool[1] for pool in pairs])
    _write_lines(inputs.ref, [pool[0] for pool in pairs])

    # augmented-style decoder output: marked segments in a random order,
    # with the tgt marker missing on a few lines
    outputs, expected = [], []
    kinds = ("lex", "ali", "tgt")
    for n, pool in enumerate(_pools(rng, zipf, EXTRACT_LINES)):
        segments = dict(zip(kinds, pool[1:4]))
        order = list(kinds)
        rng.shuffle(order)
        if n % EMPTY_EVERY == 1:
            order.remove("tgt")
        outputs.append(" ".join(f"<{k}> {segments[k]}".rstrip() for k in order))
        expected.append(segments["tgt"] if "tgt" in order else "")
    inputs.extract_input = work / "extract.in"
    _write_lines(inputs.extract_input, outputs)
    inputs.extract_expected = "".join(" ".join(line.split()) + "\n" for line in expected)
    return inputs


# ---------------------------------------------------------------- checks


def check_pipeline(
    out: Path, src: Path, golden_artifacts: dict[str, str] | None
) -> list[str]:
    """Problems found in one pipeline run's --out directory."""
    problems = []
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    artifacts = manifest["artifacts"]
    for name, digest in artifacts.items():
        if sha256_file(out / name) != digest:
            problems.append(f"{name}: checksum differs from manifest.json")
    if golden_artifacts is not None and artifacts != golden_artifacts:
        problems.append(
            "manifest artifacts differ from golden.json: " + json.dumps(artifacts)
        )
    src_lines = src.read_text(encoding="utf-8").splitlines()
    lex_lines = (out / "train.lex").read_text(encoding="utf-8").splitlines()
    if [len(s.split()) for s in src_lines] != [len(s.split()) for s in lex_lines]:
        problems.append("train.lex lines are not as long as their source lines")
    for name in ("augmented.src", "augmented.tgt", "augmented.manifest.tsv"):
        count = len((out / name).read_text(encoding="utf-8").splitlines())
        if count != FULL_MODE_ORDERS * len(src_lines):
            problems.append(f"{name}: {count} lines for {len(src_lines)} pairs")
    return problems


def check_mbr(
    pools: list[list[str]], consensus: Path, scores: Path, exact: bool
) -> list[str]:
    problems = []
    chosen = consensus.read_text(encoding="utf-8").splitlines()
    rows = scores.read_text(encoding="utf-8").splitlines()
    if len(chosen) != len(pools) or len(rows) != len(pools):
        return [f"{len(chosen)} consensus and {len(rows)} score lines for {len(pools)} pools"]
    for n, (pool, pick, row) in enumerate(zip(pools, chosen, rows)):
        cells = row.split("\t")
        empty = [str(i) for i, cand in enumerate(pool) if not cand]
        flags = cells[POOL_SIZE:]
        if flags != (["empty=" + ",".join(empty)] if empty else []):
            problems.append(f"line {n + 1}: wrong empty-candidate flags {flags}")
        values = [float(cell) for cell in cells[:POOL_SIZE]]
        if any(not 0.0 <= v <= 1.0 for v in values):
            problems.append(f"line {n + 1}: score out of range")
        if exact:
            want = [f"{pool.count(cand) / len(pool):.6f}" for cand in pool]
            if cells[:POOL_SIZE] != want:
                problems.append(f"line {n + 1}: exact-match scores {cells} != {want}")
        best = max(values)
        if not any(c == pick and v == best for c, v in zip(pool, values)):
            problems.append(f"line {n + 1}: consensus is not a best-scoring candidate")
    return problems


BLEU_LINE = re.compile(r"BLEU = (\d+\.\d\d) \([\d./]+, BP=\d\.\d{3}\)")


def check_bleu(stdout: str) -> list[str]:
    line = stdout.strip()
    match = BLEU_LINE.fullmatch(line)
    if match is None or not 0.0 <= float(match.group(1)) <= 100.0:
        return [f"unexpected bleu output {line!r}"]
    return []
