"""Whole-system checks, one summary line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
line for each criterion as it completes.
"""

import functools
import random
import time
from importlib import resources

import pytest

import oracles
from lexali import augment, bleu, bpe, cli, corpus, mbr, model1, sequences, symmetrize
from lexali.augment import SegmentKind
from lexali.model1 import DirectionalAlignment
from lexali.symmetrize import BilingualLexicon

DATA = resources.files("lexali") / "data"


def data_path(name):
    return str(DATA / name)


def criterion(number, title):
    """Print a single PASS/FAIL summary line when the test finishes."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} ({title}): FAIL")
                raise
            print(f"criterion {number} ({title}): PASS")

        return wrapper

    return decorate


@criterion(1, "EM training on the bundled toy corpus")
def test_em_training_on_toy_corpus():
    toy = corpus.load_parallel(data_path("toy.src"), data_path("toy.tgt"))
    start = time.perf_counter()
    lls = [
        model1.log_likelihood(model1.train_model1(toy, model1.TGT_TO_SRC, k), toy)
        for k in range(1, 6)
    ]
    elapsed = time.perf_counter() - start
    for earlier, later in zip(lls, lls[1:]):
        assert later >= earlier - 1e-9
    expected, _ = oracles.em_oracle(list(toy.pairs), 5)
    for ours, reference in zip(lls, expected):
        assert ours == pytest.approx(reference, abs=1e-9)
    assert elapsed < 1.0


@criterion(2, "alignment intersection is one-to-one")
def test_intersection_on_fuzzed_pairs():
    rng = random.Random(101)
    for _ in range(1000):
        src_len = rng.randint(1, 8)
        tgt_len = rng.randint(1, 8)
        t2s = tuple(rng.choice([None, *range(src_len)]) for _ in range(tgt_len))
        s2t = tuple(rng.choice([None, *range(tgt_len)]) for _ in range(src_len))
        links = symmetrize.intersect(
            DirectionalAlignment(t2s, src_len),
            DirectionalAlignment(s2t, tgt_len),
        )
        assert links == oracles.intersect_oracle(t2s, s2t)
        sources = [i for i, _ in links]
        targets = [j for _, j in links]
        assert len(set(sources)) == len(sources)
        assert len(set(targets)) == len(targets)


@criterion(3, "word-for-word translation and target-order reordering")
def test_lex_ali_contracts_on_fuzzed_triples():
    rng = random.Random(313)
    vocab = [f"w{k}" for k in range(12)]
    translations = [f"t{k}" for k in range(12)]
    for _ in range(1000):
        entries = {
            word: (rng.choice(translations), rng.randint(1, 5))
            for word in vocab
            if rng.random() < 0.6
        }
        lexicon = BilingualLexicon(
            entries=entries,
            total_links=sum(count for _, count in entries.values()),
        )
        source = tuple(rng.choice(vocab) for _ in range(rng.randint(1, 9)))
        target_length = rng.randint(1, 9)
        links = tuple(
            rng.choice([None, *range(len(source))]) for _ in range(target_length)
        )
        alignment = DirectionalAlignment(links, len(source))

        lex = sequences.make_lex(source, lexicon)
        assert len(lex) == len(source)
        ali = sequences.make_ali(lex, alignment, target_length)
        assert ali == tuple(lex[i] for i in links if i is not None)
        assert len(ali) == sum(1 for i in links if i is not None)


@criterion(4, "permutation examples round-trip through their markers")
def test_permutation_integrity_on_fuzzed_segments():
    rng = random.Random(404)
    alphabet = ["a", "b", "cc", "dd", "e1", "f2"]
    kinds = (SegmentKind.LEX, SegmentKind.ALI, SegmentKind.TGT)

    def sent():
        return tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))

    for _ in range(1000):
        segments = augment.SegmentSet(
            source=sent(), tgt=sent(), lex=sent(), ali=sent()
        )
        examples = augment.augment_corpus([segments], kinds, "full")
        assert len(examples) == 6
        orders = set()
        for example in examples:
            control = example.source_tokens[0]
            assert augment.parse_control_token(control) == example.order
            markers = [
                token
                for token in example.target_tokens
                if token in augment.MARKER_TOKENS
            ]
            assert markers == [kind.marker for kind in example.order]
            for kind in example.order:
                extracted = augment.extract_segment(example.target_tokens, kind)
                assert extracted == augment.segment_of(segments, kind)
            orders.add(example.order)
        assert len(orders) == 6


@criterion(5, "consensus selection matches a brute-force evaluator")
def test_mbr_on_fuzzed_pools():
    rng = random.Random(505)
    words = ["a", "b", "c", "d"]
    oracle_fns = {
        "chrf": oracles.chrf_oracle,
        "sentence_bleu": oracles.sbleu_oracle,
        "exact_match": oracles.exact_oracle,
    }
    for _ in range(500):
        pool = [
            tuple(rng.choice(words) for _ in range(rng.randint(0, 5)))
            for _ in range(rng.randint(1, 10))
        ]
        for kind, fn in oracle_fns.items():
            index, tokens = mbr.mbr_select(pool, kind)
            expected_index, expected_tokens, _ = oracles.mbr_oracle(pool, fn)
            assert index == expected_index
            assert list(tokens) == expected_tokens
            _, reselected = mbr.mbr_select([*pool, pool[index]], kind)
            assert reselected == tokens

        index, _ = mbr.mbr_select(pool, "exact_match")
        frequency = {}
        for candidate in pool:
            frequency[candidate] = frequency.get(candidate, 0) + 1
        top = max(frequency.values())
        assert index == min(
            i for i, candidate in enumerate(pool) if frequency[candidate] == top
        )


@criterion(6, "subword merge learning and segmentation round-trip")
def test_bpe_fixture_and_round_trip():
    table = bpe.learn_bpe({"low": 5, "lower": 2}, 10)
    assert table.merges == (("l", "o"), ("lo", "w"), ("e", "r"), ("low", "er"))

    rng = random.Random(606)
    alphabet = "abcdef"
    counts = {}
    for _ in range(80):
        word = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 8)))
        counts[word] = counts.get(word, 0) + rng.randint(1, 6)
    learned = bpe.learn_bpe(counts, 40)
    for _ in range(1000):
        word = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
        pieces = bpe.apply_bpe((word,), learned)
        assert bpe.undo_bpe(pieces) == (word,)


@criterion(7, "corpus-level scoring fixtures and fuzz")
def test_bleu_fixtures_and_fuzz():
    rng = random.Random(707)
    words = ["the", "cat", "sat", "on", "mat", "dog"]
    identical = [
        tuple(rng.choice(words) for _ in range(rng.randint(4, 9)))
        for _ in range(20)
    ]
    assert bleu.corpus_bleu(identical, identical).score == 100.0

    clipped = bleu.corpus_bleu([("the", "the", "the")], [("the", "cat")])
    assert clipped.precisions[0] == pytest.approx(1 / 3, abs=0.01)
    assert clipped.score == 0.0

    for _ in range(300):
        size = rng.randint(1, 6)
        hyps = [
            tuple(rng.choice(words) for _ in range(rng.randint(0, 7)))
            for _ in range(size)
        ]
        refs = [
            tuple(rng.choice(words) for _ in range(rng.randint(1, 7)))
            for _ in range(size)
        ]
        report = bleu.corpus_bleu(hyps, refs)
        assert report.score == pytest.approx(
            oracles.corpus_bleu_oracle(hyps, refs), abs=0.01
        )


@criterion(8, "full pipeline speed and reproducibility")
def test_pipeline_on_mini_corpus(tmp_path):
    out = tmp_path / "run"
    argv = [
        "pipeline",
        "--src", data_path("mini.src"),
        "--tgt", data_path("mini.tgt"),
        "--out", str(out),
    ]
    start = time.perf_counter()
    assert cli.main(argv) == 0
    first_elapsed = time.perf_counter() - start
    first_manifest = (out / cli.RUN_MANIFEST).read_bytes()

    start = time.perf_counter()
    assert cli.main(argv) == 0
    second_elapsed = time.perf_counter() - start

    assert first_elapsed < 60.0
    assert second_elapsed < 60.0
    lines = (out / cli.AUG_SRC).read_text(encoding="utf-8").splitlines()
    assert len(lines) == 6000
    assert (out / cli.RUN_MANIFEST).read_bytes() == first_manifest
