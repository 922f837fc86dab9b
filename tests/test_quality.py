"""Alignment and intermediate-sequence quality against gold links.

On the bundled mini corpus the gold links come from a twin of
``tools/make_mini_corpus.make_pair``: the same random draws, the same
sentences, and for each pattern the source-target position pairs its words
were placed at. On the reordering corpus of ``reorder_corpus`` they come
from the generator's word order. The bounds sit just outside the values the
pipeline gives today, so a change that aligns worse, translates fewer words
or wrongly, or drops more target words from ``train.ali`` fails here even
when every artifact is still well formed.
"""

import importlib.util
import random
from importlib import resources
from pathlib import Path

import pytest

from lexali import cli
from reorder_corpus import make_reorder_corpus

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "make_mini_corpus.py"
_spec = importlib.util.spec_from_file_location("make_mini_corpus", _TOOL)
mini = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mini)

# make_pair's six patterns in order, as the source and the target sentence's
# slots; a slot names one drawn (source word, target word) pair, and the
# k-th use of a slot in the source is linked to its k-th use in the target
PATTERNS = [
    ("d1 n1 v adv", "d1 n1 v adv"),
    ("d1 n1 d2 n2 v", "d1 n1 v d2 n2"),
    ("d1 a n1 v d2 n2", "d1 a n1 v d2 n2"),
    ("adv v d1 n1 d2 n2", "adv d1 n1 v d2 n2"),
    ("d1 n1 and d2 n2 v d2 n3", "d1 n1 and d2 n2 v d2 n3"),
    ("d1 n1 d2 a n2 v adv", "d1 n1 v d2 a n2 adv"),
]


def make_pair(rng):
    """make_pair's source and target sentences, from the same draws, with
    their gold links as (source position, target position) pairs."""
    draws = [("d1", mini.DETERMINERS), ("d2", mini.DETERMINERS), ("n1", mini.NOUNS),
             ("n2", mini.NOUNS), ("n3", mini.NOUNS), ("v", mini.VERBS),
             ("a", mini.ADJECTIVES), ("adv", mini.ADVERBS)]
    words = {slot: rng.choice(choices) for slot, choices in draws}
    words["and"] = mini.AND
    src_slots, tgt_slots = (slots.split() for slots in PATTERNS[rng.randrange(6)])
    tgt_positions: dict[str, list[int]] = {}
    for j, slot in enumerate(tgt_slots):
        tgt_positions.setdefault(slot, []).append(j)
    links = {(i, tgt_positions[slot].pop(0)) for i, slot in enumerate(src_slots)}
    src = [words[slot][0] for slot in src_slots]
    tgt = [words[slot][1] for slot in tgt_slots]
    return src, tgt, links


def read_cells(path, flip=False):
    """Per line the set of "i-j" cells, as (j, i) when ``flip``."""
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = [{tuple(map(int, cell.split("-"))) for cell in line.split()} for line in lines]
    return [{(j, i) for i, j in line} for line in cells] if flip else cells


def precision_recall_aer(found, gold):
    """Precision, recall and the alignment error rate of Och & Ney (2003)
    with every gold link both sure and possible."""
    hits = sum(len(a & g) for a, g in zip(found, gold))
    n_found, n_gold = sum(map(len, found)), sum(map(len, gold))
    return hits / n_found, hits / n_gold, 1 - 2 * hits / (n_found + n_gold)


def run_pipeline(src, tgt, out):
    assert cli.main(["pipeline", "--src", str(src), "--tgt", str(tgt), "--out", str(out)]) == 0


@pytest.fixture(scope="module")
def mini_run(tmp_path_factory):
    data = resources.files("lexali") / "data"
    out = tmp_path_factory.mktemp("quality") / "run"
    run_pipeline(data / "mini.src", data / "mini.tgt", out)
    rng = random.Random(mini.SEED)
    corpus = [make_pair(rng) for _ in range(mini.PAIR_COUNT)]
    return data, out, corpus


def test_twin_regenerates_the_mini_corpus(mini_run):
    data, _, corpus = mini_run
    for side, name in enumerate(("mini.src", "mini.tgt")):
        text = "".join(" ".join(pair[side]) + "\n" for pair in corpus)
        assert text.encode("utf-8") == (data / name).read_bytes(), name


# today 0.208, 0.199 and 0.206
AER_CEILINGS = {cli.ALIGN_T2S: 0.21, cli.ALIGN_S2T: 0.20, cli.ALIGN_INTERSECT: 0.21}


@pytest.mark.parametrize(
    ("name", "flip", "precision_floor", "recall_floor"),
    [(cli.ALIGN_T2S, False, 0.98, 0.65),      # today 0.989 / 0.660
     (cli.ALIGN_S2T, True, 0.90, 0.70),       # today 0.912 / 0.715
     (cli.ALIGN_INTERSECT, False, 0.99, 0.65)],  # today 0.999 / 0.659
)
def test_alignment_precision_and_recall(mini_run, name, flip, precision_floor, recall_floor):
    _, out, corpus = mini_run
    precision, recall, aer = precision_recall_aer(read_cells(out / name, flip),
                                                  [g for *_, g in corpus])
    print(f"{name}: precision {precision:.3f}, recall {recall:.3f}, AER {aer:.3f}")
    assert precision >= precision_floor and recall >= recall_floor
    assert aer <= AER_CEILINGS[name]


def test_lexicon_lex_and_ali_coverage(mini_run):
    data, out, corpus = mini_run
    lexicon = [line.split("\t") for line in
               (out / cli.LEXICON).read_text(encoding="utf-8").splitlines()]
    entries = len(lexicon)
    src_types = len({word for src, _, _ in corpus for word in src})
    translations = {}
    for src_word, tgt_word in [*mini.DETERMINERS, *mini.NOUNS, *mini.VERBS, *mini.ADJECTIVES,
                               *mini.ADVERBS, mini.AND]:
        translations.setdefault(src_word, set()).add(tgt_word)
    right_entries = sum(tgt_word in translations[src_word] for src_word, tgt_word, _ in lexicon)
    lex = [line.split() for line in (out / cli.LEX_WORDS).read_text(encoding="utf-8").splitlines()]
    ali = [line.split() for line in (out / cli.ALI_WORDS).read_text(encoding="utf-8").splitlines()]
    copied = sum(a == b for line, (src, _, _) in zip(lex, corpus) for a, b in zip(line, src))
    lex_tokens = sum(map(len, lex))
    # every source position has one gold link: its lex token is right when it
    # is the target word there
    right_tokens = sum(line[i] == tgt[j] for line, (_, tgt, links) in zip(lex, corpus)
                       for i, j in links)
    tgt_tokens = sum(len(tgt) for _, tgt, _ in corpus)
    equal = sum(line == tgt for line, (_, tgt, _) in zip(ali, corpus))
    print(f"lexicon {entries} entries for {src_types} source types, {right_entries} right; "
          f"{copied} of {lex_tokens} lex tokens copied untranslated, {right_tokens} right; "
          f"|ali| / |tgt| = {sum(map(len, ali))} / {tgt_tokens}; "
          f"{equal} of {len(ali)} ali lines equal their target")
    assert entries / src_types >= 0.94           # today 55 / 58
    assert right_entries == entries              # today 55 / 55
    assert right_tokens / lex_tokens >= 0.65     # today 3,918 / 5,975 = 0.656
    assert copied / lex_tokens <= 0.34           # today 0.333
    assert sum(map(len, ali)) / tgt_tokens >= 0.66  # today 0.667


@pytest.fixture(scope="module")
def reorder_run(tmp_path_factory):
    corpus = make_reorder_corpus(seed=1)
    work = tmp_path_factory.mktemp("reorder")
    for side, name in enumerate(("corpus.src", "corpus.tgt")):
        text = "".join(" ".join(pair[side]) + "\n" for pair in corpus)
        (work / name).write_text(text, encoding="utf-8")
    run_pipeline(work / "corpus.src", work / "corpus.tgt", work / "run")
    return work / "run", corpus


def test_reorder_corpus_moves_the_last_word_and_reverses_a_span(reorder_run):
    _, corpus = reorder_run
    for src, tgt, order in corpus:
        n = len(src)
        assert 5 <= n <= 30 and sorted(order) == list(range(n)) and order[:2] == [0, n - 1]
        assert len(tgt) == n
        # after the moved word, positions first to last hold their span reversed
        moved = [j for j in range(2, n) if order[j] != j - 1]
        first, last = moved[0], moved[-1]
        assert 3 <= last - first + 1 <= 6
        assert order[first:last + 1] == list(range(last - 1, first - 2, -1))


@pytest.mark.parametrize(
    ("name", "precision_floor", "recall_floor"),
    [(cli.ALIGN_T2S, 0.60, 0.60),         # today 0.613 / 0.613
     (cli.ALIGN_INTERSECT, 0.95, 0.58)],  # today 0.956 / 0.586
)
def test_reordering_precision_and_recall(reorder_run, name, precision_floor, recall_floor):
    out, corpus = reorder_run
    gold = [{(i, j) for j, i in enumerate(order)} for *_, order in corpus]
    precision, recall, aer = precision_recall_aer(read_cells(out / name), gold)
    ali = (out / cli.ALI_WORDS).read_text(encoding="utf-8").splitlines()
    equal = sum(line == " ".join(tgt) for line, (_, tgt, _) in zip(ali, corpus))
    print(f"reordering {name}: precision {precision:.3f}, recall {recall:.3f}, AER {aer:.3f}; "
          f"{equal} of {len(ali)} ali lines equal their target")
    assert precision >= precision_floor and recall >= recall_floor
