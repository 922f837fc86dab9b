"""A reordering parallel corpus with its gold word order, for quality tests.

Source words are Zipf-distributed pseudo-words; each translates word for word
to one target pseudo-word. Every target moves the last source word to
position 1 (verb-final to verb-second) and then reverses one span of 3 to 6
of the words after it, so ``train.ali`` differs from ``train.lex`` wherever
the alignment is right. Fully deterministic: same seed, same pairs.
"""

import itertools
import random

VOCAB = 20_000
LENGTHS = (5, 30)
SPAN = (3, 6)

_SRC_SYLLABLES = [c + v for c in "bdgklmnprstvz" for v in "aeiou"]
_TGT_SYLLABLES = [v + c for v in "aeiouy" for c in "fhjwxcq"]


def _word(rank, syllables):
    """The pseudo-word for a frequency rank; frequent ranks get short words."""
    parts = []
    while True:
        rank, digit = divmod(rank, len(syllables))
        parts.append(syllables[digit])
        if not rank:
            return "".join(parts)


def make_reorder_corpus(seed, pairs=200):
    """``pairs`` (source, target, order) triples: ``order[j]`` is the source
    position whose word is translated at target position ``j``. The pairs
    are drawn one after another, so fewer pairs are a prefix of more."""
    rng = random.Random(seed)
    ranks = range(VOCAB)
    cum = list(itertools.accumulate(1.0 / (r + 1) for r in ranks))
    corpus = []
    for _ in range(pairs):
        length = rng.randint(*LENGTHS)
        words = rng.choices(ranks, cum_weights=cum, k=length)
        order = [0, length - 1, *range(1, length - 1)]
        span = rng.randint(SPAN[0], min(SPAN[1], length - 2))
        start = rng.randint(2, length - span)
        order[start:start + span] = order[start:start + span][::-1]
        src = [_word(r, _SRC_SYLLABLES) for r in words]
        tgt = [_word(words[i], _TGT_SYLLABLES) for i in order]
        corpus.append((src, tgt, order))
    return corpus
