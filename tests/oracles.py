"""Independent reference implementations used to cross-check the package.

Nothing in here imports package internals, and the code is deliberately
written in a different style from the production modules (matrix EM,
full-rescan BPE, string-slicing n-gram dicts), so a shared bug would have
to be invented twice to slip through. The ``*_loop_oracle`` functions are
the exception: they keep an earlier, slower form of a package algorithm in
the package's own operation order, so the package must equal them exactly.
The augmentation references among them build the package's own
``AugmentedExample`` records, so that example lists compare with ``==``.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from pathlib import Path

import numpy as np

from lexali.augment import AugmentedExample, SegmentKind
from lexali.errors import PermutationError

NULL = "<NULL>"
FLOOR = 1e-12


# ------------------------------------------------------------ model 1 EM


def em_oracle(pairs, iterations):
    """Matrix-form Model 1 EM over (conditioning, emitted) sentence pairs.

    Returns (log-likelihood after each iteration, final table as a nested
    dict). Conditioning sentences implicitly gain a NULL word.
    """
    cond_words = [NULL]
    emit_words = []
    cond_idx = {NULL: 0}
    emit_idx = {}
    indexed = []
    for cond, emit in pairs:
        row = [0]
        for word in cond:
            if word not in cond_idx:
                cond_idx[word] = len(cond_words)
                cond_words.append(word)
            row.append(cond_idx[word])
        cols = []
        for word in emit:
            if word not in emit_idx:
                emit_idx[word] = len(emit_words)
                emit_words.append(word)
            cols.append(emit_idx[word])
        indexed.append((row, cols))

    n_cond = len(cond_words)
    n_emit = len(emit_words)
    seen = np.zeros((n_cond, n_emit), dtype=bool)
    for row, cols in indexed:
        for e in row:
            for f in cols:
                seen[e, f] = True
    table = np.zeros((n_cond, n_emit))
    support = seen.sum(axis=1)
    for e in range(n_cond):
        if support[e]:
            table[e, seen[e]] = 1.0 / support[e]

    def loglik(t):
        total = 0.0
        for row, cols in indexed:
            prior = 1.0 / len(row)
            for f in cols:
                total += math.log(max(prior * float(t[row, f].sum()), FLOOR))
        return total

    likelihoods = []
    for _ in range(iterations):
        counts = np.zeros((n_cond, n_emit))
        for row, cols in indexed:
            for f in cols:
                column = table[row, f]
                counts[row, f] += column / column.sum()
        sums = counts.sum(axis=1, keepdims=True)
        with np.errstate(invalid="ignore"):
            table = np.where(sums > 0, counts / sums, 0.0)
        likelihoods.append(loglik(table))

    probs = {}
    for e, e_word in enumerate(cond_words):
        row = {
            emit_words[f]: float(table[e, f])
            for f in range(n_emit)
            if table[e, f] > 0
        }
        if row:
            probs[e_word] = row
    return likelihoods, probs


def em_loop_oracle(corpus, direction, iterations):
    """Model 1 EM as nested-dict loops: the reference the package's
    flat-cell EM must equal exactly, bit for bit.

    It adds in the same order as the package (denominators left to right in
    candidate order, counts and totals in corpus order), so any difference
    is a bug rather than rounding. Returns the table as a nested dict.
    """
    if direction == "tgt_to_src":
        pairs = [(src, tgt) for src, tgt in corpus.pairs]
    else:
        pairs = [(tgt, src) for src, tgt in corpus.pairs]

    # co-occurrence support per conditioning word, insertion-ordered
    cooc = {NULL: {}}
    for conditioning, emitted in pairs:
        for e in (NULL, *conditioning):
            row = cooc.setdefault(e, {})
            for f in emitted:
                row[f] = None

    probs = {e: {f: 1.0 / len(row) for f in row} for e, row in cooc.items()}

    for _ in range(iterations):
        counts = {e: {} for e in probs}
        totals = {e: 0.0 for e in probs}
        for conditioning, emitted in pairs:
            candidates = (NULL, *conditioning)
            for f in emitted:
                denom = 0.0
                for e in candidates:
                    denom += probs[e].get(f, 0.0)
                for e in candidates:
                    p = probs[e].get(f, 0.0)
                    if p == 0.0:
                        continue
                    share = p / denom
                    row = counts[e]
                    row[f] = row.get(f, 0.0) + share
                    totals[e] += share
        probs = {
            e: {f: count / totals[e] for f, count in row.items()}
            for e, row in counts.items()
            if totals[e] > 0.0
        }
    return probs


# ------------------------------------------------------------ tokenizing


def tokenize_oracle(line):
    """Character-scanning whitespace tokenizer."""
    words = []
    current = []
    for ch in line:
        if ch.isspace():
            if current:
                words.append("".join(current))
                current = []
        else:
            current.append(ch)
    if current:
        words.append("".join(current))
    return words


# ------------------------------------------------------------------ BPE


def bpe_learn_oracle(word_counts, num_merges):
    """Brute-force merge learning: full recount of pair statistics per step."""
    items = [(list(word) + ["</w>"], count) for word, count in word_counts.items()]
    merges = []
    for _ in range(num_merges):
        stats = {}
        for symbols, count in items:
            for i in range(len(symbols) - 2):
                pair = (symbols[i], symbols[i + 1])
                stats[pair] = stats.get(pair, 0) + count
        best = None
        for pair in sorted(stats):
            if best is None or stats[pair] > stats[best]:
                best = pair
        if best is None or stats[best] < 2:
            break
        merges.append(best)
        items = [(_merge_all(symbols, best), count) for symbols, count in items]
    return merges


def _merge_all(symbols, pair):
    out = []
    i = 0
    while i < len(symbols):
        if i + 1 < len(symbols) and (symbols[i], symbols[i + 1]) == pair:
            out.append(symbols[i] + symbols[i + 1])
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return out


def bpe_apply_oracle(word, merges, marker="@@"):
    """Full-rescan merge replay: lowest rank present, all occurrences, repeat."""
    ranks = {pair: rank for rank, pair in enumerate(merges)}
    pieces = list(word)
    while len(pieces) > 1:
        found = [
            ranks[(pieces[i], pieces[i + 1])]
            for i in range(len(pieces) - 1)
            if (pieces[i], pieces[i + 1]) in ranks
        ]
        if not found:
            break
        pieces = _merge_all(pieces, merges[min(found)])
    return [piece + marker for piece in pieces[:-1]] + [pieces[-1]]


# ---------------------------------------------------------- symmetrizing


def intersect_oracle(t2s_links, s2t_links):
    """Plain set intersection of the two directed link sets."""
    forward = {(i, j) for j, i in enumerate(t2s_links) if i is not None}
    backward = {(i, j) for i, j in enumerate(s2t_links) if j is not None}
    return forward & backward


def lexicon_oracle(pairs, alignments):
    """Brute-force link counting; returns {src: (tgt, count)}."""
    counts = {}
    for (src, tgt), links in zip(pairs, alignments):
        for i, j in links:
            counts.setdefault(src[i], []).append(tgt[j])
    out = {}
    for src_word, targets in counts.items():
        ranked = sorted(
            set(targets), key=lambda t: (-targets.count(t), t)
        )
        out[src_word] = (ranked[0], targets.count(ranked[0]))
    return out


# ------------------------------------------------------------- utilities


def _gram_dict(text, n):
    grams = {}
    i = 0
    while i + n <= len(text):
        gram = text[i : i + n]
        grams[gram] = grams.get(gram, 0) + 1
        i += 1
    return grams


def _avg_clipped(a, b, max_order):
    fractions = []
    for n in range(1, max_order + 1):
        if n > len(a):
            break
        own = _gram_dict(a, n)
        other = _gram_dict(b, n)
        hits = 0
        for gram, count in own.items():
            hits += min(count, other.get(gram, 0))
        fractions.append(hits / (len(a) - n + 1))
    return sum(fractions) / len(fractions)


def chrf_oracle(hyp_tokens, ref_tokens):
    hyp = " ".join(hyp_tokens)
    ref = " ".join(ref_tokens)
    if hyp == "" and ref == "":
        return 1.0
    if hyp == "" or ref == "":
        return 0.0
    precision = _avg_clipped(hyp, ref, 6)
    recall = _avg_clipped(ref, hyp, 6)
    if 4.0 * precision + recall == 0.0:
        return 0.0
    return 5.0 * precision * recall / (4.0 * precision + recall)


def _tuple_grams(tokens, n):
    grams = {}
    i = 0
    while i + n <= len(tokens):
        gram = tuple(tokens[i : i + n])
        grams[gram] = grams.get(gram, 0) + 1
        i += 1
    return grams


def sbleu_oracle(hyp, ref):
    if not hyp and not ref:
        return 1.0
    if not hyp or not ref:
        return 0.0
    log_total = 0.0
    for n in range(1, 5):
        own = _tuple_grams(hyp, n)
        other = _tuple_grams(ref, n)
        hits = 0
        for gram, count in own.items():
            hits += min(count, other.get(gram, 0))
        total = max(len(hyp) - n + 1, 0)
        log_total += math.log((hits + 1) / (total + 1))
    score = math.exp(log_total / 4)
    if len(hyp) >= len(ref):
        return score
    return math.exp(1.0 - len(ref) / len(hyp)) * score


def exact_oracle(hyp, ref):
    return 1.0 if list(hyp) == list(ref) else 0.0


def mbr_oracle(pool, util_fn):
    """Double-loop expected-utility argmax, first index wins ties."""
    n = len(pool)
    best_index = None
    best_score = None
    all_scores = []
    for i in range(n):
        total = 0.0
        for j in range(n):
            total += util_fn(pool[i], pool[j])
        score = total / n
        all_scores.append(score)
        if best_score is None or score > best_score:
            best_index = i
            best_score = score
    return best_index, list(pool[best_index]), all_scores


# ------------------------------------------------------------------ BLEU


def corpus_bleu_oracle(hyps, refs):
    """Independent corpus BLEU on the 0-100 scale."""
    hits = {n: 0 for n in range(1, 5)}
    totals = {n: 0 for n in range(1, 5)}
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hyps, refs):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, 5):
            own = _tuple_grams(hyp, n)
            other = _tuple_grams(ref, n)
            for gram, count in own.items():
                hits[n] += min(count, other.get(gram, 0))
            totals[n] += max(len(hyp) - n + 1, 0)
    if hyp_len == 0:
        return 0.0
    product = 1.0
    for n in range(1, 5):
        if totals[n] == 0 or hits[n] == 0:
            return 0.0
        product *= hits[n] / totals[n]
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * bp * product**0.25


# ------------------------------------------- scoring, exact loop references


def _slice_counts(items, order):
    return Counter(items[i : i + order] for i in range(len(items) - order + 1))


def _clipped(own, other):
    return sum(min(count, other[gram]) for gram, count in own.items())


def chrf_loop_oracle(hyp, ref):
    """chrF rebuilding both sides' counters for every call: the reference
    ``mbr.chrf`` and ``mbr.expected_utilities`` must equal bit for bit."""
    hyp_text = " ".join(hyp)
    ref_text = " ".join(ref)
    if not hyp_text and not ref_text:
        return 1.0
    if not hyp_text or not ref_text:
        return 0.0
    precisions = []
    for order in range(1, min(6, len(hyp_text)) + 1):
        hyp_grams = _slice_counts(hyp_text, order)
        matched = _clipped(hyp_grams, _slice_counts(ref_text, order))
        precisions.append(matched / sum(hyp_grams.values()))
    recalls = []
    for order in range(1, min(6, len(ref_text)) + 1):
        ref_grams = _slice_counts(ref_text, order)
        matched = _clipped(ref_grams, _slice_counts(hyp_text, order))
        recalls.append(matched / sum(ref_grams.values()))
    precision = sum(precisions) / len(precisions)
    recall = sum(recalls) / len(recalls)
    denom = 4.0 * precision + recall
    if denom == 0.0:
        return 0.0
    return (1.0 + 4.0) * precision * recall / denom


def sbleu_loop_oracle(hyp, ref):
    """Smoothed sentence BLEU rebuilding both sides' counters per call."""
    if not hyp and not ref:
        return 1.0
    if not hyp or not ref:
        return 0.0
    log_sum = 0.0
    for order in range(1, 5):
        hyp_grams = _slice_counts(hyp, order)
        matched = _clipped(hyp_grams, _slice_counts(ref, order))
        total = sum(hyp_grams.values())
        log_sum += math.log((matched + 1) / (total + 1))
    geo_mean = math.exp(log_sum / 4)
    brevity = min(1.0, math.exp(1.0 - len(ref) / len(hyp)))
    return brevity * geo_mean


def expected_utilities_loop_oracle(pool, util_fn):
    """Each row sums u(hyp, ref) over the pool in order, memoized per
    ordered pair, then divides by the pool size."""
    cache = {}
    scores = []
    for hyp in pool:
        total = 0.0
        for ref in pool:
            key = (hyp, ref)
            if key not in cache:
                cache[key] = util_fn(hyp, ref)
            total += cache[key]
        scores.append(total / len(pool))
    return scores


def corpus_bleu_loop_oracle(hyps, refs):
    """Corpus BLEU from per-order counters rebuilt for every sentence, as
    (score, precisions, brevity_penalty, hyp_length, ref_length)."""
    matched = [0] * 4
    totals = [0] * 4
    hyp_length = 0
    ref_length = 0
    for hyp, ref in zip(hyps, refs):
        hyp_length += len(hyp)
        ref_length += len(ref)
        for order in range(1, 5):
            hyp_grams = _slice_counts(hyp, order)
            totals[order - 1] += sum(hyp_grams.values())
            matched[order - 1] += _clipped(hyp_grams, _slice_counts(ref, order))
    precisions = tuple(m / t if t > 0 else 0.0 for m, t in zip(matched, totals))
    if hyp_length == 0:
        return 0.0, precisions, 0.0, 0, ref_length
    brevity = min(1.0, math.exp(1.0 - ref_length / hyp_length))
    if any(p == 0.0 for p in precisions):
        score = 0.0
    else:
        score = 100.0 * brevity * math.exp(sum(math.log(p) for p in precisions) / 4)
    return score, precisions, brevity, hyp_length, ref_length


# ------------------------------------ augmentation, exact loop references


def _check_order(order):
    kinds = tuple(order)
    if not kinds:
        raise PermutationError("segment order is empty")
    if len(set(kinds)) != len(kinds):
        raise PermutationError(f"duplicate segment kind in order {kinds}")
    return kinds


def _segment_of(segments, kind):
    value = getattr(segments, kind.name.lower())
    if value is None:
        raise PermutationError(f"segment {kind.name.lower()} is not available")
    return value


def compose_target(segments, order):
    """Concatenate the requested segments, each preceded by its marker."""
    kinds = _check_order(order)
    if SegmentKind.TGT not in kinds:
        raise PermutationError("segment order must include tgt")
    out = []
    for kind in kinds:
        out.append(kind.marker)
        out.extend(_segment_of(segments, kind))
    return tuple(out)


def augment_loop_oracle(segment_sets, kinds, mode):
    """Augmentation composing every example from scratch: the reference
    ``augment.augment_corpus`` must equal field for field."""
    canonical = tuple(sorted(_check_order(kinds)))
    if SegmentKind.TGT not in canonical:
        raise PermutationError("segment subset must include tgt")
    if mode == "simple":
        orders = [canonical]
    elif mode == "full":
        orders = list(itertools.permutations(canonical))
    else:
        raise ValueError(f"unknown mode: {mode!r}")

    examples = []
    for sentence_index, segments in enumerate(segment_sets):
        for order in orders:
            target = compose_target(segments, order)
            source = segments.source
            if mode == "full":
                control = "<" + "".join(kind.digit for kind in order) + ">"
                source = (control, *source)
            examples.append(
                AugmentedExample(
                    sentence_index=sentence_index,
                    order=order,
                    source_tokens=source,
                    target_tokens=target,
                    segment_lengths=tuple(
                        len(_segment_of(segments, kind)) for kind in order
                    ),
                )
            )
    return examples


def write_augmented_oracle(examples, src_path, tgt_path, manifest_path):
    """Build each file's lines in full, then write it in one piece: the
    bytes ``augment.write_augmented`` must reproduce."""
    src_lines = []
    tgt_lines = []
    manifest_lines = []
    for example in examples:
        src_lines.append(" ".join(example.source_tokens))
        tgt_lines.append(" ".join(example.target_tokens))
        digits = "".join(kind.digit for kind in example.order)
        lengths = "\t".join(str(n) for n in example.segment_lengths)
        manifest_lines.append(f"{example.sentence_index}\t{digits}\t{lengths}")
    Path(src_path).write_text(
        "".join(line + "\n" for line in src_lines), encoding="utf-8"
    )
    Path(tgt_path).write_text(
        "".join(line + "\n" for line in tgt_lines), encoding="utf-8"
    )
    Path(manifest_path).write_text(
        "".join(line + "\n" for line in manifest_lines), encoding="utf-8"
    )
