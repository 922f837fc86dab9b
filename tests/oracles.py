"""Independent reference implementations used to cross-check the package.

Nothing in here imports package internals, and the code is deliberately
written in a different style from the production modules (matrix EM,
full-rescan BPE, string-slicing n-gram dicts), so a shared bug would have
to be invented twice to slip through. The ``*_loop_oracle`` functions are
the exception: they keep an earlier, slower form of a package algorithm in
the package's own operation order, so the package must equal them exactly.
The augmentation reference among them composes each example's token
tuples and joins them into the (source, target, manifest) lines the package
yields, so that line lists compare with ``==``.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter
from pathlib import Path

import numpy as np

from lexali.augment import SegmentKind

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


def log_likelihood(table, corpus):
    """Corpus log-likelihood of a ``model1.TranslationTable`` under a uniform
    link prior of 1/(l+1). Each token's probability is floored at FLOOR
    before the log, so words the table has never seen stay finite."""
    total = 0.0
    for src, tgt in corpus.pairs:
        if table.direction == "tgt_to_src":
            conditioning, emitted = src, tgt
        else:
            conditioning, emitted = tgt, src
        candidates = (NULL, *conditioning)
        prior = 1.0 / len(candidates)
        for f in emitted:
            p = 0.0
            for e in candidates:
                p += table.probs.get(e, {}).get(f, 0.0)
            total += math.log(max(prior * p, FLOOR))
    return total


def viterbi_loop_oracle(table, pair):
    """Viterbi links that look every candidate's probability up in the
    nested table, one (conditioning, emitted) pair at a time: the links
    ``model1.viterbi_align`` must equal. The smallest position wins a
    positive tie; NULL wins only when strictly higher or when all score 0."""
    src, tgt = pair
    if table.direction == "tgt_to_src":
        conditioning, emitted = src, tgt
    else:
        conditioning, emitted = tgt, src
    links = []
    for f in emitted:
        best_i = None
        best_p = table.probs.get(NULL, {}).get(f, 0.0)
        for i, e in enumerate(conditioning):
            p = table.probs.get(e, {}).get(f, 0.0)
            if p > best_p or (p == best_p and p > 0.0 and best_i is None):
                best_i = i
                best_p = p
        links.append(best_i)
    return tuple(links)


def write_table_loop_oracle(table, path):
    """One "conditioning emitted repr(prob)" line per entry, sorted by the
    word pair, each value formatted where it stands: the bytes
    ``model1.write_table`` must reproduce."""
    lines = [
        f"{e} {f} {row[f]!r}\n"
        for e, row in sorted(table.probs.items())
        for f in sorted(row)
    ]
    Path(path).write_bytes("".join(lines).encode("utf-8"))


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


def _file_lines_oracle(path):
    """A UTF-8 file's lines, scanned character by character: a line ends at
    each "\\n", and the text after the last one is a line if it is not empty."""
    lines = []
    current = []
    for ch in Path(path).read_bytes().decode("utf-8"):
        if ch == "\n":
            lines.append("".join(current))
            current = []
        else:
            current.append(ch)
    if current:
        lines.append("".join(current))
    return lines


def _sentence_loop_oracle(line, path, lineno, empty_ok):
    """One corpus line's tokens; an empty line is reported before a token
    holding an angle bracket, and the first such token is named."""
    tokens = tuple(tokenize_oracle(line))
    if not tokens and not empty_ok:
        raise ValueError(f"{path}:{lineno}: empty line")
    for token in tokens:
        if "<" in token or ">" in token:
            raise ValueError(
                f"{path}:{lineno}: token {token!r} contains a reserved angle bracket"
            )
    return tokens


def load_sentences_loop_oracle(path, empty_ok=False):
    """``corpus.load_sentences`` line by line: the sentences, or a
    ValueError with the package's message for the first faulty line."""
    return [
        _sentence_loop_oracle(line, path, lineno, empty_ok)
        for lineno, line in enumerate(_file_lines_oracle(path), start=1)
    ]


def load_parallel_loop_oracle(src_path, tgt_path):
    """``corpus.load_parallel`` line by line: the (source, target) pairs, or
    a ValueError with the package's message for the first fault, where the
    line counts come first and a line's source before its target."""
    src_lines = _file_lines_oracle(src_path)
    tgt_lines = _file_lines_oracle(tgt_path)
    if len(src_lines) != len(tgt_lines):
        raise ValueError(
            f"line counts disagree: {src_path}={len(src_lines)}, {tgt_path}={len(tgt_lines)}"
        )
    pairs = []
    for lineno in range(1, len(src_lines) + 1):
        src = _sentence_loop_oracle(src_lines[lineno - 1], src_path, lineno, False)
        tgt = _sentence_loop_oracle(tgt_lines[lineno - 1], tgt_path, lineno, False)
        pairs.append((src, tgt))
    return tuple(pairs)


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
    precision = 0.0
    for term in precisions:
        precision += term
    precision /= len(precisions)
    recall = 0.0
    for term in recalls:
        recall += term
    recall /= len(recalls)
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
        log_sum = 0.0
        for p in precisions:
            log_sum += math.log(p)
        score = 100.0 * brevity * math.exp(log_sum / 4)
    return score, precisions, brevity, hyp_length, ref_length


# ------------------------------------ augmentation, exact loop references


_CONTROL_RE = re.compile(r"<([1-3]{1,3})>")
_BY_DIGIT = {kind.digit: kind for kind in SegmentKind}


def parse_control_token(token):
    """The segment order a control token names: the inverse of
    ``augment.control_token``."""
    match = _CONTROL_RE.fullmatch(token)
    if match is None:
        raise ValueError(f"not a control token: {token!r}")
    digits = match.group(1)
    if len(set(digits)) != len(digits):
        raise ValueError(f"control token repeats a digit: {token!r}")
    return tuple(_BY_DIGIT[d] for d in digits)


def compose_target(segments, order):
    """Concatenate the requested segments, each preceded by its marker;
    ``segments`` maps each kind to its tokens."""
    out = []
    for kind in order:
        out.append(kind.marker)
        out.extend(segments[kind])
    return tuple(out)


def augment_loop_oracle(sources, segments, mode):
    """Augmentation composing every example's token tuples from scratch and
    joining them: the (source, target, manifest) lines
    ``augment.augment_corpus`` must equal exactly."""
    canonical = tuple(sorted(segments))
    if mode == "full":
        orders = list(itertools.permutations(canonical))
    else:
        orders = [canonical]

    lines = []
    for sentence_index, source in enumerate(sources):
        row = {kind: column[sentence_index] for kind, column in segments.items()}
        for order in orders:
            digits = "".join(kind.digit for kind in order)
            source_tokens = tuple(source)
            if mode == "full":
                source_tokens = ("<" + digits + ">",) + source_tokens
            fields = [str(sentence_index), digits]
            fields.extend(str(len(row[kind])) for kind in order)
            lines.append(
                (
                    " ".join(source_tokens),
                    " ".join(compose_target(row, order)),
                    "\t".join(fields),
                )
            )
    return lines


def extract_oracle(output, kind):
    """List-scan extraction: None without the marker, the number of times it
    appears when that is more than once, else the tokens up to the next
    marker of any kind."""
    markers = {other.marker for other in SegmentKind}
    positions = [i for i in range(len(output)) if output[i] == kind.marker]
    if len(positions) > 1:
        return len(positions)
    if not positions:
        return None
    segment = []
    for token in output[positions[0] + 1 :]:
        if token in markers:
            break
        segment.append(token)
    return tuple(segment)


def write_augmented_oracle(lines, src_path, tgt_path, manifest_path):
    """Build each file's text in full, then write it in one piece: the
    bytes ``augment.write_augmented`` must reproduce."""
    for field, path in enumerate((src_path, tgt_path, manifest_path)):
        Path(path).write_text(
            "".join(line[field] + "\n" for line in lines), encoding="utf-8"
        )
