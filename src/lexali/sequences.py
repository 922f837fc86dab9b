"""Intermediate sequences derived from a lexicon and a word alignment.

``lex`` translates the source word for word through the bilingual lexicon,
copying words the lexicon does not cover, so it is monotonic with the source
and has the same length. ``ali`` reorders that lex sequence into target
order: target positions are walked in ascending order and each one pulls in
the lex word its alignment link points at, so a lex word may appear several
times and NULL-linked target positions contribute nothing. The links are
``model1.Links`` as ``model1.read_alignment_maps`` reads them, already checked
against the lex length.
"""

from __future__ import annotations

from .corpus import Sentence
from .model1 import Links
from .symmetrize import BilingualLexicon


def make_lex(source: Sentence, lexicon: BilingualLexicon) -> Sentence:
    return tuple(
        translated if (translated := lexicon.translate(word)) is not None else word
        for word in source
    )


def make_ali(lex: Sentence, tgt_to_src: Links) -> Sentence:
    """Reorder lex words into target order along the target-to-source links."""
    out = []
    for i in tgt_to_src:
        if i is not None:
            out.append(lex[i])
    return tuple(out)
