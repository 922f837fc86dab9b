"""Intermediate sequences derived from a lexicon and a word alignment.

``lex`` translates the source word for word through the bilingual lexicon,
copying words the lexicon does not cover, so it is monotonic with the source
and has the same length. ``ali`` reorders that lex sequence into target
order: target positions are walked in ascending order and each one pulls in
the lex word its alignment link points at, so a lex word may appear several
times and NULL-linked target positions contribute nothing.
"""

from __future__ import annotations

from .corpus import Sentence
from .errors import AlignmentError
from .model1 import DirectionalAlignment
from .symmetrize import BilingualLexicon


def make_lex(source: Sentence, lexicon: BilingualLexicon) -> Sentence:
    return tuple(
        translated if (translated := lexicon.translate(word)) is not None else word
        for word in source
    )


def make_ali(
    lex: Sentence, tgt_to_src: DirectionalAlignment, target_length: int
) -> Sentence:
    """Reorder lex words into target order along the target-to-source links."""
    if len(tgt_to_src.links) != target_length:
        raise AlignmentError(
            f"alignment has {len(tgt_to_src.links)} links for target "
            f"length {target_length}"
        )
    out = []
    for i in tgt_to_src.links:
        if i is None:
            continue
        if not 0 <= i < len(lex):
            raise AlignmentError(
                f"link {i} out of range for lex length {len(lex)}"
            )
        out.append(lex[i])
    return tuple(out)
