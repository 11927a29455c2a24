"""Text normalization ahead of all unit-level position arithmetic.

All position arithmetic in the toolkit is done in "units" = Unicode scalar
values, never encoding bytes and never grapheme clusters: Chinese correction
corpora are overwhelmingly single-scalar characters, so scalar indexing keeps
span math simple while staying exact. A Python str indexes by scalar, so a
unit sequence is simply the normalized str. Raw text becomes units under
one of three policies, the members of NormalizePolicy.
"""

from __future__ import annotations

import re
import unicodedata
from enum import Enum
from functools import partial
from itertools import repeat
from operator import methodcaller
from typing import Iterable

from .errors import NormalizationError


class NormalizePolicy(Enum):
    """How raw text is canonicalized before any position arithmetic; the
    values are the CLI's --normalize names.

    NONE only checks the scalars and leaves the text as it is. DEFAULT
    applies NFC and then strips outer whitespace. WIDTHFOLD applies NFC,
    maps half-width ASCII punctuation to its full-width form and strips;
    width folding is not the default because several benchmarks treat
    full/half-width punctuation as a correctable error.
    """

    DEFAULT = "default"
    NONE = "none"
    WIDTHFOLD = "widthfold"


# Half-width ASCII punctuation -> full-width forms (U+FF01..). Letters and
# digits are left alone.
_WIDTH_FOLD_TABLE = str.maketrans(
    {cp: chr(cp + 0xFEE0) for cp in range(0x21, 0x7F) if not chr(cp).isalnum()}
)


# The model's reserved units, which input text must not forge: BOUNDARY pads
# LM contexts and UNK stands for unseen units. Surrogates are not scalars.
BOUNDARY = "\x02"
UNK = "\x1a"
_REJECTED = re.compile(f"[{BOUNDARY}{UNK}\ud800-\udfff]")


def check_scalars(text: str) -> None:
    """Raise NormalizationError if text holds a surrogate code point or one
    of the reserved units U+0002 and U+001A, naming the first of them and
    its UTF-8 byte offset."""
    found = _REJECTED.search(text)
    if found is not None:
        offset = len(text[: found.start()].encode("utf-8", "surrogatepass"))
        code = ord(found.group())
        kind = "reserved unit" if code < 0xD800 else "invalid Unicode scalar"
        raise NormalizationError(f"{kind} U+{code:04X} at byte offset {offset}")


def rejected_in(text: str) -> bool:
    """Whether check_scalars would raise on text, found by whole-string C
    scans rather than the regex: a reserved unit is a substring, and the
    strict UTF-32 encoder refuses every surrogate code point, a high one
    followed by a low one included. The readers test a block of lines
    joined into one str, which is exact because joining adds no unit."""
    if BOUNDARY in text or UNK in text:
        return True
    try:
        text.encode("utf-32-le")
    except UnicodeEncodeError:
        return True
    return False


# The steps of each policy short of the strip, C callables applied in order
# to a whole line. Neither acts across a tab or a line feed: both are
# starters (canonical combining class 0) that no canonical composition or
# decomposition involves, and the width-fold table maps neither.
_NFC = partial(unicodedata.normalize, "NFC")
_LINE_STEPS = {
    NormalizePolicy.NONE: (),
    NormalizePolicy.DEFAULT: (_NFC,),
    NormalizePolicy.WIDTHFOLD: (_NFC, methodcaller("translate", _WIDTH_FOLD_TABLE)),
}


def _unstripped(lines: Iterable[str], policy: NormalizePolicy) -> Iterable[str]:
    # Each line on its own: NFC over a joined block would run its full pass
    # over the whole block whenever one line fails the quick check.
    for step in _LINE_STEPS[policy]:
        lines = map(step, lines)
    return lines


def canonical_texts(texts: Iterable[str], policy: NormalizePolicy) -> Iterable[str]:
    """units_of of each text, lazily and with no check of the scalars (see
    rejected_in): every step is a C call mapped over the texts."""
    texts = _unstripped(texts, policy)
    return texts if policy is NormalizePolicy.NONE else map(str.strip, texts)


def canonical_fields(lines: Iterable[str], policy: NormalizePolicy) -> Iterable[Iterable[str]]:
    """The TAB-separated fields of each line, each as canonical_texts gives
    it. A line is normalized whole and split after, which is exact because
    no step but the strip acts across a tab."""
    fields = map(str.split, _unstripped(lines, policy), repeat("\t"))
    return fields if policy is NormalizePolicy.NONE else map(map, repeat(str.strip), fields)


def units_of(text: str, policy: NormalizePolicy = NormalizePolicy.DEFAULT) -> str:
    """Apply the policy to raw text, giving its unit sequence: a str, which
    indexes by scalar. Idempotent and deterministic.

    Under ``NormalizePolicy.NONE`` the output equals the input (identity).
    Raises NormalizationError if the text contains surrogate code points or
    the reserved units U+0002 and U+001A, naming the first offender and its
    UTF-8 byte offset.
    """
    check_scalars(text)
    [units] = canonical_texts((text,), policy)
    return units
