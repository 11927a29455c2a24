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


# Surrogates are not scalars; U+0002 and U+001A are the model's reserved
# BOUNDARY and UNK units, which input text must not forge.
_REJECTED = re.compile("[\x02\x1a\ud800-\udfff]")


def _check_scalars(text: str) -> None:
    found = _REJECTED.search(text)
    if found is not None:
        offset = len(text[: found.start()].encode("utf-8", "surrogatepass"))
        code = ord(found.group())
        kind = "reserved unit" if code < 0xD800 else "invalid Unicode scalar"
        raise NormalizationError(f"{kind} U+{code:04X} at byte offset {offset}")


def _canonical(text: str, policy: NormalizePolicy) -> str:
    _check_scalars(text)
    if policy is NormalizePolicy.NONE:
        return text
    text = unicodedata.normalize("NFC", text)
    if policy is NormalizePolicy.WIDTHFOLD:
        text = text.translate(_WIDTH_FOLD_TABLE)
    return text


def units_of(text: str, policy: NormalizePolicy = NormalizePolicy.DEFAULT) -> str:
    """Apply the policy to raw text, giving its unit sequence: a str, which
    indexes by scalar. Idempotent and deterministic.

    Under ``NormalizePolicy.NONE`` the output equals the input (identity).
    Raises NormalizationError if the text contains surrogate code points or
    the reserved units U+0002 and U+001A, naming the first offender and its
    UTF-8 byte offset.
    """
    out = _canonical(text, policy)
    return out if policy is NormalizePolicy.NONE else out.strip()


def normalize_fields(line: str, policy: NormalizePolicy = NormalizePolicy.DEFAULT) -> list[str]:
    """The TAB-separated fields of line, each normalized under policy:
    equal to ``[units_of(f, policy) for f in line.split("\\t")]``, from one
    pass over the line.

    This is exact because TAB is a starter (canonical combining class 0)
    that no canonical composition or decomposition involves, so NFC never
    acts across it, and the width-fold table does not map it. A
    NormalizationError names the line's first offender, with its byte
    offset counted from the start of the line.
    """
    fields = _canonical(line, policy).split("\t")
    return fields if policy is NormalizePolicy.NONE else [f.strip() for f in fields]
