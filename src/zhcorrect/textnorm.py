"""Text normalization ahead of all unit-level position arithmetic.

All position arithmetic in the toolkit is done in "units" = Unicode scalar
values, never encoding bytes and never grapheme clusters: Chinese correction
corpora are overwhelmingly single-scalar characters, so scalar indexing keeps
span math simple while staying exact. A Python str indexes by scalar, so a
unit sequence is simply the normalized str.
"""

from __future__ import annotations

import re
import unicodedata
from enum import Enum
from typing import NamedTuple

from .errors import NormalizationError


class UnicodeForm(Enum):
    """Canonical composition applied before any other step."""

    NFC = "nfc"
    NONE = "none"


class NormalizePolicy(NamedTuple):
    """How raw text is canonicalized before any position arithmetic.

    width_fold maps half-width ASCII punctuation to its full-width form;
    it is off by default because several benchmarks treat full/half-width
    punctuation as a correctable error.
    """

    unicode_form: UnicodeForm = UnicodeForm.NFC
    width_fold: bool = False
    strip_outer_whitespace: bool = True


DEFAULT_POLICY = NormalizePolicy()
RAW_POLICY = NormalizePolicy(UnicodeForm.NONE, False, False)
WIDTHFOLD_POLICY = NormalizePolicy(UnicodeForm.NFC, True, True)

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
    if policy.unicode_form is UnicodeForm.NFC:
        text = unicodedata.normalize("NFC", text)
    if policy.width_fold:
        text = text.translate(_WIDTH_FOLD_TABLE)
    return text


def units_of(text: str, policy: NormalizePolicy = DEFAULT_POLICY) -> str:
    """Apply the policy to raw text, giving its unit sequence: a str, which
    indexes by scalar. Idempotent and deterministic.

    With ``RAW_POLICY`` the output equals the input (identity).
    Raises NormalizationError if the text contains surrogate code points or
    the reserved units U+0002 and U+001A, naming the first offender and its
    UTF-8 byte offset.
    """
    out = _canonical(text, policy)
    return out.strip() if policy.strip_outer_whitespace else out


def normalize_fields(line: str, policy: NormalizePolicy = DEFAULT_POLICY) -> list[str]:
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
    return [f.strip() for f in fields] if policy.strip_outer_whitespace else fields
