import io
import random
import unicodedata

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zhcorrect import NormalizationError, NormalizePolicy, units_of
from zhcorrect.model import BOUNDARY, UNK
from zhcorrect.corpus import parse_parallel
from zhcorrect.textnorm import canonical_fields, rejected_in

_POOL = (
    "我爱北京他是学生天气很好"
    "abcXYZ019"
    " \t"
    ",.!?;:"
    "，。！？"
    "ｈｅｌｌｏＡ１"
    "é́"
)


def _random_text(rng, max_len=20):
    return "".join(rng.choice(_POOL) for _ in range(rng.randint(0, max_len)))


def test_already_normalized_passthrough():
    assert units_of("我爱北京", NormalizePolicy.DEFAULT) == "我爱北京"


def test_strip_outer_whitespace():
    assert units_of("  abc ", NormalizePolicy.DEFAULT) == "abc"
    assert units_of("  abc ", NormalizePolicy.WIDTHFOLD) == "abc"
    assert units_of("  abc ", NormalizePolicy.NONE) == "  abc "


def test_raw_policy_is_identity():
    for text in ["", "  a b ", "ｈｅｌｌｏ", "。，", "é", " \t x \n"]:
        assert units_of(text, NormalizePolicy.NONE) == text


def test_idempotent_under_every_policy():
    rng = random.Random(7)
    for _ in range(300):
        text = _random_text(rng)
        for policy in NormalizePolicy:
            once = units_of(text, policy)
            assert units_of(once, policy) == once


def test_width_fold_touches_punctuation_only():
    assert units_of(",", NormalizePolicy.WIDTHFOLD) == "，"
    assert units_of("a1!", NormalizePolicy.WIDTHFOLD) == "a1！"
    assert units_of("abc,def?", NormalizePolicy.WIDTHFOLD) == "abc，def？"
    # already full-width stays put
    assert units_of("，！", NormalizePolicy.WIDTHFOLD) == "，！"


def test_nfc_composes_combining_marks():
    decomposed = "é"
    assert units_of(decomposed, NormalizePolicy.DEFAULT) == "é"
    assert units_of(decomposed, NormalizePolicy.NONE) == decomposed


def test_surrogate_rejected_with_byte_offset():
    with pytest.raises(NormalizationError) as err:
        units_of("我a\ud800x", NormalizePolicy.DEFAULT)
    # "我" is 3 UTF-8 bytes, "a" is 1
    assert "byte offset 4" in str(err.value)
    assert "D800" in str(err.value)


def _loop_check_scalars(text):
    """The per-character scan that the regex replaced, kept as its oracle:
    the first surrogate and its UTF-8 byte offset, or None."""
    for i, ch in enumerate(text):
        if 0xD800 <= ord(ch) <= 0xDFFF:
            return ch, len(text[:i].encode("utf-8", "surrogatepass"))
    return None


def test_surrogate_scan_matches_per_character_loop():
    rng = random.Random(5)
    surrogates = ["\ud800", "\udbff", "\udc00", "\udfff", chr(rng.randint(0xD800, 0xDFFF))]
    edges = ["\ud7ff", "\ue000", "\U00010000", "\U0010ffff"]  # neighbours, not surrogates
    for _ in range(2000):
        units = list(_random_text(rng, 40)) + rng.sample(edges, rng.randint(0, 2))
        for _ in range(rng.choice([0, 0, 1, 2, 3])):
            units.insert(rng.randint(0, len(units)), rng.choice(surrogates))
        text = "".join(units)
        expected = _loop_check_scalars(text)
        if expected is None:
            assert units_of(text, NormalizePolicy.NONE) == text
            continue
        with pytest.raises(NormalizationError) as err:
            units_of(text, NormalizePolicy.NONE)
        ch, offset = expected
        assert str(err.value) == (
            f"invalid Unicode scalar U+{ord(ch):04X} at byte offset {offset}"
        )


@pytest.mark.parametrize("policy", list(NormalizePolicy), ids=lambda policy: policy.value)
def test_reserved_units_rejected_with_byte_offset(policy):
    # U+0002 and U+001A are the model's BOUNDARY and UNK: text carrying them
    # would forge a sentence-start context or an out-of-vocabulary unit.
    assert (BOUNDARY, UNK) == ("\x02", "\x1a")
    for text, code, offset in [
        ("\x02\x02好", "0002", 0),
        ("好\x02", "0002", 3),
        ("我a\x1ax", "001A", 4),
        (" \x1a\ud800", "001A", 1),  # the first offender is named
        ("\ud800\x02", "D800", 0),
    ]:
        with pytest.raises(NormalizationError) as err:
            units_of(text, policy)
        kind = "invalid Unicode scalar" if code == "D800" else "reserved unit"
        assert str(err.value) == f"{kind} U+{code} at byte offset {offset}"


def test_reserved_scan_matches_per_character_loop():
    rng = random.Random(9)
    rejected = ["\x02", "\x1a", "\ud800", "\udfff"]
    neighbours = ["\x01", "\x03", "\x19", "\x1b"]
    for _ in range(1000):
        units = list(_random_text(rng, 30)) + rng.sample(neighbours, rng.randint(0, 2))
        for _ in range(rng.choice([0, 0, 1, 2])):
            units.insert(rng.randint(0, len(units)), rng.choice(rejected))
        text = "".join(units)
        first = next((i for i, ch in enumerate(text) if ch in rejected), None)
        if first is None:
            assert units_of(text, NormalizePolicy.NONE) == text
            continue
        with pytest.raises(NormalizationError) as err:
            units_of(text, NormalizePolicy.NONE)
        offset = len(text[:first].encode("utf-8", "surrogatepass"))
        assert f"U+{ord(text[first]):04X} at byte offset {offset}" in str(err.value)


def test_units_of_counts_scalars():
    # a unit sequence is the normalized str: one unit per Unicode scalar
    assert tuple(units_of("北京")) == ("北", "京")
    assert len(units_of("北京")) == 2
    assert len(units_of("")) == 0
    assert tuple(units_of("a北")) == ("a", "北")
    assert len(units_of("a北")) == 2
    assert len(units_of("\U00020000")) == 1  # outside the BMP: still one unit


def test_unitseq_roundtrip_and_slicing():
    rng = random.Random(11)
    for _ in range(200):
        raw = _random_text(rng)
        norm = unicodedata.normalize("NFC", raw).strip()
        seq = units_of(raw, NormalizePolicy.DEFAULT)
        assert isinstance(seq, str)
        assert seq == norm
        assert "".join(list(seq)) == norm
        if len(seq):
            i = rng.randrange(len(seq))
            j = rng.randint(i, len(seq))
            assert seq[i:j] == norm[i:j]
            assert seq[i] == norm[i] and len(seq[i]) == 1


def test_units_join_back_to_text():
    units = ("你", "好")
    assert "".join(units) == "你好"
    assert tuple(units_of("".join(units))) == units


def test_policy_enum_values():
    assert [p.value for p in NormalizePolicy] == ["default", "none", "widthfold"]
    assert units_of(" a,\u0301 ") == units_of(" a,\u0301 ", NormalizePolicy.DEFAULT) == "a,\u0301"
    assert units_of(" a,\u0301 ", NormalizePolicy.WIDTHFOLD) == "a，\u0301"


# Units that a whole-line pass could get wrong at a tab: combining marks, NFD
# pinyin and Hangul jamo that compose with a neighbour, singletons that NFC
# replaces, whitespace that strip removes (U+001C, U+0085, U+3000, CR),
# half-width punctuation, the reserved units and both surrogate halves.
_FIELD_UNITS = (
    "\t\t\t天气ae,.! \r\x1c\x85\u3000"
    "\u0301\u0300\u0308\u0304\u1100\u1161\u11a8\uac00\u212b\u0344"
    "\x02\x1a\ud800\udc00"
)


@settings(derandomize=True, deadline=None, max_examples=600)
@given(
    st.lists(st.sampled_from(_FIELD_UNITS), max_size=24).map("".join),
    st.sampled_from(list(NormalizePolicy)),
)
def test_canonical_fields_equal_units_of_per_field(line, policy):
    # The line also goes through the TSV reader, after a clean line, so the
    # block check and the error of the line check are both compared.
    stream = ["天\t气\n", line]
    try:
        units_of(line, NormalizePolicy.NONE)
    except NormalizationError as whole:
        assert rejected_in("".join(["天气", line]))
        if "\t" in line and not line.startswith("#"):
            # the line's first offender, its offset counted from the line's start
            with pytest.raises(NormalizationError) as err:
                parse_parallel(stream, "tsv", policy)
            assert str(err.value) == f"line 2: {whole}"
        return
    assert not rejected_in("".join(["天气", line]))
    [fields] = canonical_fields([line], policy)
    assert list(fields) == [units_of(f, policy) for f in line.split("\t")]
    if "\t" in line and not line.startswith("#") and not line.endswith("\r"):
        pair = parse_parallel(stream, "tsv", policy).pairs[1]
        assert [pair.source, *pair.references] == [units_of(f, policy) for f in line.split("\t")]


def _check_raises(line):
    try:
        units_of(line, NormalizePolicy.NONE)
    except NormalizationError:
        return True
    return False


# CJK units, an Ext-B unit that makes a str UCS-4, the reserved units and
# both surrogate halves, which may meet at the end and start of two lines.
_BLOCK_UNITS = ("天", "气", "学", "\U00020000", "\x02", "\x1a", "\ud800", "\udbff", "\udc00", "\udfff")


@settings(derandomize=True, deadline=None, max_examples=1500)
@given(st.lists(st.lists(st.sampled_from(_BLOCK_UNITS), max_size=6).map("".join), max_size=6))
@example(["天\ud800", "\udc00气"])
@example(["\U00020000\udbff", "\udfff"])
@example(["\U00010000\x1a"])
@example(["天\U00020000", "气"])
@example([])
def test_rejected_in_joined_lines_equals_check_scalars_on_some_line(lines):
    # Joining adds no unit, so the joined block is rejected exactly when a line is.
    assert rejected_in("".join(lines)) == any(map(_check_raises, lines))
