import io
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zhcorrect import (
    Corpus,
    FormatError,
    NormalizationError,
    ParallelPair,
    UsageError,
    NormalizePolicy,
    parse_parallel,
    split,
    units_of,
)
from zhcorrect.corpus import _BLOCK_LINES, iter_lines, iter_parallel, iter_plain_lines
from zhcorrect.synthetic import make_suite

_POLICIES = list(NormalizePolicy)


def _corpus_of(texts):
    return Corpus(tuple(ParallelPair(src, tuple(refs)) for src, *refs in texts))


def test_tsv_single_record():
    corpus = parse_parallel(io.StringIO("他是学生生\t他是学生\n"))
    assert len(corpus) == 1
    pair = corpus.pairs[0]
    assert pair.source == "他是学生生"
    assert len(pair.references) == 1
    assert pair.references[0] == "他是学生"


def test_tsv_multi_reference():
    corpus = parse_parallel(io.StringIO("源\t参1\t参2\n"))
    assert corpus.pairs[0].references == ("参1", "参2")


def test_tsv_missing_reference_errors_with_line_number():
    with pytest.raises(FormatError) as err:
        parse_parallel(io.StringIO("好\t很好\n只有源\n"))
    assert "line 2" in str(err.value)


@pytest.mark.parametrize(
    "line, message",
    [
        # column 1: the offset is the field's
        ("天\x02气\t天气", "line 2: reserved unit U+0002 at byte offset 3"),
        # column 2: the offset counts the first field (6 bytes) and its tab
        ("天气\t天\x02气", "line 2: reserved unit U+0002 at byte offset 10"),
        # column 3: two fields and two tabs before it
        ("天气\t天气\t天\x1a气", "line 2: reserved unit U+001A at byte offset 17"),
        ("天气\t天\ud800", "line 2: invalid Unicode scalar U+D800 at byte offset 10"),
    ],
)
def test_tsv_normalization_error_names_line_and_line_offset(line, message):
    with pytest.raises(NormalizationError) as err:
        parse_parallel(io.StringIO(f"天汽\t天气\n{line}\n"))
    assert str(err.value) == message


def test_jsonl_normalization_error_names_line():
    text = '{"id": "a", "source": "天", "references": ["天"]}\n'
    text += '{"id": "b", "source": "天", "references": ["天\\u0002"]}\n'
    with pytest.raises(NormalizationError) as err:
        parse_parallel(io.StringIO(text), "jsonl")
    assert str(err.value) == "line 2: reserved unit U+0002 at byte offset 3"


def test_tsv_comment_lines_skipped():
    corpus = parse_parallel(io.StringIO("# header\n甲\t乙\n"))
    assert len(corpus) == 1
    # '#' only counts at byte 0
    corpus = parse_parallel(io.StringIO("a#b\tc\n"))
    assert corpus.pairs[0].source == "a#b"


def test_empty_stream_is_empty_corpus():
    corpus = parse_parallel(io.StringIO(""))
    assert len(corpus) == 0


def test_jsonl_parse_and_errors():
    good = '{"id": "x1", "source": "天汽", "references": ["天气"]}\n'
    corpus = parse_parallel(io.StringIO(good), format="jsonl")
    assert corpus.pairs == (ParallelPair("天汽", ("天气",)),)

    for bad, needle in [
        ("not json\n", "line 1"),
        ('["array"]\n', "object"),
        ('{"id": "a", "source": "s"}\n', "references"),
        ('{"id": "a", "source": "s", "references": []}\n', "non-empty"),
        ('{"id": 3, "source": "s", "references": ["r"]}\n', "strings"),
    ]:
        with pytest.raises(FormatError) as err:
            parse_parallel(io.StringIO(bad), format="jsonl")
        assert needle in str(err.value)


def test_jsonl_duplicate_id_rejected():
    text = (
        '{"id": "a", "source": "一", "references": ["二"]}\n'
        '{"id": "a", "source": "三", "references": ["四"]}\n'
    )
    with pytest.raises(FormatError) as err:
        parse_parallel(io.StringIO(text), format="jsonl")
    assert "line 2" in str(err.value)


def test_unknown_format_rejected():
    with pytest.raises(UsageError):
        parse_parallel(io.StringIO(""), format="csv")


def test_split_sizes_partition_determinism():
    corpus = _corpus_of([(f"源{i}", f"参{i}") for i in range(10)])
    train, heldout = split(corpus, 0.2, seed=7)
    assert (len(train), len(heldout)) == (8, 2)
    assert {p.source for p in train} | {p.source for p in heldout} == {p.source for p in corpus}
    assert {p.source for p in train} & {p.source for p in heldout} == set()

    train2, heldout2 = split(corpus, 0.2, seed=7)
    assert train2 == train and heldout2 == heldout

    train3, heldout3 = split(corpus, 0.2, seed=8)
    assert (len(train3), len(heldout3)) == (8, 2)


def test_split_rounds_half_up():
    corpus = _corpus_of([(f"源{i}", f"参{i}") for i in range(10)])
    _, heldout = split(corpus, 0.25, seed=0)
    assert len(heldout) == 3  # round(2.5)
    small = _corpus_of([(f"源{i}", f"参{i}") for i in range(4)])
    train, heldout = split(small, 0.1, seed=0)
    assert (len(train), len(heldout)) == (4, 0)


def test_split_preserves_original_order_within_parts():
    corpus = _corpus_of([(f"源{i}", f"参{i}") for i in range(30)])
    train, heldout = split(corpus, 0.3, seed=3)
    for part in (train, heldout):
        positions = [int(p.source[1:]) for p in part]
        assert positions == sorted(positions)


def test_split_argument_errors():
    corpus = _corpus_of([("一", "二")])
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(UsageError):
            split(corpus, bad, seed=0)
    # round(0.5 * 0) = 0: an empty corpus splits into two empty parts.
    assert split(Corpus(()), 0.5, seed=0) == (Corpus(()), Corpus(()))


def test_pair_requires_reference_and_unique_ids():
    with pytest.raises(UsageError):
        ParallelPair("源", ())
    # A pair has no id, but the JSONL format names one per line: the reader
    # refuses a repeated one before it drops them.
    text = '{"id": "p", "source": "源", "references": ["参"]}\n' * 2
    with pytest.raises(FormatError, match="^line 2: duplicate pair id 'p'$"):
        parse_parallel(io.StringIO(text), "jsonl")


def test_split_property_random():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 40)
        frac = rng.uniform(0.05, 0.95)
        corpus = _corpus_of([(f"源{i}", f"参{i}") for i in range(n)])
        train, heldout = split(corpus, frac, seed=rng.randint(0, 999))
        assert len(heldout) == int(n * frac + 0.5)
        assert len(train) + len(heldout) == n


# The TSV path of parse_parallel as it was when each field was normalized on
# its own (units_of per column), kept but for the JSONL branch and the pair ids
# as the oracle of the one-pass path (normalize_fields on the whole line).
def _parse_tsv_line(line: str, lineno: int, policy: NormalizePolicy) -> ParallelPair:
    cols = line.split("\t")
    if len(cols) < 2:
        raise FormatError(
            f"line {lineno}: expected a source and at least one reference "
            f"(got {len(cols)} column{'s' if len(cols) != 1 else ''})"
        )
    return ParallelPair(
        source=units_of(cols[0], policy),
        references=tuple(units_of(c, policy) for c in cols[1:]),
    )


def _located(line: str, lineno: int, exc: NormalizationError) -> NormalizationError:
    try:
        units_of(line, NormalizePolicy.NONE)
    except NormalizationError as whole:
        exc = whole
    return NormalizationError(f"line {lineno}: {exc}")


def _oracle_parse_tsv(stream, policy=NormalizePolicy.DEFAULT):
    pairs: list[ParallelPair] = []
    for lineno, line in enumerate(iter_lines(stream), start=1):
        try:
            if line.startswith("#"):
                continue
            pairs.append(_parse_tsv_line(line, lineno, policy))
        except NormalizationError as exc:
            raise _located(line, lineno, exc) from exc
    return Corpus(tuple(pairs))


def _both_parses(text, policy):
    got = parse_parallel(io.StringIO(text), "tsv", policy)
    want = _oracle_parse_tsv(io.StringIO(text), policy)
    return got, want


@pytest.mark.parametrize("policy", _POLICIES, ids=["default", "none", "widthfold"])
def test_tsv_parse_equals_per_field_oracle_on_the_suite(policy):
    suite = make_suite(0)
    for corpus in (suite.stage1, suite.csc, suite.cgc, suite.joint, suite.eval_csc):
        text = "".join("\t".join([p.source, *p.references]) + "\n" for p in corpus)
        got, want = _both_parses(text, policy)
        assert got == want
        assert len(got) == len(corpus)


# Text that sits next to the tabs: padding that strip removes, NFD pinyin,
# half-width punctuation, a combining mark that could compose across a tab.
_TSV_PIECES = ["天", "气", "学生", " ", "\u3000", "\x1c", "a\u0301", "\u0301", "ǎ", ",", "!", "#", "\r"]


def _random_tsv(rng, n_lines):
    lines = []
    for _ in range(n_lines):
        roll = rng.random()
        if roll < 0.1:
            lines.append("#" + "".join(rng.choices(_TSV_PIECES, k=rng.randint(0, 5))))
            continue
        fields = [
            "".join(rng.choices(_TSV_PIECES, k=rng.randint(0, 6)))
            for _ in range(rng.randint(2, 4))
        ]
        lines.append("\t".join(fields))
    ends = ["\n", "\n", "\r\n"]
    text = "".join(line + rng.choice(ends) for line in lines)
    return text if rng.random() < 0.8 else text.rstrip("\n")


def _stream_length(rng, i):
    # Every twentieth stream spans more than two blocks of the reader.
    return 2 * _BLOCK_LINES + rng.randint(1, 64) if i % 20 == 0 else rng.randint(0, 40)


def test_tsv_parse_equals_per_field_oracle_on_random_lines():
    rng = random.Random(13)
    for i in range(400):
        text = _random_tsv(rng, _stream_length(rng, i))
        for policy in _POLICIES:
            got, want = _both_parses(text, policy)
            assert got == want


# The plain-line reader as it was when each line was normalized on its own,
# the oracle of the block reader.
def _oracle_parse_lines(stream, policy):
    units = []
    for lineno, line in enumerate(iter_lines(stream), start=1):
        try:
            units.append(units_of(line, policy))
        except NormalizationError as exc:
            raise NormalizationError(f"line {lineno}: {exc}") from exc
    return units


def _outcome(parse, text, policy):
    try:
        return list(parse(io.StringIO(text), policy))
    except NormalizationError as exc:
        return str(exc)


def test_plain_lines_equal_the_per_line_oracle_on_random_lines():
    rng = random.Random(17)
    pieces = [*_TSV_PIECES, "\t", "\u2028"]
    for i in range(200):
        n_lines = _stream_length(rng, i)
        lines = ["".join(rng.choices(pieces, k=rng.randint(0, 6))) for _ in range(n_lines)]
        for _ in range(rng.choice([0, 0, 1, 2])):
            if lines:
                at = rng.randrange(len(lines))
                lines[at] += rng.choice(["\x02", "\x1a", "\ud800", "\udfff"])
        text = "".join(line + rng.choice(["\n", "\r\n"]) for line in lines)
        for policy in _POLICIES:
            want = _outcome(_oracle_parse_lines, text, policy)
            assert _outcome(iter_plain_lines, text, policy) == want


def _three_blocks(make):
    return [make(i) for i in range(3 * _BLOCK_LINES)]


def _text(lines):
    return "".join(line + "\n" for line in lines)


def test_a_comment_holding_a_reserved_unit_is_exempt_in_every_block():
    lines = _three_blocks(lambda i: f"源{i}\t参{i}")
    for at in (3, _BLOCK_LINES + 1, 2 * _BLOCK_LINES + 4):
        lines[at] = "# \x02 note\x1a"
    for policy in _POLICIES:
        corpus = parse_parallel(io.StringIO(_text(lines)), "tsv", policy)
        last = len(lines) - 1
        assert len(corpus) == len(lines) - 3
        assert corpus.pairs[-1] == ParallelPair(f"源{last}", (f"参{last}",))


def test_a_hash_inside_a_data_field_is_data():
    # The block's only '#' is not at byte 0, so the row is no comment.
    lines = _three_blocks(lambda i: f"源{i}\t参{i}")
    lines[_BLOCK_LINES + 5] = "源#\t参#"
    for policy in _POLICIES:
        corpus = parse_parallel(io.StringIO(_text(lines)), "tsv", policy)
        assert len(corpus) == len(lines)
        assert corpus.pairs[_BLOCK_LINES + 5] == ParallelPair(
            units_of("源#", policy), (units_of("参#", policy),)
        )


def test_a_hash_at_byte_zero_of_a_later_block_is_a_comment():
    # A comment in the second block is dropped and exempt from the check of
    # the reserved units, in a block whose other '#' sits inside a field.
    lines = _three_blocks(lambda i: f"源{i}\t参{i}")
    lines[_BLOCK_LINES] = "源#\t参"
    lines[_BLOCK_LINES + 7] = "#\x02\ud800 只有源"
    for policy in _POLICIES:
        corpus = parse_parallel(io.StringIO(_text(lines)), "tsv", policy)
        assert len(corpus) == len(lines) - 1
        assert corpus.pairs[_BLOCK_LINES] == ParallelPair(units_of("源#", policy), ("参",))
        at = _BLOCK_LINES + 7
        assert corpus.pairs[at] == ParallelPair(f"源{at + 1}", (f"参{at + 1}",))


@pytest.mark.parametrize(
    ("bad", "message"),
    [
        # a reserved unit in the third block, its line counted over all blocks
        ({6: "源\t参\x1a"}, "line {}: reserved unit U+001A at byte offset 7"),
        ({6: "源\t\ud800参"}, "line {}: invalid Unicode scalar U+D800 at byte offset 4"),
        # a line without a tab before a reserved unit of its block wins, and
        # one after it loses
        (
            {2: "只有源", 6: "源\t\x02"},
            "line {}: expected a source and at least one reference (got 1 column)",
        ),
        ({2: "源\x02\t参", 6: "只有源"}, "line {}: reserved unit U+0002 at byte offset 3"),
    ],
    ids=["reserved", "surrogate", "no-tab-first", "reserved-first"],
)
def test_tsv_names_the_first_bad_line_of_the_third_block(bad, message):
    lines = _three_blocks(lambda i: f"源{i}\t参{i}")
    for offset, line in bad.items():
        lines[2 * _BLOCK_LINES + offset] = line
    first = 2 * _BLOCK_LINES + min(bad) + 1
    for policy in _POLICIES:
        with pytest.raises((FormatError, NormalizationError)) as err:
            parse_parallel(io.StringIO(_text(lines)), "tsv", policy)
        assert str(err.value) == message.format(first)


@pytest.mark.parametrize(
    ("bad", "message"),
    [
        ("天气\x1a", "reserved unit U+001A at byte offset 6"),
        ("\t天\udfff", "invalid Unicode scalar U+DFFF at byte offset 4"),
        ("# \x02", "reserved unit U+0002 at byte offset 2"),
    ],
)
def test_plain_lines_name_a_bad_line_of_the_third_block(bad, message):
    # Plain lines have no comments: a line that opens with '#' is checked.
    lines = _three_blocks(lambda i: f"天气{i}")
    lines[2 * _BLOCK_LINES + 6] = bad
    for policy in _POLICIES:
        with pytest.raises(NormalizationError) as err:
            list(iter_plain_lines(io.StringIO(_text(lines)), policy))
        assert str(err.value) == f"line {2 * _BLOCK_LINES + 7}: {message}"


class _Counted:
    """An iterable of lines that counts the lines read from it."""

    def __init__(self, lines):
        self.read = 0
        self._lines = iter(lines)

    def __iter__(self):
        for line in self._lines:
            self.read += 1
            yield line


_LAZY_READERS = {
    "tsv": (lambda i: f"源{i}\t参{i}", lambda stream: iter_parallel(stream, "tsv")),
    "jsonl": (
        lambda i: json.dumps({"id": f"p{i}", "source": f"源{i}", "references": [f"参{i}"]}),
        lambda stream: iter_parallel(stream, "jsonl"),
    ),
    "plain": (lambda i: f"天气{i}", iter_plain_lines),
}


@pytest.mark.parametrize("kind", list(_LAZY_READERS))
def test_lazy_readers_read_one_block_ahead(kind):
    make, reader = _LAZY_READERS[kind]
    stream = _Counted(line + "\n" for line in _three_blocks(make))
    rows = reader(stream)
    assert stream.read == 0
    next(rows)
    assert stream.read == _BLOCK_LINES
    for _ in range(_BLOCK_LINES - 1):
        next(rows)
    assert stream.read == _BLOCK_LINES
    next(rows)
    assert stream.read == 2 * _BLOCK_LINES
    assert len(list(rows)) == 2 * _BLOCK_LINES - 1


@pytest.mark.parametrize(
    ("kind", "bad", "error"),
    [
        ("tsv", "只有源", FormatError),
        ("tsv", "源\t参\x1a", NormalizationError),
        ("plain", "天气\x02", NormalizationError),
    ],
)
def test_lazy_readers_yield_two_blocks_before_a_bad_line_of_the_third(kind, bad, error):
    make, reader = _LAZY_READERS[kind]
    lines = _three_blocks(make)
    lines[2 * _BLOCK_LINES + 6] = bad
    for policy in _POLICIES:
        rows = []
        with pytest.raises(error, match=f"^line {2 * _BLOCK_LINES + 7}: "):
            for row in reader(io.StringIO(_text(lines))):
                rows.append(row)
        assert len(rows) == 2 * _BLOCK_LINES
        if kind == "tsv":
            assert rows == [(f"源{i}", (f"参{i}",)) for i in range(2 * _BLOCK_LINES)]
        else:
            assert rows == [f"天气{i}" for i in range(2 * _BLOCK_LINES)]


def test_parse_parallel_collects_what_iter_parallel_yields():
    text = '{"id": "b", "source": "天汽", "references": ["天气", "天汽"]}\n'
    for format, stream in (("tsv", "# c\n天汽\t天气\n学圣\t学生\t学圣\n"), ("jsonl", text)):
        rows = list(iter_parallel(io.StringIO(stream), format))
        corpus = parse_parallel(io.StringIO(stream), format)
        assert list(corpus) == [ParallelPair(*row) for row in rows]


def test_iter_parallel_rejects_an_unknown_format_before_reading():
    stream = _Counted(["天汽\t天气\n"])
    with pytest.raises(UsageError, match="unknown corpus format 'csv'"):
        iter_parallel(stream, "csv")
    assert stream.read == 0


def test_only_the_cr_of_a_crlf_ending_is_dropped():
    text = "甲\r\r\n乙\r\n丙\r\r\r\n\r\n丁\r"
    assert list(iter_lines(io.StringIO(text))) == ["甲\r", "乙", "丙\r\r", "", "丁"]
    assert list(iter_plain_lines(io.StringIO(text), NormalizePolicy.NONE)) == ["甲\r", "乙", "丙\r\r", "", "丁"]
    assert list(iter_plain_lines(io.StringIO(text), NormalizePolicy.DEFAULT)) == ["甲", "乙", "丙", "", "丁"]
    tsv = "甲\t乙\r\r\n丙\t丁\r\n"
    corpus = parse_parallel(io.StringIO(tsv), "tsv", NormalizePolicy.NONE)
    assert [p.references for p in corpus] == [("乙\r",), ("丁",)]


_BOM = "\ufeff"


def _plain_lines(stream, policy):
    return list(iter_plain_lines(stream, policy))


@pytest.mark.parametrize(
    ("text", "read", "rows"),
    [
        (
            f"{_BOM}{_BOM}源\t参\n{_BOM}源\t参{_BOM}\n",
            lambda stream, policy: list(iter_parallel(stream, "tsv", policy)),
            [(f"{_BOM}源", ("参",)), (f"{_BOM}源", (f"参{_BOM}",))],
        ),
        (
            f"{_BOM}# a comment\n源\t参\n",
            lambda stream, policy: list(iter_parallel(stream, "tsv", policy)),
            [("源", ("参",))],
        ),
        (
            f'{_BOM}{{"id": "a", "source": "源", "references": ["参"]}}\n'
            f'{{"id": "b", "source": "{_BOM}源", "references": ["参"]}}\n',
            lambda stream, policy: list(iter_parallel(stream, "jsonl", policy)),
            [("源", ("参",)), (f"{_BOM}源", ("参",))],
        ),
        (f"{_BOM}{_BOM}好\n{_BOM}好\n", _plain_lines, [f"{_BOM}好", f"{_BOM}好"]),
        (f"{_BOM}\n好\n", _plain_lines, ["", "好"]),
    ],
    ids=["tsv", "tsv-comment", "jsonl", "plain", "plain-bom-only"],
)
def test_readers_drop_one_byte_order_mark_from_the_first_line_only(text, read, rows):
    for policy in _POLICIES:
        assert read(io.StringIO(text), policy) == rows


def test_a_byte_order_mark_counts_only_at_the_start_of_a_stream():
    lines = [f"{_BOM}好"] * (_BLOCK_LINES + 2)
    got = _plain_lines(io.StringIO(_text(lines)), NormalizePolicy.NONE)
    assert got == ["好"] + [f"{_BOM}好"] * (_BLOCK_LINES + 1)
    assert list(iter_lines(io.StringIO(_text(lines)))) == got


_BAD_LINES = ["只有源", "", "\r", " 天\u0301\t\x1a", "天气\t天\udfff\t天\x02"] + [
    "\t".join("天\u0301气" if i != column else f"天{bad}气" for i in range(3))
    for bad in ("\x02", "\x1a", "\ud800")
    for column in range(3)
]


@pytest.mark.parametrize("line", _BAD_LINES, ids=repr)
def test_tsv_errors_equal_the_per_field_oracle(line):
    text = f"# head\n天汽\t天气\r\n{line}\n天\t天\n"
    for policy in _POLICIES:
        with pytest.raises((FormatError, NormalizationError)) as got:
            parse_parallel(io.StringIO(text), "tsv", policy)
        with pytest.raises((FormatError, NormalizationError)) as want:
            _oracle_parse_tsv(io.StringIO(text), policy)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("line 3: ")


# Pieces that normalization or the JSONL line split could act on: padding,
# NFD pinyin, a lone combining mark, half-width punctuation, separators of
# other kinds, and the comment mark.
_ROUND_TRIP_PIECES = ["天", "气", "学生", "a", " ", "\u3000", "a\u0301", "\u0301", ",", "#", "\r", "\u2028", "\x1c"]


def _round_trip_corpus(data, pieces, policy):
    text = st.lists(st.sampled_from(pieces), max_size=5).map(lambda p: units_of("".join(p), policy))
    pairs = []
    for _ in range(data.draw(st.integers(0, 5))):
        source, *refs = data.draw(st.lists(text, min_size=2, max_size=4))
        pairs.append(ParallelPair(source, tuple(refs)))
    return Corpus(tuple(pairs))


@pytest.mark.parametrize("policy", _POLICIES, ids=["default", "none", "widthfold"])
@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=st.data())
def test_jsonl_serialization_reads_back_as_written(policy, data):
    # The parser reads back each pair as json.dumps writes it, U+2028, tab,
    # line feed, quote and backslash included.
    corpus = _round_trip_corpus(data, [*_ROUND_TRIP_PIECES, "\t", "\n", '"', "\\"], policy)
    rows = (
        {"id": str(i), "source": p.source, "references": list(p.references)}
        for i, p in enumerate(corpus)
    )
    text = "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows)
    assert parse_parallel(io.StringIO(text), "jsonl", policy) == corpus
