import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zhcorrect import (
    Edit,
    EditKind,
    EditSet,
    FormatError,
    GoldRecord,
    MatchCounts,
    MergePolicy,
    StructuralError,
    apply_edits,
    extract_edits,
    format_edit_records,
    match_edits,
    parse_edit_file,
)

_CJK = [chr(c) for c in range(0x4E00, 0x4E00 + 80)]


def _corrupt(rng, text):
    units = list(text)
    for _ in range(rng.randint(0, 4)):
        if not units:
            break
        roll, i = rng.random(), rng.randrange(len(units))
        if roll < 0.4:
            units[i] = rng.choice(_CJK)
        elif roll < 0.7:
            units.insert(i, rng.choice(_CJK))
        else:
            del units[i]
    return "".join(units)


def test_classify_kind():
    assert Edit(2, 2, "甲").kind is EditKind.INSERT
    assert Edit(2, 3, "").kind is EditKind.DELETE
    assert Edit(2, 3, "甲").kind is EditKind.SUBSTITUTE
    assert Edit(2, 3, "甲乙").kind is EditKind.COMPLEX


def test_edit_validation():
    with pytest.raises(StructuralError):
        Edit(3, 2, "x")
    with pytest.raises(StructuralError):
        Edit(1, 1, "")  # no-op


def test_editset_invariants():
    e1 = Edit(0, 2, "x")
    e2 = Edit(1, 3, "y")
    with pytest.raises(StructuralError):
        EditSet((e1, e2))  # overlap
    i1 = Edit(2, 2, "x")
    i2 = Edit(2, 2, "y")
    with pytest.raises(StructuralError):
        EditSet((i1, i2))  # two insertions at one point


def test_extract_identity_is_empty():
    assert len(extract_edits("我爱北京", "我爱北京")) == 0


def test_extract_single_deletion():
    edit_set = extract_edits("他是学生生", "他是学生")
    assert len(edit_set) == 1
    edit = edit_set.edits[0]
    assert (edit.start, edit.end) == (4, 5)
    assert edit.replacement == ""
    assert edit.kind is EditKind.DELETE


def test_adjacent_sub_ins_merges_to_complex():
    merged = extract_edits("他好", "你们好", MergePolicy.MAXIMAL_RUNS)
    assert len(merged) == 1
    edit = merged.edits[0]
    assert (edit.start, edit.end) == (0, 1)
    assert edit.replacement == "你们"
    assert edit.kind is EditKind.COMPLEX

    separate = extract_edits("他好", "你们好", MergePolicy.NONE)
    assert [(e.start, e.end, e.replacement) for e in separate.edits] == [
        (0, 1, "你"),
        (1, 1, "们"),
    ]


def test_none_policy_coalesces_same_point_insertions():
    separate = extract_edits("a", "xya", MergePolicy.NONE)
    assert [(e.start, e.end, e.replacement) for e in separate.edits] == [(0, 0, "xy")]


def test_apply_edits():
    src = "他是学生生"
    assert apply_edits(src, EditSet(())) == "他是学生生"
    deletion = EditSet((Edit(4, 5, ""),))
    assert apply_edits(src, deletion) == "他是学生"


def test_apply_rejects_out_of_range():
    src = "abc"
    bad = EditSet((Edit(2, 5, ""),))
    with pytest.raises(StructuralError):
        apply_edits(src, bad)


def test_roundtrip_random_pairs_both_policies():
    rng = random.Random(97)
    for _ in range(300):
        clean = "".join(rng.choice(_CJK) for _ in range(rng.randint(0, 10)))
        src = _corrupt(rng, clean)
        for policy in MergePolicy:
            assert apply_edits(src, extract_edits(src, clean, policy)) == clean


def test_match_edits_counts():
    e1 = Edit(0, 1, "甲")
    e2 = Edit(2, 3, "乙")
    e3 = Edit(4, 5, "丙")
    e4 = Edit(6, 7, "丁")
    gold3 = EditSet((e1, e2, e3))
    assert match_edits(gold3, gold3) == MatchCounts(3, 0, 0)

    hyp = EditSet((e1, e2))
    gold = EditSet((e3, e4))
    assert match_edits(hyp, gold) == MatchCounts(0, 2, 2)

    hyp = EditSet((e1, e2))
    gold = EditSet((e1, e3))
    assert match_edits(hyp, gold) == MatchCounts(1, 1, 1)


def test_match_self_never_has_errors():
    rng = random.Random(5)
    for _ in range(50):
        clean = "".join(rng.choice(_CJK) for _ in range(rng.randint(1, 8)))
        src = _corrupt(rng, clean)
        edit_set = extract_edits(src, clean)
        counts = match_edits(edit_set, edit_set)
        assert (counts.fp, counts.fn) == (0, 0)


def test_matchcounts_addition():
    assert MatchCounts(1, 2, 3) + MatchCounts(4, 5, 6) == MatchCounts(5, 7, 9)


def test_format_deletion_record_exact_bytes():
    source = "他是学生生"
    refs = [EditSet((Edit(4, 5, ""),))]
    text = format_edit_records([(source, refs)])
    assert text == "S 他是学生生\nA 4 5|||del|||-NONE-|||0\n\n"


def test_format_clean_record_has_no_a_lines():
    text = format_edit_records([("他是学生", [EditSet(())])])
    assert text == "S 他是学生\n\n"


def test_format_two_references_carry_ref_ids():
    source = "天汽很号"
    refs = [
        EditSet((Edit(1, 2, "气"), Edit(3, 4, "好"))),
        EditSet((Edit(1, 2, "气"),)),
    ]
    text = format_edit_records([(source, refs)])
    assert "|||0\n" in text and "|||1\n" in text


def test_parse_edit_file_roundtrip():
    source = "天汽很号"
    refs = (
        EditSet((Edit(1, 2, "气"), Edit(3, 4, "好"))),
        EditSet((Edit(1, 2, "氣"),)),
    )
    text = format_edit_records([(source, refs)])
    parsed = parse_edit_file(io.StringIO(text))
    assert len(parsed) == 1
    record = parsed[0]
    assert record.source == source
    assert record.refs == refs
    # file-level fixed point
    assert format_edit_records([(record.source, record.refs)]) == text


def test_format_writes_a_noop_line_for_a_reference_without_edits_beside_others():
    refs = [EditSet(()), EditSet((Edit(1, 2, "丁"),)), EditSet(())]
    text = format_edit_records([("甲乙丙", refs)])
    assert text == (
        "S 甲乙丙\n"
        "A -1 -1|||noop|||-NONE-|||0\n"
        "A 1 2|||sub|||丁|||1\n"
        "A -1 -1|||noop|||-NONE-|||2\n"
        "\n"
    )
    assert parse_edit_file(io.StringIO(text))[0].refs == tuple(refs)


def test_format_keeps_the_ref_id_of_a_lone_reference_without_edits():
    # A record's only reference, ref 0, goes without an "A" line when it has
    # no edits, as a record without one reads back.
    refs = (EditSet(()),)
    text = format_edit_records([("甲", refs)])
    assert text == "S 甲\n\n"
    [record] = parse_edit_file(io.StringIO(text))
    assert record.refs == refs
    assert format_edit_records([(record.source, record.refs)]) == text


def test_parse_orders_references_by_ref_id_and_keeps_no_id():
    # Ids 0 and 2 read as two references in id order, whatever the order of
    # their lines, and are written back as refs 0 and 1.
    text = "S 甲乙丙\nA 2 3|||sub|||戊|||2\nA 0 1|||sub|||丁|||0\n\n"
    [record] = parse_edit_file(io.StringIO(text))
    assert record.refs == (EditSet((Edit(0, 1, "丁"),)), EditSet((Edit(2, 3, "戊"),)))
    assert format_edit_records([(record.source, record.refs)]) == (
        "S 甲乙丙\nA 0 1|||sub|||丁|||0\nA 2 3|||sub|||戊|||1\n\n"
    )


def test_parse_reads_a_noop_line_and_refuses_other_negative_spans():
    text = "S 甲\nA -1 -1|||noop|||-NONE-|||3\n\n"
    assert parse_edit_file(io.StringIO(text))[0].refs == (EditSet(()),)
    for line in (
        "A -1 -1|||del|||-NONE-|||0",
        "A -1 -1|||noop|||甲|||0",
        "A -1 0|||noop|||-NONE-|||0",
        "A -2 -2|||noop|||-NONE-|||0",
    ):
        with pytest.raises(FormatError, match="line 2: bad edit span"):
            parse_edit_file(io.StringIO(f"S 甲\n{line}\n\n"))


@pytest.mark.parametrize(
    "line",
    [
        "A 1_0 1_1|||sub|||戊|||0",
        "A \u0661 \u0662|||sub|||戊|||0",
        "A \uff11 \uff12|||sub|||戊|||0",
        "A +1 2|||sub|||戊|||0",
        "A 1 2|||sub|||戊|||-1",
        "A 1 2|||sub|||戊|||+1",
        "A 1 2|||sub|||戊|||1_0",
        "A 1 2|||sub|||戊|||\u0661",
        "A 1 2|||sub|||戊|||0 ",
        "A 1 2|||sub|||戊|||",
        "A -1 -1|||noop|||-NONE-|||-1",
        "A -1 -1|||noop|||-NONE-|||٠",
        "A 1 2 3|||sub|||戊|||0",
        "A 1|||sub|||戊|||0",
        "A 1\u30002|||sub|||戊|||0",
        "A 1\t2|||sub|||戊|||0",
        "A 1  2|||sub|||戊|||0",
        "A 1 2 |||sub|||戊|||0",
        "A 1 " + "9" * 5000 + "|||sub|||戊|||0",
    ],
)
def test_parse_refuses_a_span_or_ref_id_not_in_ascii_digits(line):
    text = f"S 甲乙丙丁戊己庚辛壬癸甲乙\n{line}\n\n"
    with pytest.raises(FormatError) as err:
        parse_edit_file(io.StringIO(text))
    assert str(err.value) == "line 2: bad span or ref id"


def test_format_refuses_a_ref_id_it_could_not_read_back():
    # A record without references would read back as one empty reference.
    # The error names the record by its position.
    clean = ("甲", [EditSet(())])
    with pytest.raises(FormatError, match="^record 1 has no reference"):
        format_edit_records([clean, ("甲乙", [])])


def test_parse_clean_record_yields_implicit_empty_reference():
    parsed = parse_edit_file(io.StringIO("S 他是学生\n\n"))
    record = parsed[0]
    assert len(record.refs) == 1
    assert record.refs[0].edits == ()


def test_parse_handles_missing_final_blank_line():
    parsed = parse_edit_file(io.StringIO("S 学生生\nA 2 3|||del|||-NONE-|||0"))
    assert len(parsed) == 1


def test_parse_sorts_out_of_order_a_lines():
    text = "S 天汽很号\nA 3 4|||sub|||好|||0\nA 1 2|||sub|||气|||0\n\n"
    record = parse_edit_file(io.StringIO(text))[0]
    assert [(e.start, e.end) for e in record.refs[0].edits] == [(1, 2), (3, 4)]


def test_parse_errors_carry_line_numbers():
    cases = [
        ("A 0 1|||sub|||x|||0\n", "line 1"),
        ("S 好\nA 0 1|||sub|||x\n", "line 2"),
        ("S 好\nA z 1|||sub|||x|||0\n", "line 2"),
        ("S 好\nX nonsense\n", "line 2"),
        ("S 好\nS 再\n", "line 2"),
        ("S 好\nS\n", "line 2: record is missing its terminating blank line"),
    ]
    for text, needle in cases:
        with pytest.raises(FormatError) as err:
            parse_edit_file(io.StringIO(text))
        assert needle in str(err.value)


def test_parse_reads_a_bare_s_line_as_an_empty_source():
    records = parse_edit_file(io.StringIO("S\nA 0 0|||ins|||甲|||0\n\nS \n\n"))
    assert [r.source for r in records] == ["", ""]
    assert records[0].refs == (EditSet((Edit(0, 0, "甲"),)),)


def test_parse_rejects_overlapping_edits_as_format_error():
    text = "S 四字句子\nA 0 2|||sub|||甲|||0\nA 1 3|||sub|||乙|||0\n\n"
    with pytest.raises(FormatError) as err:
        parse_edit_file(io.StringIO(text))
    assert "record ending at line" in str(err.value)


def test_merge_policies_apply_identically():
    rng = random.Random(211)
    for _ in range(100):
        clean = "".join(rng.choice(_CJK) for _ in range(rng.randint(1, 8)))
        src = _corrupt(rng, clean)
        a = apply_edits(src, extract_edits(src, clean, MergePolicy.NONE))
        b = apply_edits(src, extract_edits(src, clean, MergePolicy.MAXIMAL_RUNS))
        assert a == b


def test_empty_replacement_mark_never_collides():
    # A literal replacement spelled "-NONE-" cannot round-trip, as the mark is
    # reserved: the writer refuses it rather than write a deletion.
    edit = Edit(0, 1, "-NONE-")
    with pytest.raises(FormatError, match="record 0, reference 0: replacement '-NONE-'"):
        format_edit_records([("甲", [EditSet((edit,))])])
    # the reserved mark parses back as an empty replacement, not the literal
    parsed = parse_edit_file(io.StringIO("S 甲\nA 0 1|||complex|||-NONE-|||0\n\n"))
    assert parsed[0].refs[0].edits[0].replacement == ""


# Units and pieces M2 lines are split and stripped at, beside plain text.
_M2_SAFE = st.text(st.sampled_from(["甲", "乙", "丙", "a", " ", "-", "\t", "\u3000"]), max_size=8)
_M2_ANY = st.lists(
    st.sampled_from(["甲", "乙", "a", " ", "|", "||", "|||", "-NONE-", "-", "\n", "\r", "S ", "A "]),
    max_size=6,
).map("".join)


def _m2_records(data, text, merge):
    records = []
    for i in range(data.draw(st.integers(0, 4))):
        source = data.draw(text)
        refs = data.draw(st.lists(text, min_size=1, max_size=3))
        sets = tuple(extract_edits(source, ref, merge) for ref in refs)
        records.append(GoldRecord(source, sets))
    return records


def _m2_round_trip(records):
    text = format_edit_records((r.source, r.refs) for r in records)
    return list(parse_edit_file(io.StringIO(text)))


@pytest.mark.parametrize("merge", list(MergePolicy))
@settings(derandomize=True, deadline=None, max_examples=200)
@given(data=st.data())
def test_m2_records_read_back_as_written(merge, data):
    records = _m2_records(data, _M2_SAFE, merge)
    assert _m2_round_trip(records) == records


@pytest.mark.parametrize("merge", list(MergePolicy))
@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data())
def test_m2_writer_refuses_what_would_not_read_back(merge, data):
    # Separators, line breaks and the empty mark inside the text: the file
    # is either refused or read back as written, never read back as other
    # records.
    records = _m2_records(data, _M2_ANY, merge)
    try:
        parsed = _m2_round_trip(records)
    except FormatError as exc:
        assert "cannot be written" in str(exc)
    else:
        assert parsed == records


def test_parse_edit_file_drops_a_byte_order_mark_before_the_first_s_line():
    [record] = parse_edit_file(io.StringIO("\ufeffS 学生生\nA 2 3|||del|||-NONE-|||0\n\n"))
    assert record.source == "学生生"
    assert record.refs == (EditSet((Edit(2, 3, ""),)),)
    # Anywhere else U+FEFF is text, and a line that opens with it is no 'S' line.
    [record] = parse_edit_file(io.StringIO("S \ufeff学\nA 0 1|||del|||-NONE-|||0\n\n"))
    assert record.source == "\ufeff学"
    with pytest.raises(FormatError, match="^line 3: expected 'S ', 'A ', or a blank line$"):
        parse_edit_file(io.StringIO("S 学\n\n\ufeffS 学\n\n"))


@pytest.mark.parametrize(
    ("line", "message"),
    [
        ("A 5 6|||sub|||x|||0", "line 3: edit span [5,6) exceeds source length 2"),
        ("A 2 3|||del|||-NONE-|||0", "line 3: edit span [2,3) exceeds source length 2"),
        ("A 3 3|||ins|||x|||1", "line 3: edit span [3,3) exceeds source length 2"),
    ],
)
def test_parse_edit_file_rejects_a_span_past_its_source(line, message):
    text = f"S 天气\nA 0 1|||sub|||天|||0\n{line}\n\n"
    with pytest.raises(FormatError) as err:
        parse_edit_file(io.StringIO(text))
    assert str(err.value) == message


def test_parse_edit_file_accepts_spans_that_end_at_its_source_end():
    text = "S 天气\nA 2 2|||ins|||了|||0\nA 1 2|||sub|||汽|||1\nA -1 -1|||noop|||-NONE-|||2\n\nS\nA 0 0|||ins|||x|||0\n\n"
    first, second = parse_edit_file(io.StringIO(text))
    assert first.refs == (
        EditSet((Edit(2, 2, "了"),)),
        EditSet((Edit(1, 2, "汽"),)),
        EditSet(()),
    )
    assert second.source == "" and second.refs == (EditSet((Edit(0, 0, "x"),)),)
