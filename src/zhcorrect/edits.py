"""Discrete edits: extraction from aligned pairs, application, matching.

Edits are the objects precision/recall/F are counted over. Edit identity is
exact span AND replacement equality — the strictest defensible reading of
edit-based scoring, stated here so reported numbers are interpretable.

External interface — M2-like gold edit file, bit-exact grammar:
    S <source>
    A <start> <end>|||<type>|||<replacement>|||<ref_id>     (zero or more)
    <blank line>                                            (ends the record)
A replacement of "-NONE-" denotes empty. Indices are unit indices. A ref id
is its reference's position among its record's references, from 0: the
writer numbers the references so, and the reader orders them by id and
keeps no id. A record with zero "A" lines denotes a single no-edit
reference. In a record with more than one reference, a reference without
edits is the CoNLL noop line "A -1 -1|||noop|||-NONE-|||<ref_id>".
"""

from __future__ import annotations

import re
from collections import namedtuple
from enum import Enum
from typing import Iterable, NamedTuple, Sequence

from .alignment import align, positions
from .corpus import iter_lines
from .errors import FormatError, StructuralError
from .records import Checked

EMPTY_REPLACEMENT_MARK = "-NONE-"
_NOOP_FIELDS = ("-1 -1", "noop", EMPTY_REPLACEMENT_MARK)
# A span and a ref id as the grammar writes them; int() and split() alone
# also take "_", "+", other scripts' digits and any run of whitespace. A
# negative bound is read so that Edit can name the bad span, which only the
# noop line may hold.
_SPAN = re.compile("(-?[0-9]+) (-?[0-9]+)")
_REF_ID = re.compile("[0-9]+")


class MergePolicy(Enum):
    # Every maximal run of consecutive non-match ops becomes one edit.
    MAXIMAL_RUNS = "maximal-runs"
    # Each op is its own edit.
    NONE = "none"


# The op-code runs each policy turns into edits. Consecutive insertions
# share one source point, so they form one edit even under NONE. A str
# pattern is found in re's cache at once, a compiled one after a miss.
_RUNS = {MergePolicy.MAXIMAL_RUNS: "[^M]+", MergePolicy.NONE: "I+|[SD]"}


class EditKind(Enum):
    SUBSTITUTE = "sub"
    INSERT = "ins"
    DELETE = "del"
    COMPLEX = "complex"


class Edit(Checked, namedtuple("Edit", "start end replacement")):
    """Replace source units [start, end) with `replacement`.

    start == end with a non-empty replacement is an insertion; a non-empty
    span with an empty replacement is a deletion. The no-op edit (empty span,
    empty replacement) is rejected.
    """

    __slots__ = ()

    def __new__(cls, start: int, end: int, replacement: str) -> Edit:
        if start < 0 or end < start:
            raise StructuralError(f"bad edit span [{start},{end})")
        if start == end and len(replacement) == 0:
            raise StructuralError(f"no-op edit at {start}")
        return tuple.__new__(cls, (start, end, replacement))

    @property
    def kind(self) -> EditKind:
        if self.start == self.end:
            return EditKind.INSERT
        if not self.replacement:
            return EditKind.DELETE
        if self.end - self.start == len(self.replacement):
            return EditKind.SUBSTITUTE
        return EditKind.COMPLEX


class EditSet(tuple):
    """Sorted, non-overlapping edits against one source sentence, as a tuple
    of them: it equals the plain tuple of its edits. __new__ checks them, and
    so does every copy (see records). ``.edits`` copies them into that plain
    tuple for library users and the benchmark harness (perfbench)."""

    __slots__ = ()
    edits = property(tuple)

    def __new__(cls, edits: Iterable[Edit]) -> EditSet:
        self = tuple.__new__(cls, edits)
        for prev, cur in zip(self, self[1:]):
            if prev.end > cur.start:
                raise StructuralError(
                    f"edits overlap: [{prev.start},{prev.end}) then [{cur.start},{cur.end})"
                )
            if prev.start == prev.end == cur.start == cur.end:
                raise StructuralError(f"two insertions at the same point {cur.start}")
        return self

    def __repr__(self) -> str:
        return f"EditSet(edits={tuple.__repr__(self)})"


class MatchCounts(NamedTuple):
    tp: int = 0
    fp: int = 0
    fn: int = 0

    def __add__(self, other: "MatchCounts") -> "MatchCounts":
        return MatchCounts(self.tp + other.tp, self.fp + other.fp, self.fn + other.fn)


def extract_edits(src: str, tgt: str, merge: MergePolicy = MergePolicy.MAXIMAL_RUNS) -> EditSet:
    """The edits that turn src into tgt, read off align(src, tgt).

    Applying the result to src reproduces tgt exactly, under either merge
    policy.
    """
    return EditSet(
        Edit(i, i + len(run) - run.count("I"), tgt[j : j + len(run) - run.count("D")])
        for run, i, j in positions(align(src, tgt), _RUNS[merge])
    )


def apply_edits(src: str, edits: EditSet) -> str:
    """Apply an edit set right-to-left. Spans must lie within the source."""
    for e in edits:
        if e.end > len(src):
            raise StructuralError(
                f"edit span [{e.start},{e.end}) exceeds source length {len(src)}"
            )
    for e in reversed(edits):
        src = src[: e.start] + e.replacement + src[e.end :]
    return src


def match_edits(hyp: EditSet, gold: EditSet) -> MatchCounts:
    """Exact-identity edit overlap: tp = |hyp ∩ gold| on (start, end, replacement)."""
    h, g = set(hyp), set(gold)
    return MatchCounts(tp=len(h & g), fp=len(h - g), fn=len(g - h))


# ---------------------------------------------------------------------------
# M2-like gold edit files


class GoldRecord(NamedTuple):
    """One source sentence plus its reference edit sets (one per annotator,
    in ref id order)."""

    source: str
    refs: tuple[EditSet, ...]


def format_edit_records(records: Iterable[tuple[str, Sequence[EditSet]]]) -> str:
    """Write records in the M2-like grammar, each reference under its
    position among its record's references as ref id. A reference with zero
    edits emits no "A" line when it is its record's only one, as
    parse_edit_file reads a record without "A" lines, and a noop line
    otherwise. Text parse_edit_file would not read back as written is a
    FormatError: a source with a line feed or a final carriage return, a
    record without references (read back as one empty reference), or a
    replacement with a line feed, equal to EMPTY_REPLACEMENT_MARK, or not
    split back out of its "A" line (it holds "|||" or ends in "|"). Each
    message but the source's names the record by its position among the
    records, from 0."""
    out: list[str] = []
    for i, (source, refs) in enumerate(records):
        if "\n" in source or source.endswith("\r"):
            raise FormatError(f"source {source!r} cannot be written as an M2 'S' line")
        if not refs:
            raise FormatError(f"record {i} has no reference to write to an M2 file")
        out.append(f"S {source}")
        for ref_id, ref in enumerate(refs):
            if not ref and len(refs) > 1:
                out.append("A " + "|||".join((*_NOOP_FIELDS, str(ref_id))))
            for e in ref:
                repl = e.replacement or EMPTY_REPLACEMENT_MARK
                fields = [f"{e.start} {e.end}", e.kind.value, repl, str(ref_id)]
                line = "|||".join(fields)
                unreadable = "\n" in repl or e.replacement == EMPTY_REPLACEMENT_MARK
                if unreadable or line.split("|||") != fields:
                    raise FormatError(
                        f"record {i}, reference {ref_id}: replacement "
                        f"{e.replacement!r} cannot be written to an M2 file"
                    )
                out.append("A " + line)
        out.append("")
    return "".join(line + "\n" for line in out)


def parse_edit_file(stream: Iterable[str]) -> tuple[GoldRecord, ...]:
    """Parse the M2-like grammar back into gold records.

    A record's references are its ref ids' references in id order; the ids
    themselves are not kept, so ids 0 and 2 read as two references. A record
    with no "A" lines yields a single empty reference, which is how a clean
    single-reference pair round-trips. A noop line names its reference but
    adds no edit, so a reference with nothing else is empty. A span is two
    runs of ASCII digits and one space, and a ref id one run; only the noop
    line's span is negative. Any other edit whose span ends past its "S"
    line's units is a FormatError.
    """
    records: list[GoldRecord] = []
    source: str | None = None
    by_ref: dict[int, list[Edit]] = {}

    def close(lineno: int) -> None:
        nonlocal source, by_ref
        if source is None:
            return
        try:
            if by_ref:
                refs = tuple(
                    EditSet(sorted(by_ref[rid], key=lambda e: (e.start, e.end)))
                    for rid in sorted(by_ref)
                )
            else:
                refs = (EditSet(()),)
        except StructuralError as exc:
            raise FormatError(f"record ending at line {lineno}: {exc}") from exc
        records.append(GoldRecord(source, refs))
        source, by_ref = None, {}

    lineno = 0
    for lineno, line in enumerate(iter_lines(stream), start=1):
        if not line:
            close(lineno)
            continue
        if line == "S" or line.startswith("S "):
            if source is not None:
                raise FormatError(f"line {lineno}: record is missing its terminating blank line")
            source = line[2:]
        elif line.startswith("A "):
            if source is None:
                raise FormatError(f"line {lineno}: 'A' line before any 'S' line")
            fields = line[2:].split("|||")
            if len(fields) != 4:
                raise FormatError(f"line {lineno}: expected 4 '|||'-separated fields")
            span, _type_tag, repl, rid_text = fields
            bounds = _SPAN.fullmatch(span)
            try:
                if not (bounds and _REF_ID.fullmatch(rid_text)):
                    raise ValueError(line)
                # int() also refuses more digits than it converts.
                start, end, rid = int(bounds[1]), int(bounds[2]), int(rid_text)
            except ValueError as exc:
                raise FormatError(f"line {lineno}: bad span or ref id") from exc
            if tuple(fields[:3]) == _NOOP_FIELDS:
                by_ref.setdefault(rid, [])
                continue
            replacement = "" if repl == EMPTY_REPLACEMENT_MARK else repl
            try:
                edit = Edit(start, end, replacement)
            except StructuralError as exc:
                raise FormatError(f"line {lineno}: {exc}") from exc
            if end > len(source):
                raise FormatError(
                    f"line {lineno}: edit span [{start},{end}) exceeds source length {len(source)}"
                )
            by_ref.setdefault(rid, []).append(edit)
        else:
            raise FormatError(f"line {lineno}: expected 'S ', 'A ', or a blank line")
    close(lineno + 1)
    return tuple(records)
