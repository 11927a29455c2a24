"""Parallel correction corpora and plain lines: parsing and splits.

File formats (external interfaces):
  * Parallel TSV — UTF-8, LF line endings, TAB-separated, no header, no
    quoting. Column 1 is the source, columns 2..k are references. A '#' at
    byte 0 marks a comment line.
  * JSONL — one object per line: {"id": str, "source": str,
    "references": [str, ...]}. The id must be a string that no earlier line
    holds; it is checked and then dropped.
  * Plain lines — one text per line, no comments (hypotheses, lines to
    correct).
Every reader drops one byte order mark (U+FEFF) from the start of a
stream's first line (see iter_blocks).
"""

from __future__ import annotations

import json
import random
from collections import namedtuple
from itertools import chain, filterfalse, islice, repeat, starmap
from operator import contains, itemgetter, methodcaller
from typing import Iterable, Iterator

from .errors import FormatError, NormalizationError, UsageError
from .records import Checked
from .textnorm import (
    NormalizePolicy, canonical_fields, canonical_texts, check_scalars, rejected_in, units_of,
)

# Lines a reader takes at a time: enough that the calls made once per block
# cost little per line, few enough that a block of long lines stays small.
_BLOCK_LINES = 512

_is_comment = methodcaller("startswith", "#")

# What a parallel reader yields for each pair: (source, references).
PairTuple = tuple[str, tuple[str, ...]]


class ParallelPair(Checked, namedtuple("ParallelPair", "source references")):
    """A source sentence with one or more reference corrections."""

    __slots__ = ()

    def __new__(cls, source: str, references: tuple[str, ...]) -> ParallelPair:
        if not references:
            raise UsageError(f"pair with source {source!r} has no references")
        return tuple.__new__(cls, (source, references))


class Corpus(tuple):
    """The pairs of a parallel corpus, in order, as a tuple of them: it equals
    the plain tuple of its pairs, and copies rebuild it (see records).
    ``.pairs`` copies them into that plain tuple for library users and the
    benchmark harness (perfbench); package code iterates the corpus."""

    __slots__ = ()
    pairs = property(tuple)

    def __repr__(self) -> str:
        return f"Corpus(pairs={tuple.__repr__(self)})"


def _parse_jsonl_line(line: str, lineno: int, policy: NormalizePolicy) -> tuple[str, PairTuple]:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise FormatError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
    except RecursionError:
        raise FormatError(f"line {lineno}: invalid JSON (nested too deep)") from None
    if not isinstance(obj, dict):
        raise FormatError(f"line {lineno}: expected a JSON object")
    try:
        pair_id, source, refs = obj["id"], obj["source"], obj["references"]
    except KeyError as exc:
        raise FormatError(f"line {lineno}: missing key {exc.args[0]!r}") from exc
    if not isinstance(pair_id, str) or not isinstance(source, str):
        raise FormatError(f"line {lineno}: 'id' and 'source' must be strings")
    if not isinstance(refs, list) or not refs or not all(isinstance(r, str) for r in refs):
        raise FormatError(f"line {lineno}: 'references' must be a non-empty list of strings")
    return pair_id, (units_of(source, policy), tuple(units_of(r, policy) for r in refs))


def iter_blocks(stream: Iterable[str]) -> Iterator[tuple[int, list[str]]]:
    """The stream's lines in lists of up to _BLOCK_LINES, each list with the
    1-based number of its first line. Each line loses one trailing "\\n" and
    then at most one trailing "\\r": the CR of a CRLF ending goes, and any
    other CR stays in its line. The first line also loses one leading byte
    order mark (U+FEFF), which a UTF-8 file may start with; a U+FEFF
    anywhere else stays. Iterating a text handle splits only at line feeds,
    so U+0085, U+2028 and the like stay inside a line, where str.splitlines
    would split."""
    stream, lineno = iter(stream), 1
    while block := list(islice(stream, _BLOCK_LINES)):
        lines = map(str.removesuffix, block, repeat("\n"))
        lines = list(map(str.removesuffix, lines, repeat("\r")))
        if lineno == 1:
            lines[0] = lines[0].removeprefix("\ufeff")
        yield lineno, lines
        lineno += len(block)


def iter_lines(stream: Iterable[str]) -> Iterator[str]:
    """The lines of iter_blocks(stream), one at a time. Every reader (TSV,
    JSONL, plain lines, M2) splits its lines through iter_blocks."""
    return chain.from_iterable(map(itemgetter(1), iter_blocks(stream)))


def _check_line(line: str, lineno: int) -> None:
    """check_scalars(line), its message prefixed with the line number."""
    try:
        check_scalars(line)
    except NormalizationError as exc:
        raise NormalizationError(f"line {lineno}: {exc}") from exc


def iter_plain_lines(
    stream: Iterable[str], policy: NormalizePolicy = NormalizePolicy.DEFAULT
) -> Iterator[str]:
    """``units_of(line, policy)`` of each line of iter_lines(stream), read
    lazily a block at a time: only a block whose joined lines rejected_in
    flags is checked line by line, for the NormalizationError of its first
    bad line, prefixed "line N: ". A block's lines are yielded after the
    whole block is checked, and before the next block is read."""
    for lineno, block in iter_blocks(stream):
        if rejected_in("".join(block)):
            for n, line in enumerate(block, lineno):
                _check_line(line, n)
        yield from canonical_texts(block, policy)


def _raise_tsv_error(block: list[str], lineno: int) -> None:
    """Raise the error of the block's first bad line, numbering its lines
    from lineno: a FormatError for a line without a tab, or a
    NormalizationError for a rejected unit. Comment lines are exempt."""
    for n, line in enumerate(block, lineno):
        if _is_comment(line):
            continue
        if "\t" not in line:
            raise FormatError(f"line {n}: expected a source and at least one reference (got 1 column)")
        _check_line(line, n)


def _iter_tsv(stream: Iterable[str], policy: NormalizePolicy) -> Iterator[PairTuple]:
    for lineno, block in iter_blocks(stream):
        # A block without a '#' holds no comment, so its rows are the block.
        rows, text = block, "".join(block)
        if "#" in text:
            rows = list(filterfalse(_is_comment, block))
            text = "".join(rows)
        if not all(map(contains, rows, repeat("\t"))) or rejected_in(text):
            _raise_tsv_error(block, lineno)
        for source, *references in canonical_fields(rows, policy):
            yield source, tuple(references)


def _iter_jsonl(stream: Iterable[str], policy: NormalizePolicy) -> Iterator[PairTuple]:
    # A decoded JSON value may hold a real tab, so each value is normalized
    # on its own, and a byte offset counts within its JSON string. The ids
    # seen so far are kept, to name the line that repeats one.
    seen_ids: set[str] = set()
    for lineno, line in enumerate(iter_lines(stream), start=1):
        try:
            pair_id, pair = _parse_jsonl_line(line, lineno, policy)
        except NormalizationError as exc:
            raise NormalizationError(f"line {lineno}: {exc}") from exc
        if pair_id in seen_ids:
            raise FormatError(f"line {lineno}: duplicate pair id {pair_id!r}")
        seen_ids.add(pair_id)
        yield pair


_READERS = {"tsv": _iter_tsv, "jsonl": _iter_jsonl}


def iter_parallel(
    stream: Iterable[str],
    format: str = "tsv",
    policy: NormalizePolicy = NormalizePolicy.DEFAULT,
) -> Iterator[PairTuple]:
    """The ``(source, references)`` of each pair of a parallel corpus,
    read lazily from an iterable of lines, split by iter_blocks.

    Malformed lines raise FormatError with the 1-based line number, and text
    that fails normalization raises NormalizationError prefixed the same
    way; every pair before the bad line has been yielded by then. An empty
    stream yields nothing (not an error). An unknown format raises
    UsageError at once, before the stream is read.

    TSV is read a block at a time, and only a block whose data lines lack a
    tab or hold a rejected unit is checked line by line; a block's pairs are
    yielded after the whole block is checked. A pair has no id: pairs are
    paired with hypotheses and gold records by position. A byte offset
    counts from the start of the line (see textnorm.canonical_fields).
    """
    if format not in _READERS:
        raise UsageError(f"unknown corpus format {format!r}")
    return _READERS[format](stream, policy)


def parse_parallel(
    stream: Iterable[str],
    format: str = "tsv",
    policy: NormalizePolicy = NormalizePolicy.DEFAULT,
) -> Corpus:
    """The pairs iter_parallel(stream, format, policy) yields, as a Corpus."""
    return Corpus(starmap(ParallelPair, iter_parallel(stream, format, policy)))


def split(corpus: Corpus, heldout_fraction: float, seed: int) -> tuple[Corpus, Corpus]:
    """Deterministic disjoint train/heldout partition.

    Heldout size is round(fraction * N), half up; pair order within each part
    follows the original corpus order. An empty corpus gives two empty parts.
    A heldout_fraction outside (0, 1) raises UsageError, for an empty corpus
    too.
    """
    if not 0.0 < heldout_fraction < 1.0:
        raise UsageError(f"heldout_fraction must be in (0, 1), got {heldout_fraction}")
    n = len(corpus)
    n_heldout = int(n * heldout_fraction + 0.5)
    indices = list(range(n))
    random.Random(seed).shuffle(indices)
    heldout_idx = sorted(indices[:n_heldout])
    train_idx = sorted(indices[n_heldout:])
    train = Corpus(corpus[i] for i in train_idx)
    heldout = Corpus(corpus[i] for i in heldout_idx)
    return train, heldout
