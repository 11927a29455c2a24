"""Character-level minimum-cost alignment between two unit sequences (str).

The alignment is the substrate for edit extraction and edit-level scoring.
Costs are unit costs (sub = ins = del = 1, match = 0); phonetic/glyph-aware
substitution costs are deliberately out of scope, and all scorer fixtures
are written against this scheme.

A path is a str of one-letter op codes: M (match), S (substitution), D
(deletion: consumes a source unit only) and I (insertion: consumes a target
unit only). Consumers read the codes directly; `AlignmentPath.steps()`
spells them out as `AlignOp`s with their cursor positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import compress
from typing import Iterator

from .errors import UsageError

# Brute-force oracle refuses above this combined length (exponential search).
ORACLE_MAX_TOTAL_UNITS = 12


class OpKind(Enum):
    MATCH = "match"
    SUB = "sub"
    INS = "ins"
    DEL = "del"


_KIND_OF_CODE = {"M": OpKind.MATCH, "S": OpKind.SUB, "I": OpKind.INS, "D": OpKind.DEL}
_NON_CODES = str.maketrans("", "", "MSDI")
_DROP_INS = str.maketrans("", "", "I")
_DROP_DEL = str.maketrans("", "", "D")


@dataclass(frozen=True)
class AlignOp:
    """One step of an alignment path.

    src_index/tgt_index are the cursor positions *before* the op: match and
    sub consume src[src_index] and tgt[tgt_index]; del consumes only the
    source unit; ins consumes only the target unit.
    """

    kind: OpKind
    src_index: int
    tgt_index: int


@dataclass(frozen=True)
class AlignmentPath:
    """A monotone op path from (0,0) to (n,m) over src and tgt, as a str of
    M/S/D/I codes."""

    src: str
    tgt: str
    ops: str
    total_cost: float

    def __post_init__(self) -> None:
        ops = self.ops
        if not isinstance(ops, str) or ops.translate(_NON_CODES):
            raise UsageError(f"ops must be a str of M/S/D/I codes, got {ops!r}")
        # Each code but I consumes a source unit, each but D a target unit.
        on_src, on_tgt = ops.translate(_DROP_INS), ops.translate(_DROP_DEL)
        if (len(on_src), len(on_tgt)) != (len(self.src), len(self.tgt)):
            raise UsageError(
                f"path ends at ({len(on_src)},{len(on_tgt)}), "
                f"expected ({len(self.src)},{len(self.tgt)})"
            )
        # The k-th M joins the k-th matched unit of each side.
        if "".join(compress(self.src, map("M".__eq__, on_src))) != "".join(
            compress(self.tgt, map("M".__eq__, on_tgt))
        ):
            raise UsageError("a match op joins unequal units")

    def steps(self) -> Iterator[AlignOp]:
        """The path's ops with the cursor positions before each."""
        i = j = 0
        for code in self.ops:
            yield AlignOp(_KIND_OF_CODE[code], i, j)
            if code != "I":
                i += 1
            if code != "D":
                j += 1


def align(src: str, tgt: str) -> AlignmentPath:
    """Globally minimum-cost alignment with a deterministic tie-break.

    Ties are resolved by walking forward from (0,0) along optimal
    continuations, preferring match > substitution > deletion > insertion at
    each step. This pins the exact op sequence (e.g. in a run of equal units
    the matches come first and the deletion lands at the end of the run), so
    extraction downstream is reproducible.

    The walk reads suffix costs D[i][j], the cost of aligning src[i:] with
    tgt[j:], from the bit-parallel edit-distance recurrence of G. Myers ("A
    fast bit-vector algorithm for approximate string matching based on
    dynamic programming", JACM 46(3), 1999) in the global form of H. Hyyrö
    ("Explaining and extending the bit-parallel approximate string matching
    algorithm of Myers", 2001). It runs over the reversed strings: bit c-1
    of a row's vectors is the vertical delta E[r][c] - E[r][c-1] of the
    table E[r][c] = cost(src[n-r:], tgt[m-c:]), +1 in Pv and -1 in Mv, and
    E[r][0] = r. Row r = n-i then gives

        D[i][j] = (n-i) + popcount(Pv & mask) - popcount(Mv & mask),
        mask = (1 << (m-j)) - 1.

    Python ints serve as m-bit vectors, so each source unit costs a fixed
    number of int operations however long the target is, and memory is n+1
    pairs of m-bit ints instead of an (n+1)x(m+1) table.
    """
    n, m = len(src), len(tgt)
    if src == tgt:
        # All matches: with unit costs a match is always an optimal
        # continuation, the walk's own first choice.
        return AlignmentPath(src=src, tgt=tgt, ops="M" * n, total_cost=0.0)
    full = (1 << m) - 1
    # peq[u] has bit c-1 set where tgt[m-c] == u: the target, reversed.
    peq: dict[str, int] = {}
    bit = 1 << m
    for unit in tgt:
        bit >>= 1
        peq[unit] = peq.get(unit, 0) | bit

    pvs, mvs = [full], [0]
    pv, mv = full, 0
    for unit in reversed(src):
        eq = peq.get(unit, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & full)
        mh = pv & xh
        # Row 0 of E grows by one per source unit: shift in a +1.
        ph = ((ph << 1) | 1) & full
        mh = (mh << 1) & full
        pv = mh | (~(xv | ph) & full)
        mv = ph & xv
        pvs.append(pv)
        mvs.append(mv)

    total = n + pv.bit_count() - mv.bit_count()
    ops: list[str] = []
    i = j = 0
    here = total
    while i < n and j < m:
        if src[i] == tgt[j]:
            # With unit costs a match is always an optimal continuation.
            ops.append("M")
            i += 1
            j += 1
            continue
        r = n - i - 1
        mask = (1 << (m - j - 1)) - 1
        diag = r + (pvs[r] & mask).bit_count() - (mvs[r] & mask).bit_count()
        if diag + 1 == here:
            ops.append("S")
            i += 1
            j += 1
            here = diag
            continue
        mask = (mask << 1) | 1
        up = r + (pvs[r] & mask).bit_count() - (mvs[r] & mask).bit_count()
        if up + 1 == here:
            ops.append("D")
            i += 1
            here = up
        else:
            ops.append("I")
            j += 1
            here -= 1
    # One side is used up: the rest of the other is deleted or inserted.
    ops.append("D" * (n - i) + "I" * (m - j))
    return AlignmentPath(src=src, tgt=tgt, ops="".join(ops), total_cost=float(total))


def oracle_min_cost(src: str, tgt: str) -> float:
    """Minimum alignment cost by plain brute-force recursion (no memoization).

    Test oracle only: refuses pairs with more than ORACLE_MAX_TOTAL_UNITS
    combined units.
    """
    n, m = len(src), len(tgt)
    if n + m > ORACLE_MAX_TOTAL_UNITS:
        raise UsageError(
            f"oracle_min_cost refuses {n}+{m} units (limit {ORACLE_MAX_TOTAL_UNITS})"
        )

    def go(i: int, j: int) -> float:
        if i == n:
            return float(m - j)
        if j == m:
            return float(n - i)
        best = go(i + 1, j + 1) + (0.0 if src[i] == tgt[j] else 1.0)
        del_cost = go(i + 1, j) + 1.0
        if del_cost < best:
            best = del_cost
        ins_cost = go(i, j + 1) + 1.0
        if ins_cost < best:
            best = ins_cost
        return best

    return go(0, 0)
