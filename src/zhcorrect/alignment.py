"""Character-level minimum-cost alignment between two unit sequences (str).

The alignment is the substrate for edit extraction and edit-level scoring.
Costs are unit costs (sub = ins = del = 1, match = 0); phonetic/glyph-aware
substitution costs are deliberately out of scope, and all scorer fixtures
are written against this scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import UsageError

# Brute-force oracle refuses above this combined length (exponential search).
ORACLE_MAX_TOTAL_UNITS = 12


class OpKind(Enum):
    MATCH = "match"
    SUB = "sub"
    INS = "ins"
    DEL = "del"


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
    """A monotone op path from (0,0) to (n,m) over src and tgt."""

    src: str
    tgt: str
    ops: tuple[AlignOp, ...]
    total_cost: float

    def __post_init__(self) -> None:
        i = j = 0
        for op in self.ops:
            if (op.src_index, op.tgt_index) != (i, j):
                raise UsageError(f"op {op} breaks monotone traversal at ({i},{j})")
            if op.kind in (OpKind.MATCH, OpKind.SUB):
                if op.kind is OpKind.MATCH and self.src[i] != self.tgt[j]:
                    raise UsageError(f"match op at ({i},{j}) joins unequal units")
                i, j = i + 1, j + 1
            elif op.kind is OpKind.DEL:
                i += 1
            else:
                j += 1
        if (i, j) != (len(self.src), len(self.tgt)):
            raise UsageError(f"path ends at ({i},{j}), expected ({len(self.src)},{len(self.tgt)})")


def align(src: str, tgt: str) -> AlignmentPath:
    """Globally minimum-cost alignment with a deterministic tie-break.

    Ties are resolved by walking forward from (0,0) along optimal
    continuations, preferring match > substitution > deletion > insertion at
    each step. This pins the exact op sequence (e.g. in a run of equal units
    the matches come first and the deletion lands at the end of the run), so
    extraction downstream is reproducible.

    The DP fills only a diagonal band of the (n+1)x(m+1) suffix table
    (Ukkonen 1985): the cells whose offset j - i lies within k of
    [min(0, m-n), max(0, m-n)]. Every other cell stays +inf, so no path
    passes through it. A path that leaves the band makes at least
    |m-n| + 2k + 2 insertions and deletions, each of cost 1, so once the
    in-band cost is below that, every optimal path lies in the band and the
    op path and cost equal those of the full table. Otherwise k doubles, up
    to the whole table. The DP takes O((n+m) * C) steps for an alignment of
    cost C; the table itself is allocated whole, (n+1)*(m+1) slots, at C
    speed.
    """
    # Indexing a str builds a new one-character str per access for scalars
    # above U+00FF, while a tuple hands back stored objects: on CJK text the
    # DP below takes about 40 % less time over tuples.
    s, t = tuple(src), tuple(tgt)
    n, m = len(s), len(t)

    k = 2
    while True:
        suffix = _band_suffix(s, t, min(0, m - n) - k, max(0, m - n) + k)
        # Every cell holds an integer-valued float, so the test is exact.
        # k >= min(n, m) puts every cell of the table in the band.
        if k >= min(n, m) or suffix[0][0] < abs(m - n) + 2 * k + 2:
            break
        k *= 2

    ops: list[AlignOp] = []
    i = j = 0
    while i < n or j < m:
        here = suffix[i][j]
        if i < n and j < m and s[i] == t[j] and suffix[i + 1][j + 1] == here:
            ops.append(AlignOp(OpKind.MATCH, i, j))
            i, j = i + 1, j + 1
        elif i < n and j < m and s[i] != t[j] and suffix[i + 1][j + 1] + 1.0 == here:
            ops.append(AlignOp(OpKind.SUB, i, j))
            i, j = i + 1, j + 1
        elif i < n and suffix[i + 1][j] + 1.0 == here:
            ops.append(AlignOp(OpKind.DEL, i, j))
            i += 1
        else:
            ops.append(AlignOp(OpKind.INS, i, j))
            j += 1

    return AlignmentPath(src=src, tgt=tgt, ops=tuple(ops), total_cost=suffix[0][0])


def _band_suffix(s: tuple[str, ...], t: tuple[str, ...], lo: int, hi: int) -> list[list[float]]:
    """suffix[i][j] = min cost of aligning s[i:] with t[j:] through cells
    with lo <= j - i <= hi, filled only for those cells; the rest stay +inf.
    Needs lo <= min(0, m-n) and hi >= max(0, m-n), so (0, 0) and (n, m) are
    in the band."""
    n, m = len(s), len(t)
    suffix = [[math.inf] * (m + 1) for _ in range(n + 1)]
    last = suffix[n]
    last[m] = 0.0
    for j in range(m - 1, max(0, n + lo) - 1, -1):
        last[j] = last[j + 1] + 1.0
    for i in range(n - 1, -1, -1):
        row, below = suffix[i], suffix[i + 1]
        if m - i <= hi:
            row[m] = below[m] + 1.0
        si = s[i]
        for j in range(min(m - 1, i + hi), max(0, i + lo) - 1, -1):
            diag = below[j + 1] + (0.0 if si == t[j] else 1.0)
            up = below[j] + 1.0
            left = row[j + 1] + 1.0
            best = diag
            if up < best:
                best = up
            if left < best:
                best = left
            row[j] = best
    return suffix


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
