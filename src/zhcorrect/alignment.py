"""Character-level minimum-cost alignment between two unit sequences (str).

The alignment is the substrate for edit extraction and edit-level scoring.
Costs are unit costs (sub = ins = del = 1, match = 0); phonetic/glyph-aware
substitution costs are deliberately out of scope, and all scorer fixtures
are written against this scheme.

A path is a str of one-letter op codes: M (match), S (substitution), D
(deletion: consumes a source unit only) and I (insertion: consumes a target
unit only). At unit costs a path's cost is its number of non-M codes. A
code's source index is its position less the I codes before it, and its
target index its position less the D codes before it (see positions).
"""

from __future__ import annotations

import re
from math import isqrt
from typing import Iterator

# Cores of fewer source units keep the bit-parallel rows; see align.
_LONG_CORE = 10


def _run_length(a: str, b: str) -> int:
    """Length of the longest common prefix of a and b.

    A binary search over slice comparisons, so the units are compared in C,
    not one per Python step.
    """
    lo, hi = 0, min(len(a), len(b))
    while lo < hi:
        mid = (lo + hi + 1) >> 1
        if a[:mid] == b[:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _furthest_reach(x: str, y: str) -> list[list[int]] | None:
    """The furthest-reach table of the cores x, y, or None once their
    distance is known to be above the budget isqrt(len(x)).

    This is the O((n+m)*D) search of E. Ukkonen ("Algorithms for approximate
    string matching", Information and Control 64, 1985) and E. W. Myers
    (Algorithmica 1986) at unit costs, over the reversed cores, on the table
    E that align describes. Level e holds 2e+1 ints, for the diagonals
    k = r - c from -e to e: reach[e][k+e] is the furthest row r on diagonal
    k with E[r][c] <= e. At unit costs E never decreases along a diagonal,
    E[r+1][c+1] >= E[r][c], so E[r][c] <= e exactly when
    r <= reach[e][k+e], and E[r][c] > e whenever |k| > e.

    Level e is built from level e-1 by one substitution, deletion or
    insertion and then a slide down the diagonal over equal units, one
    _run_length call. The search stops at the first level whose reach on
    diagonal kd = len(x) - len(y) gets to row len(x), so the last level's
    index is the distance D.

    Two kinds of entry are not furthest rows:

    - A diagonal with |k - kd| > budget - e is not searched and holds -2.
      No path within the budget passes through it at cost e, since a path
      changes diagonal at most once per unit of cost. A cell the walk asks
      about at cost e lies next to an optimal path, at most D - e <=
      budget - e diagonals from kd, so the walk never reads such an entry.
    - A value past the diagonal's end (row len(x) or column len(y)) is kept.
      It means that the whole diagonal is within e, as the end itself
      would: a start passes the end of diagonal k only when k or a
      neighbour had reached its own end within e-1, and neighbouring
      diagonals end in neighbouring cells of the last row or column, whose
      costs differ by at most 1.

    With |k| <= e <= isqrt(len(x)), |kd| <= isqrt(len(x)) and
    len(x) >= 5, every diagonal searched lies in the table.
    """
    nx, my = len(x), len(y)
    budget = isqrt(nx)
    kd = nx - my
    if abs(kd) > budget:
        return None
    xr, yr = x[::-1], y[::-1]
    reach = [[_run_length(xr, yr)]]
    for e in range(1, budget + 1):
        # Only the diagonals k from lo to hi, |k - kd| <= budget - e, are
        # searched; the others keep -2.
        slack = budget - e
        lo = kd - slack if kd - slack > -e else -e
        hi = kd + slack if kd + slack < e else e
        level = [-2] * (lo + e)
        # The furthest start on diagonal k is one row down from k-1 (a
        # deletion) or from k (a substitution), or the same row of k+1 (an
        # insertion): a, b and ins slide over the previous level, padded
        # with -2 for the diagonals it lacks.
        prev = [-2, -2, *reach[-1], -2, -2]
        a, b = prev[lo + e], prev[lo + e + 1]
        k = lo
        for ins in prev[lo + e + 2 : hi + e + 3]:
            r = (a if a > b else b) + 1
            if ins > r:
                r = ins
            a, b = b, ins
            c = r - k
            if r < nx and c < my and xr[r] == yr[c]:
                # Off the path most slides stop after one unit, so the
                # second is tested before the run is searched.
                if xr[r + 1 : r + 2] == yr[c + 1 : c + 2]:
                    r += _run_length(xr[r:], yr[c:])
                else:
                    r += 1
            level.append(r)
            k += 1
        level += [-2] * (e - hi)
        reach.append(level)
        if e >= abs(kd) and level[kd + e] >= nx:
            return reach
    return None


def _within_reach(reach: list[list[int]], r: int, c: int, e: int) -> bool:
    """Whether E[r][c] <= e, read from a furthest-reach table."""
    k = r - c
    return -e <= k <= e and reach[e][k + e] >= r


def _within_rows(rows: tuple[list[int], list[int]], r: int, c: int, e: int) -> bool:
    """Whether E[r][c] <= e, read from the bit-parallel rows."""
    pvs, mvs = rows
    mask = (1 << c) - 1
    return r + (pvs[r] & mask).bit_count() - (mvs[r] & mask).bit_count() <= e


def _walk(src: str, tgt: str, p: int, nx: int, my: int, here: int, within, table) -> str:
    """The codes of align's walk from (p, p), here being that cell's cost.

    Cell (i, j) is the core's E[r][c], r = p+nx-i and c = p+my-j. A run of
    matches is one _run_length call. At a mismatch a step is optimal when
    its cell's cost is here-1: within(table, r, c, e) tests E[r][c] <= e in
    the table, and past its last row or column the cost is |r - c|.
    """
    n, m = len(src), len(tgt)
    ops = ["M" * p]
    i = j = p
    while i < n and j < m:
        if src[i] == tgt[j]:
            # With unit costs a match is always an optimal continuation.
            run = _run_length(src[i:], tgt[j:])
            ops.append("M" * run)
            i += run
            j += run
            continue
        here -= 1
        r = p + nx - i
        c = p + my - j
        if within(table, r - 1, c - 1, here) if r > 0 and c > 0 else abs(r - c) <= here:
            ops.append("S")
            i += 1
            j += 1
        elif within(table, r - 1, c, here) if r > 0 and c >= 0 else abs(r - 1 - c) <= here:
            ops.append("D")
            i += 1
        else:
            ops.append("I")
            j += 1
    ops.append("D" * (n - i) + "I" * (m - j))
    return "".join(ops)


def align(src: str, tgt: str) -> str:
    """Globally minimum-cost alignment with a deterministic tie-break, as its
    path of op codes.

    Ties are resolved by walking forward from (0,0) along optimal
    continuations, preferring match > substitution > deletion > insertion at
    each step. This pins the exact op sequence (e.g. in a run of equal units
    the matches come first and the deletion lands at the end of the run), so
    extraction downstream is reproducible.

    The walk reads suffix costs D[i][j], the cost of aligning src[i:] with
    tgt[j:]. Both tables that answer it run over the reversed strings, on
    E[r][c] = cost(src[n-r:], tgt[m-c:]), so D[i][j] = E[n-i][m-j]:

    - A core of at least _LONG_CORE source units is first searched for its
      furthest-reach table (_furthest_reach), which costs O((n+m)*D) at
      distance D and holds (D+1)**2 ints. The search gives up above
      D = isqrt(n). On the table, E[r][c] <= e is one lookup
      (_within_reach).
    - Any other core, and one whose search gave up, is walked on the
      bit-parallel edit-distance recurrence of G. Myers ("A fast bit-vector
      algorithm for approximate string matching based on dynamic
      programming", JACM 46(3), 1999) in the global form of H. Hyyrö
      ("Explaining and extending the bit-parallel approximate string
      matching algorithm of Myers", 2001). Bit c-1 of a row's vectors is
      the vertical delta E[r][c] - E[r][c-1], +1 in Pv and -1 in Mv, and
      E[r][0] = r. Row r = n-i then gives, as _within_rows reads it,

          D[i][j] = (n-i) + popcount(Pv & mask) - popcount(Mv & mask),
          mask = (1 << (m-j)) - 1.

      Python ints serve as m-bit vectors, so each source unit costs a fixed
      number of int operations however long the target is, and memory is
      n+1 pairs of m-bit ints instead of an (n+1)x(m+1) table.

    Both tables give the same D[i][j], so the codes do not depend on which
    one ran. Short cores, the common case of short sentences, keep the rows:
    there a search and its table cost more than the few rows they save.

    Both tables, and with them n and m above, cover only the core x, y of
    the pair: what is left of src and tgt after cutting their common prefix
    of p units and then the common suffix w (s units) of the rests. As in
    E. W. Myers ("An O(ND) difference algorithm and its variations",
    Algorithmica 1(2), 1986) the free diagonal runs come first. One walk
    (_walk) then runs from (p, p) to both ends, and its ops are those of
    the whole-pair table:

    - the walk takes M on every equal pair, so the prefix is "M" * p;
    - ed(x' + w, y' + w) = ed(x', y') at unit costs, so every cost the walk
      reads inside the core box, up to and including its last row and
      column, equals the same cell of the core's own table;
    - past the core's last row or column, one side's rest is a suffix of
      the other's: a tail of w against a tail of the core followed by w, or
      against a longer tail of w. The cost left is then the length gap |r - c|, which S can
      never keep, since S leaves the gap as it is. So each step is M on
      equal units and otherwise I (the target's rest is longer) or D (the
      source's is).

    Walking on through the suffix, not appending "M" * s after the core's
    D/I rest, keeps the tie-break: xbb/yb aligns as SMD, not SDM.

    Two kinds of core, most of those of short sentences with one or two
    edits, have a known path, so align returns its codes without a table:

    - One unit against at most one unit. Against none, the walk starts on
      the core's last row or column, where the gap decides. Since p is
      maximal its first step is not M: it takes its one D or I first and
      then matches the suffix, "M" * p + "D" + "M" * s (or I for D).
      Against one unit the path is "M" * p + "S" + "M" * s, by the argument
      below at len(x) == 1. Each is decided right after the prefix cut by
      one slice comparison, before the suffix search:
      src[p+1:] == tgt[p+1:] at equal lengths (S), src[p+1:] == tgt[p:]
      (D) or src[p:] == tgt[p+1:] (I). At distance 1 this is the single
      diagonal jump that Myers (1986) notes.
    - Equal lengths that differ only at the ends: len(x) == len(y) and
      x[1:-1] == y[1:-1]. Trimming leaves x[0] != y[0] and x[-1] != y[-1],
      so the Hamming distance is min(len(x), 2). At equal lengths a distance
      of 1 is one substitution, so here the edit distance equals the Hamming
      distance. Every suffix of the diagonal is then optimal, and the walk's
      M > S > D > I preference stays on it: "M" * p + "S" + "M" * (len(x)
      - 2) + "S" + "M" * s.

    Every other core takes a table as above.
    """
    n, m = len(src), len(tgt)
    if src == tgt:
        # All matches: with unit costs a match is always an optimal
        # continuation, the walk's own first choice.
        return "M" * n
    p = _run_length(src, tgt)
    # The closed forms; see above. One unit against at most one unit:
    if n == m and src[p + 1 :] == tgt[p + 1 :]:
        return "M" * p + "S" + "M" * (n - p - 1)
    if n == m + 1 and src[p + 1 :] == tgt[p:]:
        return "M" * p + "D" + "M" * (m - p)
    if m == n + 1 and src[p:] == tgt[p + 1 :]:
        return "M" * p + "I" + "M" * (n - p)
    s = _run_length(src[p:][::-1], tgt[p:][::-1])
    x, y = src[p : n - s], tgt[p : m - s]
    nx, my = len(x), len(y)
    # Equal cores of two or more units that differ only at their two ends:
    if nx == my and x[1:-1] == y[1:-1]:
        return "M" * p + "S" + "M" * (nx - 2) + "S" + "M" * s
    reach = _furthest_reach(x, y) if nx >= _LONG_CORE else None
    if reach is not None:
        return _walk(src, tgt, p, nx, my, len(reach) - 1, _within_reach, reach)
    full = (1 << my) - 1
    # peq[u] has bit c-1 set where y[my-c] == u: the target core, reversed.
    peq: dict[str, int] = {}
    bit = 1 << my
    for unit in y:
        bit >>= 1
        peq[unit] = peq.get(unit, 0) | bit

    pvs, mvs = [full], [0]
    pv, mv = full, 0
    for unit in reversed(x):
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
    here = nx + pv.bit_count() - mv.bit_count()
    return _walk(src, tgt, p, nx, my, here, _within_rows, (pvs, mvs))


def positions(path: str, runs: str) -> Iterator[tuple[str, int, int]]:
    """(codes, i, j) for each match of the regex runs in path: the matched
    codes and the source and target index at the match's start. The codes
    between matches are counted too, so runs need not cover every I or D.
    Only positions takes a path, and it is handed align's own, so no path
    is checked at run time; the tests check align's paths on random and
    edge-case pairs against three reference aligners."""
    ins = dels = at = 0
    for match in re.finditer(runs, path):
        start = match.start()
        ins += path.count("I", at, start)
        dels += path.count("D", at, start)
        at = start
        yield match[0], start - ins, start - dels
