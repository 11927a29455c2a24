"""Character-level minimum-cost alignment between two unit sequences (str).

The alignment is the substrate for edit extraction and edit-level scoring.
Costs are unit costs (sub = ins = del = 1, match = 0); phonetic/glyph-aware
substitution costs are deliberately out of scope, and all scorer fixtures
are written against this scheme.

A path is a str of one-letter op codes: M (match), S (substitution), D
(deletion: consumes a source unit only) and I (insertion: consumes a target
unit only). At unit costs a path's cost is its number of non-M codes.
"""

from __future__ import annotations

from math import isqrt

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


def _walk_reach(x: str, y: str, reach: list[list[int]], ops: list[str]) -> tuple[int, int]:
    """The core walk on suffix costs read from a furthest-reach table.

    D[i][j] <= e exactly when reach[e][k+e] >= n-i, with k = (n-i) - (m-j)
    and |k| <= e. At a mismatch D[i][j] = here >= 1, and a step is optimal
    when its cell's cost is here-1, so one lookup in level here-1 answers
    each question. A run of matches is one _run_length call. Appends the
    codes to ops and returns where the walk stopped: (i, j) with
    i == len(x) or j == len(y).
    """
    nx, my = len(x), len(y)
    here = len(reach) - 1
    i = j = 0
    while i < nx and j < my:
        if x[i] == y[j]:
            # With unit costs a match is always an optimal continuation.
            run = _run_length(x[i:], y[j:])
            ops.append("M" * run)
            i += run
            j += run
            continue
        here -= 1
        level = reach[here]
        # t indexes the diagonal of (i+1, j+1) in the level, t-1 that of
        # (i+1, j); the walk only asks about searched diagonals.
        t = (nx - i) - (my - j) + here
        r = nx - i - 1
        if 0 <= t <= 2 * here and level[t] >= r:
            ops.append("S")
            i += 1
            j += 1
        elif 0 < t <= 2 * here + 1 and level[t - 1] >= r:
            ops.append("D")
            i += 1
        else:
            ops.append("I")
            j += 1
    return i, j


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
      D = isqrt(n). On the table, the walk jumps each run of matches with
      one _run_length call and answers each question at a mismatch with one
      lookup (_walk_reach).
    - Any other core, and one whose search gave up, is walked on the
      bit-parallel edit-distance recurrence of G. Myers ("A fast bit-vector
      algorithm for approximate string matching based on dynamic
      programming", JACM 46(3), 1999) in the global form of H. Hyyrö
      ("Explaining and extending the bit-parallel approximate string
      matching algorithm of Myers", 2001). Bit c-1 of a row's vectors is
      the vertical delta E[r][c] - E[r][c-1], +1 in Pv and -1 in Mv, and
      E[r][0] = r. Row r = n-i then gives

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
    Algorithmica 1(2), 1986) the free diagonal runs come first. The rest of
    the walk is forced, so the ops are those of the whole-pair table:

    - the walk takes M on every equal pair, so the prefix is "M" * p;
    - ed(x' + w, y' + w) = ed(x', y') at unit costs, so every cost the walk
      reads inside the core box, up to and including its last row and
      column, equals the same cell of the core's own table;
    - once the walk reaches the core's last row or column, one side's rest
      is w and the other's is a tail of the core followed by w. The cost
      left is then the length gap, which S can never keep, so each step is
      M on equal units and otherwise I (the source core is used up) or D
      (the target core is). At the corner this is "M" * s, returned at once.

    The greedy tail, not "M" * s appended after the core's D/I rest, keeps
    the tie-break: xbb/yb aligns as SMD, not SDM.

    Two kinds of core, most of those of short sentences with one or two
    edits, have a known path, so align returns its codes without a table:

    - One unit against at most one unit. Against none, the walk starts on
      the core's last row or column, so the forced tail runs. Since p is
      maximal its first run of M is empty: it takes its one D or I first
      and then matches the suffix, "M" * p + "D" + "M" * s (or I for D).
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
    ops = ["M" * p]
    reach = _furthest_reach(x, y) if nx >= _LONG_CORE else None
    if reach is not None:
        i, j = _walk_reach(x, y, reach, ops)
    else:
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

        i = j = 0
        here = nx + pv.bit_count() - mv.bit_count()
        while i < nx and j < my:
            if x[i] == y[j]:
                # With unit costs a match is always an optimal continuation.
                ops.append("M")
                i += 1
                j += 1
                continue
            r = nx - i - 1
            mask = (1 << (my - j - 1)) - 1
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

    if i == nx and j == my:  # both cores are used up: the rest is the suffix
        return "".join(ops) + "M" * s
    # The forced tail: runs of M, each ended by the one op that skips a unit
    # of the longer rest, until one side is used up.
    skip = "I" if i == nx else "D"
    i += p
    j += p
    while True:
        run = _run_length(src[i:], tgt[j:])
        ops.append("M" * run)
        i += run
        j += run
        if i == n or j == m:
            break
        ops.append(skip)
        if skip == "I":
            j += 1
        else:
            i += 1
    ops.append("D" * (n - i) + "I" * (m - j))
    return "".join(ops)

