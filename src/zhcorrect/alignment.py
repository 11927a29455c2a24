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


def align(src: str, tgt: str) -> str:
    """Globally minimum-cost alignment with a deterministic tie-break, as its
    path of op codes.

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

    The recurrence, and with it n, m, Pv and Mv above, covers only the core
    x, y of the pair: what is left of src and tgt after cutting their
    common prefix of p units and then the common suffix w (s units) of the
    rests. As in E. W. Myers ("An O(ND) difference algorithm and its
    variations", Algorithmica 1(2), 1986) the free diagonal runs come
    first. The rest of the walk is forced, so the ops are those of the
    whole-pair table:

    - the walk takes M on every equal pair without a lookup, so the prefix
      is "M" * p;
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
    """
    n, m = len(src), len(tgt)
    if src == tgt:
        # All matches: with unit costs a match is always an optimal
        # continuation, the walk's own first choice.
        return "M" * n
    p = _run_length(src, tgt)
    s = _run_length(src[p:][::-1], tgt[p:][::-1])
    x, y = src[p : n - s], tgt[p : m - s]
    nx, my = len(x), len(y)

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

    ops = ["M" * p]
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

