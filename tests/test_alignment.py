import inspect
import json
import math
import os
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zhcorrect import (
    MergePolicy,
    UsageError,
    align,
    apply_edits,
    extract_edits,
)
from zhcorrect.alignment import _furthest_reach, positions
from zhcorrect.cli import main
from zhcorrect.edits import _RUNS
from zhcorrect.synthetic import make_suite

from oracles import ORACLE_MAX_TOTAL_UNITS, oracle_min_cost

_CJK = [chr(c) for c in range(0x4E00, 0x4E00 + 120)]

# Seeds of the band oracle's five random streams. They are the (substitution,
# insertion, deletion) schemes the band was checked under while costs could
# be set, kept so that the streams are the same pairs as then.
_BAND_SEEDS = [(1, 1, 1), (1.5, 1, 1), (1, 0.7, 1.3), (2.5, 1, 1), (0.3, 1, 1)]


def _rand_units(rng, max_len):
    return "".join(rng.choice(_CJK) for _ in range(rng.randint(0, max_len)))


def _cost(ops):
    """A path's cost at unit costs: one per code other than M."""
    return sum(code != "M" for code in ops)


def _assert_valid_path(src, tgt, ops):
    """ops is a str of M/S/D/I codes that walks from (0,0) to (n,m), and
    each M joins equal units and each S unequal ones."""
    assert isinstance(ops, str) and set(ops) <= set("MSDI"), ops
    # Each code but I consumes a source unit, each but D a target unit.
    on_src, on_tgt = ops.replace("I", ""), ops.replace("D", "")
    assert (len(on_src), len(on_tgt)) == (len(src), len(tgt)), (src, tgt, ops)
    # The k-th M or S code joins the k-th such unit of each side.
    src_joined = [(u, code) for u, code in zip(src, on_src) if code in "MS"]
    tgt_joined = [u for u, code in zip(tgt, on_tgt) if code in "MS"]
    for (s, code), t in zip(src_joined, tgt_joined):
        assert (s == t) == (code == "M"), (src, tgt, ops)


def _corrupt(rng, seq):
    """Random in-place edits so pairs share long common stretches."""
    units = list(seq)
    for _ in range(rng.randint(0, 3)):
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


def test_identity_alignment():
    assert align("我爱北京", "我爱北京") == "MMMM"


def test_trailing_repeat_deletes_last_unit():
    assert align("他是学生生", "他是学生") == "MMMMD"


def test_empty_source_all_insertions():
    assert align("", "北京") == "II"


def test_cost_zero_iff_equal():
    rng = random.Random(2)
    for _ in range(100):
        s = _rand_units(rng, 8)
        t = _corrupt(rng, s)
        assert (_cost(align(s, t)) == 0) == (s == t)


def test_oracle_examples():
    assert oracle_min_cost("ab", "b") == 1.0
    assert oracle_min_cost("学生", "学生") == 0.0
    assert oracle_min_cost("a", "bc") == 2.0


def test_oracle_refuses_long_input():
    s = "一二三四五六七"
    t = "一二三四五六"
    assert len(s) + len(t) == 13 > ORACLE_MAX_TOTAL_UNITS
    with pytest.raises(UsageError):
        oracle_min_cost(s, t)


def test_dp_matches_oracle_on_random_pairs():
    rng = random.Random(31)
    for _ in range(300):
        if rng.random() < 0.5:
            s = _rand_units(rng, 6)
            t = _rand_units(rng, min(6, ORACLE_MAX_TOTAL_UNITS - len(s)))
        else:
            s = _rand_units(rng, 5)
            t = _corrupt(rng, s)
            if len(s) + len(t) > ORACLE_MAX_TOTAL_UNITS:
                continue
        assert _cost(align(s, t)) == oracle_min_cost(s, t)


def test_symmetry_with_symmetric_costs():
    rng = random.Random(17)
    for _ in range(100):
        s, t = _rand_units(rng, 10), _rand_units(rng, 10)
        assert _cost(align(s, t)) == _cost(align(t, s))


def test_triangle_inequality():
    rng = random.Random(23)
    for _ in range(100):
        a, b, c = (_rand_units(rng, 8) for _ in range(3))
        ab, bc, ac = _cost(align(a, b)), _cost(align(b, c)), _cost(align(a, c))
        assert ac <= ab + bc


def test_total_cost_equals_sum_of_op_costs(capsys):
    # The align JSON reports the total cost beside the ops; it must be their
    # sum, and the minimum.
    rng = random.Random(41)
    per_op = {"match": 0.0, "sub": 1.0, "ins": 1.0, "del": 1.0}
    for _ in range(100):
        s = _rand_units(rng, 6)
        t = _corrupt(rng, s)
        if len(s) + len(t) > ORACLE_MAX_TOTAL_UNITS:
            continue
        assert main(["align", s, t, "--normalize", "none"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_cost"] == sum(per_op[op["kind"]] for op in payload["ops"])
        assert payload["total_cost"] == oracle_min_cost(s, t)


def test_path_consumes_both_sequences():
    rng = random.Random(43)
    for _ in range(100):
        s, t = _rand_units(rng, 8), _rand_units(rng, 8)
        ops = align(s, t)
        n_src = sum(code in "MSD" for code in ops)
        n_tgt = sum(code in "MSI" for code in ops)
        assert (n_src, n_tgt) == (len(s), len(t))


def test_alignment_is_deterministic():
    s, t = "天汽很好好", "天气很好"
    assert align(s, t) == align(s, t)


# Every pattern the package reads a path with: the merge policies' runs,
# the training walks' codes and the align command's single codes.
_POSITION_PATTERNS = [*_RUNS.values(), "[DIS]", "[SI]", "."]


def _reference_positions(path, runs):
    """positions by a cursor walk over the path, one code at a time: every
    code but I consumes a source unit, every code but D a target unit."""
    cursors, i, j = [], 0, 0
    for code in path:
        cursors.append((i, j))
        i += code != "I"
        j += code != "D"
    return [(match[0], *cursors[match.start()]) for match in re.finditer(runs, path)]


@pytest.mark.parametrize("runs", _POSITION_PATTERNS, ids=str)
def test_positions_match_a_cursor_walk_on_random_pairs(runs):
    rng = random.Random(47)
    for _ in range(300):
        s = _rand_units(rng, 12)
        t = _corrupt(rng, s) if rng.random() < 0.7 else _rand_units(rng, 12)
        path = align(s, t)
        assert list(positions(path, runs)) == _reference_positions(path, runs), (s, t, path)


@pytest.mark.parametrize(
    "path, runs, expected",
    [
        ("", ".", []),
        ("", "[^M]+", []),
        ("III", ".", [("I", 0, 0), ("I", 0, 1), ("I", 0, 2)]),
        ("III", "[^M]+", [("III", 0, 0)]),
        ("DDD", ".", [("D", 0, 0), ("D", 1, 0), ("D", 2, 0)]),
        ("DDD", "I+|[SD]", [("D", 0, 0), ("D", 1, 0), ("D", 2, 0)]),
        ("SIMMMD", ".", [("S", 0, 0), ("I", 1, 1), ("M", 1, 2), ("M", 2, 3), ("M", 3, 4), ("D", 4, 5)]),
        ("SIMMMD", "[^M]+", [("SI", 0, 0), ("D", 4, 5)]),
        ("SIMMMD", "I+|[SD]", [("S", 0, 0), ("I", 1, 1), ("D", 4, 5)]),
        ("SIMMMD", "[DIS]", [("S", 0, 0), ("I", 1, 1), ("D", 4, 5)]),
        ("SIMMMD", "[SI]", [("S", 0, 0), ("I", 1, 1)]),
        ("SIMMMD", "D", [("D", 4, 5)]),
    ],
)
def test_positions_hand_cases(path, runs, expected):
    assert list(positions(path, runs)) == expected
    assert expected == _reference_positions(path, runs)


def test_align_signature_is_stable():
    # perfbench/tracing.py binds align's arguments by these names to count
    # alignment.align.cells, and it wraps the align name that cli, edits and
    # model import from the alignment module.
    from zhcorrect import cli, edits, model

    assert list(inspect.signature(align).parameters) == ["src", "tgt"]
    assert cli.align is edits.align is model.align is align


def _untrimmed_align(src: str, tgt: str) -> str:
    """Reference: align as it was before the common prefix and suffix were
    trimmed, running the bit-parallel recurrence over the whole pair. Kept
    verbatim as an oracle, apart from returning only the op codes."""
    n, m = len(src), len(tgt)
    if src == tgt:
        # All matches: with unit costs a match is always an optimal
        # continuation, the walk's own first choice.
        return "M" * n
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

    ops: list[str] = []
    i = j = 0
    here = n + pv.bit_count() - mv.bit_count()
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
    return "".join(ops)


def _full_table_align(src: str, tgt: str) -> str:
    """Reference: align as it was before the band, filling the whole
    (n+1)x(m+1) suffix table. Kept verbatim as an oracle, at the unit costs
    align uses, apart from returning only the ops, spelled as codes."""
    s, t = tuple(src), tuple(tgt)
    n, m = len(s), len(t)
    c_sub = c_ins = c_del = 1.0

    # suffix[i][j] = min cost of aligning s[i:] with t[j:]
    suffix = [[0.0] * (m + 1) for _ in range(n + 1)]
    for j in range(m - 1, -1, -1):
        suffix[n][j] = suffix[n][j + 1] + c_ins
    for i in range(n - 1, -1, -1):
        suffix[i][m] = suffix[i + 1][m] + c_del
        row, below = suffix[i], suffix[i + 1]
        si = s[i]
        for j in range(m - 1, -1, -1):
            diag = below[j + 1] + (0.0 if si == t[j] else c_sub)
            up = below[j] + c_del
            left = row[j + 1] + c_ins
            best = diag
            if up < best:
                best = up
            if left < best:
                best = left
            row[j] = best

    ops: list[str] = []
    i = j = 0
    while i < n or j < m:
        here = suffix[i][j]
        if i < n and j < m and s[i] == t[j] and suffix[i + 1][j + 1] == here:
            ops.append("M")
            i, j = i + 1, j + 1
        elif i < n and j < m and s[i] != t[j] and suffix[i + 1][j + 1] + c_sub == here:
            ops.append("S")
            i, j = i + 1, j + 1
        elif i < n and suffix[i + 1][j] + c_del == here:
            ops.append("D")
            i += 1
        else:
            ops.append("I")
            j += 1

    return "".join(ops)


def _banded_align(src: str, tgt: str) -> str:
    """Reference: align as it was before the bit-parallel DP, filling a
    diagonal band (Ukkonen 1985) that doubles until it holds every optimal
    path. Kept verbatim as an oracle, apart from returning only the ops,
    spelled as codes."""
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

    ops: list[str] = []
    i = j = 0
    while i < n or j < m:
        here = suffix[i][j]
        if i < n and j < m and s[i] == t[j] and suffix[i + 1][j + 1] == here:
            ops.append("M")
            i, j = i + 1, j + 1
        elif i < n and j < m and s[i] != t[j] and suffix[i + 1][j + 1] + 1.0 == here:
            ops.append("S")
            i, j = i + 1, j + 1
        elif i < n and suffix[i + 1][j] + 1.0 == here:
            ops.append("D")
            i += 1
        else:
            ops.append("I")
            j += 1

    return "".join(ops)


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


def _assert_matches_oracles(src: str, tgt: str, ops: str | None = None) -> None:
    ops = align(src, tgt) if ops is None else ops
    _assert_valid_path(src, tgt, ops)
    assert ops == _untrimmed_align(src, tgt), (src, tgt)
    assert ops == _full_table_align(src, tgt), (src, tgt)
    assert ops == _banded_align(src, tgt), (src, tgt)


def _band_pair(rng):
    """A pair of 0-250 units. Small alphabets make runs of equal units and so
    many tied optimal paths; unrelated pairs cost about their length and make
    the band double, up to the whole table."""
    alphabet = _CJK[: rng.choice([1, 2, 3, 5, 30, 120])]
    top = 250 if rng.random() < 0.05 else 40
    src = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, top)))
    roll = rng.random()
    if roll < 0.6:  # edited copy: the common case of correction data
        units = list(src)
        for _ in range(rng.randint(0, max(1, len(units) // 4))):
            i = rng.randint(0, len(units))
            edit = rng.random()
            if edit < 0.4 and i < len(units):
                units[i] = rng.choice(alphabet)
            elif edit < 0.7:
                units.insert(i, rng.choice(alphabet))
            elif i < len(units):
                del units[i]
        tgt = "".join(units)
    elif roll < 0.85:
        tgt = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, top)))
    else:
        tgt = src
    return (tgt, src) if rng.random() < 0.5 else (src, tgt)


@pytest.mark.parametrize("seed", _BAND_SEEDS, ids=str)
def test_band_matches_full_table_on_random_pairs(seed):
    rng = random.Random(str(seed))
    for _ in range(1000):
        src, tgt = _band_pair(rng)
        _assert_matches_oracles(src, tgt)


@pytest.mark.parametrize("seed", _BAND_SEEDS, ids=str)
def test_band_matches_full_table_on_edge_cases(seed):
    # The seed draws the long strings; the cases are the same for each.
    rng = random.Random(str(seed))
    long = "".join(rng.choice(_CJK) for _ in range(250))
    other = "".join(rng.choice(_CJK[:60]) for _ in range(250))
    skipped = "".join(u for k, u in enumerate(long) if k % 7)
    cases = [
        ("", ""),
        ("", "北京"),
        ("北京", ""),
        ("", long),
        (long, ""),
        (long, long),
        (skipped, long),  # pure insertion
        (long, skipped),  # pure deletion
        (long, other),  # unrelated
        (long[:40], other),
        ("他是学生生", "他是学生"),
        ("学" * 30, "学" * 27),
        ("学生" * 20, "生学" * 21),
    ]
    for src, tgt in cases:
        _assert_matches_oracles(src, tgt)


def test_equal_pair_is_all_matches():
    rng = random.Random(5)
    texts = ["", "学", "x" * 300, "学生" * 150, "".join(rng.choice(_CJK) for _ in range(300))]
    for text in texts:
        ops = align(text, text)
        assert ops == "M" * len(text)
        _assert_matches_oracles(text, text, ops)


def _trim_pair(rng):
    """prefix + core_a + suffix against prefix + core_b + suffix. Cores are
    often empty on one side (a pure insertion or deletion), and a small
    alphabet makes runs of equal units that cross the trim boundary."""
    alphabet = _CJK[: rng.choice([1, 2, 3, 6, 120])]

    def text(top):
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, top)))

    prefix, suffix = text(rng.choice([0, 3, 40])), text(rng.choice([0, 3, 40]))
    core_a = text(6)
    core_b = "" if rng.random() < 0.3 else text(6)
    if rng.random() < 0.3:  # a unit of the shared run doubled or dropped
        run = prefix[-1:] if rng.random() < 0.5 else suffix[:1]
        core_b = core_b + run * rng.randint(1, 3)
    src, tgt = prefix + core_a + suffix, prefix + core_b + suffix
    return (tgt, src) if rng.random() < 0.5 else (src, tgt)


def test_trimmed_align_matches_untrimmed_on_shared_prefix_and_suffix():
    rng = random.Random(10)
    for _ in range(3000):
        src, tgt = _trim_pair(rng)
        assert align(src, tgt) == _untrimmed_align(src, tgt), (src, tgt)


@pytest.mark.parametrize(
    ("src", "tgt", "ops"),
    [
        # Appending "M" * s after the core's D/I rest would give SDM here.
        ("xbb", "yb", "SMD"),
        ("yb", "xbb", "SMI"),
        ("他是学生生", "他是学生", "MMMMD"),
        ("ab", "aXb", "MIM"),
        ("aXb", "ab", "MDM"),
        ("北京", "X北京", "IMM"),
        ("北京", "北京X", "MMI"),
        ("X北京", "北京", "DMM"),
        ("北京X", "北京", "MMD"),
        ("学学学", "学学学学学", "MMMII"),
        ("学学学学学", "学学学", "MMMDD"),
        # Both cores used up together: the walk ends at the corner and the
        # rest is the common suffix, after a prefix or without one.
        ("abXcd", "abYcd", "MMSMM"),
        ("Xab", "Yab", "SMM"),
        ("X", "Y", "S"),
        ("abX", "abY", "MMS"),
        # The source core outlasts the target core, and the reverse.
        ("aXYb", "aZb", "MSDM"),
        ("aZb", "aXYb", "MSIM"),
    ],
)
def test_trimmed_align_edge_cases(src, tgt, ops):
    assert align(src, tgt) == ops
    assert _untrimmed_align(src, tgt) == ops
    assert _full_table_align(src, tgt) == ops
    assert _cost(ops) == oracle_min_cost(src, tgt)


def _core(src, tgt):
    """What align's walk runs on: src and tgt less their common prefix and
    then the common suffix of the rests."""
    p = len(os.path.commonprefix([src, tgt]))
    s = len(os.path.commonprefix([src[p:][::-1], tgt[p:][::-1]]))
    return src[p : len(src) - s], tgt[p : len(tgt) - s]


def _has_closed_form(src, tgt):
    """Whether align returns the pair's codes without a table: its core is
    one unit against at most one, or two equal-length runs that differ only
    at their two end units."""
    x, y = _core(src, tgt)
    return len(x) + len(y) == 1 or (len(x) == len(y) and x[1:-1] == y[1:-1])


@pytest.mark.parametrize(
    ("src", "tgt", "ops"),
    [
        # No prefix and no suffix.
        ("X", "Y", "S"),
        ("X", "", "D"),
        ("", "Y", "I"),
        ("XY", "ZW", "SS"),
        ("X学生Y", "Z学生W", "SMMS"),
        # No prefix, or no suffix.
        ("Xab", "ab", "DMM"),
        ("ab", "abY", "MMI"),
        ("abXcY", "abZcW", "MMSMS"),
        # A core next to a run of its own unit.
        ("aab", "ab", "MDM"),
        ("ab", "aab", "MIM"),
        ("abba", "abca", "MMSM"),
        ("abab", "bbaa", "SMMS"),
        ("甲乙丙丁戊", "己乙丙丁庚", "SMMMS"),
    ],
)
def test_closed_form_cores(src, tgt, ops):
    assert _has_closed_form(src, tgt)
    assert align(src, tgt) == ops
    assert _untrimmed_align(src, tgt) == ops
    assert _full_table_align(src, tgt) == ops


@pytest.mark.parametrize(
    ("src", "tgt", "ops"),
    [
        # A (0, 2) core: the greedy tail matches inside the insertion run.
        ("ac", "abcc", "MIMI"),
        # Equal lengths, but the distance 2 is below the Hamming distance 3.
        ("abc", "bcd", "DMMI"),
        ("xbb", "yb", "SMD"),
    ],
)
def test_cores_next_to_the_closed_forms_take_a_table(src, tgt, ops):
    assert not _has_closed_form(src, tgt)
    assert align(src, tgt) == ops
    assert _untrimmed_align(src, tgt) == ops
    assert _full_table_align(src, tgt) == ops


def test_planted_one_unit_and_two_end_changes_match_the_oracles():
    # One substitution, insertion or deletion, or two substitutions 1-40
    # units apart, in texts over 1-4 units: runs of equal units around the
    # change move the trimmed core, often off the closed forms.
    rng = random.Random(24)
    closed = 0
    for _ in range(600):
        alphabet = _CJK[: rng.randint(1, 4)]
        units = [rng.choice(alphabet) for _ in range(rng.randint(0, 50))]
        edited = list(units)

        def other(unit):
            return rng.choice([u for u in _CJK[: len(alphabet) + 1] if u != unit])

        if rng.random() < 0.5 and len(units) >= 2:
            gap = rng.randint(1, min(40, len(units) - 1))
            at = rng.randrange(len(units) - gap)
            edited[at], edited[at + gap] = other(units[at]), other(units[at + gap])
        else:
            at = rng.randint(0, len(units))
            edit = rng.random()
            if edit < 0.4 and at < len(units):
                edited[at] = other(units[at])
            elif edit < 0.7 or at == len(units):
                edited.insert(at, rng.choice(alphabet))
            else:
                del edited[at]
        src, tgt = "".join(units), "".join(edited)
        if rng.random() < 0.5:
            src, tgt = tgt, src
        ops = align(src, tgt)
        _assert_valid_path(src, tgt, ops)
        assert ops == _untrimmed_align(src, tgt), (src, tgt)
        assert ops == _full_table_align(src, tgt), (src, tgt)
        closed += src != tgt and _has_closed_form(src, tgt)
    assert closed >= 300


def test_train_inputs_match_the_oracles():
    # Every source against its first reference in the three training corpora
    # of make_suite(0): the short, lightly edited pairs that mostly take a
    # closed form.
    suite = make_suite(0)
    closed = unequal = 0
    for corpus in (suite.stage1, suite.csc, suite.cgc):
        for pair in corpus.pairs:
            src, tgt = pair.source, pair.references[0]
            ops = align(src, tgt)
            assert ops == _untrimmed_align(src, tgt), (src, tgt)
            assert ops == _full_table_align(src, tgt), (src, tgt)
            if src != tgt:
                unequal += 1
                closed += _has_closed_form(src, tgt)
    assert closed >= 0.8 * unequal


def _spaced_edits(rng, text, count, alphabet):
    """text with count single-unit edits (a substitution, an insertion or a
    deletion, drawn from alphabet) at least 8 units apart."""
    units = list(text)
    width = len(units) // count
    for k in reversed(range(count)):
        at = k * width + rng.randrange(4, width - 4)
        edit = rng.random()
        if edit < 0.4:
            units[at] = rng.choice(alphabet)
        elif edit < 0.7:
            units.insert(at, rng.choice(alphabet))
        else:
            del units[at]
    return "".join(units)


def test_long_lightly_edited_cores_match_the_oracles():
    # Long sentences with a handful of edits, the shape of CGC data, are
    # walked on the furthest-reach table; small alphabets make runs of
    # equal units and so many tied optimal paths.
    rng = random.Random(2023)
    walked_on_reach = 0
    for _ in range(120):
        alphabet = _CJK[: rng.choice([1, 2, 3, 5, 20, 120])]
        src = "".join(rng.choice(alphabet) for _ in range(rng.randint(60, 250)))
        tgt = _spaced_edits(rng, src, rng.randint(1, 8), alphabet)
        if rng.random() < 0.5:
            src, tgt = tgt, src
        _assert_matches_oracles(src, tgt)
        x, y = _core(src, tgt)
        walked_on_reach += len(x) >= 10 and _furthest_reach(x, y) is not None
    assert walked_on_reach >= 60


def _unique_edits(rng, length, count, inserts):
    """A pair whose core is exactly a random text of `length` units and
    whose distance is exactly count: count edits, each bringing a unit
    found nowhere else. The first and last come at the ends of the text,
    so no prefix or suffix is trimmed. The last `inserts` of them, except
    one at the start, are insertions, and the rest substitutions."""
    src = [rng.choice(_CJK) for _ in range(length)]
    tgt = list(src)
    fresh = iter(chr(c) for c in range(0x9000, 0x9100))
    spots = sorted({0, length - 1, *rng.sample(range(1, length - 1), count - 2)})
    for k, at in enumerate(reversed(spots)):
        if k < inserts and at == 0:
            tgt[at] = next(fresh)  # an insertion here would leave a common prefix
        elif k < inserts:
            tgt.insert(at + 1, next(fresh))
        else:
            tgt[at] = next(fresh)
    return "".join(src), "".join(tgt)


@pytest.mark.parametrize("length", [10, 24, 63, 64, 150, 250])
def test_distances_around_the_reach_budget_match_the_oracles(length):
    # The reach search gives up above isqrt of the source core's length and
    # the walk falls back to the bit-parallel rows; the codes must not tell.
    rng = random.Random(length)
    seen = set()
    for budget_offset in (-1, 0, 1):
        for inserts in (0, 1, 2):
            for flip in (False, True):
                count = math.isqrt(length) + budget_offset
                src, tgt = _unique_edits(rng, length, count, inserts)
                if flip:
                    src, tgt = tgt, src
                x, y = _core(src, tgt)
                assert (x, y) == (src, tgt)
                ops = align(src, tgt)
                assert _cost(ops) == count
                budget = math.isqrt(len(x))
                reach = _furthest_reach(x, y)
                assert (reach is None) == (count > budget)
                if reach is not None:
                    assert len(reach) - 1 == count
                    assert [len(level) for level in reach] == list(range(1, 2 * count + 2, 2))
                seen.add(count - budget)
                _assert_matches_oracles(src, tgt, ops)
    assert {-1, 0, 1} <= seen


def test_band_memory_stays_within_the_full_table():
    # align keeps n+1 pairs of m-bit ints, so a source much longer than the
    # target stays far below the full (n+1)*(m+1) table (here about 15,000
    # slots); the bound is the one the band was held to. A reach table
    # holds (D+1)**2 ints, and the budget caps D at isqrt(n): on an
    # unrelated pair the search gives up after 70 levels and the walk
    # takes the rows.
    rng = random.Random(11)
    long = "".join(rng.choice(_CJK) for _ in range(5000))
    for tgt in ("", long[:2], long[2500:2502]):
        tracemalloc.start()
        try:
            ops = align(long, tgt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20_000_000, (len(tgt), peak)
        _assert_matches_oracles(long, tgt, ops)
    # The whole table of these pairs would hold 25 million cells, more than
    # the table-filling oracles can, so the untrimmed rows are their oracle.
    edited = _spaced_edits(rng, long, 3, _CJK)
    unrelated = "".join(rng.choice(_CJK) for _ in range(5000))
    for tgt, cost in ((edited, 3), (unrelated, None)):
        tracemalloc.start()
        try:
            ops = align(long, tgt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20_000_000, peak
        _assert_valid_path(long, tgt, ops)
        assert ops == _untrimmed_align(long, tgt)
        if cost is not None:
            assert _cost(ops) == cost


@st.composite
def _small_alphabet_pairs(draw):
    alphabet = draw(st.lists(st.sampled_from(_CJK), min_size=1, max_size=4, unique=True))
    text = st.text(alphabet=alphabet, max_size=30)
    src = draw(text)
    # Random pairs almost never coincide, so a quarter are (s, s) outright.
    tgt = src if draw(st.integers(0, 3)) == 0 else draw(text)
    # Half share a prefix and a suffix, which align trims before its DP; the
    # small alphabet makes runs that cross the trim boundary.
    if draw(st.booleans()):
        shared = st.text(alphabet=[*alphabet, *_CJK[:8]], max_size=12)
        prefix, suffix = draw(shared), draw(shared)
        src, tgt = prefix + src + suffix, prefix + tgt + suffix
    return src, tgt


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_small_alphabet_pairs())
def test_align_matches_oracle_and_its_edits_rebuild_the_target(pair):
    src, tgt = pair
    ops = align(src, tgt)
    _assert_valid_path(src, tgt, ops)
    assert ops == _banded_align(src, tgt)
    assert ops == _untrimmed_align(src, tgt)
    for policy in MergePolicy:
        assert apply_edits(src, extract_edits(src, tgt, policy)) == tgt
