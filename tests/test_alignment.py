import random

import pytest

from zhcorrect import (
    ORACLE_MAX_TOTAL_UNITS,
    UNIT_COSTS,
    AlignOp,
    AlignmentPath,
    CostScheme,
    OpKind,
    UsageError,
    align,
    oracle_min_cost,
)

_CJK = [chr(c) for c in range(0x4E00, 0x4E00 + 120)]


def _rand_units(rng, max_len):
    return "".join(rng.choice(_CJK) for _ in range(rng.randint(0, max_len)))


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
    path = align("我爱北京", "我爱北京")
    assert [op.kind for op in path.ops] == [OpKind.MATCH] * 4
    assert path.total_cost == 0.0


def test_trailing_repeat_deletes_last_unit():
    path = align("他是学生生", "他是学生")
    assert [op.kind for op in path.ops] == [OpKind.MATCH] * 4 + [OpKind.DEL]
    assert path.ops[-1].src_index == 4
    assert path.total_cost == 1.0


def test_empty_source_all_insertions():
    path = align("", "北京")
    assert [op.kind for op in path.ops] == [OpKind.INS, OpKind.INS]
    assert path.total_cost == 2.0


def test_cost_zero_iff_equal():
    rng = random.Random(2)
    for _ in range(100):
        s = _rand_units(rng, 8)
        t = _corrupt(rng, s)
        cost = align(s, t).total_cost
        assert (cost == 0.0) == (s == t)


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
        assert align(s, t).total_cost == oracle_min_cost(s, t)


def test_symmetry_with_symmetric_costs():
    rng = random.Random(17)
    for _ in range(100):
        s, t = _rand_units(rng, 10), _rand_units(rng, 10)
        assert align(s, t).total_cost == align(t, s).total_cost


def test_triangle_inequality():
    rng = random.Random(23)
    for _ in range(100):
        a, b, c = (_rand_units(rng, 8) for _ in range(3))
        ab = align(a, b).total_cost
        bc = align(b, c).total_cost
        ac = align(a, c).total_cost
        assert ac <= ab + bc + 1e-9


def test_total_cost_equals_sum_of_op_costs():
    rng = random.Random(41)
    per_op = {
        OpKind.MATCH: 0.0,
        OpKind.SUB: UNIT_COSTS.substitution,
        OpKind.INS: UNIT_COSTS.insertion,
        OpKind.DEL: UNIT_COSTS.deletion,
    }
    for _ in range(100):
        s = _rand_units(rng, 8)
        t = _corrupt(rng, s)
        path = align(s, t)
        assert path.total_cost == sum(per_op[op.kind] for op in path.ops)


def test_path_consumes_both_sequences():
    rng = random.Random(43)
    for _ in range(100):
        s, t = _rand_units(rng, 8), _rand_units(rng, 8)
        path = align(s, t)
        n_src = sum(op.kind in (OpKind.MATCH, OpKind.SUB, OpKind.DEL) for op in path.ops)
        n_tgt = sum(op.kind in (OpKind.MATCH, OpKind.SUB, OpKind.INS) for op in path.ops)
        assert (n_src, n_tgt) == (len(s), len(t))


def test_custom_costs_steer_the_path():
    costs = CostScheme(substitution=3.0, insertion=1.0, deletion=1.0)
    path = align("a", "b", costs)
    assert [op.kind for op in path.ops] == [OpKind.DEL, OpKind.INS]
    assert path.total_cost == 2.0


def test_cost_scheme_validation():
    with pytest.raises(UsageError):
        CostScheme(substitution=0.0)
    with pytest.raises(UsageError):
        CostScheme(deletion=-1.0)


def test_alignment_is_deterministic():
    s, t = "天汽很好好", "天气很好"
    assert align(s, t) == align(s, t)


def test_invalid_paths_rejected():
    s, t = "ab", "ab"
    with pytest.raises(UsageError):
        # match joining unequal units
        AlignmentPath(
            "ab",
            "cd",
            (AlignOp(OpKind.MATCH, 0, 0), AlignOp(OpKind.MATCH, 1, 1)),
            0.0,
        )
    with pytest.raises(UsageError):
        # path stops short of (n, m)
        AlignmentPath(s, t, (AlignOp(OpKind.MATCH, 0, 0),), 0.0)
    with pytest.raises(UsageError):
        # non-monotone indices
        AlignmentPath(s, t, (AlignOp(OpKind.MATCH, 1, 1), AlignOp(OpKind.MATCH, 0, 0)), 0.0)
