"""Test oracles shared by test modules."""

from zhcorrect import UsageError

# Brute-force oracle refuses above this combined length (exponential search).
ORACLE_MAX_TOTAL_UNITS = 12


def oracle_min_cost(src: str, tgt: str) -> float:
    """Minimum alignment cost by plain brute-force recursion (no memoization).

    Refuses pairs with more than ORACLE_MAX_TOTAL_UNITS combined units.
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
