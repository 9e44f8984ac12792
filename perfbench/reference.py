"""Independent reference for the benchmark's output checks.

Nothing here imports genocchi.  The numbers h_n are the published values
(OEIS A000366), the Kreweras rows come from the triangle's recurrence,
and each family checker restates the family's definition from the
package README on the canonical text form:

pd2n      word s of [2n+2]: s(2i-1) > 2i-1, s(2i) < 2i, and each value 2i
          before 2i+1 (i = 1..n).  k = s(1)/2, l = (s(2n+2)-1)/2.
dellac    columns c_1..c_2n in [n], each used twice, c_i <= i <= c_i+n.
          k = c_(n+1), l = c_n.
chain     subsets I_0..I_n of [n], #I_i = i, I_(i-1) minus {i} inside I_i.
          k (l): first index whose subset holds 1 (n).
settuple  sets S_1..S_n of [n] of size 1 or 2, #S_i = #{j : i in S_j},
          and a two-element {j : i in S_j} straddles i.
          k (l): the j with 1 (n) in S_j.
hetyei    pairs u,v with 1 <= u <= v <= l at position l, whose entries
          cover [n].  l = n+1 - (last position whose pair holds 1); k is
          defined through the redundancy chain and is not recomputed here.

Numbers are ASCII [1-9][0-9]* only, so text that is not canonical is
refused.  Each checker returns (n, k, l) for a valid object, with k None
where it is not recomputed, and None for anything else.
"""

from __future__ import annotations

import re
from operator import gt, le, lt, sub

# h_0 .. h_8, OEIS A000366 (normalized median Genocchi numbers)
H = (1, 1, 2, 7, 38, 295, 3098, 42271, 726734)


def kreweras_rows(max_n: int) -> list[tuple[int, ...]]:
    """Rows 1..max_n of the Kreweras triangle h(n, k) from its recurrence:

    h(1,1) = 1; h(n,1) = sum of row n-1; h(n,2) = 2h(n,1) - h(n-1,1);
    h(n,k) = 2h(n,k-1) - h(n,k-2) - h(n-1,k-1) - h(n-1,k-2) for k >= 3.
    """
    rows = [(1,)]
    for n in range(2, max_n + 1):
        prev = rows[-1]
        row = [sum(prev)]
        row.append(2 * row[0] - prev[0])
        for k in range(3, n + 1):
            row.append(2 * row[k - 2] - row[k - 3] - prev[k - 2] - prev[k - 3])
        rows.append(tuple(row))
    return rows[:max_n]


def kreweras_row(n: int) -> tuple[int, ...]:
    """Row n, cross-checked against the published h_n: the row sums to h_n
    and starts and ends with h_(n-1)."""
    row = kreweras_rows(n)[n - 1]
    if n < len(H) and (sum(row) != H[n] or row[0] != H[n - 1] or row[-1] != H[n - 1]):
        raise AssertionError(f"Kreweras row {n} = {row} disagrees with h_{n} = {H[n]}")
    return row


_NUM = "[1-9][0-9]*"
_NUM_RE = re.compile(_NUM)
_SUBSETS = re.compile(f"(?:{_NUM}(?:,{_NUM})*)?(?:;(?:{_NUM}(?:,{_NUM})*)?)*")
_PAIRS = re.compile(f"{_NUM},{_NUM}(?:;{_NUM},{_NUM})*")


def _subsets(text: str) -> list[list[int]] | None:
    if not _SUBSETS.fullmatch(text):
        return None
    out = []
    for part in text.split(";"):
        values = [int(t) for t in part.split(",")] if part else []
        if any(a >= b for a, b in zip(values, values[1:])):
            return None
        out.append(values)
    return out


# Canonical number text, looked up without a regular expression on the
# common path; other text falls back to _NUM.
_INT = {str(i): i for i in range(1, 1000)}
_PAIR = {f"{u},{v}": (u, v) for v in range(1, 100) for u in range(1, v + 1)}


def _numbers(tokens: list[str]) -> list[int] | None:
    try:
        return list(map(_INT.__getitem__, tokens))
    except KeyError:
        if all(map(_NUM_RE.fullmatch, tokens)):
            return [int(t) for t in tokens]
        return None


def check_pd2n(text: str):
    w = _numbers(text.split(" "))
    if w is None:
        return None
    m = len(w)
    if m < 4 or m % 2 or sorted(w) != list(range(1, m + 1)):
        return None
    if not (all(map(gt, w[0::2], range(1, m, 2)))
            and all(map(lt, w[1::2], range(2, m + 1, 2)))):
        return None
    at = sorted(range(m), key=w.__getitem__)  # at[v-1] = position of value v
    if not all(map(lt, at[1 : m - 2 : 2], at[2 : m - 1 : 2])):  # 2i before 2i+1
        return None
    return m // 2 - 1, w[0] // 2, (w[-1] - 1) // 2


def check_dellac(text: str):
    c = _numbers(text.split(" "))
    if c is None or len(c) % 2:
        return None
    n = len(c) // 2
    offsets = list(map(sub, range(1, 2 * n + 1), c))  # i - c_i
    if min(offsets) < 0 or max(offsets) > n:
        return None
    if sorted(c) != [v for v in range(1, n + 1) for _ in (0, 1)]:
        return None
    return n, c[n], c[n - 1]


def check_chain(text: str):
    subsets = _subsets(text)
    if subsets is None or len(subsets) < 2:
        return None
    n = len(subsets) - 1
    prev: set[int] = set()
    for i, part in enumerate(subsets):
        cur = set(part)
        if len(cur) != i or (part and part[-1] > n) or not (prev - {i}) <= cur:
            return None
        prev = cur
    k = next(i for i, part in enumerate(subsets) if 1 in part)
    l = next(i for i, part in enumerate(subsets) if n in part)
    return n, k, l


def check_settuple(text: str):
    sets = _subsets(text)
    if sets is None:
        return None
    n = len(sets)
    occ: list[list[int]] = [[] for _ in range(n + 1)]
    for j, part in enumerate(sets, 1):
        if not 1 <= len(part) <= 2 or part[-1] > n:
            return None
        for v in part:
            occ[v].append(j)
    for i in range(1, n + 1):
        where = occ[i]
        if len(where) != len(sets[i - 1]):
            return None
        if len(where) == 2 and not where[0] < i < where[1]:
            return None
    return n, occ[1][0], occ[n][0]


def check_hetyei(text: str):
    parts = text.split(";")
    try:
        pairs = list(map(_PAIR.__getitem__, parts))
    except KeyError:
        if not _PAIRS.fullmatch(text):
            return None
        pairs = [tuple(map(int, p.split(","))) for p in parts]
        if any(u > v for u, v in pairs):
            return None
    n = len(pairs)
    us, vs = zip(*pairs)
    if not all(map(le, vs, range(1, n + 1))) or len(set(us).union(vs)) != n:
        return None
    return n, None, us[::-1].index(1) + 1


CHECKERS = {
    "pd2n": check_pd2n,
    "dellac": check_dellac,
    "chain": check_chain,
    "settuple": check_settuple,
    "hetyei": check_hetyei,
}

# The order-3 examples printed in the package README.
README_ORDER3 = {
    "pd2n": ["2 1 6 3 7 4 8 5"],
    "dellac": ["1 2 2 1 3 3"],
    "chain": [";3;1,3;1,2,3"],
    "settuple": ["1;2;3", "1;3;2", "2;1,3;2", "2;1;3", "2;3;1", "3;1;2", "3;2;1"],
    "hetyei": ["1,1;1,2;1,3"],
}

# All seven order-3 objects of each family by their (k, l) cell, the
# reference classification that genocchi's verifier also pins.
ORDER3_CELLS = {
    "pd2n": {(1, 2): "2 1 6 3 7 4 8 5", (1, 3): "2 1 4 3 6 5 8 7",
             (2, 1): "4 1 6 2 7 5 8 3", (2, 2): "4 1 6 2 7 3 8 5",
             (2, 3): "4 1 5 2 6 3 8 7", (3, 1): "6 1 4 2 7 5 8 3",
             (3, 2): "6 1 4 2 7 3 8 5"},
    "dellac": {(1, 2): "1 2 2 1 3 3", (1, 3): "1 2 3 1 2 3", (2, 1): "1 2 1 2 3 3",
               (2, 2): "1 1 2 2 3 3", (2, 3): "1 1 3 2 2 3", (3, 1): "1 2 1 3 2 3",
               (3, 2): "1 1 2 3 2 3"},
    "chain": {(1, 2): ";1;1,3;1,2,3", (1, 3): ";1;1,2;1,2,3", (2, 1): ";3;1,3;1,2,3",
              (2, 2): ";2;1,3;1,2,3", (2, 3): ";2;1,2;1,2,3", (3, 1): ";3;2,3;1,2,3",
              (3, 2): ";2;2,3;1,2,3"},
    "settuple": {(1, 2): "1;3;2", (1, 3): "1;2;3", (2, 1): "3;1;2", (2, 2): "2;1,3;2",
                 (2, 3): "2;1;3", (3, 1): "3;2;1", (3, 2): "2;3;1"},
    "hetyei": {(1, 2): "1,1;1,2;3,3", (1, 3): "1,1;2,2;3,3", (2, 1): "1,1;1,2;1,3",
               (2, 2): "1,1;1,2;2,3", (2, 3): "1,1;2,2;2,3", (3, 1): "1,1;2,2;1,3",
               (3, 2): "1,1;1,1;2,3"},
}
