"""Seidel and Kreweras triangles, with the three Genocchi-type sequences.

The Seidel triangle g(i, j) is filled boustrophedon style, one row at a
time, with g(1, 1) = 1 and entries vanishing outside 1 <= j <= ceil(i/2):

    odd rows    g(2p-1, j) = g(2p-1, j-1) + g(2p-2, j)    (left to right)
    even rows   g(2p, j)   = g(2p-1, j)   + g(2p, j+1)    (right to left)

so each row is the running sum of the row before it, taken left to right
with one more entry on odd rows and right to left on even rows.  Three
classical sequences live on its borders:

    genocchi(n)            = g(2n-1, n)      -> 1, 1, 3, 17, 155, 2073, ...
    median_genocchi(n)     = g(2n+2, 1)      -> 1, 2, 8, 56, 608, ...
    normalized_genocchi(n) = g(2n+2, 1)/2^n  -> 1, 1, 2, 7, 38, 295, ...

The division by 2^n is always exact; normalized_genocchi checks this and
fails hard if the table ever violates it.

The Kreweras triangle h(n, k), 1 <= k <= n, refines the normalized
sequence.  It is defined by h(1, 1) = 1 and, for n >= 2,

    h(n, 1) = h(n-1, 1) + ... + h(n-1, n-1)
    h(n, 2) = 2 h(n, 1) - h(n-1, 1)
    h(n, k) = 2 h(n, k-1) - h(n, k-2) - h(n-1, k-1) - h(n-1, k-2),  3 <= k <= n.

Rows are symmetric, sum to normalized_genocchi(n), and end with
normalized_genocchi(n-1) on both sides.

All arithmetic uses native Python integers, so every entry is exact at any
index.  Each triangle computes every row from the previous one alone.  Row
tables memoize the rows asked of them, the sequences only the two ends of
the even Seidel rows; a lock guards every memo, and an interrupted row
leaves its memo able to compute it again.
"""

from __future__ import annotations

import threading
from collections.abc import Iterator
from itertools import accumulate

__all__ = [
    "SeidelTriangle",
    "KrewerasTriangle",
    "seidel_entry",
    "seidel_row",
    "kreweras",
    "kreweras_row",
    "genocchi",
    "median_genocchi",
    "normalized_genocchi",
]


def _seidel_step(row: tuple[int, ...], i: int) -> tuple[int, ...]:
    """Row i + 1 of the Seidel triangle from row i."""
    if i % 2:
        return tuple(accumulate(reversed(row)))[::-1]  # even: right to left
    return tuple(accumulate(row + (0,)))  # odd: left to right, one wider


def _kreweras_step(row: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Row n + 1 of the Kreweras triangle from row n."""
    first = sum(row)
    out = [first, 2 * first - row[0]]
    for k in range(3, n + 2):
        out.append(2 * out[k - 2] - out[k - 3] - row[k - 2] - row[k - 3])
    return tuple(out)


def _rows(step) -> Iterator[tuple[int, ...]]:
    row, i = (1,), 1
    while True:
        yield row
        row = step(row, i)
        i += 1


def _seidel_rows() -> Iterator[tuple[int, ...]]:
    """Rows 1, 2, ... of the Seidel triangle; row i has ceil(i/2) entries."""
    return _rows(_seidel_step)


def _kreweras_rows() -> Iterator[tuple[int, ...]]:
    """Rows 1, 2, ... of the Kreweras triangle; row n has n entries."""
    return _rows(_kreweras_step)


class _Memo:
    """Rows 1, 2, ... kept once computed, row 1 being (1,), each row i + 1
    computed as step(row i, i) and stored in one append, so a step that is
    interrupted leaves the memo as it was and a retry resumes.  When given,
    shrink replaces each row once the next one is stored.  A lock guards
    the memo."""

    def __init__(self, step, shrink=None) -> None:
        self._rows: list[tuple[int, ...]] = [(1,)]
        self._step = step
        self._shrink = shrink
        self._lock = threading.Lock()

    def row(self, i: int) -> tuple[int, ...]:
        if i < 1:
            raise ValueError(f"row index must be >= 1, got {i}")
        rows = self._rows
        with self._lock:
            while len(rows) < i:
                rows.append(self._step(rows[-1], len(rows)))
                if self._shrink:
                    rows[-2] = self._shrink(rows[-2])
        return rows[i - 1]


class SeidelTriangle(_Memo):
    """Memoized Seidel triangle.  Row i holds entries j = 1 .. ceil(i/2)."""

    def __init__(self) -> None:
        super().__init__(_seidel_step)

    def entry(self, i: int, j: int) -> int:
        """g(i, j); zero outside the support 1 <= j <= ceil(i/2)."""
        row = self.row(i)
        if j < 1 or j > len(row):
            return 0
        return row[j - 1]


class KrewerasTriangle(_Memo):
    """Memoized Kreweras triangle.  Row n holds entries k = 1 .. n."""

    def __init__(self) -> None:
        super().__init__(_kreweras_step)

    def entry(self, n: int, k: int) -> int:
        row = self.row(n)
        if not 1 <= k <= n:
            raise ValueError(f"column must satisfy 1 <= k <= {n}, got {k}")
        return row[k - 1]


_SEIDEL = SeidelTriangle()
_KREWERAS = KrewerasTriangle()
# row n is Seidel row 2n, whose ends are g(2n, 1) and g(2n, n) = g(2n-1, n),
# kept as those two ends alone once row n + 1 is stored
_BORDERS = _Memo(lambda row, n: _seidel_step(_seidel_step(row, 2 * n), 2 * n + 1),
                 lambda row: (row[0], row[-1]))


def seidel_row(i: int) -> tuple[int, ...]:
    """Row i of the Seidel triangle, entries j = 1 .. ceil(i/2)."""
    return _SEIDEL.row(i)


def seidel_entry(i: int, j: int) -> int:
    return _SEIDEL.entry(i, j)


def kreweras_row(n: int) -> tuple[int, ...]:
    """Row n of the Kreweras triangle, entries k = 1 .. n."""
    return _KREWERAS.row(n)


def kreweras(n: int, k: int) -> int:
    return _KREWERAS.entry(n, k)


def genocchi(n: int) -> int:
    """Genocchi number G(2n), n >= 1:  1, 1, 3, 17, 155, 2073, ..."""
    if n < 1:
        raise ValueError(f"defined for n >= 1, got {n}")
    return _BORDERS.row(n)[-1]


def median_genocchi(n: int) -> int:
    """Median Genocchi number H(2n+1), n >= 0:  1, 2, 8, 56, 608, ..."""
    if n < 0:
        raise ValueError(f"defined for n >= 0, got {n}")
    return _BORDERS.row(n + 1)[0]


def normalized_genocchi(n: int) -> int:
    """Normalized median Genocchi number h(n) = H(2n+1) / 2^n, n >= 0."""
    if n < 0:
        raise ValueError(f"defined for n >= 0, got {n}")
    h, rem = divmod(median_genocchi(n), 1 << n)
    if rem:
        raise ArithmeticError(
            f"median_genocchi({n}) is not divisible by 2^{n}; triangle recurrence is broken"
        )
    return h
