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
index.  Each triangle is a generator computing every row from the previous
one alone.  Row tables memoize the rows asked of them, the sequences only
the Seidel border pairs; a lock guards every step of a memo's generator.
"""

from __future__ import annotations

import threading
from itertools import accumulate
from typing import Iterator

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


def _seidel_rows() -> Iterator[tuple[int, ...]]:
    """Rows 1, 2, ... of the Seidel triangle; row i has ceil(i/2) entries."""
    row = (1,)
    while True:
        yield row
        row = tuple(accumulate(reversed(row)))[::-1]  # even: right to left
        yield row
        row = tuple(accumulate(row + (0,)))  # odd: left to right, one wider


def _kreweras_rows() -> Iterator[tuple[int, ...]]:
    """Rows 1, 2, ... of the Kreweras triangle; row n has n entries."""
    row = (1,)
    while True:
        yield row
        first = sum(row)
        out = [first, 2 * first - row[0]]
        for k in range(3, len(row) + 2):
            out.append(2 * out[k - 2] - out[k - 3] - row[k - 2] - row[k - 3])
        row = tuple(out)


class _Memo:
    """Items 1, 2, ... of a generator, kept once read; a lock guards each next()."""

    def __init__(self, source: Iterator[tuple[int, ...]]) -> None:
        self._rows: list[tuple[int, ...]] = []
        self._source = source
        self._lock = threading.Lock()

    def row(self, i: int) -> tuple[int, ...]:
        if i < 1:
            raise ValueError(f"row index must be >= 1, got {i}")
        with self._lock:
            while len(self._rows) < i:
                self._rows.append(next(self._source))
        return self._rows[i - 1]


class SeidelTriangle(_Memo):
    """Memoized Seidel triangle.  Row i holds entries j = 1 .. ceil(i/2)."""

    def __init__(self) -> None:
        super().__init__(_seidel_rows())

    def entry(self, i: int, j: int) -> int:
        """g(i, j); zero outside the support 1 <= j <= ceil(i/2)."""
        row = self.row(i)
        if j < 1 or j > len(row):
            return 0
        return row[j - 1]


class KrewerasTriangle(_Memo):
    """Memoized Kreweras triangle.  Row n holds entries k = 1 .. n."""

    def __init__(self) -> None:
        super().__init__(_kreweras_rows())

    def entry(self, n: int, k: int) -> int:
        row = self.row(n)
        if not 1 <= k <= n:
            raise ValueError(f"column must satisfy 1 <= k <= {n}, got {k}")
        return row[k - 1]


_SEIDEL = SeidelTriangle()
_KREWERAS = KrewerasTriangle()
# item n is (g(2n-1, n), g(2n, 1)): the last entry of odd row 2n-1 and the
# first of row 2n, read from one stream of rows taken two at a time
_BORDERS = _Memo((odd[-1], even[0]) for odd, even in zip(*[_seidel_rows()] * 2))


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
    return _BORDERS.row(n)[0]


def median_genocchi(n: int) -> int:
    """Median Genocchi number H(2n+1), n >= 0:  1, 2, 8, 56, 608, ..."""
    if n < 0:
        raise ValueError(f"defined for n >= 0, got {n}")
    return _BORDERS.row(n + 1)[1]


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
