"""Seidel and Kreweras triangles, with the three Genocchi-type sequences.

The Seidel triangle g(i, j) is filled boustrophedon style, one row at a
time, with g(1, 1) = 1 and entries vanishing outside 1 <= j <= ceil(i/2):

    odd rows    g(2p-1, j) = g(2p-1, j-1) + g(2p-2, j)    (left to right)
    even rows   g(2p, j)   = g(2p-1, j)   + g(2p, j+1)    (right to left)

Three classical sequences live on its borders:

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
index.  Rows are computed once, memoized, and returned as immutable
tuples; table construction is serialized by a lock so concurrent readers
are safe.
"""

from __future__ import annotations

import threading

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


class _MemoizedTriangle:
    """Rows 1, 2, .. memoized as tuples; row 1 is (1,) and each later row
    comes from _next_row, computed under a lock so concurrent readers agree."""

    def __init__(self) -> None:
        self._rows: list[tuple[int, ...]] = [(1,)]
        self._lock = threading.Lock()

    def row(self, i: int) -> tuple[int, ...]:
        if i < 1:
            raise ValueError(f"row index must be >= 1, got {i}")
        if i > len(self._rows):
            with self._lock:
                while len(self._rows) < i:
                    self._rows.append(self._next_row())
        return self._rows[i - 1]


class SeidelTriangle(_MemoizedTriangle):
    """Memoized Seidel triangle.  Row i holds entries j = 1 .. ceil(i/2)."""

    def _next_row(self) -> tuple[int, ...]:
        i = len(self._rows) + 1
        prev = self._rows[-1]
        width = (i + 1) // 2

        def at(row: tuple[int, ...], j: int) -> int:
            return row[j - 1] if 1 <= j <= len(row) else 0

        if i % 2:  # left to right
            out: list[int] = []
            left = 0
            for j in range(1, width + 1):
                left = left + at(prev, j)
                out.append(left)
            return tuple(out)
        # right to left
        rev: list[int] = []
        right = 0
        for j in range(width, 0, -1):
            right = at(prev, j) + right
            rev.append(right)
        return tuple(reversed(rev))

    def entry(self, i: int, j: int) -> int:
        """g(i, j); zero outside the support 1 <= j <= ceil(i/2)."""
        row = self.row(i)
        if j < 1 or j > len(row):
            return 0
        return row[j - 1]


class KrewerasTriangle(_MemoizedTriangle):
    """Memoized Kreweras triangle.  Row n holds entries k = 1 .. n."""

    def _next_row(self) -> tuple[int, ...]:
        prev = self._rows[-1]
        n = len(self._rows) + 1
        out = [sum(prev)]
        if n >= 2:
            out.append(2 * out[0] - prev[0])
        for k in range(3, n + 1):
            out.append(2 * out[k - 2] - out[k - 3] - prev[k - 2] - prev[k - 3])
        return tuple(out)

    def entry(self, n: int, k: int) -> int:
        row = self.row(n)
        if not 1 <= k <= n:
            raise ValueError(f"column must satisfy 1 <= k <= {n}, got {k}")
        return row[k - 1]


_SEIDEL = SeidelTriangle()
_KREWERAS = KrewerasTriangle()


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
    return _SEIDEL.entry(2 * n - 1, n)


def median_genocchi(n: int) -> int:
    """Median Genocchi number H(2n+1), n >= 0:  1, 2, 8, 56, 608, ..."""
    if n < 0:
        raise ValueError(f"defined for n >= 0, got {n}")
    return _SEIDEL.entry(2 * n + 2, 1)


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
