"""Triangle recurrences checked against independent plain recursions.

The reference implementations below share no code with the package: they
restate the recurrences directly with functools.cache and no row storage.
"""

from __future__ import annotations

import signal
import threading
import time
from functools import cache

import pytest
from hypothesis import given, strategies as st

from genocchi import triangles as tri


@cache
def ref_seidel(i: int, j: int) -> int:
    # zero outside the support 1 <= j <= ceil(i/2)
    if j < 1 or j > (i + 1) // 2:
        return 0
    if i == 1:
        return 1
    if i % 2:
        return ref_seidel(i, j - 1) + ref_seidel(i - 1, j)
    return ref_seidel(i - 1, j) + ref_seidel(i, j + 1)


@cache
def ref_kreweras(n: int, k: int) -> int:
    if k < 1 or k > n:
        return 0
    if n == 1:
        return 1
    if k == 1:
        return sum(ref_kreweras(n - 1, j) for j in range(1, n))
    if k == 2:
        return 2 * ref_kreweras(n, 1) - ref_kreweras(n - 1, 1)
    return (
        2 * ref_kreweras(n, k - 1)
        - ref_kreweras(n, k - 2)
        - ref_kreweras(n - 1, k - 1)
        - ref_kreweras(n - 1, k - 2)
    )


def test_seidel_first_rows_frozen():
    expected = [
        (1,),
        (1,),
        (1, 1),
        (2, 1),
        (2, 3, 3),
        (8, 6, 3),
        (8, 14, 17, 17),
        (56, 48, 34, 17),
    ]
    assert [tri.seidel_row(i) for i in range(1, 9)] == expected


def test_seidel_matches_reference():
    for i in range(1, 41):
        width = (i + 1) // 2
        assert tri.seidel_row(i) == tuple(ref_seidel(i, j) for j in range(1, width + 1))


def test_sequences_match_the_reference_borders():
    # the sequences read a border stream of their own, not the row table
    for n in range(1, 61):
        assert tri.genocchi(n) == ref_seidel(2 * n - 1, n), n
        assert tri.median_genocchi(n) == ref_seidel(2 * n + 2, 1), n


def test_seidel_entry_outside_support_is_zero():
    assert tri.seidel_entry(5, 4) == 0
    assert tri.seidel_entry(6, 4) == 0
    assert tri.seidel_entry(3, 0) == 0
    with pytest.raises(ValueError):
        tri.seidel_entry(0, 1)


def test_genocchi_sequence_frozen():
    assert [tri.genocchi(n) for n in range(1, 7)] == [1, 1, 3, 17, 155, 2073]


def test_median_sequence_frozen():
    assert [tri.median_genocchi(n) for n in range(5)] == [1, 2, 8, 56, 608]
    assert tri.median_genocchi(5) == 9440


def test_normalized_sequence_frozen():
    assert [tri.normalized_genocchi(n) for n in range(7)] == [1, 1, 2, 7, 38, 295, 3098]


def test_sequence_domain_errors():
    with pytest.raises(ValueError):
        tri.genocchi(0)
    with pytest.raises(ValueError):
        tri.median_genocchi(-1)
    with pytest.raises(ValueError):
        tri.normalized_genocchi(-1)


def test_kreweras_first_rows_frozen():
    expected = [
        (1,),
        (1, 1),
        (2, 3, 2),
        (7, 12, 12, 7),
        (38, 69, 81, 69, 38),
        (295, 552, 702, 702, 552, 295),
    ]
    assert [tri.kreweras_row(n) for n in range(1, 7)] == expected


def test_kreweras_matches_reference():
    for n in range(1, 31):
        assert tri.kreweras_row(n) == tuple(ref_kreweras(n, k) for k in range(1, n + 1))


def test_kreweras_entry_bounds():
    assert tri.kreweras(4, 2) == 12
    with pytest.raises(ValueError):
        tri.kreweras(4, 0)
    with pytest.raises(ValueError):
        tri.kreweras(4, 5)


def test_row_symmetry_up_to_60():
    for n in range(1, 61):
        row = tri.kreweras_row(n)
        assert row == row[::-1]


def test_border_equals_previous_row_sum():
    for n in range(2, 61):
        row = tri.kreweras_row(n)
        assert row[0] == tri.normalized_genocchi(n - 1)
        assert row[-1] == tri.normalized_genocchi(n - 1)
        assert sum(row) == tri.normalized_genocchi(n)


def test_difference_identity_up_to_60():
    # h(n,k) - h(n,k-1), with h(n,0) = 0, telescopes over row n-1
    for n in range(2, 61):
        row, prev = tri.kreweras_row(n), tri.kreweras_row(n - 1)
        padded = (0,) + row
        for k in range(1, n + 1):
            high = sum(prev[k - 1 : n - 1])
            low = sum(prev[0 : max(0, k - 2)])
            assert padded[k] - padded[k - 1] == high - low, (n, k)


def test_median_divisibility_up_to_200():
    for n in range(201):
        assert tri.median_genocchi(n) % (1 << n) == 0, n


def test_big_values_are_exact():
    # the reference recursion agrees far beyond machine-int range
    assert tri.normalized_genocchi(40) == ref_kreweras(41, 1)
    assert tri.median_genocchi(30) == tri.normalized_genocchi(30) << 30


def test_fresh_tables_are_deterministic():
    assert tri.SeidelTriangle().row(33) == tri.seidel_row(33)
    assert tri.KrewerasTriangle().row(27) == tri.kreweras_row(27)


def test_concurrent_row_requests_agree():
    table = tri.KrewerasTriangle()
    results = [None] * 8
    def worker(slot):
        results[slot] = table.row(45)
    threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == tri.kreweras_row(45) for r in results)


class _Alarm(Exception):
    pass


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")
@pytest.mark.parametrize("table,far", [(tri.KrewerasTriangle, 3000), (tri.SeidelTriangle, 6000)])
def test_an_interrupted_row_leaves_the_table_able_to_resume(table, far):
    # the alarm lands in a step that blocks once, after a few dozen rows, so
    # the rows stay small and the interrupt does not wait on a big-int sum
    def ring(signum, frame):
        raise _Alarm

    fresh = table()
    step, blocked = fresh._step, []

    def blocking(row, i):
        out = step(row, i)
        if i == 40 and not blocked:  # row 41 is made, and not stored
            blocked.append(i)
            time.sleep(10)
        return out

    fresh._step = blocking
    old = signal.signal(signal.SIGALRM, ring)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.2)
        with pytest.raises(_Alarm):
            fresh.row(far)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    stored = len(fresh._rows)
    assert 1 < stored < far
    # a row past the one the interrupt cut short, equal to an uninterrupted table's
    assert fresh.row(stored + 2) == table().row(stored + 2)


@given(st.integers(min_value=1, max_value=80))
def test_symmetry_property(n):
    row = tri.kreweras_row(n)
    assert row == row[::-1]


@given(st.integers(min_value=1, max_value=60), st.data())
def test_entry_matches_row(n, data):
    k = data.draw(st.integers(min_value=1, max_value=n))
    assert tri.kreweras(n, k) == tri.kreweras_row(n)[k - 1]
