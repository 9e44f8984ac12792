"""Acceptance criteria, one test and one printed pass/fail line per criterion.

Run with -s (or read captured output) to see the timing lines.  Criteria
with stated time bounds assert them.  The cells frozen here are an
independent copy, deliberately not imported from the package's own fixture
table, so editing either one trips the comparison.
"""

from __future__ import annotations

import time
from itertools import permutations

import pytest

from conftest import cached_objects
from genocchi import maps, models, triangles


def criterion(num, started, ok, detail, bound=None):
    elapsed = time.perf_counter() - started
    in_time = bound is None or elapsed < bound
    status = "PASS" if (ok and in_time) else "FAIL"
    limit = f", bound {bound * 1000:.0f} ms" if bound is not None else ""
    print(f"criterion {num}: {status} ({elapsed * 1000:.1f} ms{limit}) {detail}")
    assert ok, f"criterion {num}: {detail}"
    assert in_time, f"criterion {num} exceeded {bound}s ({elapsed:.3f}s)"


REFERENCE_CELLS = {
    "pd2n": {
        (1, 2): "2 1 6 3 7 4 8 5",
        (1, 3): "2 1 4 3 6 5 8 7",
        (2, 1): "4 1 6 2 7 5 8 3",
        (2, 2): "4 1 6 2 7 3 8 5",
        (2, 3): "4 1 5 2 6 3 8 7",
        (3, 1): "6 1 4 2 7 5 8 3",
        (3, 2): "6 1 4 2 7 3 8 5",
    },
    "dellac": {
        (1, 2): "1 2 2 1 3 3",
        (1, 3): "1 2 3 1 2 3",
        (2, 1): "1 2 1 2 3 3",
        (2, 2): "1 1 2 2 3 3",
        (2, 3): "1 1 3 2 2 3",
        (3, 1): "1 2 1 3 2 3",
        (3, 2): "1 1 2 3 2 3",
    },
    "chain": {
        (1, 2): ";1;1,3;1,2,3",
        (1, 3): ";1;1,2;1,2,3",
        (2, 1): ";3;1,3;1,2,3",
        (2, 2): ";2;1,3;1,2,3",
        (2, 3): ";2;1,2;1,2,3",
        (3, 1): ";3;2,3;1,2,3",
        (3, 2): ";2;2,3;1,2,3",
    },
    "settuple": {
        (1, 2): "1;3;2",
        (1, 3): "1;2;3",
        (2, 1): "3;1;2",
        (2, 2): "2;1,3;2",
        (2, 3): "2;1;3",
        (3, 1): "3;2;1",
        (3, 2): "2;3;1",
    },
    "hetyei": {
        (1, 2): "1,1;1,2;3,3",
        (1, 3): "1,1;2,2;3,3",
        (2, 1): "1,1;1,2;1,3",
        (2, 2): "1,1;1,2;2,3",
        (2, 3): "1,1;2,2;2,3",
        (3, 1): "1,1;2,2;1,3",
        (3, 2): "1,1;1,1;2,3",
    },
}


def test_criterion_01_sequences():
    t0 = time.perf_counter()
    ok = (
        [triangles.genocchi(n) for n in range(1, 7)] == [1, 1, 3, 17, 155, 2073]
        and [triangles.median_genocchi(n) for n in range(5)] == [1, 2, 8, 56, 608]
        and [triangles.normalized_genocchi(n) for n in range(6)]
        == [1, 1, 2, 7, 38, 295]
    )
    criterion(1, t0, ok, "three sequences, exact equality", bound=0.001)


def test_criterion_02_triangle_rows_and_identities():
    t0 = time.perf_counter()
    reference_rows = [
        (1,),
        (1, 1),
        (2, 3, 2),
        (7, 12, 12, 7),
        (38, 69, 81, 69, 38),
        (295, 552, 702, 702, 552, 295),
    ]
    ok = [triangles.kreweras_row(n) for n in range(1, 7)] == reference_rows
    for n in range(1, 61):
        row = triangles.kreweras_row(n)
        ok = ok and row == row[::-1]
        ok = ok and sum(row) == triangles.normalized_genocchi(n)
        if n >= 2:
            prev = triangles.kreweras_row(n - 1)
            ok = ok and row[0] == row[-1] == triangles.normalized_genocchi(n - 1)
            padded = (0,) + row
            for k in range(1, n + 1):
                delta = sum(prev[k - 1 : n - 1]) - sum(prev[0 : max(0, k - 2)])
                ok = ok and padded[k] - padded[k - 1] == delta
    criterion(2, t0, ok, "rows 1..6 frozen; identities to n=60", bound=1.0)


def test_criterion_03_divisibility():
    t0 = time.perf_counter()
    ok = all(triangles.median_genocchi(n) % (1 << n) == 0 for n in range(201))
    criterion(3, t0, ok, "2^n divides the median number, n <= 200", bound=5.0)


def test_criterion_04_enumeration_totals():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 7):
        expected = triangles.normalized_genocchi(n)  # triangle oracle, no literals
        for model in models.MODEL_NAMES:
            got = sum(1 for _ in models.enumerate_model(model, n))
            ok = ok and got == expected
    criterion(4, t0, ok, "all five families count h_n for n <= 6", bound=60.0)


def test_criterion_05_partition_refinement():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 7):
        row = triangles.kreweras_row(n)
        for model in models.MODEL_NAMES:
            objs = cached_objects(model, n)
            for stat in (models.k_statistic, models.l_statistic):
                hist = [0] * n
                for o in objs:
                    hist[stat(o) - 1] += 1
                ok = ok and tuple(hist) == row
    for model, cells in REFERENCE_CELLS.items():
        placed = {
            models.statistics(o): models.serialize(o)
            for o in cached_objects(model, 3)
        }
        ok = ok and placed == cells
    criterion(5, t0, ok, "histograms equal triangle rows; order-3 cells match")


def test_criterion_06_bijections_and_transport():
    t0 = time.perf_counter()
    chain = models.parse("chain", ";3;1,3;1,3,4;1,2,3,5;1,2,3,4,5")
    image, pools = maps.phi_trace(chain)
    ok = models.serialize(image) == "1,1;1,2;2,2;3,4;3,5"
    ok = ok and pools == (
        (5, 4, 3, 2, 1),
        (5, 4, 1, 2),
        (5, 4, 2),
        (5, 2),
        (4,),
        (),
    )
    for n in range(1, 7):
        hetyei = set(cached_objects("hetyei", n))
        seen = set()
        for c in cached_objects("chain", n):
            s = maps.chain_to_settuple(c)
            m = maps.phi(c)
            seen.add(m)
            ok = ok and maps.settuple_to_chain(s) == c
            ok = ok and maps.phi_inverse(m) == c
            ok = ok and models.statistics(s) == models.statistics(m) == models.statistics(c)
        ok = ok and seen == hetyei
        for s in cached_objects("settuple", n):
            ok = ok and maps.chain_to_settuple(maps.settuple_to_chain(s)) == s
    criterion(6, t0, ok, "roundtrips and statistic transport, n <= 6; pools exact")


def test_criterion_07_involutions():
    t0 = time.perf_counter()
    ok = True
    for model in ("pd2n", "dellac", "settuple"):
        for n in range(1, 6):
            universe = set(cached_objects(model, n))
            for o in universe:
                k, l = models.statistics(o)
                t = maps.involution_t(o)
                r = maps.involution_r(o)
                ok = ok and t in universe and maps.involution_t(t) == o
                ok = ok and models.statistics(t) == (l, k)
                ok = ok and r in universe and maps.involution_r(r) == o
                ok = ok and models.statistics(r) == (n + 1 - l, n + 1 - k)
    criterion(7, t0, ok, "t and r self-inverse with exchanged statistics, n <= 5")


def test_criterion_08_reduction_bijection():
    t0 = time.perf_counter()
    ok = True
    for model in ("pd2n", "dellac", "settuple"):
        for n in range(2, 7):
            primed = [o for o in cached_objects(model, n)
                      if models.l_statistic(o) == n]
            reduced = [maps.reduce(o) for o in primed]
            ok = ok and len(primed) == triangles.normalized_genocchi(n - 1)
            ok = ok and set(reduced) == set(cached_objects(model, n - 1))
            ok = ok and all(maps.lift(r) == o for o, r in zip(primed, reduced))
    criterion(8, t0, ok, "reduce bijects the primed class onto order n-1, n <= 6")


def test_criterion_09_pair_count_and_orbits():
    t0 = time.perf_counter()
    ok = all(
        models.hetyei_pair_count(n) == triangles.median_genocchi(n)
        for n in range(1, 5)
    )
    for n in range(1, 7):
        doubled = (1 << n) * len(cached_objects("hetyei", n))
        ok = ok and doubled == triangles.median_genocchi(n)
    criterion(9, t0, ok, "pair count n <= 4 and orbit doubling n <= 6", bound=10.0)


def test_criterion_09_slow_pair_count_order_five():
    t0 = time.perf_counter()
    ok = models.hetyei_pair_count(5) == triangles.median_genocchi(5)
    criterion("9 (n=5)", t0, ok, "pair count equals the median number at n=5")


def test_criterion_10_redundancy_transport():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 7):
        for m in cached_objects("hetyei", n):
            ok = ok and models.statistics(m) == models.statistics(maps.phi_inverse(m))
    criterion(10, t0, ok, "corrected redundancy agrees with transported statistic, n <= 6")
