"""Cross-model consistency suite.

Every counting statement in the package is checked from two independent
directions: the triangle recurrences on one side and exhaustive object
enumeration plus the structural maps on the other.  A full run covers

  * triangle identities (row symmetry, borders, row sums, the difference
    identity) and the 2^n divisibility of the median numbers,
  * per-order totals and per-statistic histograms of all five families
    against the Kreweras triangle,
  * serialization round-trips for every enumerated object,
  * the chain <-> settuple and chain <-> pair-tuple bijections with their
    statistic transport, including the closed-form cross-check,
  * the t and r involutions, the reduce/lift order bijections, and the
    permutation embedding,
  * the redundancy statistic against the statistic transported through
    phi_inverse, and the doubled pair count against median_genocchi,
  * the reference order-3 classification of all five families by (k, l).

Each order is one pass: the five cells are enumerated once, and each
object's statistics and map images are computed once and read by every
check that needs them; order n - 1 is kept for the reduce/lift checks.

Enumerators and maps build their objects without validating them (see
models).  The serialization round-trip validates every enumerated object
through parse before anything else reads it, and a cell holds only the
objects it accepts.  A map image counts as valid only as a member of its
target cell: a non-member image fails the check that guards its map, with
the source object as witness (reduce-lift names the first l = n object
that reduce and lift do not carry back to itself), and no statistic or map
is computed on it.

Failures never raise; they are collected as check records carrying a
replayable witness (a canonical serialization whenever an object is at
fault).  Reports serialize to stable JSON and to plain text.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import compress, permutations
from math import factorial

from . import maps, models, triangles
from .models import MODEL_NAMES

__all__ = [
    "Check",
    "ConsistencyReport",
    "SuiteReport",
    "count_matrix",
    "run_suite",
    "ORDER3_CELLS",
]

# Reference joint (k, l) classification of the seven order-3 objects of each
# family, keyed by model and cell.
ORDER3_CELLS: dict[str, dict[tuple[int, int], str]] = {
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


@dataclass(frozen=True)
class Check:
    """One named consistency check with its outcome and an optional witness."""

    name: str
    model: str  # a family name, "triangles", or "suite"
    n: int | None
    status: str  # "pass" or "fail"
    witness: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == "pass"


@dataclass
class ConsistencyReport:
    """Totals, histograms, and checks for one order n."""

    n: int
    totals: dict[str, int]
    k_hists: dict[str, tuple[int, ...]]
    l_hists: dict[str, tuple[int, ...]]
    triangle_row: tuple[int, ...]
    checks: list[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)


@dataclass
class SuiteReport:
    """Aggregate of per-order reports plus the order-independent checks."""

    max_n: int
    pairs_n: int | None
    reports: list[ConsistencyReport]
    triangle_checks: list[Check]

    @property
    def checks(self) -> list[Check]:
        out = list(self.triangle_checks)
        for report in self.reports:
            out.extend(report.checks)
        return out

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.ok]

    def to_records(self) -> list[dict]:
        """Flat JSON-ready records, one per (n, model) group."""
        groups: dict[tuple[int | None, str], list[Check]] = {}
        for check in self.checks:
            groups.setdefault((check.n, check.model), []).append(check)
        records = []
        order = {name: i for i, name in enumerate(MODEL_NAMES)}
        keys = sorted(groups, key=lambda g: (g[0] is not None, g[0] or 0, order.get(g[1], -1)))
        by_n = {report.n: report for report in self.reports}
        for n, model in keys:
            report = by_n.get(n)
            in_matrix = report is not None and model in report.totals
            records.append(
                {
                    "n": n,
                    "model": model,
                    "total": report.totals[model] if in_matrix else None,
                    "k_hist": list(report.k_hists[model]) if in_matrix else None,
                    "l_hist": list(report.l_hists[model]) if in_matrix else None,
                    "checks": [
                        {"name": c.name, "status": c.status, "witness": c.witness}
                        for c in groups[(n, model)]
                    ],
                }
            )
        return records

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_records(), sort_keys=True, indent=indent)

    def to_text(self) -> str:
        lines = []
        for report in self.reports:
            row = " ".join(str(v) for v in report.triangle_row)
            lines.append(f"n={report.n}  reference row: {row}")
            for model in MODEL_NAMES:
                lines.append(
                    f"  {model:8s} total={report.totals[model]}"
                    f"  k={tuple(report.k_hists[model])}  l={tuple(report.l_hists[model])}"
                )
        passed = sum(c.ok for c in self.checks)
        lines.append(f"checks: {passed} passed, {len(self.checks) - passed} failed")
        for c in self.failures():
            where = f" n={c.n}" if c.n is not None else ""
            witness = f"  witness: {c.witness}" if c.witness else ""
            lines.append(f"  FAIL {c.model}/{c.name}{where}{witness}")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# check construction helpers


def _check(out: list[Check], name: str, model: str, n: int | None, ok: bool,
           witness: str | None = None) -> None:
    out.append(Check(name, model, n, "pass" if ok else "fail", witness if not ok else None))


def _first_bad(objs, oks) -> str | None:
    """Serialization of the first object whose entry in oks (an iterable
    aligned with objs, read lazily) is false."""
    for obj, ok in zip(objs, oks):
        if not ok:
            return models.serialize(obj)
    return None


def _all_bad(objs, oks, cap: int = 8) -> str | None:
    bad = [models.serialize(obj) for obj, ok in zip(objs, oks) if not ok]
    if not bad:
        return None
    shown = " | ".join(bad[:cap])
    if len(bad) > cap:
        shown += f" | +{len(bad) - cap} more"
    return shown


class _Cell:
    """The enumerated objects of one (model, n) cell, each object's
    statistics, and each object's position in the cell.

    Map images are kept in lists aligned with `objs`, each image interned
    through the target cell, so a table holds no second copy of a cell.
    A table lookup or a statistic of a non-member is None, which no check
    accepts: membership stands in for the validation of a map image.
    """

    __slots__ = ("objs", "stats", "pos")

    def __init__(self, objs: list) -> None:
        self.objs = objs
        # one shared tuple per (k, l) value, not one per object
        shared: dict[tuple[int, int], tuple[int, int]] = {}
        self.stats = [shared.setdefault(kl, kl) for kl in map(models.statistics, objs)]
        self.pos = {o: i for i, o in enumerate(objs)}

    def intern(self, obj):
        """The cell's own instance equal to obj, or obj when it is no member."""
        i = self.pos.get(obj)
        return obj if i is None else self.objs[i]

    def images(self, fn, target: _Cell) -> list:
        """fn of every object of this cell, interned through target."""
        return [target.intern(fn(o)) for o in self.objs]

    def lookup(self, table: list, obj):
        """obj's entry in table (aligned with objs), or None when obj is no
        member."""
        i = self.pos.get(obj)
        return None if i is None else table[i]

    def statistics(self, obj) -> tuple[int, int] | None:
        return self.lookup(self.stats, obj)


# families that carry the t and r involutions and the reduce/lift maps
_INVOLUTIVE = ("pd2n", "dellac", "settuple")


def _histogram(values, n: int) -> tuple[int, ...]:
    """Counts of the values 1..n; a value outside that range is counted
    nowhere, so the histogram check that reads it fails."""
    out = [0] * n
    for v in values:
        if 1 <= v <= n:
            out[v - 1] += 1
    return tuple(out)


def _matrix_report(n: int, stats: dict[str, list[tuple[int, int]]]) -> ConsistencyReport:
    row = triangles.kreweras_row(n)
    expected = triangles.normalized_genocchi(n)
    report = ConsistencyReport(
        n=n,
        totals={m: len(kl) for m, kl in stats.items()},
        k_hists={m: _histogram((k for k, _ in kl), n) for m, kl in stats.items()},
        l_hists={m: _histogram((l for _, l in kl), n) for m, kl in stats.items()},
        triangle_row=row,
    )
    for model in MODEL_NAMES:
        _check(report.checks, "total", model, n, report.totals[model] == expected,
               f"expected {expected}, got {report.totals[model]}")
        _check(report.checks, "k-histogram", model, n, report.k_hists[model] == row,
               f"expected {row}, got {report.k_hists[model]}")
        _check(report.checks, "l-histogram", model, n, report.l_hists[model] == row,
               f"expected {row}, got {report.l_hists[model]}")
    return report


def count_matrix(n: int, *,
                 limit: int | None = models.DEFAULT_ENUMERATION_LIMIT) -> ConsistencyReport:
    """Totals and (k, l) histograms of all five families at order n, each
    compared against row n of the Kreweras triangle.  An order beyond
    `limit` raises ResourceGuardError."""
    return _matrix_report(n, {
        m: [models.statistics(o) for o in models.enumerate_model(m, n, limit)]
        for m in MODEL_NAMES
    })


# ---------------------------------------------------------------------------
# per-order deep checks


def _parses_to(model: str, text: str, obj) -> bool:
    try:
        return models.parse(model, text) == obj
    except models.ModelError:
        return False


def _roundtrip(model: str, objs: list) -> tuple[list, str | None, bool]:
    """The enumerated objects whose text parses back to them, the first
    text that does not, and whether the texts are in canonical order.

    parse validates, so this is the one validation of each enumerated
    object.  Only the objects it accepts make up the cell, before any
    statistic or map is computed, so an invalid one fails the round-trip
    (and the total) instead of raising."""
    texts = [models.serialize(o) for o in objs]
    oks = [_parses_to(model, text, o) for o, text in zip(objs, texts)]
    bad = next((text for text, ok in zip(texts, oks) if not ok), None)
    return list(compress(objs, oks)), bad, texts == sorted(texts)


def _serialization_checks(report: ConsistencyReport,
                          roundtrips: dict[str, tuple[list, str | None, bool]]) -> None:
    n = report.n
    for model, (_, bad, ordered) in roundtrips.items():
        _check(report.checks, "serialization-roundtrip", model, n, bad is None, bad)
        _check(report.checks, "canonical-order", model, n, ordered,
               "enumeration is not sorted by serialization")


def _settuple_checks(report: ConsistencyReport, cells: dict[str, _Cell]) -> None:
    def structure(s) -> bool:
        first, last = s.sets[0], s.sets[-1]
        ones = sum(1 in part for part in s.sets)
        tops = sum(s.n in part for part in s.sets)
        return len(first) == 1 and len(last) == 1 and ones == 1 and tops == 1

    settuples = cells["settuple"].objs
    bad = _first_bad(settuples, map(structure, settuples))
    _check(report.checks, "endpoint-structure", "settuple", report.n, bad is None, bad)


def _hetyei_checks(report: ConsistencyReport, cells: dict[str, _Cell]) -> None:
    n = report.n
    hetyeis = cells["hetyei"]

    def redundancy_shape(m, stats: tuple[int, int]) -> bool:
        chain = models.redundancy_chain(m)
        red = models.redundant_positions(m)
        return bool(red) and chain[-1] in red and stats[0] == n + 1 - max(red)

    bad = _first_bad(hetyeis.objs, map(redundancy_shape, hetyeis.objs, hetyeis.stats))
    _check(report.checks, "redundancy-structure", "hetyei", n, bad is None, bad)

    total = len(hetyeis.objs)
    doubled = (1 << n) * total
    expected = triangles.median_genocchi(n)
    _check(report.checks, "orbit-doubling", "hetyei", n, doubled == expected,
           f"2^{n} * {total} = {doubled}, expected {expected}")


def _bijection_checks(report: ConsistencyReport, cells: dict[str, _Cell]) -> None:
    n = report.n
    chains, settuples, hetyeis = cells["chain"], cells["settuple"], cells["hetyei"]

    to_settuple = chains.images(maps.chain_to_settuple, settuples)
    to_chain = settuples.images(maps.settuple_to_chain, chains)
    bad = _first_bad(chains.objs, (
        settuples.lookup(to_chain, s) == c
        for c, s in zip(chains.objs, to_settuple)
    ))
    _check(report.checks, "chain-settuple-roundtrip", "settuple", n, bad is None, bad)
    bad = _first_bad(settuples.objs, (
        chains.lookup(to_settuple, c) == s
        for s, c in zip(settuples.objs, to_chain)
    ))
    _check(report.checks, "settuple-chain-roundtrip", "settuple", n, bad is None, bad)
    bad = _first_bad(settuples.objs, (
        maps.closed_form_chain(s) == c for s, c in zip(settuples.objs, to_chain)
    ))
    _check(report.checks, "chain-closed-form", "settuple", n, bad is None, bad)
    bad = _first_bad(chains.objs, (
        settuples.statistics(s) == stats for s, stats in zip(to_settuple, chains.stats)
    ))
    _check(report.checks, "chain-settuple-statistics", "settuple", n, bad is None, bad)

    to_pairs = chains.images(maps.phi, hetyeis)
    images: set = set()
    collision = None
    for c, m in zip(chains.objs, to_pairs):
        if m in images:
            collision = models.serialize(c)
            break
        images.add(m)
    _check(report.checks, "phi-injective", "hetyei", n, collision is None, collision)
    _check(report.checks, "phi-image", "hetyei", n, images == hetyeis.pos.keys(),
           "phi image differs from the enumerated pair tuples")
    from_pairs = hetyeis.images(maps.phi_inverse, chains)
    bad = _first_bad(chains.objs, (
        hetyeis.lookup(from_pairs, m) == c
        for c, m in zip(chains.objs, to_pairs)
    ))
    _check(report.checks, "phi-roundtrip", "hetyei", n, bad is None, bad)
    bad = _first_bad(hetyeis.objs, (
        chains.lookup(to_pairs, c) == m for m, c in zip(hetyeis.objs, from_pairs)
    ))
    _check(report.checks, "phi-inverse-roundtrip", "hetyei", n, bad is None, bad)
    bad = _first_bad(chains.objs, (
        hetyeis.statistics(m) == stats for m, stats in zip(to_pairs, chains.stats)
    ))
    _check(report.checks, "phi-statistics", "hetyei", n, bad is None, bad)
    bad = _all_bad(hetyeis.objs, (
        stats == chains.statistics(c) for stats, c in zip(hetyeis.stats, from_pairs)
    ))
    _check(report.checks, "redundancy-transport", "hetyei", n, bad is None, bad)


def _involution_checks(report: ConsistencyReport, cells: dict[str, _Cell]) -> None:
    n = report.n
    for model in _INVOLUTIVE:
        cell = cells[model]
        t = cell.images(maps.involution_t, cell)
        r = cell.images(maps.involution_r, cell)

        def t_ok(o, stats: tuple[int, int], image) -> bool:
            k, l = stats
            j = cell.pos.get(image)
            if j is None or t[j] != o or cell.stats[j] != (l, k):
                return False
            return k != l or image == o

        def r_ok(o, stats: tuple[int, int], image) -> bool:
            k, l = stats
            j = cell.pos.get(image)
            return j is not None and r[j] == o and cell.stats[j] == (n + 1 - l, n + 1 - k)

        bad = _first_bad(cell.objs, map(t_ok, cell.objs, cell.stats, t))
        _check(report.checks, "involution-t", model, n, bad is None, bad)
        bad = _first_bad(cell.objs, map(r_ok, cell.objs, cell.stats, r))
        _check(report.checks, "involution-r", model, n, bad is None, bad)


def _reduction_checks(report: ConsistencyReport, cells: dict[str, _Cell],
                      below: dict[str, _Cell]) -> None:
    """reduce/lift between the l = n objects of each cell and `below`, the
    cells of order n - 1 from the previous order's round."""
    n = report.n
    if n < 2:
        return
    smaller = triangles.normalized_genocchi(n - 1)
    for model in _INVOLUTIVE:
        cell, lower = cells[model], below[model]
        primed = [o for o, (_, l) in zip(cell.objs, cell.stats) if l == n]
        if len(primed) != smaller:
            witness = models.serialize(primed[0]) if primed else "no primed objects"
        else:
            # lift(reduce(o)) == o for every primed o makes reduce injective,
            # so with the counts equal a bijection onto the cell below, which
            # gives reduce(lift(b)) == b for every b below too
            lifted = lower.images(maps.lift, cell)
            witness = _first_bad(primed, (
                lower.lookup(lifted, maps.reduce(o)) == o for o in primed
            ))
        _check(report.checks, "reduce-lift", model, n, witness is None, witness)


def _embedding_checks(report: ConsistencyReport, cells: dict[str, _Cell]) -> None:
    n = report.n
    images = {maps.embed_permutation(word) for word in permutations(range(1, n + 1))}
    singletons = {
        s for s in cells["settuple"].objs if all(len(part) == 1 for part in s.sets)
    }
    ok = len(images) == factorial(n) and images == singletons
    _check(report.checks, "permutation-embedding", "settuple", n, ok,
           f"expected {factorial(n)} singleton tuples, got {len(singletons)}")


def _order3_checks(report: ConsistencyReport, cells: dict[str, _Cell]) -> None:
    for model, reference in ORDER3_CELLS.items():
        cell = cells[model]
        placed = {stats: models.serialize(o) for o, stats in zip(cell.objs, cell.stats)}
        ok = placed == reference and len(cell.objs) == len(reference)
        witness = None
        if not ok:
            diffs = set(placed.items()) ^ set(reference.items())
            witness = "; ".join(f"{kl}: {text}" for kl, text in sorted(diffs))
        _check(report.checks, "order3-reference-cells", model, 3, ok, witness)


def _pair_count_check(report: ConsistencyReport) -> None:
    # run_suite's pairs_n is this count's bound, so no guard applies here
    n = report.n
    got = models.hetyei_pair_count(n, limit=None)
    expected = triangles.median_genocchi(n)
    _check(report.checks, "pair-count", "hetyei", n, got == expected,
           f"expected {expected}, got {got}")


# ---------------------------------------------------------------------------
# order-independent triangle checks


# the ranges of the triangle sweeps, which take milliseconds
IDENTITY_N = 60
DIVISIBILITY_N = 200


def _triangle_checks() -> list[Check]:
    out: list[Check] = []

    def sweep(name: str, start: int, stop: int, predicate) -> None:
        witness = next(
            (f"n={n}" for n in range(start, stop + 1) if not predicate(n)), None
        )
        _check(out, name, "triangles", None, witness is None, witness)

    def symmetric(n: int) -> bool:
        row = triangles.kreweras_row(n)
        return row == row[::-1]

    def borders(n: int) -> bool:
        row = triangles.kreweras_row(n)
        h = triangles.normalized_genocchi(n - 1)
        return row[0] == h and row[-1] == h

    def row_sum(n: int) -> bool:
        return sum(triangles.kreweras_row(n)) == triangles.normalized_genocchi(n)

    def difference(n: int) -> bool:
        row, prev = triangles.kreweras_row(n), triangles.kreweras_row(n - 1)
        padded = (0,) + row
        for k in range(1, n + 1):
            high = sum(prev[k - 1 : n - 1])
            low = sum(prev[0 : max(0, k - 2)])
            if padded[k] - padded[k - 1] != high - low:
                return False
        return True

    def divisible(n: int) -> bool:
        return triangles.median_genocchi(n) % (1 << n) == 0

    sweep("kreweras-symmetry", 1, IDENTITY_N, symmetric)
    sweep("kreweras-borders", 2, IDENTITY_N, borders)
    sweep("kreweras-row-sums", 1, IDENTITY_N, row_sum)
    sweep("kreweras-difference-identity", 2, IDENTITY_N, difference)
    sweep("median-divisibility", 0, DIVISIBILITY_N, divisible)

    fresh_s, fresh_k = triangles.SeidelTriangle(), triangles.KrewerasTriangle()
    stable = all(
        fresh_s.row(i) == triangles.seidel_row(i) for i in range(1, 25)
    ) and all(fresh_k.row(nn) == triangles.kreweras_row(nn) for nn in range(1, 25))
    _check(out, "determinism", "triangles", None, stable,
           "fresh tables disagree with memoized tables")
    return out


# ---------------------------------------------------------------------------
# the suite


def run_suite(max_n: int = 6, pairs_n: int | None = 4, *,
              limit: int | None = models.DEFAULT_ENUMERATION_LIMIT) -> SuiteReport:
    """Run every consistency check up to order max_n.

    pairs_n bounds the independent coordinate-pair count (None skips it)
    and is its own guard: `limit` does not apply to it.  The triangle
    identities always run over their full ranges (IDENTITY_N and
    DIVISIBILITY_N), which are cheap.  The run is serial and the report
    deterministic.  Invariant violations are reported, not raised.  An
    order beyond `limit` raises ResourceGuardError before any work starts.
    """
    models.check_enumeration_guard(max_n, limit)
    reports = []
    below: dict[str, _Cell] = {}
    for n in range(1, max_n + 1):
        roundtrips = {m: _roundtrip(m, list(models.enumerate_model(m, n, limit)))
                      for m in MODEL_NAMES}
        cells = {m: _Cell(valid) for m, (valid, _, _) in roundtrips.items()}
        report = _matrix_report(n, {m: cell.stats for m, cell in cells.items()})
        _serialization_checks(report, roundtrips)
        _settuple_checks(report, cells)
        _hetyei_checks(report, cells)
        _bijection_checks(report, cells)
        _involution_checks(report, cells)
        _reduction_checks(report, cells, below)
        _embedding_checks(report, cells)
        if n == 3:
            _order3_checks(report, cells)
        if pairs_n is not None and n <= pairs_n:
            _pair_count_check(report)
        reports.append(report)
        below = {m: cells[m] for m in _INVOLUTIVE}
    return SuiteReport(
        max_n=max_n,
        pairs_n=pairs_n,
        reports=reports,
        triangle_checks=_triangle_checks(),
    )
