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

Each order is a table of stages (see _stages), each a check that reads one
or two cells of the order, or none.  A cell is built in one pass over its
listing for the first stage that reads it and dropped after the last, so
an order holds at most two of its cells at once: the order-3 reference
check, which reads all five, is the one exception, and the pd2n, dellac
and settuple cells of an order below max_n live on for the next order's
reduce/lift checks.  Each object's statistics and map images are computed
once and read by every check that needs them, and a report lists each
stage's checks in a fixed order, whatever the order the stages ran in.
Besides the checks, a cell leaves only its (k, l) table behind, for the
totals and histograms of its order.

phi and phi_inverse resume where their last call left off (see maps): phi
maps the chains in text order, and phi_inverse maps the Hetyei cell in the
order phi first reached its tuples, then any tuple phi missed, so that
neighbours share their last pairs.  Each result is stored at its tuple's
position, so no table and no witness depends on that order.

Enumerators and maps build their objects without validating them (see
models).  The serialization round-trip parses each object's text, as the
walk wrote it, back and compares the result with the object; parse
validates, so this checks every enumerated object before anything else
reads it, and a cell holds only the objects it accepts.  serialize writes
only the witnesses and the order-3 reference cells.  Each map's results
are a position table: for every object of the source cell, the position of
its image in the target cell, or None when the image is no member.
Membership is decided once, as the table is built, and the checks compare
positions and read the target cell's statistics at them.  No check accepts
None, so a non-member image fails the check that guards its map, with the
source object as witness (reduce-lift names the first l = n object that
reduce and lift do not carry back to itself), and no statistic or map is
computed on it.

Failures never raise; they are collected as check records carrying a
replayable witness (a canonical serialization whenever an object is at
fault).  Reports serialize to stable JSON and to plain text.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from itertools import permutations
from math import factorial

from . import maps, models, triangles
from .models import _INVOLUTIVE, MODEL_NAMES

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


def _check(name: str, model: str, n: int | None, ok: bool,
           witness: str | None = None) -> Check:
    return Check(name, model, n, "pass" if ok else "fail", witness if not ok else None)


def _witnessed(name: str, model: str, n: int | None, witness: str | None) -> Check:
    """A check that fails exactly when it has a witness."""
    return _check(name, model, n, witness is None, witness)


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
    """The enumerated objects of one (model, n) cell that round-trip, each
    object's statistics and position in the cell, the first text that does
    not round-trip, and whether the texts came in canonical order.

    Built in one pass over the cell's listing, by the first stage that
    reads it (see _stages), and dropped after the last.  Each object's text
    is parsed back, and parse validates, so this is the one validation of
    each enumerated object: only an object that its text parses back to
    joins the cell, before any statistic or map is computed on it, so an
    invalid one fails the round-trip (and the total) instead of raising.

    A map's results are a position table aligned with `objs` (see
    `positions`), so no image object outlives the table's construction.
    A non-member image has position None, which no check accepts:
    membership stands in for the validation of a map image.
    """

    __slots__ = ("objs", "stats", "pos", "bad", "ordered")

    def __init__(self, model: str, pairs) -> None:
        self.objs, self.stats, self.pos = objs, stats, pos = [], [], {}
        self.bad, self.ordered, previous = None, True, ""
        # one shared tuple per (k, l) value, not one per object
        shared: dict[tuple[int, int], tuple[int, int]] = {}
        for text, obj in pairs:
            self.ordered = self.ordered and previous <= text
            previous = text
            try:
                ok = models.parse(model, text) == obj
            except models.ModelError:
                ok = False
            if ok:
                kl = models.statistics(obj)
                pos[obj] = len(objs)
                objs.append(obj)
                stats.append(shared.setdefault(kl, kl))
            elif self.bad is None:
                self.bad = text

    def positions(self, fn, target: _Cell) -> list[int | None]:
        """The position in target of fn of each object, None for a non-member."""
        find = target.pos.get
        return [find(fn(o)) for o in self.objs]


def _matrix_report(n: int, tables: dict[str, dict[tuple[int, int], int]]) -> ConsistencyReport:
    """The report of order n from each family's joint (k, l) table.  A
    statistic outside 1..n is counted in the total and in no histogram, so
    the histogram check that reads it fails."""
    row = triangles.kreweras_row(n)
    expected = triangles.normalized_genocchi(n)
    report = ConsistencyReport(
        n=n,
        totals={m: sum(table.values()) for m, table in tables.items()},
        k_hists={m: tuple(models.marginal(table, 0, n)) for m, table in tables.items()},
        l_hists={m: tuple(models.marginal(table, 1, n)) for m, table in tables.items()},
        triangle_row=row,
    )
    for model in MODEL_NAMES:
        report.checks += [
            _check("total", model, n, report.totals[model] == expected,
                   f"expected {expected}, got {report.totals[model]}"),
            _check("k-histogram", model, n, report.k_hists[model] == row,
                   f"expected {row}, got {report.k_hists[model]}"),
            _check("l-histogram", model, n, report.l_hists[model] == row,
                   f"expected {row}, got {report.l_hists[model]}"),
        ]
    return report


def count_matrix(n: int, *,
                 limit: int | None = models.DEFAULT_ENUMERATION_LIMIT) -> ConsistencyReport:
    """Totals and (k, l) histograms of all five families at order n, read
    off their statistics tables and each compared against row n of the
    Kreweras triangle.  An order beyond `limit` raises ResourceGuardError."""
    return _matrix_report(n, {m: models.statistics_table(m, n, limit) for m in MODEL_NAMES})


# ---------------------------------------------------------------------------
# per-order deep checks: each takes the order and the cells it reads, and
# returns its checks


def _serialization_checks(model: str, n: int, cell: _Cell) -> list[Check]:
    return [
        _witnessed("serialization-roundtrip", model, n, cell.bad),
        _check("canonical-order", model, n, cell.ordered,
               "enumeration is not sorted by serialization"),
    ]


def _settuple_checks(n: int, settuples: _Cell) -> list[Check]:
    def structure(s) -> bool:
        first, last = s.sets[0], s.sets[-1]
        ones = sum(1 in part for part in s.sets)
        tops = sum(s.n in part for part in s.sets)
        return len(first) == 1 and len(last) == 1 and ones == 1 and tops == 1

    bad = _first_bad(settuples.objs, map(structure, settuples.objs))
    return [_witnessed("endpoint-structure", "settuple", n, bad)]


def _hetyei_checks(n: int, hetyeis: _Cell) -> list[Check]:
    def redundancy_shape(m, stats: tuple[int, int]) -> bool:
        chain = models.redundancy_chain(m)
        red = models.redundant_positions(m)
        return bool(red) and chain[-1] in red and stats[0] == n + 1 - max(red)

    bad = _first_bad(hetyeis.objs, map(redundancy_shape, hetyeis.objs, hetyeis.stats))
    total = len(hetyeis.objs)
    doubled = (1 << n) * total
    expected = triangles.median_genocchi(n)
    return [
        _witnessed("redundancy-structure", "hetyei", n, bad),
        _check("orbit-doubling", "hetyei", n, doubled == expected,
               f"2^{n} * {total} = {doubled}, expected {expected}"),
    ]


def _returns(pairs, back: list):
    """For each pair (i, j) of a position and its image's position, whether
    back carries j back to i."""
    return (j is not None and back[j] == i for i, j in pairs)


def _keeps(there: list, target: _Cell, stats: list):
    """For each position i, whether the member of target at there[i] has the
    statistics stats[i]."""
    return (j is not None and target.stats[j] == kl for j, kl in zip(there, stats))


def _chain_settuple_checks(n: int, chains: _Cell, settuples: _Cell) -> list[Check]:
    to_settuple = chains.positions(maps.chain_to_settuple, settuples)
    to_chain = settuples.positions(maps.settuple_to_chain, chains)
    closed_form = (j is not None and maps.closed_form_chain(s) == chains.objs[j]
                   for s, j in zip(settuples.objs, to_chain))
    return [
        _witnessed("chain-settuple-roundtrip", "settuple", n,
                   _first_bad(chains.objs, _returns(enumerate(to_settuple), to_chain))),
        _witnessed("settuple-chain-roundtrip", "settuple", n,
                   _first_bad(settuples.objs, _returns(enumerate(to_chain), to_settuple))),
        _witnessed("chain-closed-form", "settuple", n, _first_bad(settuples.objs, closed_form)),
        _witnessed("chain-settuple-statistics", "settuple", n,
                   _first_bad(chains.objs, _keeps(to_settuple, settuples, chains.stats))),
    ]


def _phi_checks(n: int, chains: _Cell, hetyeis: _Cell) -> list[Check]:
    to_pairs = chains.positions(maps.phi, hetyeis)
    # the positions in the order phi first reached them, and the first chain
    # sent to a position an earlier chain reached: a collision
    reached = bytearray(len(hetyeis.objs))
    order: list[int] = []
    collision = None
    for i, j in enumerate(to_pairs):
        if j is None:
            continue
        if not reached[j]:
            reached[j] = 1
            order.append(j)
        elif collision is None:
            collision = i
    out = [
        _witnessed("phi-injective", "hetyei", n,
                   None if collision is None else models.serialize(chains.objs[collision])),
        # positions lie below len(reached), so that many distinct ones cover the cell
        _check("phi-image", "hetyei", n, None not in to_pairs and len(order) == len(reached),
               "phi image differs from the enumerated pair tuples"),
    ]
    # phi_inverse resumes after the pairs its last tuple ends in, and the
    # images of neighbouring chains share their last pairs: map the tuples
    # in the order phi first reached them, then those it missed, and keep
    # each result at its tuple's position
    order += [j for j, seen in enumerate(reached) if not seen]
    from_pairs: list[int | None] = [None] * len(order)
    find = chains.pos.get
    for j in order:
        from_pairs[j] = find(maps.phi_inverse(hetyeis.objs[j]))
    return out + [
        _witnessed("phi-roundtrip", "hetyei", n,
                   _first_bad(chains.objs, _returns(enumerate(to_pairs), from_pairs))),
        _witnessed("phi-inverse-roundtrip", "hetyei", n,
                   _first_bad(hetyeis.objs, _returns(enumerate(from_pairs), to_pairs))),
        _witnessed("phi-statistics", "hetyei", n,
                   _first_bad(chains.objs, _keeps(to_pairs, hetyeis, chains.stats))),
        _witnessed("redundancy-transport", "hetyei", n,
                   _all_bad(hetyeis.objs, _keeps(from_pairs, chains, hetyeis.stats))),
    ]


def _involution_checks(model: str, n: int, cell: _Cell) -> list[Check]:
    t = cell.positions(maps.involution_t, cell)
    r = cell.positions(maps.involution_r, cell)

    def t_ok(i: int) -> bool:
        j, (k, l) = t[i], cell.stats[i]
        if j is None or t[j] != i or cell.stats[j] != (l, k):
            return False
        return k != l or j == i

    def r_ok(i: int) -> bool:
        j, (k, l) = r[i], cell.stats[i]
        return j is not None and r[j] == i and cell.stats[j] == (n + 1 - l, n + 1 - k)

    return [
        _witnessed("involution-t", model, n, _first_bad(cell.objs, map(t_ok, range(len(t))))),
        _witnessed("involution-r", model, n, _first_bad(cell.objs, map(r_ok, range(len(r))))),
    ]


def _reduction_checks(model: str, n: int, cell: _Cell, lower: _Cell) -> list[Check]:
    """reduce/lift between the l = n objects of the family's order-n cell
    and `lower`, its order n - 1 cell, which outlives its own order for
    this check when that order is below max_n."""
    primed = [i for i, (_, l) in enumerate(cell.stats) if l == n]
    objs = [cell.objs[i] for i in primed]
    if len(primed) != triangles.normalized_genocchi(n - 1):
        witness = models.serialize(objs[0]) if primed else "no primed objects"
    else:
        # lift(reduce(o)) == o for every primed o makes reduce injective,
        # so with the counts equal a bijection onto the cell below, which
        # gives reduce(lift(b)) == b for every b below too
        reduced = (lower.pos.get(maps.reduce(o)) for o in objs)
        lifted = lower.positions(maps.lift, cell)
        witness = _first_bad(objs, _returns(zip(primed, reduced), lifted))
    return [_witnessed("reduce-lift", model, n, witness)]


def _embedding_checks(n: int, settuples: _Cell) -> list[Check]:
    images = {maps.embed_permutation(word) for word in permutations(range(1, n + 1))}
    singletons = [s for s in settuples.objs if all(len(part) == 1 for part in s.sets)]
    if len(singletons) != factorial(n):
        witness = f"expected {factorial(n)} singleton tuples, got {len(singletons)}"
    else:
        # n! images cover n! singletons exactly when none is missed
        witness = next((models.serialize(s) for s in singletons if s not in images), None)
    return [_witnessed("permutation-embedding", "settuple", n, witness)]


def _order3_checks(*cells: _Cell) -> list[Check]:
    """The order-3 cells, one for each family of ORDER3_CELLS in its order,
    against their reference classification."""
    out = []
    for (model, reference), cell in zip(ORDER3_CELLS.items(), cells):
        placed = {stats: models.serialize(o) for o, stats in zip(cell.objs, cell.stats)}
        ok = placed == reference and len(cell.objs) == len(reference)
        witness = None
        if not ok:
            diffs = set(placed.items()) ^ set(reference.items())
            witness = "; ".join(f"{kl}: {text}" for kl, text in sorted(diffs))
        out.append(_check("order3-reference-cells", model, 3, ok, witness))
    return out


def _pair_count_check(n: int) -> list[Check]:
    got = models.hetyei_pair_count(n)
    expected = triangles.median_genocchi(n)
    return [_check("pair-count", "hetyei", n, got == expected, f"expected {expected}, got {got}")]


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
        out.append(_witnessed(name, "triangles", None, witness))

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
    out.append(_check("determinism", "triangles", None, stable,
                      "fresh tables disagree with memoized tables"))
    return out


# ---------------------------------------------------------------------------
# the suite


def _stages(n: int, pairs_n: int | None) -> list[tuple]:
    """The stages of order n in the order they run, each (name, the cells
    it reads, fn): a cell is named (model, order), and fn takes the cells
    it reads, in that order, and returns its checks.

    run_suite builds a cell for the first stage that reads it, each
    family's "cell" stage, which checks its serialization, and drops it
    after the last.  No stage reads more than two cells of order n, and
    this order of the stages keeps at most two of them alive at once: pd2n
    and dellac are each done before the next cell is built, settuple lives
    until chain is checked against it, and chain until phi.  Only the
    order-3 reference check reads all five cells, and reduce-lift reads
    its family's order n - 1 cell, which so outlives its own order."""
    stages: list[tuple] = []
    for model in _INVOLUTIVE:
        cell = (model, n)
        stages += [
            (f"{model} cell", (cell,), partial(_serialization_checks, model, n)),
            (f"{model} involutions", (cell,), partial(_involution_checks, model, n)),
        ]
        if n > 1:
            stages.append((f"{model} reduce-lift", (cell, (model, n - 1)),
                           partial(_reduction_checks, model, n)))
    settuple, chain, hetyei = ("settuple", n), ("chain", n), ("hetyei", n)
    stages += [
        ("settuple structure", (settuple,), partial(_settuple_checks, n)),
        ("settuple embedding", (settuple,), partial(_embedding_checks, n)),
        ("chain cell", (chain,), partial(_serialization_checks, "chain", n)),
        ("chain-settuple", (chain, settuple), partial(_chain_settuple_checks, n)),
        ("hetyei cell", (hetyei,), partial(_serialization_checks, "hetyei", n)),
        ("hetyei", (hetyei,), partial(_hetyei_checks, n)),
        ("phi", (chain, hetyei), partial(_phi_checks, n)),
    ]
    if n == 3:
        stages.append(("order3", tuple((m, 3) for m in ORDER3_CELLS), _order3_checks))
    if pairs_n is not None and n <= pairs_n:
        stages.append(("pair-count", (), partial(_pair_count_check, n)))
    return stages


# The order in which a report lists the checks of the stages of its order,
# after the totals and histograms; every stage is named here.
_REPORT_ORDER = (
    *(f"{model} cell" for model in MODEL_NAMES),
    "settuple structure", "hetyei", "chain-settuple", "phi",
    *(f"{model} involutions" for model in _INVOLUTIVE),
    *(f"{model} reduce-lift" for model in _INVOLUTIVE),
    "settuple embedding", "order3", "pair-count",
)


def run_suite(max_n: int = 6, pairs_n: int | None = 4, *,
              limit: int | None = models.DEFAULT_ENUMERATION_LIMIT) -> SuiteReport:
    """Run every consistency check up to order max_n.

    The orders run one after another, each as the stages of _stages.  The
    independent coordinate-pair count runs at the orders
    n <= min(pairs_n, max_n) (pairs_n None skips it).  The triangle
    identities always run over their full ranges (IDENTITY_N and
    DIVISIBILITY_N), which are cheap.  The run is serial and the report
    deterministic.  Invariant violations are reported, not raised.  An
    order beyond `limit` raises ResourceGuardError, and a max_n or pairs_n
    that is not an int, or a max_n below 1, ValueError, before any work
    starts.
    """
    models.check_enumeration_guard(max_n, limit)
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    if pairs_n is not None:
        models._check_order(pairs_n, "pairs_n")
    orders = range(1, max_n + 1)
    stages = [(n, *stage) for n in orders for stage in _stages(n, pairs_n)]
    last = {cell: i for i, (_, _, reads, _) in enumerate(stages) for cell in reads}
    live: dict[tuple[str, int], _Cell] = {}
    # what outlives a cell: its (k, l) table, for the report of its order
    tables: dict[int, dict[str, Counter]] = {n: {} for n in orders}
    found: dict[int, dict[str, list[Check]]] = {n: {} for n in orders}
    for i, (n, name, reads, fn) in enumerate(stages):
        for cell in reads:
            if cell not in live:
                model, order = cell
                live[cell] = _Cell(model, models.listing(model, order, limit))
                tables[order][model] = Counter(live[cell].stats)
        found[n][name] = fn(*[live[cell] for cell in reads])
        for cell in reads:
            if last[cell] == i:
                del live[cell]
    reports = []
    for n in orders:
        report = _matrix_report(n, {m: tables[n][m] for m in MODEL_NAMES})
        for name in sorted(found[n], key=_REPORT_ORDER.index):
            report.checks += found[n][name]
        reports.append(report)
    return SuiteReport(
        max_n=max_n,
        pairs_n=pairs_n,
        reports=reports,
        triangle_checks=_triangle_checks(),
    )
