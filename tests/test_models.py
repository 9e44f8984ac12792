"""Model families checked against brute-force oracle enumerators.

Each oracle below restates the defining conditions of its family directly
over a raw product space, sharing nothing with the package's pruned
backtracking enumerators.  Agreement of the two on full object sets is the
main correctness evidence for the models module.
"""

from __future__ import annotations

import copy
import hashlib
import inspect
import pickle
import re
import subprocess
import sys
from collections import Counter
from functools import partial
from itertools import combinations, islice, permutations, product

import pytest
from hypothesis import given, strategies as st

from conftest import DATA_ATTRIBUTES, cached_objects, package_env, rebuilt
from genocchi import cli, maps, models, triangles
from genocchi.models import (
    DellacConfiguration,
    DumontPermutation,
    FeiginChain,
    HetyeiTuple,
    MODEL_NAMES,
    ModelError,
    ModelInvariantError,
    ModelSyntaxError,
    ResourceGuardError,
    SetTuple,
)
from genocchi.verify import ORDER3_CELLS, run_suite


# ---------------------------------------------------------------------------
# definitions and oracles
#
# Each predicate states its family's definition for any raw input, valid or
# not; each oracle filters a raw product space through it.


def is_ascending_subset(part, n):
    """Strictly ascending values in [n]."""
    return all(a < b for a, b in zip(part, part[1:])) and all(1 <= v <= n for v in part)


def is_pd2n(n, word):
    """A permutation of [2n+2] with an excedance at odd positions, a
    deficiency at even ones, and each odd value 2j+1 preceded by 2j."""
    m = 2 * n + 2
    if not all(v > i if i % 2 else v < i for i, v in enumerate(word, 1)):
        return False
    if sorted(word) != list(range(1, m + 1)):
        return False
    pos = {v: i for i, v in enumerate(word, 1)}
    return all(pos[v - 1] < pos[v] for v in range(3, m, 2))


def is_dellac(n, cols):
    """One dot per row inside the band c <= i <= c + n, two dots per column."""
    return (len(cols) == 2 * n
            and all(c <= i <= c + n for i, c in enumerate(cols, 1))
            and all(cols.count(c) == 2 for c in range(1, n + 1)))


def is_chain(n, subsets):
    """Subsets I_0 .. I_n of [n]: #I_i = i and I_{i-1} minus {i} contained in I_i."""
    return (len(subsets) == n + 1
            and all(is_ascending_subset(part, n) and len(part) == i
                    for i, part in enumerate(subsets))
            and all(set(subsets[i - 1]) - {i} <= set(subsets[i]) for i in range(1, n + 1)))


def is_settuple(n, sets):
    """Subsets S_1 .. S_n of [n] with #S_i = #S_i^{-1} in {1, 2}, double
    occurrences straddling their value."""
    if len(sets) != n or not all(is_ascending_subset(part, n) for part in sets):
        return False
    for i in range(1, n + 1):
        occ = [j for j, s in enumerate(sets, 1) if i in s]
        if len(occ) != len(sets[i - 1]) or len(occ) not in (1, 2):
            return False
        if len(occ) == 2 and not occ[0] < i < occ[1]:
            return False
    return True


def is_hetyei(n, pairs):
    """Pairs u_l <= v_l in [l] whose entries cover [n]."""
    return (len(pairs) == n
            and all(1 <= u <= v <= l for l, (u, v) in enumerate(pairs, 1))
            and {x for pair in pairs for x in pair} >= set(range(1, n + 1)))


def brute_pd2n(n):
    return (w for w in permutations(range(1, 2 * n + 3)) if is_pd2n(n, w))


def brute_dellac(n):
    bands = [range(max(1, i - n), min(n, i) + 1) for i in range(1, 2 * n + 1)]
    return (c for c in product(*bands) if is_dellac(n, c))


def brute_chains(n):
    levels = [combinations(range(1, n + 1), size) for size in range(n + 1)]
    return (t for t in product(*levels) if is_chain(n, t))


def brute_settuples(n):
    parts = [c for size in (1, 2) for c in combinations(range(1, n + 1), size)]
    return (t for t in product(parts, repeat=n) if is_settuple(n, t))


def brute_hetyei(n):
    slots = [
        [(u, v) for u in range(1, l + 1) for v in range(u, l + 1)]
        for l in range(1, n + 1)
    ]
    return (t for t in product(*slots) if is_hetyei(n, t))


ORACLES = {
    "pd2n": (brute_pd2n, lambda n, raw: DumontPermutation(n, raw)),
    "dellac": (brute_dellac, lambda n, raw: DellacConfiguration(n, raw)),
    "chain": (brute_chains, lambda n, raw: FeiginChain(n, raw)),
    "settuple": (brute_settuples, lambda n, raw: SetTuple(n, raw)),
    "hetyei": (brute_hetyei, lambda n, raw: HetyeiTuple(n, raw)),
}


# the 10! sweep for pd2n at n = 4 lives behind the slow marker below
ORACLE_CASES = [
    (model, n)
    for model in MODEL_NAMES
    for n in (1, 2, 3, 4)
    if not (model == "pd2n" and n == 4)
]


@pytest.mark.parametrize("model,n", ORACLE_CASES)
def test_enumeration_matches_oracle(model, n, objects):
    brute, build = ORACLES[model]
    expected = {build(n, raw) for raw in brute(n)}
    got = list(objects(model, n))
    assert len(got) == len(set(got)) == len(expected)
    assert set(got) == expected


@pytest.mark.parametrize("model", MODEL_NAMES)
def test_enumerated_objects_pass_the_public_constructor(model, objects):
    # the enumerators build their objects unvalidated
    for n in range(1, 6):
        for o in objects(model, n):
            again = rebuilt(o)
            assert again == o and hash(again) == hash(o), o


@pytest.mark.slow
def test_pd2n_order_4_matches_oracle(objects):
    brute, build = ORACLES["pd2n"]
    assert set(objects("pd2n", 4)) == {build(4, raw) for raw in brute(4)}


def _raw_inputs(model, n):
    """Raw components at order n, invalid ones included: words with
    repeated and out-of-range letters, columns and pair entries in
    0..n+1, and subsets out of order, repeated or out of range."""
    if model == "pd2n":
        m = 2 * n + 2
        if n == 1:
            return product(range(m + 2), repeat=m)
        return permutations(range(1, m + 1))
    if model == "dellac":
        return product(range(n + 2), repeat=2 * n)
    if model == "hetyei":
        return product(product(range(n + 2), repeat=2), repeat=n)
    parts = [c for size in range(n + 1) for c in combinations(range(1, n + 1), size)]
    parts += [(0,), (n + 1,), (2, 1), (1, 1), (3, 2, 1)]
    return product(parts, repeat=n + 1 if model == "chain" else n)


DEFINITIONS = {
    "pd2n": (is_pd2n, DumontPermutation),
    "dellac": (is_dellac, DellacConfiguration),
    "chain": (is_chain, FeiginChain),
    "settuple": (is_settuple, SetTuple),
    "hetyei": (is_hetyei, HetyeiTuple),
}


@pytest.mark.parametrize("model", MODEL_NAMES)
def test_constructor_accepts_exactly_the_definition(model):
    holds, cls = DEFINITIONS[model]
    for n in (1, 2, 3):
        for raw in _raw_inputs(model, n):
            try:
                cls(n, raw)
                accepted = True
            except ModelInvariantError:
                accepted = False
            assert accepted == holds(n, raw), (n, raw)


INVARIANT_MESSAGES = [
    (DumontPermutation, 0, (), "order must be >= 1, got 0"),
    (DumontPermutation, 1, (2, 1, 4), "word length must be 4 for order 1, got 3"),
    (DumontPermutation, 1, (2, 1, 4, 4), "word is not a permutation of 1..4"),
    (DumontPermutation, 1, (1, 2, 4, 3), "excedance condition fails: sigma(1) = 1 is not > 1"),
    (DumontPermutation, 1, (2, 3, 4, 1), "deficiency condition fails: sigma(2) = 3 is not < 2"),
    (DumontPermutation, 1, (3, 1, 4, 2), "normalization fails: value 2 appears after value 3"),
    (DellacConfiguration, 0, (), "order must be >= 1, got 0"),
    (DellacConfiguration, 1, (1,), "need 2 rows for order 1, got 1"),
    (DellacConfiguration, 1, (2, 1), "row 1 uses column 2, outside 1..1"),
    (DellacConfiguration, 2, (2, 1, 1, 2),
     "band condition fails: row 1 dot in column 2 needs 2 <= 1 <= 4"),
    (DellacConfiguration, 2, (1, 1, 1, 2), "column 1 holds 3 dots, expected 2"),
    (FeiginChain, 0, ((),), "order must be >= 1, got 0"),
    (FeiginChain, 1, ((),), "need 2 subsets for order 1, got 1"),
    (FeiginChain, 2, ((), (1,), (2, 1)), "subset 2 is not strictly ascending"),
    (FeiginChain, 2, ((), (3,), (1, 2)), "subset 1 has values outside 1..2"),
    (FeiginChain, 2, ((), (1, 2), (1, 2)), "subset 1 has size 2, expected 1"),
    (FeiginChain, 3, ((), (1,), (2, 3), (1, 2, 3)),
     "chain condition fails at step 2: only 2 may leave the previous subset"),
    (SetTuple, 0, (), "order must be >= 1, got 0"),
    (SetTuple, 2, ((1,),), "need 2 sets for order 2, got 1"),
    (SetTuple, 2, ((2, 1), (1,)), "set 1 is not strictly ascending"),
    (SetTuple, 2, ((1, 1), (2,)), "set 1 is not strictly ascending"),
    (SetTuple, 3, ((3, 2, 1), (1,), (2,)), "set 1 is not strictly ascending"),
    (SetTuple, 2, ((), (1,)), "set 1 has size 0, expected 1 or 2"),
    (SetTuple, 2, ((3,), (1,)), "set 1 has value 3 outside 1..2"),
    (SetTuple, 2, ((1,), (1,)), "value 1 occurs 2 times but #S_1 = 1"),
    (SetTuple, 2, ((1, 2), (1,)), "occurrences of value 1 at positions [1, 2] do not straddle 1"),
    (HetyeiTuple, 0, (), "order must be >= 1, got 0"),
    (HetyeiTuple, 2, ((1, 1),), "need 2 pairs for order 2, got 1"),
    (HetyeiTuple, 2, ((1, 1), (2, 1)), "pair 2 is not sorted: 2 > 1"),
    (HetyeiTuple, 2, ((1, 2), (1, 2)), "pair 1 = (1,2) has entries outside 1..1"),
    (HetyeiTuple, 2, ((1, 1), (1, 1)), "entries do not cover 1..2: missing [2]"),
    # two invariants fail at once: the first in the order of the checks is named
    (DumontPermutation, 1, (1, 1, 4, 3), "word is not a permutation of 1..4"),
    (DumontPermutation, 1, (1, 4, 3, 2), "excedance condition fails: sigma(1) = 1 is not > 1"),
    (DumontPermutation, 1, (2, 3, 1, 4), "deficiency condition fails: sigma(2) = 3 is not < 2"),
    (DumontPermutation, 1, (2, 1, 3, 4), "excedance condition fails: sigma(3) = 3 is not > 3"),
    (DumontPermutation, 1, (3, 2, 4, 1), "deficiency condition fails: sigma(2) = 2 is not < 2"),
    (FeiginChain, 2, ((), (1,), (3, 1)), "subset 2 is not strictly ascending"),
    (FeiginChain, 2, ((), (1,), (2, 2)), "subset 2 is not strictly ascending"),
    (FeiginChain, 2, ((), (1,), (3,)), "subset 2 has values outside 1..2"),
    (FeiginChain, 2, ((), (0, 1), (1, 2)), "subset 1 has values outside 1..2"),
    (FeiginChain, 2, ((), (1,), (2,)), "subset 2 has size 1, expected 2"),
    # a pair of the wrong size, which parse never builds
    (HetyeiTuple, 1, ((1,),), "pair 1 has size 1, expected 2"),
    (HetyeiTuple, 1, ((1, 1, 1),), "pair 1 has size 3, expected 2"),
    (HetyeiTuple, 1, ((),), "pair 1 has size 0, expected 2"),
    # ... read in its turn, after the earlier pairs' checks
    (HetyeiTuple, 2, ((2, 1), (1,)), "pair 1 is not sorted: 2 > 1"),
]


@pytest.mark.parametrize("cls,n,raw,message", INVARIANT_MESSAGES)
def test_invariant_messages(cls, n, raw, message):
    with pytest.raises(ModelInvariantError, match=f"^{re.escape(message)}$"):
        cls(n, raw)


@pytest.mark.parametrize("model", MODEL_NAMES)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_totals_match_triangle(model, n, objects):
    assert len(objects(model, n)) == triangles.normalized_genocchi(n)


def strictly_increasing(listing) -> bool:
    return all(a < b for a, b in zip(listing, listing[1:]))


@pytest.mark.parametrize("model", MODEL_NAMES)
def test_enumeration_is_sorted_by_serialization(model, objects):
    for n in range(1, 7):
        assert strictly_increasing([models.serialize(o) for o in objects(model, n)]), n


@pytest.mark.parametrize("model", MODEL_NAMES)
@pytest.mark.parametrize("n", [10, 11])
def test_stream_order_holds_for_two_digit_numbers(model, n):
    # "10" < "2" and "1,10;" < "1,2;" as strings, so numeric choice order
    # would fail here; the generators must try choices in text order
    head = islice(models.enumerate_model(model, n, limit=None), 2000)
    listing = [models.serialize(o) for o in head]
    assert len(listing) == 2000
    assert strictly_increasing(listing)


LISTING_ORDERS = [1, 2, 3, 4, 5, 6, pytest.param(7, marks=pytest.mark.slow)]


@pytest.mark.parametrize("n", LISTING_ORDERS)
@pytest.mark.parametrize("model", MODEL_NAMES)
def test_listing_is_the_serialization_of_the_objects(model, n):
    texts, objs = zip(*models.listing(model, n))
    assert objs == tuple(models.enumerate_model(model, n))
    assert list(texts) == [models.serialize(o) for o in objs]


@pytest.mark.parametrize("n", LISTING_ORDERS)
@pytest.mark.parametrize("model", MODEL_NAMES)
def test_the_walk_folds_the_statistics_of_each_object(model, n):
    # the listing with stats is the listing, each object followed by the
    # (k, l) its walk folds, which must be statistics(object); their Counter
    # is then the tally's table
    rows = list(models.listing(model, n, stats=True))
    assert [(text, obj) for text, obj, _, _ in rows] == list(models.listing(model, n))
    for text, obj, k, l in rows:
        assert (k, l) == models.statistics(obj), text
    assert Counter((k, l) for _, _, k, l in rows) == models.statistics_table(model, n)


@pytest.mark.parametrize("model", MODEL_NAMES)
def test_the_walk_folds_the_statistics_through_larger_blocks(monkeypatch, model):
    # blocks of 64 completions hold longer suffixes: in hetyei's, the scan
    # for k can stop inside the suffix, which no object yielded from blocks
    # of 8 shows through order 7.  The text format keys each block's
    # rendering by the prefix summary items its completions read, so it
    # must write the same (k, l)
    monkeypatch.setattr(models, "_BLOCK_SIZE", 64)
    for n in range(1, 7):
        rows = list(models.listing(model, n, stats=True))
        for text, obj, k, l in rows:
            assert (k, l) == models.statistics(obj), text
        written = "".join(models._lines(model, n, None, True))
        assert written == "".join(f"{text}\tk={k} l={l}\n" for text, _, k, l in rows)


@pytest.mark.parametrize("n", LISTING_ORDERS)
@pytest.mark.parametrize("model", MODEL_NAMES)
def test_fragments_ascend_at_every_state_the_walk_meets(monkeypatch, model, n):
    # the walk takes each step's choices in the order of their fragments,
    # the text a choice adds; that is the order of whole texts only if, at
    # each (step, state), the fragments are distinct and none is a prefix of
    # another (in ascending order, a prefix of any would be one of the next)
    rule = models._RULES[model]
    met = []

    def recorded(n):
        size, step, mark = rule(n)

        def step_recorded(i, state):
            choices = step(i, state)
            met.append(choices)
            return choices

        return size, step_recorded, mark

    monkeypatch.setitem(models._RULES, model, recorded)
    assert sum(1 for _ in models.listing(model, n)) == triangles.normalized_genocchi(n)
    assert met
    cls = models._MODEL_CLASSES[model]
    for choices in met:
        fragments = sorted(cls._write(c) + cls._sep for c, _ in choices)
        assert strictly_increasing(fragments), fragments
        assert not any(b.startswith(a) for a, b in zip(fragments, fragments[1:])), fragments


# the peak of the order-6 walk at its worst: in a fresh interpreter, whose
# part memos hold nothing yet, and after a full collection, which empties
# CPython's free lists, so that every tuple and list the walk makes is an
# allocation tracemalloc sees.  Read without them, pd2n's peak depends on
# what ran before: 226 KiB so, 202 KiB fresh without the collection and
# 158 KiB after the rest of this file, on Python 3.11.  With a second
# argument "stats" the snippet reads the walk that folds the statistics
PEAK_OF_A_WALK = """
import gc, sys, tracemalloc
from genocchi import models
gc.collect()
tracemalloc.start()
walk = (models.listing(sys.argv[1], 6, stats=True) if sys.argv[2:] == ["stats"]
        else models.enumerate_model(sys.argv[1], 6))
count = sum(1 for _ in walk)
print(count, tracemalloc.get_traced_memory()[1])
"""


def peak_of_a_walk(*argv):
    """The count and the tracemalloc peak of PEAK_OF_A_WALK's order-6 walk."""
    out = subprocess.run([sys.executable, "-c", PEAK_OF_A_WALK, *argv], env=package_env(),
                         capture_output=True, text=True, check=True, timeout=60).stdout
    return map(int, out.split())


@pytest.mark.parametrize("model", MODEL_NAMES)
def test_enumeration_streams_in_bounded_memory(model):
    # a sorted list of the 3,098 order-6 objects takes about 1 MiB
    count, peak = peak_of_a_walk(model)
    assert count == triangles.normalized_genocchi(6)
    assert peak < 256 * 1024


@pytest.mark.parametrize("model", MODEL_NAMES)
def test_the_stats_listing_streams_in_bounded_memory(model):
    # the same bound: a block's completions keep their suffix's summary
    # beside them, one shared tuple for each distinct summary
    count, peak = peak_of_a_walk(model, "stats")
    assert count == triangles.normalized_genocchi(6)
    assert peak < 256 * 1024


def test_the_walk_remembers_dead_states(monkeypatch):
    # most (step, state) pairs of pd2n's walk lead to no object; kept as
    # empty blocks, and small states as the blocks of their completions,
    # they are not stepped into again while remembered, so the rule's step
    # runs at most the 2,733 times of a memo of 384 states' choices alone
    rule = models._RULES["pd2n"]
    calls = []

    def recorded(n):
        size, step, mark = rule(n)

        def step_recorded(i, state):
            calls.append((i, state))
            return step(i, state)

        return size, step_recorded, mark

    monkeypatch.setitem(models._RULES, "pd2n", recorded)
    assert sum(1 for _ in models.listing("pd2n", 6)) == triangles.normalized_genocchi(6)
    assert len(calls) <= 2733


@pytest.mark.parametrize("model, bound", [("dellac", 4000), ("hetyei", 7500)])
def test_the_stats_text_renders_each_block_once(monkeypatch, capsys, model, bound):
    # the walk yields the same blocks after many prefixes, so the text
    # format renders each (block, prefix summary) once: the fold's join runs
    # 3,483 times for dellac's order-7 lines and 2,351 for hetyei's, with
    # each block's reader, which stops once it has read every item of the
    # summary, where a join for each line would run it 42,271 times
    rule = models._RULES[model]
    calls = []

    def recorded(n):
        size, step, (root, grow, push, join, carry) = rule(n)

        def join_recorded(above, below):
            calls.append(None)
            return join(above, below)

        return size, step, (root, grow, push, join_recorded, carry)

    monkeypatch.setitem(models._RULES, model, recorded)
    assert cli.main(["enumerate", "--model", model, "--n", "7", "--stats"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == STATS_LISTING_SHA256[7, "text"][model]
    assert len(calls) <= bound


@pytest.mark.parametrize("model", MODEL_NAMES)
def test_the_text_listing_holds_when_its_renderings_are_dropped(monkeypatch, capsys, model):
    # no order <= 8 fills the map of rendered lines, so only a smaller map
    # drops them: cleared after each rendering, or after a few
    for size in (1, 3, 50):
        monkeypatch.setattr(models, "_RENDER_MEMO_SIZE", size)
        for extra, pinned in (((), LISTING_SHA256[6][model]),
                              (("--stats",), STATS_LISTING_SHA256[6, "text"][model])):
            assert cli.main(["enumerate", "--model", model, "--n", "6", *extra]) == 0
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest() == pinned, (size, extra)


def test_a_high_order_lists_within_the_recursion_limit():
    # the walk does not recurse: pd2n's first path at order 400 is 802 steps
    # down, yet it lists under a limit 40 frames above the caller's depth
    depth = len(inspect.stack(0))
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        text, obj = next(models.listing("pd2n", 400, limit=None))
    finally:
        sys.setrecursionlimit(old)
    assert obj.n == 400 and text == models.serialize(obj)


# sha256 of the stdout of `enumerate --model M --n N`, the listing byte for byte
LISTING_SHA256 = {
    5: {
        "pd2n": "d9265f47915853f23526546ffbb2c7a71b399808b48c918f5cc9c72513c31e4c",
        "dellac": "f60c6fba5924e79ad2df4c2809d9e11275ad4ee9fc5773c3dc3b9bc0ed74f3cd",
        "chain": "9b670960efa93c15ef07021630762403bd594f641a06cceff3cca9a4144ae7e7",
        "settuple": "f81765f6b7d1e4bea1d271a4707e096b427c391efdb8d51b1220244aaa0cd1f7",
        "hetyei": "e163f053f9a7ca0acf24741003a68fad32024b19813f0efa63905917cb8dafd8",
    },
    6: {
        "pd2n": "0fd13a296ca901ed919cbd08a72b9077a7f456a254e9b0882224abdfb61af160",
        "dellac": "1637320367be8612d4bee046d179762d2b8ad19fb9c46de04f57ee2c5529e9ea",
        "chain": "91cd0fe2dad3a7e0fde2922ae8b3b08896e7f47fc04f5a381eb541028259356f",
        "settuple": "0227dabe00c68ddaac5d26ad7360233302b9b67352d40d0e51959c7d6c37e3eb",
        "hetyei": "9a143a3c9018bacedc2a8472a1f0d43a6b7bb4ce248d5234892c9da9529fe579",
    },
    7: {
        "pd2n": "395f7fead8ef49b8b868625a39eaa6985be3001bf88655a766c3d9def827a975",
        "dellac": "45d40f502ec1675e7b27afb6f44ee9c2f39cfc96945a889e357e35af0a1f4b26",
        "chain": "6d5f5de2ad835cff1ecc5da30beca27cac9cd81d983ce8a719c1b0da13fef880",
        "settuple": "bcf45d51dd656e5e045939ec30c6d4bd2d35b58d71fef56068d9d7baa8677f35",
        "hetyei": "984ab4dda0de8683c964686f2bd5f750ed2a0f5dde4d59025f8fd42e528c11cb",
    },
}


@pytest.mark.parametrize("n", [5, 6, pytest.param(7, marks=pytest.mark.slow)])
@pytest.mark.parametrize("model", MODEL_NAMES)
def test_listing_is_pinned(capsys, model, n):
    assert cli.main(["enumerate", "--model", model, "--n", str(n)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == LISTING_SHA256[n][model]


# sha256 of the stdout of `enumerate --model M --n N --stats [--format F]`;
# the 295 lines of order 5 span one seam between two written batches
STATS_LISTING_SHA256 = {
    (5, "text"): {
        "pd2n": "33894425cae4ce5346f59cc629402bcf5c8fdfd61a10634a7342019082552bea",
        "dellac": "7f5a7ce696ee3ed06e1780a7521dc68ab5352274aa38e3bd3d930f9a0010e045",
        "chain": "14ce26730b810505966e3ec843a52686dc6f13dbb93edb440fd59cf970d3871d",
        "settuple": "6c79c852ccf2e5ca64f8629d5937ae4448aa7167d5f9835e780c30267ccf77a7",
        "hetyei": "75d5ce970123d58a1b9e09dbffc11ebe822295ebf79a8615bfbe5a83cc633cc6",
    },
    (6, "text"): {
        "pd2n": "139d53bc1487b290a6f67a4c8962535cdc5521b62fe1ab299ce49e2a72ea3c1b",
        "dellac": "7cebf82955fe4ec34c2f00a3371ff584778c7c00e85095d311fef08609999db7",
        "chain": "ae2b971a9dfba5eb25232b65e174f77893e15e6a0605e8146c600c6429f6a39a",
        "settuple": "ffb5ac0f8a7c38906c4fac88f30ae9a522e1d8ea3af922c88fee8b97fe627372",
        "hetyei": "a1dbe0cb76fd3a91f976908f60ef6f76d81929268eda8b8d1f5125e5c97bb9af",
    },
    (7, "text"): {
        "pd2n": "41c08d906a312ee7e15d6ee32f6b1da8a1f3aea619892c373343a6f79dac2619",
        "dellac": "10663b0475a93735d5e768eec6daf848bcd11e8c446a1efa47b0a4fb284a36de",
        "chain": "5de86fb6c58808e858e910e032a045bcfe8b86efbdfc4ecd018e8313982f4568",
        "settuple": "8252d5f3404b8b5d2dc57446c7e0c9ab1d064432ac263750c3916a8682f33c89",
        "hetyei": "fba531818fe2353b2385f42fd5a4106844e5ab80adecd936ebd964dbeb69e684",
    },
    (5, "csv"): {
        "pd2n": "097490082648b6eb4d6e105ea13ac8719fa2615e0730dfe7a1eb99f02990d740",
        "dellac": "3ff28a3f21243598b95ee18502d5bbc588920a747e02a31878ee1912379cd985",
        "chain": "e9b46a7fc2031188b50fd554192c12244793730608d1dfa0762fe3d6db691b00",
        "settuple": "ba1b23511624a6877a4521478ebb9af697980953bbfda1cc15fde0cf507e89e0",
        "hetyei": "6fa9d84766e7fcacadca699ad985a720fa5505d9cef4decccaee4468bf2915cb",
    },
    (6, "csv"): {
        "pd2n": "aac72e5797a736adf46f35a756b388c88adfa0ee3fab7642fb34f09eba5b9549",
        "dellac": "74963a4cbfcec9326df893bc09b1e2bff243745fd05b2759147192e9fe8aeb4a",
        "chain": "b519db261016a0b6afeb5f24635d45f979adf1dc380a8f8b50530a0a9605317d",
        "settuple": "4f9c188bf82ce5744ff0f6e26383e3a2b108b0e5ce35cdeab215ecc62e745152",
        "hetyei": "4b5ade8115d9f5e43d13da0a7bfbc43c8454f921e1b1766d922572d0b7bc2806",
    },
    (6, "json"): {
        "pd2n": "8f627bfe477c1a0f136949c001d15cb819a855ee6b23a83122a565e9855fb8da",
        "dellac": "744be9cb02370993feb2aeeb830ec3edd64f881e7283222d6f2fd5f296fd83ac",
        "chain": "cc139ed49ed9027627e23fa82e1448a23bd85cf4da91e83d4ddb164dc138dd09",
        "settuple": "0882daf1abd2d1dc4cd59f8d49e01ad81701048a63660fa182bdfefdbb71d18d",
        "hetyei": "99dca1d923e582ee7557eaaa6591edf51e8cb1771f8829c46f654bd8c6cafad9",
    },
}


@pytest.mark.parametrize("n, fmt", [(5, "text"), (6, "text"),
                                    pytest.param(7, "text", marks=pytest.mark.slow),
                                    (5, "csv"), (6, "csv"), (6, "json")])
@pytest.mark.parametrize("model", MODEL_NAMES)
def test_stats_listing_is_pinned(capsys, model, n, fmt):
    argv = ["enumerate", "--model", model, "--n", str(n), "--stats", "--format", fmt]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == STATS_LISTING_SHA256[n, fmt][model]


# sha256 of the stdout of `enumerate --model M --n 6 --format F`, the
# formats that read listing, with no statistics
FORMAT_LISTING_SHA256 = {
    "csv": {
        "pd2n": "f6267f76850e57bcec72e9d5663080652369f72085eb6a2aa2195f5ab0fa7953",
        "dellac": "001002ff004d184a2e9ae68adb25f60c0bf6868fd44b6e6abe97ddc25544232d",
        "chain": "e4327ef77fbf370ad388c2e8961f2c39df47688366f2bf53dceec17e50bb477e",
        "settuple": "9dc2e8ee7058b9a22dcbc5c31ab1debf95465883580f08d6b648bdd6dc8506f5",
        "hetyei": "f78d61765e36a5d8245591206cd9f59601da2915ae19353107e9c469f7cb2f72",
    },
    "json": {
        "pd2n": "5f9234e4e2503448903120f74d058411c3633bcc232ddec538c3668d45c83d4d",
        "dellac": "ec83e34f6adefdffe1af4c6c3b9473a248032fd3e4da43af24110a8b10f3febc",
        "chain": "c40a86327668c6d606c6e00e5d748ace1e63bf7e1bb24c0db71e1b5e3d1b767b",
        "settuple": "fe302abc5a919e99d801645786ccf9a1d76a9f6e4e444dd3497e2a867000a0aa",
        "hetyei": "27c6c87ee9b91cbd038fda1023f3fb12953d7e0fbdfe2e9afe6e5c9ec90623af",
    },
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("model", MODEL_NAMES)
def test_listing_formats_are_pinned(capsys, model, fmt):
    assert cli.main(["enumerate", "--model", model, "--n", "6", "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == FORMAT_LISTING_SHA256[fmt][model]


@pytest.mark.parametrize("model", MODEL_NAMES)
def test_the_text_listing_builds_no_object(capsys, monkeypatch, model):
    # enumerate's text format writes each line from the texts and the folds
    # of the walk's blocks; the objects that listing builds from the same
    # blocks all go through _new_tuple
    built = []

    def counted(cls, data):
        built.append(cls)
        return tuple.__new__(cls, data)

    monkeypatch.setattr(models, "_new_tuple", counted)
    for extra, pinned in (((), LISTING_SHA256[5][model]),
                          (("--stats",), STATS_LISTING_SHA256[5, "text"][model])):
        assert cli.main(["enumerate", "--model", model, "--n", "5", *extra]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == pinned, extra
    assert built == []
    cls = models._MODEL_CLASSES[model]
    assert all(type(obj) is cls for _, obj in models.listing(model, 5))
    assert built == [cls] * triangles.normalized_genocchi(5)


def test_string_order_differs_from_numeric_for_wide_words(objects):
    # at order 5 the values 10 and 11 move freely, and "10" < "6" as strings
    listing = [models.serialize(o) for o in objects("pd2n", 5)]
    assert listing == sorted(listing)
    numeric = [models.serialize(o) for o in sorted(objects("pd2n", 5), key=lambda o: o.word)]
    assert numeric != listing
    assert any(" 10 " in s for s in listing)


# ---------------------------------------------------------------------------
# serialization


ROUNDTRIP_EXAMPLES = [
    ("pd2n", "2 1 6 3 7 4 8 5"),
    ("pd2n", "2 1 4 3 6 5 8 7 10 9"),
    ("dellac", "1 2 2 1 3 3"),
    ("chain", ";3;1,3;1,2,3"),
    ("chain", ";3;1,3;1,3,4;1,2,3,5;1,2,3,4,5"),
    ("settuple", "2;1,3;2"),
    ("hetyei", "1,1;1,2;2,2;3,4;3,5"),
]


@pytest.mark.parametrize("model,text", ROUNDTRIP_EXAMPLES)
def test_parse_serialize_roundtrip(model, text):
    obj = models.parse(model, text)
    assert models.serialize(obj) == text
    assert models.parse(model, models.serialize(obj)) == obj


def test_parse_rejects_unknown_model():
    with pytest.raises(ModelSyntaxError):
        models.parse("nope", "1")


_HUGE = "9" * 5000


@pytest.mark.parametrize(
    "model,text",
    [
        ("pd2n", "2 1 x 3"),
        ("pd2n", "2 1 4"),
        ("chain", "3"),
        ("chain", ";3;3,1"),
        ("settuple", "2;1,1;2"),
        ("hetyei", "1,1;2"),
        ("hetyei", "2,1"),
        ("dellac", "1 2 3"),
        ("settuple", "02;1"),  # leading zero
        ("settuple", "١;2"),  # non-ASCII digit
        ("dellac", "1 ²"),  # str.isdigit accepts it, int() does not
        ("dellac", "1 0"),
        ("settuple", "1;2\u0660"),  # a non-ASCII digit after the first
        # more digits than int() converts
        *(pytest.param(model, text, id=f"{model}-5000-digits") for model, text in (
            ("pd2n", f"2 1 {_HUGE} 3"),
            ("dellac", f"1 {_HUGE}"),
            ("chain", f";{_HUGE}"),
            ("settuple", f"{_HUGE};1"),
            ("hetyei", f"1,{_HUGE}"),
        )),
    ],
)
def test_syntax_errors(model, text):
    with pytest.raises(ModelSyntaxError):
        models.parse(model, text)


def test_subset_memo_keeps_no_errors():
    # a bad part, word and pair, each refused again alike once the parts of
    # every order-4 text have passed through the memos
    bad = [("chain", ";2;2,1"), ("pd2n", "2 1 06 3"), ("hetyei", "1,1;2,1")]
    before = []
    for model, text in bad:
        with pytest.raises(ModelSyntaxError) as error:
            models.parse(model, text)
        before.append(str(error.value))
    for model in MODEL_NAMES:
        for obj in models.enumerate_model(model, 4):
            models.parse(model, models.serialize(obj))
    for (model, text), message in zip(bad, before):
        with pytest.raises(ModelSyntaxError) as error:
            models.parse(model, text)
        assert str(error.value) == message
    # a refused part names the text it was read from, each time
    for text in (";1;01,2", "01;1"):
        with pytest.raises(ModelSyntaxError, match=re.escape(repr(text))):
            models.parse("chain" if text[0] == ";" else "settuple", text)


def test_subset_memo_is_bounded():
    for i in range(1, models._PART_MEMO_SIZE + 10):
        assert models._parts(str(i), ";", models._subset) == ((i,),)
        assert models._parts(f"{i},{i}", ";", models._pair) == ((i, i),)
        assert models._write_subset((i,)) == str(i)
        assert models._write_pair((i, i)) == f"{i},{i}"
    for memo in (models._number, models._subset, models._pair,
                 models._write_number, models._write_subset, models._write_pair):
        info = memo.cache_info()
        assert info.maxsize == info.currsize == models._PART_MEMO_SIZE


class _Int(int):
    """An int with a text of its own."""

    def __str__(self):
        return f"<{int(self)}>"


# numbers that equal 1 and hash alike, so a writer's memo would take each
# for 1, but are not ints
_NOT_INTS = [True, 1.0, _Int(1)]


def _with_ones_as(data, one):
    if isinstance(data[0], tuple):
        return tuple(tuple(one if v == 1 else v for v in part) for part in data)
    return tuple(one if v == 1 else v for v in data)


@pytest.mark.parametrize("one", _NOT_INTS, ids=["bool", "float", "int-subclass"])
@pytest.mark.parametrize("model", MODEL_NAMES)
def test_constructors_refuse_numbers_that_are_not_ints(model, one):
    obj = models.parse(model, ORDER3_CELLS[model][(2, 2)])
    cls, data = type(obj), obj[2]
    with pytest.raises(ModelInvariantError, match="must hold ints"):
        cls(obj.n, _with_ones_as(data, one))
    first = next(models.enumerate_model(model, 1))
    with pytest.raises(ModelInvariantError, match="order must be an int"):
        cls(one, first[2])


@pytest.mark.parametrize("cls,n,raw,message", [
    (DumontPermutation, 1, (2, True, 4, 3), "word must hold ints, got True"),
    (DumontPermutation, 1, (2.0, 1, 4, 3), "word must hold ints, got 2.0"),
    (DumontPermutation, 1, [2, 1, 4, 3], "word must be a tuple, got [2, 1, 4, 3]"),
    (DellacConfiguration, 1, (1, True), "row_columns must hold ints, got True"),
    (FeiginChain, 1, ((), [1]), "subsets must hold tuples, got [1]"),
    (SetTuple, 1, ([1],), "sets must hold tuples, got [1]"),
    (HetyeiTuple, 1, ((1.0, 1),), "pairs must hold ints, got 1.0"),
    (HetyeiTuple, 2.0, ((1, 1), (1, 2)), "order must be an int, got 2.0"),
])
def test_constructors_refuse_what_no_text_spells(cls, n, raw, message):
    # each of these equals a valid object, or cannot be hashed, but would
    # not serialize to a text that parses back to it
    with pytest.raises(ModelInvariantError, match=f"^{re.escape(message)}$"):
        cls(n, raw)


@pytest.mark.parametrize("one", _NOT_INTS, ids=["bool", "float", "int-subclass"])
def test_no_object_the_api_builds_changes_a_later_serialization(one):
    # the writers' memos start empty, so a stray one would be the first 1
    # they keep, and every later 1 would be written as its text
    for memo in (models._write_number, models._write_subset, models._write_pair):
        memo.cache_clear()
    valid = {model: models.parse(model, ORDER3_CELLS[model][(2, 2)]) for model in MODEL_NAMES}
    builds = [partial(type(o), o.n, _with_ones_as(o[2], one)) for o in valid.values()]
    builds += [partial(type(o), one, o[2])
               for o in (next(models.enumerate_model(model, 1)) for model in MODEL_NAMES)]
    builds.append(partial(maps.embed_permutation, (2, one, 3)))
    for build in builds:
        try:
            built = build()
        except ModelError:
            continue
        models.serialize(built)
    for model, obj in valid.items():
        texts = ORDER3_CELLS[model]
        assert models.serialize(obj) == texts[2, 2]
        assert [text for text, _ in models.listing(model, 3)] == sorted(texts.values())


@pytest.mark.parametrize(
    "model,text",
    [
        ("pd2n", "2 1 06 3"),  # a bad number in a word
        ("chain", ";1;1,x"),  # ... in a subset
        ("hetyei", "1,1;1,²"),  # ... in a pair
        ("chain", ";3;3,1"),  # subset order
        ("hetyei", "1,1;1,2,2"),  # pair arity
        ("hetyei", "1,1;2,1"),  # pair order
        ("pd2n", "2 1 4"),  # word parity
        ("dellac", "1 2 3"),
        ("chain", "3"),  # a chain of one part
    ],
)
def test_syntax_errors_name_the_text(model, text):
    with pytest.raises(ModelSyntaxError, match=re.escape(repr(text))):
        models.parse(model, text)


@pytest.mark.parametrize("model,text,message", [
    ("pd2n", "2 1 6", "word length must be an even number >= 4, got 3 in '2 1 6'"),
    ("dellac", "1", "row count must be an even number >= 2, got 1 in '1'"),
    ("chain", "", "chain needs at least subsets I_0 and I_1 in ''"),
])
def test_wrong_length_syntax_messages(model, text, message):
    with pytest.raises(ModelSyntaxError, match=f"^{re.escape(message)}$"):
        models.parse(model, text)


@pytest.mark.parametrize(
    "model,text",
    [
        ("pd2n", "1 2 4 3"),  # position 1 needs an excedance
        ("pd2n", "2 1 4 4"),  # not a permutation
        ("pd2n", "4 1 2 3 6 5"),  # sigma(3) = 2 is no excedance
        ("dellac", "1 2 1 2 3 4"),  # column 4 does not exist at order 3
        ("dellac", "1 1 1 2 3 3"),  # column 1 used three times
        ("dellac", "3 2 2 1 3 1"),  # row 1 outside its band
        ("chain", ";1;2,3;1,2,3"),  # step 2 drops 1, but only 2 may leave
        ("chain", ";1,2;1,2"),  # I_1 must have exactly one element
        ("settuple", "1;2;1,3"),  # value 1 occurs twice, but #S_1 = 1
        ("settuple", "2;;2"),  # empty set at position 2
        ("settuple", "1,2;3;2"),  # #S_1 = 2 but value 1 occurs once
        ("hetyei", "1,2;1,2;3,3"),  # pair at position 1 exceeds [1]
        ("hetyei", "1,1;2,2;1,2"),  # value 3 never covered
    ],
)
def test_invariant_errors(model, text):
    with pytest.raises(ModelInvariantError):
        models.parse(model, text)


_EDITS = ("", "0", "1", "2", "9", " ", ";", ",", "١", "²")


@st.composite
def _near_canonical(draw):
    """A model and an order <= 4 serialization with up to three characters
    replaced, deleted or inserted."""
    model = draw(st.sampled_from(MODEL_NAMES))
    n = draw(st.integers(min_value=1, max_value=4))
    text = models.serialize(draw(st.sampled_from(cached_objects(model, n))))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        i = draw(st.integers(min_value=0, max_value=len(text)))
        drop = draw(st.integers(min_value=0, max_value=1))
        text = text[:i] + draw(st.sampled_from(_EDITS)) + text[i + drop:]
    return model, text


@given(st.one_of(_near_canonical(), st.tuples(st.sampled_from(MODEL_NAMES), st.text())))
def test_parse_accepts_exactly_the_canonical_text(case):
    model, text = case
    try:
        obj = models.parse(model, text)
    except ModelError:
        return
    assert models.serialize(obj) == text


@pytest.mark.parametrize("model", MODEL_NAMES)
def test_objects_are_hashable_and_frozen(model):
    text = ORDER3_CELLS[model][(2, 2)]
    obj, again = models.parse(model, text), models.parse(model, text)
    assert obj is not again and obj == again and hash(obj) == hash(again)
    assert {obj: 1}[again] == 1
    data = DATA_ATTRIBUTES[type(obj)]
    assert len(obj) == 3 and obj[1:] == (3, getattr(obj, data))
    for attr in ("n", data, "other"):
        with pytest.raises(AttributeError):
            setattr(obj, attr, getattr(obj, data))
    for twin in (copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(twin) is type(obj) and twin == obj
    mine = [models.parse(model, t) for t in ORDER3_CELLS[model].values()]
    others = [models.parse(m, t) for m in MODEL_NAMES if m != model
              for t in ORDER3_CELLS[m].values()]
    assert not any(a == b for a in mine for b in others)
    # the same order and data under another family's class is still unequal
    assert not any(models._trusted(cls, o.n, o[2]) == o
                   for o in mine for cls in DATA_ATTRIBUTES if cls is not type(o))


# ---------------------------------------------------------------------------
# statistics


STATISTIC_EXAMPLES = [
    ("pd2n", "2 1 6 3 7 4 8 5", 1, 2),
    ("pd2n", "6 1 4 2 7 5 8 3", 3, 1),
    ("pd2n", "2 1 4 3 6 5 8 7", 1, 3),
    ("dellac", "1 2 2 1 3 3", 1, 2),
    ("dellac", "1 1 2 3 2 3", 3, 2),
    ("chain", ";3;1,3;1,2,3", 2, 1),
    ("chain", ";1;1,2;1,2,3", 1, 3),
    ("settuple", "2;1,3;2", 2, 2),
    ("settuple", "3;2;1", 3, 1),
    ("hetyei", "1,1;1,2;1,3", 2, 1),
    ("hetyei", "1,1;2,2;3,3", 1, 3),
    ("hetyei", "1,1;1,1;2,3", 3, 2),
]


@pytest.mark.parametrize("model,text,k,l", STATISTIC_EXAMPLES)
def test_statistics_examples(model, text, k, l):
    obj = models.parse(model, text)
    assert models.k_statistic(obj) == k
    assert models.l_statistic(obj) == l
    assert models.statistics(obj) == (k, l)


def test_statistics_at_order_one():
    for model in MODEL_NAMES:
        (obj,) = models.enumerate_model(model, 1)
        assert models.statistics(obj) == (1, 1)


def test_settuple_statistics_are_the_unique_positions(objects):
    # k and l locate the symbols 1 and n, which occur exactly once each
    for s in objects("settuple", 4):
        k, l = models.statistics(s)
        assert 1 in s.sets[k - 1] and 4 in s.sets[l - 1]
        assert sum(1 in part for part in s.sets) == 1
        assert sum(4 in part for part in s.sets) == 1


# k and l restated from the definitions in the models docstring, from each
# object's data alone, sharing no code with models


def defined_redundant_positions(n, pairs):
    """Positions of the redundancy chain n = l_1 > .. > l_m (continue from l
    with the smaller entry of the pair at l until that pair is {l, l}):
    l in [l_m, n-1] when the largest chain value <= l is an entry of the
    pair at l, and n when its pair is {n, n}."""
    chain = [n]
    while pairs[chain[-1] - 1] != (chain[-1], chain[-1]):
        chain.append(min(pairs[chain[-1] - 1]))
    out = {n} if pairs[n - 1] == (n, n) else set()
    out.update(l for l in range(chain[-1], n) if max(c for c in chain if c <= l) in pairs[l - 1])
    return out


def the_one(values):
    (value,) = values
    return value


DEFINED_STATISTICS = {
    # sigma(1) = 2k and sigma(2n+2) = 2l + 1
    "pd2n": lambda n, word: (the_one(k for k in range(1, n + 1) if word[0] == 2 * k),
                             the_one(l for l in range(1, n + 1) if word[-1] == 2 * l + 1)),
    # k = c_{n+1} and l = c_n
    "dellac": lambda n, cols: (cols[n], cols[n - 1]),
    # the first index i whose subset I_i holds 1 (for k) or n (for l)
    "chain": lambda n, subsets: (min(i for i in range(n + 1) if 1 in subsets[i]),
                                 min(i for i in range(n + 1) if n in subsets[i])),
    # the unique j with 1 (for k) or n (for l) in S_j
    "settuple": lambda n, sets: (the_one(j for j in range(1, n + 1) if 1 in sets[j - 1]),
                                 the_one(j for j in range(1, n + 1) if n in sets[j - 1])),
    # the largest redundant position sits at n-k+1, and the last position
    # whose pair holds 1 at n-l+1
    "hetyei": lambda n, pairs: (n + 1 - max(defined_redundant_positions(n, pairs)),
                                n + 1 - max(p for p in range(1, n + 1) if 1 in pairs[p - 1])),
}


def assert_defined_statistics(model, n, objs):
    for obj in objs:
        k, l = DEFINED_STATISTICS[model](n, getattr(obj, DATA_ATTRIBUTES[type(obj)]))
        assert models.k_statistic(obj) == k, obj
        assert models.l_statistic(obj) == l, obj
        assert models.statistics(obj) == (k, l), obj


@pytest.mark.parametrize("model", MODEL_NAMES)
def test_statistics_follow_the_definitions(model, objects):
    for n in range(1, 7):
        assert_defined_statistics(model, n, objects(model, n))


@pytest.mark.slow
@pytest.mark.parametrize("model", MODEL_NAMES)
def test_statistics_follow_the_definitions_at_order_7(model):
    # streamed, not cached: all 42,271 objects of each family
    assert_defined_statistics(model, 7, models.enumerate_model(model, 7))


# ---------------------------------------------------------------------------
# redundancy


def test_redundancy_chain_worked_example():
    m = models.parse("hetyei", "1,1;1,2;2,2;3,4;3,5")
    assert models.redundancy_chain(m) == (5, 3, 2, 1)
    assert models.redundant_positions(m) == frozenset({1, 2, 4})
    assert models.k_statistic(m) == 5 + 1 - 4


def test_redundancy_chain_stops_at_doubleton():
    m = models.parse("hetyei", "1,1;2,2;3,3")
    assert models.redundancy_chain(m) == (3,)
    assert models.redundant_positions(m) == frozenset({3})
    assert models.k_statistic(m) == 1


def test_redundancy_last_position_needs_equal_pair():
    m = models.parse("hetyei", "1,1;2,2;1,3")
    assert models.redundancy_chain(m) == (3, 1)
    assert models.redundant_positions(m) == frozenset({1})
    assert models.k_statistic(m) == 3


def literal_redundant_positions(m):
    """The uncorrected rule: position l is redundant iff c(l) is in the pair
    at l, including l = n.  Kept here as the discriminating foil."""
    chain = models.redundancy_chain(m)
    out = set()
    for l in range(chain[-1], m.n + 1):
        anchor = max(c for c in chain if c <= l)
        if anchor in m.pairs[l - 1]:
            out.add(l)
    return frozenset(out)


def test_corrected_rule_differs_from_literal_exactly_at_top():
    m = models.parse("hetyei", "1,1;1,2;1,3")
    assert models.redundant_positions(m) == frozenset({1, 2})
    assert literal_redundant_positions(m) == frozenset({1, 2, 3})
    # the literal rule would misplace this object into the first class
    assert models.k_statistic(m) == 2
    assert 3 + 1 - max(literal_redundant_positions(m)) == 1


def test_rules_agree_below_the_top_position(objects):
    for m in objects("hetyei", 5):
        mine = models.redundant_positions(m)
        lit = literal_redundant_positions(m)
        assert mine - {m.n} == lit - {m.n}
        top_pair = m.pairs[m.n - 1]
        assert (m.n in mine) == (top_pair == (m.n, m.n))


# ---------------------------------------------------------------------------
# statistics tables, against enumeration


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, pytest.param(7, marks=pytest.mark.slow)])
@pytest.mark.parametrize("model", MODEL_NAMES)
def test_statistics_table_counts_the_enumerated_objects(model, n, objects):
    expected = Counter(models.statistics(o) for o in objects(model, n))
    assert models.statistics_table(model, n) == expected


@pytest.mark.parametrize("model", MODEL_NAMES)
def test_listing_and_table_read_one_rule(monkeypatch, model):
    # a rule that drops its first choice wherever step 2 offers several
    # changes the listing and the table alike
    n = 5
    table = models.statistics_table(model, n)
    rule = models._RULES[model]

    def fewer(n):
        size, step, mark = rule(n)

        def step_without_one(i, state):
            choices = step(i, state)
            return choices[1:] if i == 2 and len(choices) > 1 else choices

        return size, step_without_one, mark

    monkeypatch.setitem(models._RULES, model, fewer)
    objects = list(models.enumerate_model(model, n))
    changed = models.statistics_table(model, n)
    assert 0 < len(objects) < triangles.normalized_genocchi(n)
    assert changed != table
    assert changed == Counter(models.statistics(o) for o in objects)


@pytest.mark.parametrize("model", [m for m in MODEL_NAMES if m != "hetyei"])
def test_a_tally_asks_each_mark_once_per_step_and_component(monkeypatch, model):
    # a mark depends on (step, component) alone, so a tally that asked it
    # for every suffix summary (4,241 times for 56 pairs in dellac's order-7
    # table) would ask again what it already knows
    fold = models._mark_fold
    asked = []

    def counted(mark):
        def mark_counted(i, c):
            asked.append((i, c))
            return mark(i, c)

        return fold(mark_counted)

    monkeypatch.setattr(models, "_mark_fold", counted)
    for n in (5, 7):
        asked.clear()
        assert sum(models.statistics_table(model, n).values()) == triangles.normalized_genocchi(n)
        assert asked
        assert len(asked) == len(set(asked))


@pytest.mark.parametrize("model", MODEL_NAMES)
def test_carry_adds_what_push_gives_each_summary(monkeypatch, model):
    # the tally moves whole tables through carry, the walk one summary at a
    # time through push: at every (step, component, table below) a tally
    # meets, carry must add to its target the counts push would, and leave
    # the table below as it was
    rule = models._RULES[model]
    met = []

    def recorded(n):
        size, step, (root, grow, push, join, carry) = rule(n)

        def carry_recorded(i, c, below, into):
            before, kept = dict(into), dict(below)
            carry(i, c, below, into)
            met.append((push, i, c, kept, below, before, dict(into)))

        return size, step, (root, grow, push, join, carry_recorded)

    monkeypatch.setitem(models._RULES, model, recorded)
    for n in range(1, 7):
        met.clear()
        models.statistics_table(model, n)
        assert met
        for push, i, c, kept, below, before, after in met:
            assert below == kept
            expected = Counter(before)
            for summary, count in below.items():
                expected[push(i, c, summary)] += count
            assert after == dict(expected), (n, i, c)


@pytest.mark.slow
@pytest.mark.parametrize("n", [8, 9, 10])
def test_statistics_tables_beyond_enumeration(n):
    # the paper's extension to the Kreweras triangle, at orders that no
    # enumeration reaches: the five joint tables agree, and both marginals
    # are the Kreweras row, which comes from triangles alone
    tables = [models.statistics_table(m, n, limit=None) for m in MODEL_NAMES]
    assert all(table == tables[0] for table in tables)
    table = tables[0]
    for (k, l), count in table.items():
        assert table.get((l, k)) == count  # t exchanges k and l
        assert table.get((n + 1 - l, n + 1 - k)) == count  # r
    row = triangles.kreweras_row(n)
    for index in (0, 1):
        hist = [0] * n
        for kl, count in table.items():
            hist[kl[index] - 1] += count
        assert tuple(hist) == row


def test_statistics_table_checks_its_call(monkeypatch):
    calls = []
    monkeypatch.setattr(models, "_tally", lambda *args: calls.append(args))
    with pytest.raises(ResourceGuardError, match=r"guard 8 \(each family has 15,366,679"):
        models.statistics_table("dellac", 9)
    with pytest.raises(ResourceGuardError, match=r"guard 4 "):
        models.statistics_table("chain", 5, limit=4)
    with pytest.raises(ValueError, match="unknown model"):
        models.statistics_table("nope", 3)
    with pytest.raises(ValueError, match="order must be >= 1"):
        models.statistics_table("pd2n", 0)
    assert calls == []


# ---------------------------------------------------------------------------
# pair count and guards


def test_pair_count_small_values():
    assert [models.hetyei_pair_count(n) for n in (1, 2, 3, 4)] == [2, 8, 56, 608]


def test_pair_count_equals_median(objects):
    for n in range(1, 15):
        assert models.hetyei_pair_count(n) == triangles.median_genocchi(n)


def brute_pair_count(n):
    # every tuple ((a_i), (b_i)) with a_i in [0, i] and b_i in [i], unpruned;
    # 0 covers nothing
    values = set(range(1, n + 1))
    positions = [product(range(i + 1), range(1, i + 1)) for i in range(1, n + 1)]
    return sum(values <= {v for pair in pairs for v in pair}
               for pairs in product(*positions))


@pytest.mark.parametrize("n", range(1, 6))
def test_pair_count_matches_brute_force_oracle(n):
    assert models.hetyei_pair_count(n) == brute_pair_count(n)


def test_pair_count_order_five():
    assert models.hetyei_pair_count(5) == triangles.median_genocchi(5) == 9440


def test_pair_count_guard():
    assert models.hetyei_pair_count(6) == triangles.median_genocchi(6)
    with pytest.raises(ValueError):
        models.hetyei_pair_count(0)


def test_enumeration_guard():
    with pytest.raises(ResourceGuardError, match=r"each family has 38 objects"):
        models.enumerate_model("pd2n", 4, limit=3)
    with pytest.raises(ResourceGuardError, match=r"each family has 15,366,679 objects"):
        models.enumerate_model("hetyei", 9)
    assert len(list(models.enumerate_model("pd2n", 4, limit=4))) == 38
    with pytest.raises(ValueError):
        models.enumerate_model("pd2n", 0)


def test_enumeration_guard_does_no_work_at_huge_orders(monkeypatch):
    # naming the count at order 10**6 would fill a Seidel triangle of
    # about 2 * 10**12 entries before refusing
    calls = []
    monkeypatch.setattr(models, "normalized_genocchi", calls.append)
    with pytest.raises(ResourceGuardError, match=r"guard 8; raise"):
        models.enumerate_model("pd2n", 10**6)
    assert calls == []


ORDER_ENTRY_POINTS = {
    "listing": lambda n: models.listing("pd2n", n),
    "enumerate_model": lambda n: models.enumerate_model("pd2n", n),
    "statistics_table": lambda n: models.statistics_table("dellac", n),
    "check_enumeration_guard": lambda n: models.check_enumeration_guard(n, 8),
    "hetyei_pair_count": models.hetyei_pair_count,
    "run_suite max_n": run_suite,
    "run_suite pairs_n": lambda n: run_suite(2, n),
}


@pytest.mark.parametrize("bad", [True, 2.0, "3"], ids=repr)
@pytest.mark.parametrize("entry", ORDER_ENTRY_POINTS)
def test_an_order_that_is_not_an_int_is_refused_before_any_work(monkeypatch, entry, bad):
    # True == 1 and 2.0 == 2 would otherwise build objects of order True or
    # 2.0, and "3" fail deep inside with a TypeError
    calls = []
    monkeypatch.setattr(models, "_walk", lambda *args: calls.append(args))
    monkeypatch.setattr(models, "_tally", lambda *args: calls.append(args))
    monkeypatch.setattr(models, "normalized_genocchi", calls.append)
    with pytest.raises(ValueError, match=r"must be an int, got " + re.escape(repr(bad))):
        ORDER_ENTRY_POINTS[entry](bad)
    assert calls == []


def test_parallel_enumeration_consistency():
    # enumerators are re-entrant: two listings interleaved, one 777 pairs
    # ahead of the other, agree with a straight run, pair for pair, and
    # listings abandoned meanwhile after 1 to 62 pairs (so inside the lists
    # the walk hands up, as well as between them) change neither
    for model in MODEL_NAMES:
        straight = list(models.listing(model, 6))
        ahead, behind = models.listing(model, 6), models.listing(model, 6)
        got_ahead, got_behind = list(islice(ahead, 777)), []
        for k, pair in enumerate(behind):
            got_behind.append(pair)
            got_ahead.extend(islice(ahead, 1))
            if k % 100 == 0:
                cut = k // 50 + 1
                assert list(islice(models.listing(model, 6), cut)) == straight[:cut], model
        assert got_ahead == got_behind == straight, model
