"""Tests of the benchmark's own reference: python3 -m pytest perfbench"""

from __future__ import annotations

import random
from itertools import permutations, product

import pytest

import reference
import samplers


def test_kreweras_rows_match_published_h():
    rows = reference.kreweras_rows(8)
    assert rows[3] == (7, 12, 12, 7)
    for n, row in enumerate(rows, 1):
        assert sum(row) == reference.H[n]
        assert row == row[::-1]
        assert reference.kreweras_row(n) == row


@pytest.mark.parametrize("model", sorted(reference.CHECKERS))
def test_checker_accepts_readme_order3_examples(model):
    for text in reference.README_ORDER3[model]:
        got = reference.CHECKERS[model](text)
        assert got is not None and got[0] == 3, text


@pytest.mark.parametrize("model", sorted(reference.CHECKERS))
def test_checker_places_order3_objects_in_their_cells(model):
    for (k, l), text in reference.ORDER3_CELLS[model].items():
        n, k2, l2 = reference.CHECKERS[model](text)
        assert (n, l2) == (3, l) and k2 in (k, None), text
        assert k2 is not None or model == "hetyei"


def _split(text: str) -> list[str]:
    """Numbers and separators, in order."""
    out, cur = [], ""
    for ch in text:
        if ch.isdigit():
            cur += ch
        else:
            out += [cur, ch] if cur else [ch]
            cur = ""
    return out + [cur] if cur else out


@pytest.mark.parametrize("model", sorted(reference.CHECKERS))
def test_checker_rejects_one_entry_mutations(model):
    """Changing one number of an order-3 object gives another order-3 object
    or text the checker refuses."""
    check = reference.CHECKERS[model]
    valid = set(reference.ORDER3_CELLS[model].values())
    rejected = 0
    for text in valid:
        parts = _split(text)
        for i, tok in enumerate(parts):
            if not tok.isdigit():
                continue
            for value in range(1, 10):
                mutated = "".join(parts[:i] + [str(value)] + parts[i + 1:])
                if mutated in valid:
                    assert check(mutated) is not None
                else:
                    assert check(mutated) is None, mutated
                    rejected += 1
    assert rejected


def _order3_texts(model: str):
    """Every text of the family's order-3 shape, valid or not."""
    subsets = ["", "1", "2", "3", "1,2", "1,3", "2,3", "1,2,3"]
    if model == "pd2n":
        words = permutations(range(1, 9))
    elif model == "dellac":
        words = product(range(1, 4), repeat=6)
    elif model == "hetyei":
        return (";".join(p) for p in product([f"{u},{v}" for u in range(1, 4)
                                              for v in range(1, 4)], repeat=3))
    else:
        return (";".join(p) for p in product(subsets, repeat=4 if model == "chain" else 3))
    return (" ".join(map(str, w)) for w in words)


@pytest.mark.parametrize("model", sorted(reference.CHECKERS))
def test_checker_accepts_exactly_the_seven_order3_objects(model):
    accepted = {t for t in _order3_texts(model) if reference.CHECKERS[model](t) is not None}
    assert accepted == set(reference.ORDER3_CELLS[model].values())


@pytest.mark.parametrize("text", ["02;1", "١;2", "1 ²", "1;2;3 ", "1,,2", "0;1"])
def test_checkers_refuse_non_canonical_text(text):
    for check in reference.CHECKERS.values():
        assert check(text) is None


@pytest.mark.parametrize("model", sorted(samplers.SAMPLERS))
def test_samplers_produce_valid_objects(model):
    rng = random.Random(7)
    for n in range(1, 13):
        for _ in range(20):
            got = reference.CHECKERS[model](samplers.SAMPLERS[model](rng, n))
            assert got is not None and got[0] == n


@pytest.mark.parametrize("model", sorted(samplers.SAMPLERS))
def test_samplers_reach_every_order4_object(model):
    rng = random.Random(11)
    seen = {samplers.SAMPLERS[model](rng, 4) for _ in range(4000)}
    assert len(seen) == reference.H[4]


@pytest.mark.parametrize("model", ["pd2n", "dellac", "settuple"])
def test_lift_gives_l_equal_n_and_keeps_k(model):
    rng = random.Random(3)
    for n in range(1, 10):
        text = samplers.SAMPLERS[model](rng, n)
        _, k, _ = reference.CHECKERS[model](text)
        assert reference.CHECKERS[model](samplers.lift(model, text)) == (n + 1, k, n + 1)
