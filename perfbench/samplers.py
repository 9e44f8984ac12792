"""Random objects of each family, built from the definitions in reference.py.

The samplers are not uniform; they only have to produce valid objects of
any order, including orders beyond the program's enumeration guard.  Each
returns the canonical text.  Nothing here imports genocchi.
"""

from __future__ import annotations

import random


def _subsets_text(parts) -> str:
    return ";".join(",".join(map(str, sorted(p))) for p in parts)


def chain_sets(rng: random.Random, n: int) -> list[set[int]]:
    """I_0 .. I_n: step i adds one value, or, when i is in I_(i-1), drops i
    and adds two values outside I_(i-1)."""
    cur: set[int] = set()
    out = [set()]
    for i in range(1, n + 1):
        free = [v for v in range(1, n + 1) if v not in cur]
        if i in cur and len(free) >= 2 and rng.random() < 0.5:
            cur = (cur - {i}) | set(rng.sample(free, 2))
        else:
            cur = cur | {rng.choice(free)}
        out.append(cur)
    return out


def chain(rng: random.Random, n: int) -> str:
    return _subsets_text(chain_sets(rng, n))


def settuple(rng: random.Random, n: int) -> str:
    """S_i = I_i minus I_(i-1) of a random chain."""
    sets = chain_sets(rng, n)
    return _subsets_text(sets[i] - sets[i - 1] for i in range(1, n + 1))


def hetyei(rng: random.Random, n: int) -> str:
    """Fill positions n..1; value l can only come from positions >= l, so
    position l takes l whenever l is still uncovered."""
    covered: set[int] = set()
    pairs = [(0, 0)] * n
    for l in range(n, 0, -1):
        u = rng.randint(1, l)
        v = l if l not in covered else rng.randint(1, l)
        pair = (min(u, v), max(u, v))
        covered.update(pair)
        pairs[l - 1] = pair
    return ";".join(f"{u},{v}" for u, v in pairs)


def dellac(rng: random.Random, n: int) -> str:
    """Rows 1..2n in order.  Columns 1..c must be full by row c+n, so after
    row i the free slots of columns <= c may not exceed c+n-i.  A column
    whose slack is already 0 bounds the choice of this row from above."""
    rem = [2] * (n + 1)
    rem[0] = 0
    cols = []
    for i in range(1, 2 * n + 1):
        lo, hi = max(1, i - n), min(i, n)
        free = 0
        for c in range(1, n + 1):
            free += rem[c]
            if c >= lo and free == c + n - i + 1:
                hi = min(hi, c)
                break
        choice = rng.choice([c for c in range(lo, hi + 1) if rem[c]])
        rem[choice] -= 1
        cols.append(choice)
    return " ".join(map(str, cols))


def pd2n(rng: random.Random, n: int) -> str:
    """A Dumont permutation of the second kind of [2n+2], then normalized.

    Odd positions p need a value > p and even positions a value < p, so a
    set of remaining positions can use only a prefix (evens) and a suffix
    (odds) of the free values; filling left to right, a value is allowed
    when Hall's condition still holds for every such prefix-suffix pair.
    Exchanging the values 2i and 2i+1 keeps both conditions, which gives
    the normalization.
    """
    m = 2 * n + 2
    free = [True] * (m + 2)
    free[0] = free[m + 1] = False
    word = []
    for p in range(1, m + 1):
        below = [0] * (m + 2)  # below[x] = free values <= x
        for x in range(1, m + 1):
            below[x] = below[x - 1] + free[x]
        total = below[m]
        # f(R) = evens in (p, R] minus free values < R; g(Q) = odds in [Q, m]
        # minus free values > Q.  A tight pair (f + g = 0) forbids values
        # below its R or above its Q.
        f = {}
        evens = 0
        for r in range(p + 1, m + 1):
            if r % 2 == 0:
                evens += 1
                f[r] = evens - below[r - 1]
        g = {}
        odds = 0
        for q in range(m, p, -1):
            if q % 2:
                odds += 1
                g[q] = odds - (total - below[q])
        best_g_from = {}
        run = 0
        for r in range(m + 1, p, -1):
            if r - 1 in g:
                run = max(run, g[r - 1])
            best_g_from[r] = run  # max(0, g(Q)) over Q >= r - 1
        low, high = 1, m
        best_f = 0
        for r in range(p + 1, m + 1):
            if r in f:
                if f[r] + best_g_from[r] == 0:
                    low = max(low, r)
                best_f = max(best_f, f[r])
            if r in g and g[r] + max(best_f, f.get(r + 1, 0)) == 0:
                high = min(high, r)
        if p % 2:
            low = max(low, p + 1)
        else:
            high = min(high, p - 1)
        value = rng.choice([v for v in range(low, high + 1) if free[v]])
        free[value] = False
        word.append(value)
    where = {v: i for i, v in enumerate(word)}
    for v in range(2, m - 1, 2):
        if where[v] > where[v + 1]:
            word[where[v]], word[where[v + 1]] = v + 1, v
    return " ".join(map(str, word))


def lift(model: str, text: str) -> str:
    """An order n-1 object as the l = n object of order n, by definition:
    pd2n appends 2n+2, 2n+1; dellac puts column n into rows n and 2n;
    settuple appends {n}."""
    if model == "pd2n":
        m = len(text.split(" ")) + 2
        return f"{text} {m} {m - 1}"
    if model == "dellac":
        cols = text.split(" ")
        n = len(cols) // 2 + 1
        return " ".join(cols[: n - 1] + [str(n)] + cols[n - 1 :] + [str(n)])
    n = text.count(";") + 2
    return f"{text};{n}"


SAMPLERS = {
    "pd2n": pd2n,
    "dellac": dellac,
    "chain": chain,
    "settuple": settuple,
    "hetyei": hetyei,
}
