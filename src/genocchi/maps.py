"""Bijections, involutions, and order reductions between the five families.

Everything here preserves or transports the (k, l) statistics in a
controlled way:

    chain_to_settuple / settuple_to_chain   k -> k, l -> l
    phi / phi_inverse (chain <-> hetyei)    k -> k, l -> l
    involution_t (pd2n, dellac, settuple)   (k, l) -> (l, k)
    involution_r (pd2n, dellac, settuple)   (k, l) -> (n+1-l, n+1-k)
    reduce / lift                           l = n objects <-> order n-1
    embed_permutation                       S_n into the singleton settuples

The bodies of t, r, reduce and lift live in models, as the methods _t,
_r, _reduce and _lift of DumontPermutation, DellacConfiguration and
SetTuple.  The functions here call the argument's method, raise TypeError
on any other family before doing anything else, and, for reduce, check
once that l = n and n >= 2.

Inputs are objects that were validated when they were built.  Every map
builds its image through the trusted constructor of models, without
validating it again, since the image of a valid object is valid by
construction; embed_permutation checks its word first.

The chain <-> pair-tuple bijection phi walks k = 1 .. n and maintains a
pool: a sequence L_k listing [n] minus I_k, started at L_0 = (n, .., 1).
Step k consumes the pair slot at position n-k+1 and updates the pool:

  growth step, I_k = I_{k-1} + {j_p} (j_p = p-th pool entry):
      pair = {p, p} if k is already in I_{k-1}, else {p, n-k+1};
      the pool's last entry moves into the vacated position p and the pool
      shrinks by one (pure truncation when p is the last position).
  swap step, I_k = (I_{k-1} - {k}) + {j_p, j_q}, p < q:
      pair = {p, q}; the last entry moves into position p, k moves into
      position q, and the pool shrinks by one (when q is the last
      position, k moves into position p instead).

phi_inverse replays the pairs from slot n down to slot 1.  A slot whose
pair {u, v} has u = v, or whose position n-k+1 never occurs among the
already-replayed pairs, is a growth step (the pair is then {p, p} or
{p, n-k+1}, which pins p); every other slot is a swap step with
{p, q} = {u, v}.  The pool invariant (the pool lists the complement of
the current subset, each value once) is asserted at every step of both
directions: the OR of the pool entries' bits must equal the complement of
the subset's bit mask, and the pool must have n-k entries, so no entry
repeats.  Any violation aborts with the step number, pool and subset,
since it can only mean an implementation bug.

Both directions of phi keep the subset I_k as a bit mask (bit v set for
each member v).  settuple_to_chain grows I_i as an ascending list;
closed_form_chain reads each value's first and last positions once and
shares no code with it, so that each checks the other.
"""

from __future__ import annotations

from bisect import insort
from typing import Sequence

from .models import (
    FeiginChain,
    HetyeiTuple,
    ModelInvariantError,
    SetTuple,
    _trusted,
    l_statistic,
)

__all__ = [
    "chain_to_settuple",
    "settuple_to_chain",
    "closed_form_chain",
    "phi",
    "phi_trace",
    "phi_inverse",
    "involution_t",
    "involution_r",
    "reduce",
    "lift",
    "embed_permutation",
]


# ---------------------------------------------------------------------------
# chain <-> settuple


def chain_to_settuple(chain: FeiginChain) -> SetTuple:
    """S_i = I_i minus I_{i-1}."""
    subsets = chain.subsets
    parts = tuple([
        tuple([v for v in cur if v not in prev])
        for prev, cur in zip(subsets, subsets[1:])
    ])
    return _trusted(SetTuple, chain.n, parts)


def settuple_to_chain(s: SetTuple) -> FeiginChain:
    """Rebuild the chain: grow by S_i, dropping i first whenever #S_i = 2."""
    cur: list[int] = []  # I_i, ascending
    acc: list[tuple[int, ...]] = [()]
    for i, part in enumerate(s.sets, 1):
        if len(part) == 2:
            cur.remove(i)  # i entered with its first occurrence, before S_i
        for v in part:
            insort(cur, v)
        acc.append(tuple(cur))
    return _trusted(FeiginChain, s.n, tuple(acc))


def closed_form_chain(s: SetTuple) -> FeiginChain:
    """Direct expression for the same chain, used as a cross-check:

    I_i = the values first seen in S_1..S_i, minus the values v <= i whose
    two occurrence positions straddle i.
    """
    n = s.n
    first = [0] * (n + 1)
    last = [0] * (n + 1)
    for j, part in enumerate(s.sets, 1):
        for v in part:
            if not first[v]:
                first[v] = j
            last[v] = j
    values = range(1, n + 1)
    acc: list[tuple[int, ...]] = [()]
    for i in values:
        acc.append(tuple([
            v for v in values
            if first[v] <= i and not (v <= i and first[v] < i < last[v])
        ]))
    return _trusted(FeiginChain, n, tuple(acc))


# ---------------------------------------------------------------------------
# phi: chains <-> pair tuples


def _grow_pool(pool: tuple[int, ...], p: int) -> tuple[int, ...]:
    out = list(pool)
    out[p - 1] = out[-1]  # no-op when p is the last position
    out.pop()
    return tuple(out)


def _swap_pool(pool: tuple[int, ...], p: int, q: int, k: int) -> tuple[int, ...]:
    out = list(pool)
    if q == len(out):
        out[p - 1] = k
    else:
        out[p - 1] = out[-1]
        out[q - 1] = k
    out.pop()
    return tuple(out)


def _check_pool(pool: tuple[int, ...], members: int, n: int, k: int) -> None:
    """The pool lists [n] minus members (a bit mask) once each: its mask is
    the complement and it has one entry per value, so no entry repeats."""
    mask = 0
    for v in pool:
        mask |= 1 << v
    if mask != (1 << n + 1) - 2 & ~members or len(pool) != n - k:
        raise RuntimeError(
            f"pool invariant broken at step {k}: pool={pool}, "
            f"subset={[v for v in range(1, n + 1) if members >> v & 1]}"
        )


def phi_trace(chain: FeiginChain) -> tuple[HetyeiTuple, tuple[tuple[int, ...], ...]]:
    """phi plus its intermediate pools (L_0, L_1, .., L_n)."""
    n = chain.n
    pool = tuple(range(n, 0, -1))
    pools = [pool]
    pairs: list[tuple[int, int]] = [(0, 0)] * n
    prev = 0  # I_{k-1}, bit v set for each member v
    for k, part in enumerate(chain.subsets[1:], 1):
        cur = 0
        for v in part:
            cur |= 1 << v
        slot = n - k + 1
        added = cur & ~prev
        if not prev & ~cur:
            # p <= slot, the pool's length before this step
            p = pool.index(added.bit_length() - 1) + 1
            pairs[slot - 1] = (p, p) if prev >> k & 1 else (p, slot)
            pool = _grow_pool(pool, p)
        else:
            # I_k = (I_{k-1} - {k}) + {x, y}, x the low and y the high new bit
            x, y = (added & -added).bit_length() - 1, added.bit_length() - 1
            p, q = pool.index(x) + 1, pool.index(y) + 1
            if p > q:
                p, q = q, p
            pairs[slot - 1] = (p, q)
            pool = _swap_pool(pool, p, q, k)
        _check_pool(pool, cur, n, k)
        pools.append(pool)
        prev = cur
    return _trusted(HetyeiTuple, n, tuple(pairs)), tuple(pools)


def phi(chain: FeiginChain) -> HetyeiTuple:
    """The chain -> pair-tuple bijection; preserves k and l."""
    return phi_trace(chain)[0]


def phi_inverse(m: HetyeiTuple) -> FeiginChain:
    """Inverse of phi, replaying pair slots from n down to 1."""
    n = m.n
    pool = tuple(range(n, 0, -1))
    cur = 0  # I_k, bit v set for each member v
    members: list[int] = []  # I_k, ascending
    acc: list[tuple[int, ...]] = [()]
    replayed = 0  # bit j set once j is an entry of a replayed pair
    for k in range(1, n + 1):
        slot = n - k + 1
        u, v = m.pairs[slot - 1]
        if u == v or not replayed >> slot & 1:
            # growth step: the pair must be {p, p} or {p, slot}
            if u != v and v != slot:
                raise RuntimeError(
                    f"pair ({u},{v}) at slot {slot} fits no growth form; tuple is corrupt"
                )
            added = pool[u - 1]
            if cur >> added & 1:
                raise RuntimeError(f"replay error at step {k}: {added} already present")
            cur |= 1 << added
            insort(members, added)
            pool = _grow_pool(pool, u)
        else:
            if not cur >> k & 1:
                raise RuntimeError(
                    f"swap step at slot {slot} but {k} is absent from the subset"
                )
            x, y = pool[u - 1], pool[v - 1]
            cur = cur & ~(1 << k) | 1 << x | 1 << y
            members.remove(k)
            insort(members, x)
            insort(members, y)
            pool = _swap_pool(pool, u, v, k)
        _check_pool(pool, cur, n, k)
        replayed |= 1 << u | 1 << v
        acc.append(tuple(members))
    return _trusted(FeiginChain, n, tuple(acc))


# ---------------------------------------------------------------------------
# involutions, order reduction and lift: methods of the families that carry them


def _method(obj, name: str, attr: str):
    """The method attr of obj that implements the map name; TypeError when
    obj's family does not carry the map."""
    try:
        return getattr(obj, attr)
    except AttributeError:
        raise TypeError(f"{name} is not defined for {type(obj).__name__}") from None


def involution_t(obj):
    """Exchange the two statistics: maps a (k, l) object to an (l, k) object."""
    return _method(obj, "involution_t", "_t")()


def involution_r(obj):
    """Half-turn symmetry: maps a (k, l) object to an (n+1-l, n+1-k) object."""
    return _method(obj, "involution_r", "_r")()


def reduce(obj):
    """Strip an l = n object down to order n-1 (defined for n >= 2)."""
    strip = _method(obj, "reduce", "_reduce")
    l = l_statistic(obj)
    if l != obj.n:
        raise ModelInvariantError(
            f"reduce needs l = n, but this object has l = {l} at order {obj.n}"
        )
    if obj.n < 2:
        raise ModelInvariantError("order 0 objects are not representable; need n >= 2")
    return strip()


def lift(obj):
    """Inverse of reduce: embed an order n-1 object as an l = n object of order n."""
    return _method(obj, "lift", "_lift")()


def embed_permutation(word: Sequence[int]) -> SetTuple:
    """Embed a permutation word of [n] as the singleton tuple ({w_1}, .., {w_n}).

    The image is exactly the set of settuples whose parts are all singletons.
    """
    n = len(word)
    # ints only: 2.0 or True would pass the comparison but not serialize as a
    # number; and one letter at least, as a settuple has order >= 1
    if not n or any(type(v) is not int for v in word) or sorted(word) != list(range(1, n + 1)):
        raise ModelInvariantError(f"{tuple(word)} is not a permutation of 1..{n}")
    return _trusted(SetTuple, n, tuple((v,) for v in word))
