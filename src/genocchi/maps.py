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
the current subset, each value once) is asserted at every step that a call
of either direction computes: the OR of the pool entries' bits must equal
the complement of the subset's bit mask, and the pool must have n-k
entries, so no entry repeats.  Any violation aborts with the step number,
pool and subset, since it can only mean an implementation bug.

Each direction resumes where its last call left off.  Step k of phi
depends on I_1 .. I_k alone, and step k of phi_inverse on the pairs of
slots n .. n-k+1 alone.  So each keeps one snapshot of its last call that
returned: one tuple of the pool helpers it ran with (_grow_pool, _swap_pool
and _check_pool), the order, the input's components, and for each k =
0 .. n the state after step k (the pool and the subset's mask; for
phi_inverse also the positions replayed and I_k), O(n) entries whose pools,
pairs and subsets are the very tuples the call returns.  A call at the
same order takes the state after the steps its input shares with that
input (the longest common prefix of subsets for phi, the longest common
suffix of pairs for phi_inverse) and computes only the later steps, each with its pool check; the steps it takes over
were checked when they were computed.  The snapshot is set only after a
call succeeds, and replaced whole, so a caller on another thread sees one
call's state or another's and at worst misses a resume.  It is not used at
another order, nor once any pool helper is no longer the object it was
made with, as when a test patches one, and it keeps the last call's input
and output alive until the next call replaces it.  verify maps the chains
in text order, where neighbours share most of their first subsets, and the
pair tuples in the order phi first reached them, where neighbours share
most of their last pairs.

Both directions of phi keep the subset I_k as a bit mask (bit v set for
each member v).  settuple_to_chain grows I_i as an ascending list;
closed_form_chain reads each value's last position once, builds I_i as a
bit mask from the values seen and those that straddle i, and shares no code
with it, so that each checks the other.
"""

from __future__ import annotations

from bisect import insort
from functools import lru_cache
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


@lru_cache(maxsize=1024)
def _members(mask: int) -> tuple[int, ...]:
    """The values v whose bit 1 << v is set in mask, ascending: the
    subsets that closed_form_chain and phi_inverse build as masks."""
    return tuple([v for v in range(mask.bit_length()) if mask >> v & 1])


def closed_form_chain(s: SetTuple) -> FeiginChain:
    """Direct expression for the same chain, used as a cross-check:

    I_i = the values first seen in S_1..S_i, minus the values v <= i whose
    two occurrence positions straddle i.
    """
    # as bit masks: seen, the values met so far, and out, the values that
    # straddle i.  A value that occurs twice occurs before its own position
    # (the settuple's definition), so it straddles i exactly from i = v, when
    # it has been seen already and occurs again, up to its last position
    _, n, sets = s
    last = [0] * (n + 1)
    for j, part in enumerate(sets, 1):
        for v in part:
            last[v] = j
    seen = out = 0
    acc: list[tuple[int, ...]] = [()]
    for i, part in enumerate(sets, 1):
        if seen >> i & 1 and last[i] > i:
            out |= 1 << i
        for v in part:
            if last[v] == i:
                out &= ~(1 << v)
            seen |= 1 << v
        acc.append(_members(seen & ~out))
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


# the snapshot of the last call of each direction that returned (see the
# module docstring), read once by a call and replaced whole
_phi_last = None
_inverse_last = None


def phi_trace(chain: FeiginChain) -> tuple[HetyeiTuple, tuple[tuple[int, ...], ...]]:
    """phi plus its intermediate pools (L_0, L_1, .., L_n)."""
    global _phi_last
    _, n, subsets = chain
    helpers = grow, swap, check = _grow_pool, _swap_pool, _check_pool
    last = _phi_last
    k = 0  # the steps done: step k depends on I_1 .. I_k alone
    if last is not None and last[0] == helpers and last[1] == n:
        _, _, seen, masks, pools, pairs = last
        while k < n and subsets[k + 1] == seen[k + 1]:
            k += 1
        # entries after step k are overwritten below
        masks, pools, pairs = list(masks), list(pools), list(pairs)
    else:
        masks, pools, pairs = [0] * (n + 1), [tuple(range(n, 0, -1))] * (n + 1), [(0, 0)] * n
    pool, prev = pools[k], masks[k]  # L_k and I_k, bit v set for each member v
    for k in range(k + 1, n + 1):
        cur = 0
        for v in subsets[k]:
            cur |= 1 << v
        slot = n - k + 1
        added = cur & ~prev
        if not prev & ~cur:
            # p <= slot, the pool's length before this step
            p = pool.index(added.bit_length() - 1) + 1
            pairs[slot - 1] = (p, p) if prev >> k & 1 else (p, slot)
            pool = grow(pool, p)
        else:
            # I_k = (I_{k-1} - {k}) + {x, y}, x the low and y the high new bit
            x, y = (added & -added).bit_length() - 1, added.bit_length() - 1
            p, q = pool.index(x) + 1, pool.index(y) + 1
            if p > q:
                p, q = q, p
            pairs[slot - 1] = (p, q)
            pool = swap(pool, p, q, k)
        check(pool, cur, n, k)
        pools[k], masks[k] = pool, cur
        prev = cur
    pairs, pools = tuple(pairs), tuple(pools)
    _phi_last = (helpers, n, subsets, tuple(masks), pools, pairs)
    return _trusted(HetyeiTuple, n, pairs), pools


def phi(chain: FeiginChain) -> HetyeiTuple:
    """The chain -> pair-tuple bijection; preserves k and l."""
    return phi_trace(chain)[0]


def phi_inverse(m: HetyeiTuple) -> FeiginChain:
    """Inverse of phi, replaying pair slots from n down to 1."""
    global _inverse_last
    _, n, pairs = m
    helpers = grow, swap, check = _grow_pool, _swap_pool, _check_pool
    last = _inverse_last
    k = 0  # the steps done: step k depends on the pairs of slots n .. n-k+1 alone
    if last is not None and last[0] == helpers and last[1] == n:
        _, _, seen, pools, masks, replays, acc = last
        while k < n and pairs[n - 1 - k] == seen[n - 1 - k]:
            k += 1
        # entries after step k are overwritten below
        pools, masks, replays, acc = list(pools), list(masks), list(replays), list(acc)
    else:
        pools, acc = [tuple(range(n, 0, -1))] * (n + 1), [()] * (n + 1)
        masks, replays = [0] * (n + 1), [0] * (n + 1)
    pool, cur = pools[k], masks[k]  # L_k and I_k, bit v set for each member v
    replayed = replays[k]  # bit j set once j is an entry of a replayed pair
    for k in range(k + 1, n + 1):
        slot = n - k + 1
        u, v = pairs[slot - 1]
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
            pool = grow(pool, u)
        else:
            if not cur >> k & 1:
                raise RuntimeError(
                    f"swap step at slot {slot} but {k} is absent from the subset"
                )
            x, y = pool[u - 1], pool[v - 1]
            cur = cur & ~(1 << k) | 1 << x | 1 << y
            pool = swap(pool, u, v, k)
        check(pool, cur, n, k)
        replayed |= 1 << u | 1 << v
        pools[k] = pool
        masks[k] = cur
        replays[k] = replayed
        acc[k] = _members(cur)
    acc = tuple(acc)
    _inverse_last = (helpers, n, pairs, tuple(pools), tuple(masks), tuple(replays), acc)
    return _trusted(FeiginChain, n, acc)


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
