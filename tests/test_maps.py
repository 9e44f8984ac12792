"""Bijections, involutions, order maps: worked examples and exhaustive sweeps.

The worked order-5 trace (pairs plus every intermediate pool) is pinned
exactly; the exhaustive sweeps then confirm the maps are mutually inverse
and transport the statistics the way the cell placements require.
"""

from __future__ import annotations

import random
import re
import sys
import threading
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from conftest import cached_objects, rebuilt
from genocchi import maps, models
from genocchi.models import ModelInvariantError


def obj(model, text):
    return models.parse(model, text)


# ---------------------------------------------------------------------------
# chain <-> settuple


def test_chain_to_settuple_worked_example():
    chain = obj("chain", ";3;1,3;1,3,4;1,2,3,5;1,2,3,4,5")
    assert models.serialize(maps.chain_to_settuple(chain)) == "3;1;4;2,5;4"


def test_settuple_to_chain_worked_example():
    s = obj("settuple", "3;1;4;2,5;4")
    assert models.serialize(maps.settuple_to_chain(s)) == ";3;1,3;1,3,4;1,2,3,5;1,2,3,4,5"
    assert maps.closed_form_chain(s) == maps.settuple_to_chain(s)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_chain_settuple_roundtrip_exhaustive(n, objects):
    for chain in objects("chain", n):
        s = maps.chain_to_settuple(chain)
        assert maps.settuple_to_chain(s) == chain
        assert maps.closed_form_chain(s) == chain
        assert models.statistics(s) == models.statistics(chain)
    for s in objects("settuple", n):
        assert maps.chain_to_settuple(maps.settuple_to_chain(s)) == s


# ---------------------------------------------------------------------------
# phi


def test_phi_worked_example_with_pools():
    chain = obj("chain", ";3;1,3;1,3,4;1,2,3,5;1,2,3,4,5")
    image, pools = maps.phi_trace(chain)
    assert models.serialize(image) == "1,1;1,2;2,2;3,4;3,5"
    assert pools == (
        (5, 4, 3, 2, 1),
        (5, 4, 1, 2),
        (5, 4, 2),
        (5, 2),
        (4,),
        (),
    )


def test_phi_small_examples():
    assert models.serialize(maps.phi(obj("chain", ";3;1,3;1,2,3"))) == "1,1;1,2;1,3"
    assert models.serialize(maps.phi_inverse(obj("hetyei", "1,1;1,1;2,3"))) == ";2;2,3;1,2,3"


# I_1 = {2} grows, I_2 = {1, 3} swaps 2 out: both pool updates run at an
# order-5 pool of three entries or more
SWAP_CHAIN = ";2;1,3;1,2,3;1,2,3,4;1,2,3,4,5"
# each fault keeps the pool's length or its set of values, so the check
# must test both: one entry duplicated, one value swapped for a member of
# the subset (one of 1..5 the pool lacks), one entry listed twice
POOL_FAULTS = {
    "duplicated": lambda out: (out[0], *out[1:-1], out[0]),
    "member": lambda out: (min(set(range(1, 6)) - set(out)), *out[1:]),
    "repeated": lambda out: (*out, out[0]),
}


@pytest.mark.parametrize("helper", ["_grow_pool", "_swap_pool"])
@pytest.mark.parametrize("fault", POOL_FAULTS)
@pytest.mark.parametrize("direction", ["phi", "phi_inverse"])
def test_pool_check_fires_at_the_faulty_step(monkeypatch, helper, fault, direction):
    chain = obj("chain", SWAP_CHAIN)
    start = chain if direction == "phi" else maps.phi(chain)
    faulted = []  # one entry per step: whether its new pool was broken

    def counted(name):
        real = getattr(maps, name)

        def update(pool, *args):
            out = real(pool, *args)
            faulted.append(name == helper and len(out) >= 3)
            return POOL_FAULTS[fault](out) if faulted[-1] else out

        return update

    for name in ("_grow_pool", "_swap_pool"):
        monkeypatch.setattr(maps, name, counted(name))
    with pytest.raises(RuntimeError,
                       match=r"^pool invariant broken at step \d+: pool=\(.*\), subset=\[.*\]$"
                       ) as caught:
        getattr(maps, direction)(start)
    # the check runs at every step, so the first broken pool stops the map
    assert faulted.index(True) == len(faulted) - 1
    assert str(caught.value).startswith(f"pool invariant broken at step {len(faulted)}:")


@pytest.mark.parametrize("helper", ["_grow_pool", "_swap_pool"])
@pytest.mark.parametrize("fault", POOL_FAULTS)
@pytest.mark.parametrize("direction", ["phi", "phi_inverse"])
def test_a_resumed_map_checks_every_step_it_computes(monkeypatch, helper, fault, direction):
    # a map resumes only with the helpers it saved its state with: after
    # both directions have mapped SWAP_CHAIN unpatched, a patched helper runs,
    # and is checked, at every step, so its fault fires as from a fresh state
    chain = obj("chain", SWAP_CHAIN)
    start = chain if direction == "phi" else maps.phi(chain)
    faulted = []  # one entry per step: whether its new pool was broken

    def counted(name):
        real = getattr(maps, name)

        def update(pool, *args):
            out = real(pool, *args)
            faulted.append(name == helper and len(out) >= 3)
            return POOL_FAULTS[fault](out) if faulted[-1] else out

        return update

    patched = {name: counted(name) for name in ("_grow_pool", "_swap_pool")}

    def fault_and_step():
        del faulted[:]
        with monkeypatch.context() as m:
            for name, update in patched.items():
                m.setattr(maps, name, update)
            with pytest.raises(RuntimeError, match=r"^pool invariant broken") as caught:
                getattr(maps, direction)(start)
        return str(caught.value), len(faulted)

    fresh = fault_and_step()
    assert maps.phi_inverse(maps.phi(chain)) == chain
    assert fault_and_step() == fresh
    # the first broken pool stops the map, at the step the message names
    assert faulted.index(True) == len(faulted) - 1
    assert fresh[0].startswith(f"pool invariant broken at step {fresh[1]}:")


# phi_inverse's three errors besides the pool check, each on a replay built
# unvalidated: its pairs; pairs that replay without error and end in the
# same `shared` pairs; the fault of the pool helpers the error needs; the
# message; and the step it stops at.  With correct helpers the pool lists
# the complement of the subset, so a value read from it is never present
# already, and a slot that an earlier pair named has put its step's value
# in the subset.  The other two errors need helpers that break this:
# "rotated" turns the pool after each growth step, which keeps its values,
# so the pool check passes; "kept" leaves the value a growth step takes in
# the pool, which only a pool check that checks nothing lets through.
PHI_INVERSE_ERRORS = [
    (((1, 1), (1, 1), (1, 2), (1, 2), (4, 5)), ((1, 1), (1, 1), (1, 3), (1, 2), (4, 5)), 2,
     None, "pair (1,2) at slot 3 fits no growth form; tuple is corrupt", 3),
    (((1, 1), (1, 2), (2, 2), (3, 4)), ((1, 1), (1, 1), (2, 2), (3, 4)), 2,
     "rotated", "swap step at slot 2 but 3 is absent from the subset", 3),
    (((1, 1), (1, 1), (1, 2), (3, 4)), ((1, 1), (1, 2), (1, 2), (3, 4)), 2,
     "kept", "replay error at step 4: 2 already present", 4),
]


@pytest.mark.parametrize("corrupt,fine,shared,fault,message,step", PHI_INVERSE_ERRORS,
                         ids=["growth-form", "swap-absent", "replay-present"])
def test_phi_inverse_stops_a_corrupt_replay_at_its_step(monkeypatch, corrupt, fine, shared,
                                                       fault, message, step):
    checked = []  # the step of each pool check
    real_grow, real_check = maps._grow_pool, maps._check_pool

    def grow(pool, p):
        if fault == "kept":
            return pool[:-1]
        out = real_grow(pool, p)
        return out[1:] + out[:1] if fault == "rotated" else out

    def check(pool, members, n, k):
        checked.append(k)
        if fault != "kept":
            real_check(pool, members, n, k)

    # new helpers: nothing saved before this test is resumed
    monkeypatch.setattr(maps, "_grow_pool", grow)
    monkeypatch.setattr(maps, "_check_pool", check)
    n = len(corrupt)
    bad, good = (models._trusted(models.HetyeiTuple, n, pairs) for pairs in (corrupt, fine))
    assert corrupt[n - shared:] == fine[n - shared:]
    assert corrupt[n - shared - 1] != fine[n - shared - 1]
    pattern = f"^{re.escape(message)}$"
    with pytest.raises(RuntimeError, match=pattern):
        maps.phi_inverse(bad)
    assert checked == list(range(1, step))
    maps.phi_inverse(good)
    del checked[:]
    # resumed after the shared pairs: each later step before the error is checked
    with pytest.raises(RuntimeError, match=pattern):
        maps.phi_inverse(bad)
    assert checked == list(range(shared + 1, step))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_phi_roundtrip_exhaustive(n, objects):
    image = set()
    for chain in objects("chain", n):
        m = maps.phi(chain)
        assert maps.phi_inverse(m) == chain
        assert models.statistics(m) == models.statistics(chain)
        image.add(m)
    assert image == set(objects("hetyei", n))
    for m in objects("hetyei", n):
        assert maps.phi(maps.phi_inverse(m)) == m


def _in_orders(fn, objs, other) -> dict[str, list]:
    """fn of each of objs, in objs' order, from the calls made in each
    order: text, reversed, shuffled, interleaved with calls on `other`, an
    object of another order (so no call resumes), and from two threads
    mapping interleaved halves."""
    count = len(objs)
    shuffled = list(range(count))
    random.Random(count).shuffle(shuffled)
    runs = {"text": [fn(o) for o in objs],
            "reversed": [fn(o) for o in reversed(objs)][::-1],
            "shuffled": [None] * count,
            "fresh": [(fn(other), fn(o))[1] for o in objs]}
    for i in shuffled:
        runs["shuffled"][i] = fn(objs[i])
    threaded = runs["threads"] = [None] * count

    def half(start: int) -> None:
        for i in range(start, count, 2):
            threaded[i] = fn(objs[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        workers = [threading.Thread(target=half, args=(start,)) for start in (0, 1)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    return runs


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, pytest.param(7, marks=pytest.mark.slow)])
def test_resumed_phi_maps_agree_in_any_call_order(n, objects):
    # phi resumes after the subsets its last chain began with, phi_inverse
    # after the pairs its last tuple ended in; the order of the calls, and a
    # second thread's calls between them, change no image
    chains, tuples = objects("chain", n), objects("hetyei", n)
    other = 2 if n == 1 else 1
    images = _in_orders(maps.phi, chains, objects("chain", other)[0])
    preimages = _in_orders(maps.phi_inverse, tuples, objects("hetyei", other)[0])
    for runs in (images, preimages):
        for name, got in runs.items():
            assert got == runs["fresh"], name
    inverse = dict(zip(tuples, preimages["fresh"]))
    assert [inverse[m] for m in images["fresh"]] == list(chains)
    assert sorted(map(models.serialize, images["fresh"])) == list(map(models.serialize, tuples))


def test_redundancy_transport_small(objects):
    for m in objects("hetyei", 4):
        assert models.statistics(m) == models.statistics(maps.phi_inverse(m))


# ---------------------------------------------------------------------------
# involutions


def test_involution_t_examples():
    assert models.serialize(maps.involution_t(obj("pd2n", "4 1 6 2 7 5 8 3"))) == "2 1 6 3 7 4 8 5"
    assert models.serialize(maps.involution_t(obj("dellac", "1 2 2 1 3 3"))) == "1 2 1 2 3 3"
    assert models.serialize(maps.involution_t(obj("settuple", "1;3;2"))) == "3;1;2"
    fixed = obj("settuple", "2;1,3;2")
    assert maps.involution_t(fixed) == fixed


def test_involution_r_examples():
    palindrome = obj("pd2n", "2 1 4 3 6 5 8 7")
    assert maps.involution_r(palindrome) == palindrome
    assert models.serialize(maps.involution_r(obj("dellac", "1 2 2 1 3 3"))) == "1 1 3 2 2 3"
    assert models.serialize(maps.involution_r(obj("settuple", "1;3;2"))) == "2;1;3"


@pytest.mark.parametrize("model", ["pd2n", "dellac", "settuple"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_involution_properties_exhaustive(model, n, objects):
    universe = set(objects(model, n))
    for o in universe:
        k, l = models.statistics(o)
        t = maps.involution_t(o)
        assert t in universe and maps.involution_t(t) == o
        assert models.statistics(t) == (l, k)
        if k == l:
            assert t == o
        r = maps.involution_r(o)
        assert r in universe and maps.involution_r(r) == o
        assert models.statistics(r) == (n + 1 - l, n + 1 - k)


def test_involutions_commute_on_examples(objects):
    # t r t r is the identity whenever t and r commute; spot-check order 4
    for o in objects("settuple", 4):
        tr = maps.involution_t(maps.involution_r(o))
        rt = maps.involution_r(maps.involution_t(o))
        assert tr == rt


def test_involutions_undefined_for_chains():
    # ";2;1,2" has l = 1 at order 2: the TypeError comes before reduce's l = n check
    for name in ("involution_t", "involution_r", "reduce", "lift"):
        for model, cls, text in (("chain", "FeiginChain", ";1;1,2"),
                                 ("chain", "FeiginChain", ";2;1,2"),
                                 ("hetyei", "HetyeiTuple", "1,1;2,2")):
            with pytest.raises(TypeError, match=f"^{name} is not defined for {cls}$"):
                getattr(maps, name)(obj(model, text))


# ---------------------------------------------------------------------------
# reduce / lift


def test_reduce_examples():
    assert models.serialize(maps.reduce(obj("dellac", "1 2 3 1 2 3"))) == "1 2 1 2"
    assert models.serialize(maps.reduce(obj("settuple", "1;2;3"))) == "1;2"
    assert models.serialize(maps.lift(obj("pd2n", "2 1 4 3 6 5"))) == "2 1 4 3 6 5 8 7"


def test_reduce_requires_primed_object():
    with pytest.raises(ModelInvariantError,
                       match=r"^reduce needs l = n, but this object has l = 2 at order 3$"):
        maps.reduce(obj("settuple", "1;3;2"))
    with pytest.raises(ModelInvariantError,
                       match=r"^order 0 objects are not representable; need n >= 2$"):
        maps.reduce(obj("pd2n", "2 1 4 3"))  # order 1 reduces below the domain


@pytest.mark.parametrize("model", ["pd2n", "dellac", "settuple"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_reduce_is_a_bijection_on_the_primed_class(model, n, objects):
    primed = [o for o in objects(model, n) if models.l_statistic(o) == n]
    reduced = [maps.reduce(o) for o in primed]
    assert len(primed) == len(objects(model, n - 1))
    assert set(reduced) == set(objects(model, n - 1))
    for o, r in zip(primed, reduced):
        assert maps.lift(r) == o


@pytest.mark.parametrize("model", ["pd2n", "dellac", "settuple"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_lift_lands_in_the_primed_class(model, n, objects):
    for o in objects(model, n):
        lifted = maps.lift(o)
        assert lifted.n == n + 1
        assert models.l_statistic(lifted) == n + 1
        assert models.k_statistic(lifted) == models.k_statistic(o)
        assert maps.reduce(lifted) == o


# ---------------------------------------------------------------------------
# embedding


def test_embed_examples():
    assert models.serialize(maps.embed_permutation((3, 1, 2))) == "3;1;2"
    assert models.serialize(maps.embed_permutation((1,))) == "1"
    with pytest.raises(ModelInvariantError):
        maps.embed_permutation((1, 3))
    with pytest.raises(ModelInvariantError):
        maps.embed_permutation((2, 2, 1))
    # the word is checked before the image is built unvalidated
    for word in ((2.0, 1.0), (True,), ("1",), ()):
        with pytest.raises(ModelInvariantError):
            maps.embed_permutation(word)


def test_embed_image_is_the_singleton_class(objects):
    from itertools import permutations
    from math import factorial

    for n in (1, 2, 3, 4):
        image = {maps.embed_permutation(w) for w in permutations(range(1, n + 1))}
        singles = {s for s in objects("settuple", n) if all(len(p) == 1 for p in s.sets)}
        assert len(image) == factorial(n)
        assert image == singles


# ---------------------------------------------------------------------------
# sampled properties at a larger order


def _sampled(model, n=5):
    pool = cached_objects(model, n)
    return st.integers(min_value=0, max_value=len(pool) - 1).map(lambda i: pool[i])


@given(_sampled("chain"))
def test_phi_roundtrip_sampled(chain):
    m = maps.phi(chain)
    assert maps.phi_inverse(m) == chain
    assert models.statistics(m) == models.statistics(chain)


@given(_sampled("settuple"))
def test_settuple_roundtrip_sampled(s):
    assert maps.chain_to_settuple(maps.settuple_to_chain(s)) == s
    t = maps.involution_t(s)
    assert maps.involution_t(t) == s
    k, l = models.statistics(s)
    assert models.statistics(t) == (l, k)


@given(_sampled("pd2n"))
def test_pd2n_involutions_sampled(word):
    k, l = models.statistics(word)
    assert models.statistics(maps.involution_r(word)) == (6 - l, 6 - k)
    assert maps.involution_r(maps.involution_r(word)) == word


# ---------------------------------------------------------------------------
# images against the definitions


_IMAGE_MAPS = {
    "pd2n": (maps.involution_t, maps.involution_r, maps.lift),
    "dellac": (maps.involution_t, maps.involution_r, maps.lift),
    "chain": (maps.chain_to_settuple, maps.phi),
    "settuple": (maps.settuple_to_chain, maps.closed_form_chain, maps.involution_t,
                 maps.involution_r, maps.lift),
    "hetyei": (maps.phi_inverse,),
}


@pytest.mark.parametrize("model", models.MODEL_NAMES)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_map_images_pass_the_public_constructor(model, n, objects):
    # the maps build their images unvalidated
    images = [fn(o) for o in objects(model, n) for fn in _IMAGE_MAPS[model]]
    if model in ("pd2n", "dellac", "settuple") and n > 1:
        images += [maps.reduce(o) for o in objects(model, n) if models.l_statistic(o) == n]
    if model == "settuple":
        images += [maps.embed_permutation(w) for w in permutations(range(1, n + 1))]
    for image in images:
        again = rebuilt(image)
        assert again == image and hash(again) == hash(image), image
