"""Five families of combinatorial objects counted by normalized median Genocchi numbers.

For every order n >= 1 the families below all have normalized_genocchi(n)
elements, and each carries two statistics k, l in [n] whose marginal
distributions are both given by row n of the Kreweras triangle.

pd2n      normalized Dumont permutations of the second kind: words sigma of
          length 2n+2 with sigma(2i-1) > 2i-1, sigma(2i) < 2i, and each even
          value 2i appearing before 2i+1.  k: sigma(1) = 2k.  l: the last
          letter is 2l+1.
dellac    Dellac configurations: columns c_1 .. c_{2n} (c_i = column of the
          dot in row i) with every column used exactly twice and
          c_i <= i <= c_i + n.  k = c_{n+1}, l = c_n.
chain     increasing subset chains I_0 .. I_n of [n] with #I_i = i and
          I_{i-1} minus {i} contained in I_i.  k (resp. l): first index whose
          set contains 1 (resp. n).
settuple  tuples (S_1, .., S_n) of subsets of [n] with #S_i = #S_i^{-1} in
          {1, 2}, where S_i^{-1} = {j : i in S_j}, and two-element S_i^{-1}
          always straddling i.  k (resp. l): the unique j with 1 in S_j
          (resp. n in S_j).
hetyei    pair tuples ({u_1,v_1}, .., {u_n,v_n}) with u_l, v_l in [l] and the
          multiset of entries covering [n].  l: the last position whose pair
          contains 1 sits at n-l+1.  k: the largest redundant position sits
          at n-k+1 (see redundant_positions).

Each family class computes its own k and l, by the definition above, in
its methods _k and _l; callers read them through k_statistic, l_statistic
and statistics, against which the tests check the statistics a listing
folds (below).  pd2n, dellac and settuple also carry the involutions t
and r and the order maps reduce and lift, as the methods _t, _r, _reduce
and _lift; callers apply them through maps.involution_t, involution_r,
reduce and lift, which check the family and reduce's precondition l = n.
HetyeiTuple._k scans once down from position n, builds neither the chain
nor the set of redundant positions, and stops at the first of them: the
pair {n, n} at n, or below n the first pair that holds c, the largest
chain value at or below the position, which steps to the pair's u as the
scan reaches it.  redundancy_chain and redundant_positions compute the
same from the definition, for the verifier to check k against.

Canonical serializations (ASCII, no trailing whitespace):

    pd2n      "2 1 6 3 7 4 8 5"                   space-separated word
    dellac    "1 2 2 1 3 3"                       c_1 .. c_{2n}
    chain     ";3;1,3;1,3,4;1,2,3,5;1,2,3,4,5"    subsets I_0..I_n, ";"-separated,
                                                  values ascending, empty set = ""
    settuple  "2;1,3;2"                           subsets S_1..S_n
    hetyei    "1,1;1,2;2,2;3,4;3,5"               pairs "u,v" with u <= v

Each family states its rule once, as a step function: given a step i and a
state that keeps only what the later choices read, it lists the legal
choices of the i-th component, in any order, each with the state it
leaves; a rule writes no text.  The state is the used values for pd2n, the
column loads for dellac, I_{i-1} for chain, the covered values for hetyei,
and for settuple one bit a value: before step j, bit v says for v < j that
v has one occurrence still to come, and for v >= j that v has occurred.
The chain rule is its one choice: I_i is I_{i-1} without i plus i -
#(I_{i-1} minus {i}) values from outside that base.

Enumeration walks the rule depth first, and is the one place that knows
text order: it writes the fragment of each choice (the text it adds: the
component's text and the separator) and takes the choices in fragment
order.  The walk is one loop in one generator, which keeps its path in a
list, one frame for each state it walks from the root down, so it does not
recurse and an order is bounded by memory and time alone.  A memo of bounded size
keyed by (step, state) keeps, for the states met last, either their
choices in that order or, for a state with at most _BLOCK_SIZE
completions, the block of them, each as its text and its components; a
dead state's block is empty, so while it is remembered it costs a lookup
and not a walk.  The walk yields a block each time it follows a prefix,
with the prefix's text and its length in the walk's own list of
components, so an object below a block costs no step of the walk, only one
string and one tuple concatenation of the prefix and its completion, which
listing makes as it yields the object; listing copies a block's prefix
components once, and _lines never does.  listing yields each object
exactly once as the pair (its canonical serialization, the object),
written from the fragments without serializing the object again, and
asked for the statistics, as the quadruple (text, object, k, l): the
walk folds each family's statistics through its frames and blocks, a frame
keeping its prefix's summary and a block's completion its suffix's, so an
object's k and l take one join of the two and no statistic is computed
from the object.  The lines of
`enumerate` in the text format come a block at a time, each block as one
string (_lines), with no object built: the suffix lines of each (block,
prefix summary items it reads) the walk meets are rendered once, through
the fold's join, into one map that is dropped whole when full, and each
time the walk yields them again they are joined at the prefix's text.
enumerate_model yields the objects of the same walk.  Both are lazy
iterators, ordered lexicographically by the serialization, in memory that
does not grow with the count.  Orders beyond a resource guard (default
n <= 8, overridable) are refused at the call, before any object is built.
Enumerators are pure and each walk has its own memo, so concurrent or
repeated runs agree.

statistics_table gives the joint (k, l) table of a family without building
its objects.  It counts over the same rule as the walk, the same way for
every family: forward, the states each step reaches, then backward from
the last step, each state's completions by their suffix's summary, the
summary the walk's blocks keep, built by the same fold.  The fold moves a
state's table of counts whole through each choice (its carry): a choice
that marks nothing adds the table as it is, one that sets both k and l
adds its total under one key, and no mark is asked twice for the same
step and component.  At the root a summary is (k, l).  At order 8 a table
takes milliseconds where enumeration takes seconds; the same guard
applies to it.

Objects are immutable, hashable tuples (tag, n, data): the tag is a small
int per family, so objects of two families never compare equal, and the
data is also read by its name (word, row_columns, subsets, sets, pairs).
Invariants are validated at the boundary, once: the public constructor
shared by the five classes (DumontPermutation(n, word), ...,
HetyeiTuple(n, pairs)) and parse check every defining condition and raise
the first violation, as does maps.embed_permutation for its word.  Each
family's validator checks the order and the length (and for pd2n that the
word is a permutation), makes one left-to-right pass over the components,
then checks what needs the whole object (pd2n's normalization, dellac's
column loads, settuple's occurrences, hetyei's coverage).  The violation
raised is the first in that order: HetyeiTuple checks each pair's size,
then its order, then its range, before it reads the next pair.  The
constructor also takes only an int order and data of exact types, a tuple
of ints or of tuples of ints, so no bool, float or list, which equals an
int or a tuple but does not write as one, is built into an object.  The
enumerators and the maps, whose outputs are valid by construction, build
their objects through one trusted constructor that skips the check.  The
verifier checks each map image by its membership in the target family's
enumerated cell, whose every object it has validated through parse.

parse reads every text through one path: it splits the text at its
separator (" " for a word, ";" otherwise) and reads each piece through the
one reader of its grammar unit, a number, a subset or a pair.  Each reader
remembers the pieces it accepts in a memo of bounded size (_PART_MEMO_SIZE
pieces, least recently used dropped first), since the pieces repeat: at
order n a subset is one of the 2^n subsets of [n].  A refused piece raises
ModelSyntaxError, which no memo keeps, and the message names the whole text.
The writers mirror the readers: serialize joins, at the family's separator,
the texts of the components, each written by the one writer of its unit,
which remembers them in a memo of the same bounded size; the walk's
fragments come from the same writers.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterator
from functools import lru_cache
from itertools import chain, combinations
from operator import itemgetter, lt

from .triangles import normalized_genocchi

__all__ = [
    "ModelError",
    "ModelSyntaxError",
    "ModelInvariantError",
    "ResourceGuardError",
    "DumontPermutation",
    "DellacConfiguration",
    "FeiginChain",
    "SetTuple",
    "HetyeiTuple",
    "MODEL_NAMES",
    "parse",
    "serialize",
    "enumerate_model",
    "listing",
    "statistics_table",
    "marginal",
    "check_enumeration_guard",
    "k_statistic",
    "l_statistic",
    "statistics",
    "redundancy_chain",
    "redundant_positions",
    "hetyei_pair_count",
    "DEFAULT_ENUMERATION_LIMIT",
]

DEFAULT_ENUMERATION_LIMIT = 8


class ModelError(ValueError):
    """Base class for rejected model objects."""


class ModelSyntaxError(ModelError):
    """Input text does not follow the canonical grammar."""


class ModelInvariantError(ModelError):
    """Well-formed input that violates a defining invariant."""


class ResourceGuardError(RuntimeError):
    """Requested order exceeds the configured enumeration guard."""


# ---------------------------------------------------------------------------
# the grammar

# The canonical grammar, one reader and one writer a unit: _number and
# _write_number, _subset and _write_subset, _pair and _write_pair.  Each
# family states its separator, its reader and its writer once, as the class
# attributes _sep, _read and _write.  _parts splits a text at its separator
# and reads each piece through the reader; serialize joins the texts of the
# components at the separator, and the enumeration walk builds its texts
# from the same writer.  lru_cache stores no raised exception, so a reader's
# memo holds only the pieces it accepted, and a refused piece is refused
# again alike.  A writer's memo is keyed by the component, which equals and
# hashes alike whether its numbers are ints or bools (True == 1), so the
# public constructor refuses every number that is not an int (see
# _check_types): no component that would write "True" for 1 is ever built.

# the number of pieces each reader and each writer remembers: every subset
# of [n] up to order 12
_PART_MEMO_SIZE = 4096


def _parts(text: str, sep: str, read) -> tuple:
    """The pieces of text between the separators sep, each read by read;
    a refused piece raises ModelSyntaxError naming the whole text."""
    try:
        return tuple(map(read, text.split(sep)))
    except ModelSyntaxError as exc:
        raise ModelSyntaxError(f"{exc} in {text!r}") from None


@lru_cache(maxsize=_PART_MEMO_SIZE)
def _number(piece: str) -> int:
    """A number: ASCII [1-9][0-9]*."""
    # isascii too: isdigit alone also accepts non-ASCII digits
    if piece.isascii() and piece.isdigit() and piece[0] != "0":
        try:
            return int(piece)
        except ValueError:
            pass  # more digits than int() converts, so far too large for any entry
    raise ModelSyntaxError(f"expected a positive integer without leading zeros, got {piece!r}")


@lru_cache(maxsize=_PART_MEMO_SIZE)
def _subset(piece: str) -> tuple[int, ...]:
    """A subset: numbers joined by ",", strictly ascending; "" is the empty set."""
    if not piece:
        return ()
    values = tuple(map(_number, piece.split(",")))
    if not all(map(lt, values, values[1:])):
        raise ModelSyntaxError(f"subset {piece!r} must list distinct ascending values")
    return values


@lru_cache(maxsize=_PART_MEMO_SIZE)
def _pair(piece: str) -> tuple[int, int]:
    """A pair: "u,v" with u <= v."""
    numbers = piece.split(",")
    if len(numbers) != 2:
        raise ModelSyntaxError(f"pair {piece!r} is not of the form u,v")
    u, v = map(_number, numbers)
    if u > v:
        raise ModelSyntaxError(f"pair {piece!r} must be written with u <= v")
    return u, v


@lru_cache(maxsize=_PART_MEMO_SIZE)
def _write_number(value: int) -> str:
    """The text of a number, which _number reads back."""
    return str(value)


@lru_cache(maxsize=_PART_MEMO_SIZE)
def _write_subset(part: tuple[int, ...]) -> str:
    """The text of a subset, which _subset reads back."""
    return ",".join(map(_write_number, part))


@lru_cache(maxsize=_PART_MEMO_SIZE)
def _write_pair(pair: tuple[int, int]) -> str:
    """The text of a pair, which _pair reads back."""
    return ",".join(map(_write_number, pair))


# ---------------------------------------------------------------------------
# object types

_new_tuple = tuple.__new__


class ModelObject(tuple):
    """Base of the five families: the immutable tuple (tag, n, data)."""

    __slots__ = ()
    _tag: int
    _data: str  # the name of the data attribute
    # the family's grammar: the separator between the texts of its
    # components, and the reader and the writer of one component's text
    _sep: str
    _read: staticmethod
    _write: staticmethod

    n = property(itemgetter(1), doc="the order")

    def __new__(cls, n, data):
        """The object (n, data) of family cls, checked by _check_types and
        then by the family's __post_init__."""
        _check_types(cls, n, data)
        return _validated(cls, n, data)

    def __getnewargs__(self):
        return self[1:]  # (n, data): copies and unpickled objects are validated

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self[1]!r}, {self._data}={self[2]!r})"

    def serialize(self) -> str:
        return self._sep.join(map(self._write, self[2]))


def _check_types(cls, n, data) -> None:
    """Raise ModelInvariantError unless n is an int and data a tuple of ints
    (of tuples of ints where the components are subsets or pairs): exact
    types, so no bool, float or list is built into an object."""
    if type(n) is not int:
        raise ModelInvariantError(f"order must be an int, got {n!r}")
    name = cls._data
    if type(data) is not tuple:
        raise ModelInvariantError(f"{name} must be a tuple, got {data!r}")
    values = data
    if cls._read is not _number:
        if not {*map(type, data)} <= {tuple}:
            part = next(part for part in data if type(part) is not tuple)
            raise ModelInvariantError(f"{name} must hold tuples, got {part!r}")
        values = tuple(chain.from_iterable(data))
    if not {*map(type, values)} <= {int}:
        value = next(value for value in values if type(value) is not int)
        raise ModelInvariantError(f"{name} must hold ints, got {value!r}")


def _validated(cls, n, data):
    """The object (n, data) of family cls, checked by the family's
    __post_init__, looked up on the class at each call; parse's readers
    build ints in tuples only, so parse checks no types."""
    obj = _new_tuple(cls, (cls._tag, n, data))
    obj.__post_init__()
    return obj


def _trusted(cls, n, data):
    """The object (n, data) of family cls, built without validation.

    For the enumerators and the maps only, whose outputs are valid by
    construction; every other caller goes through the public constructor.
    """
    return _new_tuple(cls, (cls._tag, n, data))


class DumontPermutation(ModelObject):
    """Normalized Dumont permutation of the second kind, as a word of length 2n+2."""

    __slots__ = ()
    _tag, _data = 0, "word"
    _sep, _read, _write = " ", staticmethod(_number), staticmethod(_write_number)
    word = property(itemgetter(2), doc="sigma(1) .. sigma(2n+2)")

    def __post_init__(self) -> None:
        _, n, word = self
        if n < 1:
            raise ModelInvariantError(f"order must be >= 1, got {n}")
        m = 2 * n + 2
        if len(word) != m:
            raise ModelInvariantError(f"word length must be {m} for order {n}, got {len(word)}")
        if sorted(word) != list(range(1, m + 1)):
            raise ModelInvariantError(f"word is not a permutation of 1..{m}")
        pos = [0] * (m + 1)  # pos[v]: the position of value v
        # sigma(p) > p at the odd positions p, sigma(p) < p at the even ones
        for p, v in enumerate(word, 1):
            if p % 2:
                if v <= p:
                    raise ModelInvariantError(
                        f"excedance condition fails: sigma({p}) = {v} is not > {p}"
                    )
            elif v >= p:
                raise ModelInvariantError(
                    f"deficiency condition fails: sigma({p}) = {v} is not < {p}"
                )
            pos[v] = p
        for i in range(1, n + 1):
            if pos[2 * i] > pos[2 * i + 1]:
                raise ModelInvariantError(
                    f"normalization fails: value {2 * i} appears after value {2 * i + 1}"
                )

    def _k(self) -> int:
        return self.word[0] // 2

    def _l(self) -> int:
        return (self.word[-1] - 1) // 2

    def _t(self) -> DumontPermutation:
        # the 4-cycle 2k -> 2l -> 2l+1 -> 2k+1 -> 2k on the values, k and l
        # read as _k and _l read them; each of the four occurs once
        _, n, word = self
        k, l = word[0] // 2, (word[-1] - 1) // 2
        if k == l:
            return self
        out = list(word)
        at = out.index
        a, b, c, d = at(2 * k), at(2 * l), at(2 * l + 1), at(2 * k + 1)
        out[a], out[b], out[c], out[d] = 2 * l, 2 * l + 1, 2 * k + 1, 2 * k
        return _trusted(DumontPermutation, n, tuple(out))

    def _r(self) -> DumontPermutation:
        # sigma^r(i) = 2n+3 - sigma(2n+3-i)
        _, n, word = self
        m = 2 * n + 3
        return _trusted(DumontPermutation, n, tuple([m - v for v in word[::-1]]))

    def _reduce(self) -> DumontPermutation:
        # with l = n, positions 2n+1, 2n+2 necessarily hold 2n+2, 2n+1
        return _trusted(DumontPermutation, self.n - 1, self.word[: 2 * self.n])

    def _lift(self) -> DumontPermutation:
        m = 2 * self.n + 2
        return _trusted(DumontPermutation, self.n + 1, self.word + (m + 2, m + 1))

    @classmethod
    def from_text(cls, text: str) -> "DumontPermutation":
        word = _parts(text, cls._sep, cls._read)
        if len(word) < 4 or len(word) % 2:
            raise ModelSyntaxError(
                f"word length must be an even number >= 4, got {len(word)} in {text!r}"
            )
        return _validated(cls, len(word) // 2 - 1, word)


class DellacConfiguration(ModelObject):
    """Dellac configuration stored as row_columns[i-1] = column of the dot in row i."""

    __slots__ = ()
    _tag, _data = 1, "row_columns"
    _sep, _read, _write = " ", staticmethod(_number), staticmethod(_write_number)
    row_columns = property(itemgetter(2), doc="c_1 .. c_{2n}")

    def __post_init__(self) -> None:
        _, n, cols = self
        if n < 1:
            raise ModelInvariantError(f"order must be >= 1, got {n}")
        if len(cols) != 2 * n:
            raise ModelInvariantError(f"need {2 * n} rows for order {n}, got {len(cols)}")
        counts = [0] * (n + 1)
        for i, c in enumerate(cols, 1):
            if not 1 <= c <= n:
                raise ModelInvariantError(f"row {i} uses column {c}, outside 1..{n}")
            if not c <= i <= c + n:
                raise ModelInvariantError(
                    f"band condition fails: row {i} dot in column {c} needs {c} <= {i} <= {c + n}"
                )
            counts[c] += 1
        if counts.count(2) != n:
            c = next(c for c in range(1, n + 1) if counts[c] != 2)
            raise ModelInvariantError(f"column {c} holds {counts[c]} dots, expected 2")

    def _k(self) -> int:
        return self.row_columns[self.n]

    def _l(self) -> int:
        return self.row_columns[self.n - 1]

    def _t(self) -> DellacConfiguration:
        # swap the dots of rows n and n+1
        _, n, cols = self
        swapped = cols[:n - 1] + (cols[n], cols[n - 1]) + cols[n + 1:]
        return _trusted(DellacConfiguration, n, swapped)

    def _r(self) -> DellacConfiguration:
        # half-turn of the board: the dot (j, i) moves to (n+1-j, 2n+1-i)
        _, n, cols = self
        m = n + 1
        return _trusted(DellacConfiguration, n, tuple([m - c for c in cols[::-1]]))

    def _reduce(self) -> DellacConfiguration:
        n = self.n
        # with l = n, column n holds exactly the dots of rows n and 2n; drop them with it
        cols = tuple(c for i, c in enumerate(self.row_columns, 1) if i not in (n, 2 * n))
        return _trusted(DellacConfiguration, n - 1, cols)

    def _lift(self) -> DellacConfiguration:
        n = self.n + 1
        old = self.row_columns
        cols = old[: n - 1] + (n,) + old[n - 1 :] + (n,)
        return _trusted(DellacConfiguration, n, cols)

    @classmethod
    def from_text(cls, text: str) -> "DellacConfiguration":
        cols = _parts(text, cls._sep, cls._read)
        if len(cols) < 2 or len(cols) % 2:
            raise ModelSyntaxError(
                f"row count must be an even number >= 2, got {len(cols)} in {text!r}"
            )
        return _validated(cls, len(cols) // 2, cols)


class FeiginChain(ModelObject):
    """Subset chain I_0 .. I_n with #I_i = i and I_{i-1} minus {i} contained in I_i."""

    __slots__ = ()
    _tag, _data = 2, "subsets"
    _sep, _read, _write = ";", staticmethod(_subset), staticmethod(_write_subset)
    subsets = property(itemgetter(2), doc="I_0 .. I_n, each ascending")

    def __post_init__(self) -> None:
        _, n, subsets = self
        if n < 1:
            raise ModelInvariantError(f"order must be >= 1, got {n}")
        if len(subsets) != n + 1:
            raise ModelInvariantError(f"need {n + 1} subsets for order {n}, got {len(subsets)}")
        prev = 0  # I_{i-1}, bit v set for each member v
        for i, part in enumerate(subsets):
            cur = last = 0
            for v in part:
                if not last < v <= n:  # the part is not 1 <= v_1 < v_2 < .. <= n
                    if not all(map(lt, part, part[1:])):
                        raise ModelInvariantError(f"subset {i} is not strictly ascending")
                    raise ModelInvariantError(f"subset {i} has values outside 1..{n}")
                cur |= 1 << v
                last = v
            if len(part) != i:
                raise ModelInvariantError(f"subset {i} has size {len(part)}, expected {i}")
            # prev - {i} <= cur: nothing but i leaves
            if prev & ~cur not in (0, 1 << i):
                raise ModelInvariantError(
                    f"chain condition fails at step {i}: only {i} may leave the previous subset"
                )
            prev = cur

    def _k(self) -> int:
        for i, part in enumerate(self.subsets):
            if 1 in part:
                return i

    def _l(self) -> int:
        n = self.n
        for i, part in enumerate(self.subsets):
            if n in part:
                return i

    @classmethod
    def from_text(cls, text: str) -> "FeiginChain":
        subsets = _parts(text, cls._sep, cls._read)
        if len(subsets) < 2:
            raise ModelSyntaxError(f"chain needs at least subsets I_0 and I_1 in {text!r}")
        return _validated(cls, len(subsets) - 1, subsets)


class SetTuple(ModelObject):
    """Tuple (S_1, .., S_n) with #S_i = #S_i^{-1} in {1, 2} and straddling preimages."""

    __slots__ = ()
    _tag, _data = 3, "sets"
    _sep, _read, _write = ";", staticmethod(_subset), staticmethod(_write_subset)
    sets = property(itemgetter(2), doc="S_1 .. S_n, each ascending")

    def __post_init__(self) -> None:
        _, n, sets = self
        if n < 1:
            raise ModelInvariantError(f"order must be >= 1, got {n}")
        if len(sets) != n:
            raise ModelInvariantError(f"need {n} sets for order {n}, got {len(sets)}")
        # count[v], first[v], last[v]: occurrences of value v and the
        # positions of the first and the last one
        count = [0] * (n + 1)
        first = [0] * (n + 1)
        last = [0] * (n + 1)
        for j, part in enumerate(sets, 1):
            size = len(part)
            if size == 2:
                if not part[0] < part[1]:
                    raise ModelInvariantError(f"set {j} is not strictly ascending")
            elif size != 1:
                if list(part) != sorted(set(part)):
                    raise ModelInvariantError(f"set {j} is not strictly ascending")
                raise ModelInvariantError(f"set {j} has size {size}, expected 1 or 2")
            for v in part:
                if not 1 <= v <= n:
                    raise ModelInvariantError(f"set {j} has value {v} outside 1..{n}")
                if not count[v]:
                    first[v] = j
                count[v] += 1
                last[v] = j
        for i in range(1, n + 1):
            size = len(sets[i - 1])
            if count[i] != size:
                raise ModelInvariantError(
                    f"value {i} occurs {count[i]} times but #S_{i} = {size}"
                )
            if size == 2 and not first[i] < i < last[i]:
                raise ModelInvariantError(
                    f"occurrences of value {i} at positions {[first[i], last[i]]} "
                    f"do not straddle {i}"
                )

    def _k(self) -> int:
        for j, part in enumerate(self.sets, 1):
            if 1 in part:
                return j

    def _l(self) -> int:
        n = self.n
        for j, part in enumerate(self.sets, 1):
            if n in part:
                return j

    def _t(self) -> SetTuple:
        # exchange the values 1 and n: a part that holds neither stays
        _, n, sets = self
        moved = _exchanged_parts(n).get
        return _trusted(SetTuple, n, tuple(map(moved, sets, sets)))

    def _r(self) -> SetTuple:
        # v -> n+1-v reverses the order of a part's values
        m = self.n + 1
        parts = tuple([
            (m - part[0],) if len(part) == 1 else (m - part[1], m - part[0])
            for part in reversed(self.sets)
        ])
        return _trusted(SetTuple, self.n, parts)

    def _reduce(self) -> SetTuple:
        # l = n forces S_n = {n}
        return _trusted(SetTuple, self.n - 1, self.sets[:-1])

    def _lift(self) -> SetTuple:
        n = self.n + 1
        return _trusted(SetTuple, n, self.sets + ((n,),))

    @classmethod
    def from_text(cls, text: str) -> "SetTuple":
        sets = _parts(text, cls._sep, cls._read)
        return _validated(cls, len(sets), sets)


@lru_cache(maxsize=64)
def _exchanged_parts(n: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Each part of an order-n settuple that holds 1 or n, with its image
    when the values 1 and n are exchanged, its values kept ascending; a
    part holds one value or two.  O(n) entries, one table per order."""
    table = {(1,): (n,), (n,): (1,)}
    for v in range(2, n):
        table[(1, v)] = (v, n)
        table[(v, n)] = (1, v)
    return table


class HetyeiTuple(ModelObject):
    """Pair tuple ({u_1,v_1}, .., {u_n,v_n}), u_l <= v_l in [l], entries covering [n]."""

    __slots__ = ()
    _tag, _data = 4, "pairs"
    _sep, _read, _write = ";", staticmethod(_pair), staticmethod(_write_pair)
    pairs = property(itemgetter(2), doc="(u_1, v_1) .. (u_n, v_n)")

    def __post_init__(self) -> None:
        _, n, pairs = self
        if n < 1:
            raise ModelInvariantError(f"order must be >= 1, got {n}")
        if len(pairs) != n:
            raise ModelInvariantError(f"need {n} pairs for order {n}, got {len(pairs)}")
        covered = 0  # bit x set once value x is an entry
        for l, pair in enumerate(pairs, 1):
            if len(pair) != 2:
                raise ModelInvariantError(f"pair {l} has size {len(pair)}, expected 2")
            u, v = pair
            if u > v:
                raise ModelInvariantError(f"pair {l} is not sorted: {u} > {v}")
            if not (1 <= u and v <= l):
                raise ModelInvariantError(f"pair {l} = ({u},{v}) has entries outside 1..{l}")
            covered |= 1 << u | 1 << v
        if covered != (1 << n + 1) - 2:
            missing = [x for x in range(1, n + 1) if not covered >> x & 1]
            raise ModelInvariantError(f"entries do not cover 1..{n}: missing {missing}")

    def _k(self) -> int:
        # the scan of the module docstring; c is the largest chain value <= p
        _, n, pairs = self
        below = reversed(pairs)
        c = next(below)[0]  # u_n, which is n only for the pair {n, n}
        if c == n:
            return 1
        p = n
        for pair in below:
            p -= 1
            if c in pair:
                return n + 1 - p
            if p == c:
                c = pair[0]

    def _l(self) -> int:
        # the last pair holding 1, which is its u since u <= v
        for l, (u, _) in enumerate(reversed(self.pairs), 1):
            if u == 1:
                return l

    @classmethod
    def from_text(cls, text: str) -> "HetyeiTuple":
        pairs = _parts(text, cls._sep, cls._read)
        return _validated(cls, len(pairs), pairs)


# ---------------------------------------------------------------------------
# registry, parse, serialize

_MODEL_CLASSES: dict[str, type] = {
    "pd2n": DumontPermutation,
    "dellac": DellacConfiguration,
    "chain": FeiginChain,
    "settuple": SetTuple,
    "hetyei": HetyeiTuple,
}

MODEL_NAMES: tuple[str, ...] = tuple(_MODEL_CLASSES)
# the families that carry the maps t, r, reduce and lift, read off the
# classes that define them
_INVOLUTIVE: tuple[str, ...] = tuple(
    model for model, cls in _MODEL_CLASSES.items() if hasattr(cls, "_t")
)


def parse(model: str, text: str):
    """Parse a canonical serialization into a validated object of the named family."""
    try:
        cls = _MODEL_CLASSES[model]
    except KeyError:
        raise ModelSyntaxError(f"unknown model {model!r}; choose from {MODEL_NAMES}") from None
    return cls.from_text(text)


def serialize(obj) -> str:
    """Canonical serialization of any model object."""
    return obj.serialize()


# ---------------------------------------------------------------------------
# statistics


def k_statistic(obj) -> int:
    """The statistic k of any model object."""
    return obj._k()


def l_statistic(obj) -> int:
    """The statistic l of any model object."""
    return obj._l()


def statistics(obj) -> tuple[int, int]:
    """The pair (k, l) for any model object."""
    return k_statistic(obj), l_statistic(obj)


def redundancy_chain(m: HetyeiTuple) -> tuple[int, ...]:
    """Descending positions n = l_1 > l_2 > ... > l_m traced through the pairs.

    Start at l_1 = n; stop at the first l_i whose pair is {l_i, l_i};
    otherwise continue with l_{i+1} = min of the pair at l_i.  Terminates
    because the pair at position 1 is always {1, 1}.
    """
    pairs = m.pairs
    chain = [m.n]
    while True:
        u, v = pairs[chain[-1] - 1]
        if u == v == chain[-1]:
            return tuple(chain)
        chain.append(min(u, v))


def redundant_positions(m: HetyeiTuple) -> frozenset[int]:
    """Redundant positions of a pair tuple.

    With chain values l_m < ... < l_1 = n, a position l in [l_m, n-1] is
    redundant when c(l) is an entry of the pair at l, where c(l) is the
    largest chain value <= l.  Position n itself is redundant only when its
    pair is {n, n}.  The result always contains l_m.
    """
    n, pairs = m.n, m.pairs
    chain = redundancy_chain(m)
    out = []
    if pairs[n - 1] == (n, n):
        out.append(n)
    cursor = len(chain) - 1
    for l in range(chain[-1], n):
        while cursor > 0 and chain[cursor - 1] <= l:
            cursor -= 1
        if chain[cursor] in pairs[l - 1]:
            out.append(l)
    return frozenset(out)


# ---------------------------------------------------------------------------
# enumeration and tallies
#
# Each family states its rule once, as a function of the order n that
# returns (size, step, fold):
#
#   size  the number of components of an object (its data tuple), chosen one
#         at a time at the steps i = 0 .. size - 1;
#   step  step(i, state) -> [(component, next state), ...]: the legal
#         choices at step i after a prefix that left the state, in any
#         order.  The state is an int, 0 before step 0, and keeps only what
#         the later choices read;
#   fold  how the choices make the statistics k and l (below): _mark_fold
#         over mark(i, component) -> (k or 0, l or 0), the statistics a
#         choice fixes, or for hetyei _hetyei_fold, which reads them from
#         the last position down, as its k is fixed by the redundancy chain.
#
# A rule writes no text and decides no order: _walk lists the objects by
# the rule, in text order, and writes their texts, and _tally counts them
# by it, so a listing and a table read the same choices.  Asked for the
# statistics, the walk folds them through its frames and blocks with the
# rule's fold, and _tally counts each state's completions by the summaries
# that fold gives their suffixes, carrying each table of counts whole.


def _dumont_rule(n: int):
    # the used values as a bit mask.  Position p = i + 1 takes an unused
    # value v > p when p is odd, < p when p is even, and an odd v > 1 only
    # once its mate v - 1 is used (normalization): of the bits tested[v], of
    # v and its mate, exactly needed[v], the mate's, are set
    m = 2 * n + 2
    candidates = [range(p + 1, m + 1) if p % 2 else range(1, p) for p in range(1, m + 1)]
    needed = [1 << v - 1 if v % 2 and v > 1 else 0 for v in range(m + 1)]
    tested = [1 << v | needed[v] for v in range(m + 1)]

    def step(i, used):
        return [(v, used | 1 << v) for v in candidates[i] if used & tested[v] == needed[v]]

    def mark(i, v):
        # k = sigma(1) / 2, l = (sigma(2n+2) - 1) / 2
        return v // 2 if i == 0 else 0, (v - 1) // 2 if i == m - 1 else 0

    return m, step, _mark_fold(mark)


def _dellac_rule(n: int):
    # the column loads, two bits a column.  Row r = i + 1 takes a column c
    # with c <= r <= c + n that holds fewer than two dots, and column r - n,
    # whose band ends at row r, must then hold two
    rows = 2 * n
    candidates = [range(max(1, r - n), min(r, n) + 1) for r in range(1, rows + 1)]

    def step(i, loads):
        closing = 2 * (i + 1 - n)  # the shift of the loads of column r - n
        out = []
        for c in candidates[i]:
            if loads >> 2 * c & 3 == 2:
                continue
            new = loads + (1 << 2 * c)
            if closing <= 0 or new >> closing & 3 == 2:
                out.append((c, new))
        return out

    def mark(i, c):
        # k = c_{n+1}, l = c_n
        return c if i == n else 0, c if i == n - 1 else 0

    return rows, step, _mark_fold(mark)


def _chain_rule(n: int):
    # I_{i-1} as a bit mask, and the rule of the module docstring after the
    # empty I_0
    values = range(1, n + 1)

    def step(i, prev):
        if not i:
            return [((), 0)]
        base = prev & ~(1 << i)
        inside = [v for v in values if base >> v & 1]
        outside = [v for v in values if not base >> v & 1]
        # each tuple is built from a list: tuple() over a generator
        # over-allocates and shrinks it, and the shrunk blocks pile up in
        # CPython's free lists
        parts = [tuple(sorted(inside + list(extra)))
                 for extra in combinations(outside, i - len(inside))]
        return [(part, sum([1 << v for v in part])) for part in parts]

    def mark(i, part):
        # the first indices whose sets hold 1 and n
        return i if 1 in part else 0, i if n in part else 0

    return n + 1, step, _mark_fold(mark)


def _settuple_rule(n: int):
    # the one-bit-a-value mask of the module docstring, which holds the
    # state since a value never has more than one occurrence to come, nor
    # more than one before its own step.  Every step tries the same 1- and
    # 2-subsets of [n], each as (part, its bits, whether it is a pair)
    parts = [(part, sum(1 << v for v in part), size == 2)
             for size in (1, 2) for part in combinations(range(1, n + 1), size)]
    values = (1 << n + 1) - 2

    def step(i, mask):
        j = i + 1
        earlier = (1 << j) - 2  # the bits of the values 1..j-1
        # v < j while it has an occurrence to come, v >= j until it has one
        usable = mask & earlier | ~mask & values & ~earlier
        seen = mask >> j & 1
        low = earlier | 1 << j
        out = []
        for part, chosen, pair in parts:
            # a pair S_j needs one occurrence of j before j, which then is
            # not usable, and one after
            if chosen & ~usable or pair and not seen:
                continue
            # a chosen v < j has no occurrence left to come, a chosen v > j
            # has occurred; j itself has one to come after a pair, or after
            # a singleton other than {j} when it has not occurred
            to_come = pair if seen else chosen != 1 << j
            new = (mask ^ chosen) & ~(1 << j) | to_come << j
            # the occurrences to come, plus one for each v > j not yet
            # seen, fit the 2 (n - j) places left
            if (new & low).bit_count() + n - j - (new >> j + 1).bit_count() <= 2 * (n - j):
                out.append((part, new))
        return out

    def mark(i, part):
        # the steps whose sets hold 1 and n
        return i + 1 if 1 in part else 0, i + 1 if n in part else 0

    return n, step, _mark_fold(mark)


def _hetyei_rule(n: int):
    # the covered values as a bit mask, bit x - 1 for the value x.  The
    # positions after l = i + 1 hold 2 (n - l) entries and position p may
    # take any value <= p, so by Hall's condition a prefix extends to a full
    # tuple exactly when at most that many values are still uncovered
    def step(i, covered):
        l = i + 1
        spare = 2 * (n - l)
        return [((u, v), new) for v in range(1, l + 1) for u in range(1, v + 1)
                if n - (new := covered | 1 << u - 1 | 1 << v - 1).bit_count() <= spare]

    return n, step, _hetyei_fold(n)


# A fold gives the walk each object's (k, l) from two summaries, each kept
# once for all the objects that share it: a prefix's, which a frame keeps,
# and a suffix's, which a block keeps beside each completion; _tally counts
# each state's completions by the suffix's alone.  It is the five (root,
# grow, push, join, carry):
#
#   root   the summary of the empty prefix;
#   grow   grow(i, component, above): the summary of a prefix that ends in
#          the component at step i, from the summary above of the rest;
#   push   push(i, component, below): the summary of a suffix that starts
#          with the component at step i, from the summary below of the
#          rest, which is (0, 0) for the empty suffix;
#   join   join(above, below) -> (k, l): the statistics of the object made
#          of a prefix and a suffix, in O(1);
#   carry  carry(i, component, below, into): push over a whole table, for
#          _tally.  below counts suffixes by summary, {summary: count}, and
#          carry adds to the table into the counts of those suffixes with
#          the component put before them at step i, each under the summary
#          push gives it.
#
# push hands out one tuple for each distinct summary, kept in shared, so
# the completions in the walk's memo share them: with a tuple each, pd2n's
# order-6 walk peaked at 252 KiB of tracemalloc, against 231 KiB so.
#
# The walk calls grow and push, and _tally carry alone.  Through push,
# dellac's order-7 table would ask its mark 4,241 times, for 56 distinct
# (step, component) pairs.  So a mark rule's carry asks each (step,
# component) once and then moves the table whole: it adds it to into as it
# is when the choice marks nothing, as one entry of its total when the
# choice sets both k and l, and otherwise under each key with the choice's
# mark put in, keyed by the tuples of shared (with a tuple each, dellac's
# order-11 table peaked at 32.2 MiB of RSS, against 30.9 so).  A hetyei
# pair may change any suffix summary, where the scan stops as well as its
# l, so its carry calls push, but once for each (step, pair, summary): 4,714
# calls for its order-10 table, against 34,925 summaries carried.


def _mark_fold(mark):
    # a summary on either side is its first nonzero marks (k or 0, l or 0),
    # and the prefix's win
    shared: dict = {}

    def grow(i, c, above):
        k, l = above
        if k and l:
            return above
        mk, ml = mark(i, c)
        return k or mk, l or ml

    def push(i, c, below):
        mk, ml = mark(i, c)
        summary = mk or below[0], ml or below[1]
        return shared.setdefault(summary, summary)

    def join(above, below):
        return above[0] or below[0], above[1] or below[1]

    # the mark of each (step, component) that carry has met
    marks: dict = {}

    def carry(i, c, below, into):
        if (marked := marks.get((i, c))) is None:
            marked = marks[i, c] = mark(i, c)
        mk, ml = marked
        if mk and ml:  # every suffix gets the choice's (k, l)
            into[marked] = into.get(marked, 0) + sum(below.values())
        elif mk or ml:
            get = into.get
            for (k, l), count in below.items():
                summary = mk or k, ml or l
                summary = shared.setdefault(summary, summary)
                into[summary] = get(summary, 0) + count
        elif into:
            get = into.get
            for summary, count in below.items():
                into[summary] = get(summary, 0) + count
        else:  # the first of the state's tables passes up as it is
            into.update(below)

    return (0, 0), grow, push, join, carry


def _hetyei_fold(n: int):
    # The scan of the module docstring runs from position n down, so a
    # suffix is read first.  Its summary is (k, l): k the statistic where
    # the scan stops within the suffix, or -c when it leaves the suffix
    # holding the chain value c, or 0 before position n; l the statistic
    # of the suffix's last pair holding 1, or 0.  A prefix's summary, of
    # positions 1 .. p, is a list: item c, for each chain value c <= p the
    # scan may bring down to p, is the k at which the scan stops in the
    # prefix, and item 0 is the statistic of the prefix's last pair
    # holding 1, or 0.  So the suffix's l wins, and the prefix finishes k
    shared: dict = {}

    def grow(i, pair, above):
        # one position more: only its pair's values stop the scan here, and
        # the chain value p steps to u.  Copying the shorter prefix's list
        # costs less than computing each item on first use, which took a
        # Python call for nearly every object
        u, v = pair
        here = n - i  # the statistic of position p = i + 1
        scan = above + [here if v == i + 1 else above[u]]
        scan[u] = scan[v] = here
        if u == 1:
            scan[0] = here
        return scan

    def push(i, pair, below):
        k, l = below
        u = pair[0]
        if not k:  # position n stops the scan only as the pair {n, n}
            k = 1 if u == n else -u
        elif k < 0:
            c = -k
            if c in pair:
                k = n - i
            elif c == i + 1:
                k = -u
        summary = k, l or (n - i if u == 1 else 0)
        return shared.setdefault(summary, summary)

    def join(above, below):
        k, l = below
        return k if k > 0 else above[-k], l or above[0]

    # the summary push gives each (pair, summary) that carry has met at the
    # step it was last asked for; _tally asks one step after another, so
    # this keeps one step's
    moved_at, moves = None, {}

    def carry(i, pair, below, into):
        nonlocal moved_at, moves
        if i != moved_at:
            moved_at, moves = i, {}
        if (moved := moves.get(pair)) is None:
            moved = moves[pair] = {}
        get = into.get
        for summary, count in below.items():
            if (key := moved.get(summary)) is None:
                key = moved[summary] = push(i, pair, summary)
            into[key] = get(key, 0) + count

    # the empty prefix: the scan always stops by position 1, whose pair is
    # {1, 1}, so it is never asked for a k
    return [0], grow, push, join, carry


_RULES = {
    "pd2n": _dumont_rule,
    "dellac": _dellac_rule,
    "chain": _chain_rule,
    "settuple": _settuple_rule,
    "hetyei": _hetyei_rule,
}


# The walk's memo, keyed by (step, state), has one entry a state: a branch,
# the state's choices, or a block, the state's completions themselves once
# they number at most _BLOCK_SIZE (an empty block for a dead state).  It
# holds at most _WALK_MEMO_SIZE choices and completions, each entry counting
# one more, least recently used dropped first.  Sized for pd2n, whose walk
# meets the most states: with 768 / 1024 / 1280 it peaks at 200 / 226 / 255
# KiB of tracemalloc at order 6 (Python 3.11, in a fresh process after a
# full collection) and calls its step 2,449 / 1,588 / 1,133 times there,
# 39,689 / 27,787 / 20,908 times at order 7 and 0.76 / 0.56 / 0.44 M times
# at order 8.
_BLOCK_SIZE = 8
_WALK_MEMO_SIZE = 1024


def _walk(model: str, n: int, stats: bool = False) -> tuple:
    """The pair (join, blocks) of the family's order-n rule, read from
    _RULES at each call: blocks is its walk, _blocks, and join its fold's,
    which makes an object's k and l from the summaries of a block's prefix
    and of one of its completions."""
    size, step, fold = _RULES[model](n)
    return fold[3], _blocks(_MODEL_CLASSES[model], size, step, fold, stats)


def _blocks(cls, size: int, step, fold, stats: bool) -> Iterator[tuple]:
    """The objects of the family in text order, as blocks: a depth-first
    walk of its rule in one loop, which keeps its path in a list of frames
    and yields a block each time it follows a prefix, as the sextuple
    (the prefix's text, the walk's list of components, the prefix's length
    j, the block's memo key, the block, the prefix's summary): the prefix's
    components are the list's first j until the walk resumes, so only a
    reader that needs them copies them.  The memo key stands for the
    block's (step, state), whose completions are the same each time the
    walk builds the block.
    A block is a tuple of completions, each (its text, its components), and
    with stats (its text, its components, its summary); an object is the
    prefix followed by one completion, its text the two texts joined.

    The current frame takes its state's choices in text order.  A choice
    whose next state has a block yields the block after the prefix; any
    other choice pushes the frame on the path and walks the next state in a
    frame of its own.  A state met for the first time collects its
    completions from its children's blocks while it is walked; once its
    choices run out, its memo entry becomes that block, or its choices once
    the completions outnumber _BLOCK_SIZE, and the walk pops back to its
    parent.  The states of the last step are blocks of their choices.  The
    walk does not recurse, so an order is bounded by memory and time, not by
    the recursion limit.

    With stats, each frame also keeps its prefix's summary and each
    completion of a block its suffix's, both by the family's fold, and an
    object's k and l are the fold's join of the two: no object is scanned."""
    write, sep = cls._write, cls._sep
    at, grow, push = fold[:3]
    last = size - 1
    acc = [None] * size
    # the fragment of each component met, one string for every state that
    # adds it, and "" for the root's
    fragments: dict = {None: ""}
    # keyed by state * size + step, one int for the pair (step, state); a
    # dict keeps its keys in the order they were set, so the first one is
    # the least recently used
    memo: dict = {}
    held = 0  # the choices and completions in the memo, plus its entries

    # Text order: the choices of a step are taken in the string order of
    # the fragment a choice adds, that is the component's text, written by
    # the family's writer, and its separator ("v " for pd2n and dellac,
    # "a,b;" for chain and settuple, "u,v;" for hetyei).  The separator
    # occurs nowhere else in a fragment, so no fragment is a prefix of
    # another and fragment order is the order of whole serializations
    # ("10" < "2", "1,3;" < "1;").  The last component, written without its
    # separator, is forced by the earlier ones, or for hetyei is always
    # "u,n", so the same holds there.
    def children(i: int, state: int) -> list:
        choices = step(i, state)
        for c, _ in choices:
            if c not in fragments:
                fragments[c] = write(c) + sep
        return sorted(choices, key=lambda choice: fragments[choice[0]])

    def remember(key: int, entry) -> None:
        nonlocal held
        if len(entry) >= _WALK_MEMO_SIZE:
            return  # it would drop every other entry and then itself
        memo[key] = entry
        held += len(entry) + 1
        while held > _WALK_MEMO_SIZE:
            held -= len(memo.pop(next(iter(memo)))) + 1

    # The current frame is the state at step i after the prefix text: its
    # sorted choices, the iterator rest over them, and block, which collects
    # the state's completions, or is None, as it is from the start for a
    # state known to have more than a block holds; with stats, at is the
    # summary of the prefix.  A frame on the path also keeps the choice that
    # led down from it: its component c, its fragment, the memo key of the
    # state below and whether that state was fresh.  The walk starts from a
    # root choice before step 0, which adds no text and leaves the state 0;
    # its component lands in acc[-1], which the last step overwrites.  The
    # root's choices become no memo entry, so its frame keeps None for them.
    i, prefix, choices, rest, block = -1, "", None, iter([(None, 0)]), None
    path: list = []
    while True:
        choice = next(rest, None)
        if choice is not None:
            c, new = choice
            fragment = fragments[c]
            acc[i] = c
            j = i + 1
            key = new * size + j
            below = memo.pop(key, None)
            fresh = below is None  # not met yet, or dropped since
            if fresh:
                below = children(j, new)
                if j == last or not below:  # a block of its choices
                    below = (tuple([(write(d), (d,), push(j, d, (0, 0))) for d, _ in below])
                             if stats else tuple([(write(d), (d,)) for d, _ in below]))
            else:
                memo[key] = below  # now the most recently used
            # with stats, the summary of the prefix that ends in the choice;
            # the root's choice adds nothing to the empty prefix
            above = grow(i, c, at) if stats and below and i >= 0 else at
            if type(below) is list:  # walked in a frame of its own
                path.append((i, prefix, choices, rest, block, at, c, fragment, key, fresh))
                i, prefix, choices, block = j, prefix + fragment, below, [] if fresh else None
                rest, at = iter(choices), above
                continue
            if below:  # a block, whose completions follow the prefix
                yield prefix + fragment, acc, j, key, below, above
        elif path:  # the state's choices ran out: back to its parent
            below = choices if block is None else tuple(block)
            i, prefix, choices, rest, block, at, c, fragment, key, fresh = path.pop()
        else:
            return
        # below is now the memo entry of the state the choice led to
        if fresh:
            remember(key, below)
        if block is not None:
            if type(below) is list or len(block) + len(below) > _BLOCK_SIZE:
                block = None  # more completions than a block holds
            elif stats:
                block += [(fragment + suffix, (c,) + comps, push(i, c, summary))
                          for suffix, comps, summary in below]
            else:
                block += [(fragment + suffix, (c,) + comps) for suffix, comps in below]


def _tally(model: str, n: int) -> dict[tuple[int, int], int]:
    """The (k, l) table of the family, counted over its rule in two passes.

    Forward, the states each step reaches, each with its choices, so the
    rule's step runs once for each (step, state).  Backward from the last
    step, each state's completions counted by their suffix's summary: the
    fold's carry adds, for each choice, the table of the state it leads to,
    with the choice put before each suffix, as push would summarize it.  A
    choice into a dead state, one with no completion, is skipped: its table
    is empty, and no pd2n or dellac step marks both statistics, the one
    case where carry would add an entry for an empty table (the other
    families have no dead states).  A state after the last step has one
    completion, the empty suffix, whose summary is (0, 0), as for a leaf
    block's completions in the walk.  The root's completions are whole
    objects, so the join with the empty prefix turns their summaries into
    their (k, l)."""
    size, step, (root, _, _, join, carry) = _RULES[model](n)
    levels = []
    states = {0}
    for i in range(size):
        levels.append({state: step(i, state) for state in states})
        states = {new for choices in levels[-1].values() for _, new in choices}
    below = dict.fromkeys(states, {(0, 0): 1})
    for i in reversed(range(size)):
        counts = {}
        for state, choices in levels.pop().items():
            here = counts[state] = {}
            for c, new in choices:
                if table := below[new]:
                    carry(i, c, table, here)
        below = counts
    table: dict[tuple[int, int], int] = {}
    for summary, count in below[0].items():
        kl = join(root, summary)
        table[kl] = table.get(kl, 0) + count
    return dict(sorted(table.items()))


def _check_order(n: int, name: str = "order") -> None:
    """Raise ValueError unless n is an int: a bool, float or str would fail
    deep inside the work, or build an object of a non-int order."""
    if type(n) is not int:
        raise ValueError(f"{name} must be an int, got {n!r}")


def _check_call(model: str, n: int, limit: int | None) -> None:
    if model not in _RULES:
        raise ValueError(f"unknown model {model!r}; choose from {MODEL_NAMES}")
    _check_order(n)
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    check_enumeration_guard(n, limit)


def listing(model: str, n: int, limit: int | None = DEFAULT_ENUMERATION_LIMIT,
            stats: bool = False) -> Iterator[tuple]:
    """All order-n objects of the named family, each as the pair (its
    serialization, the object), as a lazy iterator in canonical order.

    Canonical order is lexicographic on the serialization string; the walk
    of the family's rule emits it directly, a block of objects at a time
    after the prefix they share, and listing joins each block's texts to
    that prefix's text and builds its objects as it yields them, so the
    pairs stream in bounded memory.  The walk, _walk, reads _RULES at each
    call, as statistics_table's _tally does, so a replaced rule reaches
    both.  The model, the order and the guard are checked at the call,
    before any object is built: orders beyond `limit` raise
    ResourceGuardError (pass a larger limit, or None, to override).

    With stats=True each object comes with its statistics, as the quadruple
    (its serialization, the object, k, l), where (k, l) equals
    statistics(object): the walk folds them from the same choices, with
    no statistic computed per object.

    >>> next(listing("hetyei", 3))
    ('1,1;1,1;2,3', HetyeiTuple(n=3, pairs=((1, 1), (1, 1), (2, 3))))
    >>> next(listing("hetyei", 3, stats=True))
    ('1,1;1,1;2,3', HetyeiTuple(n=3, pairs=((1, 1), (1, 1), (2, 3))), 3, 2)
    """
    _check_call(model, n, limit)
    return _objects(model, n, stats)


def _objects(model: str, n: int, stats: bool) -> Iterator[tuple]:
    """listing's pairs, or with stats its quadruples, from the walk's blocks."""
    cls = _MODEL_CLASSES[model]
    tag = cls._tag
    join, blocks = _walk(model, n, stats)
    # each object is built as _trusted builds it, with no call
    if stats:
        for text, acc, j, _, below, above in blocks:
            head = tuple(acc[:j])
            for suffix, comps, summary in below:
                yield (text + suffix, _new_tuple(cls, (tag, n, head + comps)),
                       *join(above, summary))
    else:
        for text, acc, j, _, below, _ in blocks:
            head = tuple(acc[:j])
            for suffix, comps in below:
                yield text + suffix, _new_tuple(cls, (tag, n, head + comps))


def _lines(model: str, n: int, limit: int | None, stats: bool) -> Iterator[str]:
    """The lines of `enumerate --model model --n n [--stats]` in the text
    format, each ending in a newline, as one string for each block of the
    walk: each line is the block's prefix text followed by one of its
    rendered suffixes, so no object is built.  Checked at the call as
    listing."""
    _check_call(model, n, limit)
    return _block_lines(model, n, stats)


# The most renderings _block_lines holds for one walk before it drops them
# all.  No family's text needs more than dellac's 1,123 at order 7 and 3,509
# at order 8, so none is dropped there.
_RENDER_MEMO_SIZE = 4096


def _reader(join, below, stats: bool, size: int):
    """A getter of the items of a prefix summary of `size` items that join
    reads to make the statistics of the prefix and each completion of the
    block below: none without stats.  A fold's join reads the same items
    whatever their values, so the completions are joined until all of them
    are read or none is left (a mark fold's first join reads both)."""
    summary = defaultdict(int)  # each item read becomes a key
    if stats:
        for _, _, suffix in below:
            join(summary, suffix)
            if len(summary) == size:
                break
    return itemgetter(*summary) if summary else _no_items


def _no_items(summary) -> tuple:
    return ()


def _block_lines(model: str, n: int, stats: bool) -> Iterator[str]:
    """_lines' strings.  The walk yields the blocks of its memo again after
    many prefixes, so the suffix lines of a block, each its completion's
    text and with stats a tab and "k=K l=L" by the fold's join, are
    rendered once for each block and each value of the prefix summary's
    items that its completions' statistics read, and then joined at each
    prefix's text: a yield costs two lookups and a join, and no format or
    join per line.  A block is known by its memo key, so a block the walk
    builds again after its memo entry was dropped finds its rendering.  A
    mark fold's join reads both items of its summary, (k, l); hetyei's
    summary is a list of up to n + 1 items, of which a block's completions
    read few (keyed by the whole list, hetyei's order-8 text took 132,965
    renderings, against 1,904).  The map is made at each call and dropped
    whole once it holds _RENDER_MEMO_SIZE renderings."""
    join, blocks = _walk(model, n, stats)
    if stats:
        def render(below, above):
            return tuple([f"{suffix}\tk={k} l={l}\n"
                          for suffix, _, summary in below for k, l in (join(above, summary),)])
    else:
        def render(below, above):
            return tuple([suffix + "\n" for suffix, _ in below])
    # by memo key, the block's reader and its lines by the values it reads
    rendered: dict = {}
    held = 0
    for text, _, _, memo_key, below, above in blocks:
        if (block := rendered.get(memo_key)) is None:
            block = rendered[memo_key] = _reader(join, below, stats, len(above)), {}
        read, lines_by = block
        if (lines := lines_by.get(values := read(above))) is None:
            lines = lines_by[values] = render(below, above)
            held += 1
            if held == _RENDER_MEMO_SIZE:
                rendered.clear()
                held = 0
        yield text + text.join(lines)


def enumerate_model(model: str, n: int,
                    limit: int | None = DEFAULT_ENUMERATION_LIMIT) -> Iterator:
    """All order-n objects of the named family, as a lazy iterator in
    canonical order: the objects of listing(model, n, limit), whose checks
    it makes at the call."""
    return map(itemgetter(1), listing(model, n, limit))


def statistics_table(model: str, n: int,
                     limit: int | None = DEFAULT_ENUMERATION_LIMIT) -> dict[tuple[int, int], int]:
    """The joint table {(k, l): number of order-n objects} of the named family.

    Tallied over the family's rule, whose states keep only what constrains
    the later choices, by counting each state's completions by the summary
    of their statistics that the walk folds, so no object is built.  Equal
    to the Counter of statistics over enumerate_model(model, n), keys
    ascending.  The model, the order and the guard are checked at the call
    as enumerate_model checks them.

    >>> statistics_table("dellac", 3)
    {(1, 2): 1, (1, 3): 1, (2, 1): 1, (2, 2): 1, (2, 3): 1, (3, 1): 1, (3, 2): 1}
    """
    _check_call(model, n, limit)
    return _tally(model, n)


def marginal(table: dict[tuple[int, int], int], index: int, n: int) -> list[int]:
    """Counts of the values 1..n of coordinate `index` (0 for k, 1 for l) in
    a (k, l) table; a value outside that range is counted nowhere."""
    out = [0] * n
    for kl, count in table.items():
        if 1 <= kl[index] <= n:
            out[kl[index] - 1] += count
    return out


# The object count is named only up to this order: normalized_genocchi(n)
# keeps no rows, but runs the Seidel triangle through row 2n + 2, about 2n^2
# additions, which at a huge order would itself be the work the guard refuses.
_COSTED_ORDER_MAX = 64


def check_enumeration_guard(n: int, limit: int | None) -> None:
    """Raise ResourceGuardError when order n is beyond the enumeration guard.

    The check does no work proportional to n: the message names the number
    of objects per family at order n only for n <= 64.  An order that is
    not an int raises ValueError.
    """
    _check_order(n)
    if limit is None or n <= limit:
        return
    cost = (f" (each family has {normalized_genocchi(n):,} objects at that order)"
            if n <= _COSTED_ORDER_MAX else "")
    raise ResourceGuardError(
        f"order {n} exceeds the enumeration guard {limit}{cost}; raise the limit to proceed"
    )


def hetyei_pair_count(n: int) -> int:
    """Count coordinate tuples ((a_i), (b_i)), a_i in [0, i], b_i in [i],
    whose entries cover [n].

    Counts level by level, from position n down to 1, keeping the number of
    partial tuples per set of covered values.  Position i contributes
    values <= i only, so a partial tuple dies once a value >= i is
    uncovered below position i, or once the uncovered values outnumber the
    2(i - 1) entries still to come.  The sets kept number F(n + 3) - 1
    over all levels, the empty start included (1,596 at order 14), and the
    cost grows about 1.8x per order.  The total equals median_genocchi(n); the count
    uses none of the families' rules, so it checks that number apart from
    them.

    >>> [hetyei_pair_count(n) for n in range(1, 6)]
    [2, 8, 56, 608, 9440]
    """
    _check_order(n)
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    full = (1 << n) - 1
    level = {0: 1}
    for i in range(n, 0, -1):
        cap = 2 * (i - 1)  # entries still to come below this position
        below: dict[int, int] = {}
        for covered, ways in level.items():
            for a in range(i + 1):
                ca = covered | (1 << (a - 1) if a else 0)
                for b in range(1, i + 1):
                    cb = ca | 1 << (b - 1)
                    left = full & ~cb
                    # positions below i only provide values < i
                    if left >> (i - 1) or left.bit_count() > cap:
                        continue
                    below[cb] = below.get(cb, 0) + ways
        level = below
    return level.get(full, 0)
