"""Finite sets, functions between them, and canonical pullbacks.

Everything is immutable and compared structurally.  Element values form an
inductive universe (atoms, pairs, section tables) carrying a global total
order: atoms < pairs < section tables, lexicographic within each kind.  Each
element's nested ``_key`` tuple realizes that order and decides equality.
The order fixes a canonical serialization for every constructed set, which
in turn makes every "induced unique map" computable by structural lookup.
Hashes never walk a key tree: a Pair or Sect combines the cached hashes of
its children, so hashing any element costs O(1) after construction.

Functions are position tables: equal sets give each element the same
position in canonical order, and a function stores for each domain position
the codomain position of its value, so composition, pullback, mediation and
the pullback check run on ints.  A table from outside the library goes
through the validating FinFn constructor; the tables that compose_fn,
identity_fn and pullback's projections build from already checked operands
are in range by construction and skip that check.

Chosen pullbacks are normalized: pulling back along an identity (or pulling
an identity back) returns the other leg's domain on the nose, so identity
laws downstream hold strictly rather than up to isomorphism.

The pullback check enumerates the matching pairs of a cospan from its legs
alone, in the order a chosen pullback lists them.  A square whose
projection tables equal that enumeration, or the enumeration of the
transposed cospan, is a pullback by inspection; any other square is
decided by commuting and counting.  Both paths give the same answer, and
neither calls pullback.

A set may also be lazy (lazy_finset): its size is known up front and its
elements are built on first read.  pullback's apex is lazy, so a caller
that only reads position tables never builds a Pair.  Every carrier that
does get built goes through ordered_finset, so the positions the tables
were computed against are checked to be the canonical ones.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from operator import attrgetter, is_, lt
from typing import Callable, Iterable, Iterator

from .errors import (
    DuplicateElement,
    IllFormedFunction,
    NotASquare,
    NotComposable,
)

@dataclass
class ParanoidRecord:
    """Exhaustive uniqueness searches of one paranoid_checks() block.

    A search whose candidate space is too large to scan counts as skipped.
    """

    searched: int = 0
    skipped: int = 0


_PARANOID: ContextVar[ParanoidRecord | None] = ContextVar(
    "polyfin_paranoid", default=None)


@contextmanager
def paranoid_checks() -> Iterator[ParanoidRecord]:
    """Re-verify every induced unique map by exhaustive search while active.

    Yields the block's record; a nested block shares the enclosing one.
    """
    token = _PARANOID.set(_PARANOID.get() or ParanoidRecord())
    try:
        yield _PARANOID.get()
    finally:
        _PARANOID.reset(token)


def paranoid_record() -> ParanoidRecord | None:
    """The active block's record, or None outside paranoid_checks()."""
    return _PARANOID.get()


def paranoid_enabled() -> bool:
    return _PARANOID.get() is not None


class Element:
    """Structured label: Atom(token), Pair(left, right) or Sect(entries)."""

    __slots__ = ("_key", "_hash")

    def __eq__(self, other: object) -> bool:
        return self is other or (isinstance(other, Element)
                                 and self._key == other._key)

    def __lt__(self, other: "Element") -> bool:
        return self._key < other._key

    def __le__(self, other: "Element") -> bool:
        return self._key <= other._key

    def __hash__(self) -> int:
        return self._hash


_key_of = attrgetter("_key")


class Atom(Element):
    __slots__ = ("token",)

    def __init__(self, token: str):
        if not isinstance(token, str):
            raise TypeError("atom token must be a string")
        self.token = token
        self._key = (0, token)
        self._hash = hash(self._key)

    def __repr__(self) -> str:
        return f"Atom({self.token!r})"


class Pair(Element):
    __slots__ = ("left", "right")

    def __init__(self, left: Element, right: Element):
        self.left = left
        self.right = right
        self._key = (1, left._key, right._key)
        self._hash = hash((1, left._hash, right._hash))

    def __repr__(self) -> str:
        return f"Pair({self.left!r}, {self.right!r})"


class Sect(Element):
    """Finite map used as the carrier of a dependent-product section.

    Entries are sorted by the global order and have distinct first
    components.  Entries already strictly ascending are kept after one
    pass over the keys; any other order is sorted and checked.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[tuple[Element, Element]]):
        items = tuple(entries)
        keys = [k._key for k, _ in items]
        if not all(map(lt, keys, keys[1:])):
            items = tuple(sorted(items, key=lambda kv: kv[0]._key))
            for (a, _), (b, _) in zip(items, items[1:]):
                if a == b:
                    raise DuplicateElement(f"section table repeats key {a!r}")
            keys = [k._key for k, _ in items]
        self.entries = items
        self._key = (2, tuple(zip(keys, [v._key for _, v in items])))
        self._hash = hash((2, tuple((k._hash, v._hash) for k, v in items)))

    def __getitem__(self, point: Element) -> Element:
        for k, v in self.entries:
            if k is point:
                return v
        for k, v in self.entries:
            if k == point:
                return v
        raise KeyError(point)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k!r}: {v!r}" for k, v in self.entries)
        return f"Sect({{{inner}}})"


class FinSetObj:
    """A finite set of elements, stored sorted by the global order.

    _index maps each element to its position.  Input already strictly
    ascending is kept after one pass over the keys; only other input is
    sorted and checked for duplicates.
    """

    __slots__ = ("elements", "_index", "_hash")

    def __init__(self, elements: Iterable[Element]):
        elems = list(elements)
        keys = list(map(_key_of, elems))
        if not all(map(lt, keys, keys[1:])):
            elems.sort(key=_key_of)
            for a, b in zip(elems, elems[1:]):
                if a == b:
                    raise DuplicateElement(f"duplicate element {a!r}")
        self.elements = tuple(elems)
        self._index = dict(zip(elems, range(len(elems))))
        self._hash = None

    def __contains__(self, e: Element) -> bool:
        return e in self._index

    def __iter__(self) -> Iterator[Element]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other: object) -> bool:
        return self is other or (isinstance(other, FinSetObj)
                                 and self.elements == other.elements)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.elements)
        return self._hash

    def __repr__(self) -> str:
        return f"FinSetObj({list(self.elements)!r})"


def ordered_finset(elems: list[Element]) -> FinSetObj:
    """The set of elems, whose positions the caller takes from elems' order."""
    obj = FinSetObj(elems)
    if not all(map(is_, obj.elements, elems)):
        raise AssertionError("construction did not emit canonical order")
    return obj


class _LazyFinSet(FinSetObj):
    """A FinSetObj of known size whose elements are built on first read.

    __getattr__ runs only while the elements and _index slots are unset;
    it fills both from ordered_finset(build()) and then drops build.
    """

    __slots__ = ("_size", "_build")

    def __init__(self, size: int, build: Callable[[], list[Element]]):
        self._size, self._build, self._hash = size, build, None

    def __getattr__(self, name: str):
        if name not in ("elements", "_index"):
            raise AttributeError(name)
        built = ordered_finset(self._build())
        if len(built.elements) != self._size:
            raise AssertionError("construction emitted the wrong number "
                                 "of elements")
        self.elements, self._index = built.elements, built._index
        self._build = None
        return built.elements if name == "elements" else built._index

    def __len__(self) -> int:
        return self._size


def lazy_finset(size: int, build: Callable[[], list[Element]]) -> FinSetObj:
    """The set of size elements that build() emits in canonical order.

    Nothing is built until elements, membership, iteration, equality or
    hashing is asked for; len() reads the promised size.  An empty set has
    nothing to build and is returned as it is.
    """
    return _LazyFinSet(size, build) if size else FinSetObj(())


class FinFn:
    """A total function between two finite sets, stored as a position table.

    idx[i] is the position in cod of the value at dom.elements[i].  The
    constructor takes either (argument, value) pairs in any order, which it
    validates, or idx=, whose length and range it checks; it is the path
    for every table from outside the library.  _trusted_fn is the other
    path, for tables built in range from checked operands.  graph lists
    the pairs in dom's canonical order.
    """

    __slots__ = ("dom", "cod", "idx", "_hash", "_fibers", "_identity",
                 "_bijective")

    def __init__(self, dom: FinSetObj, cod: FinSetObj,
                 pairs: Iterable[tuple[Element, Element]] | None = None, *,
                 idx: Iterable[int] | None = None):
        if idx is None:
            dpos, cpos = dom._index, cod._index
            idx, extra, bad = [None] * len(dom), {}, []
            for arg, val in pairs:
                i = dpos.get(arg)
                if i is None:
                    twice = arg in extra
                    extra[arg] = None
                else:
                    twice = idx[i] is not None
                    idx[i] = j = cpos.get(val, -1)
                    if j < 0:
                        bad.append(val)
                if twice:
                    raise IllFormedFunction(f"element {arg!r} assigned twice")
            if None in idx:
                missing = dom.elements[idx.index(None)]
                raise IllFormedFunction(f"no value for {missing!r}")
            if extra:
                raise IllFormedFunction(
                    f"assignment for non-element {next(iter(extra))!r}")
            if bad:
                raise IllFormedFunction(f"value {bad[0]!r} lies outside codomain")
        elif pairs is not None:
            raise TypeError("give either pairs or idx, not both")
        idx = tuple(idx)
        if len(idx) != len(dom) or idx and not 0 <= min(idx) <= max(idx) < len(cod):
            raise IllFormedFunction("position table does not fit dom and cod")
        self.dom, self.cod, self.idx = dom, cod, idx
        self._hash = self._fibers = self._identity = self._bijective = None

    def __call__(self, e: Element) -> Element:
        return self.cod.elements[self.idx[self.dom._index[e]]]

    @property
    def graph(self) -> tuple[tuple[Element, Element], ...]:
        return tuple(zip(self.dom.elements,
                         map(self.cod.elements.__getitem__, self.idx)))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, FinFn) and self.idx == other.idx
                and self.dom == other.dom and self.cod == other.cod)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.dom, self.cod, self.idx))
        return self._hash

    def __repr__(self) -> str:
        return f"FinFn({len(self.dom)}->{len(self.cod)}, {list(self.graph)!r})"

    @property
    def is_identity(self) -> bool:
        if self._identity is None:
            n = len(self.idx)
            self._identity = (n == len(self.cod)
                              and self.idx == tuple(range(n))
                              and self.dom == self.cod)
        return self._identity

    @property
    def is_bijective(self) -> bool:
        if self._bijective is None:
            self._bijective = (len(self.idx) == len(self.cod)
                               and len(set(self.idx)) == len(self.idx))
        return self._bijective

    def fiber_positions(self) -> list[list[int]]:
        """For each codomain position, the domain positions mapping to it."""
        if self._fibers is None:
            fibers: list[list[int]] = [[] for _ in range(len(self.cod))]
            for i, j in enumerate(self.idx):
                fibers[j].append(i)
            self._fibers = fibers
        return self._fibers

    def fiber(self, b: Element) -> tuple[Element, ...]:
        """All domain elements mapping to b, in canonical order."""
        positions = self.fiber_positions()[self.cod._index[b]]
        return tuple(map(self.dom.elements.__getitem__, positions))

    def inverse(self) -> "FinFn":
        if not self.is_bijective:
            raise IllFormedFunction("function is not bijective")
        return FinFn(self.cod, self.dom,
                     idx=sorted(range(len(self.idx)), key=self.idx.__getitem__))


def _trusted_fn(dom: FinSetObj, cod: FinSetObj,
                idx: tuple[int, ...]) -> FinFn:
    """FinFn over a table the library built in range; nothing is checked."""
    fn = object.__new__(FinFn)
    fn.dom, fn.cod, fn.idx = dom, cod, idx
    fn._hash = fn._fibers = fn._identity = fn._bijective = None
    return fn


@dataclass(frozen=True)
class PullbackSquare:
    """A commuting square with apex projections and a cospan of legs.

    leg1 o proj1 = leg2 o proj2, with proj1 : apex -> leg1.dom and
    proj2 : apex -> leg2.dom.
    """

    apex: FinSetObj
    proj1: FinFn
    proj2: FinFn
    leg1: FinFn
    leg2: FinFn

    def commutes(self) -> bool:
        p1, p2 = _square_positions(self)
        return (list(map(self.leg1.idx.__getitem__, p1))
                == list(map(self.leg2.idx.__getitem__, p2)))


def _square_positions(sq: PullbackSquare) -> tuple[tuple[int, ...],
                                                   tuple[int, ...]]:
    """The projections' position tables, once the boundaries line up."""
    if not (sq.proj1.dom == sq.apex and sq.proj2.dom == sq.apex
            and sq.proj1.cod == sq.leg1.dom and sq.proj2.cod == sq.leg2.dom
            and sq.leg1.cod == sq.leg2.cod):
        raise NotASquare("apex, projections and legs do not line up")
    return sq.proj1.idx, sq.proj2.idx


def mk_finset(tokens: list[str]) -> FinSetObj:
    """Finite set of atoms, one per token; tokens must be pairwise distinct."""
    seen = set()
    for t in tokens:
        if t in seen:
            raise DuplicateElement(f"duplicate token {t!r}")
        seen.add(t)
    return FinSetObj(Atom(t) for t in tokens)


def mk_fn(dom: FinSetObj, cod: FinSetObj,
          pairs: list[tuple[Element, Element]]) -> FinFn:
    """Total function dom -> cod with the given graph."""
    return FinFn(dom, cod, pairs)


def identity_fn(obj: FinSetObj) -> FinFn:
    return _trusted_fn(obj, obj, tuple(range(len(obj))))


def compose_fn(g: FinFn, f: FinFn) -> FinFn:
    """Pointwise composite g o f; boundaries must match structurally."""
    if f.cod is not g.dom and f.cod != g.dom:
        raise NotComposable("codomain of f differs from domain of g")
    return _trusted_fn(f.dom, g.cod, tuple(map(g.idx.__getitem__, f.idx)))


def _matching_pairs(f: FinFn, g: FinFn) -> tuple[tuple[int, ...],
                                                  tuple[int, ...]]:
    """The position pairs (i, k) with f(i) = g(k), as two tables.

    Ordered by i, and within one i by k's place in g's fiber, which is the
    canonical order of the pairs Pair(f.dom[i], g.dom[k]).
    """
    fibers = g.fiber_positions()
    left, right = [], []
    extend_left, extend_right = left.extend, right.extend
    for i, j in enumerate(f.idx):
        fib = fibers[j]
        extend_left([i] * len(fib))
        extend_right(fib)
    return tuple(left), tuple(right)


def pullback(f: FinFn, g: FinFn) -> PullbackSquare:
    """Chosen pullback of the cospan (f, g).

    The canonical apex is the lazy set of pairs Pair(a, b) with
    f(a) = g(b), built from the projections' tables when first read,
    except that pulling back along an identity reuses the other domain:
    pullback(id, g) has apex g.dom with projections (g, id), and
    pullback(f, id) has apex f.dom with projections (id, f).
    """
    if f.cod != g.cod:
        raise NotComposable("legs of a pullback must share a codomain")
    if f.is_identity:
        apex = g.dom
        return PullbackSquare(apex, g, identity_fn(apex), f, g)
    if g.is_identity:
        apex = f.dom
        return PullbackSquare(apex, identity_fn(apex), f, f, g)
    left, right = _matching_pairs(f, g)

    def build() -> list[Element]:
        fd, gd = f.dom.elements, g.dom.elements
        return [Pair(fd[i], gd[k]) for i, k in zip(left, right)]

    apex = lazy_finset(len(left), build)
    proj1 = _trusted_fn(apex, f.dom, left)
    proj2 = _trusted_fn(apex, g.dom, right)
    return PullbackSquare(apex, proj1, proj2, f, g)


def check_pullback(sq: PullbackSquare) -> bool:
    """Decide whether a commuting square is a pullback.

    Uses the concrete criterion: the map e |-> (proj1 e, proj2 e) must be a
    bijection onto the matching pairs of the cospan.  In a well-pointed
    category of finite sets this is equivalent to the universal property
    over arbitrary test objects.

    A square whose projection tables list exactly the matching pairs,
    enumerated from the legs alone in the order pullback emits them
    (_matching_pairs), is accepted at once, and so is its transpose: a
    composite's last stage and pullback(id, g) list the pairs of the
    swapped cospan.  Any other square is decided by counting: once it
    commutes every image is a matching pair, so the map is a bijection
    exactly when its images are distinct and as many as the matching
    pairs.  Neither path calls pullback, so a replaced pullback cannot
    vouch for its own squares.
    """
    p1, p2 = _square_positions(sq)
    pairs = _matching_pairs(sq.leg1, sq.leg2)
    if (p1, p2) == pairs or (p2, p1) == _matching_pairs(sq.leg2, sq.leg1):
        return True
    if not sq.commutes():
        raise NotASquare("square does not commute")
    return len(p1) == len(set(zip(p1, p2))) == len(pairs[0])


def mediate(sq: PullbackSquare, t1: FinFn, t2: FinFn) -> FinFn:
    """The unique map into a pullback apex induced by a commuting cone.

    t1 and t2 share a domain T, land in proj1.cod and proj2.cod, and
    satisfy leg1 o t1 = leg2 o t2.  An apex with two points over one pair
    of projections is refused, as is a pair with no point over it.  Under
    paranoid_checks the uniqueness is re-verified by scanning the whole
    apex per point.
    """
    if t1.dom != t2.dom:
        raise NotComposable("cone legs must share a domain")
    if t1.cod != sq.proj1.cod or t2.cod != sq.proj2.cod:
        raise NotComposable("cone legs do not match the pullback projections")
    p1, p2 = _square_positions(sq)
    index = {pair: e for e, pair in enumerate(zip(p1, p2))}
    if len(index) != len(p1):
        raise NotASquare("square lacks the pullback property")
    l1, l2 = sq.leg1.idx, sq.leg2.idx
    positions = []
    for target in zip(t1.idx, t2.idx):
        if l1[target[0]] != l2[target[1]]:
            raise NotASquare("cone does not commute with the cospan")
        try:
            positions.append(index[target])
        except KeyError:
            raise NotASquare("square lacks the pullback property") from None
    if _PARANOID.get() is not None:
        for x in t1.dom:
            hits = [e for e in sq.apex
                    if sq.proj1(e) == t1(x) and sq.proj2(e) == t2(x)]
            if len(hits) != 1:
                raise NotASquare("mediating element is not unique")
    return FinFn(t1.dom, sq.apex, idx=positions)
