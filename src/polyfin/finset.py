"""Finite sets, functions between them, and canonical pullbacks.

Everything is immutable and compared structurally.  Element values form an
inductive universe (atoms, pairs, section tables) carrying a global total
order: atoms < pairs < section tables, lexicographic within each kind.  Each
element's nested ``_key`` tuple realizes that order and decides equality.
The order fixes a canonical serialization for every constructed set, which
in turn makes every "induced unique map" computable by structural lookup.
Hashes never walk a key tree: a Pair or Sect combines the cached hashes of
its children, so hashing any element costs O(1) after construction.

Chosen pullbacks are normalized: pulling back along an identity (or pulling
an identity back) returns the other leg's domain on the nose, so identity
laws downstream hold strictly rather than up to isomorphism.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import (
    DuplicateElement,
    IllFormedFunction,
    NotASquare,
    NotComposable,
)

_PARANOID = False


@contextmanager
def paranoid_checks() -> Iterator[None]:
    """Re-verify every induced unique map by exhaustive search while active."""
    global _PARANOID
    previous = _PARANOID
    _PARANOID = True
    try:
        yield
    finally:
        _PARANOID = previous


def paranoid_enabled() -> bool:
    return _PARANOID


class Element:
    """Structured label: Atom(token), Pair(left, right) or Sect(entries)."""

    __slots__ = ("_key", "_hash")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Element) and self._key == other._key

    def __lt__(self, other: "Element") -> bool:
        return self._key < other._key

    def __le__(self, other: "Element") -> bool:
        return self._key <= other._key

    def __hash__(self) -> int:
        return self._hash

    @property
    def key(self):
        """Canonical sort key realizing the global total order."""
        return self._key


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
    components; construction canonicalizes any entry order.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[tuple[Element, Element]]):
        items = sorted(entries, key=lambda kv: kv[0]._key)
        for (a, _), (b, _) in zip(items, items[1:]):
            if a == b:
                raise DuplicateElement(f"section table repeats key {a!r}")
        self.entries = tuple(items)
        self._key = (2, tuple((k._key, v._key) for k, v in items))
        self._hash = hash((2, tuple((k._hash, v._hash) for k, v in items)))

    def __getitem__(self, point: Element) -> Element:
        for k, v in self.entries:
            if k == point:
                return v
        raise KeyError(point)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k!r}: {v!r}" for k, v in self.entries)
        return f"Sect({{{inner}}})"


class FinSetObj:
    """A finite set of elements, stored sorted by the global order."""

    __slots__ = ("elements", "_set", "_hash")

    def __init__(self, elements: Iterable[Element]):
        elems = sorted(elements, key=lambda e: e._key)
        for a, b in zip(elems, elems[1:]):
            if a == b:
                raise DuplicateElement(f"duplicate element {a!r}")
        self.elements = tuple(elems)
        self._set = frozenset(elems)
        self._hash = hash(self._set)

    def __contains__(self, e: Element) -> bool:
        return e in self._set

    def __iter__(self) -> Iterator[Element]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FinSetObj) and self._set == other._set

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"FinSetObj({list(self.elements)!r})"


class FinFn:
    """A total function between two finite sets, given by its graph.

    The graph lists (argument, value) pairs in dom's canonical order.
    """

    __slots__ = ("dom", "cod", "graph", "_map", "_hash", "_fibers")

    def __init__(self, dom: FinSetObj, cod: FinSetObj,
                 pairs: Iterable[tuple[Element, Element]]):
        mapping: dict[Element, Element] = {}
        for arg, val in pairs:
            if arg in mapping:
                raise IllFormedFunction(f"element {arg!r} assigned twice")
            mapping[arg] = val
        missing = [e for e in dom if e not in mapping]
        if missing:
            raise IllFormedFunction(f"no value for {missing[0]!r}")
        if len(mapping) != len(dom):
            extra = [a for a in mapping if a not in dom]
            raise IllFormedFunction(f"assignment for non-element {extra[0]!r}")
        bad = [v for v in mapping.values() if v not in cod._set]
        if bad:
            raise IllFormedFunction(f"value {bad[0]!r} lies outside codomain")
        self.dom = dom
        self.cod = cod
        self.graph = tuple([(a, mapping[a]) for a in dom.elements])
        self._map = mapping
        self._hash = None
        self._fibers = None

    def __call__(self, e: Element) -> Element:
        return self._map[e]

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, FinFn) and self.dom == other.dom
                and self.cod == other.cod and self.graph == other.graph)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.dom, self.cod, self.graph))
        return self._hash

    def __repr__(self) -> str:
        return f"FinFn({len(self.dom)}->{len(self.cod)}, {list(self.graph)!r})"

    @property
    def is_identity(self) -> bool:
        return self.dom == self.cod and all(a == v for a, v in self.graph)

    @property
    def is_bijective(self) -> bool:
        return (len(self.dom) == len(self.cod)
                and len({v for _, v in self.graph}) == len(self.dom))

    def fiber(self, b: Element) -> tuple[Element, ...]:
        """All domain elements mapping to b, in canonical order."""
        if self._fibers is None:
            fibers: dict[Element, list[Element]] = {c: [] for c in self.cod}
            for a, v in self.graph:
                fibers[v].append(a)
            self._fibers = {c: tuple(es) for c, es in fibers.items()}
        return self._fibers[b]

    def image(self) -> FinSetObj:
        return FinSetObj({v for _, v in self.graph})

    def inverse(self) -> "FinFn":
        if not self.is_bijective:
            raise IllFormedFunction("function is not bijective")
        return FinFn(self.cod, self.dom, [(v, a) for a, v in self.graph])


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
        return all(self.leg1(self.proj1(e)) == self.leg2(self.proj2(e))
                   for e in self.apex)


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
    return FinFn(obj, obj, [(e, e) for e in obj])


def constant_fn(dom: FinSetObj, cod: FinSetObj, value: Element) -> FinFn:
    return FinFn(dom, cod, [(e, value) for e in dom])


def compose_fn(g: FinFn, f: FinFn) -> FinFn:
    """Pointwise composite g o f; boundaries must match structurally."""
    if f.cod != g.dom:
        raise NotComposable("codomain of f differs from domain of g")
    return FinFn(f.dom, g.cod, [(a, g(v)) for a, v in f.graph])


def pullback(f: FinFn, g: FinFn) -> PullbackSquare:
    """Chosen pullback of the cospan (f, g).

    The canonical apex is the set of pairs Pair(a, b) with f(a) = g(b),
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
    elems = [Pair(a, b) for a in f.dom for b in g.fiber(f(a))]
    apex = FinSetObj(elems)
    proj1 = FinFn(apex, f.dom, [(e, e.left) for e in apex])
    proj2 = FinFn(apex, g.dom, [(e, e.right) for e in apex])
    return PullbackSquare(apex, proj1, proj2, f, g)


def check_pullback(sq: PullbackSquare) -> bool:
    """Decide whether a commuting square is a pullback.

    Uses the concrete criterion: the map e |-> (proj1 e, proj2 e) must be a
    bijection onto the matching pairs of the cospan.  In a well-pointed
    category of finite sets this is equivalent to the universal property
    over arbitrary test objects.
    """
    if not sq.commutes():
        raise NotASquare("square does not commute")
    leg1, leg2 = sq.leg1, sq.leg2
    want = {(a, b) for a in leg1.dom if leg1(a) in leg2.cod
            for b in leg2.fiber(leg1(a))}
    got = [(sq.proj1(e), sq.proj2(e)) for e in sq.apex]
    return len(got) == len(set(got)) == len(want) and set(got) == want


def mediate(sq: PullbackSquare, t1: FinFn, t2: FinFn) -> FinFn:
    """The unique map into a pullback apex induced by a commuting cone.

    t1 and t2 share a domain T, land in proj1.cod and proj2.cod, and
    satisfy leg1 o t1 = leg2 o t2.  Under paranoid_checks the uniqueness
    is re-verified by scanning the whole apex per point.
    """
    if t1.dom != t2.dom:
        raise NotComposable("cone legs must share a domain")
    if t1.cod != sq.proj1.cod or t2.cod != sq.proj2.cod:
        raise NotComposable("cone legs do not match the pullback projections")
    index = {(sq.proj1(e), sq.proj2(e)): e for e in sq.apex}
    pairs = []
    for x in t1.dom:
        target = (t1(x), t2(x))
        if sq.leg1(target[0]) != sq.leg2(target[1]):
            raise NotASquare("cone does not commute with the cospan")
        try:
            pairs.append((x, index[target]))
        except KeyError:
            raise NotASquare("square lacks the pullback property") from None
    if _PARANOID:
        for x in t1.dom:
            hits = [e for e in sq.apex
                    if sq.proj1(e) == t1(x) and sq.proj2(e) == t2(x)]
            if len(hits) != 1:
                raise NotASquare("mediating element is not unique")
    return FinFn(t1.dom, sq.apex, pairs)


def pair_set(f: FinFn, g: FinFn) -> int:
    """Cardinality of the canonical pullback of (f, g); test oracle."""
    return sum(1 for a in f.dom for b in g.dom if f(a) == g(b))
