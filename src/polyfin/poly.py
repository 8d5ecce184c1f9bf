"""Polynomial diagrams over finite sets and their bicategorical composition.

A polynomial from X to Y is a diagram X <- A -> B -> Y.  A polynomial
stores only its three maps, and a subdivided composite only its maps:
their objects are the ends of those maps, so no construction assembles
them and no check compares a stored copy.  Composition of a composable
sequence is the associated polynomial of the terminal subdivided
composite over it, built here by repeatedly extending on the right.  The
mirror construction, extension on the left, lives in oracles as the
independent route the laws compare against.

Because chosen pullbacks and distributivity pullbacks are normalized at
identities, identity polynomials are strict units for this composition,
span composites coincide on the nose with span composition by pullback,
and composites with a companion (lft) on the left or a conjoint (rgt) on
the right reduce to the one-line formulas without special-casing.

Comparisons between bracketings are computed structurally: every iterated
binary composite is flattened to a subdivided composite over the full
sequence and mediated into the terminal one, never searched for.

Inside shared_towers(), which the law harness opens around each case,
towers share their stages by value: the stage built over a sequence
prefix is reused by every later tower whose sequence starts with an
equal prefix.  The block's memo dies with it.  A tower grows from an
identity base over a checked sequence, so a stage checks no boundary.
Towers and flattenings assemble composites unchecked and validate each
once, where terminal_tower or flatten_bracketing returns it.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import product
from operator import attrgetter
from typing import Iterator

from .errors import IllFormedPolynomial, NotCartesian, NotComposable
from .finset import (
    FinFn,
    FinSetObj,
    PullbackSquare,
    check_pullback,
    compose_fn,
    identity_fn,
    mediate,
    pullback,
)
from .slices import (
    DistPB,
    SliceObj,
    dist_pullback,
    dpb_compare,
)


@dataclass(frozen=True)
class Polynomial:
    """Bridge diagram src <-p1- mid_src -p2-> mid_tgt -p3-> tgt.

    Only the three legs are stored; the four objects are their ends.
    Building one checks that the legs meet.
    """

    p1: FinFn
    p2: FinFn
    p3: FinFn

    def __post_init__(self):
        if self.p1.dom != self.p2.dom:
            raise IllFormedPolynomial("p1 and p2 must share a domain")
        if self.p2.cod != self.p3.dom:
            raise IllFormedPolynomial("p2 must land in the domain of p3")

    src = property(attrgetter("p1.cod"))
    mid_src = property(attrgetter("p1.dom"))
    mid_tgt = property(attrgetter("p2.cod"))
    tgt = property(attrgetter("p3.cod"))

    @property
    def is_span(self) -> bool:
        return self.p2.is_identity

    @property
    def is_identity(self) -> bool:
        return self.p1.is_identity and self.p2.is_identity and self.p3.is_identity


# Callers outside the package import the constructor by this name too.
mk_poly = Polynomial


def identity_poly(obj: FinSetObj) -> Polynomial:
    one = identity_fn(obj)
    return Polynomial(one, one, one)


def embed_map(f: FinFn, side: str) -> Polynomial:
    """Companion (side="left") or conjoint (side="right") span of a map.

    lft f is the span (1, 1, f); rgt f is (f, 1, 1).
    """
    one = identity_fn(f.dom)
    if side == "left":
        return Polynomial(one, one, f)
    if side == "right":
        return Polynomial(f, one, one)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def span_poly(left: FinFn, right: FinFn) -> Polynomial:
    """The span with apex left.dom = right.dom and identity middle."""
    if left.dom != right.dom:
        raise IllFormedPolynomial("span legs must share an apex")
    return Polynomial(left, identity_fn(left.dom), right)


@dataclass(frozen=True)
class CartesianMorphism:
    """A pair of maps between parallel polynomials.

    Stored leniently; is_cartesian decides whether boundaries agree and
    the middle square is a pullback.
    """

    src_poly: Polynomial
    tgt_poly: Polynomial
    f0: FinFn
    f1: FinFn

    @property
    def is_iso(self) -> bool:
        return self.f0.is_bijective and self.f1.is_bijective

    def validate(self) -> None:
        if not is_cartesian(self):
            raise NotCartesian("morphism fails the cartesian conditions")


def is_cartesian(m: CartesianMorphism) -> bool:
    """True iff m is parallel, commutes, and has a pullback middle square."""
    p, q = m.src_poly, m.tgt_poly
    if p.src != q.src or p.tgt != q.tgt:
        return False
    if m.f0.dom != p.mid_src or m.f0.cod != q.mid_src:
        return False
    if m.f1.dom != p.mid_tgt or m.f1.cod != q.mid_tgt:
        return False
    if compose_fn(q.p1, m.f0) != p.p1 or compose_fn(q.p3, m.f1) != p.p3:
        return False
    if compose_fn(q.p2, m.f0) != compose_fn(m.f1, p.p2):
        return False
    return check_pullback(PullbackSquare(p.mid_src, p.p2, m.f0, m.f1, q.p2))


def identity_cartesian(p: Polynomial) -> CartesianMorphism:
    return CartesianMorphism(p, p, identity_fn(p.mid_src), identity_fn(p.mid_tgt))


def vcompose(m2: CartesianMorphism, m1: CartesianMorphism) -> CartesianMorphism:
    """Composite in a hom category: first m1, then m2."""
    if m1.tgt_poly != m2.src_poly:
        raise NotComposable("morphisms are not composable in the hom category")
    return CartesianMorphism(m1.src_poly, m2.tgt_poly,
                             compose_fn(m2.f0, m1.f0), compose_fn(m2.f1, m1.f1))


@dataclass(frozen=True)
class SubdividedComposite:
    """Staged composite data (q, r, s) over a composable sequence.

    Only the maps are stored.  The objects ys, one more than over, are the
    domains of the rs followed by the domain of q3.  q1 : ys[0] -> src,
    q3 : ys[n] -> tgt, q2s[i] : ys[i] -> ys[i+1]; rs[i] : ys[i] ->
    over[i].mid_src and ss[i] : ys[i+1] -> over[i].mid_tgt.  Each square
    (q2s[i], ss[i], over[i].p2, rs[i]) is a pullback; adjacent stages
    commute.
    """

    over: tuple[Polynomial, ...]
    q1: FinFn
    q2s: tuple[FinFn, ...]
    q3: FinFn
    rs: tuple[FinFn, ...]
    ss: tuple[FinFn, ...]

    def __post_init__(self):
        self.validate()

    @cached_property
    def ys(self) -> tuple[FinSetObj, ...]:
        return tuple(r.dom for r in self.rs) + (self.q3.dom,)

    def validate(self) -> None:
        n = len(self.over)
        if not (len(self.q2s) == n and len(self.rs) == n and len(self.ss) == n):
            raise NotComposable("component counts do not match the sequence")
        for a, b in zip(self.over, self.over[1:]):
            if a.tgt != b.src:
                raise NotComposable("underlying sequence is not composable")
        if self.q1.dom != self.ys[0]:
            raise NotComposable("q1/q3 must start at the end objects")
        if n == 0:
            if self.q1.cod != self.q3.cod:
                raise NotComposable("an endospan needs a single base object")
            return
        if self.q1.cod != self.over[0].src or self.q3.cod != self.over[-1].tgt:
            raise NotComposable("q1/q3 must land in the sequence boundaries")
        for i, p in enumerate(self.over):
            if self.q2s[i].dom != self.ys[i] or self.q2s[i].cod != self.ys[i + 1]:
                raise NotComposable(f"q2s[{i}] boundaries are wrong")
            if self.rs[i].cod != p.mid_src:
                raise NotComposable(f"rs[{i}] boundaries are wrong")
            if self.ss[i].dom != self.ys[i + 1] or self.ss[i].cod != p.mid_tgt:
                raise NotComposable(f"ss[{i}] boundaries are wrong")
        if compose_fn(self.over[0].p1, self.rs[0]) != self.q1:
            raise NotComposable("q1 must factor through the first stage")
        if compose_fn(self.over[-1].p3, self.ss[-1]) != self.q3:
            raise NotComposable("q3 must factor through the last stage")
        for i in range(n - 1):
            lhs = compose_fn(self.over[i + 1].p1, self.rs[i + 1])
            rhs = compose_fn(self.over[i].p3, self.ss[i])
            if lhs != rhs:
                raise NotComposable(f"stages {i} and {i + 1} do not commute")
        for i, p in enumerate(self.over):
            sq = PullbackSquare(self.ys[i], self.q2s[i], self.rs[i],
                                self.ss[i], p.p2)
            if not check_pullback(sq):
                raise NotComposable(f"stage {i} square is not a pullback")


def _trusted_sdc(**components) -> SubdividedComposite:
    """SubdividedComposite the library assembled from its own stages.

    Takes the constructor's keywords but skips __post_init__; whoever
    returns the composite to a caller validates it.
    """
    sdc = object.__new__(SubdividedComposite)
    sdc.__dict__.update(components)
    return sdc


@dataclass(frozen=True)
class SdCMorphism:
    """Componentwise map between subdivided composites over one sequence."""

    src: SubdividedComposite
    tgt: SubdividedComposite
    ts: tuple[FinFn, ...]

    def __post_init__(self):
        s, t = self.src, self.tgt
        n = len(s.over)
        if t.over != s.over or len(self.ts) != n + 1:
            raise NotComposable("morphism does not match the sequence")
        if s.q1 != compose_fn(t.q1, self.ts[0]):
            raise NotComposable("q1 triangle fails")
        if s.q3 != compose_fn(t.q3, self.ts[-1]):
            raise NotComposable("q3 triangle fails")
        for i in range(n):
            if compose_fn(t.q2s[i], self.ts[i]) != compose_fn(self.ts[i + 1], s.q2s[i]):
                raise NotComposable(f"q2 square {i} fails")
            if s.rs[i] != compose_fn(t.rs[i], self.ts[i]):
                raise NotComposable(f"r triangle {i} fails")
            if s.ss[i] != compose_fn(t.ss[i], self.ts[i + 1]):
                raise NotComposable(f"s triangle {i} fails")

    @property
    def is_iso(self) -> bool:
        return all(t.is_bijective for t in self.ts)


def unary_sdc(p: Polynomial) -> SubdividedComposite:
    """The tautological subdivided composite of a single polynomial."""
    return SubdividedComposite(**_unary_components(p))


def _unary_components(p: Polynomial) -> dict:
    return dict(over=(p,), q1=p.p1, q2s=(p.p2,), q3=p.p3,
                rs=(identity_fn(p.mid_src),), ss=(identity_fn(p.mid_tgt),))


def identity_endospan(obj: FinSetObj) -> SubdividedComposite:
    return SubdividedComposite(**_identity_components(obj))


def _identity_components(obj: FinSetObj) -> dict:
    one = identity_fn(obj)
    return dict(over=(), q1=one, q2s=(), q3=one, rs=(), ss=())


def restrict_last(sdc: SubdividedComposite) -> SubdividedComposite:
    """Forget the last stage, re-aiming q3 at the previous boundary."""
    n = len(sdc.over)
    if n == 0:
        raise NotComposable("nothing to restrict")
    if n == 1:
        q3 = compose_fn(sdc.over[0].p1, sdc.rs[0])
    else:
        q3 = compose_fn(sdc.over[-2].p3, sdc.ss[-2])
    return SubdividedComposite(over=sdc.over[:-1], q1=sdc.q1, q2s=sdc.q2s[:-1],
                               q3=q3, rs=sdc.rs[:-1], ss=sdc.ss[:-1])


@dataclass(frozen=True)
class _Stage:
    """Construction data of one right extension, kept for mediation."""

    sdc: SubdividedComposite
    csq: PullbackSquare
    dpb: DistPB
    chain_sqs: tuple[PullbackSquare, ...]
    eps: tuple[FinFn, ...]


def _extend_right_stage(pn: Polynomial, sdc: SubdividedComposite) -> _Stage:
    n_prev = len(sdc.over)
    csq = pullback(sdc.q3, pn.p1)
    dpb = dist_pullback(pn.p2, csq.proj2)
    eps: list[FinFn | None] = [None] * (n_prev + 1)
    eps[n_prev] = compose_fn(csq.proj1, dpb.p)
    q2s: list[FinFn | None] = [None] * (n_prev + 1)
    q2s[n_prev] = dpb.q
    chain: list[PullbackSquare | None] = [None] * max(n_prev, 0)
    for i in range(n_prev - 1, -1, -1):
        sq = pullback(eps[i + 1], sdc.q2s[i])
        chain[i] = sq
        q2s[i] = sq.proj1
        eps[i] = sq.proj2
    rs = [compose_fn(sdc.rs[i], eps[i]) for i in range(n_prev)]
    rs.append(compose_fn(csq.proj2, dpb.p))
    ss = [compose_fn(sdc.ss[i], eps[i + 1]) for i in range(n_prev)]
    ss.append(dpb.r)
    new = _trusted_sdc(
        over=sdc.over + (pn,), q1=compose_fn(sdc.q1, eps[0]),
        q2s=tuple(q2s), q3=compose_fn(pn.p3, dpb.r), rs=tuple(rs), ss=tuple(ss))
    return _Stage(new, csq, dpb, tuple(chain), tuple(eps))


@dataclass(frozen=True)
class TerminalTower:
    """Terminal subdivided composite over seq, with its construction stages
    from the identity composite base."""

    base: SubdividedComposite
    stages: tuple[_Stage, ...]

    @property
    def sdc(self) -> SubdividedComposite:
        return self.stages[-1].sdc if self.stages else self.base

    seq = property(attrgetter("sdc.over"))


@dataclass
class _TowerMemo:
    """Stages of one shared_towers() block, keyed by their sequence prefix,
    and the keys of the towers whose composite has been validated."""

    stages: dict[tuple[Polynomial, ...], _Stage]
    validated: set[tuple]


_TOWERS: ContextVar[_TowerMemo | None] = ContextVar("polyfin_towers",
                                                    default=None)


@contextmanager
def shared_towers() -> Iterator[None]:
    """Share tower stages by value among the towers built in the block.

    The memo lives only as long as the block; outside one, every tower is
    built afresh.
    """
    token = _TOWERS.set(_TowerMemo({}, set()))
    try:
        yield
    finally:
        _TOWERS.reset(token)


def terminal_tower(seq: list[Polynomial],
                   at: FinSetObj | None = None) -> TerminalTower:
    """The terminal composite over seq, built one right extension at a time
    from the identity composite at seq[0].src, or at at when seq is empty.
    Inside shared_towers() stage k is taken from the block's memo when an
    equal prefix seq[:k+1] was built before.  The returned composite is
    validated once per memo key, seq or, when seq is empty, (at,).
    """
    seq = tuple(seq)
    for a, b in zip(seq, seq[1:]):
        if a.tgt != b.src:
            raise NotComposable("sequence is not composable")
    if not seq and at is None:
        raise NotComposable("an empty sequence needs a base object")
    memo = _TOWERS.get()
    base = _trusted_sdc(**_identity_components(seq[0].src if seq else at))
    stages: list[_Stage] = []
    for k, p in enumerate(seq):
        prev = stages[-1].sdc if stages else base
        if memo is None:
            stages.append(_extend_right_stage(p, prev))
            continue
        stage = memo.stages.get(seq[:k + 1])
        if stage is None:
            stage = memo.stages[seq[:k + 1]] = _extend_right_stage(p, prev)
        stages.append(stage)
    tower = TerminalTower(base, tuple(stages))
    key = seq or (at,)
    if memo is None or key not in memo.validated:
        tower.sdc.validate()
        if memo is not None:
            memo.validated.add(key)
    return tower


def terminal_sdc(seq: list[Polynomial],
                 at: FinSetObj | None = None) -> SubdividedComposite:
    """The terminal subdivided composite over a composable sequence."""
    return terminal_tower(seq, at).sdc


def mediate_into_tower(tower: TerminalTower,
                       sdc: SubdividedComposite) -> SdCMorphism:
    """The unique morphism from a subdivided composite into the terminal one.

    sdc may be any subdivided composite over the tower's sequence; the
    target is the tower's own composite, whose stages are read as kept.
    One forward walk over the stages: at stage k the components into the
    previous stage's composite are lifted through the stage's chosen
    distributivity pullback, then carried back to the start along the
    stage's chain of pullbacks.
    """
    if sdc.over != tower.seq:
        raise NotComposable("composite is not over the tower's sequence")
    if not tower.stages and sdc.q1 != sdc.q3:
        raise NotComposable("no morphism into the identity endospan")
    ts = [sdc.q1]
    for k, stage in enumerate(tower.stages):
        u = mediate(stage.csq, ts[k], sdc.rs[k])
        t_last, t_end = dpb_compare(stage.dpb, u, sdc.q2s[k], sdc.ss[k])
        nxt: list[FinFn | None] = [None] * k + [t_last, t_end]
        for i in range(k - 1, -1, -1):
            nxt[i] = mediate(stage.chain_sqs[i],
                             compose_fn(nxt[i + 1], sdc.q2s[i]), ts[i])
        ts = nxt
    return SdCMorphism(sdc, tower.sdc, tuple(ts))


def _chain_from(sdc: SubdividedComposite, i: int) -> FinFn:
    maps = sdc.q2s[i:]
    if maps:
        return reduce(lambda acc, step: compose_fn(step, acc), maps)
    return identity_fn(sdc.ys[i])


def associated_polynomial(sdc: SubdividedComposite) -> Polynomial:
    """Outer boundary (q1, composite of the q2s, q3) of a composite."""
    return Polynomial(sdc.q1, _chain_from(sdc, 0), sdc.q3)


def compose_seq(seq: list[Polynomial],
                at: FinSetObj | None = None) -> Polynomial:
    """Composite of a composable sequence; [] at X gives the identity."""
    return associated_polynomial(terminal_sdc(seq, at))


def compose2(q: Polynomial, p: Polynomial) -> Polynomial:
    """Binary composite q after p."""
    if p.tgt != q.src:
        raise NotComposable("polynomials are not composable")
    return compose_seq([p, q])


@dataclass(frozen=True)
class Leaf:
    poly: Polynomial


@dataclass(frozen=True)
class Node:
    """Bracketing node; the composite applies second after first."""

    first: "Leaf | Node"
    second: "Leaf | Node"


def bracketing_leaves(tree: Leaf | Node) -> list[Polynomial]:
    if isinstance(tree, Leaf):
        return [tree.poly]
    return bracketing_leaves(tree.first) + bracketing_leaves(tree.second)


def flatten_bracketing(tree: Leaf | Node) -> SubdividedComposite:
    """Subdivided composite over the full leaf sequence realizing a tree.

    Preserves the outer boundary strictly, so its associated polynomial is
    exactly the iterated binary composite of the tree.
    """
    sdc = _flatten(tree)
    sdc.validate()
    return sdc


def _flatten(tree: Leaf | Node) -> SubdividedComposite:
    if isinstance(tree, Leaf):
        return _trusted_sdc(**_unary_components(tree.poly))
    a = _flatten(tree.first)
    b = _flatten(tree.second)
    ma = associated_polynomial(a)
    mb = associated_polynomial(b)
    outer = terminal_sdc([ma, mb])
    return _flatten_binary(outer, a, b)


def _flatten_binary(outer: SubdividedComposite, a: SubdividedComposite,
                    b: SubdividedComposite) -> SubdividedComposite:
    q2s: list[FinFn] = []
    rs: list[FinFn] = []
    ss: list[FinFn] = []
    for side, into_w, into_side, leg in zip((a, b), outer.q2s, outer.rs,
                                             outer.ss):
        for i in range(len(side.over)):
            sq = pullback(leg, _chain_from(side, i + 1))
            q2s.append(mediate(sq, into_w,
                               compose_fn(side.q2s[i], into_side)))
            rs.append(compose_fn(side.rs[i], into_side))
            ss.append(compose_fn(side.ss[i], sq.proj2))
            into_w, into_side = sq.proj1, sq.proj2
    return _trusted_sdc(over=a.over + b.over, q1=outer.q1, q2s=tuple(q2s),
                        q3=outer.q3, rs=tuple(rs), ss=tuple(ss))


def associator(r: Polynomial, q: Polynomial, p: Polynomial) -> CartesianMorphism:
    """Canonical invertible comparison r o (q o p) -> (r o q) o p."""
    return bracketing_comparison(Node(Node(Leaf(p), Leaf(q)), Leaf(r)),
                                 Node(Leaf(p), Node(Leaf(q), Leaf(r))))


def bracketing_comparison(tree_a: Leaf | Node,
                          tree_b: Leaf | Node) -> CartesianMorphism:
    """Canonical comparison between any two bracketings of one sequence.

    Both bracketings are flattened over the leaf sequence and mediated into
    the terminal subdivided composite; the comparison is the composite of
    one mediation with the inverse of the other.
    """
    leaves = bracketing_leaves(tree_a)
    if bracketing_leaves(tree_b) != leaves:
        raise NotComposable("bracketings are over different sequences")
    tower = terminal_tower(leaves)
    flat_a = flatten_bracketing(tree_a)
    flat_b = flatten_bracketing(tree_b)
    t_a = mediate_into_tower(tower, flat_a)
    t_b = mediate_into_tower(tower, flat_b)
    f0 = compose_fn(t_b.ts[0].inverse(), t_a.ts[0])
    f1 = compose_fn(t_b.ts[-1].inverse(), t_a.ts[-1])
    return CartesianMorphism(associated_polynomial(flat_a),
                             associated_polynomial(flat_b), f0, f1)


def hcompose2(g: CartesianMorphism, f: CartesianMorphism) -> CartesianMorphism:
    """Horizontal composite of morphisms: (g : q -> q') o (f : p -> p').

    Relabels the terminal composite of (p, q) along the components of f
    and g, then mediates into the terminal composite of (p', q').
    """
    p, p2 = f.src_poly, f.tgt_poly
    q, q2 = g.src_poly, g.tgt_poly
    if p.tgt != q.src:
        raise NotComposable("morphisms do not compose horizontally")
    f.validate()
    g.validate()
    s = terminal_sdc([p, q])
    relabeled = SubdividedComposite(
        over=(p2, q2), q1=s.q1, q2s=s.q2s, q3=s.q3,
        rs=(compose_fn(f.f0, s.rs[0]), compose_fn(g.f0, s.rs[1])),
        ss=(compose_fn(f.f1, s.ss[0]), compose_fn(g.f1, s.ss[1])))
    tower = terminal_tower([p2, q2])
    m = mediate_into_tower(tower, relabeled)
    return CartesianMorphism(associated_polynomial(s),
                             associated_polynomial(tower.sdc),
                             m.ts[0], m.ts[-1])


def whisker_left(q: Polynomial, f: CartesianMorphism) -> CartesianMorphism:
    """q o f for a morphism f between polynomials composable with q."""
    return hcompose2(identity_cartesian(q), f)


def whisker_right(g: CartesianMorphism, p: Polynomial) -> CartesianMorphism:
    """g o p for a morphism g between polynomials composable with p."""
    return hcompose2(g, identity_cartesian(p))


def hom_project(p: Polynomial, side: str) -> SliceObj:
    """Left projection p1 over src, or right projection p3 over tgt."""
    if side == "left":
        return SliceObj(p.p1)
    if side == "right":
        return SliceObj(p.p3)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def hom_pullback(a: CartesianMorphism, b: CartesianMorphism
                 ) -> tuple[CartesianMorphism, CartesianMorphism]:
    """Pullback of a cospan in a hom category, formed componentwise.

    Returns the two projections from the apex polynomial onto the sources
    of a and b.
    """
    if a.tgt_poly != b.tgt_poly:
        raise NotComposable("cospan legs must share a target polynomial")
    a.validate()
    b.validate()
    p, q = a.src_poly, b.src_poly
    sq0 = pullback(a.f0, b.f0)
    sq1 = pullback(a.f1, b.f1)
    s2 = mediate(sq1, compose_fn(p.p2, sq0.proj1), compose_fn(q.p2, sq0.proj2))
    apex = Polynomial(compose_fn(p.p1, sq0.proj1), s2,
                      compose_fn(p.p3, sq1.proj1))
    return (CartesianMorphism(apex, p, sq0.proj1, sq1.proj1),
            CartesianMorphism(apex, q, sq0.proj2, sq1.proj2))


def cartesian_homset(p: Polynomial, q: Polynomial) -> list[CartesianMorphism]:
    """All cartesian morphisms p -> q between parallel polynomials.

    Enumerates position tables.  (p2, f0) must biject onto the pullback
    of (f1, q.p2), so f1 sends each b into q.p3's fiber over p.p3(b), to
    a point whose q.p2 fiber has the size of p.p2's fiber over b; f0
    sends each x to an a over p.p1(x) with q.p2(a) = f1(p.p2(x)), hitting
    each pair (p.p2(x), a) once.  Exhaustive, in lexicographic order of
    (f1, f0); never mediates.
    """
    if p.src != q.src or p.tgt != q.tgt:
        return []
    out = []
    q1_fibers = q.p1.fiber_positions()
    q2_fibers = q.p2.fiber_positions()
    q3_fibers = q.p3.fiber_positions()
    q2, width = q.p2.idx, len(q.mid_src)
    xs = list(zip(p.p1.idx, p.p2.idx))
    f1_choices = [[j for j in q3_fibers[k] if len(q2_fibers[j]) == len(fib)]
                  for k, fib in zip(p.p3.idx, p.p2.fiber_positions())]
    for f1_pos in product(*f1_choices):
        options = [[(b * width + a, a) for a in q1_fibers[i]
                    if q2[a] == f1_pos[b]] for i, b in xs]
        f0s: list[tuple[int, ...]] = []
        _distinct_picks(options, 0, set(), [], f0s)
        if f0s:
            f1 = FinFn(p.mid_tgt, q.mid_tgt, idx=f1_pos)
            for f0 in f0s:
                out.append(CartesianMorphism(
                    p, q, FinFn(p.mid_src, q.mid_src, idx=f0), f1))
    return out


def _distinct_picks(options: list[list[tuple[int, int]]], i: int,
                    used: set[int], picks: list[int],
                    out: list[tuple[int, ...]]) -> None:
    """Append to out each extension of picks by a value of every options[j],
    j >= i, in lexicographic order.

    An option is a (key, value) pair, and no key is picked twice.  This is
    a module-level recursion, so a call leaves no reference cycle behind.
    """
    if i == len(options):
        out.append(tuple(picks))
        return
    for key, value in options[i]:
        if key not in used:
            used.add(key)
            picks.append(value)
            _distinct_picks(options, i + 1, used, picks, out)
            picks.pop()
            used.remove(key)


def sdc_morphisms(src: SubdividedComposite,
                  tgt: SubdividedComposite) -> list[SdCMorphism]:
    """All morphisms between subdivided composites over one sequence.

    Enumerates the components' position tables stage by stage.  At each
    point ts[i] takes only the values its two triangles admit (q1 or
    ss[i-1], and q3 or rs[i]), and where src.q2s[i-1] hits a point, the
    q2 square against ts[i-1] fixes the value.  So every survivor passes
    SdCMorphism's checks, which raise on an admission bug.  Exhaustive, in
    lexicographic order of the full function spaces; never mediates.
    """
    if src.over != tgt.over:
        return []
    n = len(src.over)
    admitted = []
    for i in range(n + 1):
        (t0, s0), (t1, s1) = legs = (
            (tgt.q1, src.q1) if i == 0 else (tgt.ss[i - 1], src.ss[i - 1]),
            (tgt.q3, src.q3) if i == n else (tgt.rs[i], src.rs[i]))
        if any(t.cod != s.cod for t, s in legs):
            return []
        admitted.append([[v for v in t0.fiber_positions()[j]
                          if t1.idx[v] == s1.idx[u]]
                         for u, j in enumerate(s0.idx)])
    out: list[SdCMorphism] = []
    _sdc_stages(src, tgt, admitted, [], out)
    return out


def _sdc_stages(src: SubdividedComposite, tgt: SubdividedComposite,
                admitted: list[list[list[int]]], ts: list[FinFn],
                out: list[SdCMorphism]) -> None:
    """Extend ts by every admitted component at stage len(ts), in order.

    A module-level recursion, so a call leaves no reference cycle behind.
    """
    i = len(ts)
    if i == len(admitted):
        out.append(SdCMorphism(src, tgt, tuple(ts)))
        return
    choices = admitted[i]
    if i > 0:
        choices = list(choices)
        t2, prev = tgt.q2s[i - 1].idx, ts[-1].idx
        for u, w in enumerate(src.q2s[i - 1].idx):
            v = t2[prev[u]]
            if v not in choices[w]:
                return
            choices[w] = (v,)
    for values in product(*choices):
        ts.append(FinFn(src.ys[i], tgt.ys[i], idx=values))
        _sdc_stages(src, tgt, admitted, ts, out)
        ts.pop()
