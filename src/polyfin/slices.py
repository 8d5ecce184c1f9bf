"""Slice-category machinery over finite sets.

Provides the three change-of-base functors between slices (post-composition,
pullback, dependent product), distributivity pullbacks with their
terminality test, the comparison map whose invertibility characterizes
terminality, and the natural section triples of a distributivity
pullback.

Dependent-product sections are numbered in one place, _Sections: a
section over b is b's offset plus the mixed-radix number of its choices
in the fibers.  That numbering gives pi its arrow and the arrow's fibers,
decodes a distributivity pullback's p, and encodes every section table
(pi_tabulate), all on position tables, so no caller reads or builds a
Sect.  A section's value at a point is read one way, by division
(_Sections.decode).  pi's carrier and the apexes of chosen pullbacks are
lazy, built only when their elements are read; pi's recipe
(SectionsRecipe) keeps pi's numbering, which also reads one section by
its number (_Sections.section), so a set's elements can be named without
building it.  The chosen degenerate shapes make the identity laws strict:
pulling back along an identity, or taking the dependent product along an
identity, returns its argument on the nose.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import islice, product
from math import prod
from operator import attrgetter, mul
from typing import Callable, Iterable

from .errors import (
    IllFormedFunction,
    IllFormedMorphism,
    NotAPullbackAround,
    NotASection,
    NotComposable,
)
from .finset import (
    Element,
    FinFn,
    FinSetObj,
    Pair,
    PullbackSquare,
    Sect,
    _take,
    compose_fn,
    identity_fn,
    lazy_finset,
    mediate,
)


@dataclass(frozen=True)
class SliceObj:
    """An object of the slice over arrow.cod: just an arrow into the base."""

    arrow: FinFn

    @property
    def base(self) -> FinSetObj:
        return self.arrow.cod

    @property
    def carrier(self) -> FinSetObj:
        return self.arrow.dom


@dataclass(frozen=True)
class SliceMor:
    """A commuting triangle between two slice objects over one base."""

    src: SliceObj
    tgt: SliceObj
    mediating: FinFn

    def __post_init__(self):
        if self.src.base != self.tgt.base:
            raise IllFormedMorphism("slice morphism must stay over one base")
        if compose_fn(self.tgt.arrow, self.mediating) != self.src.arrow:
            raise IllFormedMorphism("triangle over the base does not commute")

    @property
    def is_bijective(self) -> bool:
        return self.mediating.is_bijective


def terminal_slice(base: FinSetObj) -> SliceObj:
    return SliceObj(identity_fn(base))


def sigma(f: FinFn, x: SliceObj) -> SliceObj:
    """Post-composition with f, sending a slice over f.dom to one over f.cod."""
    if x.base != f.dom:
        raise NotComposable("slice base must be the domain of f")
    return SliceObj(compose_fn(f, x.arrow))


def sigma_mor(f: FinFn, h: SliceMor) -> SliceMor:
    return SliceMor(sigma(f, h.src), sigma(f, h.tgt), h.mediating)


def delta(f: FinFn, y: SliceObj) -> tuple[SliceObj, FinFn]:
    """Pullback of a slice over f.cod along f, plus the counit leg.

    Returns (x, eps) where x lives over f.dom and eps maps x's carrier back
    to y's carrier.  Inherits the pullback normalization, so
    delta(f, 1) = (1, f) and delta(id, y) = (y, id) strictly.
    """
    if y.base != f.cod:
        raise NotComposable("slice base must be the codomain of f")
    sq = pullback_square_for_delta(f, y)
    return SliceObj(sq.proj2), sq.proj1


def pullback_square_for_delta(f: FinFn, y: SliceObj) -> PullbackSquare:
    from .finset import pullback
    return pullback(y.arrow, f)


def delta_mor(f: FinFn, h: SliceMor) -> SliceMor:
    """Image of a slice morphism under pullback along f."""
    src_sq = pullback_square_for_delta(f, h.src)
    tgt_sq = pullback_square_for_delta(f, h.tgt)
    med = mediate(tgt_sq, compose_fn(h.mediating, src_sq.proj1), src_sq.proj2)
    return SliceMor(SliceObj(src_sq.proj2), SliceObj(tgt_sq.proj2), med)


class _Sections:
    """The numbering of pi(f, x)'s sections on positions, for x into f.dom.

    A section over b picks a point of x's fiber over each point a of f's
    fiber over b.  Its number is offset[b], the count of sections over
    earlier points, plus the sum of each pick's rank within its x-fiber
    times stride[a], the product of the x-fiber sizes of the later points
    of f's fiber: a mixed radix, first point most significant.  For f an
    identity pi(f, x) is x, and a section is numbered by its one value.
    decode reads a section's value at a point by division, for (point,
    section) pairs in any order; section and every caller read through it.
    """

    def __init__(self, f: FinFn, x: FinFn):
        self.identity, self.fidx, self.xidx = f.is_identity, f.idx, x.idx
        self.fibers, self.xfibers = f.fiber_positions(), x.fiber_positions()
        self.offset, self.stride = [0], [0] * len(f.idx)
        for fib in self.fibers:
            weight = 1
            for a in reversed(fib):
                self.stride[a] = weight
                weight *= len(self.xfibers[a])
            self.offset.append(self.offset[-1] + weight)

    def section(self, y: int) -> tuple[int, list[int]]:
        """The point b that section y lies over, and its values at f's
        fiber over b, in the fiber's order."""
        b = bisect_right(self.offset, y) - 1
        fib = self.fibers[b]
        return b, self.decode(fib, [y] * len(fib))

    def decode(self, at: Iterable[int], ys: Iterable[int]) -> list[int]:
        """For each point a in at and section y in ys, y's value at a."""
        if self.identity:
            return list(ys)
        xfibers, offset, stride, fidx = (self.xfibers, self.offset,
                                         self.stride, self.fidx)
        return [xfibers[a][(y - offset[fidx[a]]) // stride[a] % len(xfibers[a])]
                for a, y in zip(at, ys)]

    def encode(self, bs: tuple[int, ...],
               values: Callable[[list[int], list[int]], list[int]]
               ) -> list[int]:
        """Section numbers over bs; values(es, at)[k] is es[k]'s value at at[k].

        (es, at) runs through f's fiber over bs[e] for each e in turn.
        """
        fibers, stride = self.fibers, self.stride
        es = [e for e, b in enumerate(bs) for _ in fibers[b]]
        at = [a for b in bs for a in fibers[b]]
        vals = values(es, at)
        if _take(self.xidx, vals) != tuple(at):
            raise IllFormedFunction("section value lies outside its fiber")
        if self.identity:
            return vals
        rank = {v: i for fib in self.xfibers for i, v in enumerate(fib)}
        digits = iter(map(mul, _take(rank, vals), _take(stride, at)))
        return [self.offset[b] + sum(islice(digits, len(fibers[b])))
                for b in bs]


def pi(f: FinFn, x: SliceObj) -> SliceObj:
    """Dependent product of a slice over f.dom along f.

    The carrier over b consists of the section tables of x's fibers across
    f's fiber of b, encoded Pair(b, Sect(...)), in itertools.product order
    of the choices, which is canonical and is _Sections' numbering.  The
    arrow and its fibers come from that numbering; the carrier is lazy.
    Degenerate shapes are strict: pi(id, x) = x and pi(f, 1) = 1.
    """
    if x.base != f.dom:
        raise NotComposable("slice base must be the domain of f")
    if f.is_identity:
        return x
    if x.arrow.is_identity:
        return terminal_slice(f.cod)
    sections = _Sections(f, x.arrow)
    offset, over, fibers = sections.offset, [], []
    for b, (lo, hi) in enumerate(zip(offset, offset[1:])):
        over += [b] * (hi - lo)
        fibers.append(list(range(lo, hi)))
    carrier = lazy_finset(len(over), SectionsRecipe(f, x.arrow, sections))
    arrow = FinFn(carrier, f.cod, idx=over)
    arrow._fibers = fibers  # the sections over b are numbered consecutively
    return SliceObj(arrow)


class SectionsRecipe:
    """How pi(f, x) lists its carrier, for x the arrow of a slice over
    f.dom: section number n is Pair(b, Sect(...)) as numbering, pi's
    _Sections(f, x), numbers it.

    Calling it builds every section in that order; a reader that wants
    section n alone can decode it from the numbering instead.
    """

    __slots__ = ("f", "x", "numbering")

    def __init__(self, f: FinFn, x: FinFn, numbering: _Sections):
        self.f, self.x, self.numbering = f, x, numbering

    def __call__(self) -> list[Element]:
        f, x, elems = self.f, self.x, []
        for b in f.cod:
            fib = f.fiber(b)
            for combo in product(*[x.fiber(a) for a in fib]):
                elems.append(Pair(b, Sect(zip(fib, combo))))
        return elems


def pi_tabulate(f: FinFn, x: SliceObj, base: FinFn,
                values: Callable[[list[int], list[int]], list[int]],
                cod: FinSetObj) -> FinFn:
    """The map base.dom -> cod sending e to a pi(f, x) section over base(e).

    Its values come from values(es, at), as in _Sections.encode; cod is
    the carrier of pi(f, x) or a set equal to it.
    """
    return FinFn(base.dom, cod,
                 idx=_Sections(f, x.arrow).encode(base.idx, values))


def pi_mor(f: FinFn, h: SliceMor) -> SliceMor:
    """Image of a slice morphism under the dependent product along f."""
    src, tgt = pi(f, h.src), pi(f, h.tgt)
    sections, med = _Sections(f, h.src.arrow), h.mediating.idx
    return SliceMor(src, tgt, pi_tabulate(
        f, h.tgt, src.arrow,
        lambda es, at: [med[v] for v in sections.decode(at, es)],
        tgt.carrier))


@dataclass(frozen=True)
class DistPB:
    """A pullback around (f, g) presented as distributivity-pullback data.

    Shape: X --p--> Z --g--> A --f--> B with Y --r--> B and X --q--> Y,
    where the outer square (g o p, f, r, q) is a pullback.  Only the maps
    are stored; X and Y are read off p and r.  Terminality among all
    pullbacks around (f, g) is what check_dpb_terminal decides;
    constructors of candidates are free to violate it.
    """

    around_f: FinFn
    around_g: FinFn
    p: FinFn
    q: FinFn
    r: FinFn

    X = property(attrgetter("p.dom"))
    Y = property(attrgetter("r.dom"))

    def outer_square(self) -> PullbackSquare:
        return PullbackSquare(self.X, compose_fn(self.around_g, self.p),
                              self.q, self.around_f, self.r)

    def validate_shape(self) -> None:
        f, g = self.around_f, self.around_g
        if g.cod != f.dom:
            raise NotAPullbackAround("g must land in the domain of f")
        if (self.q.dom != self.p.dom or self.q.cod != self.r.dom
                or self.p.cod != g.dom or self.r.cod != f.cod):
            raise NotAPullbackAround("arrows do not match the stated objects")
        if not self.outer_square().commutes():
            raise NotAPullbackAround("outer square does not commute")


def dist_pullback(f: FinFn, g: FinFn) -> DistPB:
    """The chosen distributivity pullback of g along f.

    Y carries pi(f, g) with r its arrow, X is the chosen pullback of r
    along f, and p evaluates the section at the fiber point.  Degenerate
    chains are the chosen strict shapes: for f an identity the result is
    (1, 1, g); for g an identity it is (1, f, 1).  p is decoded on
    positions (_Sections.decode), so neither X nor Y is built.
    """
    if g.cod != f.dom:
        raise NotComposable("g must land in the domain of f")
    return _dist_pullback_over(f, g, pi(f, SliceObj(g)))


def _dist_pullback_over(f: FinFn, g: FinFn, yslice: SliceObj) -> DistPB:
    """dist_pullback(f, g), given yslice = pi(f, SliceObj(g)) as built."""
    from .finset import pullback
    sq = pullback(f, yslice.arrow)
    p = FinFn(sq.apex, g.dom,
              idx=_Sections(f, g).decode(sq.proj1.idx, sq.proj2.idx))
    return DistPB(f, g, p, sq.proj2, yslice.arrow)


class _OuterIndex(dict):
    """The positions of a square's apex, keyed by (left, right) positions.

    Raises NotAPullbackAround when two points share a key, or when a key
    with no point is looked up: the square is not a pullback then.
    """

    def __init__(self, left: FinFn, right: FinFn):
        super().__init__(zip(zip(left.idx, right.idx), range(len(left.idx))))
        if len(self) != len(left.idx):
            raise NotAPullbackAround("outer square is not a pullback")

    def __missing__(self, key):
        raise NotAPullbackAround("outer square is not a pullback")


def dpb_compare(d: DistPB, p: FinFn, q: FinFn, r: FinFn
                ) -> tuple[FinFn, FinFn]:
    """The unique morphism from a pullback-around into the chosen one.

    d must be the chosen distributivity pullback dist_pullback(f, g), as
    built or an equal copy; for any other target use dpb_mediate.  The
    candidate (p, q, r) must be a pullback around (f, g); its shape is
    checked here.  Returns (s, t) with d.p o s = p, d.q o s = t o q and
    d.r o t = r.  Every call checks those equations and counts the
    morphisms into d, so a target that is not chosen, where (s, t) is not
    a morphism or not the only one, is refused with NotAPullbackAround.
    """
    f, g = d.around_f, d.around_g
    cand = DistPB(f, g, p, q, r)
    cand.validate_shape()
    gp = compose_fn(g, p)
    locate, pidx = _OuterIndex(q, gp), p.idx
    t = pi_tabulate(f, SliceObj(g), r,
                    lambda ys, at: [pidx[locate[k]] for k in zip(ys, at)], d.Y)
    chosen, tidx = _OuterIndex(d.q, compose_fn(g, d.p)), t.idx
    s = FinFn(p.dom, d.X, idx=[chosen[tidx[y], a]
                               for y, a in zip(q.idx, gp.idx)])
    _assert_unique_dpb_mediator(d, cand, s, t)
    return s, t


def check_dpb_terminal(cand: DistPB) -> bool:
    """Decide terminality among pullbacks around (f, g).

    Terminality against the chosen distributivity pullback is equivalent to
    the canonical comparison morphism being a pair of bijections.
    """
    cand.validate_shape()
    chosen = dist_pullback(cand.around_f, cand.around_g)
    s, t = dpb_compare(chosen, cand.p, cand.q, cand.r)
    return s.is_bijective and t.is_bijective


def dpb_mediate(d: DistPB, p_cand: FinFn, q_cand: FinFn,
                r_cand: FinFn) -> tuple[FinFn, FinFn]:
    """Mediating morphism from a pullback-around into any terminal d.

    d may be any distributivity pullback around (f, g), not only the
    chosen one; a target known to be chosen goes to dpb_compare directly.
    Rebuilds the chosen distributivity pullback, compares the candidate
    and d into it, and inverts d's side.
    """
    chosen = dist_pullback(d.around_f, d.around_g)
    s_c, t_c = dpb_compare(chosen, p_cand, q_cand, r_cand)
    s_d, t_d = dpb_compare(chosen, d.p, d.q, d.r)
    if not (s_d.is_bijective and t_d.is_bijective):
        raise NotAPullbackAround("target is not a distributivity pullback")
    return compose_fn(s_d.inverse(), s_c), compose_fn(t_d.inverse(), t_c)


def _assert_unique_dpb_mediator(d: DistPB, cand: DistPB,
                                s: FinFn, t: FinFn) -> None:
    """Refuse unless (s, t) is a morphism from cand into d and the only one.

    The equations compare position tables, as PullbackSquare.commutes
    does: d and cand share f and g, and s and t were built into d.  When
    dpb_compare calls this, d.q o s = t o cand.q holds by construction:
    s(x) is the point that d's own index, keyed by (d.q, g o d.p), holds
    at (t(cand.q x), g(cand.p x)), so d.q(s x) = t(cand.q x).  It is
    still checked, at one gather, so that this refuses any (s, t) that
    is not a morphism, whoever built it; the other two equations and the
    count are what a target that is not chosen fails.
    """
    sidx, tidx = s.idx, t.idx
    if (_take(d.p.idx, sidx) != cand.p.idx
            or _take(d.r.idx, tidx) != cand.r.idx
            or _take(d.q.idx, sidx) != _take(tidx, cand.q.idx)
            or _count_dpb_mediators(d, cand) != 1):
        raise NotAPullbackAround("mediator is not unique")


def _count_dpb_mediators(d: DistPB, cand: DistPB) -> int:
    """The number of morphisms (s, t) from cand into d, in Python ints.

    A morphism has d.p o s = cand.p, d.r o t = cand.r and
    d.q o s = t o cand.q.  So it factors over cand's Y: t sends each y to
    some t_y over cand.r(y), and s then sends each x over y to any x' of
    d.X with (d.p x', d.q x') = (cand.p x, t_y), independently of the
    other points.  The morphisms number

        prod_y sum_{t_y in d.r^-1(cand.r y)} prod_{x in cand.q^-1(y)}
            #{x' : d.p x' = cand.p x, d.q x' = t_y},

    read off one Counter of d's (p, q) position pairs.  That sum is
    quadratic when cand is as large as d.  So when every t of d's Y is a
    section of g over f's fiber, as in the chosen d, and the x over y are
    one over each a of that fiber, y's term is one lookup: the product
    is 1 for the t_y that is the same section as y and 0 for the rest.
    """
    over = Counter(zip(d.p.idx, d.q.idx))
    ts, xs, p = d.r.fiber_positions(), cand.q.fiber_positions(), cand.p.idx
    fibers, g = d.around_f.fiber_positions(), d.around_g.idx
    # The sum takes at most |d.Y| * (|cand.X| + |cand.Y|) steps, which
    # below 64 cost less than reading the sections.
    sections = (None if len(d.r.idx) * (len(p) + len(xs)) <= 64
                else _section_counts(d))

    def term(y: int, r: int) -> int:
        if sections is not None:
            section = _as_section(_take(p, xs[y]), g, fibers[r])
            if section is not None:
                return sections[r, section]
        return sum(prod(over[p[x], ty] for x in xs[y]) for ty in ts[r])

    return prod(term(y, r) for y, r in enumerate(cand.r.idx))


def _section_counts(d: DistPB) -> Counter | None:
    """How many t of d's Y are each (d.r t, section), or None if some t
    is not a section (_as_section of the d.p values over it)."""
    fibers, g, dp, sections = (d.around_f.fiber_positions(),
                               d.around_g.idx, d.p.idx, Counter())
    for r, xs in zip(d.r.idx, d.q.fiber_positions()):
        section = _as_section(_take(dp, xs), g, fibers[r])
        if section is None:
            return None
        sections[r, section] += 1
    return sections


def _as_section(zs: tuple[int, ...], g: tuple[int, ...],
                fiber: list[int]) -> tuple[int, ...] | None:
    """zs as a section of g over fiber, listed in the fiber's order.

    None unless g sends the points zs one to each point of fiber.
    """
    values = dict(zip(_take(g, zs), zs))
    section = tuple(map(values.get, fiber))
    if len(section) == len(zs) and None not in section:
        return section
    return None


def _all_fns(dom: FinSetObj, cod: FinSetObj):
    return (FinFn(dom, cod, idx=values)
            for values in product(range(len(cod)), repeat=len(dom)))


def delta_component(d: DistPB, z: SliceObj) -> SliceMor:
    """Component at z of the comparison sum-of-products -> product-of-sums.

    Maps sigma_r pi_q delta_p z to pi_f sigma_g z by re-indexing sections
    through the outer pullback of d.  A bijection at every z exactly when
    d is terminal.
    """
    f, g = d.around_f, d.around_g
    if z.base != g.dom:
        raise NotComposable("z must live over the domain of g")
    d.validate_shape()
    dz, eps_p = delta(d.p, z)
    piq = pi(d.q, dz)
    lhs = sigma(d.r, piq)
    sg = sigma(g, z)
    rhs = pi(f, sg)
    locate = _OuterIndex(d.q, compose_fn(g, d.p))
    sections, eps, over = _Sections(d.q, dz.arrow), eps_p.idx, piq.arrow.idx
    return SliceMor(lhs, rhs, pi_tabulate(
        f, sg, lhs.arrow,
        lambda es, at: [eps[v] for v in sections.decode(
            [locate[over[e], a] for e, a in zip(es, at)], es)],
        rhs.carrier))


def induce_sections(d: DistPB, s1: FinFn | None = None,
                    s3: FinFn | None = None) -> tuple[FinFn, FinFn, FinFn]:
    """Natural section triple of a distributivity pullback from one seed.

    Given a section s1 of g, or a section s3 of r, produces the unique
    triple (s1, s2, s3) of sections of g, g o p and r with s1 = p o s2 and
    q o s2 = s3 o f.
    """
    f, g = d.around_f, d.around_g
    if (s1 is None) == (s3 is None):
        raise NotASection("provide exactly one of s1, s3")
    if s1 is not None:
        if s1.dom != g.cod or s1.cod != g.dom or not compose_fn(g, s1).is_identity:
            raise NotASection("seed is not a section of g")
        s2, s3_out = dpb_mediate(d, s1, f, identity_fn(f.cod))
        return compose_fn(d.p, s2), s2, s3_out
    if s3.dom != d.r.cod or s3.cod != d.Y or not compose_fn(d.r, s3).is_identity:
        raise NotASection("seed is not a section of r")
    outer = d.outer_square()
    s2 = mediate(outer, identity_fn(f.dom), compose_fn(s3, f))
    return compose_fn(d.p, s2), s2, s3


def slice_homset(x: SliceObj, y: SliceObj) -> list[SliceMor]:
    """All slice morphisms x -> y, enumerated in canonical order."""
    if x.base != y.base:
        raise NotComposable("slices live over different bases")
    yfibers = y.arrow.fiber_positions()
    return [SliceMor(x, y, FinFn(x.carrier, y.carrier, idx=combo))
            for combo in product(*_take(yfibers, x.arrow.idx))]


def sigma_delta_transpose(f: FinFn, x: SliceObj, y: SliceObj,
                          m: SliceMor) -> SliceMor:
    """Adjunct of m : sigma_f x -> y across post-composition -| pullback."""
    sq = pullback_square_for_delta(f, y)
    med = mediate(sq, m.mediating, x.arrow)
    return SliceMor(x, SliceObj(sq.proj2), med)


def delta_pi_transpose(f: FinFn, y: SliceObj, x: SliceObj,
                       m: SliceMor) -> SliceMor:
    """Adjunct of m : delta_f y -> x across pullback -| dependent product."""
    sq = pullback_square_for_delta(f, y)
    locate = _OuterIndex(sq.proj1, sq.proj2)
    target, med = pi(f, x), m.mediating.idx
    return SliceMor(y, target, pi_tabulate(
        f, x, y.arrow, lambda es, at: [med[locate[k]] for k in zip(es, at)],
        target.carrier))


def slice_pullback(m1: SliceMor, m2: SliceMor) -> tuple[SliceMor, SliceMor]:
    """Pullback of a cospan in a slice category, computed on carriers."""
    from .finset import pullback
    if m1.tgt != m2.tgt:
        raise NotComposable("cospan legs must share a target slice")
    sq = pullback(m1.mediating, m2.mediating)
    apex = SliceObj(compose_fn(m1.src.arrow, sq.proj1))
    return (SliceMor(apex, m1.src, sq.proj1), SliceMor(apex, m2.src, sq.proj2))
