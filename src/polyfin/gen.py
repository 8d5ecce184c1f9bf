"""Seeded random generators for sets, maps, slices, polynomials and friends.

Everything is driven by a caller-supplied Draws, a random.Random that
also counts the sets drawn from it, so the law harness is reproducible:
one seed determines every generated instance and every set name, and
no state outlives the stream.  Sizes stay tiny on purpose; all the laws
checked here are only tractable on small carriers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

from .errors import NotComposable
from .finset import (
    Atom,
    FinFn,
    FinSetObj,
    Pair,
    compose_fn,
    identity_fn,
    mk_finset,
    pullback,
)
from .poly import (
    CartesianMorphism,
    Polynomial,
    SubdividedComposite,
    cartesian_homset,
)
from .slices import DistPB, SliceObj, dist_pullback
from .symbolic import SymPoly


@dataclass(frozen=True)
class InstanceGenConfig:
    """Knobs of the law harness: seed, size bound and case count."""

    seed: int = 0
    max_set_size: int = 3
    cases: int = 50

    def __post_init__(self):
        if self.max_set_size < 1:
            raise ValueError("max_set_size must be at least 1")
        if self.cases < 0:
            raise ValueError("cases must not be negative")


class Draws(random.Random):
    """A seeded random stream that also numbers the sets drawn from it.

    fresh_set names the k-th set of a stream after k, so one seed gives
    one sequence of names, and two streams never share a counter.
    """

    def __init__(self, seed):
        super().__init__(seed)
        self.sets = 0


def fresh_set(rng: Draws, size: int, tag: str = "e") -> FinSetObj:
    rng.sets += 1
    return mk_finset([f"{tag}{rng.sets}.{i}" for i in range(size)])


def rand_set(rng: Draws, max_size: int, tag: str = "e",
             min_size: int = 1) -> FinSetObj:
    return fresh_set(rng, rng.randint(min_size, max_size), tag)


def rand_fn(rng: Draws, dom: FinSetObj, cod: FinSetObj) -> FinFn:
    if len(cod) == 0 and len(dom) > 0:
        raise NotComposable("no function into an empty set")
    return FinFn(dom, cod, [(e, rng.choice(cod.elements)) for e in dom])


def rand_slice(rng: Draws, base: FinSetObj, max_carrier: int,
               tag: str = "c") -> SliceObj:
    if len(base) == 0:
        max_carrier = 0
    carrier = rand_set(rng, max_carrier, tag, min_size=0)
    return SliceObj(rand_fn(rng, carrier, base))


def doubled_slice(base: FinSetObj) -> SliceObj:
    """The slice with constant fiber two; detects every non-bijection."""
    carrier = FinSetObj([Pair(e, Atom(str(i))) for e in base for i in range(2)])
    return SliceObj(FinFn(carrier, base, [(x, x.left) for x in carrier]))


def probe_slices(base: FinSetObj, max_carrier: int) -> list[SliceObj]:
    """Deterministic probe family: terminal, doubled, and small fresh ones."""
    out = [SliceObj(identity_fn(base)), doubled_slice(base)]
    for k in range(min(max_carrier, 2) + 1):
        carrier = mk_finset([f"pr{k}.{i}" for i in range(k)])
        for values in product(base.elements, repeat=k):
            out.append(SliceObj(FinFn(carrier, base,
                                      list(zip(carrier.elements, values)))))
    return out


def rand_poly(rng: Draws, max_size: int,
              src: FinSetObj | None = None,
              tgt: FinSetObj | None = None) -> Polynomial:
    src = src if src is not None else rand_set(rng, max_size, "x")
    tgt = tgt if tgt is not None else rand_set(rng, max_size, "y")
    mid_src = rand_set(rng, max_size, "a", min_size=0)
    mid_tgt = rand_set(rng, max_size, "b")
    if len(mid_src) == 0:
        mid_src = fresh_set(rng, 0, "a")
    p2 = rand_fn(rng, mid_src, mid_tgt)
    return Polynomial(rand_fn(rng, mid_src, src), p2,
                      rand_fn(rng, mid_tgt, tgt))


def rand_span(rng: Draws, max_size: int,
              src: FinSetObj | None = None,
              tgt: FinSetObj | None = None) -> Polynomial:
    src = src if src is not None else rand_set(rng, max_size, "x")
    tgt = tgt if tgt is not None else rand_set(rng, max_size, "y")
    apex = rand_set(rng, max_size, "a", min_size=0)
    return Polynomial(rand_fn(rng, apex, src), identity_fn(apex),
                      rand_fn(rng, apex, tgt))


def rand_composable(rng: Draws, count: int,
                    max_size: int) -> list[Polynomial]:
    polys = []
    obj = rand_set(rng, max_size, "x")
    for _ in range(count):
        p = rand_poly(rng, max_size, src=obj)
        polys.append(p)
        obj = p.tgt
    return polys


def rand_cartesian_into(rng: Draws, q: Polynomial,
                        max_size: int) -> CartesianMorphism:
    """A random cartesian morphism with target q, built by pulling back."""
    if len(q.mid_tgt) == 0:
        mid_tgt = fresh_set(rng, 0, "nb")
    else:
        mid_tgt = rand_set(rng, max_size, "nb")
    f1 = rand_fn(rng, mid_tgt, q.mid_tgt)
    sq = pullback(q.p2, f1)
    p = Polynomial(compose_fn(q.p1, sq.proj1), sq.proj2, compose_fn(q.p3, f1))
    return CartesianMorphism(p, q, sq.proj1, f1)


def rand_parallel_pair(rng: Draws, max_size: int
                       ) -> tuple[CartesianMorphism, CartesianMorphism] | None:
    """Two distinct cartesian morphisms between one pair of polynomials,
    or None after 20 draws without one."""
    for _ in range(20):
        q = rand_poly(rng, max_size)
        p = rand_cartesian_into(rng, q, max_size).src_poly
        homset = cartesian_homset(p, q)
        if len(homset) >= 2:
            i, j = rng.sample(range(len(homset)), 2)
            return homset[i], homset[j]
    return None


def duplicate_dpb(d: DistPB, rng: Draws) -> DistPB | None:
    """A non-terminal pullback-around: one product point duplicated."""
    if len(d.Y) == 0:
        return None
    y0 = rng.choice(d.Y.elements)
    extra = Pair(Atom("dup"), y0)
    y2 = FinSetObj(list(d.Y.elements) + [extra])
    r2 = FinFn(y2, d.r.cod, list(d.r.graph) + [(extra, d.r(y0))])
    wrap = {x: Pair(Atom("o"), x) for x in d.X}
    dup = {x: Pair(Atom("d"), x) for x in d.X if d.q(x) == y0}
    x2 = FinSetObj(list(wrap.values()) + list(dup.values()))
    p2 = [(e, d.p(e.right)) for e in x2]
    q2 = [(e, extra if e.left == Atom("d") else d.q(e.right)) for e in x2]
    return DistPB(d.around_f, d.around_g, x2, y2,
                  FinFn(x2, d.p.cod, p2), FinFn(x2, y2, q2), r2)


def shrink_dpb(d: DistPB, rng: Draws) -> DistPB | None:
    """A non-terminal pullback-around: one product point dropped."""
    if len(d.Y) <= 1:
        return None
    y0 = rng.choice(d.Y.elements)
    y2 = FinSetObj([y for y in d.Y if y != y0])
    keep = [x for x in d.X if d.q(x) != y0]
    x2 = FinSetObj(keep)
    return DistPB(d.around_f, d.around_g, x2, y2,
                  FinFn(x2, d.p.cod, [(x, d.p(x)) for x in keep]),
                  FinFn(x2, y2, [(x, d.q(x)) for x in keep]),
                  FinFn(y2, d.r.cod, [(y, d.r(y)) for y in y2]))


def rand_dpb(rng: Draws, max_size: int) -> DistPB:
    a = rand_set(rng, max_size, "a")
    b = rand_set(rng, max_size, "b")
    z = rand_set(rng, max_size, "z", min_size=0)
    f = rand_fn(rng, a, b)
    g = rand_fn(rng, z, a)
    return dist_pullback(f, g)


def rand_sdc(rng: Draws, seq: list[Polynomial],
             max_size: int) -> SubdividedComposite:
    """A random valid subdivided composite over seq, built right to left.

    The last object and its map into the final stage are free; every
    earlier stage is forced to be a pullback, then q1 is whatever the
    axioms dictate.  If a stage admits no lift the attempt is retried, up
    to ten times, then the empty carrier is used, which always works.
    """
    n = len(seq)
    if n == 0:
        raise NotComposable("need a nonempty sequence")
    for attempt in range(11):
        size = 0 if attempt == 10 else rng.randint(0, max_size)
        y_last = fresh_set(rng, size, "ry")
        if len(seq[-1].mid_tgt) == 0 and size > 0:
            continue
        s_cur = FinFn(y_last, seq[-1].mid_tgt,
                      [(e, rng.choice(seq[-1].mid_tgt.elements))
                       for e in y_last])
        built = _build_sdc(rng, seq, y_last, s_cur)
        if built is not None:
            return built
    raise NotComposable("could not build a subdivided composite")


def _build_sdc(rng: Draws, seq: list[Polynomial], y_last: FinSetObj,
               s_cur: FinFn) -> SubdividedComposite | None:
    q2s: list[FinFn] = []
    rs: list[FinFn] = []
    ss: list[FinFn] = [s_cur]
    n = len(seq)
    for i in range(n - 1, -1, -1):
        p = seq[i]
        sq = pullback(ss[0], p.p2)
        q2s.insert(0, sq.proj1)
        rs.insert(0, sq.proj2)
        if i > 0:
            below = compose_fn(p.p1, rs[0])
            prev = seq[i - 1]
            choices = []
            for e in sq.apex:
                fib = prev.p3.fiber(below(e))
                if not fib:
                    return None
                choices.append(fib)
            ss.insert(0, FinFn(sq.apex, prev.mid_tgt,
                               [(e, rng.choice(c))
                                for e, c in zip(sq.apex.elements, choices)]))
    q1 = compose_fn(seq[0].p1, rs[0])
    q3 = compose_fn(seq[-1].p3, ss[-1])
    return SubdividedComposite(over=tuple(seq), q1=q1, q2s=tuple(q2s), q3=q3,
                               rs=tuple(rs), ss=tuple(ss))


def rand_sympoly(rng: Draws, max_vars: int = 3, max_degree: int = 3,
                 max_monomials: int = 3,
                 n_outputs: int | None = None) -> SymPoly:
    """Up to max_monomials monomials per output, each repeated once or
    twice."""
    nv = rng.randint(1, max_vars)
    in_vars = tuple(f"v{i}" for i in range(nv))
    n_out = n_outputs if n_outputs is not None else rng.randint(1, 2)
    out_vars = tuple(f"out{i + 1}" for i in range(n_out))
    monomials = {}
    for o in out_vars:
        monos = []
        for _ in range(rng.randint(0, max_monomials)):
            deg = rng.randint(0, max_degree)
            mono = tuple(sorted(rng.choice(in_vars) for _ in range(deg)))
            for _ in range(rng.randint(1, 2)):
                monos.append(mono)
        monomials[o] = tuple(monos)
    return SymPoly(in_vars, out_vars, monomials)


def rand_assignment(rng: Draws, s: SymPoly) -> dict[str, int]:
    """A value from 0 to 4 for every input variable."""
    return {v: rng.randint(0, 4) for v in s.in_vars}
