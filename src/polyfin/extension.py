"""Evaluation of polynomials on slices and the induced transformations.

A polynomial X <- A -> B -> Y acts on a slice over X as the composite
sigma_p3 pi_p2 delta_p1: pull back along p1, take the dependent product
along p2, and post-compose with p3.  Its trace keeps the pullback square,
the dependent product and the output as built.  The distributivity
pullback that stages the product, which the induced transformations
read, is built when first read, from the product already built.  The
action on slice morphisms, the component family of a cartesian
morphism, and the comparison between iterated and composite evaluation
are all computed by the same mediation machinery as composition itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import slices
from .errors import NotCartesian, NotComposable
from .finset import FinFn, PullbackSquare, compose_fn, mediate
from .poly import (
    CartesianMorphism,
    Polynomial,
    associator,
    compose2,
    embed_map,
    is_cartesian,
)
from .slices import (
    DistPB,
    SliceMor,
    SliceObj,
    delta_mor,
    dpb_compare,
    pullback_square_for_delta,
    sigma,
    sigma_mor,
    pi_mor,
    terminal_slice,
)


@dataclass(frozen=True)
class EvalTrace:
    """One evaluation of p at x, its three stages, dpb built when first read.

    delta pulls x's arrow (leg1) back along p1: apex C2, counit proj1 and
    arrow proj2.  product is pi(p2, SliceObj(delta.proj2)), its carrier
    C4, and output is its arrow post-composed with p3.  dpb is delta's
    arrow's distributivity pullback along p2 (X = C3, Y = C4), with r the
    product's arrow: equal to dist_pullback(p2, delta.proj2), and no pi
    is built again.
    """

    delta: PullbackSquare
    p2: FinFn
    product: SliceObj
    output: SliceObj

    @cached_property
    def dpb(self) -> DistPB:
        return slices._dist_pullback_over(self.p2, self.delta.proj2,
                                          self.product)


@dataclass(frozen=True)
class NatComponentTrace:
    """Audit record of one component of an induced transformation."""

    f2: FinFn
    f3: FinFn
    f4: FinFn
    src_trace: EvalTrace
    tgt_trace: EvalTrace
    m: CartesianMorphism


def eval_obj(p: Polynomial, x: SliceObj) -> tuple[SliceObj, EvalTrace]:
    """Value of the polynomial on a slice over its source, with trace."""
    if x.base != p.src:
        raise NotComposable("slice must live over the polynomial's source")
    dsq = pullback_square_for_delta(p.p1, x)
    # Read through the module, so that a patched slices.pi reaches here.
    prod = slices.pi(p.p2, SliceObj(dsq.proj2))
    out = sigma(p.p3, prod)
    return out, EvalTrace(dsq, p.p2, prod, out)


def eval_mor(p: Polynomial, h: SliceMor) -> SliceMor:
    """Action of the polynomial on a slice morphism."""
    if h.src.base != p.src:
        raise NotComposable("morphism must live over the polynomial's source")
    m2 = delta_mor(p.p1, h)
    m3 = pi_mor(p.p2, m2)
    return sigma_mor(p.p3, m3)


def nat_component(m: CartesianMorphism, x: SliceObj
                  ) -> tuple[SliceMor, NatComponentTrace]:
    """Component at x of the transformation induced by a cartesian morphism.

    Induces the comparison of the pullback stages from the 0-component,
    then lifts through the distributivity pullback of the target; at the
    terminal slice the component is the 1-component itself.
    """
    if not is_cartesian(m):
        raise NotCartesian("component construction needs a cartesian morphism")
    p, q = m.src_poly, m.tgt_poly
    if x.base != p.src:
        raise NotComposable("slice must live over the shared source")
    op, tp = eval_obj(p, x)
    oq, tq = eval_obj(q, x)
    f2 = mediate(tq.delta, tp.delta.proj1,
                 compose_fn(m.f0, tp.delta.proj2))
    f3, f4 = dpb_compare(tq.dpb, compose_fn(f2, tp.dpb.p), tp.dpb.q,
                         compose_fn(m.f1, tp.dpb.r))
    comp = SliceMor(op, oq, f4)
    trace = NatComponentTrace(f2, f3, f4, tp, tq, m)
    return comp, trace


def coherence_component(q: Polynomial, p: Polynomial, x: SliceObj) -> SliceMor:
    """Comparison from iterated evaluation to evaluation of the composite.

    The target-side projection of the canonical comparison between the
    bracketings q o (p o lft x) and (q o p) o lft x; a bijection natural
    in all three arguments.
    """
    if p.tgt != q.src:
        raise NotComposable("polynomials are not composable")
    if x.base != p.src:
        raise NotComposable("slice must live over the inner source")
    a = associator(q, p, embed_map(x.arrow, "left"))
    lhs = eval_obj(q, eval_obj(p, x)[0])[0]
    rhs = eval_obj(compose2(q, p), x)[0]
    return SliceMor(lhs, rhs, a.f1)


def faithful_probes(q: Polynomial) -> tuple[SliceObj, SliceObj]:
    """The two slices that jointly determine a morphism into q."""
    return terminal_slice(q.src), SliceObj(q.p1)
