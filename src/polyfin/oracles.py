"""Reference constructions the law harness checks the core against.

Each function here rebuilds something the core computes, by an independent
route: span composition by one chosen pullback, the left extension of a
subdivided composite (the mirror of the right extension that composition
uses), and the coherence comparison by re-indexing section tables element
by element.  Only laws and tests call them; no core module imports this
one.  Every pullback here is looked up at call time, so a test that
replaces polyfin.finset.pullback reaches these routes as well.
"""

from __future__ import annotations

from .errors import NotComposable
from .extension import eval_obj
from .finset import Element, FinFn, Pair, Sect, compose_fn
from .poly import (
    Polynomial,
    SdCMorphism,
    SubdividedComposite,
    compose2,
    span_poly,
)
from .slices import DistPB, SliceMor, SliceObj, dist_pullback


def span_compose2(q: Polynomial, p: Polynomial) -> Polynomial:
    """Composite of two spans by the chosen pullback; test oracle."""
    from .finset import pullback
    if not (p.is_span and q.is_span):
        raise NotComposable("span composition needs spans")
    if p.tgt != q.src:
        raise NotComposable("spans are not composable")
    sq = pullback(p.p3, q.p1)
    return span_poly(compose_fn(p.p1, sq.proj1), compose_fn(q.p3, sq.proj2))


def restrict_first(sdc: SubdividedComposite) -> SubdividedComposite:
    """Forget the first stage, re-aiming q1 at the next boundary."""
    n = len(sdc.over)
    if n == 0:
        raise NotComposable("nothing to restrict")
    q1 = compose_fn(sdc.over[0].p3, sdc.ss[0])
    return SubdividedComposite(over=sdc.over[1:], q1=q1, q2s=sdc.q2s[1:],
                               q3=sdc.q3, rs=sdc.rs[1:], ss=sdc.ss[1:])


def extend_left(sdc: SubdividedComposite, p1: Polynomial
                ) -> tuple[SubdividedComposite, SdCMorphism]:
    """Left extension by one polynomial, with its counit morphism.

    The mirror of the right extension that terminal_tower builds one
    stage at a time: a chain of distributivity pullbacks over the existing
    stages followed by closing pullbacks.  Used as the independent
    construction against which right extension is compared.
    """
    from .finset import pullback
    m = len(sdc.over)
    n = m + 1
    if sdc.q1.cod != p1.tgt:
        raise NotComposable("extension polynomial does not end at the start")
    if m == 0 and sdc.q1 != sdc.q3:
        raise NotComposable("left extension of an endospan needs q1 = q3")
    sq0 = pullback(sdc.q1, p1.p3)
    g0 = sq0.proj2
    fs = [sq0.proj1]
    dpbs: list[DistPB] = []
    for i in range(1, m + 1):
        d = dist_pullback(sdc.q2s[i - 1], fs[i - 1])
        dpbs.append(d)
        fs.append(d.r)
    q2s: list[FinFn | None] = [None] * n
    eps: list[FinFn | None] = [None] * (m + 1)
    eps[m] = fs[m]
    if m == 0:
        s1new = g0
    else:
        q2s[n - 1] = dpbs[m - 1].q
        gpp = dpbs[m - 1].p
        for j in range(n - 1, 1, -1):
            eps[j - 1] = compose_fn(fs[j - 1], gpp)
            sq = pullback(gpp, dpbs[j - 2].q)
            q2s[j - 1] = sq.proj1
            gpp = compose_fn(dpbs[j - 2].p, sq.proj2)
        s1new = compose_fn(g0, gpp)
        eps[0] = compose_fn(fs[0], gpp)
    sqv0 = pullback(s1new, p1.p2)
    q2s[0] = sqv0.proj1
    r1new = sqv0.proj2
    rs = [r1new]
    ss = [s1new]
    for i in range(2, n + 1):
        rs.append(compose_fn(sdc.rs[i - 2], eps[i - 2]))
        ss.append(compose_fn(sdc.ss[i - 2], eps[i - 1]))
    new = SubdividedComposite(
        over=(p1,) + sdc.over, q1=compose_fn(p1.p1, r1new),
        q2s=tuple(q2s), q3=compose_fn(sdc.q3, fs[m]), rs=tuple(rs), ss=tuple(ss))
    counit = SdCMorphism(restrict_first(new), sdc, tuple(eps))
    return new, counit


def pi_section_value(f: FinFn, x: SliceObj, elem: Element, a: Element) -> Element:
    """Value at fiber point a of the section encoded by a pi(f, x) element.

    Element-level reference for this module; the library reads positions.
    """
    if f.is_identity:
        return elem
    if x.arrow.is_identity:
        return a
    assert isinstance(elem, Pair) and isinstance(elem.right, Sect)
    return elem.right[a]


def pi_make_element(f: FinFn, x: SliceObj, b: Element,
                    values: dict[Element, Element]) -> Element:
    """Encode a section of x over f's fiber of b as a pi(f, x) element."""
    if f.is_identity:
        return values[b]
    if x.arrow.is_identity:
        return b
    return Pair(b, Sect(values.items()))


def coherence_component_direct(q: Polynomial, p: Polynomial,
                               x: SliceObj) -> SliceMor:
    """Independent route to the same comparison, by section re-indexing.

    Rebuilds the composite's staging and transports each nested section
    table pointwise.  Used to cross-check the mediation-based route.
    """
    from .finset import pullback
    if p.tgt != q.src or x.base != p.src:
        raise NotComposable("arguments do not compose")
    op, tp = eval_obj(p, x)
    oq, tq = eval_obj(q, op)
    c = compose2(q, p)
    oc, tc = eval_obj(c, x)
    dslice_p = SliceObj(tp.delta.proj2)
    dslice_q = SliceObj(tq.delta.proj2)
    dslice_c = SliceObj(tc.delta.proj2)
    cpb = pullback(p.p3, q.p1)
    cpb_index = {(cpb.proj1(e), cpb.proj2(e)): e for e in cpb.apex}
    c_dpb = dist_pullback(q.p2, cpb.proj2)
    chain_sq = pullback(compose_fn(cpb.proj1, c_dpb.p), p.p2)
    assert chain_sq.apex == c.mid_src and c_dpb.Y == c.mid_tgt
    mid_slice = SliceObj(cpb.proj2)
    dc_index = {(tc.delta.proj1(e), tc.delta.proj2(e)): e
                for e in tc.delta.apex}
    pairs = []
    for e4 in oq.carrier:
        bq = tq.dpb.r(e4)
        mid_values = {}
        for aq in q.p2.fiber(bq):
            e2 = pi_section_value(q.p2, dslice_q, e4, aq)
            c4 = tq.delta.proj1(e2)
            mid_values[aq] = cpb_index[(tp.dpb.r(c4), aq)]
        mid = pi_make_element(q.p2, mid_slice, bq, mid_values)
        values = {}
        for e0 in c.p2.fiber(mid):
            e3 = chain_sq.proj1(e0)
            ap = chain_sq.proj2(e0)
            aq = cpb.proj2(c_dpb.p(e3))
            e2 = pi_section_value(q.p2, dslice_q, e4, aq)
            c4 = tq.delta.proj1(e2)
            c2elt = pi_section_value(p.p2, dslice_p, c4, ap)
            values[e0] = dc_index[(tp.delta.proj1(c2elt), e0)]
        pairs.append((e4, pi_make_element(c.p2, dslice_c, mid, values)))
    return SliceMor(oq, oc, FinFn(oq.carrier, oc.carrier, pairs))
