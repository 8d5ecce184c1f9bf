"""Named law checkers with seeded generation and counterexample reports.

Each law draws randomized instances from gen and verifies one invariant of
the library; a failure is recorded with a JSON-serializable counterexample
rather than raising, so a mutated or buggy build produces a readable
report.  Identical seed and configuration give identical reports.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from math import prod

from . import gen, jsonio
from .errors import PolyfinError
from .extension import (
    coherence_component,
    eval_mor,
    eval_obj,
    faithful_probes,
    nat_component,
)
from .finset import (
    Atom,
    FinFn,
    FinSetObj,
    Pair,
    PullbackSquare,
    check_pullback,
    compose_fn,
    identity_fn,
    pullback,
)
from .gen import InstanceGenConfig
from .poly import (
    CartesianMorphism,
    Leaf,
    Node,
    Polynomial,
    TerminalTower,
    associator,
    cartesian_homset,
    compose2,
    compose_seq,
    embed_map,
    flatten_bracketing,
    hom_project,
    hom_pullback,
    identity_cartesian,
    identity_poly,
    is_cartesian,
    mediate_into_tower,
    restrict_last,
    sdc_morphisms,
    shared_towers,
    terminal_tower,
    unary_sdc,
    vcompose,
    whisker_left,
    whisker_right,
)
from .oracles import coherence_component_direct, extend_left, span_compose2
from .slices import (
    DistPB,
    SliceMor,
    SliceObj,
    _all_fns,
    check_dpb_terminal,
    delta,
    delta_component,
    delta_pi_transpose,
    dist_pullback,
    dpb_compare,
    induce_sections,
    pi,
    sigma,
    sigma_delta_transpose,
    slice_homset,
    slice_pullback,
    terminal_slice,
)
from .symbolic import (
    SymPoly,
    decode,
    encode,
    eval_sym,
    eval_via_extension,
    substitute,
)


@dataclass
class LawReport:
    """Outcome of one law run: failures carry serialized counterexamples."""

    law: str
    cases: int
    failures: list[dict] = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {"law": self.law, "cases": self.cases,
                "failures": self.failures, "wall_time_s": self.wall_time_s}


def _homset_size(x, y) -> int:
    yfibers = y.arrow.fiber_positions()
    return prod(len(yfibers[j]) for j in x.arrow.idx)


def _adjunction_instance(rng: gen.Draws, size: int):
    """Instance with enumerable hom-sets; rejection keeps it tractable."""
    for attempt in range(12):
        cap = size if attempt < 11 else 2
        a = gen.rand_set(rng, cap, "a")
        b = gen.rand_set(rng, cap, "b")
        f = gen.rand_fn(rng, a, b)
        x = gen.rand_slice(rng, a, cap)
        y = gen.rand_slice(rng, b, cap)
        bound = max(_homset_size(sigma(f, x), y),
                    _homset_size(delta(f, y)[0], x),
                    _homset_size(y, pi(f, x)))
        if bound <= 2000:
            return f, x, y
    raise PolyfinError("could not draw a tractable adjunction instance")


def _law_adjunctions(rng: gen.Draws, size: int) -> dict | None:
    f, x, y = _adjunction_instance(rng, size)
    lhs = slice_homset(sigma(f, x), y)
    rhs = slice_homset(x, delta(f, y)[0])
    if len(lhs) != _homset_size(sigma(f, x), y):
        return {"adjunction": "sigma-delta", "issue": "size oracle mismatch"}
    images = {m.mediating for m in
              (sigma_delta_transpose(f, x, y, h) for h in lhs)}
    if not (len(lhs) == len(rhs) == len(images)
            and images == {m.mediating for m in rhs}):
        return {"adjunction": "sigma-delta", "f": jsonio.fn_to_json(f),
                "lhs": len(lhs), "rhs": len(rhs)}
    lhs2 = slice_homset(delta(f, y)[0], x)
    rhs2 = slice_homset(y, pi(f, x))
    images2 = {m.mediating for m in
               (delta_pi_transpose(f, y, x, h) for h in lhs2)}
    if not (len(lhs2) == len(rhs2) == len(images2)
            and images2 == {m.mediating for m in rhs2}):
        return {"adjunction": "delta-pi", "f": jsonio.fn_to_json(f),
                "lhs": len(lhs2), "rhs": len(rhs2)}
    return None


def _law_delta_criterion(rng: gen.Draws, size: int) -> dict | None:
    d = gen.rand_dpb(rng, size)
    kind = rng.choice(["genuine", "genuine", "duplicate", "shrink"])
    if kind == "duplicate":
        d = gen.duplicate_dpb(d, rng) or d
    elif kind == "shrink":
        d = gen.shrink_dpb(d, rng) or d
    terminal = check_dpb_terminal(d)
    z_dom = d.around_g.dom
    probes = gen.probe_slices(z_dom, 2)
    bij = [delta_component(d, z).is_bijective for z in probes]
    if terminal and not all(bij):
        return {"kind": kind, "dpb": jsonio.dpb_to_json(d),
                "issue": "terminal but some component is not bijective"}
    if not terminal and all(bij):
        return {"kind": kind, "dpb": jsonio.dpb_to_json(d),
                "issue": "not terminal but every component is bijective"}
    if not terminal and delta_component(d, terminal_slice(z_dom)).is_bijective:
        return {"kind": kind, "dpb": jsonio.dpb_to_json(d),
                "issue": "terminal-slice component misses non-terminality"}
    return None


def _comp_cancel_instance(rng: gen.Draws, size: int):
    for attempt in range(10):
        cap = size if attempt < 9 else 2
        x = gen.rand_set(rng, cap, "x")
        y = gen.rand_set(rng, cap, "y")
        z = gen.rand_set(rng, cap, "z")
        b = gen.rand_set(rng, cap, "h", min_size=0)
        f = gen.rand_fn(rng, x, y)
        g = gen.rand_fn(rng, y, z)
        h = gen.rand_fn(rng, b, x)
        if len(pi(f, SliceObj(h)).carrier) > 400:
            continue
        d1 = dist_pullback(f, h)
        if len(pi(g, SliceObj(d1.r)).carrier) > 400:
            continue
        return f, g, h, d1
    raise PolyfinError("could not draw a tractable pasting instance")


def _law_comp_cancel(rng: gen.Draws, size: int) -> dict | None:
    f, g, h, d1 = _comp_cancel_instance(rng, size)
    right = dist_pullback(g, d1.r)
    if rng.random() < 0.5:
        mutated = gen.duplicate_dpb(right, rng)
        right = mutated or right
    top = pullback(d1.q, right.p)
    composite = DistPB(compose_fn(g, f), h, top.apex, right.Y,
                       compose_fn(d1.p, top.proj1),
                       compose_fn(right.q, top.proj2), right.r)
    right_term = check_dpb_terminal(right)
    comp_term = check_dpb_terminal(composite)
    if right_term != comp_term:
        return {"right_terminal": right_term, "composite_terminal": comp_term,
                "right": jsonio.dpb_to_json(right)}
    return None


def _cube_instance(rng: gen.Draws, size: int):
    for attempt in range(10):
        cap = size if attempt < 9 else 2
        b2 = gen.rand_set(rng, cap, "b2")
        d2 = gen.rand_set(rng, cap, "d2")
        c2 = gen.rand_set(rng, cap, "c2")
        k2 = gen.rand_fn(rng, b2, d2)
        g2 = gen.rand_fn(rng, c2, d2)
        inner = pullback(k2, g2)
        c3 = gen.rand_set(rng, cap, "c3", min_size=0)
        d4 = gen.rand_fn(rng, c3, c2)
        mid = pullback(inner.proj2, d4)
        if (len(pi(g2, SliceObj(d4)).carrier) <= 400
                and len(pi(inner.proj1, SliceObj(mid.proj1)).carrier) <= 400):
            return inner, mid, g2, k2, d4
    raise PolyfinError("could not draw a tractable cube instance")


def _law_cube(rng: gen.Draws, size: int) -> dict | None:
    inner, mid, g2, k2, d4 = _cube_instance(rng, size)
    f2, h2 = inner.proj1, inner.proj2
    d2v, h3 = mid.proj1, mid.proj2
    bottom = dist_pullback(g2, d4)
    d3v, d6 = bottom.p, bottom.r
    top = dist_pullback(f2, d2v)
    if rng.random() < 0.5:
        top = gen.duplicate_dpb(top, rng) or top
    a1, d1v, f1, d5 = top.X, top.p, top.q, top.r
    b1 = top.Y
    u = compose_fn(h3, d1v)
    h1_prime, k1_prime = dpb_compare(bottom, u, f1, compose_fn(k2, d5))
    sq1 = PullbackSquare(a1, d1v, h1_prime, h3, d3v)
    sq2 = PullbackSquare(b1, d5, k1_prime, k2, d6)
    reg12 = check_pullback(sq1) and check_pullback(sq2)
    term3 = check_dpb_terminal(top)
    if reg12 != term3:
        return {"regions_pullback": reg12, "top_terminal": term3,
                "top": jsonio.dpb_to_json(top)}
    return None


def _law_sections(rng: gen.Draws, size: int) -> dict | None:
    b = gen.rand_set(rng, min(size, 2), "sb")
    c = gen.rand_set(rng, min(size, 2), "sc")
    f = gen.rand_fn(rng, b, c)
    a_elems = [Pair(e, Atom(str(i))) for e in b for i in range(rng.randint(1, 2))]
    a = FinSetObj(a_elems)
    g = FinFn(a, b, [(e, e.left) for e in a])
    d = dist_pullback(f, g)
    s1 = FinFn(b, a, [(e, rng.choice(g.fiber(e))) for e in b])
    t1, t2, t3 = induce_sections(d, s1=s1)
    checks = (t1 == s1
              and compose_fn(compose_fn(g, d.p), t2).is_identity
              and compose_fn(d.r, t3).is_identity
              and compose_fn(d.p, t2) == t1
              and compose_fn(d.q, t2) == compose_fn(t3, f))
    if not checks:
        return {"issue": "triple from s1 fails naturality",
                "s1": jsonio.fn_to_json(s1)}
    u1, u2, u3 = induce_sections(d, s3=t3)
    if (u1, u2, u3) != (t1, t2, t3):
        return {"issue": "triple from s3 disagrees",
                "s3": jsonio.fn_to_json(t3)}
    count = 0
    for cand2 in _all_fns(b, d.X):
        if not (compose_fn(d.p, cand2) == t1
                and compose_fn(compose_fn(g, d.p), cand2).is_identity):
            continue
        for cand3 in _all_fns(c, d.Y):
            if (compose_fn(d.r, cand3).is_identity
                    and compose_fn(d.q, cand2) == compose_fn(cand3, f)):
                count += 1
    if count != 1:
        return {"issue": f"{count} natural triples extend s1, expected 1",
                "s1": jsonio.fn_to_json(s1)}
    return None


def _law_units(rng: gen.Draws, size: int) -> dict | None:
    p = gen.rand_poly(rng, size)
    left = compose2(identity_poly(p.tgt), p)
    right = compose2(p, identity_poly(p.src))
    if left != p:
        return {"side": "left", "p": jsonio.poly_to_json(p),
                "got": jsonio.poly_to_json(left)}
    if right != p:
        return {"side": "right", "p": jsonio.poly_to_json(p),
                "got": jsonio.poly_to_json(right)}
    if compose_seq([], at=p.src) != identity_poly(p.src):
        return {"side": "nullary", "p": jsonio.poly_to_json(p)}
    return None


def _law_associativity(rng: gen.Draws, size: int) -> dict | None:
    p, q, r = gen.rand_composable(rng, 3, min(size, 2))
    a = associator(r, q, p)
    if not is_cartesian(a):
        return {"issue": "associator is not cartesian",
                "triple": [jsonio.poly_to_json(t) for t in (p, q, r)]}
    if not a.is_iso:
        return {"issue": "associator is not invertible",
                "triple": [jsonio.poly_to_json(t) for t in (p, q, r)]}
    seq_comp = compose_seq([p, q, r])
    tower = terminal_tower([p, q, r])
    flat = flatten_bracketing(Node(Node(Leaf(p), Leaf(q)), Leaf(r)))
    med = mediate_into_tower(tower, flat)
    if not med.is_iso:
        return {"issue": "nested composite is not isomorphic to the n-ary one",
                "seq": [jsonio.poly_to_json(t) for t in (p, q, r)]}
    if (seq_comp.src, seq_comp.tgt) != (p.src, r.tgt):
        return {"issue": "n-ary composite has wrong boundaries"}
    return None


def _law_pentagon(rng: gen.Draws, size: int) -> dict | None:
    p, q, r, s = gen.rand_composable(rng, 4, min(size, 2))
    e1 = whisker_left(s, associator(r, q, p))
    e2 = associator(s, compose2(r, q), p)
    e3 = whisker_right(associator(s, r, q), p)
    d1 = associator(s, r, compose2(q, p))
    d2 = associator(compose2(s, r), q, p)
    lhs = vcompose(e3, vcompose(e2, e1))
    rhs = vcompose(d2, d1)
    if lhs.f0 != rhs.f0 or lhs.f1 != rhs.f1:
        return {"issue": "pentagon does not commute",
                "chain": [jsonio.poly_to_json(t) for t in (p, q, r, s)]}
    return None


def _law_counits(rng: gen.Draws, size: int) -> dict | None:
    k = rng.randint(1, 2)
    seq = gen.rand_composable(rng, k, min(size, 2))
    tower = terminal_tower(seq)
    sdc = gen.rand_sdc(rng, seq, min(size, 2))
    space = 1
    for ys, yt in zip(sdc.ys, tower.sdc.ys):
        space *= max(len(yt), 1) ** len(ys)
    if space > 200_000:
        return None
    med = mediate_into_tower(tower, sdc)
    others = sdc_morphisms(sdc, tower.sdc)
    if len(others) != 1 or others[0].ts != med.ts:
        return {"issue": f"{len(others)} morphisms into the terminal composite",
                "sdc": jsonio.sdc_to_json(sdc)}
    prefix_tower = TerminalTower(tower.seq[:-1], tower.base,
                                 tower.stages[:-1])
    t_prev = mediate_into_tower(prefix_tower, restrict_last(sdc))
    eps = tower.stages[-1].eps
    for i, (e, t_full) in enumerate(zip(eps, med.ts)):
        if compose_fn(e, t_full) != t_prev.ts[i]:
            return {"issue": "counit triangle fails at a component",
                    "index": i, "sdc": jsonio.sdc_to_json(sdc)}
    if k == 2:
        ext, counit = extend_left(unary_sdc(seq[1]), seq[0])
        med2 = mediate_into_tower(tower, ext)
        if not med2.is_iso:
            return {"issue": "left extension disagrees with right extension",
                    "seq": [jsonio.poly_to_json(t) for t in seq]}
        restricted = counit.src
        if restricted.over != (seq[1],):
            return {"issue": "left-extension counit has a wrong source"}
    return None


def _law_spans(rng: gen.Draws, size: int) -> dict | None:
    k = rng.randint(2, 3)
    spans = []
    obj = gen.rand_set(rng, size, "x")
    for _ in range(k):
        sp = gen.rand_span(rng, size, src=obj)
        spans.append(sp)
        obj = sp.tgt
    via_poly = compose_seq(spans)
    acc = spans[0]
    for sp in spans[1:]:
        acc = span_compose2(sp, acc)
    if via_poly != acc:
        return {"issue": "span composite differs",
                "spans": [jsonio.poly_to_json(t) for t in spans]}
    return None


def _law_lft_rgt(rng: gen.Draws, size: int) -> dict | None:
    x = gen.rand_set(rng, size, "x")
    y = gen.rand_set(rng, size, "y")
    f = gen.rand_fn(rng, x, y)
    lf = embed_map(f, "left")
    rf = embed_map(f, "right")
    rl = compose2(rf, lf)
    diag_pairs = []
    for e in x:
        hits = [m for m in rl.mid_src if rl.p1(m) == e and rl.p3(m) == e]
        if not hits:
            return {"issue": "no diagonal element", "f": jsonio.fn_to_json(f)}
        diag_pairs.append((e, hits[0]))
    diag = FinFn(x, rl.mid_src, diag_pairs)
    eta = CartesianMorphism(identity_poly(x), rl, diag, diag)
    lr = compose2(lf, rf)
    eps = CartesianMorphism(lr, identity_poly(y), f, f)
    if not (is_cartesian(eta) and is_cartesian(eps)):
        return {"issue": "unit or counit is not cartesian",
                "f": jsonio.fn_to_json(f)}
    tri1 = vcompose(whisker_right(eps, lf),
                    vcompose(associator(lf, rf, lf), whisker_left(lf, eta)))
    ident1 = identity_cartesian(lf)
    if tri1.f0 != ident1.f0 or tri1.f1 != ident1.f1:
        return {"issue": "first triangle identity fails",
                "f": jsonio.fn_to_json(f)}
    a = associator(rf, lf, rf)
    tri2 = vcompose(whisker_left(rf, eps),
                    vcompose(CartesianMorphism(a.tgt_poly, a.src_poly,
                                               a.f0.inverse(), a.f1.inverse()),
                             whisker_right(eta, rf)))
    ident2 = identity_cartesian(rf)
    if tri2.f0 != ident2.f0 or tri2.f1 != ident2.f1:
        return {"issue": "second triangle identity fails",
                "f": jsonio.fn_to_json(f)}
    return None


def _law_projections(rng: gen.Draws, size: int) -> dict | None:
    p = gen.rand_poly(rng, size)
    w = gen.rand_set(rng, size, "w")
    z = gen.rand_set(rng, size, "z")
    g = gen.rand_fn(rng, p.src, w)
    f = gen.rand_fn(rng, p.tgt, z)
    rg = embed_map(g, "right")
    lf = embed_map(f, "left")
    checks = [
        ("sigma-left", hom_project(compose2(p, rg), "left")
         == sigma(g, hom_project(p, "left"))),
        ("sigma-right", hom_project(compose2(lf, p), "right")
         == sigma(f, hom_project(p, "right"))),
        ("left-invariant", hom_project(compose2(lf, p), "left")
         == hom_project(p, "left")),
        ("right-invariant", hom_project(compose2(p, rg), "right")
         == hom_project(p, "right")),
    ]
    for name, ok in checks:
        if not ok:
            return {"equation": name, "p": jsonio.poly_to_json(p)}
    return None


def _cospan(rng: gen.Draws, size: int):
    t = gen.rand_poly(rng, size)
    a = gen.rand_cartesian_into(rng, t, size)
    b = gen.rand_cartesian_into(rng, t, size)
    return t, a, b


def _law_hom_pullback(rng: gen.Draws, size: int) -> dict | None:
    t, a, b = _cospan(rng, min(size, 2))
    pa, pb = hom_pullback(a, b)
    if pa.src_poly != pb.src_poly:
        return {"issue": "projections disagree on the apex"}
    apex = pa.src_poly
    if not (is_cartesian(pa) and is_cartesian(pb)):
        return {"issue": "projections are not cartesian",
                "apex": jsonio.poly_to_json(apex)}
    one_comp = PullbackSquare(apex.mid_tgt, pa.f1, pb.f1, a.f1, b.f1)
    if not check_pullback(one_comp):
        return {"issue": "1-component square is not a pullback"}
    cones = [(apex, pa, pb)]
    probe = gen.rand_cartesian_into(rng, apex, min(size, 2))
    cones.append((probe.src_poly, vcompose(pa, probe), vcompose(pb, probe)))
    for w, into_a, into_b in cones:
        mediators = [m for m in cartesian_homset(w, apex)
                     if vcompose(pa, m).f0 == into_a.f0
                     and vcompose(pa, m).f1 == into_a.f1
                     and vcompose(pb, m).f0 == into_b.f0
                     and vcompose(pb, m).f1 == into_b.f1]
        if len(mediators) != 1:
            return {"issue": f"{len(mediators)} mediators for a cone",
                    "w": jsonio.poly_to_json(w)}
    mutant = _duplicate_poly_mid(apex, pa, pb)
    if mutant is not None:
        poly2, ma, mb = mutant
        one = PullbackSquare(poly2.mid_tgt, ma.f1, mb.f1, a.f1, b.f1)
        if check_pullback(one):
            return {"issue": "duplicated apex still has a pullback 1-component"}
        isos = [m for m in cartesian_homset(poly2, apex)
                if m.is_iso
                and vcompose(pa, m).f0 == ma.f0 and vcompose(pa, m).f1 == ma.f1
                and vcompose(pb, m).f0 == mb.f0 and vcompose(pb, m).f1 == mb.f1]
        if isos:
            return {"issue": "non-pullback square is isomorphic to the apex"}
    for x in gen.probe_slices(apex.src, 1)[:3]:
        sq = PullbackSquare(eval_obj(apex, x)[0].carrier,
                            nat_component(pa, x)[0].mediating,
                            nat_component(pb, x)[0].mediating,
                            nat_component(a, x)[0].mediating,
                            nat_component(b, x)[0].mediating)
        if not check_pullback(sq):
            return {"issue": "evaluated square fails the pullback check"}
    return None


def _duplicate_poly_mid(apex, pa, pb):
    """Widen the apex by doubling one mid element; breaks pullback-ness.

    Returns the widened polynomial with its (still commuting) projections,
    or None when the apex middle is empty.
    """
    if len(apex.mid_tgt) == 0:
        return None
    b0 = apex.mid_tgt.elements[0]
    extra = Pair(Atom("dup"), b0)
    mid2 = FinSetObj(list(apex.mid_tgt.elements) + [extra])
    collapse = FinFn(mid2, apex.mid_tgt,
                     [(e, b0 if e == extra else e) for e in mid2])
    p2 = FinFn(apex.mid_src, mid2, [(e, apex.p2(e)) for e in apex.mid_src])
    p3 = FinFn(mid2, apex.tgt, [(e, apex.p3(collapse(e))) for e in mid2])
    poly2 = Polynomial(apex.p1, p2, p3)
    ma = CartesianMorphism(poly2, pa.tgt_poly, pa.f0,
                           compose_fn(pa.f1, collapse))
    mb = CartesianMorphism(poly2, pb.tgt_poly, pb.f0,
                           compose_fn(pb.f1, collapse))
    return poly2, ma, mb


def _law_functor_laws(rng: gen.Draws, size: int) -> dict | None:
    p = gen.rand_poly(rng, size)
    x = gen.rand_slice(rng, p.src, size)
    ident = eval_mor(p, _slice_identity(x))
    if not ident.mediating.is_identity:
        return {"issue": "identity is not preserved",
                "p": jsonio.poly_to_json(p)}
    y = gen.rand_slice(rng, p.src, size)
    z = gen.rand_slice(rng, p.src, size)
    h1s = slice_homset(x, y)
    h2s = slice_homset(y, z)
    if not h1s or not h2s:
        return None
    h1 = rng.choice(h1s)
    h2 = rng.choice(h2s)
    composed = eval_mor(p, _slice_compose(h2, h1))
    stepwise = _slice_compose(eval_mor(p, h2), eval_mor(p, h1))
    if composed.mediating != stepwise.mediating:
        return {"issue": "composition is not preserved",
                "p": jsonio.poly_to_json(p)}
    h1s_to_z = slice_homset(x, z)
    if h1s_to_z:
        m1 = rng.choice(h1s_to_z)
        m2 = rng.choice(h2s)
        left, right = slice_pullback(m1, m2)
        img = PullbackSquare(eval_obj(p, left.src)[0].carrier,
                             eval_mor(p, left).mediating,
                             eval_mor(p, right).mediating,
                             eval_mor(p, m1).mediating,
                             eval_mor(p, m2).mediating)
        if not check_pullback(img):
            return {"issue": "slice pullback is not preserved",
                    "p": jsonio.poly_to_json(p)}
    return None


def _slice_identity(x):
    return SliceMor(x, x, identity_fn(x.carrier))


def _slice_compose(h2, h1):
    return SliceMor(h1.src, h2.tgt, compose_fn(h2.mediating, h1.mediating))


def _law_coherence(rng: gen.Draws, size: int) -> dict | None:
    p = gen.rand_poly(rng, min(size, 2))
    q = gen.rand_poly(rng, min(size, 2), src=p.tgt)
    x = gen.rand_slice(rng, p.src, min(size, 2))
    comp = coherence_component(q, p, x)
    if not comp.is_bijective:
        return {"issue": "coherence component is not bijective",
                "p": jsonio.poly_to_json(p), "q": jsonio.poly_to_json(q)}
    direct = coherence_component_direct(q, p, x)
    if comp.mediating != direct.mediating:
        return {"issue": "mediation route and direct route disagree",
                "p": jsonio.poly_to_json(p), "q": jsonio.poly_to_json(q)}
    x2 = gen.rand_slice(rng, p.src, min(size, 2))
    hs = slice_homset(x, x2)
    if hs:
        h = rng.choice(hs)
        lhs = compose_fn(coherence_component(q, p, x2).mediating,
                         eval_mor(q, eval_mor(p, h)).mediating)
        rhs = compose_fn(eval_mor(compose2(q, p), h).mediating,
                         comp.mediating)
        if lhs != rhs:
            return {"issue": "coherence is not natural",
                    "p": jsonio.poly_to_json(p), "q": jsonio.poly_to_json(q)}
    r = gen.rand_poly(rng, 2, src=q.tgt)
    hex_a = compose_fn(
        nat_component(associator(r, q, p), x)[0].mediating,
        compose_fn(coherence_component(r, compose2(q, p), x).mediating,
                   eval_mor(r, coherence_component(q, p, x)).mediating))
    hex_b = compose_fn(
        coherence_component(compose2(r, q), p, x).mediating,
        coherence_component(r, q, eval_obj(p, x)[0]).mediating)
    if hex_a != hex_b:
        return {"issue": "hexagon does not commute",
                "triple": [jsonio.poly_to_json(t) for t in (p, q, r)]}
    return None


def _law_cartesian_image(rng: gen.Draws, size: int) -> dict | None:
    q = gen.rand_poly(rng, min(size, 2))
    m = gen.rand_cartesian_into(rng, q, min(size, 2))
    p = m.src_poly
    x1 = gen.rand_slice(rng, p.src, min(size, 2))
    x2 = gen.rand_slice(rng, p.src, min(size, 2))
    hs = slice_homset(x1, x2)
    if not hs:
        return None
    h = rng.choice(hs)
    c1, _ = nat_component(m, x1)
    c2, _ = nat_component(m, x2)
    ph = eval_mor(p, h)
    qh = eval_mor(q, h)
    if compose_fn(c2.mediating, ph.mediating) != \
            compose_fn(qh.mediating, c1.mediating):
        return {"issue": "naturality square does not commute",
                "m": jsonio.cartesian_to_json(m)}
    sq = PullbackSquare(c1.src.carrier, ph.mediating, c1.mediating,
                        c2.mediating, qh.mediating)
    if not check_pullback(sq):
        return {"issue": "naturality square is not a pullback",
                "m": jsonio.cartesian_to_json(m)}
    return None


def _law_faithful(rng: gen.Draws, size: int) -> dict | None:
    pair = gen.rand_parallel_pair(rng, min(size, 2))
    if pair is None:
        return None
    m1, m2 = pair
    one, q1_slice = faithful_probes(m1.tgt_poly)
    at_one = (nat_component(m1, one)[0].mediating,
              nat_component(m2, one)[0].mediating)
    at_q1 = (nat_component(m1, q1_slice)[0].mediating,
             nat_component(m2, q1_slice)[0].mediating)
    if at_one[0] == at_one[1] and at_q1[0] == at_q1[1]:
        return {"issue": "probes fail to distinguish distinct morphisms",
                "m1": jsonio.cartesian_to_json(m1),
                "m2": jsonio.cartesian_to_json(m2)}
    return None


def _law_conservative(rng: gen.Draws, size: int) -> dict | None:
    q = gen.rand_poly(rng, min(size, 2))
    m = gen.rand_cartesian_into(rng, q, min(size, 2))
    one, q1_slice = faithful_probes(q)
    both_bij = (nat_component(m, one)[0].is_bijective
                and nat_component(m, q1_slice)[0].is_bijective)
    if both_bij != m.is_iso:
        return {"issue": "bijective probes disagree with invertibility",
                "m": jsonio.cartesian_to_json(m)}
    return None


def _law_oracle_agreement(rng: gen.Draws, size: int) -> dict | None:
    s = gen.rand_sympoly(rng)
    a = gen.rand_assignment(rng, s)
    expected = eval_sym(s, a)
    got = eval_via_extension(encode(s), a)
    if expected != got:
        return {"poly": s.render(), "assignment": a,
                "expected": expected, "got": got}
    return None


def _law_roundtrip(rng: gen.Draws, size: int) -> dict | None:
    s = gen.rand_sympoly(rng)
    back = decode(encode(s))
    if back.monomials != s.monomials or set(back.out_vars) != set(s.out_vars):
        return {"poly": s.render(), "back": back.render()}
    return None


def _law_substitution(rng: gen.Draws, size: int) -> dict | None:
    raw_p = gen.rand_sympoly(rng, max_vars=1, max_degree=2, max_monomials=2,
                             n_outputs=1)
    p = SymPoly(("v0",), ("y",), {"y": raw_p.monomials[raw_p.out_vars[0]]})
    raw_q = gen.rand_sympoly(rng, max_vars=1, max_degree=2, max_monomials=2,
                             n_outputs=1)
    q = SymPoly(("y",), ("z",),
                {"z": tuple(tuple("y" for _ in mono)
                            for mono in raw_q.monomials[raw_q.out_vars[0]])})
    composite = compose2(encode(q), encode(p))
    text = json.dumps(jsonio.poly_to_json(composite))
    if jsonio.poly_from_json(json.loads(text)) != composite:
        return {"p": p.render(), "q": q.render(),
                "issue": "composite does not read back equal"}
    decoded = decode(composite)
    expected = substitute(q, p)
    if decoded.monomials != {"z": expected.monomials["z"]}:
        return {"p": p.render(), "q": q.render(),
                "decoded": decoded.render(), "expected": expected.render()}
    degree = expected.degree()
    for t in range(degree + 1):
        lhs = eval_sym(decoded, {"v0": t})["z"]
        rhs = eval_sym(q, {"y": eval_sym(p, {"v0": t})["y"]})["z"]
        if lhs != rhs:
            return {"p": p.render(), "q": q.render(), "point": t,
                    "lhs": lhs, "rhs": rhs}
    return None


LAWS: dict[str, tuple[str, object]] = {
    "adjunctions": ("hom-set bijections between post-composition/pullback "
                    "and pullback/dependent-product pairs",
                    _law_adjunctions),
    "delta-criterion": ("terminality of a pullback-around is equivalent to "
                        "the sum/product comparison being bijective",
                        _law_delta_criterion),
    "comp-cancel": ("pasting a pullback onto a distributivity pullback is "
                    "terminal exactly when the composite is",
                    _law_comp_cancel),
    "cube": ("in the cube shape, the side squares are pullbacks exactly "
             "when the top pullback-around is terminal", _law_cube),
    "sections": ("a distributivity pullback extends one section to a "
                 "unique natural triple of sections", _law_sections),
    "units": ("identity polynomials are strict units for composition",
              _law_units),
    "associativity": ("associators are invertible cartesian morphisms and "
                      "n-ary composites match nested binary ones",
                      _law_associativity),
    "pentagon": ("the pentagon of associators commutes on the nose",
                 _law_pentagon),
    "counits": ("there is exactly one morphism from any subdivided "
                "composite into the terminal one, and left and right "
                "extension agree", _law_counits),
    "spans": ("composition of spans coincides with span composition by "
              "pullback", _law_spans),
    "lft-rgt": ("companion/conjoint spans of a map are adjoint: both "
                "triangle identities hold", _law_lft_rgt),
    "projections": ("hom projections interact with companions and "
                    "conjoints by the four strict equations",
                    _law_projections),
    "hom-pullback": ("hom categories have pullbacks computed "
                     "componentwise, detected by the 1-component",
                     _law_hom_pullback),
    "functor-laws": ("evaluation preserves identities and composition of "
                     "slice morphisms", _law_functor_laws),
    "coherence": ("iterated evaluation agrees with evaluation of the "
                  "composite via a natural bijection; hexagon commutes",
                  _law_coherence),
    "cartesian-image": ("components of an induced transformation form "
                        "pullback naturality squares", _law_cartesian_image),
    "faithful": ("distinct cartesian morphisms are distinguished by the "
                 "terminal and first-leg probes", _law_faithful),
    "conservative": ("bijective components at the probes force the "
                     "morphism itself to be invertible", _law_conservative),
    "oracle-agreement": ("diagram evaluation by counting equals arithmetic "
                         "evaluation", _law_oracle_agreement),
    "roundtrip": ("decoding an encoded expression returns it up to "
                  "monomial order", _law_roundtrip),
    "substitution": ("composition of encoded expressions is substitution "
                     "of expressions, and the composite reads back from "
                     "JSON unchanged", _law_substitution),
}


def run_law(name: str, cfg: InstanceGenConfig) -> LawReport:
    """Run one law for cfg.cases cases, recording failures."""
    if name not in LAWS:
        raise KeyError(f"unknown law {name!r}")
    _, checker = LAWS[name]
    rng = gen.Draws(f"{cfg.seed}:{name}")
    report = LawReport(law=name, cases=cfg.cases)
    start = time.perf_counter()
    for i in range(cfg.cases):
        try:
            with shared_towers():
                detail = checker(rng, cfg.max_set_size)
        except Exception as exc:
            detail = {"error": type(exc).__name__, "message": str(exc)}
        if detail is not None:
            report.failures.append({"case": i, "detail": detail})
    report.wall_time_s = round(time.perf_counter() - start, 4)
    return report


def run_laws(names: list[str], cfg: InstanceGenConfig) -> list[LawReport]:
    return [run_law(name, cfg) for name in names]
