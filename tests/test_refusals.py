"""Paths that no other test reaches.  Most are refusals: each row of the
table is a minimal bad input and the exact exception it raises.  The last
tests take the few such paths that answer instead."""

import pytest

from polyfin import cli, gen
from polyfin.errors import (
    IllFormedMorphism,
    IncompleteAssignment,
    NotAPullbackAround,
    NotASection,
    NotASquare,
    NotCartesian,
    NotComposable,
    NotNameable,
    ParseError,
)
from polyfin.extension import coherence_component, eval_mor, nat_component
from polyfin.finset import (
    Atom,
    FinFn,
    FinSetObj,
    Pair,
    PullbackSquare,
    identity_fn,
    lazy_finset,
    mediate,
    mk_finset,
    pullback,
)
from polyfin.oracles import (
    coherence_component_direct,
    extend_left,
    pi_make_element,
    restrict_first,
    span_compose2,
)
from polyfin.poly import (
    CartesianMorphism,
    Polynomial,
    SdCMorphism,
    SubdividedComposite,
    cartesian_homset,
    compose2,
    embed_map,
    hcompose2,
    hom_project,
    hom_pullback,
    identity_cartesian,
    identity_endospan,
    identity_poly,
    mediate_into_tower,
    restrict_last,
    sdc_morphisms,
    span_poly,
    terminal_sdc,
    terminal_tower,
    unary_sdc,
    vcompose,
)
from polyfin.slices import (
    DistPB,
    SliceMor,
    SliceObj,
    delta,
    delta_component,
    dist_pullback,
    induce_sections,
    pi,
    slice_homset,
    slice_pullback,
)
from polyfin.symbolic import (
    MAX_ELEMENTS,
    SymPoly,
    fiber_slice,
    parse_poly,
    substitute,
)


def fn(dom, cod, *idx):
    return FinFn(dom, cod, idx=idx)


def swapped(f):
    """f with its two values exchanged; f lands in a two-point set."""
    return fn(f.dom, f.cod, *(1 - j for j in f.idx))


X, A, B, Y = (mk_finset([f"{t}1", f"{t}2"]) for t in "xaby")
C, D, Z = (mk_finset([f"{t}1", f"{t}2"]) for t in "cdz")
ONE, T = mk_finset(["o"]), mk_finset(["t"])
P = Polynomial(fn(A, X, 0, 1), fn(A, B, 0, 1), fn(B, Y, 0, 1))
Q = Polynomial(fn(C, Y, 0, 1), fn(C, D, 0, 1), fn(D, Z, 0, 1))
U = unary_sdc(P)
DPB = dist_pullback(P.p3, P.p2)
OVER_X = SliceObj(fn(A, X, 0, 1))
OVER_Y = SliceObj(fn(B, Y, 0, 1))
CONE = pullback(fn(A, ONE, 0, 0), fn(B, ONE, 0, 0))
PARTIAL = PullbackSquare(T, fn(T, A, 0), fn(T, B, 0), CONE.leg1, CONE.leg2)


def sdc_with(s, **change):
    parts = dict(over=s.over, q1=s.q1, q2s=s.q2s, q3=s.q3, rs=s.rs, ss=s.ss)
    return SubdividedComposite(**{**parts, **change})


def two_stage_with_swapped_s0():
    s = terminal_sdc([P, Q])
    return sdc_with(s, ss=(swapped(s.ss[0]), s.ss[1]))


def endospan(q1, q3):
    return SubdividedComposite(over=(), q1=q1, q2s=(), q3=q3, rs=(), ss=())


REFUSALS = [
    # SubdividedComposite.validate, every branch but the stage pullback.
    ("sdc-counts", lambda: sdc_with(U, q2s=()), NotComposable,
     "component counts do not match the sequence"),
    ("sdc-sequence", lambda: sdc_with(U, over=(P, P), q2s=U.q2s * 2,
                                      rs=U.rs * 2, ss=U.ss * 2),
     NotComposable, "underlying sequence is not composable"),
    ("sdc-q1-start", lambda: sdc_with(U, q1=fn(X, X, 0, 1)), NotComposable,
     "q1/q3 must start at the end objects"),
    ("sdc-endospan", lambda: endospan(fn(X, X, 0, 1), fn(X, Y, 0, 1)),
     NotComposable, "an endospan needs a single base object"),
    ("sdc-q1-lands", lambda: sdc_with(U, q1=P.p2), NotComposable,
     "q1/q3 must land in the sequence boundaries"),
    ("sdc-q2s", lambda: sdc_with(U, q2s=(fn(A, A, 0, 1),)), NotComposable,
     "q2s[0] boundaries are wrong"),
    ("sdc-rs", lambda: sdc_with(U, rs=(fn(A, B, 0, 1),)), NotComposable,
     "rs[0] boundaries are wrong"),
    ("sdc-ss", lambda: sdc_with(U, ss=(fn(B, Y, 0, 1),)), NotComposable,
     "ss[0] boundaries are wrong"),
    ("sdc-q1-factor", lambda: sdc_with(U, q1=fn(A, X, 1, 0)), NotComposable,
     "q1 must factor through the first stage"),
    ("sdc-q3-factor", lambda: sdc_with(U, q3=fn(B, Y, 1, 0)), NotComposable,
     "q3 must factor through the last stage"),
    ("sdc-stages-commute", two_stage_with_swapped_s0, NotComposable,
     "stages 0 and 1 do not commute"),
    ("sdc-morphism-sequence", lambda: SdCMorphism(U, U, ()), NotComposable,
     "morphism does not match the sequence"),
    # finset
    ("atom-token", lambda: Atom(1), TypeError, "atom token must be a string"),
    ("lazy-attribute", lambda: lazy_finset(1, lambda: [Atom("a")]).nope,
     AttributeError, "nope"),
    ("mediate-domain", lambda: mediate(CONE, fn(X, A, 0, 1), fn(Y, B, 0, 1)),
     NotComposable, "cone legs must share a domain"),
    ("mediate-codomain", lambda: mediate(CONE, fn(X, B, 0, 1),
                                         fn(X, B, 0, 1)),
     NotComposable, "cone legs do not match the pullback projections"),
    ("mediate-missing-pair", lambda: mediate(PARTIAL, fn(T, A, 0),
                                             fn(T, B, 1)),
     NotASquare, "square lacks the pullback property"),
    # slices
    ("dpb-g-lands", lambda: DistPB(DPB.around_f, P.p1, DPB.p, DPB.q,
                                   DPB.r).validate_shape(),
     NotAPullbackAround, "g must land in the domain of f"),
    ("dpb-outer-square", lambda: DistPB(DPB.around_f, DPB.around_g, DPB.p,
                                        swapped(DPB.q), DPB.r
                                        ).validate_shape(),
     NotAPullbackAround, "outer square does not commute"),
    ("slice-mor-base", lambda: SliceMor(OVER_X, OVER_Y, fn(A, B, 0, 1)),
     IllFormedMorphism, "slice morphism must stay over one base"),
    ("slice-mor-triangle", lambda: SliceMor(OVER_X, SliceObj(fn(B, X, 0, 1)),
                                            fn(A, B, 1, 0)),
     IllFormedMorphism, "triangle over the base does not commute"),
    ("delta-base", lambda: delta(P.p1, OVER_Y), NotComposable,
     "slice base must be the codomain of f"),
    ("pi-base", lambda: pi(P.p1, OVER_Y), NotComposable,
     "slice base must be the domain of f"),
    ("delta-component-base", lambda: delta_component(DPB, OVER_Y),
     NotComposable, "z must live over the domain of g"),
    ("induce-sections-s3", lambda: induce_sections(DPB, s3=fn(X, X, 0, 1)),
     NotASection, "seed is not a section of r"),
    ("slice-homset-bases", lambda: slice_homset(OVER_X, OVER_Y),
     NotComposable, "slices live over different bases"),
    ("slice-pullback-targets", lambda: slice_pullback(
        SliceMor(OVER_X, OVER_X, identity_fn(A)),
        SliceMor(OVER_Y, OVER_Y, identity_fn(B))),
     NotComposable, "cospan legs must share a target slice"),
    # poly
    ("cartesian-not-parallel", lambda: CartesianMorphism(
        P, Q, fn(A, C, 0, 1), fn(B, D, 0, 1)).validate(),
     NotCartesian, "morphism fails the cartesian conditions"),
    ("cartesian-f1-bounds", lambda: CartesianMorphism(
        P, P, fn(A, A, 0, 1), fn(A, A, 0, 1)).validate(),
     NotCartesian, "morphism fails the cartesian conditions"),
    ("vcompose", lambda: vcompose(identity_cartesian(Q),
                                  identity_cartesian(P)),
     NotComposable, "morphisms are not composable in the hom category"),
    ("restrict-last-empty", lambda: restrict_last(identity_endospan(X)),
     NotComposable, "nothing to restrict"),
    ("mediate-into-tower-sequence", lambda: mediate_into_tower(
        terminal_tower([P]), unary_sdc(Q)),
     NotComposable, "composite is not over the tower's sequence"),
    ("compose2", lambda: compose2(P, P), NotComposable,
     "polynomials are not composable"),
    ("hcompose2", lambda: hcompose2(identity_cartesian(P),
                                    identity_cartesian(P)),
     NotComposable, "morphisms do not compose horizontally"),
    ("hom-pullback", lambda: hom_pullback(identity_cartesian(P),
                                          identity_cartesian(Q)),
     NotComposable, "cospan legs must share a target polynomial"),
    ("embed-map-side", lambda: embed_map(P.p1, "up"), ValueError,
     "side must be 'left' or 'right', got 'up'"),
    ("hom-project-side", lambda: hom_project(P, "up"), ValueError,
     "side must be 'left' or 'right', got 'up'"),
    # extension
    ("eval-mor-base", lambda: eval_mor(P, SliceMor(OVER_Y, OVER_Y,
                                                   identity_fn(B))),
     NotComposable, "morphism must live over the polynomial's source"),
    ("nat-component-base", lambda: nat_component(identity_cartesian(P),
                                                 OVER_Y),
     NotComposable, "slice must live over the shared source"),
    ("coherence-composable", lambda: coherence_component(P, P, OVER_X),
     NotComposable, "polynomials are not composable"),
    ("coherence-base", lambda: coherence_component(Q, P, OVER_Y),
     NotComposable, "slice must live over the inner source"),
    # oracles
    ("span-compose-spans", lambda: span_compose2(P, P), NotComposable,
     "span composition needs spans"),
    ("span-compose-ends", lambda: span_compose2(
        span_poly(fn(A, X, 0, 1), fn(A, Y, 0, 1)),
        span_poly(fn(A, X, 0, 1), fn(A, Y, 0, 1))),
     NotComposable, "spans are not composable"),
    ("restrict-first-empty", lambda: restrict_first(identity_endospan(X)),
     NotComposable, "nothing to restrict"),
    ("extend-left-end", lambda: extend_left(identity_endospan(X), Q),
     NotComposable, "extension polynomial does not end at the start"),
    ("extend-left-endospan", lambda: extend_left(
        endospan(fn(Y, Y, 0, 1), fn(Y, Y, 1, 0)), P),
     NotComposable, "left extension of an endospan needs q1 = q3"),
    ("coherence-direct", lambda: coherence_component_direct(P, P, OVER_X),
     NotComposable, "arguments do not compose"),
    # symbolic
    ("parse-star", lambda: parse_poly("x*"), ParseError,
     "'*' needs a following factor (at position 1)"),
    ("parse-token", lambda: parse_poly("x^2^3"), ParseError,
     "unexpected token '^' (at position 3)"),
    ("parse-out-names", lambda: parse_poly("x", out_names=["a", "b"]),
     ParseError, "output name count does not match the expression "
     "(at position 0)"),
    ("parse-limit", lambda: parse_poly(f"y + x^{MAX_ELEMENTS}"), ParseError,
     f"the diagram would have |A| >= {MAX_ELEMENTS + 1} and |B| >= 2, "
     f"over {MAX_ELEMENTS} (at position 4)"),
    ("sympoly-keys", lambda: SymPoly(("x",), ("y",), {}), ValueError,
     "monomials must be keyed by the output names"),
    ("sympoly-variables", lambda: SymPoly(("x",), ("y",), {"y": (("z",),)}),
     ValueError, "unknown variables ['z']"),
    ("fiber-slice-atom", lambda: fiber_slice(identity_poly(
        FinSetObj([Pair(Atom("a"), Atom("b"))])), {}),
     NotNameable, "source element Pair(Atom('a'), Atom('b')) is not an atom"),
    ("substitute-chain", lambda: substitute(parse_poly("y"),
                                            parse_poly("x ; x")),
     NotComposable, "substitution needs a matching single chain"),
    # the law harness's generators and the command line
    ("rand-fn-empty", lambda: gen.rand_fn(gen.Draws(0), X, mk_finset([])),
     NotComposable, "no function into an empty set"),
    ("rand-sdc-empty", lambda: gen.rand_sdc(gen.Draws(0), [], 2),
     NotComposable, "need a nonempty sequence"),
    ("assignment-digits", lambda: cli._parse_assignment("x=" + "1" * 5000),
     IncompleteAssignment, "value for 'x' is not a natural number"),
]


@pytest.mark.parametrize("call, exc, message",
                         [row[1:] for row in REFUSALS],
                         ids=[row[0] for row in REFUSALS])
def test_refusal(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message


def test_unmatched_ends_have_no_morphisms():
    assert cartesian_homset(P, Q) == []
    assert sdc_morphisms(U, unary_sdc(Q)) == []


def test_answers_no_other_test_reaches():
    assert cli._parse_assignment(" x=1, ,y=2,") == {"x": 1, "y": 2}
    assert parse_poly("x^2  ") == parse_poly("x^2")
    assert repr(ONE) == "FinSetObj([Atom('o')])"
    assert repr(fn(T, ONE, 0)) == "FinFn(1->1, [(Atom('t'), Atom('o'))])"
    b, v = B.elements[0], Atom("v")
    assert pi_make_element(identity_fn(B), OVER_Y, b, {b: v}) is v
