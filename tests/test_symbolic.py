"""Expression parsing, encoding/decoding, and the counting cross-check."""

from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyfin import gen, slices
from polyfin.errors import (
    IncompleteAssignment,
    NotNameable,
    ParseError,
)
from polyfin.finset import Atom, FinSetObj, Pair, mk_finset
from polyfin.poly import compose2, identity_poly, span_poly
from polyfin.symbolic import (
    MAX_ELEMENTS,
    SymPoly,
    decode,
    encode,
    eval_sym,
    eval_via_extension,
    eval_with_trace,
    parse_poly,
    substitute,
)

from support import dropped_section_pi, recorded_builds

EXPR = "x^3*y + 2 ; 3*x^2*z + y"
VARS = ["w", "x", "y", "z"]


class TestParse:
    def test_worked_example(self):
        s = parse_poly(EXPR, in_vars=VARS)
        assert s.in_vars == ("w", "x", "y", "z")
        assert s.monomials["out1"] == ((), (), ("x", "x", "x", "y"))
        assert s.monomials["out2"] == (("x", "x", "z"),) * 3 + (("y",),)

    def test_star_optional(self):
        assert parse_poly("3x^2z", in_vars=["x", "z"]) == \
            parse_poly("3*x^2*z", in_vars=["x", "z"])

    def test_zero_polynomial(self):
        s = parse_poly("0")
        assert s.monomials[s.out_vars[0]] == ()

    def test_bare_constant(self):
        s = parse_poly("2")
        assert s.monomials[s.out_vars[0]] == ((), ())

    def test_syntax_error_with_position(self):
        with pytest.raises(ParseError):
            parse_poly("x +* y", in_vars=["x", "y"])
        with pytest.raises(ParseError):
            parse_poly("x +", in_vars=["x"])
        with pytest.raises(ParseError):
            parse_poly("x 2", in_vars=["x"])
        with pytest.raises(ParseError):
            parse_poly("x ? y")

    def test_unknown_variable_rejected(self):
        with pytest.raises(ParseError):
            parse_poly("x + q", in_vars=["x"])

    def test_exponent_needs_natural(self):
        with pytest.raises(ParseError):
            parse_poly("x^y", in_vars=["x", "y"])

    def test_size_limit_is_inclusive_and_counts_only_kept_terms(self):
        """|A| + |B| = MAX_ELEMENTS still parses; a term that 0
        annihilates adds nothing, however large its exponent."""
        s = parse_poly(f"x^{MAX_ELEMENTS - 1}")
        assert s.monomials["out1"] == (("x",) * (MAX_ELEMENTS - 1),)
        s = parse_poly("0x^99999999 + 2y")
        assert s.in_vars == ("x", "y")
        assert s.monomials["out1"] == (("y",), ("y",))
        with pytest.raises(ParseError, match=rf"\|B\| >= {MAX_ELEMENTS + 1}"):
            parse_poly(f"{MAX_ELEMENTS + 1}")

    @given(st.integers(0, 3), st.integers(0, 3), st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_render_parse_roundtrip(self, coeff, exp, extra):
        text = f"{coeff}*x^{exp} + {extra}"
        s = parse_poly(text, in_vars=["x"])
        again = parse_poly(s.render(), in_vars=["x"])
        assert again.monomials == s.monomials


class TestEncode:
    def test_worked_example_cardinalities(self):
        p = encode(parse_poly(EXPR, in_vars=VARS))
        assert len(p.src) == 4
        assert len(p.mid_src) == 14
        assert len(p.mid_tgt) == 7
        assert len(p.tgt) == 2

    def test_constant_polynomial(self):
        p = encode(parse_poly("1", in_vars=[]))
        assert len(p.mid_tgt) == 1 and len(p.mid_src) == 0

    def test_tokens_positional(self):
        p = encode(parse_poly("x*y", in_vars=["x", "y"]))
        assert Atom("m0") in p.mid_tgt
        assert Atom("m0.u0") in p.mid_src


class TestDecode:
    def test_roundtrip_worked_example(self):
        s = parse_poly(EXPR, in_vars=VARS)
        back = decode(encode(s))
        assert back.monomials == s.monomials
        assert set(back.out_vars) == set(s.out_vars)

    def test_identity_polynomial_is_variable(self):
        p = identity_poly(mk_finset(["x"]))
        s = decode(p)
        assert s.monomials == {"x": (("x",),)}
        assert s.render() == "x"

    def test_bijective_span_is_linear(self):
        x = mk_finset(["u", "v"])
        sp = span_poly(
            mk_fn_like(x), mk_fn_like(x))
        s = decode(sp)
        assert all(len(m) == 1 for monos in s.monomials.values()
                   for m in monos)

    def test_non_atom_boundary_rejected(self):
        from polyfin.finset import FinFn, FinSetObj
        from polyfin.poly import Polynomial
        pair_set = FinSetObj([Pair(Atom("a"), Atom("b"))])
        one = FinFn(pair_set, pair_set, [(e, e) for e in pair_set])
        bad = Polynomial(one, one, one)
        with pytest.raises(NotNameable):
            decode(bad)

    def test_roundtrip_random(self, rng):
        for _ in range(20):
            s = gen.rand_sympoly(rng)
            back = decode(encode(s))
            assert back.monomials == s.monomials


def mk_fn_like(x):
    from polyfin.finset import identity_fn
    return identity_fn(x)


class TestEvalSym:
    def test_all_ones(self):
        s = parse_poly(EXPR, in_vars=VARS)
        assert eval_sym(s, {v: 1 for v in VARS}) == {"out1": 1 + 2,
                                                     "out2": 3 + 1}

    def test_worked_point(self):
        s = parse_poly(EXPR, in_vars=VARS)
        assert eval_sym(s, {"w": 7, "x": 2, "y": 3, "z": 5}) == \
            {"out1": 26, "out2": 63}

    def test_zero_kills_monomials(self):
        s = parse_poly("x^2 + 4", in_vars=["x"])
        assert eval_sym(s, {"x": 0}) == {"out1": 4}

    def test_missing_variable(self):
        s = parse_poly("x", in_vars=["x"])
        with pytest.raises(IncompleteAssignment):
            eval_sym(s, {})


# Each case: the input names, each output's monomials in any order, the
# text render gives and eval_sym's values at x = 2, y = 3.
SHAPES = [
    (("x",), {"out1": ()}, "0", {"out1": 0}),
    ((), {"out1": ((),)}, "1", {"out1": 1}),
    ((), {"out1": ((),) * 3}, "3", {"out1": 3}),
    (("x",), {"out1": (("x", "x", "x"),)}, "x^3", {"out1": 8}),
    (("x", "y"), {"out1": (("x", "y", "x"),) * 2}, "2*x^2*y", {"out1": 24}),
    (("x", "y"), {"out1": (("y", "y"), ("x", "y"), (), ("x",), ("y", "x"))},
     "1 + x + 2*x*y + y^2", {"out1": 1 + 2 + 2 * 6 + 9}),
    (("x", "y"), {"out1": (("x", "x"), ()), "out2": (("y",),) * 3},
     "1 + x^2 ; 3*y", {"out1": 5, "out2": 9}),
]


@pytest.mark.parametrize("in_vars, monomials, text, values", SHAPES,
                         ids=[text for _, _, text, _ in SHAPES])
def test_render_and_eval_sym_shapes(in_vars, monomials, text, values):
    s = SymPoly(in_vars, tuple(monomials), monomials)
    assert s.render() == text
    assert eval_sym(s, {"x": 2, "y": 3}) == values
    for v in in_vars:
        with pytest.raises(IncompleteAssignment,
                           match=f"^no value for variable '{v}'$"):
            eval_sym(s, {w: 1 for w in in_vars if w != v})


class TestEvalViaExtension:
    def test_agrees_on_worked_example(self):
        s = parse_poly(EXPR, in_vars=VARS)
        p = encode(s)
        a = {"w": 7, "x": 2, "y": 3, "z": 5}
        assert eval_via_extension(p, a) == eval_sym(s, a)

    def test_identity_echoes_assignment(self):
        p = identity_poly(mk_finset(["u", "v"]))
        assert eval_via_extension(p, {"u": 3, "v": 4}) == {"u": 3, "v": 4}

    def test_randomized_agreement(self, rng):
        for _ in range(30):
            s = gen.rand_sympoly(rng)
            a = gen.rand_assignment(rng, s)
            assert eval_via_extension(encode(s), a) == eval_sym(s, a)

    @given(st.lists(st.lists(st.sampled_from(["u", "v"]),
                             max_size=2).map(tuple),
                    max_size=3).map(tuple),
           st.integers(0, 3), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_property_agreement(self, monos, val_u, val_v):
        s = SymPoly(("u", "v"), ("o",), {"o": monos})
        a = {"u": val_u, "v": val_v}
        assert eval_via_extension(encode(s), a) == eval_sym(s, a)

    def test_missing_variable(self):
        p = encode(parse_poly("x", in_vars=["x"]))
        with pytest.raises(IncompleteAssignment):
            eval_via_extension(p, {"y": 1})

    def test_counting_builds_no_stage_carrier(self):
        p = encode(parse_poly(EXPR, in_vars=VARS))
        a = {"w": 2, "x": 2, "y": 3, "z": 2}
        with recorded_builds() as built:
            counts, trace = eval_with_trace(p, a)
            assert eval_via_extension(p, a) == counts
        assert built == []
        assert counts == eval_sym(parse_poly(EXPR, in_vars=VARS), a)
        assert len(trace.dpb.Y) == sum(counts.values())

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_counts_are_the_product_fibers(self, seed):
        """eval_with_trace sums the product's fiber sizes over each
        p3-fiber.  That equals eval_sym and a recount of the output's table,
        zeros included; and it equals the recount when a dropped-section pi
        builds the product's arrow without pi's fibers."""
        rng = gen.Draws(seed)
        s = gen.rand_sympoly(rng)
        p = encode(s)

        def recount(trace):
            sizes = Counter(trace.output.arrow.idx)
            return {e.token: sizes[j] for j, e in enumerate(p.tgt)}

        for a in (gen.rand_assignment(rng, s), dict.fromkeys(s.in_vars, 0)):
            counts, trace = eval_with_trace(p, a)
            assert counts == eval_sym(s, a) == recount(trace)
            with mock.patch.object(slices, "pi", dropped_section_pi(slices.pi)):
                counts, trace = eval_with_trace(p, a)
            assert counts == recount(trace)

    def test_non_atom_target_is_not_nameable(self):
        bad = identity_poly(FinSetObj([Pair(Atom("o"), Atom("1"))]))
        with pytest.raises(NotNameable, match="target element"):
            eval_with_trace(bad, {})


class TestSubstitution:
    def test_square_then_cube_plus_one(self):
        p = parse_poly("x^2", in_vars=["x"], out_names=["y"])
        q = parse_poly("y^3 + 1", in_vars=["y"], out_names=["z"])
        composite = decode(compose2(encode(q), encode(p)))
        assert composite.monomials == {"z": ((), ("x",) * 6)}
        direct = substitute(q, p)
        assert composite.monomials == direct.monomials
        for t in range(direct.degree() + 1):
            assert eval_sym(composite, {"x": t})["z"] == t ** 6 + 1

    def test_random_single_chains(self, rng):
        for _ in range(10):
            raw_p = gen.rand_sympoly(rng, max_vars=1, max_degree=2,
                                     max_monomials=2, n_outputs=1)
            p = SymPoly(("x",), ("y",),
                        {"y": tuple(tuple("x" for _ in m)
                                    for m in raw_p.monomials["out1"])})
            raw_q = gen.rand_sympoly(rng, max_vars=1, max_degree=2,
                                     max_monomials=2, n_outputs=1)
            q = SymPoly(("y",), ("z",),
                        {"z": tuple(tuple("y" for _ in m)
                                    for m in raw_q.monomials["out1"])})
            composite = decode(compose2(encode(q), encode(p)))
            assert composite.monomials["z"] == substitute(q, p).monomials["z"]
