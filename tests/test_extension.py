"""Evaluation of polynomials on slices and the induced transformations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyfin import gen, slices
from polyfin.errors import NotCartesian, NotComposable
from polyfin.extension import (
    coherence_component,
    eval_mor,
    eval_obj,
    faithful_probes,
    nat_component,
)
from polyfin.finset import (
    Atom,
    PullbackSquare,
    check_pullback,
    compose_fn,
    identity_fn,
    mk_finset,
)
from polyfin.poly import (
    CartesianMorphism,
    associator,
    compose2,
    identity_cartesian,
    identity_poly,
    is_cartesian,
)
from polyfin.oracles import coherence_component_direct
from polyfin.slices import (
    SliceMor,
    SliceObj,
    dist_pullback,
    sigma,
    slice_homset,
    terminal_slice,
)
from polyfin.symbolic import (
    encode,
    eval_sym,
    eval_via_extension,
    fiber_slice,
    parse_poly,
)

from support import constant_fn


def cross_squares(trace):
    """The three comparison squares between the two evaluation stages."""
    src, tgt = trace.src_trace, trace.tgt_trace
    s2 = PullbackSquare(src.delta.apex, src.delta.proj2, trace.f2,
                        trace.m.f0, tgt.delta.proj2)
    s3 = PullbackSquare(src.dpb.X, src.dpb.p, trace.f3, trace.f2, tgt.dpb.p)
    s4 = PullbackSquare(src.dpb.Y, src.dpb.r, trace.f4, trace.m.f1,
                        tgt.dpb.r)
    return s2, s3, s4


EXPR = "x^3*y + 2 ; 3*x^2*z + y"
VARS = ["w", "x", "y", "z"]


class TestEvalObj:
    def test_identity_polynomial_strict(self, rng):
        x_base = gen.rand_set(rng, 3, "x")
        x = gen.rand_slice(rng, x_base, 3)
        out, _ = eval_obj(identity_poly(x_base), x)
        assert out == x

    def test_worked_example_counts(self):
        s = parse_poly(EXPR, in_vars=VARS)
        p = encode(s)
        assignment = {"w": 7, "x": 2, "y": 3, "z": 5}
        expected = eval_sym(s, assignment)
        assert expected == {"out1": 2 ** 3 * 3 + 2, "out2": 3 * 2 ** 2 * 5 + 3}
        out, trace = eval_obj(p, fiber_slice(p, assignment))
        counts = {e.token: len(out.arrow.fiber(e)) for e in p.tgt}
        assert counts == expected
        assert trace.delta.leg2 == p.p1 and check_pullback(trace.delta)

    def test_all_fibers_one_counts_summands(self):
        s = parse_poly(EXPR, in_vars=VARS)
        p = encode(s)
        ones = {v: 1 for v in VARS}
        assert eval_sym(s, ones) == {"out1": 3, "out2": 4}
        assert eval_via_extension(p, ones) == {"out1": 3, "out2": 4}

    def test_base_mismatch(self, rng):
        p = gen.rand_poly(rng, 2)
        other = gen.rand_set(rng, 2, "other")
        with pytest.raises(NotComposable):
            eval_obj(p, terminal_slice(other))


class TestEvalTrace:
    """eval_obj computes sigma_p3 pi_p2 delta_p1; the trace builds the
    distributivity pullback when its dpb is first read."""

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_dpb_is_the_chosen_distributivity_pullback(self, seed, size):
        rng = gen.Draws(seed)
        p = gen.rand_poly(rng, size)
        x = gen.rand_slice(rng, p.src, size)
        out, trace = eval_obj(p, x)
        d = trace.dpb
        assert d == dist_pullback(p.p2, trace.delta.proj2)
        assert d.r is trace.product.arrow and trace.dpb is d
        assert out == trace.output == sigma(p.p3, SliceObj(d.r))

    def test_pi_is_looked_up_through_slices(self, monkeypatch):
        p = encode(parse_poly(EXPR, in_vars=VARS))
        x = fiber_slice(p, dict.fromkeys(VARS, 2))
        real, _ = eval_obj(p, x)
        monkeypatch.setattr(slices, "pi",
                            lambda f, y: terminal_slice(f.cod))
        out, _ = eval_obj(p, x)
        assert out == sigma(p.p3, terminal_slice(p.p2.cod)) != real


class TestEvalMor:
    def test_identity_preserved(self, rng):
        p = gen.rand_poly(rng, 3)
        x = gen.rand_slice(rng, p.src, 3)
        out = eval_mor(p, SliceMor(x, x, identity_fn(x.carrier)))
        assert out.mediating.is_identity

    def test_composition_preserved(self, rng):
        for _ in range(8):
            p = gen.rand_poly(rng, 3)
            x = gen.rand_slice(rng, p.src, 2)
            y = gen.rand_slice(rng, p.src, 2)
            z = gen.rand_slice(rng, p.src, 2)
            h1s, h2s = slice_homset(x, y), slice_homset(y, z)
            if not h1s or not h2s:
                continue
            h1, h2 = h1s[0], h2s[-1]
            both = SliceMor(x, z, compose_fn(h2.mediating, h1.mediating))
            assert eval_mor(p, both).mediating == compose_fn(
                eval_mor(p, h2).mediating, eval_mor(p, h1).mediating)

    def test_span_acts_by_pullback_pasting(self, rng):
        from polyfin.finset import pullback

        done = 0
        for _ in range(10):
            sp = gen.rand_span(rng, 3)
            x = gen.rand_slice(rng, sp.src, 2)
            y = gen.rand_slice(rng, sp.src, 2)
            hs = slice_homset(x, y)
            if not hs:
                continue
            done += 1
            h = hs[0]
            out = eval_mor(sp, h)
            sq_x = pullback(x.arrow, sp.p1)
            sq_y = pullback(y.arrow, sp.p1)
            index = {(sq_y.proj1(e), sq_y.proj2(e)): e for e in sq_y.apex}
            expected = {e: index[(h.mediating(sq_x.proj1(e)), sq_x.proj2(e))]
                        for e in sq_x.apex}
            assert dict(out.mediating.graph) == expected
        assert done >= 3


class TestNatComponent:
    def test_terminal_component_is_f1(self, rng):
        for _ in range(6):
            q = gen.rand_poly(rng, 3)
            m = gen.rand_cartesian_into(rng, q, 3)
            comp, _ = nat_component(m, terminal_slice(q.src))
            assert comp.mediating == m.f1

    def test_identity_morphism_gives_identity(self, rng):
        p = gen.rand_poly(rng, 3)
        x = gen.rand_slice(rng, p.src, 2)
        comp, _ = nat_component(identity_cartesian(p), x)
        assert comp.mediating.is_identity

    def test_paranoid_search_runs_on_chosen_targets(self, rng, monkeypatch):
        # Every comparison into a chosen distributivity pullback is checked
        # and counted; no mode has to be switched on.
        checks, counts = [], []

        def recorded(name, seen):
            real = getattr(slices, name)

            def wrapper(*args):
                seen.append(real(*args))
                return seen[-1]
            monkeypatch.setattr(slices, name, wrapper)

        recorded("_assert_unique_dpb_mediator", checks)
        recorded("_count_dpb_mediators", counts)
        p, q, r = gen.rand_composable(rng, 3, 2)
        assert associator(r, q, p).is_iso
        assert checks and counts == [1] * len(checks)
        checks.clear()
        counts.clear()
        q = gen.rand_poly(rng, 2)
        m = gen.rand_cartesian_into(rng, q, 2)
        x = gen.rand_slice(rng, q.src, 2)
        nat_component(m, x)
        assert checks and counts == [1] * len(checks)

    def test_cross_squares_are_pullbacks(self, rng):
        for _ in range(6):
            q = gen.rand_poly(rng, 2)
            m = gen.rand_cartesian_into(rng, q, 2)
            x = gen.rand_slice(rng, q.src, 2)
            _, trace = nat_component(m, x)
            for sq in cross_squares(trace):
                assert check_pullback(sq)

    def test_naturality_squares_are_pullbacks(self, rng):
        done = 0
        for _ in range(10):
            q = gen.rand_poly(rng, 2)
            m = gen.rand_cartesian_into(rng, q, 2)
            x1 = gen.rand_slice(rng, q.src, 2)
            x2 = gen.rand_slice(rng, q.src, 2)
            hs = slice_homset(x1, x2)
            if not hs:
                continue
            done += 1
            h = hs[0]
            c1, _ = nat_component(m, x1)
            c2, _ = nat_component(m, x2)
            ph = eval_mor(m.src_poly, h)
            qh = eval_mor(m.tgt_poly, h)
            assert compose_fn(c2.mediating, ph.mediating) == \
                compose_fn(qh.mediating, c1.mediating)
            assert check_pullback(PullbackSquare(
                c1.src.carrier, ph.mediating, c1.mediating,
                c2.mediating, qh.mediating))
        assert done >= 3

    def test_rejects_non_cartesian(self):
        x = mk_finset(["x"])
        a2 = mk_finset(["a1", "a2"])
        b = mk_finset(["b"])
        from polyfin.poly import mk_poly
        p = mk_poly(constant_fn(a2, x, Atom("x")),
                    constant_fn(a2, b, Atom("b")),
                    constant_fn(b, x, Atom("x")))
        q = mk_poly(constant_fn(b, x, Atom("x")), identity_fn(b),
                    constant_fn(b, x, Atom("x")))
        m = CartesianMorphism(p, q, constant_fn(a2, b, Atom("b")),
                              identity_fn(b))
        assert not is_cartesian(m)
        with pytest.raises(NotCartesian):
            nat_component(m, terminal_slice(x))


class TestCoherence:
    def test_identity_pair_gives_identity(self, rng):
        x_base = gen.rand_set(rng, 3, "x")
        i = identity_poly(x_base)
        x = gen.rand_slice(rng, x_base, 2)
        comp = coherence_component(i, i, x)
        assert comp.mediating.is_identity

    def test_single_variable_chain_size(self):
        sq = encode(parse_poly("x^2", in_vars=["x"], out_names=["y"]))
        cu = encode(parse_poly("y^3 + 1", in_vars=["y"], out_names=["z"]))
        x = fiber_slice(sq, {"x": 2})
        comp = coherence_component(cu, sq, x)
        assert comp.is_bijective
        assert len(comp.src.carrier) == 2 ** 6 + 1
        assert len(comp.tgt.carrier) == 2 ** 6 + 1

    def test_two_routes_agree(self, rng):
        for _ in range(6):
            p = gen.rand_poly(rng, 2)
            q = gen.rand_poly(rng, 2, src=p.tgt)
            x = gen.rand_slice(rng, p.src, 2)
            via_mediation = coherence_component(q, p, x)
            direct = coherence_component_direct(q, p, x)
            assert via_mediation.mediating == direct.mediating

    def test_bijective_and_natural(self, rng):
        for _ in range(5):
            p = gen.rand_poly(rng, 2)
            q = gen.rand_poly(rng, 2, src=p.tgt)
            x1 = gen.rand_slice(rng, p.src, 2)
            x2 = gen.rand_slice(rng, p.src, 2)
            c1 = coherence_component(q, p, x1)
            assert c1.is_bijective
            hs = slice_homset(x1, x2)
            if not hs:
                continue
            h = hs[0]
            c2 = coherence_component(q, p, x2)
            lhs = compose_fn(c2.mediating,
                             eval_mor(q, eval_mor(p, h)).mediating)
            rhs = compose_fn(eval_mor(compose2(q, p), h).mediating,
                             c1.mediating)
            assert lhs == rhs


class TestFaithfulConservative:
    def test_distinct_morphisms_distinguished(self, rng):
        found = 0
        for _ in range(12):
            pair = gen.rand_parallel_pair(rng, 2)
            if pair is None:
                continue
            found += 1
            m1, m2 = pair
            one, q1_slice = faithful_probes(m1.tgt_poly)
            same_at_one = nat_component(m1, one)[0].mediating == \
                nat_component(m2, one)[0].mediating
            same_at_q1 = nat_component(m1, q1_slice)[0].mediating == \
                nat_component(m2, q1_slice)[0].mediating
            assert not (same_at_one and same_at_q1)
        assert found >= 4

    def test_bijective_probes_imply_iso(self, rng):
        for _ in range(10):
            q = gen.rand_poly(rng, 2)
            m = gen.rand_cartesian_into(rng, q, 2)
            one, q1_slice = faithful_probes(q)
            both = (nat_component(m, one)[0].is_bijective
                    and nat_component(m, q1_slice)[0].is_bijective)
            assert both == m.is_iso
