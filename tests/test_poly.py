"""Polynomial diagrams: construction, composition, comparisons, homs."""

import gc
from dataclasses import fields
from itertools import product
from math import prod

import pytest

import polyfin.laws
import polyfin.poly
from polyfin import gen
from polyfin.errors import IllFormedPolynomial, NotComposable
from polyfin.finset import (
    Atom,
    FinFn,
    PullbackSquare,
    check_pullback,
    compose_fn,
    identity_fn,
    mk_finset,
    mk_fn,
)
from polyfin.poly import (
    CartesianMorphism,
    Leaf,
    Node,
    Polynomial,
    SdCMorphism,
    SubdividedComposite,
    TerminalTower,
    associated_polynomial,
    associator,
    bracketing_comparison,
    cartesian_homset,
    compose2,
    compose_seq,
    embed_map,
    extend_right,
    flatten_bracketing,
    hom_project,
    hom_pullback,
    identity_cartesian,
    identity_endospan,
    identity_poly,
    is_cartesian,
    mediate_into_tower,
    mk_poly,
    restrict_last,
    sdc_morphisms,
    shared_towers,
    span_poly,
    terminal_sdc,
    terminal_tower,
    unary_sdc,
    vcompose,
    whisker_left,
    whisker_right,
)
from polyfin.oracles import extend_left, span_compose2
from polyfin.slices import sigma
from polyfin.symbolic import decode, encode, parse_poly

from support import constant_fn


class TestMkPoly:
    def test_expression_diagram(self):
        p = encode(parse_poly("x^3*y + 2 ; 3*x^2*z + y",
                              in_vars=["w", "x", "y", "z"]))
        assert len(p.mid_src) == 14
        assert len(p.mid_tgt) == 7

    def test_identity_poly(self):
        x = mk_finset(["a", "b"])
        p = identity_poly(x)
        assert p.is_identity and p.is_span

    def test_boundary_mismatch(self):
        a, b = mk_finset(["a"]), mk_finset(["b"])
        with pytest.raises(IllFormedPolynomial, match="share a domain"):
            mk_poly(identity_fn(a), identity_fn(b), identity_fn(b))
        with pytest.raises(IllFormedPolynomial, match="domain of p3"):
            Polynomial(identity_fn(a), identity_fn(a), identity_fn(b))

    def test_only_the_maps_are_stored(self, rng):
        assert [f.name for f in fields(Polynomial)] == ["p1", "p2", "p3"]
        assert "ys" not in {f.name for f in fields(SubdividedComposite)}
        p, q = gen.rand_composable(rng, 2, 3)
        sdc = terminal_sdc([p, q])
        assert sdc.ys == (sdc.q1.dom, sdc.q2s[0].cod, sdc.q3.dom)
        assert (p.src, p.mid_src, p.mid_tgt, p.tgt) == (
            p.p1.cod, p.p2.dom, p.p3.dom, p.p3.cod)


class TestEmbedMap:
    def test_identity_embeds_to_identity(self):
        x = mk_finset(["a"])
        assert embed_map(identity_fn(x), "left") == identity_poly(x)
        assert embed_map(identity_fn(x), "right") == identity_poly(x)

    def test_left_shape(self):
        x, y = mk_finset(["a"]), mk_finset(["b"])
        f = constant_fn(x, y, Atom("b"))
        p = embed_map(f, "left")
        assert p.p3 == f and p.p1.is_identity and p.p2.is_identity

    def test_right_shape(self):
        x, y = mk_finset(["a"]), mk_finset(["b"])
        f = constant_fn(x, y, Atom("b"))
        p = embed_map(f, "right")
        assert p.p1 == f and p.p2.is_identity and p.p3.is_identity
        assert p.src == y and p.tgt == x


class TestTerminalSdc:
    def test_empty_sequence(self):
        x = mk_finset(["a", "b"])
        sdc = terminal_sdc([], at=x)
        assert sdc == identity_endospan(x)
        assert associated_polynomial(sdc) == identity_poly(x)

    def test_unary_is_tautological(self, rng):
        p = gen.rand_poly(rng, 3)
        assert terminal_sdc([p]) == unary_sdc(p)
        assert associated_polynomial(terminal_sdc([p])) == p

    def test_binary_shape(self, rng):
        p, q = gen.rand_composable(rng, 2, 3)
        sdc = terminal_sdc([p, q])
        assert len(sdc.ys) == 3
        sq = PullbackSquare(sdc.ys[0], sdc.q2s[0], sdc.rs[0], sdc.ss[0], p.p2)
        assert check_pullback(sq)

    def test_non_composable(self, rng):
        p = gen.rand_poly(rng, 2)
        q = gen.rand_poly(rng, 2)
        if p.tgt != q.src:
            with pytest.raises(NotComposable):
                terminal_sdc([p, q])

    def test_prefix_of_a_tower_is_the_tower_of_the_prefix(self, rng):
        for _ in range(30):
            seq = gen.rand_composable(rng, rng.randint(1, 3), 2)
            tower = terminal_tower(seq)
            tower.base.validate()
            assert tower.base == identity_endospan(seq[0].src)
            prefix = TerminalTower(tower.seq[:-1], tower.base,
                                   tower.stages[:-1])
            fresh = terminal_tower(seq[:-1], at=seq[0].src)
            assert prefix.seq == fresh.seq and prefix.base == fresh.base
            assert prefix.sdc == fresh.sdc
            assert len(prefix.stages) == len(fresh.stages)
            for kept, rebuilt in zip(prefix.stages, fresh.stages):
                assert kept == rebuilt


def _chain_links():
    """Three composable links, built afresh on every call."""
    return [encode(parse_poly(text, [var], [out]))
            for text, var, out in (("x^2+x", "x", "y"), ("y^2+1", "y", "x"),
                                   ("x^2+x", "x", "y"))]


class TestSharedTowers:
    """Within shared_towers() tower stages are shared by value; outside it
    every tower is built afresh, and each returned composite is valid."""

    @pytest.fixture
    def pullback_calls(self, monkeypatch):
        calls = []
        real = polyfin.poly.pullback

        def counting(f, g):
            calls.append((f, g))
            return real(f, g)

        monkeypatch.setattr(polyfin.poly, "pullback", counting)
        return calls

    @pytest.fixture
    def validated(self, monkeypatch):
        seen = []
        real = SubdividedComposite.validate

        def recording(sdc):
            seen.append(sdc)
            real(sdc)

        monkeypatch.setattr(SubdividedComposite, "validate", recording)
        return seen

    def test_off_outside_a_block(self, pullback_calls):
        assert polyfin.poly._TOWERS.get() is None
        first = compose_seq(_chain_links()[:2])
        after_first = len(pullback_calls)
        second = compose_seq(_chain_links()[:2])
        assert first == second
        assert after_first > 0
        assert len(pullback_calls) == 2 * after_first

    def test_equal_prefix_reuses_stages(self, pullback_calls):
        p, q, r = _chain_links()
        with shared_towers():
            short = terminal_tower([p, q])
            before = len(pullback_calls)
            longer = terminal_tower(_chain_links())
            again = terminal_tower([p, q, r])
        assert all(a is b for a, b in zip(short.stages, longer.stages))
        assert all(a is b for a, b in zip(longer.stages, again.stages))
        assert len(pullback_calls) > before
        fresh = terminal_tower([p, q, r])
        assert all(a is not b for a, b in zip(fresh.stages, longer.stages))
        for f in fields(SubdividedComposite):
            assert getattr(longer.sdc, f.name) == getattr(fresh.sdc, f.name)

    def test_every_returned_composite_is_validated(self, validated):
        p, q, r = _chain_links()
        with shared_towers():
            full = terminal_tower([p, q, r])
            inner = terminal_tower([p, q])
            terminal_tower([p, q])
        assert inner.stages[-1] is full.stages[1]
        for tower in (full, inner):
            assert sum(v is tower.sdc for v in validated) == 1

    def test_run_law_closes_the_block_when_a_case_raises(self, monkeypatch):
        active = []

        def raising(rng, size):
            active.append(polyfin.poly._TOWERS.get())
            raise RuntimeError("boom")

        monkeypatch.setitem(polyfin.laws.LAWS, "units", ("raises", raising))
        report = polyfin.laws.run_law(
            "units", gen.InstanceGenConfig(seed=0, cases=2))
        assert [f["detail"]["error"] for f in report.failures] == [
            "RuntimeError"] * 2
        assert len(active) == 2 and None not in active
        assert active[0] is not active[1]
        assert polyfin.poly._TOWERS.get() is None


class TestExtensions:
    def test_extend_right_from_endospan(self, rng):
        p = gen.rand_poly(rng, 3)
        ext, counit = extend_right(p, identity_endospan(p.src))
        assert ext == unary_sdc(p)
        assert counit.ts == (p.p1,)

    def test_extend_right_invariants(self, rng):
        for _ in range(8):
            p, q = gen.rand_composable(rng, 2, 3)
            ext, counit = extend_right(q, unary_sdc(p))
            assert ext.over == (p, q)
            assert counit.tgt == unary_sdc(p)

    def test_extend_left_identity_counit(self, rng):
        q = gen.rand_poly(rng, 2)
        p = identity_poly(q.src)
        ext, counit = extend_left(unary_sdc(q), p)
        assert all(t.is_bijective for t in counit.ts)

    def test_extend_left_from_endospan(self, rng):
        p = gen.rand_poly(rng, 3)
        ext, counit = extend_left(identity_endospan(p.tgt), p)
        assert ext == unary_sdc(p)
        assert counit.ts == (p.p3,)

    def test_extend_left_matches_right_up_to_iso(self, rng):
        for _ in range(8):
            p, q = gen.rand_composable(rng, 2, 3)
            left_ext, _ = extend_left(unary_sdc(q), p)
            tower = terminal_tower([p, q])
            assert mediate_into_tower(tower, left_ext).is_iso

    def test_extend_left_over_longer_tail(self, rng):
        for _ in range(5):
            p, q, r = gen.rand_composable(rng, 3, 2)
            tail = terminal_sdc([q, r])
            ext, counit = extend_left(tail, p)
            assert ext.over == (p, q, r)
            assert counit.tgt == tail
            tower = terminal_tower([p, q, r])
            assert mediate_into_tower(tower, ext).is_iso

    def test_restrict_last_counit_source(self, rng):
        p, q = gen.rand_composable(rng, 2, 2)
        ext, counit = extend_right(q, unary_sdc(p))
        assert counit.src == restrict_last(ext)


class TestMediateIntoTower:
    def test_empty_sequence_needs_q1_equal_to_q3(self):
        x = mk_finset(["a", "b"])
        swap = mk_fn(x, x, [(Atom("a"), Atom("b")), (Atom("b"), Atom("a"))])
        sdc = SubdividedComposite(over=(), q1=identity_fn(x), q2s=(), q3=swap,
                                  rs=(), ss=())
        with pytest.raises(NotComposable,
                           match="no morphism into the identity endospan"):
            mediate_into_tower(terminal_tower([], at=x), sdc)

    def test_three_links_give_the_only_morphism(self, rng):
        checked = 0
        for _ in range(30):
            seq = gen.rand_composable(rng, 3, 2)
            tower = terminal_tower(seq)
            sdc = gen.rand_sdc(rng, seq, 2)
            space = 1
            for ys, yt in zip(sdc.ys, tower.sdc.ys):
                space *= max(len(yt), 1) ** len(ys)
            if space > 100_000:
                continue
            others = sdc_morphisms(sdc, tower.sdc)
            assert len(others) == 1
            assert mediate_into_tower(tower, sdc).ts == others[0].ts
            checked += any(len(y) for y in sdc.ys)
        assert checked >= 5

    def test_reads_the_stages_without_rebuilding_them(self, rng, monkeypatch):
        from polyfin import poly, slices

        def rebuilt(*args):
            raise AssertionError("a stage was rebuilt")

        for _ in range(5):
            p, q, r = gen.rand_composable(rng, 3, 2)
            tower = terminal_tower([p, q, r])
            flat = flatten_bracketing(Node(Node(Leaf(p), Leaf(q)), Leaf(r)))
            with monkeypatch.context() as m:
                for module in (poly, slices):
                    m.setattr(module, "dist_pullback", rebuilt)
                m.setattr(poly, "restrict_last", rebuilt)
                m.setattr(poly, "pullback", rebuilt)
                assert mediate_into_tower(tower, flat).is_iso


class TestCompose:
    def test_strict_units(self, rng):
        for _ in range(10):
            p = gen.rand_poly(rng, 3)
            assert compose2(p, identity_poly(p.src)) == p
            assert compose2(identity_poly(p.tgt), p) == p

    def test_easy_composites(self, rng):
        for _ in range(10):
            p = gen.rand_poly(rng, 3)
            f = gen.rand_fn(rng, p.tgt, gen.rand_set(rng, 3, "z"))
            lf = embed_map(f, "left")
            c = compose2(lf, p)
            assert (c.p1, c.p2, c.p3) == (p.p1, p.p2, compose_fn(f, p.p3))
            g = gen.rand_fn(rng, p.src, gen.rand_set(rng, 3, "w"))
            rg = embed_map(g, "right")
            c2 = compose2(p, rg)
            assert (c2.p1, c2.p2, c2.p3) == (compose_fn(g, p.p1), p.p2, p.p3)

    def test_substitution_through_diagrams(self):
        sq = encode(parse_poly("x^2", in_vars=["x"], out_names=["y"]))
        cube = encode(parse_poly("y^3 + 1", in_vars=["y"], out_names=["z"]))
        composite = compose2(cube, sq)
        decoded = decode(composite)
        assert decoded.monomials == {"z": ((), ("x",) * 6)}

    def test_nullary_needs_base(self):
        with pytest.raises(NotComposable):
            compose_seq([])

    def test_ternary_isomorphic_to_nested(self, rng):
        for _ in range(5):
            p, q, r = gen.rand_composable(rng, 3, 2)
            tower = terminal_tower([p, q, r])
            flat = flatten_bracketing(Node(Node(Leaf(p), Leaf(q)), Leaf(r)))
            assert associated_polynomial(flat) == compose2(r, compose2(q, p))
            assert mediate_into_tower(tower, flat).is_iso

    def test_span_composition_exact(self, rng):
        for _ in range(8):
            x = gen.rand_set(rng, 3, "x")
            s1 = gen.rand_span(rng, 3, src=x)
            s2 = gen.rand_span(rng, 3, src=s1.tgt)
            s3 = gen.rand_span(rng, 3, src=s2.tgt)
            assert compose_seq([s1, s2, s3]) == \
                span_compose2(s3, span_compose2(s2, s1))


class TestAssociator:
    def test_identities_give_identity(self):
        x = mk_finset(["a", "b"])
        i = identity_poly(x)
        a = associator(i, i, i)
        assert a.f0.is_identity and a.f1.is_identity

    def test_spans_reassociate(self, rng):
        x = gen.rand_set(rng, 2, "x")
        s1 = gen.rand_span(rng, 2, src=x)
        s2 = gen.rand_span(rng, 2, src=s1.tgt)
        s3 = gen.rand_span(rng, 2, src=s2.tgt)
        a = associator(s3, s2, s1)
        assert is_cartesian(a) and a.is_iso

    def test_random_triples(self, rng):
        for _ in range(6):
            p, q, r = gen.rand_composable(rng, 3, 2)
            a = associator(r, q, p)
            assert is_cartesian(a) and a.is_iso

    def test_pentagon(self, rng):
        for _ in range(3):
            p, q, r, s = gen.rand_composable(rng, 4, 2)
            e1 = whisker_left(s, associator(r, q, p))
            e2 = associator(s, compose2(r, q), p)
            e3 = whisker_right(associator(s, r, q), p)
            d1 = associator(s, r, compose2(q, p))
            d2 = associator(compose2(s, r), q, p)
            lhs = vcompose(e3, vcompose(e2, e1))
            rhs = vcompose(d2, d1)
            assert lhs.f0 == rhs.f0 and lhs.f1 == rhs.f1

    def test_general_bracketing_comparison(self, rng):
        p, q, r = gen.rand_composable(rng, 3, 2)
        left = Node(Node(Leaf(p), Leaf(q)), Leaf(r))
        right = Node(Leaf(p), Node(Leaf(q), Leaf(r)))
        a = bracketing_comparison(left, right)
        b = associator(r, q, p)
        assert (a.f0, a.f1) == (b.f0, b.f1)

    def test_four_leaf_comparison_matches_pentagon_path(self, rng):
        p, q, r, s = gen.rand_composable(rng, 4, 2)
        nested_in = Node(Node(Node(Leaf(p), Leaf(q)), Leaf(r)), Leaf(s))
        nested_out = Node(Leaf(p), Node(Leaf(q), Node(Leaf(r), Leaf(s))))
        direct = bracketing_comparison(nested_in, nested_out)
        assert is_cartesian(direct) and direct.is_iso
        step1 = bracketing_comparison(
            nested_in, Node(Node(Leaf(p), Leaf(q)), Node(Leaf(r), Leaf(s))))
        step2 = bracketing_comparison(
            Node(Node(Leaf(p), Leaf(q)), Node(Leaf(r), Leaf(s))), nested_out)
        path_comp = vcompose(step2, step1)
        assert (path_comp.f0, path_comp.f1) == (direct.f0, direct.f1)

    def test_non_composable_triple(self):
        x, y = identity_poly(mk_finset(["x"])), identity_poly(mk_finset(["y"]))
        with pytest.raises(NotComposable, match="not composable"):
            associator(y, y, x)
        with pytest.raises(NotComposable, match="not composable"):
            associator(x, y, y)

    def test_comparison_needs_one_leaf_sequence(self, rng):
        p, q, r = gen.rand_composable(rng, 3, 2)
        with pytest.raises(NotComposable, match="different sequences"):
            bracketing_comparison(Node(Leaf(p), Leaf(q)),
                                  Node(Leaf(p), Leaf(r)))
        with pytest.raises(NotComposable, match="different sequences"):
            bracketing_comparison(Node(Leaf(p), Leaf(q)),
                                  Node(Leaf(q), Leaf(p)))
        with pytest.raises(NotComposable, match="not composable"):
            bracketing_comparison(Node(Leaf(q), Leaf(p)),
                                  Node(Leaf(q), Leaf(p)))


class TestIsCartesian:
    def test_identity_morphism(self, rng):
        p = gen.rand_poly(rng, 3)
        assert is_cartesian(identity_cartesian(p))

    def test_commuting_non_pullback(self):
        x = mk_finset(["x"])
        a2 = mk_finset(["a1", "a2"])
        b = mk_finset(["b"])
        p = mk_poly(constant_fn(a2, x, Atom("x")),
                    constant_fn(a2, b, Atom("b")),
                    constant_fn(b, x, Atom("x")))
        q = mk_poly(constant_fn(b, x, Atom("x")), identity_fn(b),
                    constant_fn(b, x, Atom("x")))
        m = CartesianMorphism(p, q, constant_fn(a2, b, Atom("b")),
                              identity_fn(b))
        assert compose_fn(q.p2, m.f0) == compose_fn(m.f1, p.p2)
        assert not is_cartesian(m)

    def test_associator_output(self, rng):
        p, q, r = gen.rand_composable(rng, 3, 2)
        assert is_cartesian(associator(r, q, p))


class TestHomProjections:
    def test_identity_polynomial(self):
        x = mk_finset(["a"])
        i = identity_poly(x)
        assert hom_project(i, "left").arrow.is_identity
        assert hom_project(i, "right").arrow.is_identity

    def test_strict_equations(self, rng):
        for _ in range(8):
            p = gen.rand_poly(rng, 3)
            f = gen.rand_fn(rng, p.tgt, gen.rand_set(rng, 3, "z"))
            g = gen.rand_fn(rng, p.src, gen.rand_set(rng, 3, "w"))
            lf, rg = embed_map(f, "left"), embed_map(g, "right")
            assert hom_project(compose2(lf, p), "right") == \
                sigma(f, hom_project(p, "right"))
            assert hom_project(compose2(p, rg), "left") == \
                sigma(g, hom_project(p, "left"))
            assert hom_project(compose2(lf, p), "left") == \
                hom_project(p, "left")
            assert hom_project(compose2(p, rg), "right") == \
                hom_project(p, "right")


class TestHomPullback:
    def test_identity_leg_gives_source(self, rng):
        q = gen.rand_poly(rng, 3)
        a = gen.rand_cartesian_into(rng, q, 3)
        pa, pb = hom_pullback(a, identity_cartesian(q))
        assert pa.src_poly == a.src_poly
        assert (pa.f0.is_identity and pa.f1.is_identity)
        assert (pb.f0, pb.f1) == (a.f0, a.f1)

    def test_both_identities(self, rng):
        q = gen.rand_poly(rng, 3)
        i = identity_cartesian(q)
        pa, pb = hom_pullback(i, i)
        assert pa.src_poly == q

    def test_one_component_is_pullback(self, rng):
        for _ in range(6):
            q = gen.rand_poly(rng, 2)
            a = gen.rand_cartesian_into(rng, q, 2)
            b = gen.rand_cartesian_into(rng, q, 2)
            pa, pb = hom_pullback(a, b)
            apex = pa.src_poly
            assert is_cartesian(pa) and is_cartesian(pb)
            assert check_pullback(PullbackSquare(apex.mid_tgt, pa.f1, pb.f1,
                                                 a.f1, b.f1))
            assert check_pullback(PullbackSquare(apex.mid_src, pa.f0, pb.f0,
                                                 a.f0, b.f0))

    def test_mediators_unique(self, rng):
        for _ in range(4):
            q = gen.rand_poly(rng, 2)
            a = gen.rand_cartesian_into(rng, q, 2)
            b = gen.rand_cartesian_into(rng, q, 2)
            pa, pb = hom_pullback(a, b)
            apex = pa.src_poly
            probe = gen.rand_cartesian_into(rng, apex, 2)
            u, v = vcompose(pa, probe), vcompose(pb, probe)
            mediators = [m for m in cartesian_homset(probe.src_poly, apex)
                         if vcompose(pa, m).f0 == u.f0
                         and vcompose(pa, m).f1 == u.f1
                         and vcompose(pb, m).f0 == v.f0
                         and vcompose(pb, m).f1 == v.f1]
            assert len(mediators) == 1
            assert (mediators[0].f0, mediators[0].f1) == (probe.f0, probe.f1)


class TestCartesianHomset:
    def test_self_homset_contains_identity(self, rng):
        for _ in range(10):
            p = gen.rand_poly(rng, 3)
            homs = cartesian_homset(p, p)
            assert any(m.f0.is_identity and m.f1.is_identity for m in homs)
            assert all(is_cartesian(m) for m in homs)

    def test_leaves_no_reference_cycle(self, rng):
        polys = [gen.rand_poly(rng, 3) for _ in range(20)]
        sdcs = [gen.rand_sdc(rng, gen.rand_composable(rng, 2, 2), 2)
                for _ in range(10)]
        gc.collect()
        gc.disable()
        try:
            found = sum(len(cartesian_homset(p, p)) for p in polys)
            found += sum(len(sdc_morphisms(s, s)) for s in sdcs)
            freed = gc.collect()
        finally:
            gc.enable()
        assert found >= len(polys) + len(sdcs)
        assert freed == 0


def all_fns(dom, cod):
    """Every function dom -> cod, in lexicographic order of its values."""
    return [FinFn(dom, cod, idx=values)
            for values in product(range(len(cod)), repeat=len(dom))]


def empty_middle(p):
    """The polynomial with p's boundaries and empty middle sets."""
    none = mk_finset([])
    return mk_poly(FinFn(none, p.src, []), FinFn(none, none, []),
                   FinFn(none, p.tgt, []))


class TestOracleReferences:
    """cartesian_homset and sdc_morphisms prune their enumeration; they must
    return what filtering the whole function space returns, in the same
    order, and must never reach a mediation."""

    def test_cartesian_homset_matches_filtered_function_pairs(self, rng):
        found = 0
        for _ in range(40):
            q = gen.rand_poly(rng, 2)
            p = gen.rand_cartesian_into(rng, q, 2).src_poly
            other = gen.rand_poly(rng, 2, src=q.src, tgt=q.tgt)
            empty = empty_middle(q)
            for a, b in ((p, q), (q, q), (other, q), (q, other),
                         (empty, q), (q, empty), (empty, empty)):
                want = [(f0, f1) for f1 in all_fns(a.mid_tgt, b.mid_tgt)
                        for f0 in all_fns(a.mid_src, b.mid_src)
                        if is_cartesian(CartesianMorphism(a, b, f0, f1))]
                got = cartesian_homset(a, b)
                assert [(m.f0, m.f1) for m in got] == want
                assert all(m.src_poly is a and m.tgt_poly is b for m in got)
                found += len(got) > 1
        assert found >= 40

    def test_sdc_morphisms_matches_filtered_product(self, rng):
        def reference(src, tgt):
            out = []
            spaces = [all_fns(ys, yt) for ys, yt in zip(src.ys, tgt.ys)]
            for ts in product(*spaces):
                try:
                    out.append(SdCMorphism(src, tgt, ts).ts)
                except NotComposable:
                    pass
            return out

        x, y = mk_finset(["a", "b"]), mk_finset(["c"])
        pairs = [(identity_endospan(x), identity_endospan(x)),
                 (identity_endospan(x), identity_endospan(y))]
        for _ in range(30):
            seq = gen.rand_composable(rng, rng.randint(1, 2), 2)
            src = gen.rand_sdc(rng, seq, 2)
            pairs += [(src, tgt) for tgt in
                      (terminal_sdc(seq), src, gen.rand_sdc(rng, seq, 2))]
        checked = found = 0
        for src, tgt in pairs:
            if prod(len(yt) ** len(ys)
                    for ys, yt in zip(src.ys, tgt.ys)) > 5000:
                continue
            got = [m.ts for m in sdc_morphisms(src, tgt)]
            assert got == reference(src, tgt)
            checked += 1
            found += len(got) > 1
        assert checked >= 60 and found >= 5

    def test_sdc_pruning_builds_only_morphisms(self, rng, monkeypatch):
        from polyfin import poly
        built = []

        class Counted(SdCMorphism):
            def __post_init__(self):
                built.append(self)
                super().__post_init__()

        monkeypatch.setattr(poly, "SdCMorphism", Counted)
        found = 0
        for _ in range(20):
            seq = gen.rand_composable(rng, rng.randint(1, 3), 2)
            src = gen.rand_sdc(rng, seq, 2)
            for tgt in (terminal_sdc(seq), src):
                built.clear()
                got = sdc_morphisms(src, tgt)
                assert built == got
                found += len(got)
        assert found >= 40

    def test_oracles_never_mediate(self, rng, monkeypatch):
        from polyfin import finset, poly, slices
        cases = []
        for _ in range(10):
            q = gen.rand_poly(rng, 2)
            p = gen.rand_cartesian_into(rng, q, 2).src_poly
            seq = gen.rand_composable(rng, 2, 2)
            cases.append((p, q, gen.rand_sdc(rng, seq, 2), terminal_sdc(seq)))

        def forbidden(*args):
            raise AssertionError("a brute-force oracle mediated")

        for module, name in ((finset, "mediate"), (poly, "mediate"),
                             (slices, "mediate"), (poly, "dpb_compare"),
                             (slices, "dpb_compare"),
                             (poly, "mediate_into_tower")):
            monkeypatch.setattr(module, name, forbidden)
        for p, q, sdc, terminal in cases:
            assert cartesian_homset(p, q)
            assert len(sdc_morphisms(sdc, terminal)) == 1
            assert sdc_morphisms(sdc, sdc)


class TestLftRgtAdjunction:
    def test_unit_and_counit_cartesian(self, rng):
        x = gen.rand_set(rng, 4, "x")
        y = gen.rand_set(rng, 4, "y")
        f = gen.rand_fn(rng, x, y)
        lf, rf = embed_map(f, "left"), embed_map(f, "right")
        rl = compose2(rf, lf)
        diag = FinFn(x, rl.mid_src,
                     [(e, next(m for m in rl.mid_src
                               if rl.p1(m) == e and rl.p3(m) == e))
                      for e in x])
        eta = CartesianMorphism(identity_poly(x), rl, diag, diag)
        lr = compose2(lf, rf)
        eps = CartesianMorphism(lr, identity_poly(y), f, f)
        assert is_cartesian(eta) and is_cartesian(eps)

    def test_sdc_morphisms_into_terminal_unique(self, rng):
        for _ in range(4):
            seq = gen.rand_composable(rng, 2, 2)
            tower = terminal_tower(seq)
            sdc = gen.rand_sdc(rng, seq, 2)
            space = 1
            for ys, yt in zip(sdc.ys, tower.sdc.ys):
                space *= max(len(yt), 1) ** len(ys)
            if space > 100_000:
                continue
            assert len(sdc_morphisms(sdc, tower.sdc)) == 1


def test_span_poly_requires_shared_apex():
    a, b = mk_finset(["a"]), mk_finset(["b"])
    with pytest.raises(IllFormedPolynomial):
        span_poly(identity_fn(a), identity_fn(b))


def test_empty_middle_composition():
    from polyfin.finset import FinFn
    from polyfin.symbolic import decode
    x, y = mk_finset(["x"]), mk_finset(["y"])
    empty, b = mk_finset([]), mk_finset(["b"])
    const_one = mk_poly(FinFn(empty, x, []), FinFn(empty, b, []),
                        constant_fn(b, y, Atom("y")))
    assert compose2(identity_poly(y), const_one) == const_one
    back = mk_poly(FinFn(empty, y, []), FinFn(empty, b, []),
                   constant_fn(b, x, Atom("x")))
    both = compose2(back, const_one)
    assert len(both.mid_src) == 0 and len(both.mid_tgt) == 1
    assert decode(both).render() == "1"
