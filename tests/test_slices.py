"""Slice operations, distributivity pullbacks, and their comparison maps."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyfin import gen, slices
from polyfin.errors import (
    IllFormedFunction,
    NotAPullbackAround,
    NotASection,
    NotComposable,
)
from polyfin.finset import (
    Atom,
    FinFn,
    FinSetObj,
    Pair,
    Sect,
    compose_fn,
    identity_fn,
    mk_finset,
    pullback,
)
from polyfin.oracles import pi_make_element, pi_section_value
from polyfin.slices import (
    DistPB,
    SliceObj,
    check_dpb_terminal,
    delta,
    delta_component,
    delta_pi_transpose,
    dist_pullback,
    dpb_compare,
    dpb_mediate,
    induce_sections,
    _Sections,
    _count_dpb_mediators,
    pi,
    pi_tabulate,
    sigma,
    sigma_delta_transpose,
    slice_homset,
    slice_pullback,
    terminal_slice,
)

from support import (
    constant_fn,
    counted_lines,
    enumerated_dpb_mediators,
    recorded_builds,
    summed_dpb_mediators,
)


def const_slice(tag, n, base, point):
    carrier = mk_finset([f"{tag}{i}" for i in range(n)])
    return SliceObj(constant_fn(carrier, base, point))


@st.composite
def chains(draw):
    """Composable g : Z -> A and f : A -> B of atoms, f or g sometimes an
    identity.  Fibers of both may be empty, and so may A, B and Z."""
    def fn(dom, cod):
        if not len(cod):
            return FinFn(dom, cod, idx=[])
        return FinFn(dom, cod, idx=draw(st.lists(
            st.integers(0, len(cod) - 1), min_size=len(dom),
            max_size=len(dom))))

    shape = draw(st.sampled_from(["general", "f-identity", "g-identity"]))
    b = mk_finset([f"b{i}" for i in range(draw(st.integers(0, 3)))])
    a = mk_finset([f"a{i}" for i in range(
        draw(st.integers(0, 4)) if len(b) else 0)])
    f = identity_fn(a) if shape == "f-identity" else fn(a, b)
    if shape == "g-identity":
        return f, identity_fn(a)
    z = mk_finset([f"z{i}" for i in range(
        draw(st.integers(0, 6)) if len(a) else 0)])
    return f, fn(z, a)


def sections_by_search(f, x):
    """pi(f, x)'s carrier, by filtering every table over each fiber."""
    return FinSetObj(
        [Pair(b, Sect(zip(f.fiber(b), values))) for b in f.cod
         for values in product(x.carrier, repeat=len(f.fiber(b)))
         if all(x.arrow(v) == a for a, v in zip(f.fiber(b), values))])


class TestSigma:
    def test_identity(self):
        a = mk_finset(["a"])
        x = const_slice("c", 2, a, Atom("a"))
        assert sigma(identity_fn(a), x) == x

    def test_whole_map_as_slice(self):
        a, b = mk_finset(["a"]), mk_finset(["b"])
        f = constant_fn(a, b, Atom("b"))
        assert sigma(f, terminal_slice(a)).arrow == f

    def test_two_point_carrier(self):
        a, b = mk_finset(["a"]), mk_finset(["b"])
        f = FinFn(a, b, [(Atom("a"), Atom("b"))])
        x = const_slice("c", 2, a, Atom("a"))
        out = sigma(f, x)
        assert out.base == b and len(out.carrier) == 2

    def test_base_mismatch(self):
        a, b = mk_finset(["a"]), mk_finset(["b"])
        with pytest.raises(NotComposable):
            sigma(identity_fn(b), terminal_slice(a))


class TestDelta:
    def test_terminal_goes_to_terminal_with_counit_f(self):
        a, b = mk_finset(["a1", "a2"]), mk_finset(["b"])
        f = constant_fn(a, b, Atom("b"))
        d, counit = delta(f, terminal_slice(b))
        assert d == terminal_slice(a)
        assert counit == f

    def test_identity_map_is_strict(self):
        b = mk_finset(["b1", "b2"])
        y = const_slice("c", 3, b, Atom("b1"))
        d, counit = delta(identity_fn(b), y)
        assert d == y
        assert counit.is_identity

    def test_fiber_product_count(self):
        one = mk_finset(["*"])
        two = mk_finset(["u", "v"])
        f = constant_fn(two, one, Atom("*"))
        y = const_slice("c", 3, one, Atom("*"))
        d, _ = delta(f, y)
        assert d.base == two and len(d.carrier) == 3 * 2


class TestPi:
    def test_terminal_to_terminal(self):
        a, b = mk_finset(["a1", "a2"]), mk_finset(["b"])
        f = constant_fn(a, b, Atom("b"))
        assert pi(f, terminal_slice(a)) == terminal_slice(b)

    def test_identity_map_strict(self):
        a = mk_finset(["a1", "a2"])
        x = const_slice("c", 2, a, Atom("a1"))
        assert pi(identity_fn(a), x) == x

    def test_product_of_fiber_sizes(self):
        a, b = mk_finset(["a1", "a2"]), mk_finset(["b"])
        f = constant_fn(a, b, Atom("b"))
        carrier = mk_finset(["c1", "c2", "d1", "d2", "d3"])
        x = SliceObj(FinFn(carrier, a, [
            (Atom("c1"), Atom("a1")), (Atom("c2"), Atom("a1")),
            (Atom("d1"), Atom("a2")), (Atom("d2"), Atom("a2")),
            (Atom("d3"), Atom("a2"))]))
        out = pi(f, x)
        assert len(out.arrow.fiber(Atom("b"))) == 2 * 3

    def test_empty_fiber_gives_one_section(self):
        b = mk_finset(["b"])
        empty = mk_finset([])
        f = FinFn(empty, b, [])
        x = SliceObj(FinFn(empty, empty, []))
        out = pi(f, x)
        assert len(out.arrow.fiber(Atom("b"))) == 1


class TestLazyPi:
    @given(chains())
    @settings(max_examples=150, deadline=None)
    def test_carrier_equals_its_eager_rebuild(self, chain):
        f, g = chain
        x = SliceObj(g)
        if f.is_identity:
            assert pi(f, x) is x
            return
        if g.is_identity:
            assert pi(f, x) == terminal_slice(f.cod)
            return
        eager = sections_by_search(f, x)
        with recorded_builds() as built:
            out = pi(f, x)
            assert len(out.carrier) == len(eager)
            assert out.arrow.idx == tuple(
                f.cod._index[e.left] for e in eager)
        assert built == []
        assert pi(f, x).carrier == eager
        assert eager == pi(f, x).carrier
        assert hash(pi(f, x).carrier) == hash(eager)
        assert out.carrier.elements == eager.elements

    @given(chains())
    @settings(max_examples=150, deadline=None)
    def test_dist_pullback_p_is_the_section_value_table(self, chain):
        f, g = chain
        d = dist_pullback(f, g)
        sq = pullback(f, d.r)
        assert d.X == sq.apex and d.q == sq.proj2
        fdom, ys = f.dom.elements, d.Y.elements
        assert d.p.idx == tuple(
            g.dom._index[pi_section_value(f, SliceObj(g), ys[iy], fdom[ia])]
            for ia, iy in zip(sq.proj1.idx, sq.proj2.idx))

    @given(chains())
    @settings(max_examples=150, deadline=None)
    def test_arrow_fibers_are_the_fibers_of_its_table(self, chain):
        f, g = chain
        with recorded_builds() as built:
            arrow = pi(f, SliceObj(g)).arrow
            fresh = FinFn(arrow.dom, arrow.cod, idx=arrow.idx)
            assert arrow.fiber_positions() == fresh.fiber_positions()
        assert built == []


class TestSectionNumbering:
    """_Sections numbers pi's sections on positions: encoding a section's
    values gives its carrier position, and decoding gives the values back."""

    @given(chains(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_encode_then_decode_returns_the_values(self, chain, data):
        f, g = chain
        x = SliceObj(g)
        out = pi(f, x)
        if not f.is_identity and not g.is_identity:
            assert out.carrier == sections_by_search(f, x)
        fibers, gfibers = f.fiber_positions(), g.fiber_positions()
        bs = data.draw(st.lists(st.sampled_from(sorted(set(out.arrow.idx))),
                                max_size=5)) if len(out.carrier) else []
        picks = [[data.draw(st.sampled_from(gfibers[a])) for a in fibers[b]]
                 for b in bs]
        flat = [v for row in picks for v in row]
        seen = []

        def values(es, at):
            seen.append((es, at))
            return list(flat)

        sections = _Sections(f, g)
        numbers = sections.encode(tuple(bs), values)
        [(es, at)] = seen
        assert at == [a for b in bs for a in fibers[b]]
        assert es == [e for e, b in enumerate(bs) for _ in fibers[b]]
        assert sections.decode(at, [numbers[e] for e in es]) == flat
        fdom, elems = f.dom.elements, out.carrier.elements
        for b, n, row in zip(bs, numbers, picks):
            assert out.arrow.idx[n] == b
            assert [g.dom._index[pi_section_value(f, x, elems[n], fdom[a])]
                    for a in fibers[b]] == row

    @staticmethod
    def _values(f, g, ys_carrier, at, ys):
        """The g.dom position of section ys[k]'s value at at[k], each read
        off the section element (pi_section_value)."""
        x, fdom, index = SliceObj(g), f.dom.elements, g.dom._index
        return [index[pi_section_value(f, x, ys_carrier[y], fdom[a])]
                for a, y in zip(at, ys)]

    def _decode_gives_section_values(self, f, g, data=None):
        """dist_pullback(f, g).p, and decode on the chosen apex perturbed,
        against the section elements.  data draws the two points swapped;
        without it the first and last are."""
        d = dist_pullback(f, g)
        sq, yelems = pullback(f, d.r), d.Y.elements
        at, ys = sq.proj1.idx, sq.proj2.idx
        assert d.q == sq.proj2
        assert list(d.p.idx) == self._values(f, g, yelems, at, ys)
        short = FinFn(mk_finset([f"y{i}" for i in range(len(d.r.idx) - 1)]),
                      d.r.cod, idx=d.r.idx[:-1])
        sq = pullback(f, short)
        cases = [(at[:-1], ys[:-1]), (at + at[-1:], ys + ys[-1:]),
                 (sq.proj1.idx, sq.proj2.idx)]
        if len(at) > 1:
            i, j = (0, len(at) - 1) if data is None else data.draw(
                st.lists(st.integers(0, len(at) - 1), min_size=2,
                         max_size=2, unique=True))
            swapped_at, swapped_ys = list(at), list(ys)
            swapped_at[i], swapped_at[j] = at[j], at[i]
            swapped_ys[i], swapped_ys[j] = ys[j], ys[i]
            cases.append((swapped_at, swapped_ys))
        sections = _Sections(f, g)
        for other_at, other_ys in cases:
            assert (sections.decode(other_at, other_ys)
                    == self._values(f, g, yelems, other_at, other_ys))

    @given(chains(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_decode_gives_the_section_values(self, chain, data):
        """dist_pullback's p holds each section's value at its point.  So
        does decode with the apex's last point dropped or repeated, or two
        points swapped, and on the apex over pi's arrow less its last
        section."""
        self._decode_gives_section_values(*chain, data)

    @pytest.mark.parametrize("shape", ["empty f-fiber", "empty x-fiber",
                                       "f identity", "g identity"])
    def test_decode_on_degenerate_shapes(self, shape):
        a, b = mk_finset(["a1", "a2", "a3"]), mk_finset(["b1", "b2", "b3"])
        z = mk_finset(["z1", "z2", "z3", "z4"])
        f = FinFn(a, b, [(Atom("a1"), Atom("b1")), (Atom("a2"), Atom("b1")),
                         (Atom("a3"), Atom("b2"))])
        g = FinFn(z, a, [(Atom("z1"), Atom("a1")), (Atom("z2"), Atom("a1")),
                         (Atom("z3"), Atom("a2")),
                         (Atom("z4"), Atom("a3" if shape != "empty x-fiber"
                                           else "a1"))])
        if shape == "f identity":
            f = identity_fn(a)
        if shape == "g identity":
            g = identity_fn(a)
        self._decode_gives_section_values(f, g)

    def test_value_outside_its_fiber_is_rejected(self):
        a, b = mk_finset(["a1", "a2"]), mk_finset(["b"])
        z = mk_finset(["z1", "z2"])
        f = constant_fn(a, b, Atom("b"))
        g = FinFn(z, a, [(Atom("z1"), Atom("a1")), (Atom("z2"), Atom("a2"))])
        y = pi(f, SliceObj(g))
        with pytest.raises(IllFormedFunction, match="outside its fiber"):
            pi_tabulate(f, SliceObj(g), y.arrow,
                        lambda es, at: [0 for _ in at], y.carrier)

    def test_section_past_a_dropped_last_one_is_out_of_range(self):
        a, b = mk_finset(["a1", "a2"]), mk_finset(["b"])
        z = mk_finset(["z1", "z2", "z3"])
        f = constant_fn(a, b, Atom("b"))
        g = FinFn(z, a, [(Atom("z1"), Atom("a1")), (Atom("z2"), Atom("a1")),
                         (Atom("z3"), Atom("a2"))])
        y = pi(f, SliceObj(g))
        short = FinSetObj(y.carrier.elements[:-1])
        with pytest.raises(IllFormedFunction, match="does not fit"):
            pi_tabulate(f, SliceObj(g), y.arrow,
                        lambda es, at: [g.fiber_positions()[a][-1]
                                        for a in at], short)


def _raise(*args, **kwargs):
    raise AssertionError("section read or written through elements")


class TestNoElementSections:
    """The core tabulates and decodes sections on positions alone."""

    @pytest.fixture
    def no_element_sections(self, monkeypatch):
        import polyfin.extension
        import polyfin.oracles
        import polyfin.slices
        for module in (polyfin.slices, polyfin.extension, polyfin.oracles):
            for name in ("pi_section_value", "pi_make_element"):
                monkeypatch.setattr(module, name, _raise, raising=False)
        monkeypatch.setattr(Sect, "__getitem__", _raise)

    def test_core_operations_succeed(self, rng, no_element_sections):
        from polyfin.slices import pi_mor
        for _ in range(15):
            d = gen.rand_dpb(rng, 3)
            f, g = d.around_f, d.around_g
            cand = gen.duplicate_dpb(d, rng) or d
            s, t = dpb_compare(dist_pullback(f, g), cand.p, cand.q, cand.r)
            assert compose_fn(d.p, s) == cand.p
            z = gen.rand_slice(rng, g.dom, 3)
            assert delta_component(d, z).is_bijective
            assert delta_component(
                d, terminal_slice(g.dom)).is_bijective
            y = gen.rand_slice(rng, f.cod, 2)
            x = gen.rand_slice(rng, f.dom, 2)
            for m in slice_homset(delta(f, y)[0], x)[:5]:
                delta_pi_transpose(f, y, x, m)
            for h in slice_homset(x, gen.rand_slice(rng, f.dom, 2))[:5]:
                pi_mor(f, h)

    def test_dpb_compare_into_a_chosen_dpb_builds_nothing(self, rng):
        for _ in range(20):
            d = gen.rand_dpb(rng, 3)
            cand = gen.duplicate_dpb(d, rng) or d
            chosen = dist_pullback(d.around_f, d.around_g)
            with recorded_builds() as built:
                s, t = dpb_compare(chosen, cand.p, cand.q, cand.r)
                s2, t2 = dpb_compare(chosen, chosen.p, chosen.q, chosen.r)
            assert built == []
            assert s2.is_identity and t2.is_identity
            assert compose_fn(chosen.p, s) == cand.p


class TestSectionTablesMatchElements:
    """Tabulated maps equal their element-level definitions."""

    def test_pi_mor(self, rng):
        from polyfin.slices import pi_mor
        for _ in range(15):
            a = gen.rand_set(rng, 3, "a")
            f = gen.rand_fn(rng, a, gen.rand_set(rng, 2, "b"))
            x, w = gen.rand_slice(rng, a, 3), gen.rand_slice(rng, a, 3)
            for h in slice_homset(x, w)[:4]:
                img = pi_mor(f, h)
                for e in img.src.carrier:
                    b = img.src.arrow(e)
                    values = {pt: h.mediating(pi_section_value(f, x, e, pt))
                              for pt in f.fiber(b)}
                    assert img.mediating(e) == pi_make_element(f, w, b,
                                                               values)

    def test_delta_pi_transpose(self, rng):
        for _ in range(15):
            a = gen.rand_set(rng, 3, "a")
            f = gen.rand_fn(rng, a, gen.rand_set(rng, 2, "b"))
            y = gen.rand_slice(rng, f.cod, 2)
            x = gen.rand_slice(rng, a, 2)
            sq = pullback(y.arrow, f)
            point = {(sq.proj1(e), sq.proj2(e)): e for e in sq.apex}
            for m in slice_homset(delta(f, y)[0], x)[:4]:
                adj = delta_pi_transpose(f, y, x, m)
                for e in y.carrier:
                    b = y.arrow(e)
                    values = {pt: m.mediating(point[e, pt])
                              for pt in f.fiber(b)}
                    assert adj.mediating(e) == pi_make_element(f, x, b,
                                                               values)

    def test_delta_component(self, rng):
        for _ in range(15):
            d = gen.rand_dpb(rng, 2)
            d = gen.duplicate_dpb(d, rng) or d
            f, g = d.around_f, d.around_g
            z = gen.rand_slice(rng, g.dom, 2)
            comp = delta_component(d, z)
            dz, eps_p = delta(d.p, z)
            sg = sigma(g, z)
            point = {(d.q(pt), g(d.p(pt))): pt for pt in d.X}
            for e in comp.src.carrier:
                y = pi(d.q, dz).arrow(e)
                b = d.r(y)
                values = {a: eps_p(pi_section_value(d.q, dz, e, point[y, a]))
                          for a in f.fiber(b)}
                assert comp.mediating(e) == pi_make_element(f, sg, b, values)


class TestDistPullback:
    def test_counts_and_evaluation(self):
        a = mk_finset(["a1", "a2"])
        b = mk_finset(["b"])
        z = mk_finset(["z1", "z2", "w1", "w2", "w3"])
        f = constant_fn(a, b, Atom("b"))
        g = FinFn(z, a, [(Atom("z1"), Atom("a1")), (Atom("z2"), Atom("a1")),
                         (Atom("w1"), Atom("a2")), (Atom("w2"), Atom("a2")),
                         (Atom("w3"), Atom("a2"))])
        d = dist_pullback(f, g)
        assert len(d.Y) == 2 * 3
        assert len(d.X) == 2 * 6
        for x in d.X:
            assert g(d.p(x)) == compose_fn(g, d.p)(x)
        from polyfin.finset import check_pullback
        assert check_pullback(d.outer_square())
        assert check_dpb_terminal(d)

    def test_identity_f_shape(self):
        a = mk_finset(["a1", "a2"])
        z = mk_finset(["z1", "z2", "z3"])
        g = constant_fn(z, a, Atom("a1"))
        d = dist_pullback(identity_fn(a), g)
        assert d.p.is_identity and d.q.is_identity and d.r == g

    def test_identity_g_shape(self):
        a, b = mk_finset(["a1", "a2"]), mk_finset(["b"])
        f = constant_fn(a, b, Atom("b"))
        d = dist_pullback(f, identity_fn(a))
        assert d.p.is_identity and d.q == f and d.r.is_identity

    def test_boundary_mismatch(self):
        a, b = mk_finset(["a"]), mk_finset(["b"])
        with pytest.raises(NotComposable):
            dist_pullback(identity_fn(a), identity_fn(b))


class TestDpbTerminal:
    def test_canonical_is_terminal(self, rng):
        for _ in range(10):
            d = gen.rand_dpb(rng, 3)
            assert check_dpb_terminal(d)

    def test_shrunk_is_not_terminal(self, rng):
        hit = 0
        for _ in range(20):
            d = gen.rand_dpb(rng, 3)
            small = gen.shrink_dpb(d, rng)
            if small is None:
                continue
            hit += 1
            assert not check_dpb_terminal(small)
        assert hit >= 5

    def test_duplicated_is_not_terminal(self, rng):
        hit = 0
        for _ in range(20):
            d = gen.rand_dpb(rng, 3)
            big = gen.duplicate_dpb(d, rng)
            if big is None:
                continue
            hit += 1
            assert not check_dpb_terminal(big)
        assert hit >= 5

    def test_identity_diagram_is_terminal(self):
        a = mk_finset(["a1", "a2"])
        one = identity_fn(a)
        d = DistPB(one, one, one, one, one)
        assert check_dpb_terminal(d)

    def test_ill_formed_candidate(self):
        a, b = mk_finset(["a"]), mk_finset(["b"])
        f = constant_fn(a, b, Atom("b"))
        d = DistPB(f, identity_fn(a), identity_fn(a), f, identity_fn(b))
        bad = DistPB(f, identity_fn(a), identity_fn(a), f,
                     constant_fn(b, a, Atom("a")))
        with pytest.raises(NotAPullbackAround):
            check_dpb_terminal(bad)
        assert check_dpb_terminal(d)


class TestDeltaComponent:
    def test_bijective_for_genuine(self, rng):
        for _ in range(10):
            d = gen.rand_dpb(rng, 3)
            z = gen.rand_slice(rng, d.around_g.dom, 3)
            assert delta_component(d, z).is_bijective

    def test_terminal_slice_detects_failure(self, rng):
        found = 0
        for _ in range(20):
            d = gen.rand_dpb(rng, 2)
            bad = gen.duplicate_dpb(d, rng)
            if bad is None:
                continue
            found += 1
            comp = delta_component(bad, terminal_slice(bad.around_g.dom))
            assert not comp.is_bijective
        assert found >= 5

    def test_both_sides_count(self, rng):
        for _ in range(10):
            d = gen.rand_dpb(rng, 2)
            z = gen.rand_slice(rng, d.around_g.dom, 2)
            comp = delta_component(d, z)
            assert len(comp.src.carrier) == len(comp.tgt.carrier)


def _chosen_dpb():
    a = mk_finset(["a1", "a2"])
    b = mk_finset(["b"])
    z = mk_finset(["z1", "z2", "z3"])
    f = constant_fn(a, b, Atom("b"))
    g = FinFn(z, a, [(Atom("z1"), Atom("a1")), (Atom("z2"), Atom("a1")),
                     (Atom("z3"), Atom("a2"))])
    return dist_pullback(f, g)


def _with_points(d, pairs):
    """d with X replaced by the given (x, image point of d.X) pairs."""
    x2 = FinSetObj(x for x, _ in pairs)
    p2 = FinFn(x2, d.p.cod, [(x, d.p(src)) for x, src in pairs])
    q2 = FinFn(x2, d.Y, [(x, d.q(src)) for x, src in pairs])
    return DistPB(d.around_f, d.around_g, p2, q2, d.r)


def _duplicated_point(d):
    """Commuting outer square with one X point twice: a repeated key."""
    x0 = d.X.elements[0]
    return _with_points(
        d, [(x, x) for x in d.X] + [(Pair(Atom("dup"), x0), x0)])


def _dropped_point(d):
    """Commuting outer square with one X point missing: a (y, a) unmatched."""
    return _with_points(d, [(x, x) for x in d.X.elements[1:]])


class TestOuterSquareNotAPullback:
    """Candidates whose outer square commutes but is not a pullback."""

    @pytest.mark.parametrize("broken", [_duplicated_point, _dropped_point])
    def test_delta_component_rejects(self, broken):
        cand = broken(_chosen_dpb())
        assert cand.outer_square().commutes()
        with pytest.raises(NotAPullbackAround,
                           match="outer square is not a pullback"):
            delta_component(cand, terminal_slice(cand.around_g.dom))

    @pytest.mark.parametrize("broken", [_duplicated_point, _dropped_point])
    def test_dpb_mediate_rejects(self, broken):
        d = _chosen_dpb()
        cand = broken(d)
        assert cand.outer_square().commutes()
        with pytest.raises(NotAPullbackAround,
                           match="outer square is not a pullback"):
            dpb_mediate(d, cand.p, cand.q, cand.r)

    @pytest.mark.parametrize("broken", [_duplicated_point, _dropped_point])
    def test_check_dpb_terminal_rejects(self, broken):
        cand = broken(_chosen_dpb())
        with pytest.raises(NotAPullbackAround,
                           match="outer square is not a pullback"):
            check_dpb_terminal(cand)

    def test_chosen_dpb_passes(self):
        d = _chosen_dpb()
        assert delta_component(d, terminal_slice(d.around_g.dom)).is_bijective
        s, t = dpb_mediate(d, d.p, d.q, d.r)
        assert s.is_identity and t.is_identity


class TestDpbMediate:
    def test_rejects_a_non_terminal_target(self, rng):
        hit = 0
        for _ in range(20):
            d = gen.rand_dpb(rng, 3)
            dup = gen.duplicate_dpb(d, rng)
            if dup is None:
                continue
            hit += 1
            with pytest.raises(NotAPullbackAround, match="target is not a "
                               "distributivity pullback"):
                dpb_mediate(dup, d.p, d.q, d.r)
        assert hit >= 5

    def test_agrees_with_dpb_compare_on_the_chosen_target(self, rng):
        for _ in range(10):
            d = gen.rand_dpb(rng, 3)
            big = gen.duplicate_dpb(d, rng) or d
            assert dpb_mediate(d, big.p, big.q, big.r) == \
                dpb_compare(d, big.p, big.q, big.r)

    def test_dpb_compare_checks_the_candidate_shape(self):
        d = _chosen_dpb()
        with pytest.raises(NotAPullbackAround,
                           match="arrows do not match the stated objects"):
            dpb_compare(d, identity_fn(d.X), d.q, d.r)


class TestParanoidCount:
    """dpb_compare counts the morphisms from its candidate into its
    target on every call and refuses unless there is exactly one."""

    @staticmethod
    def _dpb(points, per_point):
        # f : A -> {b} with g's fiber over each of A's points of size
        # per_point, so Y holds per_point^points sections.
        a, b = mk_finset([f"a{i}" for i in range(points)]), mk_finset(["b"])
        z = mk_finset([f"z{i}{j}" for i in range(points)
                       for j in range(per_point)])
        g = FinFn(z, a, [(e, Atom(f"a{e.token[1]}")) for e in z])
        return dist_pullback(constant_fn(a, b, Atom("b")), g)

    @pytest.mark.parametrize("points, per_point", [(1, 3), (2, 2)])
    def test_chosen_target_gives_identity_mediators(self, points,
                                                    per_point):
        d = self._dpb(points, per_point)
        s, t = dpb_compare(d, d.p, d.q, d.r)
        assert s.is_identity and t.is_identity

    def test_duplicated_target_is_refused(self):
        # The duplicated section gives two mediators.  Trying every pair
        # of maps would take 10^8 * 5^4 of them.
        d = self._dpb(2, 2)
        dup = gen.duplicate_dpb(d, gen.Draws(0))
        assert (len(dup.X), len(dup.Y), len(d.X), len(d.Y)) == (10, 5, 8, 4)
        with pytest.raises(NotAPullbackAround,
                           match="mediator is not unique"):
            dpb_compare(dup, d.p, d.q, d.r)

    @staticmethod
    def _refused_with_y_swapped(d, i, j):
        # Swapping two points of Y gives a terminal copy of the chosen
        # distributivity pullback, with one mediator, but the comparison
        # that dpb_compare builds by section numbering is not a morphism
        # into it.
        swap = list(range(len(d.Y)))
        swap[i], swap[j] = j, i
        target = DistPB(d.around_f, d.around_g, d.p,
                        FinFn(d.X, d.Y, idx=[swap[y] for y in d.q.idx]),
                        FinFn(d.Y, d.r.cod, idx=[d.r.idx[y] for y in swap]))
        target.validate_shape()
        assert _count_dpb_mediators(target, d) == 1
        with pytest.raises(NotAPullbackAround,
                           match="mediator is not unique"):
            dpb_compare(target, d.p, d.q, d.r)

    def test_sections_swapped_over_one_point_are_refused(self):
        # s lands on the swapped sections' points of X, so only
        # d.p o s = p fails.
        d = self._dpb(2, 2)
        self._refused_with_y_swapped(d, *d.r.fiber_positions()[0][:2])

    def test_empty_sections_swapped_across_points_are_refused(self):
        # The empty sections over b2 and b3 lie under no point of X, so
        # only d.r o t = r fails.
        a, b = mk_finset(["a"]), mk_finset(["b1", "b2", "b3"])
        d = dist_pullback(constant_fn(a, b, Atom("b1")),
                          constant_fn(mk_finset(["z0", "z1"]), a, Atom("a")))
        (i,), (j,) = d.r.fiber_positions()[1:]
        self._refused_with_y_swapped(d, i, j)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_count_equals_enumeration(self, seed, size):
        rng = gen.Draws(seed)
        d = gen.rand_dpb(rng, size)
        family = [e for e in (d, gen.duplicate_dpb(d, rng),
                              gen.shrink_dpb(d, rng)) if e is not None]
        for target, cand in product(family, repeat=2):
            space = (max(len(target.X), 1) ** len(cand.X)
                     * max(len(target.Y), 1) ** len(cand.Y))
            if space <= 100_000:
                assert (_count_dpb_mediators(target, cand)
                        == enumerated_dpb_mediators(target, cand))


class TestSectionCount:
    """On a section-like target the mediator count reads one signature
    per point, so it takes linear time and equals the fiber sum."""

    def test_625_sections_take_linear_steps(self):
        # Y holds 5^4 = 625 sections over one point and X 2,500 points.
        # The fiber sum takes 625 * 625 * 4 steps here.
        d = TestParanoidCount._dpb(4, 5)
        assert (len(d.X), len(d.Y)) == (2500, 625)
        with counted_lines(slices) as steps:
            assert _count_dpb_mediators(d, d) == 1
        assert steps[0] <= 10 * (len(d.X) + len(d.Y))

    @staticmethod
    def _wide_dpb(rng):
        # f : A -> B with g's fibers of 2 or 3 points, so that Y is large
        # enough for the count to read signatures.
        a = gen.rand_set(rng, 4, "a", min_size=3)
        z = FinSetObj([Pair(e, Atom(str(i))) for e in a
                       for i in range(rng.randint(2, 3))])
        g = FinFn(z, a, [(e, e.left) for e in z])
        return dist_pullback(gen.rand_fn(rng, a, gen.rand_set(rng, 2, "b")),
                             g)

    @staticmethod
    def _over(d, pq, rng):
        # d with X replaced by points with these (p, q) positions.
        x2 = gen.fresh_set(rng, len(pq), "x")
        return DistPB(d.around_f, d.around_g,
                      FinFn(x2, d.p.cod, idx=[z for z, _ in pq]),
                      FinFn(x2, d.Y, idx=[y for _, y in pq]), d.r)

    def _fattened(self, d, rng):
        # A second point of X with the same p and q: not section-like.
        pq = list(zip(d.p.idx, d.q.idx))
        return self._over(d, pq + [rng.choice(pq)], rng)

    def _perturbed(self, d, rng):
        # One point of X given another value of p, dropped, or added
        # beside it with a random value of p.
        pq = list(zip(d.p.idx, d.q.idx))
        i, z = rng.randrange(len(pq)), rng.randrange(len(d.p.cod))
        change = rng.randrange(3)
        if change == 0:
            pq[i] = z, pq[i][1]
        elif change == 1:
            del pq[i]
        else:
            pq.append((z, pq[i][1]))
        return self._over(d, pq, rng)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_count_equals_the_fiber_sum(self, seed):
        rng = gen.Draws(seed)
        d = self._wide_dpb(rng)
        family = [e for e in (d, gen.duplicate_dpb(d, rng),
                              gen.shrink_dpb(d, rng), self._fattened(d, rng),
                              *(self._perturbed(d, rng) for _ in range(3)))
                  if e is not None]
        for target, cand in product(family, repeat=2):
            assert (_count_dpb_mediators(target, cand)
                    == summed_dpb_mediators(target, cand))


class TestSections:
    def _surjective_dpb(self, rng):
        b = gen.rand_set(rng, 2, "b")
        c = gen.rand_set(rng, 2, "c")
        f = gen.rand_fn(rng, b, c)
        a_elems = [Pair(e, Atom(str(i))) for e in b
                   for i in range(rng.randint(1, 2))]
        a = FinSetObj(a_elems)
        g = FinFn(a, b, [(e, e.left) for e in a])
        return f, g, dist_pullback(f, g)

    def test_triple_from_splitting(self, rng):
        for _ in range(10):
            f, g, d = self._surjective_dpb(rng)
            s1 = FinFn(g.cod, g.dom,
                       [(e, rng.choice(g.fiber(e))) for e in g.cod])
            t1, t2, t3 = induce_sections(d, s1=s1)
            assert t1 == s1
            assert compose_fn(g, t1).is_identity
            assert compose_fn(compose_fn(g, d.p), t2).is_identity
            assert compose_fn(d.r, t3).is_identity
            assert compose_fn(d.p, t2) == t1
            assert compose_fn(d.q, t2) == compose_fn(t3, f)

    def test_triple_from_r_section_matches(self, rng):
        for _ in range(10):
            f, g, d = self._surjective_dpb(rng)
            s1 = FinFn(g.cod, g.dom,
                       [(e, g.fiber(e)[0]) for e in g.cod])
            triple = induce_sections(d, s1=s1)
            again = induce_sections(d, s3=triple[2])
            assert again == triple

    def test_degenerate_identity_g(self):
        a, b = mk_finset(["a1", "a2"]), mk_finset(["b"])
        f = constant_fn(a, b, Atom("b"))
        d = dist_pullback(f, identity_fn(a))
        t1, t2, t3 = induce_sections(d, s1=identity_fn(a))
        assert t1.is_identity and t2.is_identity and t3.is_identity

    def test_not_a_section(self):
        a, b = mk_finset(["a1", "a2"]), mk_finset(["b"])
        f = constant_fn(a, b, Atom("b"))
        d = dist_pullback(f, constant_fn(a, a, Atom("a1")))
        with pytest.raises(NotASection):
            induce_sections(d, s1=constant_fn(a, a, Atom("a2")))
        with pytest.raises(NotASection):
            induce_sections(d)


class TestAdjunctions:
    def test_sigma_delta_bijection(self, rng):
        for _ in range(15):
            a = gen.rand_set(rng, 3, "a")
            b = gen.rand_set(rng, 3, "b")
            f = gen.rand_fn(rng, a, b)
            x = gen.rand_slice(rng, a, 3)
            y = gen.rand_slice(rng, b, 3)
            lhs = slice_homset(sigma(f, x), y)
            rhs = slice_homset(x, delta(f, y)[0])
            images = {sigma_delta_transpose(f, x, y, m).mediating
                      for m in lhs}
            assert len(lhs) == len(rhs) == len(images)
            assert images == {m.mediating for m in rhs}

    def test_delta_pi_bijection(self, rng):
        for _ in range(15):
            a = gen.rand_set(rng, 3, "a")
            b = gen.rand_set(rng, 3, "b")
            f = gen.rand_fn(rng, a, b)
            y = gen.rand_slice(rng, b, 3)
            x = gen.rand_slice(rng, a, 3)
            lhs = slice_homset(delta(f, y)[0], x)
            rhs = slice_homset(y, pi(f, x))
            images = {delta_pi_transpose(f, y, x, m).mediating for m in lhs}
            assert len(lhs) == len(rhs) == len(images)
            assert images == {m.mediating for m in rhs}


def test_slice_pullback_is_pullback(rng):
    from polyfin.finset import PullbackSquare, check_pullback
    for _ in range(10):
        base = gen.rand_set(rng, 3, "x")
        w = gen.rand_slice(rng, base, 3)
        x = gen.rand_slice(rng, base, 3)
        y = gen.rand_slice(rng, base, 3)
        hx = slice_homset(x, w)
        hy = slice_homset(y, w)
        if not hx or not hy:
            continue
        m1, m2 = hx[0], hy[0]
        left, right = slice_pullback(m1, m2)
        assert left.src == right.src
        sq = PullbackSquare(left.src.carrier, left.mediating, right.mediating,
                            m1.mediating, m2.mediating)
        assert check_pullback(sq)


def test_pi_preserves_terminals_and_pullbacks(rng):
    from polyfin.finset import PullbackSquare, check_pullback
    from polyfin.slices import pi_mor
    done = 0
    for _ in range(15):
        a = gen.rand_set(rng, 2, "a")
        b = gen.rand_set(rng, 2, "b")
        f = gen.rand_fn(rng, a, b)
        assert pi(f, terminal_slice(a)) == terminal_slice(b)
        w = gen.rand_slice(rng, a, 2)
        x = gen.rand_slice(rng, a, 2)
        y = gen.rand_slice(rng, a, 2)
        hx, hy = slice_homset(x, w), slice_homset(y, w)
        if not hx or not hy:
            continue
        done += 1
        left, right = slice_pullback(hx[0], hy[0])
        img_left = pi_mor(f, left)
        img_right = pi_mor(f, right)
        sq = PullbackSquare(img_left.src.carrier, img_left.mediating,
                            img_right.mediating, pi_mor(f, hx[0]).mediating,
                            pi_mor(f, hy[0]).mediating)
        assert check_pullback(sq)
    assert done >= 3
