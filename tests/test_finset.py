"""Base layer: elements, sets, functions, chosen pullbacks."""

import random
import re
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import polyfin.finset
import polyfin.poly
from polyfin.errors import (
    DuplicateElement,
    IllFormedFunction,
    NotASquare,
    NotComposable,
)
from polyfin.finset import (
    Atom,
    FinFn,
    FinSetObj,
    Pair,
    PullbackSquare,
    Sect,
    _take,
    check_pullback,
    compose_fn,
    identity_fn,
    lazy_finset,
    mediate,
    mk_finset,
    ordered_finset,
    pullback,
)

from support import (
    compared_elements,
    constant_fn,
    counting_pullback_check,
    recorded_builds,
)

elements = st.recursive(
    st.sampled_from("abcxyz").map(Atom),
    lambda inner: st.tuples(inner, inner).map(lambda ab: Pair(*ab)),
    max_leaves=4)

# Atoms, pairs and section tables, nested several levels deep.
deep_elements = st.recursive(
    st.sampled_from("abcxyz").map(Atom),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda ab: Pair(*ab)),
        st.dictionaries(inner, inner, min_size=1, max_size=3).map(
            lambda d: Sect(d.items()))),
    max_leaves=8)


def pair_set(f, g):
    """Cardinality of the canonical pullback of (f, g), by brute force."""
    return sum(1 for a in f.dom for b in g.dom if f(a) == g(b))


def rebuild(e, rnd):
    """A structurally equal copy of e made of fresh objects, with every
    section table's entries handed over in a shuffled order."""
    if isinstance(e, Atom):
        return Atom(e.token)
    if isinstance(e, Pair):
        return Pair(rebuild(e.left, rnd), rebuild(e.right, rnd))
    entries = [(rebuild(k, rnd), rebuild(v, rnd)) for k, v in e.entries]
    rnd.shuffle(entries)
    return Sect(entries)


@st.composite
def cospans(draw, max_dom=6):
    """Cospans f : A -> C <- B : g of atoms.  Fibers may be empty, legs need
    not be surjective, and A, B (and C) may be empty."""
    cod = mk_finset([f"c{i}" for i in range(draw(st.integers(0, 4)))])

    def leg(prefix):
        size = draw(st.integers(0, max_dom)) if len(cod) else 0
        dom = mk_finset([f"{prefix}{i}" for i in range(size)])
        return FinFn(dom, cod, [(e, draw(st.sampled_from(cod.elements)))
                                for e in dom])

    return leg("a"), leg("b")


class TestElements:
    def test_atoms_compare_by_token(self):
        assert Atom("a") < Atom("b")
        assert Atom("a") == Atom("a")
        assert hash(Atom("a")) == hash(Atom("a"))

    def test_kind_order(self):
        a = Atom("z")
        p = Pair(Atom("a"), Atom("a"))
        s = Sect([(Atom("a"), Atom("a"))])
        assert a < p < s

    def test_sect_canonical_order_and_lookup(self):
        s1 = Sect([(Atom("b"), Atom("1")), (Atom("a"), Atom("0"))])
        s2 = Sect([(Atom("a"), Atom("0")), (Atom("b"), Atom("1"))])
        assert s1 == s2
        assert s1[Atom("b")] == Atom("1")

    def test_sect_lookup_by_identity_and_by_equality(self):
        keys = [Pair(Atom(k), Atom("0")) for k in "cab"]
        table = Sect([(k, Atom(f"v{i}")) for i, k in enumerate(keys)])
        for i, k in enumerate(keys):
            assert table[k] == Atom(f"v{i}")
            assert table[Pair(Atom(k.left.token), Atom("0"))] == Atom(f"v{i}")
        with pytest.raises(KeyError):
            table[Atom("c")]

    def test_sect_rejects_duplicate_keys(self):
        with pytest.raises(DuplicateElement):
            Sect([(Atom("a"), Atom("0")), (Atom("a"), Atom("1"))])

    @given(elements, elements, elements)
    @settings(max_examples=60, deadline=None)
    def test_total_order(self, x, y, z):
        assert (x < y) or (y < x) or x == y
        if x < y and y < z:
            assert x < z
        if x == y:
            assert not x < y and not y < x

    @given(deep_elements, st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_equal_elements_hash_equal(self, x, rnd):
        copy = rebuild(x, rnd)
        assert copy is not x
        assert copy == x and not copy != x
        assert hash(copy) == hash(x)

    def test_sect_entry_order_does_not_change_hash(self):
        entries = [(Atom(k), Atom(v)) for k, v in ["b1", "a0", "c2"]]
        tables = [Sect(order) for order in
                  (entries, entries[::-1], entries[1:] + entries[:1])]
        assert all(t == tables[0] for t in tables)
        assert len({hash(t) for t in tables}) == 1

    def test_three_level_nesting_equal_and_hash_equal(self):
        def build(order):
            inner = Sect([(Atom("p"), Atom("1")), (Atom("q"), Atom("2"))][::order])
            middle = Pair(inner, Sect([(inner, Atom("x")),
                                       (Atom("k"), inner)][::order]))
            outer = Sect([(middle, Pair(Atom("y"), middle)),
                          (Atom("z"), middle)][::order])
            return inner, middle, outer

        for one, other in zip(build(1), build(-1)):
            assert one == other and hash(one) == hash(other)


class TestMkFinset:
    def test_four_variable_set(self):
        s = mk_finset(["w", "x", "y", "z"])
        assert len(s) == 4
        assert Atom("w") in s

    def test_empty(self):
        assert len(mk_finset([])) == 0

    def test_duplicate_token(self):
        with pytest.raises(DuplicateElement):
            mk_finset(["a", "a"])

    def test_set_equality_is_structural(self):
        assert mk_finset(["a", "b"]) == mk_finset(["b", "a"])

    def test_duplicate_token_is_named_as_its_atom(self):
        with pytest.raises(DuplicateElement,
                           match=r"^duplicate element Atom\('a'\)$"):
            mk_finset(["a", "a"])


def _shuffled(items):
    items = list(items)
    random.Random(4).shuffle(items)
    return items


_ATOMS = [Atom(f"a{i}") for i in range(30)]


class TestCanonicalOrdering:
    """A listing out of canonical order is sorted on its order keys, which
    are compared in C: no element is compared with Element.__eq__."""

    @pytest.mark.parametrize("build", [
        pytest.param(lambda: FinSetObj(_shuffled(_ATOMS)), id="atoms"),
        pytest.param(lambda: FinSetObj(_shuffled(
            Pair(Pair(a, b), a) for a, b in product(_ATOMS[:6], repeat=2))),
            id="nested pairs"),
        pytest.param(lambda: Sect(_shuffled(
            (a, Atom(str(i))) for i, a in enumerate(_ATOMS))),
            id="section entries"),
        # Listed as encode lists them, "m2" before "m10": canonical order
        # puts "m10" first.
        pytest.param(lambda: mk_finset([f"m{i}" for i in range(12)]),
                     id="encode's tokens"),
    ])
    def test_sorting_compares_no_elements(self, build):
        with compared_elements() as compared:
            build()
        assert compared == []

    def test_first_repeat_in_canonical_order_is_named(self):
        a, b = Atom("a"), Atom("b")
        with pytest.raises(DuplicateElement,
                           match=r"^duplicate element Atom\('a'\)$"):
            FinSetObj([b, a, b, a])
        with pytest.raises(DuplicateElement, match=r"^section table repeats "
                                                   r"key Atom\('a'\)$"):
            Sect([(b, Atom("0")), (a, Atom("1")), (b, Atom("2")),
                  (a, Atom("3"))])


class TestMkFn:
    def test_identity(self):
        x = mk_finset(["a", "b"])
        f = FinFn(x, x, [(e, e) for e in x])
        assert f.is_identity

    def test_missing_assignment(self):
        x = mk_finset(["a", "b"])
        with pytest.raises(IllFormedFunction):
            FinFn(x, x, [(Atom("a"), Atom("a"))])

    def test_value_outside_codomain(self):
        x = mk_finset(["a"])
        y = mk_finset(["b"])
        with pytest.raises(IllFormedFunction):
            FinFn(x, y, [(Atom("a"), Atom("c"))])

    def test_extra_assignment(self):
        x = mk_finset(["a"])
        with pytest.raises(IllFormedFunction):
            FinFn(x, x, [(Atom("a"), Atom("a")), (Atom("b"), Atom("a"))])

    def test_error_messages_and_precedence(self):
        x = mk_finset(["a", "b"])
        a, b, c, z = Atom("a"), Atom("b"), Atom("c"), Atom("z")
        with pytest.raises(IllFormedFunction,
                           match=r"^element Atom\('a'\) assigned twice$"):
            FinFn(x, x, [(a, a), (a, b)])
        # A missing argument is reported before an extra one or a bad value.
        with pytest.raises(IllFormedFunction, match=r"^no value for Atom\('b'\)$"):
            FinFn(x, x, [(a, z), (c, a)])
        # An extra argument is reported before a value outside the codomain.
        with pytest.raises(IllFormedFunction,
                           match=r"^assignment for non-element Atom\('c'\)$"):
            FinFn(x, x, [(b, z), (c, a), (a, a)])
        with pytest.raises(IllFormedFunction,
                           match=r"^value Atom\('z'\) lies outside codomain$"):
            FinFn(x, x, [(b, a), (a, z)])

    @given(st.lists(deep_elements, unique=True, max_size=8),
           st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_graph_follows_dom_order(self, args, rnd):
        dom = FinSetObj(args)
        cod = mk_finset(["u", "v", "w"])
        pairs = [(e, rnd.choice(cod.elements)) for e in dom]
        shuffled = [(rebuild(e, rnd), v) for e, v in pairs]
        rnd.shuffle(shuffled)
        ordered, scrambled = FinFn(dom, cod, pairs), FinFn(dom, cod, shuffled)
        assert [e for e, _ in scrambled.graph] == list(dom.elements)
        assert scrambled.graph == ordered.graph
        assert scrambled == ordered and hash(scrambled) == hash(ordered)
        assert all(scrambled(e) == v for e, v in pairs)


class TestPositionTables:
    """FinFn stores value positions over the canonical order; every derived
    view must agree with a plain dict of pairs, also when the arguments
    come from equal but distinct copies of dom and cod."""

    @given(st.lists(deep_elements, unique=True, max_size=6),
           st.lists(deep_elements, unique=True, min_size=1, max_size=5),
           st.sampled_from(["any", "endo", "identity", "permutation"]),
           st.randoms(use_true_random=False))
    @settings(max_examples=120, deadline=None)
    def test_matches_dict_reference(self, args, values, shape, rnd):
        if shape != "any":
            args = values = args or values
        ref = {a: (a if shape == "identity" else rnd.choice(values))
               for a in args}
        if shape == "permutation":
            ref = dict(zip(args, rnd.sample(args, len(args))))
        dom, cod = FinSetObj(args), FinSetObj(values)
        if shape != "any":
            dom = cod
        f = FinFn(dom, cod, list(ref.items()))
        dom2 = FinSetObj(rebuild(a, rnd) for a in dom)
        cod2 = dom2 if shape != "any" else FinSetObj(
            rebuild(v, rnd) for v in cod)
        pairs2 = [(rebuild(a, rnd), rebuild(v, rnd)) for a, v in ref.items()]
        rnd.shuffle(pairs2)
        f2 = FinFn(dom2, cod2, pairs2)

        assert all(f(a) == v and f(rebuild(a, rnd)) == v
                   for a, v in ref.items())
        assert f.graph == tuple(sorted(ref.items()))
        for b in cod:
            want = tuple(sorted(a for a, v in ref.items() if v == b))
            assert f.fiber(b) == want == f2.fiber(rebuild(b, rnd))
        image = set(ref.values())
        bijective = len(image) == len(ref) == len(cod)
        assert f.is_bijective is f2.is_bijective is bijective
        identity = (set(ref) == set(cod)
                    and all(a == v for a, v in ref.items()))
        assert f.is_identity is f2.is_identity is identity
        if bijective:
            inv = f.inverse()
            assert all(inv(v) == a for a, v in ref.items())
            assert compose_fn(inv, f2).is_identity
        else:
            with pytest.raises(IllFormedFunction, match="not bijective"):
                f.inverse()
        assert f == f2 and hash(f) == hash(f2)

        targets = mk_finset(["p", "q"])
        gref = {v: rnd.choice(targets.elements) for v in cod2}
        g = FinFn(cod2, targets, list(gref.items()))
        gf = compose_fn(g, f)
        assert gf.dom is dom and gf.cod is targets
        assert all(gf(a) == gref[v] for a, v in ref.items())
        if ref and len(cod) > 1:
            a0 = next(iter(ref))
            other = next(v for v in cod if v != ref[a0])
            changed = FinFn(dom, cod, list({**ref, a0: other}.items()))
            assert changed != f

    def test_idx_form_checks_length_and_range(self):
        dom, cod = mk_finset(["a", "b"]), mk_finset(["x", "y", "z"])
        f = FinFn(dom, cod, idx=[2, 0])
        assert f.graph == ((Atom("a"), Atom("z")), (Atom("b"), Atom("x")))
        assert f == FinFn(dom, cod, [(Atom("b"), Atom("x")),
                                     (Atom("a"), Atom("z"))])
        wider = mk_finset(["x", "y", "z", "zz"])
        assert f != FinFn(dom, wider, idx=[2, 0])
        assert f != FinFn(mk_finset(["a", "c"]), cod, idx=[2, 0])
        for bad in ([0], [0, 1, 2], [0, 3], [-1, 0]):
            with pytest.raises(IllFormedFunction):
                FinFn(dom, cod, idx=bad)
        with pytest.raises(IllFormedFunction):
            FinFn(dom, mk_finset([]), idx=[0, 0])
        assert FinFn(mk_finset([]), mk_finset([]), idx=[]).is_identity
        with pytest.raises(TypeError):
            FinFn(dom, cod, [(Atom("a"), Atom("x"))], idx=[0, 0])

    @given(st.lists(deep_elements, unique=True, max_size=8),
           st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_shuffled_and_presorted_input_agree(self, elems, rnd):
        presorted = FinSetObj(sorted(elems))
        shuffled = list(elems)
        rnd.shuffle(shuffled)
        from_shuffled = FinSetObj(shuffled)
        assert from_shuffled.elements == presorted.elements
        assert from_shuffled == presorted
        assert hash(from_shuffled) == hash(presorted)
        assert all(e in from_shuffled for e in elems)
        if elems:
            dup = rnd.choice(elems)
            for listing in (sorted(elems + [dup]), shuffled + [dup]):
                with pytest.raises(DuplicateElement,
                                   match=rf"^duplicate element {re.escape(repr(dup))}$"):
                    FinSetObj(listing)

    def test_ordered_finset_rejects_reordering(self):
        a, b = Atom("a"), Atom("b")
        assert ordered_finset([a, b]).elements == (a, b)
        with pytest.raises(AssertionError):
            ordered_finset([b, a])


class TestSquareBoundaries:
    """A square whose apex, projections and legs do not line up is
    rejected by commutes, check_pullback and mediate alike."""

    def _squares(self):
        a, b, c = mk_finset(["a1", "a2"]), mk_finset(["b"]), mk_finset(["c"])
        f = constant_fn(a, c, Atom("c"))
        g = constant_fn(b, c, Atom("c"))
        good = pullback(f, g)
        other = mk_finset(["u", "v"])
        c2 = mk_finset(["c", "d"])
        return good, [
            PullbackSquare(other, good.proj1, good.proj2, f, g),
            PullbackSquare(good.apex, good.proj2, good.proj1, f, g),
            PullbackSquare(good.apex, good.proj1, good.proj2, f,
                           constant_fn(b, c2, Atom("c"))),
            PullbackSquare(good.apex, good.proj1,
                           constant_fn(good.apex, a, Atom("a1")), f, g),
        ]

    def test_misaligned_squares_raise(self):
        good, bad_squares = self._squares()
        t1 = constant_fn(mk_finset(["t"]), good.proj1.cod, Atom("a2"))
        t2 = constant_fn(mk_finset(["t"]), good.proj2.cod, Atom("b"))
        assert mediate(good, t1, t2).graph == (
            (Atom("t"), Pair(Atom("a2"), Atom("b"))),)
        for sq in bad_squares:
            with pytest.raises(NotASquare, match="do not line up"):
                sq.commutes()
            with pytest.raises(NotASquare, match="do not line up"):
                check_pullback(sq)
            if t1.cod == sq.proj1.cod and t2.cod == sq.proj2.cod:
                with pytest.raises(NotASquare, match="do not line up"):
                    mediate(sq, t1, t2)


class TestComposeFn:
    def test_unit_laws(self):
        x = mk_finset(["a", "b"])
        y = mk_finset(["c"])
        g = constant_fn(x, y, Atom("c"))
        assert compose_fn(g, identity_fn(x)) == g
        assert compose_fn(identity_fn(y), g) == g

    def test_constant_absorbs(self):
        x = mk_finset(["a", "b"])
        y = mk_finset(["c", "d"])
        z = mk_finset(["e"])
        f = FinFn(x, y, [(Atom("a"), Atom("c")), (Atom("b"), Atom("d"))])
        c = constant_fn(y, z, Atom("e"))
        assert compose_fn(c, f) == constant_fn(x, z, Atom("e"))

    def test_singleton_chain(self):
        a, b, c = mk_finset(["a"]), mk_finset(["b"]), mk_finset(["c"])
        f = FinFn(a, b, [(Atom("a"), Atom("b"))])
        g = FinFn(b, c, [(Atom("b"), Atom("c"))])
        assert compose_fn(g, f) == FinFn(a, c, [(Atom("a"), Atom("c"))])

    def test_boundary_mismatch(self):
        a, b = mk_finset(["a"]), mk_finset(["b"])
        f = FinFn(a, b, [(Atom("a"), Atom("b"))])
        with pytest.raises(NotComposable):
            compose_fn(f, f)


@st.composite
def endos(draw):
    """An endofunction of at most five atoms, half of the time a permutation,
    so that its composites include identities and other bijections."""
    x = mk_finset([f"e{i}" for i in range(draw(st.integers(0, 5)))])
    n = len(x)
    if draw(st.booleans()):
        return FinFn(x, x, idx=draw(st.permutations(range(n))))
    return FinFn(x, x, idx=draw(st.lists(st.integers(0, max(n - 1, 0)),
                                         min_size=n, max_size=n)))


class TestTrustedTables:
    """compose_fn, identity_fn and pullback's projections skip the range
    check; each result must equal its table rebuilt by the validating
    constructor."""

    @given(cospans(), endos())
    @settings(max_examples=150, deadline=None)
    def test_results_equal_validated_rebuilds(self, cospan, e):
        f, g = cospan
        sq = pullback(f, g)
        built = [sq.proj1, sq.proj2, compose_fn(f, sq.proj1),
                 identity_fn(f.dom), identity_fn(sq.apex),
                 compose_fn(e, e), compose_fn(e, identity_fn(e.dom))]
        if e.is_bijective:
            built.append(compose_fn(e.inverse(), e))
        for fn in built:
            ref = FinFn(fn.dom, fn.cod, idx=fn.idx)
            assert fn == ref and ref == fn and hash(fn) == hash(ref)
            assert fn.is_identity is ref.is_identity
            assert fn.is_bijective is ref.is_bijective
        assert built[-1].is_identity is e.is_bijective


class TestPullback:
    def test_product_over_point(self):
        two = mk_finset(["a", "b"])
        three = mk_finset(["c", "d", "e"])
        pt = mk_finset(["*"])
        sq = pullback(constant_fn(two, pt, Atom("*")),
                      constant_fn(three, pt, Atom("*")))
        assert len(sq.apex) == 2 * 3
        assert check_pullback(sq)

    def test_identity_normalization_right(self):
        a, b = mk_finset(["a1", "a2"]), mk_finset(["b"])
        f = constant_fn(a, b, Atom("b"))
        sq = pullback(f, identity_fn(b))
        assert sq.apex == a
        assert sq.proj1.is_identity
        assert sq.proj2 == f

    def test_identity_normalization_left(self):
        a, b = mk_finset(["a1", "a2"]), mk_finset(["b"])
        f = constant_fn(a, b, Atom("b"))
        sq = pullback(identity_fn(b), f)
        assert sq.apex == a
        assert sq.proj2.is_identity
        assert sq.proj1 == f

    def test_matching_pairs_only(self):
        a = mk_finset(["a1", "a2"])
        b = mk_finset(["b1"])
        c = mk_finset(["c1", "c2"])
        f = FinFn(a, c, [(Atom("a1"), Atom("c1")), (Atom("a2"), Atom("c2"))])
        g = FinFn(b, c, [(Atom("b1"), Atom("c1"))])
        sq = pullback(f, g)
        assert list(sq.apex) == [Pair(Atom("a1"), Atom("b1"))]
        assert check_pullback(sq)

    def test_codomain_mismatch(self):
        a = mk_finset(["a"])
        f = identity_fn(a)
        g = identity_fn(mk_finset(["b"]))
        with pytest.raises(NotComposable):
            pullback(f, g)

    @given(cospans())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, cospan):
        f, g = cospan
        want = FinSetObj([Pair(a, b) for a in f.dom for b in g.dom
                          if f(a) == g(b)])
        sq = pullback(f, g)
        assert sq.apex == want and sq.apex.elements == want.elements
        assert len(sq.apex) == pair_set(f, g)
        assert sq.proj1 == FinFn(want, f.dom, [(e, e.left) for e in want])
        assert sq.proj2 == FinFn(want, g.dom, [(e, e.right) for e in want])
        assert sq.leg1 is f and sq.leg2 is g
        assert check_pullback(sq)

    @given(cospans())
    @settings(max_examples=60, deadline=None)
    def test_identity_normalizations_on_the_nose(self, cospan):
        f, g = cospan
        one = identity_fn(f.cod)
        right = pullback(f, one)
        # With both legs identities (the empty cospan), the left rule wins.
        assert right.apex is (one.dom if f.is_identity else f.dom)
        assert right.proj1.is_identity and right.proj2 == f
        left = pullback(one, g)
        assert left.apex is g.dom
        assert left.proj1 == g and left.proj2.is_identity


class TestLazyFinSet:
    def test_len_reads_the_size_and_builds_nothing(self):
        calls = []
        s = lazy_finset(2, lambda: calls.append(1) or [Atom("a"), Atom("b")])
        assert len(s) == 2 and not calls
        assert s.elements == (Atom("a"), Atom("b")) and calls == [1]
        assert Atom("b") in s and list(s) == [Atom("a"), Atom("b")]
        assert calls == [1]

    def test_out_of_order_builder_fails_on_first_read(self):
        s = lazy_finset(2, lambda: [Atom("b"), Atom("a")])
        assert len(s) == 2
        with pytest.raises(AssertionError, match="canonical order"):
            s.elements
        with pytest.raises(AssertionError, match="canonical order"):
            Atom("a") in lazy_finset(2, lambda: [Atom("b"), Atom("a")])

    def test_wrong_size_fails_on_first_read(self):
        s = lazy_finset(3, lambda: [Atom("a"), Atom("b")])
        with pytest.raises(AssertionError, match="number of elements"):
            s == mk_finset(["a", "b"])

    def test_duplicate_from_builder_is_rejected(self):
        s = lazy_finset(2, lambda: [Atom("a"), Atom("a")])
        with pytest.raises(DuplicateElement):
            s.elements

    def test_empty_needs_no_builder(self):
        def never():
            raise AssertionError("builder ran")
        assert lazy_finset(0, never) == FinSetObj([])

    @given(cospans())
    @settings(max_examples=150, deadline=None)
    def test_pullback_apex_equals_its_eager_rebuild(self, cospan):
        f, g = cospan
        eager = FinSetObj([Pair(a, b) for a in f.dom for b in g.dom
                           if f(a) == g(b)])
        with recorded_builds() as built:
            sq = pullback(f, g)
            assert len(sq.apex) == len(eager)
            assert sq.proj1.idx == tuple(f.dom._index[e.left] for e in eager)
            assert sq.proj2.idx == tuple(g.dom._index[e.right] for e in eager)
        assert built == []
        assert pullback(f, g).apex == eager
        assert eager == pullback(f, g).apex
        assert hash(pullback(f, g).apex) == hash(eager)
        assert pullback(f, g).apex.elements == eager.elements

    @given(cospans())
    @settings(max_examples=60, deadline=None)
    def test_pullback_does_not_build_a_lazy_leg_domain(self, cospan):
        f, g = cospan
        inner = pullback(f, g)
        leg = compose_fn(f, inner.proj1)
        # A leg whose table is the identity table is compared with its
        # codomain to decide whether it is an identity, which reads it.
        assume(leg.idx != tuple(range(len(leg.cod))))
        with recorded_builds() as built:
            along_id = pullback(identity_fn(f.dom), inner.proj1)
            assert along_id.apex is inner.apex
            outer = pullback(leg, g)
            assert len(outer.apex) == sum(
                len(g.fiber_positions()[j]) for j in leg.idx)
        assert built == []
        assert outer.apex == FinSetObj(
            [Pair(e, b) for e in inner.apex for b in g.dom
             if f(e.left) == g(b)])


class TestCheckPullback:
    def test_doubled_apex_rejected(self):
        a, b, c = mk_finset(["a"]), mk_finset(["b"]), mk_finset(["c"])
        f = FinFn(a, c, [(Atom("a"), Atom("c"))])
        g = FinFn(b, c, [(Atom("b"), Atom("c"))])
        apex = mk_finset(["u", "v"])
        sq = PullbackSquare(apex, constant_fn(apex, a, Atom("a")),
                            constant_fn(apex, b, Atom("b")), f, g)
        assert sq.commutes()
        assert not check_pullback(sq)

    def test_repeated_pair_with_the_right_count_rejected(self):
        """As many apex points as matching pairs, but one pair twice and
        one never: only the distinctness of the pairs rejects it."""
        a, b, c = mk_finset(["a1", "a2"]), mk_finset(["b"]), mk_finset(["c"])
        f = constant_fn(a, c, Atom("c"))
        g = FinFn(b, c, [(Atom("b"), Atom("c"))])
        apex = mk_finset(["u", "v"])
        sq = PullbackSquare(apex, constant_fn(apex, a, Atom("a1")),
                            constant_fn(apex, b, Atom("b")), f, g)
        assert sq.commutes()
        assert len(apex) == pair_set(f, g) == 2
        assert not check_pullback(sq)

    def test_empty_square(self):
        e = mk_finset([])
        f = FinFn(e, e, [])
        sq = PullbackSquare(e, f, f, f, f)
        assert check_pullback(sq)

    def test_noncommuting_raises(self):
        two = mk_finset(["a", "b"])
        swap = FinFn(two, two, [(Atom("a"), Atom("b")), (Atom("b"), Atom("a"))])
        sq = PullbackSquare(two, identity_fn(two), identity_fn(two),
                            identity_fn(two), swap)
        with pytest.raises(NotASquare):
            check_pullback(sq)

    def test_cardinality_matches_pair_oracle(self, rng):
        from polyfin import gen
        for _ in range(25):
            c = gen.rand_set(rng, 3, "c")
            f = gen.rand_fn(rng, gen.rand_set(rng, 3, "a", min_size=0), c)
            g = gen.rand_fn(rng, gen.rand_set(rng, 3, "b", min_size=0), c)
            sq = pullback(f, g)
            assert check_pullback(sq)
            assert len(sq.apex) == pair_set(f, g)


    def test_transposed_stage_enumerates_its_pairs_once(self, monkeypatch):
        """A composite's last stage lists the pairs of the swapped cospan;
        only that side's enumeration is made, and the square passes."""
        import polyfin.finset
        from polyfin.poly import terminal_sdc
        from polyfin.symbolic import encode, parse_poly
        links = [encode(parse_poly(t, in_vars=[v], out_names=[w]))
                 for t, v, w in (("x^2 + x", "x", "y"), ("y^2 + 1", "y", "x"))]
        sdc = terminal_sdc(links)
        last = len(sdc.over) - 1
        sq = PullbackSquare(sdc.ys[last], sdc.q2s[last], sdc.rs[last],
                            sdc.ss[last], sdc.over[last].p2)
        real, calls = polyfin.finset._matching_pairs, []

        def counting(f, g):
            calls.append((f, g))
            return real(f, g)

        monkeypatch.setattr(polyfin.finset, "_matching_pairs", counting)
        assert check_pullback(sq)
        assert calls == [(sq.leg2, sq.leg1)]


def _outcome(decide, sq):
    try:
        return decide(sq)
    except NotASquare:
        return NotASquare


class TestCheckPullbackAgainstCounting:
    """check_pullback gives the counting reference's answer on the chosen
    pullback and on squares one edit away from it."""

    @staticmethod
    def _relabelled(sq, p1, p2):
        """A square over sq's legs whose apex points have the given
        projection positions."""
        apex = mk_finset([f"e{i}" for i in range(len(p1))])
        return PullbackSquare(apex, FinFn(apex, sq.leg1.dom, idx=p1),
                              FinFn(apex, sq.leg2.dom, idx=p2),
                              sq.leg1, sq.leg2)

    def _variants(self, data, sq):
        p1, p2 = list(sq.proj1.idx), list(sq.proj2.idx)
        yield "chosen", sq
        yield "transpose", PullbackSquare(sq.apex, sq.proj2, sq.proj1,
                                          sq.leg2, sq.leg1)
        order = data.draw(st.permutations(range(len(p1))))
        yield "permuted", self._relabelled(sq, [p1[e] for e in order],
                                           [p2[e] for e in order])
        if not p1:
            return
        e = data.draw(st.integers(0, len(p1) - 1))
        yield "dropped", self._relabelled(sq, p1[:e] + p1[e + 1:],
                                          p2[:e] + p2[e + 1:])
        yield "duplicated", self._relabelled(sq, p1 + [p1[e]], p2 + [p2[e]])
        side = data.draw(st.sampled_from((p1, p2)))
        size = len((sq.leg1 if side is p1 else sq.leg2).dom)
        side[e] = data.draw(st.integers(0, size - 1))
        yield "changed", self._relabelled(sq, p1, p2)

    @given(cospans(max_dom=4), st.data())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_same_answer(self, cospan, data):
        for name, sq in self._variants(data, pullback(*cospan)):
            assert (_outcome(check_pullback, sq)
                    == _outcome(counting_pullback_check, sq)), name


@st.composite
def composable(draw, max_size=5):
    """Maps f : A -> B and g : B -> C of atoms.  Any of A, B, C may be
    empty, as far as a map out of A and out of B still exists."""
    sizes = [draw(st.integers(0, max_size))]
    for _ in range(2):
        sizes.append(draw(st.integers(0, max_size)) if sizes[-1] else 0)
    c, b, a = (mk_finset([f"{p}{i}" for i in range(n)])
               for p, n in zip("cba", sizes))

    def fn(dom, cod):
        return FinFn(dom, cod, idx=[draw(st.integers(0, len(cod) - 1))
                                    for _ in dom])

    return fn(a, b), fn(b, c)


def _commutes_pointwise(sq):
    return all(sq.leg1(sq.proj1(e)) == sq.leg2(sq.proj2(e)) for e in sq.apex)


class TestTake:
    """_take gathers one table at the positions listed in another."""

    @pytest.mark.parametrize("n", [0, 1, 2, 10_000])
    def test_equals_map_reference(self, n):
        table = tuple(f"v{i}" for i in range(n))
        for positions in ([(7 * i + 3) % n for i in range(n)],
                          tuple(reversed(range(n))), list(range(min(n, 1)))):
            got = _take(table, positions)
            assert type(got) is tuple
            assert got == tuple(map(table.__getitem__, positions))
            assert type(_take(list(table), positions)) is tuple

    def test_one_position_gives_a_tuple_not_the_entry(self):
        assert _take(("x", "y"), [1]) == ("y",)
        assert _take([(0, 1)], (0,)) == ((0, 1),)
        assert _take({5: "a"}, [5]) == ("a",)


class TestGathersAgainstDefinitions:
    """compose_fn, graph, fiber and commutes gather position tables; each
    agrees with its pointwise definition."""

    @staticmethod
    def _assert_maps(f, g):
        gf = compose_fn(g, f)
        assert all(gf(x) == g(f(x)) for x in f.dom)
        for h in (f, g, gf):
            assert h.graph == tuple((a, h(a)) for a in h.dom)
            for b in h.cod:
                assert h.fiber(b) == tuple(a for a in h.dom if h(a) == b)

    @given(composable())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_maps(self, fg):
        self._assert_maps(*fg)

    @given(cospans(max_dom=4), st.data())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_commutes(self, cospan, data):
        sq = pullback(*cospan)
        assert sq.commutes() and _commutes_pointwise(sq)
        p1, p2 = list(sq.proj1.idx), list(sq.proj2.idx)
        if p1:
            e = data.draw(st.integers(0, len(p1) - 1))
            side = data.draw(st.sampled_from((p1, p2)))
            size = len((sq.leg1 if side is p1 else sq.leg2).dom)
            side[e] = data.draw(st.integers(0, size - 1))
            changed = TestCheckPullbackAgainstCounting._relabelled(sq, p1, p2)
            assert changed.commutes() == _commutes_pointwise(changed)

    def test_empty_and_one_point_domains(self):
        sets = [mk_finset([]), mk_finset(["p"]), mk_finset(["q0", "q1"])]
        for a, b, c in product(sets[:2], sets, sets):
            if a and not b or b and not c:
                continue  # no map from a nonempty set to an empty one
            for ftab in product(range(len(b)), repeat=len(a)):
                f = FinFn(a, b, idx=ftab)
                for gtab in product(range(len(c)), repeat=len(b)):
                    self._assert_maps(f, FinFn(b, c, idx=gtab))
                for htab in product(range(len(b)), repeat=len(a)):
                    sq = pullback(f, FinFn(a, b, idx=htab))
                    assert sq.commutes() and _commutes_pointwise(sq)


class TestCheckPullbackIndependence:
    """check_pullback computes its reference from the legs alone, so it
    still rejects the squares of a pullback that drops an apex element."""

    @pytest.fixture
    def dropping_pullback(self, monkeypatch):
        real = polyfin.finset.pullback

        def mutant(f, g):
            sq = real(f, g)
            if sq.apex is f.dom or sq.apex is g.dom or len(sq.apex) < 2:
                return sq
            keep = sq.apex.elements[:-1]
            apex = FinSetObj(keep)
            return PullbackSquare(
                apex, FinFn(apex, f.dom, [(e, sq.proj1(e)) for e in keep]),
                FinFn(apex, g.dom, [(e, sq.proj2(e)) for e in keep]), f, g)

        monkeypatch.setattr(polyfin.finset, "pullback", mutant)
        monkeypatch.setattr(polyfin.poly, "pullback", mutant)
        return mutant

    def test_decides_with_pullback_unavailable(self, monkeypatch):
        def broken(f, g):
            raise AssertionError("check_pullback called pullback")

        monkeypatch.setattr(polyfin.finset, "pullback", broken)
        a, b, c = mk_finset(["a1", "a2"]), mk_finset(["b"]), mk_finset(["c"])
        f, g = constant_fn(a, c, Atom("c")), constant_fn(b, c, Atom("c"))
        apex = mk_finset(["u", "v"])
        sq = PullbackSquare(apex, FinFn(apex, a, idx=[0, 1]),
                            constant_fn(apex, b, Atom("b")), f, g)
        assert check_pullback(sq)
        swapped = PullbackSquare(apex, sq.proj2, sq.proj1, g, f)
        assert check_pullback(swapped)
        twice = PullbackSquare(apex, constant_fn(apex, a, Atom("a1")),
                               sq.proj2, f, g)
        assert not check_pullback(twice)

    def test_rejects_mutant_square(self, dropping_pullback):
        pt = mk_finset(["*"])
        sq = dropping_pullback(constant_fn(mk_finset(["a", "b"]), pt, Atom("*")),
                               constant_fn(mk_finset(["c", "d"]), pt, Atom("*")))
        assert len(sq.apex) == 3
        assert sq.commutes()
        assert not check_pullback(sq)

    @staticmethod
    def _links():
        from polyfin.symbolic import encode, parse_poly
        return [encode(parse_poly("x^2+x", ["x"], ["y"])),
                encode(parse_poly("y^2+1", ["y"], ["x"]))]

    @staticmethod
    def _fails_validation(build):
        with pytest.raises(NotComposable,
                           match="square is not a pullback") as excinfo:
            build()
        assert excinfo.traceback[-1].name == "validate"

    def test_two_link_composite_fails_validation(self, dropping_pullback):
        from polyfin.poly import compose_seq
        self._fails_validation(lambda: compose_seq(self._links()))

    def test_right_extension_fails_validation(self, dropping_pullback):
        from polyfin.poly import terminal_tower
        p, q = self._links()
        terminal_tower([p])
        self._fails_validation(lambda: terminal_tower([p, q]))

    def test_flattened_two_leaf_tree_fails_validation(self,
                                                       dropping_pullback):
        from polyfin.poly import Leaf, Node, flatten_bracketing
        p, q = self._links()
        self._fails_validation(
            lambda: flatten_bracketing(Node(Leaf(p), Leaf(q))))

    def test_shared_tower_fails_validation(self, dropping_pullback):
        from polyfin.poly import shared_towers, terminal_tower
        with shared_towers():
            for _ in range(2):
                self._fails_validation(lambda: terminal_tower(self._links()))


class TestMediate:
    def test_mediator_recovers_cone(self, rng):
        from polyfin import gen
        for _ in range(15):
            c = gen.rand_set(rng, 3, "c")
            f = gen.rand_fn(rng, gen.rand_set(rng, 3, "a"), c)
            g = gen.rand_fn(rng, gen.rand_set(rng, 3, "b"), c)
            sq = pullback(f, g)
            t = gen.rand_set(rng, 3, "t", min_size=0)
            if len(sq.apex) == 0 and len(t) > 0:
                continue
            pick = gen.rand_fn(rng, t, sq.apex) if len(sq.apex) else \
                FinFn(t, sq.apex, [])
            t1 = compose_fn(sq.proj1, pick)
            t2 = compose_fn(sq.proj2, pick)
            u = mediate(sq, t1, t2)
            assert u == pick

    def test_non_cone_rejected(self):
        a, b, c = mk_finset(["a"]), mk_finset(["b"]), mk_finset(["c1", "c2"])
        f = FinFn(a, c, [(Atom("a"), Atom("c1"))])
        g = FinFn(b, c, [(Atom("b"), Atom("c2"))])
        sq = pullback(f, g)
        t = mk_finset(["t"])
        with pytest.raises(NotASquare):
            mediate(sq, constant_fn(t, a, Atom("a")),
                    constant_fn(t, b, Atom("b")))

    def test_apex_repeating_a_pair_rejected(self):
        a, b, c = mk_finset(["a"]), mk_finset(["b"]), mk_finset(["c"])
        f = constant_fn(a, c, Atom("c"))
        g = constant_fn(b, c, Atom("c"))
        apex = mk_finset(["p", "q"])
        sq = PullbackSquare(apex, constant_fn(apex, a, Atom("a")),
                            constant_fn(apex, b, Atom("b")), f, g)
        assert not check_pullback(sq)
        t = mk_finset(["t"])
        with pytest.raises(NotASquare, match="lacks the pullback property"):
            mediate(sq, constant_fn(t, a, Atom("a")),
                    constant_fn(t, b, Atom("b")))


class TestPullbackPasting:
    """Two squares side by side: the front is a pullback iff the paste is."""

    def _setup(self, rng):
        from polyfin import gen
        c = gen.rand_set(rng, 3, "c")
        a = gen.rand_set(rng, 3, "a")
        b = gen.rand_set(rng, 3, "b")
        f = gen.rand_fn(rng, a, c)
        g = gen.rand_fn(rng, b, c)
        back = pullback(f, g)
        t_dom = gen.rand_set(rng, 3, "t")
        t = gen.rand_fn(rng, t_dom, a)
        return f, g, back, t

    def test_genuine_front_gives_genuine_paste(self, rng):
        for _ in range(10):
            f, g, back, t = self._setup(rng)
            front = pullback(t, back.proj1)
            assert check_pullback(front)
            paste = PullbackSquare(front.apex, front.proj1,
                                   compose_fn(back.proj2, front.proj2),
                                   compose_fn(f, t), g)
            assert check_pullback(paste)

    def test_fake_front_gives_fake_paste(self, rng):
        hits = 0
        for _ in range(20):
            f, g, back, t = self._setup(rng)
            front = pullback(t, back.proj1)
            if len(front.apex) == 0:
                continue
            hits += 1
            doubled = FinSetObj([Pair(e, Atom(str(i)))
                                 for e in front.apex for i in range(2)])
            fake = PullbackSquare(
                doubled,
                FinFn(doubled, front.proj1.cod,
                      [(e, front.proj1(e.left)) for e in doubled]),
                FinFn(doubled, front.proj2.cod,
                      [(e, front.proj2(e.left)) for e in doubled]),
                front.leg1, front.leg2)
            assert not check_pullback(fake)
            paste = PullbackSquare(doubled, fake.proj1,
                                   compose_fn(back.proj2, fake.proj2),
                                   compose_fn(f, t), g)
            assert not check_pullback(paste)
        assert hits >= 5


def test_json_roundtrip(rng):
    from polyfin import gen, jsonio
    for _ in range(10):
        c = gen.rand_set(rng, 3, "c")
        f = gen.rand_fn(rng, gen.rand_set(rng, 3, "a"), c)
        assert jsonio.fn_from_json(jsonio.fn_to_json(f)) == f
    sq = pullback(constant_fn(mk_finset(["a"]), mk_finset(["z"]), Atom("z")),
                  constant_fn(mk_finset(["b"]), mk_finset(["z"]), Atom("z")))
    pair = sq.apex.elements[0]
    table = Sect([(Atom("k1"), Atom("v1")), (Atom("k2"), Atom("v2")),
                  (Atom("k3"), Atom("v3"))])
    for e in (pair, table):
        f = identity_fn(FinSetObj([e]))
        back = jsonio.fn_from_json(jsonio.fn_to_json(f))
        assert back == f and back.dom.elements == (e,)
