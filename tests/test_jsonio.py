"""JSON payloads: a node table per payload, and values that read back equal."""

import gc
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from polyfin import gen, jsonio
from polyfin.cli import _emit, main
from polyfin.errors import ParseError
from polyfin.extension import eval_obj
from polyfin.finset import (
    ApexRecipe,
    Atom,
    FinFn,
    FinSetObj,
    Pair,
    PullbackSquare,
    Sect,
    identity_fn,
    lazy_finset,
    pending_build,
)
from polyfin.poly import Polynomial, compose_seq
from polyfin.symbolic import (
    decode,
    encode,
    fiber_slice,
    parse_poly,
    substitute,
)

from support import made_pairs, recorded_builds

# Atoms, pairs and section tables (two-entry ones included), nested.
elements = st.recursive(
    st.sampled_from("abxy").map(Atom),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda ab: Pair(*ab)),
        st.dictionaries(inner, inner, min_size=1, max_size=3).map(
            lambda d: Sect(d.items()))),
    max_leaves=8)


def _through_text(data):
    return json.loads(json.dumps(data, indent=2, sort_keys=True))


@settings(max_examples=200, deadline=None)
@given(elements)
def test_element_reads_back_equal(e):
    f = identity_fn(FinSetObj([e]))
    data = _through_text(jsonio.fn_to_json(f))
    assert data["version"] == 2
    back = jsonio.fn_from_json(data)
    assert back == f and back.dom.elements == (e,)


def _post_order(e, ids, nodes):
    """Reference node table: children first, left to right, recursively."""
    if e not in ids:
        if isinstance(e, Atom):
            node = ["atom", e.token]
        elif isinstance(e, Pair):
            node = ["pair", _post_order(e.left, ids, nodes),
                    _post_order(e.right, ids, nodes)]
        else:
            node = ["sect", [[_post_order(k, ids, nodes),
                              _post_order(v, ids, nodes)]
                             for k, v in e.entries]]
        ids[e] = len(nodes)
        nodes.append(node)
    return ids[e]


@settings(max_examples=200, deadline=None)
@given(st.lists(elements, min_size=1, max_size=3))
def test_writer_emits_nodes_in_post_order(es):
    ids, nodes = {}, []
    expected = [_post_order(e, ids, nodes) for e in es]
    w = jsonio._Writer()
    assert [w.element(e) for e in es] == expected
    assert w.nodes == nodes


def _composite():
    """x^3 + x then y^3 + 1."""
    links = [encode(parse_poly("x^3 + x", in_vars=["x"], out_names=["y"])),
             encode(parse_poly("y^3 + 1", in_vars=["y"], out_names=["z"]))]
    return compose_seq(links)


def test_decoded_composite_equals_built_one_and_shares_elements():
    built = _composite()
    back = jsonio.poly_from_json(_through_text(jsonio.poly_to_json(built)))
    assert back == built
    assert len(back.mid_src) == 48 and len(back.mid_tgt) == 9
    for a1, a2 in zip(back.p1.dom.elements, back.p2.dom.elements):
        assert a1 is a2
    for b1, b2 in zip(back.p2.cod.elements, back.p3.dom.elements):
        assert b1 is b2


def test_writer_writes_each_element_once():
    built = _composite()
    data = jsonio.poly_to_json(built)
    nodes = [json.dumps(n) for n in data["nodes"]]
    assert len(nodes) == len(set(nodes))
    assert data["A"] == data["p1"]["dom"] == data["p2"]["dom"]
    assert data["B"] == data["p2"]["cod"] == data["p3"]["dom"]
    assert data["p2"]["map"] == list(built.p2.idx)


def test_reader_shares_a_node_within_one_call_only():
    raw = {"version": 2, "nodes": [["atom", "b"], ["pair", 0, 0],
                                   ["pair", 1, 1]],
           "dom": [2], "cod": [2], "map": [0]}
    f = jsonio.fn_from_json(raw)
    e = f.dom.elements[0]
    assert isinstance(e, Pair) and e.left is e.right
    assert f.cod.elements[0] is e
    again = jsonio.fn_from_json(raw).dom.elements[0]
    assert again == e and again is not e


def test_readme_composite_and_eval_trace_read_back_equal(capsys, tmp_path):
    paths = []
    for text, var, out in (("x^2 + x", "x", "y"), ("y^2 + 1", "y", "z")):
        paths.append(str(tmp_path / f"{var}.json"))
        assert main(["encode", text, "--in", var, "--out", out,
                     "-o", paths[-1]]) == 0
    comp = tmp_path / "comp.json"
    assert main(["compose", *paths, "-o", str(comp)]) == 0
    links = [jsonio.poly_from_json(json.loads(open(p).read())) for p in paths]
    built = compose_seq(links)
    tables = [b for b in built.mid_tgt
              if isinstance(b.right, Sect) and len(b.right.entries) == 2]
    assert len(tables) == 4
    assert jsonio.poly_from_json(json.loads(comp.read_text())) == built

    expr, assign = "x^3y + 2 ; 3x^2z + y", "w=2,x=2,y=2,z=2"
    p_file = tmp_path / "p.json"
    assert main(["encode", expr, "--in", "w,x,y,z", "-o", str(p_file)]) == 0
    capsys.readouterr()
    assert main(["eval", str(p_file), "--assign", assign, "--trace"]) == 0
    trace = json.loads(capsys.readouterr().out)["trace"]
    p = encode(parse_poly(expr, in_vars=["w", "x", "y", "z"]))
    _, t = eval_obj(p, fiber_slice(p, dict.fromkeys("wxyz", 2)))
    arrows = {"input": t.delta.leg1, "counit": t.delta.proj1,
              "delta_arrow": t.delta.proj2, "dpb_p": t.dpb.p,
              "dpb_q": t.dpb.q, "dpb_r": t.dpb.r, "output": t.output.arrow}
    for name, arrow in arrows.items():
        fn = {"version": 2, "nodes": trace["nodes"], **trace[name]}
        assert jsonio.fn_from_json(fn) == arrow, name
    assert trace["C2"] == trace["counit"]["dom"]
    assert trace["C3"] == trace["dpb_p"]["dom"]
    assert trace["C4"] == trace["dpb_r"]["dom"]


def _fn_back(data, fn):
    """A function of a payload, read through fn_from_json."""
    return jsonio.fn_from_json({"version": 2, "nodes": data["nodes"], **fn})


def _legs_back(data, poly):
    return tuple(_fn_back(data, poly[leg]) for leg in ("p1", "p2", "p3"))


def test_cartesian_morphism_reads_back_equal(rng):
    for _ in range(20):
        m = gen.rand_cartesian_into(rng, gen.rand_poly(rng, 3), 3)
        data = _through_text(jsonio.cartesian_to_json(m))
        assert _legs_back(data, data["p"]) == (m.src_poly.p1, m.src_poly.p2,
                                               m.src_poly.p3)
        assert _legs_back(data, data["q"]) == (m.tgt_poly.p1, m.tgt_poly.p2,
                                               m.tgt_poly.p3)
        assert _fn_back(data, data["f0"]) == m.f0
        assert _fn_back(data, data["f1"]) == m.f1


def test_subdivided_composite_reads_back_equal(rng):
    nonempty = 0
    for k in (1, 2, 3, 1, 2, 3):
        sdc = gen.rand_sdc(rng, gen.rand_composable(rng, k, 2), 2)
        nonempty += any(len(y) for y in sdc.ys)
        data = _through_text(jsonio.sdc_to_json(sdc))
        assert [_legs_back(data, p) for p in data["over"]] == [
            (p.p1, p.p2, p.p3) for p in sdc.over]
        # Each object, read back as the domain of its identity map.
        assert [_fn_back(data, {"dom": y, "cod": y,
                                "map": list(range(len(y)))}).dom
                for y in data["Ys"]] == list(sdc.ys)
        for name in ("q1", "q3"):
            assert _fn_back(data, data[name]) == getattr(sdc, name)
        for name in ("q2s", "rs", "ss"):
            assert tuple(_fn_back(data, f) for f in data[name]) == getattr(
                sdc, name)
    assert nonempty >= 2


# The recipe writer against the element writer.  A set read from its
# recipe gets the node ids that the element walk gives its built copy.

def _build_all(*sets):
    """Build each set; a lazy set's build reads, and so builds, every lazy
    set its recipe names."""
    for s in sets:
        s.elements


def _reference_payload(p):
    """poly_to_json(p) by the recursive reference walk over built sets."""
    ids, nodes = {}, []

    def finset(s):
        return [_post_order(e, ids, nodes) for e in s]

    def fn(f):
        return {"dom": finset(f.dom), "cod": finset(f.cod),
                "map": list(f.idx)}

    fields = {"src": finset(p.src), "A": finset(p.mid_src),
              "B": finset(p.mid_tgt), "tgt": finset(p.tgt),
              "p1": fn(p.p1), "p2": fn(p.p2), "p3": fn(p.p3)}
    return {"version": 2, "nodes": nodes, **fields}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.integers(1, 3))
def test_recipe_writer_equals_element_writer_on_composites(seed, links, size):
    composite = compose_seq(gen.rand_composable(gen.Draws(seed), links, size))
    with recorded_builds() as built:
        read = jsonio.poly_to_json(composite)
    assert built == []
    _build_all(composite.mid_src, composite.mid_tgt)
    assert jsonio.poly_to_json(composite) == read
    assert _reference_payload(composite) == read


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3))
def test_recipe_writer_equals_element_writer_on_eval_traces(seed, size):
    rng = gen.Draws(seed)
    p = gen.rand_poly(rng, size)
    _, trace = eval_obj(p, gen.rand_slice(rng, p.src, size))
    # Made before the write: deciding whether pi's arrow is an identity
    # compares its carrier with its base when its table is the identity's.
    trace.dpb
    with recorded_builds() as built:
        read = jsonio.eval_trace_to_json(trace)
    assert built == []
    _build_all(trace.delta.apex, trace.dpb.X, trace.dpb.Y)
    assert jsonio.eval_trace_to_json(trace) == read


def test_four_link_chain_is_written_without_building_a_set():
    links = [encode(parse_poly(t, in_vars=[v], out_names=[w]))
             for t, v, w in (("x^2 + x", "x", "y"), ("y^2 + 1", "y", "x"))]
    composite = compose_seq(links * 2)
    with recorded_builds() as built:
        read = jsonio.poly_to_json(composite)
    assert built == []
    assert len(read["nodes"]) > len(composite.mid_src) > 7000
    _build_all(composite.mid_src, composite.mid_tgt)
    assert jsonio.poly_to_json(composite) == read


def test_four_link_file_is_read_decoded_and_rewritten_building_no_pair(
        tmp_path):
    paths = []
    for text, var, out in (("x^2 + x", "x", "y"), ("y^2 + 1", "y", "x")):
        paths.append(str(tmp_path / f"{var}.json"))
        assert main(["encode", text, "--in", var, "--out", out,
                     "-o", paths[-1]]) == 0
    chain = tmp_path / "chain.json"
    assert main(["compose", *paths * 2, "-o", str(chain)]) == 0
    raw = chain.read_text(encoding="utf-8")
    data = json.loads(raw)
    with made_pairs() as made:
        decoded = decode(jsonio.poly_from_json(data))
        assert made == []
        rewritten = jsonio.to_text(
            jsonio.poly_to_json(jsonio.poly_from_json(data)))
    assert made == []
    assert rewritten + "\n" == raw
    links = [parse_poly(t, [v], [w]) for t, v, w in (
        ("x^2 + x", "x", "y"), ("y^2 + 1", "y", "x"))] * 2
    want = links[0]
    for link in links[1:]:
        want = substitute(link, want)
    assert decoded == want


def test_read_decode_and_write_leave_no_reference_cycle():
    data = _through_text(jsonio.poly_to_json(_composite()))
    gc.collect()
    gc.disable()
    try:
        p = jsonio.poly_from_json(data)
        decode(p)
        jsonio.poly_to_json(p)
        del p
        freed = gc.collect()
    finally:
        gc.enable()
    assert freed == 0


def _reversed_apex_pullback(real, by_recipe):
    """A replacement pullback whose apex lists the chosen one's points in
    reverse; its projections follow, so the square is still a pullback."""

    def pullback(f, g):
        sq = real(f, g)
        recipe = pending_build(sq.apex)
        if type(recipe) is not ApexRecipe or len(sq.apex) < 2:
            return sq
        left, right = recipe.left[::-1], recipe.right[::-1]
        if by_recipe:
            build = ApexRecipe(f.dom, left, g.dom, right)
        else:
            def build():
                return [Pair(f.dom.elements[i], g.dom.elements[k])
                        for i, k in zip(left, right)]
        apex = lazy_finset(len(left), build)
        return PullbackSquare(apex, FinFn(apex, f.dom, idx=left),
                              FinFn(apex, g.dom, idx=right), f, g)

    return pullback


@pytest.mark.parametrize("by_recipe", [True, False],
                         ids=["recipe", "closure"])
def test_writer_refuses_an_apex_out_of_canonical_order(monkeypatch,
                                                       by_recipe):
    import polyfin.poly
    monkeypatch.setattr(polyfin.poly, "pullback", _reversed_apex_pullback(
        polyfin.poly.pullback, by_recipe))
    composite = _composite()
    with pytest.raises(AssertionError, match="canonical order"):
        jsonio.poly_to_json(composite)


# The emitter: the exact bytes of json.dumps(v, indent=2, sort_keys=True).

_leaves = (st.none() | st.booleans() | st.text()
           | st.integers(-2 ** 70, 2 ** 70)
           | st.floats(allow_nan=True, allow_infinity=True))
_node_rows = (st.tuples(st.just("pair"), st.integers(0, 99),
                        st.integers(0, 99))
              | st.tuples(st.just("atom"), st.text())
              | st.tuples(st.just("sect"), st.lists(
                  st.tuples(st.integers(), st.integers()
                            | st.booleans()).map(list), max_size=3))
              | st.tuples(st.integers(), st.integers())).map(list)
json_values = st.recursive(
    _leaves | _node_rows,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.lists(_node_rows, max_size=3)
                   | st.dictionaries(st.text(), inner, max_size=4)
                   | st.dictionaries(st.integers(-3, 3), inner, max_size=3)),
    max_leaves=16)


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(json_values)
def test_emitted_bytes_equal_json_dumps(tmp_path, v):
    out = tmp_path / "out.json"
    _emit(v, str(out))
    assert out.read_bytes() == (
        json.dumps(v, indent=2, sort_keys=True) + "\n").encode()


@pytest.mark.parametrize("v", [
    {"b": [1, 2 ** 64, -3], "a": {"é\x00\n ": "\U0001f600\t"}},
    [[], {}, [[]], True, False, None, float("inf"), float("nan"), -0.0],
    {"reports": [{"wall_time_s": 0.125, "law": "units"}], "nodes": [
        ["atom", "x"], ["pair", 0, 0], ["sect", [[0, 1], [1, 1]]]]},
])
def test_emitted_text_equals_json_dumps_on_stdout_too(capsys, v):
    _emit(v, None)
    assert capsys.readouterr().out == json.dumps(v, indent=2,
                                                 sort_keys=True) + "\n"


# The reader: one set per distinct id list, canonical or not.

def test_reader_builds_one_set_per_distinct_id_list(monkeypatch):
    data = _through_text(jsonio.poly_to_json(_composite()))
    made = []

    def counting(make):
        def count(*args):
            made.append(make(*args))
            return made[-1]
        return count

    monkeypatch.setattr(jsonio, "lazy_finset", counting(jsonio.lazy_finset))
    monkeypatch.setattr(jsonio, "FinSetObj", counting(jsonio.FinSetObj))
    with recorded_builds() as built:
        p = jsonio.poly_from_json(data)
    lists = [data[name] for name in ("src", "A", "B", "tgt")] + [
        data[leg][end] for leg in ("p1", "p2", "p3") for end in ("dom", "cod")]
    assert len(made) == len({tuple(ids) for ids in lists}) == 4
    assert built == []
    assert p.p1.dom is p.p2.dom is p.mid_src
    assert p.p2.cod is p.p3.dom is p.mid_tgt


def test_section_rows_out_of_canonical_order_read_back_equal():
    built = _composite()
    written = _through_text(jsonio.poly_to_json(built))
    data = _through_text(written)
    reordered = 0
    for node in data["nodes"]:
        if node[0] == "sect" and len(node[1]) > 1:
            node[1].reverse()
            reordered += 1
    assert reordered > 0
    back = jsonio.poly_from_json(data)
    # The writer walks the read sets by node id, on the rows in canonical
    # order, so the re-write is the original file.
    assert jsonio.poly_to_json(back) == written
    assert back == built


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.randoms(use_true_random=False))
def test_shuffled_dom_and_cod_read_back_equal(rnd):
    built = _composite()
    written = _through_text(jsonio.poly_to_json(built))
    data = _through_text(written)
    for name in ("src", "A", "B", "tgt"):
        rnd.shuffle(data[name])
    for leg in ("p1", "p2", "p3"):
        f = data[leg]
        dom_order = rnd.sample(range(len(f["dom"])), len(f["dom"]))
        cod_order = rnd.sample(range(len(f["cod"])), len(f["cod"]))
        new_pos = {old: new for new, old in enumerate(cod_order)}
        f["dom"] = [f["dom"][i] for i in dom_order]
        f["map"] = [new_pos[f["map"][i]] for i in dom_order]
        f["cod"] = [f["cod"][i] for i in cod_order]
    # A set listed in any order is read as the canonical one: nothing is
    # built, and the re-write is the canonical file.
    with made_pairs() as made:
        back = jsonio.poly_from_json(data)
        assert jsonio.poly_to_json(back) == written
    assert made == []
    assert back.p1.dom is back.p2.dom and back.p2.cod is back.p3.dom
    assert back == built


def test_empty_set_beside_one_out_of_canonical_order_reads_back_equal():
    f = jsonio.fn_from_json({"version": 2,
                             "nodes": [["atom", "x"], ["atom", "y"]],
                             "dom": [], "cod": [1, 0], "map": []})
    xy = FinSetObj([Atom("x"), Atom("y")])
    empty = FinSetObj(())
    assert f == FinFn(empty, xy, ())
    # A polynomial with an empty A and B, whose src and tgt are listed out
    # of canonical order.
    built = Polynomial(FinFn(empty, xy, ()), identity_fn(empty),
                       FinFn(empty, xy, ()))
    data = _through_text(jsonio.poly_to_json(built))
    for name, leg in (("src", "p1"), ("tgt", "p3")):
        data[name].reverse()
        data[leg]["cod"].reverse()
    assert data["src"] != sorted(data["src"])
    assert jsonio.poly_from_json(data) == built


def test_payload_with_two_equal_nodes_reads_back_equal():
    built = _composite()
    data = _through_text(jsonio.poly_to_json(built))
    nodes = data["nodes"]
    # A copy of every atom node, and of each pair node over atoms: the
    # function tables name the copies, the sets the originals.
    copies = {}
    for i, node in enumerate(list(nodes)):
        if node[0] == "atom" or (node[0] == "pair" and node[1] in copies
                                 and node[2] in copies):
            copy = node if node[0] == "atom" else [
                "pair", copies[node[1]], copies[node[2]]]
            copies[i] = len(nodes)
            nodes.append(copy)
    assert any(nodes[i][0] == "pair" for i in copies)
    for leg in ("p1", "p2", "p3"):
        for end in ("dom", "cod"):
            data[leg][end] = [copies.get(i, i) for i in data[leg][end]]
    assert jsonio.poly_from_json(data) == built


def _base_payload():
    return _through_text(jsonio.poly_to_json(
        encode(parse_poly("x^2 + x", in_vars=["x"], out_names=["y"]))))


def _edited(edit):
    def make():
        data = _base_payload()
        edit(data)
        return data
    return make


PARSE_ERRORS = [
    (lambda: [], "a payload must be an object"),
    (_edited(lambda d: d.pop("version")), "unknown version None: only "
     "version 2 is read; regenerate the file with encode or compose"),
    (_edited(lambda d: d.update(nodes=5)), "nodes must be an array"),
    (_edited(lambda d: d["nodes"].append(["leaf", 1])),
     "unknown node ['leaf', 1]"),
    (_edited(lambda d: d["nodes"].append(["sect", [[0]]])),
     "section entries must be id pairs"),
    (_edited(lambda d: d["nodes"].append(["sect", [[0, 1], [0, 2]]])),
     "section table repeats key Atom('x')"),
    (_edited(lambda d: d["nodes"].append(["pair", 0, 99])),
     "node id 99 is out of range (needs 0 <= id < 7)"),
    (_edited(lambda d: d.update(A=3)), "a set must be an array"),
    (_edited(lambda d: d["A"].append(99)),
     "node id 99 is out of range (needs 0 <= id < 7)"),
    (_edited(lambda d: d["A"].append("0")),
     "node id '0' is out of range (needs 0 <= id < 7)"),
    (_edited(lambda d: d["A"].append(True)),
     "node id True is out of range (needs 0 <= id < 7)"),
    (_edited(lambda d: d["A"].append([0])),
     "node id [0] is out of range (needs 0 <= id < 7)"),
    (_edited(lambda d: d["p2"]["dom"].append(-1)),
     "node id -1 is out of range (needs 0 <= id < 7)"),
    (_edited(lambda d: d["p1"].pop("cod")),
     "a function needs dom, cod and map"),
    (_edited(lambda d: d["p3"].update(map=None)),
     "a function's map must be an array"),
    (_edited(lambda d: d["p2"]["map"].pop()),
     "a function's map and dom differ in length"),
    (_edited(lambda d: d["p2"]["map"].__setitem__(0, 9)),
     "map entries must be positions in cod"),
    (_edited(lambda d: d["p2"]["map"].__setitem__(0, False)),
     "map entries must be positions in cod"),
    (_edited(lambda d: (d["p1"]["dom"].append(d["p1"]["dom"][0]),
                        d["p1"]["map"].append(0))),
     "duplicate element Atom('m0.u0')"),
    (_edited(lambda d: d["p2"]["cod"].append(d["p2"]["cod"][0])),
     "duplicate element Atom('m0')"),
    # Two distinct nodes of one element: a copied atom row.
    pytest.param(
        _edited(lambda d: (d["nodes"].append(d["nodes"][d["p1"]["dom"][0]]),
                           d["p1"]["dom"].append(len(d["nodes"]) - 1),
                           d["p1"]["map"].append(0))),
        "duplicate element Atom('m0.u0')", id="make-copied atom row"),
    # Listings b, a, b, a: the repeat named is the first in canonical order.
    pytest.param(
        _edited(lambda d: d.update(B=d["B"][::-1] * 2)),
        "duplicate element Atom('m0')", id="make-id array b, a, b, a"),
    pytest.param(
        _edited(lambda d: d["nodes"].append(
            ["sect", [[d["B"][1], 0], [d["B"][0], 0]] * 2])),
        "section table repeats key Atom('m0')",
        id="make-section row b, a, b, a"),
    (_edited(lambda d: d["p1"]["dom"].append(d["p1"]["dom"][0])),
     "a function's map and dom differ in length"),
    (_edited(lambda d: (d.pop("B"), d.pop("tgt"))),
     "polynomial is missing ['B', 'tgt']"),
    (_edited(lambda d: d["B"].pop()), "B does not match p2.cod"),
    (_edited(lambda d: d["p3"].update(dom=d["p2"]["dom"],
                                      map=[0] * len(d["p2"]["dom"]))),
     "p2 must land in the domain of p3"),
]


@pytest.mark.parametrize("make, message", PARSE_ERRORS)
def test_parse_error_texts(make, message):
    with pytest.raises(ParseError) as excinfo:
        jsonio.poly_from_json(make())
    assert str(excinfo.value) == f"{message} (at position 0)"
