"""JSON payloads: a node table per payload, and values that read back equal."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from polyfin import gen, jsonio
from polyfin.cli import main
from polyfin.extension import eval_obj
from polyfin.finset import Atom, Pair, Sect
from polyfin.poly import compose_seq
from polyfin.symbolic import encode, fiber_slice, parse_poly

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
    data = _through_text(jsonio.element_to_json(e))
    assert data["version"] == 2
    assert jsonio.element_from_json(data) == e


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
                                   ["pair", 1, 1]], "element": 2}
    e = jsonio.element_from_json(raw)
    assert isinstance(e, Pair) and e.left is e.right
    again = jsonio.element_from_json(raw)
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
