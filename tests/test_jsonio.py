"""JSON encoder and reader: exact text, shared elements, per-call memos."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from polyfin import jsonio
from polyfin.finset import Pair
from polyfin.poly import compose_seq
from polyfin.symbolic import encode, parse_poly

SCALARS = (st.none() | st.booleans() | st.integers(-10**20, 10**20)
           | st.floats() | st.text(alphabet=st.characters(), max_size=6)
           | st.sampled_from(["", "\\", '"', "\n\t\x00", "é", "日本", "\U0001f600"]))
KEYS = st.text(max_size=4) | st.sampled_from(["é", "a\nb", '"', "\U0001f600"])


@st.composite
def shared_json(draw):
    """A JSON value whose containers may recur at several places and depths."""
    pool = [draw(SCALARS), [], {}]
    for _ in range(draw(st.integers(0, 8))):
        kids = draw(st.lists(st.sampled_from(pool) | SCALARS, max_size=4))
        if draw(st.booleans()):
            node = kids
        else:
            keys = draw(st.lists(KEYS, min_size=len(kids), max_size=len(kids),
                                 unique=True))
            node = dict(zip(keys, kids))
        pool.append(node)
    return draw(st.sampled_from(pool))


@settings(max_examples=200, deadline=None)
@given(shared_json())
def test_iterencode_matches_json_dumps(value):
    assert ("".join(jsonio.iterencode(value))
            == json.dumps(value, indent=2, sort_keys=True))


def test_iterencode_renders_a_shared_container_at_every_depth():
    leaf = {"b": [1, 2.5, None], "a": "é"}
    shared = [leaf, [leaf]]
    value = {"x": shared, "y": [[shared, leaf]], "z": (leaf,)}
    assert ("".join(jsonio.iterencode(value))
            == json.dumps(value, indent=2, sort_keys=True))


def _composite():
    """x^3 + x then y^3 + 1: no two-entry section table, so it round-trips."""
    links = [encode(parse_poly("x^3 + x", in_vars=["x"], out_names=["y"])),
             encode(parse_poly("y^3 + 1", in_vars=["y"], out_names=["z"]))]
    return compose_seq(links)


def test_decoded_composite_equals_built_one_and_shares_elements():
    built = _composite()
    back = jsonio.poly_from_json(json.loads(
        "".join(jsonio.iterencode(jsonio.poly_to_json(built)))))
    assert back == built
    assert len(back.mid_src) == 48 and len(back.mid_tgt) == 9
    for a1, a2 in zip(back.p1.dom.elements, back.p2.dom.elements):
        assert a1 is a2
    for b1, b2 in zip(back.p2.cod.elements, back.p3.dom.elements):
        assert b1 is b2


def test_writer_shares_each_element_within_one_call():
    data = jsonio.poly_to_json(_composite())
    for a, (arg, _), (arg2, _) in zip(data["A"], data["p1"]["map"],
                                      data["p2"]["map"]):
        assert a is arg is arg2
    assert data["A"] is data["p1"]["dom"] is data["p2"]["dom"]


def test_reader_shares_repeated_subtrees_within_one_call_only():
    raw = [["a", ["b", "c"]], ["a", ["b", "c"]]]
    e = jsonio.element_from_json(raw)
    assert isinstance(e, Pair) and e.left is e.right
    inner = jsonio.element_from_json([[["b", "c"], "x"], [["b", "c"], "y"]])
    assert inner.left.left is inner.right.left
    again = jsonio.element_from_json(raw)
    assert again == e and again is not e
