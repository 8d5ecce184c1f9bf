"""JSON encodings for every value the CLI reads or writes.

Every payload is ``{"version": 2, "nodes": [...], <fields>}``.  ``nodes``
holds each distinct element once, children before parents: an atom is
``["atom", token]``, a pair ``["pair", l, r]`` and a section table
``["sect", [[k, v], ...]]``, where l, r, k and v are ids (positions in
``nodes``) of earlier nodes.  A set is an array of node ids; a function is
``{"dom": ids, "cod": ids, "map": positions}``, where ``map[i]`` is the
position in the function's own ``cod`` array of the value at ``dom[i]``.
A function together with its payload's version and nodes is itself a
function payload.  A polynomial's src, A, B and tgt must equal the sets
its legs p1, p2 and p3 run between.

Only version 2 is read.  A payload without ``"version"`` (the nested form
written before node tables) is refused like any other unknown version;
``encode`` or ``compose`` regenerates it.  Any file that breaks a rule of
the format raises ParseError.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

from .errors import (
    DuplicateElement,
    IllFormedFunction,
    IllFormedPolynomial,
    ParseError,
)
from .extension import EvalTrace
from .finset import Atom, Element, FinFn, FinSetObj, Pair, Sect
from .poly import CartesianMorphism, Polynomial, SubdividedComposite
from .slices import DistPB


class _Writer:
    """One payload's node table; ids maps each element to its node id."""

    __slots__ = ("ids", "nodes")

    def __init__(self) -> None:
        self.ids: dict[Element, int] = {}
        self.nodes: list[list] = []

    def element(self, e: Element) -> int:
        """Node id of e, adding e and its unseen parts children first.

        Iterative, so nesting depth is not bounded by the recursion limit;
        nodes come out in the post-order of a left-to-right recursive walk.
        """
        ids, nodes = self.ids, self.nodes
        i = ids.get(e)
        if i is not None:
            return i
        stack = [e]
        while stack:
            top = stack[-1]
            if isinstance(top, Pair):
                left = ids.get(top.left)
                if left is None:
                    stack.append(top.left)
                    continue
                right = ids.get(top.right)
                if right is None:
                    stack.append(top.right)
                    continue
                node = ["pair", left, right]
            elif isinstance(top, Atom):
                node = ["atom", top.token]
            else:
                unseen = [c for kv in top.entries for c in kv if c not in ids]
                if unseen:
                    stack.extend(reversed(unseen))
                    continue
                node = ["sect", [[ids[k], ids[v]] for k, v in top.entries]]
            stack.pop()
            if top not in ids:
                ids[top] = len(nodes)
                nodes.append(node)
        return ids[e]

    def finset(self, s: FinSetObj) -> list[int]:
        return list(map(self.element, s.elements))

    def fn(self, f: FinFn) -> dict:
        return {"dom": self.finset(f.dom), "cod": self.finset(f.cod),
                "map": list(f.idx)}

    def poly(self, p: Polynomial) -> dict:
        return {"src": self.finset(p.src), "A": self.finset(p.mid_src),
                "B": self.finset(p.mid_tgt), "tgt": self.finset(p.tgt),
                "p1": self.fn(p.p1), "p2": self.fn(p.p2), "p3": self.fn(p.p3)}

    def payload(self, **fields: Any) -> dict:
        return {"version": 2, "nodes": self.nodes, **fields}


def element_to_json(e: Element) -> dict:
    w = _Writer()
    return w.payload(element=w.element(e))


def fn_to_json(f: FinFn) -> dict:
    w = _Writer()
    return w.payload(**w.fn(f))


def poly_to_json(p: Polynomial) -> dict:
    w = _Writer()
    return w.payload(**w.poly(p))


def cartesian_to_json(m: CartesianMorphism) -> dict:
    w = _Writer()
    return w.payload(p=w.poly(m.src_poly), q=w.poly(m.tgt_poly),
                     f0=w.fn(m.f0), f1=w.fn(m.f1))


def dpb_to_json(d: DistPB) -> dict:
    w = _Writer()
    return w.payload(f=w.fn(d.around_f), g=w.fn(d.around_g),
                     X=w.finset(d.X), Y=w.finset(d.Y),
                     p=w.fn(d.p), q=w.fn(d.q), r=w.fn(d.r))


def sdc_to_json(s: SubdividedComposite) -> dict:
    w = _Writer()
    return w.payload(over=[w.poly(p) for p in s.over],
                     Ys=[w.finset(y) for y in s.ys],
                     q1=w.fn(s.q1), q2s=[w.fn(f) for f in s.q2s],
                     q3=w.fn(s.q3), rs=[w.fn(f) for f in s.rs],
                     ss=[w.fn(f) for f in s.ss])


def eval_trace_to_json(t: EvalTrace) -> dict:
    w = _Writer()
    return w.payload(input=w.fn(t.input.arrow),
                     C2=w.finset(t.C2), C3=w.finset(t.C3),
                     C4=w.finset(t.C4), counit=w.fn(t.counit),
                     delta_arrow=w.fn(t.delta_arrow),
                     dpb_p=w.fn(t.dpb_p), dpb_q=w.fn(t.dpb_q),
                     dpb_r=w.fn(t.dpb_r), output=w.fn(t.output.arrow))


def _fn_fields(data: Any) -> tuple[Any, Any, list]:
    if not isinstance(data, dict) or not {"dom", "cod", "map"} <= set(data):
        raise ParseError("a function needs dom, cod and map", 0)
    return data["dom"], data["cod"], _array(data["map"], "a function's map")


def _array(data: Any, what: str = "a set") -> list:
    if not isinstance(data, list):
        raise ParseError(f"{what} must be an array", 0)
    return data


def _node_id(i: Any, n: int) -> int:
    if type(i) is not int or not 0 <= i < n:
        raise ParseError(f"node id {i!r} is out of range (needs 0 <= id < {n})",
                         0)
    return i


class _Reader:
    """Reads a version-2 payload; elems[i] is the element of node i."""

    def __init__(self, nodes: Any) -> None:
        elems: list[Element] = []
        for node in _array(nodes, "nodes"):
            n = len(elems)
            tag = node[0] if isinstance(node, list) and node else None
            if tag == "atom" and len(node) == 2 and isinstance(node[1], str):
                elems.append(Atom(node[1]))
            elif tag == "pair" and len(node) == 3:
                elems.append(Pair(elems[_node_id(node[1], n)],
                                  elems[_node_id(node[2], n)]))
            elif tag == "sect" and len(node) == 2 and isinstance(node[1], list):
                if not all(isinstance(kv, list) and len(kv) == 2
                           for kv in node[1]):
                    raise ParseError("section entries must be id pairs", 0)
                elems.append(Sect((elems[_node_id(k, n)], elems[_node_id(v, n)])
                                  for k, v in node[1]))
            else:
                raise ParseError(f"unknown node {node!r}", 0)
        self.elems = elems

    def element(self, data: Any) -> Element:
        return self.elems[_node_id(data, len(self.elems))]

    def finset(self, data: Any) -> FinSetObj:
        return FinSetObj(map(self.element, _array(data)))

    def fn(self, data: Any) -> FinFn:
        dom, cod, positions = _fn_fields(data)
        args = list(map(self.element, _array(dom)))
        values = list(map(self.element, _array(cod)))
        if len(positions) != len(args):
            raise ParseError("a function's map and dom differ in length", 0)
        if not all(type(j) is int and 0 <= j < len(values) for j in positions):
            raise ParseError("map entries must be positions in cod", 0)
        return FinFn(FinSetObj(args), FinSetObj(values),
                     zip(args, map(values.__getitem__, positions)))


def _reader(data: Any) -> _Reader:
    if not isinstance(data, dict):
        raise ParseError("a payload must be an object", 0)
    version = data.get("version")
    if type(version) is not int or version != 2:
        raise ParseError(f"unknown version {version!r}: only version 2 is "
                         "read; regenerate the file with encode or compose", 0)
    return _Reader(data.get("nodes"))


@contextmanager
def _as_parse_errors() -> Iterator[None]:
    """A file that breaks a set, function or nesting rule is a parse error."""
    try:
        yield
    except (DuplicateElement, IllFormedFunction, IllFormedPolynomial) as exc:
        raise ParseError(str(exc), 0) from exc
    except RecursionError:
        raise ParseError("elements are nested too deeply", 0) from None


def element_from_json(data: Any) -> Element:
    with _as_parse_errors():
        return _reader(data).element(data.get("element"))


def fn_from_json(data: Any) -> FinFn:
    with _as_parse_errors():
        return _reader(data).fn(data)


def poly_from_json(data: Any) -> Polynomial:
    with _as_parse_errors():
        r = _reader(data)
        missing = {"src", "A", "B", "tgt", "p1", "p2", "p3"} - set(data)
        if missing:
            raise ParseError(f"polynomial is missing {sorted(missing)}", 0)
        p = Polynomial(r.fn(data["p1"]), r.fn(data["p2"]), r.fn(data["p3"]))
        for name, leg, legs in (("src", "p1.cod", p.src),
                                ("A", "p1.dom", p.mid_src),
                                ("B", "p2.cod", p.mid_tgt),
                                ("tgt", "p3.cod", p.tgt)):
            if r.finset(data[name]) != legs:
                raise ParseError(f"{name} does not match {leg}", 0)
        return p
