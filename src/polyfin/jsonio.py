"""JSON encodings for every value the CLI reads or writes.

Elements: atoms as strings, pairs as 2-element arrays, section tables as
arrays of 2-element arrays.  A 2-element array always decodes as a pair,
so a two-entry section table does not survive a round trip: composites
and evaluation traces contain such tables (the composite of x^2+x then
y^2+1 has four among its five B elements) and read back unequal; a
tagged encoding is planned (ROADMAP item 5).  A decoded file is still
internally consistent.  Sets are sorted arrays; functions carry dom, cod
and map.  A polynomial's src, A, B and tgt must equal the sets its legs
p1, p2 and p3 run between.

Each top-level call does its work once per distinct element, however often
the element recurs.  A ``*_to_json`` call converts each element and each
set once and returns the same JSON value wherever it recurs, and
``iterencode`` renders a value reached more than once a single time.
``poly_from_json`` keeps one memo for the call, keyed by an element's
compact JSON text, so each distinct element is decoded once and the legs
share their Element instances.  No memo outlives its call.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import Any, Iterator

from .errors import ParseError
from .extension import EvalTrace
from .finset import Atom, Element, FinFn, FinSetObj, Pair, Sect
from .poly import CartesianMorphism, Polynomial, SubdividedComposite, mk_poly
from .slices import DistPB


class _ToJson:
    """One conversion; memo maps each element and set to its JSON value."""

    __slots__ = ("memo",)

    def __init__(self) -> None:
        self.memo: dict[Element | FinSetObj, Any] = {}

    def element(self, e: Element) -> Any:
        if isinstance(e, Atom):
            return e.token
        out = self.memo.get(e)
        if out is None:
            if isinstance(e, Pair):
                out = [self.element(e.left), self.element(e.right)]
            elif isinstance(e, Sect):
                out = [[self.element(k), self.element(v)]
                       for k, v in e.entries]
            else:
                raise TypeError(f"not an element: {e!r}")
            self.memo[e] = out
        return out

    def finset(self, s: FinSetObj) -> list:
        out = self.memo.get(s)
        if out is None:
            out = self.memo[s] = [self.element(e) for e in s]
        return out

    def fn(self, f: FinFn) -> dict:
        dom, cod = self.finset(f.dom), self.finset(f.cod)
        return {"dom": dom, "cod": cod,
                "map": [[a, cod[j]] for a, j in zip(dom, f.idx)]}

    def poly(self, p: Polynomial) -> dict:
        return {"src": self.finset(p.src), "A": self.finset(p.mid_src),
                "B": self.finset(p.mid_tgt), "tgt": self.finset(p.tgt),
                "p1": self.fn(p.p1), "p2": self.fn(p.p2), "p3": self.fn(p.p3)}


def element_to_json(e: Element) -> Any:
    return _ToJson().element(e)


def fn_to_json(f: FinFn) -> dict:
    return _ToJson().fn(f)


def poly_to_json(p: Polynomial) -> dict:
    return _ToJson().poly(p)


def cartesian_to_json(m: CartesianMorphism) -> dict:
    w = _ToJson()
    return {"p": w.poly(m.src_poly), "q": w.poly(m.tgt_poly),
            "f0": w.fn(m.f0), "f1": w.fn(m.f1)}


def dpb_to_json(d: DistPB) -> dict:
    w = _ToJson()
    return {"f": w.fn(d.around_f), "g": w.fn(d.around_g),
            "X": w.finset(d.X), "Y": w.finset(d.Y),
            "p": w.fn(d.p), "q": w.fn(d.q), "r": w.fn(d.r)}


def sdc_to_json(s: SubdividedComposite) -> dict:
    w = _ToJson()
    return {"over": [w.poly(p) for p in s.over],
            "Ys": [w.finset(y) for y in s.ys],
            "q1": w.fn(s.q1), "q2s": [w.fn(f) for f in s.q2s],
            "q3": w.fn(s.q3), "rs": [w.fn(f) for f in s.rs],
            "ss": [w.fn(f) for f in s.ss]}


def eval_trace_to_json(t: EvalTrace) -> dict:
    w = _ToJson()
    return {"input": w.fn(t.input.arrow),
            "C2": w.finset(t.C2), "C3": w.finset(t.C3),
            "C4": w.finset(t.C4), "counit": w.fn(t.counit),
            "delta_arrow": w.fn(t.delta_arrow),
            "dpb_p": w.fn(t.dpb_p), "dpb_q": w.fn(t.dpb_q),
            "dpb_r": w.fn(t.dpb_r),
            "output": w.fn(t.output.arrow)}


def iterencode(value: Any) -> Iterator[str]:
    """Chunks that join to json.dumps(value, indent=2, sort_keys=True).

    value must be acyclic, with string keys.  A list or dict reached more
    than once is rendered once, at depth 0, and re-indented at each use;
    only those texts are kept.  Every other container is streamed.
    """
    if not isinstance(value, (list, tuple, dict)):
        return iter((_scalar(value),))
    uses: dict[int, int] = {}
    todo = [value]
    while todo:
        v = todo.pop()
        n = uses.get(id(v), 0)
        uses[id(v)] = n + 1
        if not n:
            todo.extend(c for c in (v.values() if isinstance(v, dict) else v)
                        if isinstance(c, (list, tuple, dict)))
    return _chunks(value, 0, uses, {})


def _scalar(v: Any) -> str:
    return encode_basestring_ascii(v) if isinstance(v, str) else json.dumps(v)


def _chunks(v: Any, depth: int, uses: dict[int, int],
            texts: dict[int, str]) -> Iterator[str]:
    """The text of container v at depth, one use of v counted in uses."""
    if uses[id(v)] > 1:
        text = texts.get(id(v))
        if text is None:
            text = texts[id(v)] = "".join(_body(v, 0, uses, texts))
        yield text.replace("\n", "\n" + "  " * depth) if depth else text
    else:
        yield from _body(v, depth, uses, texts)


def _body(v: Any, depth: int, uses: dict[int, int],
          texts: dict[int, str]) -> Iterator[str]:
    if not v:
        yield "{}" if isinstance(v, dict) else "[]"
        return
    inner = "\n" + "  " * (depth + 1)
    sep = inner
    if isinstance(v, dict):
        yield "{"
        for key, item in sorted(v.items()):
            yield sep + encode_basestring_ascii(key) + ": "
            if isinstance(item, (list, tuple, dict)):
                yield from _chunks(item, depth + 1, uses, texts)
            else:
                yield _scalar(item)
            sep = "," + inner
        yield "\n" + "  " * depth + "}"
        return
    yield "["
    for item in v:
        if isinstance(item, (list, tuple, dict)):
            yield sep
            yield from _chunks(item, depth + 1, uses, texts)
        else:
            yield sep + _scalar(item)
        sep = "," + inner
    yield "\n" + "  " * depth + "]"


_compact = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode


class _FromJson:
    """One decoding; memo maps an element's compact JSON text to its Element.

    atoms maps a token to its Atom, and sets pairs each set array decoded
    so far with its FinSetObj, so an equal array is decoded only once.
    """

    __slots__ = ("memo", "atoms", "sets")

    def __init__(self) -> None:
        self.memo: dict[str, Element] = {}
        self.atoms: dict[str, Atom] = {}
        self.sets: list[tuple[list, FinSetObj]] = []

    def element(self, data: Any) -> Element:
        if isinstance(data, str):
            e = self.atoms.get(data)
            if e is None:
                e = self.atoms[data] = Atom(data)
            return e
        if not isinstance(data, list):
            raise ParseError(f"cannot decode element from {data!r}", 0)
        key = _compact(data)
        e = self.memo.get(key)
        if e is None:
            e = self.memo[key] = self._compound(data)
        return e

    def _compound(self, data: list) -> Element:
        if len(data) == 2:
            return Pair(self.element(data[0]), self.element(data[1]))
        entries = []
        for item in data:
            if not (isinstance(item, list) and len(item) == 2):
                raise ParseError("section entries must be 2-element arrays", 0)
            entries.append((self.element(item[0]), self.element(item[1])))
        return Sect(entries)

    def finset(self, data: Any) -> FinSetObj:
        if not isinstance(data, list):
            raise ParseError("a set must be an array", 0)
        for raw, s in self.sets:
            if raw == data:
                return s
        s = FinSetObj(self.element(e) for e in data)
        self.sets.append((data, s))
        return s

    def fn(self, data: Any) -> FinFn:
        if not isinstance(data, dict) or not {"dom", "cod", "map"} <= set(data):
            raise ParseError("a function needs dom, cod and map", 0)
        dom = self.finset(data["dom"])
        cod = self.finset(data["cod"])
        pairs = data["map"]
        if not isinstance(pairs, list):
            raise ParseError("a function's map must be an array", 0)
        for pair in pairs:
            if not (isinstance(pair, list) and len(pair) == 2):
                raise ParseError("map entries must be 2-element arrays", 0)
        return FinFn(dom, cod, [(self.element(a), self.element(v))
                                for a, v in pairs])


def element_from_json(data: Any) -> Element:
    return _FromJson().element(data)


def fn_from_json(data: Any) -> FinFn:
    return _FromJson().fn(data)


def poly_from_json(data: Any) -> Polynomial:
    if not isinstance(data, dict):
        raise ParseError("a polynomial must be an object", 0)
    missing = {"src", "A", "B", "tgt", "p1", "p2", "p3"} - set(data)
    if missing:
        raise ParseError(f"polynomial is missing {sorted(missing)}", 0)
    r = _FromJson()
    p = mk_poly(r.fn(data["p1"]), r.fn(data["p2"]), r.fn(data["p3"]))
    for name, leg, legs in (("src", "p1.cod", p.src), ("A", "p1.dom", p.mid_src),
                            ("B", "p2.cod", p.mid_tgt), ("tgt", "p3.cod", p.tgt)):
        if r.finset(data[name]) != legs:
            raise ParseError(f"{name} does not match {leg}", 0)
    return p
