"""JSON encodings for every value the CLI reads or writes.

Elements: atoms as strings, pairs as 2-element arrays, section tables as
arrays of 2-element arrays.  A 2-element array always decodes as a pair,
so a two-entry section table does not survive a round trip: composites
and evaluation traces contain such tables (the composite of x^2+x then
y^2+1 has four among its five B elements) and read back unequal; a
tagged encoding is planned (ROADMAP item 5).  A decoded file is still
internally consistent.  Sets are sorted arrays; functions carry dom, cod
and map.
"""

from __future__ import annotations

from typing import Any

from .errors import ParseError
from .extension import EvalTrace
from .finset import Atom, Element, FinFn, FinSetObj, Pair, Sect
from .poly import CartesianMorphism, Polynomial, SubdividedComposite
from .slices import DistPB


def element_to_json(e: Element) -> Any:
    if isinstance(e, Atom):
        return e.token
    if isinstance(e, Pair):
        return [element_to_json(e.left), element_to_json(e.right)]
    if isinstance(e, Sect):
        return [[element_to_json(k), element_to_json(v)] for k, v in e.entries]
    raise TypeError(f"not an element: {e!r}")


def element_from_json(data: Any) -> Element:
    if isinstance(data, str):
        return Atom(data)
    if isinstance(data, list):
        if len(data) == 2:
            return Pair(element_from_json(data[0]), element_from_json(data[1]))
        entries = []
        for item in data:
            if not (isinstance(item, list) and len(item) == 2):
                raise ParseError("section entries must be 2-element arrays", 0)
            entries.append((element_from_json(item[0]),
                            element_from_json(item[1])))
        return Sect(entries)
    raise ParseError(f"cannot decode element from {data!r}", 0)


def finset_to_json(s: FinSetObj) -> list:
    return [element_to_json(e) for e in s]


def finset_from_json(data: Any) -> FinSetObj:
    if not isinstance(data, list):
        raise ParseError("a set must be an array", 0)
    return FinSetObj(element_from_json(e) for e in data)


def fn_to_json(f: FinFn) -> dict:
    return {"dom": finset_to_json(f.dom), "cod": finset_to_json(f.cod),
            "map": [[element_to_json(a), element_to_json(v)]
                    for a, v in f.graph]}


def fn_from_json(data: Any) -> FinFn:
    if not isinstance(data, dict) or not {"dom", "cod", "map"} <= set(data):
        raise ParseError("a function needs dom, cod and map", 0)
    dom = finset_from_json(data["dom"])
    cod = finset_from_json(data["cod"])
    pairs = [(element_from_json(a), element_from_json(v))
             for a, v in data["map"]]
    return FinFn(dom, cod, pairs)


def poly_to_json(p: Polynomial) -> dict:
    return {"src": finset_to_json(p.src), "A": finset_to_json(p.mid_src),
            "B": finset_to_json(p.mid_tgt), "tgt": finset_to_json(p.tgt),
            "p1": fn_to_json(p.p1), "p2": fn_to_json(p.p2),
            "p3": fn_to_json(p.p3)}


def poly_from_json(data: Any) -> Polynomial:
    if not isinstance(data, dict):
        raise ParseError("a polynomial must be an object", 0)
    missing = {"src", "A", "B", "tgt", "p1", "p2", "p3"} - set(data)
    if missing:
        raise ParseError(f"polynomial is missing {sorted(missing)}", 0)
    from .poly import mk_poly
    return mk_poly(fn_from_json(data["p1"]), fn_from_json(data["p2"]),
                   fn_from_json(data["p3"]))


def cartesian_to_json(m: CartesianMorphism) -> dict:
    return {"p": poly_to_json(m.src_poly), "q": poly_to_json(m.tgt_poly),
            "f0": fn_to_json(m.f0), "f1": fn_to_json(m.f1)}


def dpb_to_json(d: DistPB) -> dict:
    return {"f": fn_to_json(d.around_f), "g": fn_to_json(d.around_g),
            "X": finset_to_json(d.X), "Y": finset_to_json(d.Y),
            "p": fn_to_json(d.p), "q": fn_to_json(d.q), "r": fn_to_json(d.r)}


def sdc_to_json(s: SubdividedComposite) -> dict:
    return {"over": [poly_to_json(p) for p in s.over],
            "Ys": [finset_to_json(y) for y in s.ys],
            "q1": fn_to_json(s.q1), "q2s": [fn_to_json(f) for f in s.q2s],
            "q3": fn_to_json(s.q3), "rs": [fn_to_json(f) for f in s.rs],
            "ss": [fn_to_json(f) for f in s.ss]}


def eval_trace_to_json(t: EvalTrace) -> dict:
    return {"input": fn_to_json(t.input.arrow),
            "C2": finset_to_json(t.C2), "C3": finset_to_json(t.C3),
            "C4": finset_to_json(t.C4), "counit": fn_to_json(t.counit),
            "delta_arrow": fn_to_json(t.delta_arrow),
            "dpb_p": fn_to_json(t.dpb_p), "dpb_q": fn_to_json(t.dpb_q),
            "dpb_r": fn_to_json(t.dpb_r),
            "output": fn_to_json(t.output.arrow)}
