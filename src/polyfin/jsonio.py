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

The writer gives each node an id by hash-consing: a node is keyed by its
tuple, ("atom", token), ("pair", l, r) or ("sect", ((k, v), ...)), so
equal elements share one id whichever set reaches them.  A set that is
not built yet and was made by a recipe (finset.ApexRecipe for a pullback
apex, slices.SectionsRecipe for a dependent product's carrier) is read by
position from its recipe, and nothing is built: an apex point is the
pair of its projections' positions, a section is decoded from its
number.  The positions are checked instead of the built set, by the
check a build runs, finset._check_canonical: an apex's projection pairs
must strictly ascend and a carrier's numbering must not go back to an
earlier point of the base.  Any other set is walked element by element.
Both walks emit nodes in the post-order of a left-to-right walk of the
elements.  to_text renders a payload as json.dumps(indent=2,
sort_keys=True) does, byte for byte.  The reader builds one set per
distinct id array, and reads a function's map as its position table when
the dom and cod arrays are in canonical order.  Each of these tables lives
for one call only.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii
from operator import is_, le, lt
from typing import Any, Iterator

from .errors import (
    DuplicateElement,
    IllFormedFunction,
    IllFormedPolynomial,
    ParseError,
)
from .extension import EvalTrace
from .finset import (
    ApexRecipe,
    Atom,
    Element,
    FinFn,
    FinSetObj,
    Pair,
    Sect,
    _check_canonical,
    _take,
    pending_build,
)
from .poly import CartesianMorphism, Polynomial, SubdividedComposite
from .slices import DistPB, SectionsRecipe


class _Walk:
    """The node ids of a set's positions, filled in as a write reaches them.

    The base class stands for a set walked by element: one that is built,
    was made eagerly, or has a build the writer cannot read.  The walks of
    the sets a recipe reads are looked up on the first read, not before,
    so a deep tower of recipes costs no recursion.
    """

    __slots__ = ("s", "ids", "kids")

    def __init__(self, s: FinSetObj):
        self.s, self.ids, self.kids = s, [None] * len(s), None

    def id_at(self, w: "_Writer", i: int, parts: tuple) -> int:
        """The node id at position i, once its parts (as parts(w, i)
        returned them) have ids."""
        return w.element(self.s.elements[i])

    def parts(self, w: "_Writer", i: int) -> tuple:
        return ()


class _ApexWalk(_Walk):
    """An unbuilt pullback apex: point i is the pair of its projections."""

    __slots__ = ("recipe",)

    def __init__(self, s: FinSetObj, recipe: ApexRecipe):
        left, right = recipe.left, recipe.right
        pairs = list(zip(left, right))
        _check_canonical(len(left) == len(right) == len(s),
                         all(map(lt, pairs, pairs[1:])))
        super().__init__(s)
        self.recipe = recipe

    def parts(self, w: "_Writer", i: int) -> tuple:
        r = self.recipe
        if self.kids is None:
            self.kids = w.walk(r.ldom), w.walk(r.rdom)
        lw, rw = self.kids
        return (lw, r.left[i]), (rw, r.right[i])

    def id_at(self, w: "_Writer", i: int, parts: tuple) -> int:
        (lw, left), (rw, right) = parts
        return w.node(("pair", lw.ids[left], rw.ids[right]))


class _SectionsWalk(_Walk):
    """An unbuilt dependent-product carrier: section i is Pair(b, Sect(...))
    with b and the section's values decoded, once, from its number."""

    __slots__ = ("recipe",)

    def __init__(self, s: FinSetObj, recipe: SectionsRecipe):
        offset = recipe.numbering.offset
        _check_canonical(offset[-1] == len(s),
                         all(map(le, offset, offset[1:])))
        super().__init__(s)
        self.recipe = recipe

    def parts(self, w: "_Writer", i: int) -> list:
        """(b's walk, b), then (a's walk, a) and (v's walk, v) for each
        point a of b's fiber and the section's value v there."""
        r = self.recipe
        if self.kids is None:
            self.kids = w.walk(r.f.cod), w.walk(r.f.dom), w.walk(r.x.dom)
        bw, aw, vw = self.kids
        b, values = r.numbering.section(i)
        parts = [(bw, b)]
        for a, v in zip(r.numbering.fibers[b], values):
            parts += (aw, a), (vw, v)
        return parts

    def id_at(self, w: "_Writer", i: int, parts: list) -> int:
        ids = [pw.ids[j] for pw, j in parts]
        sect = w.node(("sect", tuple(zip(ids[1::2], ids[2::2]))))
        return w.node(("pair", ids[0], sect))


class _Writer:
    """One payload's node table, built by one write.

    nodes holds one node per distinct element, children first.  table maps
    each node as a tuple, ("atom", token), ("pair", l, r) or
    ("sect", ((k, v), ...)), to its id, so equal elements get one id
    whichever path reaches them.  ids remembers the id of each element
    walked by element, and walks the node ids by position of each set
    reached, keyed by id(set); each walk holds its set, so no id is reused
    while the write runs, and a part two sets share is walked once.
    """

    __slots__ = ("ids", "nodes", "table", "walks")

    def __init__(self) -> None:
        self.ids: dict[Element, int] = {}
        self.nodes: list[list] = []
        self.table: dict[tuple, int] = {}
        self.walks: dict[int, _Walk] = {}

    def node(self, node: tuple) -> int:
        """The id of node, added to the table if it is new."""
        i = self.table.get(node)
        if i is None:
            i = self.table[node] = len(self.nodes)
            self.nodes.append(["sect", list(map(list, node[1]))]
                              if node[0] == "sect" else list(node))
        return i

    def element(self, e: Element) -> int:
        """Node id of e, adding e and its unseen parts children first.

        Iterative, so nesting depth is not bounded by the recursion limit;
        nodes come out in the post-order of a left-to-right recursive walk.
        """
        ids = self.ids
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
                node = ("pair", left, right)
            elif isinstance(top, Atom):
                node = ("atom", top.token)
            else:
                unseen = [c for kv in top.entries for c in kv if c not in ids]
                if unseen:
                    stack.extend(reversed(unseen))
                    continue
                node = ("sect",
                        tuple((ids[k], ids[v]) for k, v in top.entries))
            stack.pop()
            if top not in ids:
                ids[top] = self.node(node)
        return ids[e]

    def walk(self, s: FinSetObj) -> _Walk:
        """s's walk, made on first use: recipe sets are read by position."""
        w = self.walks.get(id(s))
        if w is None:
            recipe = pending_build(s)
            w = (_ApexWalk(s, recipe) if type(recipe) is ApexRecipe
                 else _SectionsWalk(s, recipe)
                 if type(recipe) is SectionsRecipe else _Walk(s))
            self.walks[id(s)] = w
        return w

    def _fill(self, w: _Walk, i: int) -> None:
        """Give position i of w's set its node id.

        Iterative like element, and in the same post-order: a position
        takes its parts left to right, descending into the first one that
        has no id yet, and gets its own id once every part has one.
        """
        parts = w.parts(self, i)
        stack = [(w, i, parts, iter(parts))]
        while stack:
            w, i, parts, unread = stack[-1]
            for pw, j in unread:
                if pw.ids[j] is None:
                    sub = pw.parts(self, j)
                    stack.append((pw, j, sub, iter(sub)))
                    break
            else:
                stack.pop()
                w.ids[i] = w.id_at(self, i, parts)

    def finset(self, s: FinSetObj) -> list[int]:
        w = self.walk(s)
        ids = w.ids
        if type(w) is _Walk:
            ids[:] = map(self.element, s.elements)
        for i, known in enumerate(ids):
            if known is None:
                self._fill(w, i)
        return list(ids)

    def fn(self, f: FinFn) -> dict:
        return {"dom": self.finset(f.dom), "cod": self.finset(f.cod),
                "map": list(f.idx)}

    def poly(self, p: Polynomial) -> dict:
        return {"src": self.finset(p.src), "A": self.finset(p.mid_src),
                "B": self.finset(p.mid_tgt), "tgt": self.finset(p.tgt),
                "p1": self.fn(p.p1), "p2": self.fn(p.p2), "p3": self.fn(p.p3)}

    def payload(self, **fields: Any) -> dict:
        return {"version": 2, "nodes": self.nodes, **fields}


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
    sq, d = t.delta, t.dpb
    return w.payload(input=w.fn(sq.leg1),
                     C2=w.finset(sq.apex), C3=w.finset(d.X),
                     C4=w.finset(d.Y), counit=w.fn(sq.proj1),
                     delta_arrow=w.fn(sq.proj2),
                     dpb_p=w.fn(d.p), dpb_q=w.fn(d.q),
                     dpb_r=w.fn(d.r), output=w.fn(t.output.arrow))


def to_text(data: Any) -> str:
    """json.dumps(data, indent=2, sort_keys=True), built as one string.

    With indent set, json runs its pure-Python encoder, a call and a write
    per token.  Here a list of ints is joined in C, each row of a node
    table is filled into the format of its shape, and strings go through
    json's own escaping.  A float, or any other value not known here, goes
    to json.dumps, whose text is indented to its place.
    """
    return _text(data, "\n")


def _text(v: Any, nl: str) -> str:
    """v's indent-2 text, with nl the newline and indent of v's own line."""
    t = type(v)
    if t is str:
        return _quote(v)
    if t is int:
        return int.__repr__(v)
    if v is None or t is bool:
        return _CONSTANTS[v]
    if t is list or t is tuple:
        if not v:
            return "[]"
        inner = nl + "  "
        kinds = set(map(type, v))
        if kinds == {int}:
            items = map(int.__repr__, v)
        elif kinds == {list}:
            items = _rows(v, inner)
        else:
            items = [_text(item, inner) for item in v]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if t is dict and set(map(type, v)) == {str}:
        inner = nl + "  "
        return "{" + inner + ("," + inner).join([
            _quote(k) + ": " + _text(v[k], inner) for k in sorted(v)
        ]) + nl + "}"
    if t is dict and not v:
        return "{}"
    return json.dumps(v, indent=2, sort_keys=True).replace("\n", nl)


_quote = encode_basestring_ascii
_CONSTANTS = {None: "null", True: "true", False: "false"}


def _rows(rows: list[list], nl: str) -> list[str]:
    """The text of each of rows at the indent of nl, where the shapes of a
    node table, ["pair", l, r], ["atom", token] and a section's [k, v],
    are filled into one format each."""
    inner = nl + "  "
    pair = "[" + inner + '"pair",' + inner + "%d," + inner + "%d" + nl + "]"
    atom = "[" + inner + '"atom",' + inner + "%s" + nl + "]"
    entry = "[" + inner + "%d," + inner + "%d" + nl + "]"
    out = []
    for row in rows:
        if len(row) == 3 and row[0] == "pair" and type(row[1]) is int \
                and type(row[2]) is int:
            out.append(pair % (row[1], row[2]))
        elif len(row) == 2 and type(row[0]) is int and type(row[1]) is int:
            out.append(entry % (row[0], row[1]))
        elif len(row) == 2 and row[0] == "atom" and type(row[1]) is str:
            out.append(atom % _quote(row[1]))
        else:
            out.append(_text(row, nl))
    return out


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
    """Reads a version-2 payload; elems[i] is the element of node i.

    sets holds, for each distinct id list read, its set and whether the
    list is already in canonical order, so a set is built once per read.
    """

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
        self.sets: dict[tuple[int, ...], tuple[FinSetObj, bool]] = {}

    def _ids(self, data: Any) -> tuple[int, ...]:
        """The node ids of a set's array, each checked to be in range."""
        ids = _array(data)
        n = len(self.elems)
        if ids and not (set(map(type, ids)) == {int}
                        and 0 <= min(ids) and max(ids) < n):
            for i in ids:
                _node_id(i, n)
        return tuple(ids)

    def _set(self, ids: tuple[int, ...]) -> tuple[FinSetObj, bool]:
        got = self.sets.get(ids)
        if got is None:
            elems = _take(self.elems, ids)
            s = FinSetObj(elems)
            got = self.sets[ids] = s, all(map(is_, s.elements, elems))
        return got

    def finset(self, data: Any) -> FinSetObj:
        return self._set(self._ids(data))[0]

    def fn(self, data: Any) -> FinFn:
        dom, cod, positions = _fn_fields(data)
        dom, cod = self._ids(dom), self._ids(cod)
        if len(positions) != len(dom):
            raise ParseError("a function's map and dom differ in length", 0)
        if positions and not (set(map(type, positions)) == {int}
                              and 0 <= min(positions)
                              and max(positions) < len(cod)):
            raise ParseError("map entries must be positions in cod", 0)
        (d, d_canonical), (c, c_canonical) = self._set(dom), self._set(cod)
        if d_canonical and c_canonical:
            return FinFn(d, c, idx=positions)
        elems = self.elems
        return FinFn(d, c, zip(_take(elems, dom),
                               _take(elems, _take(cod, positions))))


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
