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
equal elements share one id whichever set reaches them.  Each set it
reaches has one walk record, which fills in the node id of each position.
A set that is not built yet and was made by a recipe is read by position
from its recipe, and nothing is built: a pullback apex (finset.ApexRecipe)
point is the pair of its projections' positions, a dependent product's
carrier (slices.SectionsRecipe) section is decoded from its number, and a
set the reader read (_NodesRecipe) names nodes of its file's table, which
the writer walks by node id.  An apex's and a carrier's positions are
checked instead of the built set, by the check a build runs,
finset._check_canonical.  Any other set is walked element by element.
Every walk emits nodes in the post-order of a left-to-right walk of the
elements.  to_text renders a payload as json.dumps(indent=2,
sort_keys=True) does, byte for byte.

The reader reads every set one way and builds no element.  One pass over
the node table computes each node's order key, the _key its element would
carry.  An id array or section row out of canonical order is sorted on
them by finset._sort_distinct, which refuses one that names an element
twice, as it does for every listing.  The sorted array becomes a lazy set
whose _NodesRecipe builds, when the set is first read, the elements of the
nodes the array reaches and no others.  Arrays that list one set, in any
order, share it, and a function reads its map as a position table,
permuted through the sorts of its dom and cod.  The reader's keys and set
table live for one call only.  A lazy set keeps the payload's node table,
and the elements its read has built so far, until it is built itself, so
the caller must not change that table after the read.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import le, lt
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
    _sort_distinct,
    _take,
    lazy_finset,
    pending_build,
)
from .poly import CartesianMorphism, Polynomial, SubdividedComposite
from .slices import DistPB, SectionsRecipe


class _Walk:
    """The node ids of a set's positions, filled in as a write reaches them.

    recipe is what the writer reads the set's positions from, and kind its
    type: finset.ApexRecipe, slices.SectionsRecipe or _NodesRecipe.  Both
    are None for a set walked by element: one that is built, was made
    eagerly, or has a build the writer cannot read.  kids holds what _fill
    reads a position through: the walks of an apex's projection domains
    and their tables, or of a carrier's base, domain and fibers, looked up
    on the first read, not before, so a deep tower of recipes costs no
    recursion; or, for a set the reader read, the writer id of each node
    of its file's table walked so far, shared by every set read from it.
    """

    __slots__ = ("s", "ids", "kind", "recipe", "kids")

    def __init__(self, s: FinSetObj, kind: type | None, recipe: Any,
                 kids: Any) -> None:
        self.s, self.ids = s, [None] * len(s)
        self.kind, self.recipe, self.kids = kind, recipe, kids


class _Writer:
    """One payload's node table, built by one write.

    nodes holds one node per distinct element, children first.  table maps
    each node as a tuple, ("atom", token), ("pair", l, r) or
    ("sect", ((k, v), ...)), to its id, so equal elements get one id
    whichever path reaches them.  ids remembers the id of each element
    walked by element, walks the node ids by position of each set
    reached, keyed by id(set), and memos the writer id of each node of
    each source node table reached, keyed by id(table).  Each walk holds
    its set and its recipe, which holds a read set's table, so no id is
    reused while the write runs, and a part two sets share is walked once.
    """

    __slots__ = ("ids", "nodes", "table", "walks", "memos")

    def __init__(self) -> None:
        self.ids: dict[Element, int] = {}
        self.nodes: list[list] = []
        self.table: dict[tuple, int] = {}
        self.walks: dict[int, _Walk] = {}
        self.memos: dict[int, list] = {}

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

    def source_node(self, rows: list, memo: list, j: int) -> int:
        """Node id of node j of a file's node table rows, memo holding the
        ids of its nodes walked so far: element's walk, on the rows."""
        i = memo[j]
        if i is not None:
            return i
        stack = [j]
        while stack:
            top = stack[-1]
            row = rows[top]
            tag = row[0]
            if tag == "pair":
                left = memo[row[1]]
                if left is None:
                    stack.append(row[1])
                    continue
                right = memo[row[2]]
                if right is None:
                    stack.append(row[2])
                    continue
                node = ("pair", left, right)
            elif tag == "atom":
                node = ("atom", row[1])
            else:
                unseen = [c for kv in row[1] for c in kv if memo[c] is None]
                if unseen:
                    stack.extend(reversed(unseen))
                    continue
                node = ("sect", tuple((memo[k], memo[v]) for k, v in row[1]))
            stack.pop()
            if memo[top] is None:
                memo[top] = self.node(node)
        return memo[j]

    def walk(self, s: FinSetObj) -> _Walk:
        """s's walk, made on first use: recipe sets are read by position.

        An apex's or a carrier's positions are checked here instead of the
        built set, by the check a build runs: an apex's projection pairs
        must strictly ascend, and a carrier's numbering must not go back to
        an earlier point of the base.
        """
        w = self.walks.get(id(s))
        if w is None:
            recipe = pending_build(s)
            kind, kids = type(recipe), None
            if kind is ApexRecipe:
                left, right = recipe.left, recipe.right
                pairs = list(zip(left, right))
                _check_canonical(len(left) == len(right) == len(s),
                                 all(map(lt, pairs, pairs[1:])))
            elif kind is SectionsRecipe:
                offset = recipe.numbering.offset
                _check_canonical(offset[-1] == len(s),
                                 all(map(le, offset, offset[1:])))
            elif kind is _NodesRecipe:
                kids = self.memos.get(id(recipe.nodes))
                if kids is None:
                    kids = self.memos[id(recipe.nodes)] = [None] * len(
                        recipe.nodes)
            else:
                kind = recipe = None
            w = self.walks[id(s)] = _Walk(s, kind, recipe, kids)
        return w

    def _fill(self, w: _Walk) -> None:
        """Give each position of w's set, in order, its node id.

        Iterative like element, and in the same post-order: a position
        takes its parts left to right, descending into the first one that
        has no id yet, and gets its own id once every part has one.  An
        apex point's two parts are read off its recipe's tables, and a
        section's point over b and its values are decoded once from its
        number and kept on the stack while they are walked.  A position of
        a set the reader read gets its id from source_node's walk of its
        file's rows, and any other position from element's walk.
        """
        table, nodes, walk = self.table, self.nodes, self.walk
        for i, known in enumerate(w.ids):
            if known is not None:
                continue
            stack = [(w, i)]
            while stack:
                top = stack[-1]
                v, k = top[0], top[1]
                kind = v.kind
                if kind is ApexRecipe:
                    kids = v.kids
                    if kids is None:
                        r = v.recipe
                        kids = v.kids = (walk(r.ldom), r.left,
                                         walk(r.rdom), r.right)
                    lw, left_at, rw, right_at = kids
                    j = left_at[k]
                    left = lw.ids[j]
                    if left is None:
                        stack.append((lw, j))
                        continue
                    j = right_at[k]
                    right = rw.ids[j]
                    if right is None:
                        stack.append((rw, j))
                        continue
                    # self.node, inlined: most nodes are apex points.
                    node = "pair", left, right
                    got = table.get(node)
                    if got is None:
                        got = table[node] = len(nodes)
                        nodes.append(["pair", left, right])
                    v.ids[k] = got
                elif kind is SectionsRecipe:
                    if len(top) == 2:
                        r = v.recipe
                        if v.kids is None:
                            f = r.f
                            v.kids = walk(f.cod), walk(f.dom), walk(r.x.dom)
                        b, values = r.numbering.section(k)
                        top = stack[-1] = v, k, b, tuple(zip(
                            r.numbering.fibers[b], values))
                    bw, aw, xw = v.kids
                    b, entries = top[2], top[3]
                    if bw.ids[b] is None:
                        stack.append((bw, b))
                        continue
                    for a, x in entries:
                        if aw.ids[a] is None:
                            stack.append((aw, a))
                            break
                        if xw.ids[x] is None:
                            stack.append((xw, x))
                            break
                    else:
                        sect = self.node(("sect", tuple([
                            (aw.ids[a], xw.ids[x]) for a, x in entries])))
                        v.ids[k] = self.node(("pair", bw.ids[b], sect))
                        stack.pop()
                    continue
                elif kind is _NodesRecipe:
                    v.ids[k] = self.source_node(v.recipe.nodes, v.kids,
                                                v.recipe.ids[k])
                else:
                    v.ids[k] = self.element(v.s.elements[k])
                stack.pop()

    def finset(self, s: FinSetObj) -> list[int]:
        w = self.walk(s)
        self._fill(w)
        return list(w.ids)

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
    node table row, ["pair", l, r], ["atom", token] and
    ["sect", [[k, v], ...]] with int ids, are filled into one format each."""
    inner = nl + "  "
    entries = inner + "  "
    pair = "[" + inner + '"pair",' + inner + "%d," + inner + "%d" + nl + "]"
    atom = "[" + inner + '"atom",' + inner + "%s" + nl + "]"
    sect = "[" + inner + '"sect",' + inner + "%s" + nl + "]"
    sect_entry = "[" + entries + "  %d," + entries + "  %d" + entries + "]"
    out = []
    for row in rows:
        if len(row) == 3 and row[0] == "pair" and type(row[1]) is int \
                and type(row[2]) is int:
            out.append(pair % (row[1], row[2]))
        elif len(row) == 2 and row[0] == "atom" and type(row[1]) is str:
            out.append(atom % _quote(row[1]))
        elif len(row) == 2 and row[0] == "sect" and type(row[1]) is list \
                and _int_pairs(row[1]):
            kvs = row[1]
            out.append(sect % ("[" + entries + ("," + entries).join(
                [sect_entry] * len(kvs)) % tuple(chain.from_iterable(kvs))
                + inner + "]" if kvs else "[]"))
        else:
            out.append(_text(row, nl))
    return out


def _int_pairs(kvs: list) -> bool:
    """Whether kvs is a list of two-entry lists of ints."""
    return (set(map(type, kvs)) <= {list} and set(map(len, kvs)) <= {2}
            and set(map(type, chain.from_iterable(kvs))) <= {int})


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


class _NodesRecipe:
    """How the reader lists a set it read: point i is the element of node
    ids[i] of a file's node table, rows.

    memo holds the element of each node built so far, shared by every set
    of one read, so a node two sets name is one element.  A call builds
    the nodes that ids reach and no others.  Every section row of rows
    lists its entries in canonical order, so the writer can walk the rows
    as it walks elements.
    """

    __slots__ = ("nodes", "ids", "memo")

    def __init__(self, nodes: list, ids: tuple[int, ...], memo: list):
        self.nodes, self.ids, self.memo = nodes, ids, memo

    def __call__(self) -> list[Element]:
        rows, memo, ids = self.nodes, self.memo, self.ids
        # A node's children come before it, so one pass down the table
        # marks what ids reach and one pass up builds it, children first.
        top = max(ids, default=-1)
        reached = bytearray(top + 1)
        for j in ids:
            reached[j] = 1
        for j in range(top, -1, -1):
            if reached[j] and memo[j] is None:
                row = rows[j]
                if row[0] == "pair":
                    reached[row[1]] = reached[row[2]] = 1
                elif row[0] == "sect":
                    for k, v in row[1]:
                        reached[k] = reached[v] = 1
        for j in range(top + 1):
            if reached[j] and memo[j] is None:
                row = rows[j]
                tag = row[0]
                memo[j] = (Atom(row[1]) if tag == "atom"
                           else Pair(memo[row[1]], memo[row[2]])
                           if tag == "pair"
                           else Sect([(memo[k], memo[v]) for k, v in row[1]]))
        return list(_take(memo, ids))


def _node_ids(ids: list, n: int) -> list:
    """ids, each checked to be a node id below n."""
    if ids and not (set(map(type, ids)) == {int}
                    and 0 <= min(ids) and max(ids) < n):
        for i in ids:
            _node_id(i, n)
    return ids


class _Reader:
    """Reads a version-2 payload, building no element.

    keys[i] is the order key of node i, the _key its element would carry.
    An id array becomes the lazy set whose _NodesRecipe builds the array's
    ids, sorted on these keys by finset._sort_distinct if they are out of
    order, when the set is read.  sets holds, for each distinct id array
    read, its set and the array's positions in the set's order, or None if
    the array is in that order; arrays that list one set share it.  nodes
    is the payload's table, or a copy of it with its section rows in
    canonical order.
    """

    def __init__(self, rows: Any) -> None:
        self.nodes = rows = _array(rows, "nodes")
        self.memo: list[Element | None] = [None] * len(rows)
        self.keys = keys = []
        for n, node in enumerate(rows):
            if type(node) is list and len(node) == 3 and node[0] == "pair":
                left, right = node[1], node[2]
                if (type(left) is int and type(right) is int
                        and 0 <= left < n and 0 <= right < n):
                    keys.append((1, keys[left], keys[right]))
                    continue
            keys.append(self._key(rows, n, node))
        self.sets: dict[tuple[int, ...], tuple[FinSetObj, list | None]] = {}

    def _key(self, rows: list, n: int, node: Any) -> tuple:
        """Row n's order key, after the checks the element constructors
        run, in their order.  A section row that lists its entries out of
        canonical order is listed in order in a copy of the table."""
        keys = self.keys
        tag = node[0] if isinstance(node, list) and node else None
        if tag == "atom" and len(node) == 2 and isinstance(node[1], str):
            return 0, node[1]
        if tag == "pair" and len(node) == 3:
            return 1, keys[_node_id(node[1], n)], keys[_node_id(node[2], n)]
        if tag == "sect" and len(node) == 2 and isinstance(node[1], list):
            kvs = node[1]
            if not (set(map(type, kvs)) <= {list}
                    and set(map(len, kvs)) <= {2}
                    or all(isinstance(kv, list) and len(kv) == 2
                           for kv in kvs)):
                raise ParseError("section entries must be id pairs", 0)
            flat = _node_ids([c for kv in kvs for c in kv], n)
            at, to = flat[::2], flat[1::2]
            ks = _take(keys, at)
            if all(map(lt, ks, ks[1:])):
                return 2, tuple(zip(ks, _take(keys, to)))
            order = _sort_distinct(
                ks, "section table repeats key",
                lambda i: _NodesRecipe(rows, (at[i],), self.memo)()[0])
            entries = [[at[i], to[i]] for i in order]
            if self.nodes is rows:
                self.nodes = list(rows)
            self.nodes[n] = ["sect", entries]
            return 2, tuple((keys[k], keys[v]) for k, v in entries)
        raise ParseError(f"unknown node {node!r}", 0)

    def _ids(self, data: Any) -> tuple[int, ...]:
        """The node ids of a set's array, each checked to be in range."""
        return tuple(_node_ids(_array(data), len(self.keys)))

    def _set(self, ids: tuple[int, ...]) -> tuple[FinSetObj, list | None]:
        got = self.sets.get(ids)
        if got is None:
            keys = _take(self.keys, ids)
            if all(map(lt, keys, keys[1:])):
                got = lazy_finset(len(ids), _NodesRecipe(self.nodes, ids,
                                                         self.memo)), None
            else:
                order = _sort_distinct(keys, "duplicate element", lambda i:
                                       _NodesRecipe(self.nodes, (ids[i],),
                                                    self.memo)()[0])
                got = self._set(_take(ids, order))[0], order
            self.sets[ids] = got
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
        (d, d_order), (c, c_order) = self._set(dom), self._set(cod)
        if c_order is not None:
            positions = _take(dict(zip(c_order, range(len(cod)))), positions)
        if d_order is not None:
            positions = _take(positions, d_order)
        return FinFn(d, c, idx=positions)


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
