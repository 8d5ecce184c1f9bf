"""Multivariate polynomials with natural coefficients and their diagrams.

The bridge between ordinary polynomial arithmetic and the diagrammatic
presentation: a polynomial expression is encoded as a diagram
In <- UVar -> MSum -> Out whose fibers record variable usages, monomial
summands and outputs; decoding counts fibers back.  Coefficients are
repetition counts of monomials, so "+ 2" contributes two copies of the
empty monomial and everything stays a multiset.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import groupby, product
from math import prod

from .errors import (
    IncompleteAssignment,
    NotComposable,
    NotNameable,
    ParseError,
)
from .extension import EvalTrace, eval_obj
from .finset import Atom, FinFn, FinSetObj, Pair, _take, mk_finset
from .poly import Polynomial
from .slices import SliceObj

Monomial = tuple[str, ...]


@dataclass(frozen=True)
class SymPoly:
    """A tuple of polynomial expressions in named variables.

    monomials maps each output name to its multiset of monomials; each
    monomial is a sorted tuple of variable names with multiplicity, the
    empty tuple being the constant 1.
    """

    in_vars: tuple[str, ...]
    out_vars: tuple[str, ...]
    monomials: dict[str, tuple[Monomial, ...]] = field(hash=False)

    def __post_init__(self):
        object.__setattr__(self, "monomials", {
            out: tuple(sorted(tuple(sorted(m)) for m in monos))
            for out, monos in self.monomials.items()})
        if set(self.monomials) != set(self.out_vars):
            raise ValueError("monomials must be keyed by the output names")
        used = {v for monos in self.monomials.values() for m in monos for v in m}
        if not used <= set(self.in_vars):
            raise ValueError(f"unknown variables {sorted(used - set(self.in_vars))}")

    def degree(self) -> int:
        return max((len(m) for monos in self.monomials.values() for m in monos),
                   default=0)

    def render(self) -> str:
        """Canonical text form, parseable by parse_poly."""
        parts = []
        for out in self.out_vars:
            monos = self.monomials[out]
            if not monos:
                parts.append("0")
                continue
            terms = []
            for m, c in sorted(Counter(monos).items()):
                runs = [(v, len(list(run))) for v, run in groupby(m)]
                body = "*".join(v if n == 1 else f"{v}^{n}" for v, n in runs)
                if not body:
                    terms.append(str(c))
                elif c == 1:
                    terms.append(body)
                else:
                    terms.append(f"{c}*{body}")
            parts.append(" + ".join(terms))
        return " ; ".join(parts)


# encode of a text at this many elements, |A| + |B|, takes about one second.
MAX_ELEMENTS = 100_000

_TOKEN = re.compile(r"\s*(?:(?P<nat>\d+)|(?P<var>[A-Za-z_]\w*)"
                    r"|(?P<op>[;+*^]))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos:].lstrip()[0]!r}",
                             pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return tokens


def parse_poly(text: str, in_vars: list[str] | None = None,
               out_names: list[str] | None = None) -> SymPoly:
    """Parse outputs separated by ';', each a sum of terms joined by '+'.

    Each term is an optional leading natural coefficient followed by
    factors var or var^k, with '*' optional between factors.  A bare
    natural n stands for n copies of the empty monomial; 0 annihilates
    its term.  Input and output names must not repeat.  A text whose |A|
    + |B| would pass MAX_ELEMENTS is refused before its terms are built.
    """
    tokens = _tokenize(text)
    outputs: list[list[Monomial]] = []
    seen_vars: list[str] = []
    size = [0, 0]  # |A| and |B| of the terms read so far
    i = 0

    def natural() -> int:
        """The number at token i; int() refuses more than a few thousand
        digits, and so does this, as a parse error."""
        try:
            return int(tokens[i][1])
        except ValueError:
            raise ParseError(f"a number of {len(tokens[i][1])} digits is "
                             "too long", tokens[i][2]) from None

    def parse_term() -> list[Monomial]:
        nonlocal i
        start = tokens[i][2] if i < len(tokens) else len(text)
        coeff = 1
        has_body = False
        factors: list[tuple[str, int]] = []
        if i < len(tokens) and tokens[i][0] == "nat":
            coeff = natural()
            i += 1
            has_body = True
            if i < len(tokens) and tokens[i][:2] == ("op", "*"):
                i += 1
        while i < len(tokens) and tokens[i][0] in ("var", "nat"):
            kind, value, pos = tokens[i]
            if kind == "nat":
                raise ParseError("coefficient must lead its term", pos)
            i += 1
            has_body = True
            power = 1
            if i < len(tokens) and tokens[i][:2] == ("op", "^"):
                i += 1
                if i >= len(tokens) or tokens[i][0] != "nat":
                    raise ParseError("'^' needs a natural exponent",
                                     tokens[i - 1][2])
                power = natural()
                i += 1
            if value not in seen_vars:
                seen_vars.append(value)
            factors.append((value, power))
            if i < len(tokens) and tokens[i][:2] == ("op", "*"):
                i += 1
                if i >= len(tokens) or tokens[i][0] not in ("var", "nat"):
                    raise ParseError("'*' needs a following factor",
                                     tokens[i - 1][2])
        if not has_body:
            raise ParseError("empty term", start)
        size[0] += coeff * sum(power for _, power in factors)
        size[1] += coeff
        if sum(size) > MAX_ELEMENTS:
            raise ParseError(f"the diagram would have |A| >= {size[0]} and "
                             f"|B| >= {size[1]}, over {MAX_ELEMENTS}", start)
        usages = [v for v, power in factors if coeff for _ in range(power)]
        return [tuple(sorted(usages))] * coeff

    while True:
        terms = parse_term()
        while i < len(tokens) and tokens[i][:2] == ("op", "+"):
            i += 1
            terms += parse_term()
        outputs.append(terms)
        if i >= len(tokens):
            break
        if tokens[i][:2] == ("op", ";"):
            i += 1
            continue
        raise ParseError(f"unexpected token {tokens[i][1]!r}", tokens[i][2])
    if out_names is None:
        out_names = [f"out{j + 1}" for j in range(len(outputs))]
    if len(out_names) != len(outputs):
        raise ParseError("output name count does not match the expression", 0)
    if in_vars is None:
        in_vars = seen_vars
    for kind, names in (("input", in_vars), ("output", out_names)):
        repeated = [v for i, v in enumerate(names) if v in names[:i]]
        if repeated:
            raise ParseError(f"{kind} name {repeated[0]!r} is repeated", 0)
    missing = [v for v in seen_vars if v not in in_vars]
    if missing:
        raise ParseError(f"variable {missing[0]!r} not among the inputs", 0)
    return SymPoly(tuple(in_vars), tuple(out_names),
                   {o: tuple(ts) for o, ts in zip(out_names, outputs)})


def encode(s: SymPoly) -> Polynomial:
    """Diagram In <- UVar -> MSum -> Out of a polynomial expression.

    MSum has one atom per monomial occurrence ("m0", "m1", ...) and UVar
    one atom per variable usage ("m0.u0", ...); the positional tokens make
    the encoding deterministic.  Each atom is built once, by mk_finset, and
    the legs are position tables in the built sets' canonical order, where
    "m10" comes before "m2".
    """
    monos = [(f"m{i}", out, mono) for i, (out, mono) in enumerate(
        (out, mono) for out in s.out_vars for mono in s.monomials[out])]
    uses = [(f"{m}.u{u}", m, var)
            for m, _, mono in monos for u, var in enumerate(mono)]
    src, tgt = mk_finset(list(s.in_vars)), mk_finset(list(s.out_vars))
    msum = mk_finset([m for m, _, _ in monos])
    uvar = mk_finset([u for u, _, _ in uses])
    var_at, out_at, m_at, u_at = map(_positions, (src, tgt, msum, uvar))
    p1, p2, p3 = [0] * len(uvar), [0] * len(uvar), [0] * len(msum)
    for u, m, var in uses:
        p1[u_at[u]], p2[u_at[u]] = var_at[var], m_at[m]
    for m, out, _ in monos:
        p3[m_at[m]] = out_at[out]
    return Polynomial(FinFn(uvar, src, idx=p1), FinFn(uvar, msum, idx=p2),
                      FinFn(msum, tgt, idx=p3))


def _positions(atoms: FinSetObj) -> dict[str, int]:
    """The position of each atom of a set, by its token."""
    return {e.token: i for i, e in enumerate(atoms.elements)}


def decode(p: Polynomial) -> SymPoly:
    """Read a polynomial expression back off a diagram by counting fibers.

    Source and target elements must be atoms, since they name the
    variables; middle elements may be anything, and none is read: b's
    monomial is the variables p1 gives the positions in p2's fiber over
    b, and its output the one p3 gives b, all read by position.  So a
    composite read from a file builds its src and tgt only.
    """
    src, tgt = p.src.elements, p.tgt.elements
    for e in src + tgt:
        if not isinstance(e, Atom):
            raise NotNameable(f"boundary element {e!r} is not an atom")
    in_vars = tuple(e.token for e in src)
    out_vars = tuple(e.token for e in tgt)
    var_at = _take(in_vars, p.p1.idx)
    monomials: dict[str, list[Monomial]] = {o: [] for o in out_vars}
    for out, fiber in zip(_take(out_vars, p.p3.idx),
                          p.p2.fiber_positions()):
        monomials[out].append(_take(var_at, fiber))
    return SymPoly(in_vars, out_vars,
                   {o: tuple(ms) for o, ms in monomials.items()})


def eval_sym(s: SymPoly, assignment: dict[str, int]) -> dict[str, int]:
    """Ordinary arithmetic evaluation; the counting oracle."""
    for v in s.in_vars:
        if v not in assignment:
            raise IncompleteAssignment(f"no value for variable {v!r}")
    return {o: sum(prod(map(assignment.__getitem__, mono))
                   for mono in s.monomials[o]) for o in s.out_vars}


def fiber_slice(p: Polynomial, assignment: dict[str, int]) -> SliceObj:
    """Slice over p.src whose fiber over each variable has the given size."""
    for e in p.src:
        if not isinstance(e, Atom):
            raise NotNameable(f"source element {e!r} is not an atom")
        if e.token not in assignment:
            raise IncompleteAssignment(f"no value for variable {e.token!r}")
    elems = []
    pairs = []
    for e in p.src:
        for i in range(assignment[e.token]):
            pt = Pair(e, Atom(str(i)))
            elems.append(pt)
            pairs.append((pt, e))
    carrier = FinSetObj(elems)
    return SliceObj(FinFn(carrier, p.src, pairs))


def eval_via_extension(p: Polynomial, assignment: dict[str, int]) -> dict[str, int]:
    """Evaluate a diagram by running its action on a slice and counting.

    Must agree with eval_sym on encoded expressions; this is the central
    cross-check between the diagrammatic and arithmetic views.
    """
    return eval_with_trace(p, assignment)[0]


def eval_with_trace(p: Polynomial, assignment: dict[str, int]
                    ) -> tuple[dict[str, int], EvalTrace]:
    """eval_via_extension's counts and the trace.

    An output's count is the number of sections over its p3-fiber: the
    product arrow's fiber sizes, which pi reads off its section offsets,
    summed over that fiber, so the output's table is not recounted.
    """
    for e in p.tgt:
        if not isinstance(e, Atom):
            raise NotNameable(f"target element {e!r} is not an atom")
    _, trace = eval_obj(p, fiber_slice(p, assignment))
    sizes = trace.product.arrow.fiber_positions()
    return {e.token: sum(len(sizes[b]) for b in bs)
            for e, bs in zip(p.tgt, p.p3.fiber_positions())}, trace


def substitute(q: SymPoly, p: SymPoly) -> SymPoly:
    """Symbolic composite q after p, for single-output p.

    p's output variable must be q's only input, so each monomial of q is
    a power of it; multiplies out the multiset of monomials.  Test oracle
    for diagram composition.
    """
    if len(p.out_vars) != 1 or q.in_vars != p.out_vars:
        raise NotComposable("substitution needs a matching single chain")
    p_monos = p.monomials[p.out_vars[0]]
    monomials: dict[str, tuple[Monomial, ...]] = {}
    for o in q.out_vars:
        acc: list[Monomial] = []
        for mono in q.monomials[o]:
            for choice in product(p_monos, repeat=len(mono)):
                acc.append(tuple(sorted(v for m in choice for v in m)))
        monomials[o] = tuple(acc)
    return SymPoly(p.in_vars, q.out_vars, monomials)
