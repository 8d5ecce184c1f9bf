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
from itertools import product

from .errors import (
    IncompleteAssignment,
    NotComposable,
    NotNameable,
    ParseError,
)
from .extension import EvalTrace, eval_obj
from .finset import Atom, FinFn, FinSetObj, Pair, mk_finset
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
            counts: dict[Monomial, int] = {}
            for m in monos:
                counts[m] = counts.get(m, 0) + 1
            terms = []
            for m in sorted(counts):
                c = counts[m]
                factors = []
                i = 0
                while i < len(m):
                    j = i
                    while j < len(m) and m[j] == m[i]:
                        j += 1
                    factors.append(m[i] if j - i == 1 else f"{m[i]}^{j - i}")
                    i = j
                body = "*".join(factors)
                if not body:
                    terms.append(str(c))
                elif c == 1:
                    terms.append(body)
                else:
                    terms.append(f"{c}*{body}")
            parts.append(" + ".join(terms))
        return " ; ".join(parts)


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
    its term.  Input and output names must not repeat.
    """
    tokens = _tokenize(text)
    outputs: list[list[Monomial]] = []
    seen_vars: list[str] = []
    i = 0

    def parse_term() -> list[Monomial]:
        nonlocal i
        coeff = 1
        has_body = False
        usages: list[str] = []
        if i < len(tokens) and tokens[i][0] == "nat":
            coeff = int(tokens[i][1])
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
                power = int(tokens[i][1])
                i += 1
            if value not in seen_vars:
                seen_vars.append(value)
            usages.extend([value] * power)
            if i < len(tokens) and tokens[i][:2] == ("op", "*"):
                i += 1
                if i >= len(tokens) or tokens[i][0] not in ("var", "nat"):
                    raise ParseError("'*' needs a following factor",
                                     tokens[i - 1][2])
        if not has_body:
            pos = tokens[i][2] if i < len(tokens) else len(text)
            raise ParseError("empty term", pos)
        return [tuple(sorted(usages))] * coeff

    while True:
        terms = parse_term()
        while i < len(tokens) and tokens[i][:2] == ("op", "+"):
            i += 1
            terms = terms + parse_term()
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
    the encoding deterministic.
    """
    src = mk_finset(list(s.in_vars))
    tgt = mk_finset(list(s.out_vars))
    msum_tokens: list[str] = []
    p3_pairs = []
    p1_pairs = []
    p2_pairs = []
    uvar_tokens: list[str] = []
    idx = 0
    for out in s.out_vars:
        for mono in s.monomials[out]:
            mtok = f"m{idx}"
            idx += 1
            msum_tokens.append(mtok)
            p3_pairs.append((Atom(mtok), Atom(out)))
            for u, var in enumerate(mono):
                utok = f"{mtok}.u{u}"
                uvar_tokens.append(utok)
                p1_pairs.append((Atom(utok), Atom(var)))
                p2_pairs.append((Atom(utok), Atom(mtok)))
    msum = mk_finset(msum_tokens)
    uvar = mk_finset(uvar_tokens)
    return Polynomial(FinFn(uvar, src, p1_pairs), FinFn(uvar, msum, p2_pairs),
                      FinFn(msum, tgt, p3_pairs))


def decode(p: Polynomial) -> SymPoly:
    """Read a polynomial expression back off a diagram by counting fibers.

    Source and target elements must be atoms, since they name the
    variables; middle elements may be anything.
    """
    for e in list(p.src) + list(p.tgt):
        if not isinstance(e, Atom):
            raise NotNameable(f"boundary element {e!r} is not an atom")
    in_vars = tuple(e.token for e in p.src)
    out_vars = tuple(e.token for e in p.tgt)
    monomials: dict[str, list[Monomial]] = {o: [] for o in out_vars}
    for b in p.mid_tgt:
        mono = tuple(sorted(p.p1(a).token for a in p.p2.fiber(b)))
        monomials[p.p3(b).token].append(mono)
    return SymPoly(in_vars, out_vars,
                   {o: tuple(ms) for o, ms in monomials.items()})


def eval_sym(s: SymPoly, assignment: dict[str, int]) -> dict[str, int]:
    """Ordinary arithmetic evaluation; the counting oracle."""
    for v in s.in_vars:
        if v not in assignment:
            raise IncompleteAssignment(f"no value for variable {v!r}")
    out = {}
    for o in s.out_vars:
        total = 0
        for mono in s.monomials[o]:
            prod = 1
            for v in mono:
                prod *= assignment[v]
            total += prod
        out[o] = total
    return out


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
    """eval_via_extension's counts, tallied on the output arrow's table,
    and the trace."""
    for e in p.tgt:
        if not isinstance(e, Atom):
            raise NotNameable(f"target element {e!r} is not an atom")
    out, trace = eval_obj(p, fiber_slice(p, assignment))
    sizes = Counter(out.arrow.idx)
    return {e.token: sizes[j] for j, e in enumerate(p.tgt)}, trace


def substitute(q: SymPoly, p: SymPoly) -> SymPoly:
    """Symbolic composite q after p, for single-output p.

    p's output variable must be q's only input; multiplies out the
    multiset of monomials.  Test oracle for diagram composition.
    """
    if len(p.out_vars) != 1 or q.in_vars != p.out_vars:
        raise NotComposable("substitution needs a matching single chain")
    y = p.out_vars[0]
    p_monos = p.monomials[y]
    monomials: dict[str, tuple[Monomial, ...]] = {}
    for o in q.out_vars:
        acc: list[Monomial] = []
        for mono in q.monomials[o]:
            k = len(mono)
            if any(v != y for v in mono):
                raise NotComposable("substitution needs a matching chain")
            for choice in product(p_monos, repeat=k):
                acc.append(tuple(sorted(v for m in choice for v in m)))
        monomials[o] = tuple(acc)
    return SymPoly(p.in_vars, q.out_vars, monomials)
