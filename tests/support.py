"""Helpers shared by the test modules."""

import sys
from collections import Counter
from contextlib import contextmanager
from math import prod
from unittest import mock

import polyfin.finset
from polyfin.errors import NotASquare
from polyfin.finset import (
    Element,
    FinFn,
    FinSetObj,
    Pair,
    PullbackSquare,
    compose_fn,
)
from polyfin.slices import DistPB, SliceObj, _all_fns


def dropped_section_pi(real_pi):
    """A mutant of slices.pi that drops the last section of every product
    with two or more, building its arrow from elements, so without the
    fibers pi fills from its section offsets."""
    def mutant_pi(f, x):
        out = real_pi(f, x)
        if f.is_identity or x.arrow.is_identity or len(out.carrier) < 2:
            return out
        keep = out.carrier.elements[:-1]
        carrier = FinSetObj(keep)
        return SliceObj(FinFn(carrier, out.base,
                              [(e, out.arrow(e)) for e in keep]))
    return mutant_pi


def constant_fn(dom: FinSetObj, cod: FinSetObj, value: Element) -> FinFn:
    """The function dom -> cod sending every element to value."""
    return FinFn(dom, cod, [(e, value) for e in dom])


def counting_pullback_check(sq: PullbackSquare) -> bool:
    """Reference for check_pullback: the square commutes, its apex points
    have distinct projection pairs, and they are as many as the pairs of
    the two legs' domains that the legs send to one point."""
    if not sq.commutes():
        raise NotASquare("square does not commute")
    matching = sum(j == k for j in sq.leg1.idx for k in sq.leg2.idx)
    got = set(zip(sq.proj1.idx, sq.proj2.idx))
    return len(sq.proj1.idx) == len(got) == matching


def enumerated_dpb_mediators(d: DistPB, cand: DistPB) -> int:
    """Reference for slices._count_dpb_mediators: try every pair of maps
    (s, t) from cand's X and Y into d's, and count those with
    d.p o s = cand.p, d.r o t = cand.r and d.q o s = t o cand.q."""
    hits = 0
    for s in _all_fns(cand.X, d.X):
        if compose_fn(d.p, s) != cand.p:
            continue
        for t in _all_fns(cand.Y, d.Y):
            if (compose_fn(d.r, t) == cand.r
                    and compose_fn(d.q, s) == compose_fn(t, cand.q)):
                hits += 1
    return hits


def summed_dpb_mediators(d: DistPB, cand: DistPB) -> int:
    """Reference for slices._count_dpb_mediators at any size: for each y
    of cand's Y, sum over the t over cand.r(y) the product over the x
    over y of the points x' of d.X with (d.p x', d.q x') = (cand.p x, t)."""
    over = Counter(zip(d.p.idx, d.q.idx))
    ts, xs, p = d.r.fiber_positions(), cand.q.fiber_positions(), cand.p.idx
    return prod(sum(prod(over[p[x], t] for x in xs[y]) for t in ts[r])
                for y, r in enumerate(cand.r.idx))


@contextmanager
def counted_lines(module):
    """Count the lines of module's source that run while the block runs.

    Yields a one-element list holding the count.  Each pass through a loop
    body counts its lines again, so the count measures the steps taken.
    """
    steps, path = [0], module.__file__

    def line(frame, event, arg):
        steps[0] += event == "line"
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename == path else None

    old = sys.gettrace()
    sys.settrace(call)
    try:
        yield steps
    finally:
        sys.settrace(old)


@contextmanager
def made_pairs():
    """Record every Pair constructed while the block runs."""
    made: list[Pair] = []
    real = Pair.__init__

    def counting(self, left, right):
        made.append(self)
        real(self, left, right)

    with mock.patch.object(Pair, "__init__", counting):
        yield made


@contextmanager
def compared_elements():
    """Record each pair of elements compared by Element.__eq__ while the
    block runs."""
    compared: list[tuple[Element, object]] = []
    real = Element.__eq__

    def counting(self, other):
        compared.append((self, other))
        return real(self, other)

    with mock.patch.object(Element, "__eq__", counting):
        yield compared


@contextmanager
def recorded_builds():
    """Record the element tuple of every set built by ordered_finset.

    Lazy carriers are built through ordered_finset, so the list shows
    which of them were read while the block ran.
    """
    built: list[tuple[Element, ...]] = []
    real = polyfin.finset.ordered_finset

    def recording(elems):
        obj = real(elems)
        built.append(obj.elements)
        return obj

    with mock.patch.object(polyfin.finset, "ordered_finset", recording):
        yield built
