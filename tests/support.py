"""Helpers shared by the test modules."""

from contextlib import contextmanager
from unittest import mock

import polyfin.finset
from polyfin.errors import NotASquare
from polyfin.finset import Element, FinFn, FinSetObj, PullbackSquare


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
