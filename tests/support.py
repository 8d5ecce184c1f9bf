"""Helpers shared by the test modules."""

from contextlib import contextmanager
from unittest import mock

import polyfin.finset
from polyfin.finset import Element, FinFn, FinSetObj


def constant_fn(dom: FinSetObj, cod: FinSetObj, value: Element) -> FinFn:
    """The function dom -> cod sending every element to value."""
    return FinFn(dom, cod, [(e, value) for e in dom])


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
