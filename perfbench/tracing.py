"""Span tracing installed from outside the program.

The tracer rebinds a fixed list of polyfin functions to timing wrappers,
in every polyfin module that holds the name (``poly``, ``extension`` and
``laws`` bind names such as ``pullback`` and ``mediate`` at import), and
wraps three methods on their classes.  Each call records a span (name,
start, end, parent) in flat in-memory arrays, and a size count at the same
boundary.  ``uninstall`` puts every original back.

A layer's self time is its span's duration minus the time its child spans
cover.  The benchmark opens one ``op`` span around each operation, so the
self time of ``op`` is the operation time no layer span covers
(``trace.unattributed_s``), and the self times of all names add up to the
traced operation time exactly.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path

ROOT_SPAN = "op"


def _pullback_size(tracer, args, result):
    f, g = args[0], args[1]
    if result.apex is not f.dom and result.apex is not g.dom:
        # Only the non-identity branch runs the nested pair loop.
        tracer.pairs_tested += len(f.dom) * len(g.dom)
        tracer.pairs_kept += len(result.apex)
    return len(result.apex)


def _pi_size(tracer, args, result):
    return len(result.carrier)


def _dpb_size(tracer, args, result):
    return len(result.X) + len(result.Y)


def _tower_size(tracer, args, result):
    return sum(len(y) for y in result.sdc.ys)


def _eval_size(tracer, args, result):
    return len(result[0].carrier)


def _finfn_size(tracer, args, result):
    return len(args[0].dom)


def _finset_size(tracer, args, result):
    return len(args[0].elements)


def _law_span(args):
    return f"laws.run_law.{args[0]}"


# (module, function, span name, size of what the call built or None).
FUNCTIONS = (
    ("finset", "pullback", "finset.pullback", _pullback_size),
    ("finset", "compose_fn", "finset.compose_fn", None),
    ("finset", "mediate", "finset.mediate", None),
    ("finset", "check_pullback", "finset.check_pullback", None),
    ("slices", "pi", "slices.pi", _pi_size),
    ("slices", "dist_pullback", "slices.dist_pullback", _dpb_size),
    ("slices", "dpb_compare", "slices.dpb_compare", None),
    ("slices", "dpb_mediate", "slices.dpb_mediate", None),
    ("poly", "terminal_tower", "poly.terminal_tower", _tower_size),
    ("poly", "mediate_into_tower", "poly.mediate_into_tower", None),
    ("poly", "associator", "poly.associator", None),
    ("poly", "sdc_morphisms", "poly.sdc_morphisms", None),
    ("poly", "cartesian_homset", "poly.cartesian_homset", None),
    ("extension", "eval_obj", "extension.eval_obj", _eval_size),
    ("extension", "eval_mor", "extension.eval_mor", None),
    ("extension", "nat_component", "extension.nat_component", None),
    ("extension", "coherence_component", "extension.coherence_component",
     None),
    ("jsonio", "poly_to_json", "jsonio.poly_to_json", None),
    ("jsonio", "poly_from_json", "jsonio.poly_from_json", None),
    ("cli", "main", "cli.main", None),
    ("symbolic", "decode", "symbolic.decode", None),
)

# (module, class, method, span name, size).
METHODS = (
    ("finset", "FinFn", "__init__", "finset.FinFn", _finfn_size),
    ("finset", "FinSetObj", "__init__", "finset.FinSetObj", _finset_size),
    ("poly", "SubdividedComposite", "validate",
     "poly.SubdividedComposite.validate", None),
)

SIZED = tuple(name for _, _, name, size in FUNCTIONS if size) + tuple(
    name for _, _, _, name, size in METHODS if size)
LAYERS = tuple(name for _, _, name, _ in FUNCTIONS) + tuple(
    name for _, _, _, name, _ in METHODS)


class Tracer:
    """Spans in flat arrays, plus per-name size counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self._stack: list[int] = []
        self.elems: dict[str, int] = {}
        self.pairs_tested = 0
        self.pairs_kept = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(time.perf_counter_ns())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError("spans closed out of order")

    def count(self, name: str, n: int) -> None:
        self.elems[name] = self.elems.get(name, 0) + n

    # -- wrappers ------------------------------------------------------
    def _wrap(self, fn, name, size, name_of=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.open(name_of(args) if name_of else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if size is not None:
                tracer.count(name, size(tracer, args, result))
            return result

        return traced

    def install(self) -> None:
        """Rebind every listed function and method to a traced wrapper."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        mods = {name: mod for name, mod in list(sys.modules.items())
                if name == "polyfin" or name.startswith("polyfin.")}

        def rebind(home, fname, wrapper_of):
            original = getattr(mods[f"polyfin.{home}"], fname)
            wrapper = wrapper_of(original)
            for mod in mods.values():
                if getattr(mod, fname, None) is original:
                    self._restore.append((mod, fname, original))
                    setattr(mod, fname, wrapper)

        for home, fname, span, size in FUNCTIONS:
            rebind(home, fname,
                   lambda fn, span=span, size=size: self._wrap(fn, span, size))
        # One span name per law, so each law's time shows on its own.
        rebind("laws", "run_law",
               lambda fn: self._wrap(fn, None, None, _law_span))
        for home, cname, meth, span, size in METHODS:
            cls = getattr(mods[f"polyfin.{home}"], cname)
            original = cls.__dict__[meth]
            self._restore.append((cls, meth, original))
            setattr(cls, meth, self._wrap(original, span, size))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------
    def self_times(self) -> dict[str, list[int]]:
        """Per span name: [calls, total ns, self ns]."""
        covered = [0] * len(self.start)
        for sid in range(len(self.start)):
            par = self.parent[sid]
            if par >= 0:
                covered[par] += self.end[sid] - self.start[sid]
        out: dict[str, list[int]] = {}
        for sid in range(len(self.start)):
            dur = self.end[sid] - self.start[sid]
            row = out.setdefault(self.names[self.name[sid]], [0, 0, 0])
            row[0] += 1
            row[1] += dur
            row[2] += dur - covered[sid]
        return out

    def write(self, directory: Path) -> None:
        """Write the spans as int64 arrays beside a JSON index of names."""
        directory.mkdir(parents=True, exist_ok=True)
        fields = {"name": self.name, "start": self.start, "end": self.end,
                  "parent": self.parent}
        for field, data in fields.items():
            with open(directory / f"{field}.bin", "wb") as fh:
                array("q", data).tofile(fh)
        (directory / "spans.json").write_text(json.dumps(
            {"names": self.names, "count": len(self.start),
             "fields": sorted(fields), "dtype": "int64", "clock":
             "perf_counter_ns"}, indent=1) + "\n", encoding="utf-8")


def load_spans(directory: Path) -> dict:
    """Read spans written by Tracer.write back into plain lists."""
    meta = json.loads((directory / "spans.json").read_text(encoding="utf-8"))
    out = {"names": meta["names"]}
    for field in meta["fields"]:
        data = array("q")
        with open(directory / f"{field}.bin", "rb") as fh:
            data.frombytes(fh.read())
        out[field] = data.tolist()
    return out
