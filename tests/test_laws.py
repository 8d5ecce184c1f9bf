"""The law registry itself: green on the real build, red on mutants.

The three injected defects exercised here:

  * drop_section      -- the dependent product loses one section table;
  * skip_normalization -- chosen pullbacks ignore the identity special
                          cases, so identity laws hold only up to
                          isomorphism;
  * swap_components   -- the associator returns its two component maps
                         transposed.

Each must be caught by at least one named law, with a serialized
counterexample in the report.
"""

import ast
import json
from pathlib import Path

import pytest

import polyfin.extension
import polyfin.finset
import polyfin.laws
import polyfin.poly
import polyfin.slices
from polyfin import gen
from polyfin.finset import FinFn, FinSetObj, Pair
from polyfin.gen import InstanceGenConfig
from polyfin.laws import LAWS, run_law
from polyfin.poly import CartesianMorphism
from polyfin.slices import SliceObj

CFG = InstanceGenConfig(seed=1234, max_set_size=3, cases=15)


@pytest.mark.parametrize("name", sorted(LAWS))
def test_law_passes_on_clean_build(name):
    report = run_law(name, CFG)
    assert report.passed, report.failures[:1]


def test_only_laws_and_the_package_import_oracles():
    """The reference constructions stay out of the core: no library module
    but laws and the package's __init__ imports polyfin.oracles."""
    importers = set()
    for path in Path(polyfin.laws.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
            else:
                continue
            if any(n.rsplit(".", 1)[-1] == "oracles" for n in names):
                importers.add(path.name)
    assert importers == {"laws.py", "__init__.py"}


def test_no_module_rebinds_a_global():
    """The package keeps no module-level mutable state: no global
    statement, and the law harness numbers its sets on its draw stream."""
    for path in Path(polyfin.laws.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        assert not any(isinstance(n, ast.Global) for n in ast.walk(tree)), \
            path.name
    assert not hasattr(gen, "reset_counter")


def test_each_draw_stream_numbers_its_own_sets():
    a, b = gen.Draws(7), gen.Draws(7)
    first = gen.fresh_set(a, 2)
    assert gen.fresh_set(a, 2) != first
    assert gen.fresh_set(b, 2) == first


def test_unknown_law_rejected():
    with pytest.raises(KeyError):
        run_law("no-such-law", CFG)


def test_config_requires_positive_size():
    with pytest.raises(ValueError):
        InstanceGenConfig(seed=0, max_set_size=0)


def test_config_rejects_a_negative_case_count():
    with pytest.raises(ValueError, match="cases must not be negative"):
        InstanceGenConfig(seed=0, cases=-1)


def _assert_caught(report):
    assert not report.passed
    payload = json.dumps(report.to_json(), sort_keys=True)
    assert "detail" in payload


class TestMutationSensitivity:
    def test_dropped_section_caught(self, monkeypatch):
        real_pi = polyfin.slices.pi

        def mutant_pi(f, x):
            out = real_pi(f, x)
            if f.is_identity or x.arrow.is_identity:
                return out
            if len(out.carrier) < 2:
                return out
            keep = out.carrier.elements[:-1]
            carrier = FinSetObj(keep)
            return SliceObj(FinFn(carrier, out.base,
                                  [(e, out.arrow(e)) for e in keep]))

        monkeypatch.setattr(polyfin.slices, "pi", mutant_pi)
        monkeypatch.setattr(polyfin.laws, "pi", mutant_pi)
        _assert_caught(run_law("oracle-agreement", CFG))
        _assert_caught(run_law("delta-criterion", CFG))
        _assert_caught(run_law("adjunctions", CFG))

    def test_skipped_normalization_caught(self, monkeypatch):
        def raw_pullback(f, g):
            from polyfin.errors import NotComposable
            from polyfin.finset import PullbackSquare
            if f.cod != g.cod:
                raise NotComposable("legs of a pullback must share a codomain")
            elems = [Pair(a, b) for a in f.dom for b in g.dom
                     if f(a) == g(b)]
            apex = FinSetObj(elems)
            proj1 = FinFn(apex, f.dom, [(e, e.left) for e in apex])
            proj2 = FinFn(apex, g.dom, [(e, e.right) for e in apex])
            return PullbackSquare(apex, proj1, proj2, f, g)

        monkeypatch.setattr(polyfin.finset, "pullback", raw_pullback)
        monkeypatch.setattr(polyfin.poly, "pullback", raw_pullback)
        _assert_caught(run_law("units", CFG))

    def test_swapped_components_caught(self, monkeypatch):
        real_associator = polyfin.poly.associator

        def mutant_associator(r, q, p):
            a = real_associator(r, q, p)
            return CartesianMorphism(a.src_poly, a.tgt_poly, a.f1, a.f0)

        monkeypatch.setattr(polyfin.laws, "associator", mutant_associator)
        monkeypatch.setattr(polyfin.extension, "associator",
                            mutant_associator)
        _assert_caught(run_law("associativity", CFG))
        _assert_caught(run_law("coherence", CFG))


def test_checker_exception_is_recorded_per_case(monkeypatch, tmp_path):
    """A checker that raises something outside the package's own errors
    fails that case alone; the other cases still run and `check` exits 1."""
    from polyfin import cli

    doc, real = LAWS["units"]
    calls = []

    def flaky(rng, size):
        calls.append(len(calls))
        if len(calls) == 2:
            raise TypeError("unsupported operand in checker")
        return real(rng, size)

    monkeypatch.setitem(LAWS, "units", (doc, flaky))
    report = run_law("units", CFG)
    assert calls == list(range(CFG.cases))
    assert report.failures == [{"case": 1, "detail": {
        "error": "TypeError", "message": "unsupported operand in checker"}}]

    calls.clear()
    out = tmp_path / "report.json"
    rc = cli.main(["check", "--law", "units", "--seed", "1", "--cases", "3",
                   "-o", str(out)])
    assert rc == 1
    data = json.loads(out.read_text())
    assert data["failures_total"] == 1
    assert data["reports"][0]["failures"][0]["case"] == 1
