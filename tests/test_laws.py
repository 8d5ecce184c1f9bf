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
import dataclasses
import inspect
import json
import sys
from pathlib import Path

import pytest

import polyfin
import polyfin.extension
import polyfin.finset
import polyfin.laws
import polyfin.poly
import polyfin.slices
from polyfin import cli, gen
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


def test_every_export_is_reached_by_a_law_or_a_command(tmp_path, capsys):
    """No dead exports: every function the package exports is called, and
    every exported class with its own __init__ is constructed, by the law
    run or the README's command block, with no allowlist."""
    def at(name):
        return str(tmp_path / name)

    runs = [
        ["check", "--law", "all", "--seed", "42", "--cases", "1"],
        ["encode", "x^3y + 2 ; 3x^2z + y", "--in", "w,x,y,z", "-o", at("p")],
        ["decode", at("p")],
        ["eval", at("p"), "--assign", "w=7,x=2,y=3,z=5"],
        ["eval", at("p"), "--assign", "w=1,x=1,y=1,z=1", "--trace"],
        ["encode", "x^2", "--in", "x", "--out", "y", "-o", at("sq")],
        ["encode", "y^3 + 1", "--in", "y", "--out", "z", "-o", at("cube")],
        ["compose", at("sq"), at("cube"), "-o", at("comp")],
        ["decode", at("comp")],
        ["list-laws"],
    ]
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        codes = [cli.main(argv) for argv in runs]
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert codes == [0] * len(runs)
    unreached = []
    for name in polyfin.__all__:
        obj = getattr(polyfin, name)
        if not getattr(obj, "__module__", "").startswith("polyfin"):
            continue
        if inspect.isfunction(obj):
            code = obj.__code__
        elif (inspect.isclass(obj) and not issubclass(obj, BaseException)
              and "__init__" in vars(obj)):
            code = obj.__init__.__code__
        else:
            continue
        if code not in called:
            unreached.append(name)
    assert not unreached, f"exports no law or command reaches: {unreached}"


def test_every_private_helper_has_a_caller():
    """No dead helpers: each module-level function or class named with one
    leading underscore is referenced somewhere in the package outside its
    own definition, so a fold that leaves a helper without callers fails
    here, naming it."""
    trees = [ast.parse(path.read_text())
             for path in Path(polyfin.laws.__file__).parent.glob("*.py")]
    helpers = {node: node.name for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_")
               and not node.name.startswith("__")}

    def references(root):
        return [n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(root)
                if isinstance(n, (ast.Name, ast.Attribute))]

    used = [name for tree in trees for name in references(tree)]
    dead = sorted(name for node, name in helpers.items()
                  if used.count(name) == references(node).count(name))
    assert not dead, f"private helpers nothing calls: {dead}"


def test_records_store_no_set_their_maps_determine():
    """Each fact is stored once: a record of maps keeps no set field, since
    every set it needs is a domain or codomain of one of its maps.
    PullbackSquare is exempt by name and keeps its apex: the acceptance
    suite's unnormalized-pullback mutant builds one positionally, apex
    first, and the acceptance tests are the fixed contract."""
    records = (polyfin.poly.Polynomial, polyfin.poly.SubdividedComposite,
               polyfin.slices.DistPB, polyfin.extension.EvalTrace,
               polyfin.poly.TerminalTower)
    for record in records:
        for f in dataclasses.fields(record):
            assert "FinSetObj" not in str(f.type), (record.__name__, f.name)


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
