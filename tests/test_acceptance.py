"""Acceptance suite: one test per criterion, printing a pass line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  All tolerances are exact; every suite stays well under a minute
at the pinned sizes.
"""

import hashlib
import json

import polyfin.extension
import polyfin.laws
import polyfin.slices
from polyfin import gen
from polyfin.finset import FinFn, FinSetObj
from polyfin.gen import InstanceGenConfig
from polyfin.laws import run_law
from polyfin.poly import CartesianMorphism
from polyfin.slices import (
    check_dpb_terminal,
    delta_component,
    terminal_slice,
)
from polyfin.symbolic import encode, parse_poly

from support import dropped_section_pi


def _report_line(num, label, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {num:2d} {status}: {label}{suffix}")
    assert ok, f"criterion {num} failed: {label}"


def _run(num, label, law, seed, cases, size=3):
    report = run_law(law, InstanceGenConfig(seed=seed, max_set_size=size,
                                            cases=cases))
    extra = f"{report.cases} cases, {report.wall_time_s}s"
    if report.failures:
        print(json.dumps(report.failures[0], indent=2)[:800])
    _report_line(num, label, report.passed, extra)


def test_01_worked_example_exactness():
    p = encode(parse_poly("x^3*y + 2 ; 3*x^2*z + y",
                          in_vars=["w", "x", "y", "z"]))
    ok = len(p.mid_src) == 14 and len(p.mid_tgt) == 7
    _report_line(1, "usage/summand cardinalities are 14 and 7", ok)


def test_02_oracle_agreement_200():
    _run(2, "counting evaluation equals arithmetic on 200 pairs",
         "oracle-agreement", seed=2024, cases=200)


def test_03_adjunction_suites_100():
    _run(3, "both adjunction hom-bijections on 100 instances",
         "adjunctions", seed=31, cases=100, size=4)


def test_04_terminality_criterion_100():
    rng = gen.Draws("acceptance-4")
    non_terminal = 0
    failures = 0
    for _ in range(100):
        d = gen.rand_dpb(rng, 3)
        kind = rng.choice(["genuine", "genuine", "duplicate", "shrink"])
        if kind == "duplicate":
            d = gen.duplicate_dpb(d, rng) or d
        elif kind == "shrink":
            d = gen.shrink_dpb(d, rng) or d
        terminal = check_dpb_terminal(d)
        if not terminal:
            non_terminal += 1
        z_dom = d.around_g.dom
        bij_all = all(delta_component(d, z).is_bijective
                      for z in gen.probe_slices(z_dom, 2))
        bij_one = delta_component(d, terminal_slice(z_dom)).is_bijective
        if terminal and not bij_all:
            failures += 1
        if not terminal and bij_one:
            failures += 1
    ok = failures == 0 and non_terminal >= 10
    _report_line(4, "terminality equivalent to bijective comparison",
                 ok, f"{non_terminal} non-terminal instances, "
                     f"{failures} failures")


def test_05a_composition_cancellation_50():
    _run(5, "composition/cancellation shape on 50 instances",
         "comp-cancel", seed=55, cases=50)


def test_05b_cube_shape_50():
    _run(5, "cube shape on 50 instances", "cube", seed=56, cases=50)


def test_06a_strict_units_100():
    _run(6, "strict unit laws on 100 instances", "units", seed=61,
         cases=100)


def test_06b_associators_50():
    _run(6, "invertible cartesian associators on 50 triples",
         "associativity", seed=62, cases=50)


def test_06c_pentagon_exact():
    _run(6, "pentagon commutes pointwise exactly", "pentagon", seed=63,
         cases=20)


def test_07_homomorphism_coherence_50():
    _run(7, "composite-evaluation comparison natural and coherent on 50 "
            "triples", "coherence", seed=70, cases=50)


def test_08a_faithful_50():
    _run(8, "distinct morphisms separated by the two probes on 50 pairs",
         "faithful", seed=80, cases=50)


def test_08b_conservative_50():
    _run(8, "bijective probes imply invertibility on 50 instances",
         "conservative", seed=81, cases=50)


def test_09_hom_pullbacks_50():
    _run(9, "hom pullbacks via the 1-component criterion on 50 instances",
         "hom-pullback", seed=90, cases=50)


def test_10_substitution_50():
    _run(10, "composition of encodings is substitution on 50 pairs",
         "substitution", seed=100, cases=50)


class TestCriterion11MutationSensitivity:
    CFG = InstanceGenConfig(seed=111, max_set_size=3, cases=15)
    # SHA-256 of each mutant's failures, pinned from a known-good build.
    # The failures serialize the drawn instances, so a shifted draw changes
    # a digest; a clean report has no failures and could pin nothing.
    FAILURE_DIGESTS = {
        "delta-criterion":
            "a6018cabdf0ffe13cf70b6432db700a994e1c6836cf9ea0683e1d2e7d8da707e",
        "units":
            "b07f323dea830cc54e6456e4524cd4b044c14288a97f9ca0789b665d532626b0",
        "associativity":
            "f4de72b767bfdfa6b53cd8ad337ced59aade3d2a692e581ab98911b52cba9b0c",
    }

    def _caught(self, name):
        report = run_law(name, self.CFG)
        assert not report.passed
        text = json.dumps(report.failures, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == \
            self.FAILURE_DIGESTS[name]
        return f"caught by {name}"

    def test_11a_dropped_section(self, monkeypatch):
        monkeypatch.setattr(polyfin.slices, "pi",
                            dropped_section_pi(polyfin.slices.pi))
        extra = self._caught("delta-criterion")
        _report_line(11, "dropped section table detected", True, extra)

    def test_11b_unnormalized_identity_pullback(self, monkeypatch):
        from polyfin.errors import NotComposable
        from polyfin.finset import Pair, PullbackSquare

        def raw_pullback(f, g):
            if f.cod != g.cod:
                raise NotComposable("legs must share a codomain")
            elems = [Pair(a, b) for a in f.dom for b in g.dom
                     if f(a) == g(b)]
            apex = FinSetObj(elems)
            return PullbackSquare(
                apex, FinFn(apex, f.dom, [(e, e.left) for e in apex]),
                FinFn(apex, g.dom, [(e, e.right) for e in apex]), f, g)

        monkeypatch.setattr(polyfin.finset, "pullback", raw_pullback)
        monkeypatch.setattr(polyfin.poly, "pullback", raw_pullback)
        extra = self._caught("units")
        _report_line(11, "non-normalized identity pullback detected", True,
                     extra)

    def test_11c_swapped_components(self, monkeypatch):
        import polyfin.poly
        real_associator = polyfin.poly.associator

        def mutant(r, q, p):
            a = real_associator(r, q, p)
            return CartesianMorphism(a.src_poly, a.tgt_poly, a.f1, a.f0)

        monkeypatch.setattr(polyfin.laws, "associator", mutant)
        extra = self._caught("associativity")
        _report_line(11, "transposed morphism components detected", True,
                     extra)
