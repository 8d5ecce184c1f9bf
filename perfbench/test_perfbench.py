"""Self-tests of the benchmark.

Run from the root of a checkout with

    python3 -m pytest -q perfbench/test_perfbench.py

They shrink the workloads to tiny sizes, so they say nothing about speed:
they check that every workload runs and passes its oracle, that the oracle
catches an injected defect, that traced runs pass the same oracle and
account for all operation time, and that the runner keeps the driver's
output contract.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_program()

import polyfin.finset  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from polyfin.finset import FinFn, FinSetObj, PullbackSquare  # noqa: E402

TINY = {
    "BAND": (2, 3, 4),
    "CHAIN_LINKS": ("x^2+x", "y^2+1"),
    "IO_LINKS": ("y^2+1", "x+1"),
    "LAW_CASES": 1,
}


@pytest.fixture
def tiny(monkeypatch):
    for name, value in TINY.items():
        monkeypatch.setattr(workloads, name, value)


def _run_tiny(name, workdir, tracer=None, seconds=0.0):
    wl = workloads.WORKLOADS[name](3, workdir)
    inp, result = run.warm_up(wl)
    wl.check(inp, result)
    return wl, run.loop(wl, seconds, tracer)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_passes_oracle(name, tiny, tmp_path):
    _, ops = _run_tiny(name, tmp_path, seconds=0.2)
    assert ops and all(o.error is None for o in ops), [o.error for o in ops]
    m = run.e2e_metrics(ops, [0.5])
    assert m["error_rate"][0] == 0
    assert all(m[k][0] is not None for k in run.CONTRACT_E2E)


def test_compose_io_reports_readback(tiny, tmp_path):
    _, ops = _run_tiny("compose-io", tmp_path)
    m = run.e2e_metrics(ops, [0.5])
    assert m["output_mb"][0] > 0
    assert 0 <= m["readback_mismatch_rate"][0] <= 1


def test_dropped_apex_element_is_caught(tiny, tmp_path, monkeypatch):
    real = polyfin.finset.pullback

    def mutant(f, g):
        sq = real(f, g)
        if sq.apex is f.dom or sq.apex is g.dom or len(sq.apex) < 2:
            return sq
        keep = sq.apex.elements[:-1]
        apex = FinSetObj(keep)
        return PullbackSquare(
            apex, FinFn(apex, f.dom, [(e, sq.proj1(e)) for e in keep]),
            FinFn(apex, g.dom, [(e, sq.proj2(e)) for e in keep]), f, g)

    wl = workloads.WORKLOADS["eval-worked"](3, tmp_path)
    run.warm_up(wl)
    monkeypatch.setattr(polyfin.finset, "pullback", mutant)
    ops = run.loop(wl, 0.0)
    m = run.e2e_metrics(ops, [0.5])
    assert m["error_rate"][0] > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_passes_oracle_and_accounts(name, tiny, tmp_path):
    tracer = tracing.Tracer()
    _, ops = _run_tiny(name, tmp_path, tracer)
    assert any(o.traced for o in ops) and any(not o.traced for o in ops)
    assert all(o.error is None for o in ops), [o.error for o in ops]
    # Wrappers are gone again.
    assert not hasattr(polyfin.finset.pullback, "__wrapped__")
    assert not hasattr(FinFn.__init__, "__wrapped__")
    st = tracer.self_times()
    op_ns = st[tracing.ROOT_SPAN][1]
    assert sum(row[2] for row in st.values()) == op_ns
    contract, _ = run.layer_metrics(tracer, ops)
    assert contract["finset.FinFn.calls"][0] > 0
    tracer.write(tmp_path / "spans")
    spans = tracing.load_spans(tmp_path / "spans")
    assert len(spans["start"]) == len(tracer.start)
    assert spans["names"] == tracer.names


def _benchmark_json():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_matches_benchmark_json(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "eval-worked",
         "--seed", "1", "--seconds", "0.1", "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = _benchmark_json()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()}


def test_refuses_to_run_without_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "eval-worked",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
