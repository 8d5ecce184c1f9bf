"""Pinned CLI output: the SHA-256 of bytes that refactors must not change.

The eval and compose digests were taken from the CLI before
dependent-product sections were numbered on positions, and the law report
digest before terminal towers were shared within a law case.  A change
that alters any of these outputs, by a byte, has to say why and re-pin
them.
"""

import hashlib
import json

import pytest

from polyfin import cli

WORKED = "x^3y + 2 ; 3x^2z + y"

EVAL_TRACE_SHA256 = {
    "1,1,1,1":
        "103371c0f5d34a21f23c4f08e76516a11ec8cbeb31bb4cdc50664ee85f4c8908",
    "2,2,3,2":
        "00e65b6f84a9475cf1d715fc78ccdd64bfd781dcfbc09a07fa071b5ee5ad8aa2",
    "3,0,2,1":
        "877d9baf4c8fd18a0a6ad314a5974603b11e67760bcf02af8aec0783db458543",
}

COMPOSE_SHA256 = (
    "7a41bb783b79ce047c8d823bfb83dc65f8133f69326a8db748cda0b8af06f031")

# json.dumps(report, sort_keys=True) of check --law all --seed 42 --size 3
# --cases 10, with every wall_time_s removed.
LAW_REPORT_SHA256 = (
    "e67eaba57ce4a260cc992fac232797b034f70abcaee196c5bf1537f44908509e")


def _sha256_of_run(path, *argv):
    assert cli.main([*argv, "-o", str(path)]) == 0
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("values", sorted(EVAL_TRACE_SHA256))
def test_eval_trace_of_the_worked_example(tmp_path, values):
    diagram = tmp_path / "worked.json"
    assert cli.main(["encode", WORKED, "--in", "w,x,y,z",
                     "-o", str(diagram)]) == 0
    assign = ",".join(f"{v}={n}" for v, n in zip("wxyz", values.split(",")))
    digest = _sha256_of_run(tmp_path / "eval.json", "eval", str(diagram),
                            "--assign", assign, "--trace")
    assert digest == EVAL_TRACE_SHA256[values]


def test_compose_of_three_links(tmp_path):
    links = []
    for i, (text, var, out) in enumerate((("y^2+y+1", "y", "x"),
                                          ("x^2+x", "x", "y"),
                                          ("y^2+y+1", "y", "x"))):
        links.append(str(tmp_path / f"link{i}.json"))
        assert cli.main(["encode", text, "--in", var, "--out", out,
                         "-o", links[-1]]) == 0
    digest = _sha256_of_run(tmp_path / "composite.json", "compose", *links)
    assert digest == COMPOSE_SHA256


def test_law_report_apart_from_wall_time(tmp_path):
    path = tmp_path / "report.json"
    assert cli.main(["check", "--law", "all", "--seed", "42", "--size", "3",
                     "--cases", "10", "-o", str(path)]) == 0
    report = json.loads(path.read_text())
    for entry in report["reports"]:
        del entry["wall_time_s"]
    digest = hashlib.sha256(
        json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == LAW_REPORT_SHA256
