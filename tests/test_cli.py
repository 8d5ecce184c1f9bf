"""Command-line surface: outputs, exit codes, determinism."""

import argparse
import io
import json
import os
import re
import resource
import subprocess
import sys
from collections import Counter

import pytest

import polyfin
from polyfin import cli, jsonio
from polyfin.cli import main
from polyfin.errors import ParseError
from polyfin.extension import eval_obj
from polyfin.finset import Atom
from polyfin.laws import LAWS
from polyfin.poly import compose_seq

from support import recorded_builds

EXPR = "x^3y + 2 ; 3x^2z + y"


def _child_env():
    """The environment for a child python that imports this polyfin."""
    src = os.path.dirname(os.path.dirname(polyfin.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEncode:
    def test_worked_example(self, capsys, tmp_path):
        out_file = tmp_path / "p.json"
        code, _, _ = run(capsys, "encode", EXPR, "--in", "w,x,y,z",
                         "-o", str(out_file))
        assert code == 0
        data = json.loads(out_file.read_text())
        assert len(data["A"]) == 14
        assert len(data["B"]) == 7

    def test_single_variable(self, capsys):
        code, out, _ = run(capsys, "encode", "x", "--in", "x")
        assert code == 0
        data = json.loads(out)
        assert len(data["A"]) == 1 and len(data["B"]) == 1

    def test_parse_error_exits_2(self, capsys):
        code, _, err = run(capsys, "encode", "x +", "--in", "x")
        assert code == 2
        assert "parse error" in err

    @pytest.mark.parametrize("argv", [("x", "--in", "x,x"),
                                      ("x ; x", "--out", "y,y")])
    def test_repeated_name_exits_2(self, capsys, argv):
        code, out, err = run(capsys, "encode", *argv)
        assert code == 2 and out == ""
        assert err.startswith("parse error") and "Traceback" not in err
        assert "is repeated" in err

    @pytest.mark.parametrize("text, sizes", [
        ("x^99999999", "|A| >= 99999999 and |B| >= 1"),
        ("99999999x", "|A| >= 99999999 and |B| >= 99999999")])
    def test_huge_term_exits_2_under_a_memory_cap(self, text, sizes):
        """Both sizes come from the tokens, before any list is built: under
        a 1.5 GB address-space cap, set in the child only, encode exits 2
        within a second of CPU time and writes no traceback."""
        cap = 1536 << 20
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        proc = subprocess.run(
            [sys.executable, "-m", "polyfin", "encode", text],
            env=_child_env(), capture_output=True, text=True, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                  (cap, cap)))
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("parse error: ")
        assert sizes in proc.stderr and "Traceback" not in proc.stderr
        assert (after.ru_utime + after.ru_stime
                - before.ru_utime - before.ru_stime) < 1

    @pytest.mark.parametrize("text, position", [("x^" + "9" * 5000, 2),
                                                ("9" * 5000 + "x", 0)],
                             ids=["exponent", "coefficient"])
    def test_number_too_long_to_read_exits_2(self, capsys, text, position):
        code, out, err = run(capsys, "encode", text)
        assert code == 2 and out == ""
        assert err.startswith("parse error: ") and "Traceback" not in err
        assert f"(at position {position})" in err

    def test_leading_zeros_are_read(self, capsys):
        assert run(capsys, "encode", "x^007 + 03x")[:2] == run(
            capsys, "encode", "x^7 + 3x")[:2]


class TestDecode:
    def test_roundtrip(self, capsys, tmp_path):
        out_file = tmp_path / "p.json"
        run(capsys, "encode", EXPR, "--in", "w,x,y,z", "-o", str(out_file))
        code, out, _ = run(capsys, "decode", str(out_file))
        assert code == 0
        data = json.loads(out)
        assert data["text"] == "2 + x^3*y ; 3*x^2*z + y"

    def test_bad_json_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code, _, _ = run(capsys, "decode", str(bad))
        assert code == 2

    def test_reads_stdin(self, capsys, monkeypatch):
        _, text, _ = run(capsys, "encode", EXPR, "--in", "w,x,y,z")
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, _ = run(capsys, "decode", "-")
        assert code == 0
        assert json.loads(out)["text"] == "2 + x^3*y ; 3*x^2*z + y"


NOT_UTF8 = b'{"version": 2, "nodes": [["atom", "\xff"]]}'


class TestUnreadableInput:
    """Input that is not UTF-8 exits 2 with a parse error, whichever
    command reads it and whether it comes from a file or from stdin."""

    @pytest.mark.parametrize("argv", [["decode"], ["compose"],
                                      ["eval", "--assign", "x=2"]])
    def test_file_not_utf8_exits_2(self, capsys, tmp_path, argv):
        bad = tmp_path / "bad.json"
        bad.write_bytes(NOT_UTF8)
        code, out, err = run(capsys, argv[0], str(bad), *argv[1:])
        assert code == 2 and out == ""
        assert err.startswith(f"parse error: cannot read {bad}")
        assert "Traceback" not in err

    def test_stdin_not_utf8_exits_2(self, capsys, monkeypatch):
        # A C-locale stdin, which decodes with surrogateescape.
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
            io.BytesIO(NOT_UTF8), encoding="utf-8", errors="surrogateescape"))
        code, out, err = run(capsys, "decode", "-")
        assert code == 2 and out == ""
        assert err.startswith("parse error: cannot read -")


class TestUnwritableOutput:
    """An -o that cannot be opened for writing exits 2 and names it."""

    @pytest.mark.parametrize("where", ["missing/x.json", "."])
    def test_exits_2(self, capsys, tmp_path, where):
        target = tmp_path / where
        code, out, err = run(capsys, "encode", "x^2", "-o", str(target))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {target}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [["list-laws"], ["encode", "x^2"]])
    def test_closed_stdout_exits_2(self, argv):
        # The read end of the child's stdout pipe is closed before it
        # writes, so its writes fail with a broken pipe.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "polyfin.cli", *argv], env=_child_env(),
                stdout=write_end, stderr=subprocess.PIPE, timeout=60)
        finally:
            os.close(write_end)
        err = proc.stderr.decode()
        assert proc.returncode == 2
        assert err.startswith("error: cannot write <stdout>: ")
        assert "Traceback" not in err and "Exception ignored" not in err


# "x^2 + x" --in x as written before payloads carried a version.
V1_FIXTURE = {
    "src": ["x"], "A": ["m0.u0", "m1.u0", "m1.u1"], "B": ["m0", "m1"],
    "tgt": ["out1"],
    "p1": {"dom": ["m0.u0", "m1.u0", "m1.u1"], "cod": ["x"],
           "map": [["m0.u0", "x"], ["m1.u0", "x"], ["m1.u1", "x"]]},
    "p2": {"dom": ["m0.u0", "m1.u0", "m1.u1"], "cod": ["m0", "m1"],
           "map": [["m0.u0", "m0"], ["m1.u0", "m1"], ["m1.u1", "m1"]]},
    "p3": {"dom": ["m0", "m1"], "cod": ["out1"],
           "map": [["m0", "out1"], ["m1", "out1"]]},
}


def _encoded(capsys, tmp_path, text="x^2 + x"):
    path = tmp_path / "p.json"
    run(capsys, "encode", text, "--in", "x", "-o", str(path))
    return path, json.loads(path.read_text())


def _decode_fails(capsys, tmp_path, data):
    """Decode data from a file: exit 2 with a parse error, no traceback."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, _, err = run(capsys, "decode", str(bad))
    assert code == 2
    assert err.startswith("parse error") and "Traceback" not in err
    return err


def _decodes_to(capsys, tmp_path, data):
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "decode", str(path))
    assert code == 0
    return json.loads(out)["text"]


class TestReaderRejects:
    """Files without a version, and elements nested past the recursion
    limit, exit 2 with a parse error, never with a traceback."""

    def test_fixture_loads(self, capsys, tmp_path):
        """A version-less file no longer loads, whichever command reads it."""
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(V1_FIXTURE))
        for argv in (["decode", str(path)], ["compose", str(path)],
                     ["eval", str(path), "--assign", "x=2"]):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert err.startswith("parse error") and "Traceback" not in err
            assert "only version 2 is read" in err

    def test_deeply_nested_element(self, capsys, tmp_path):
        """Comparing two chains of pair nodes deeper than the recursion
        limit, equal but for their innermost atom, is a parse error."""
        _, data = _encoded(capsys, tmp_path)
        nodes = data["nodes"]
        nodes.append(["atom", "w"])
        partner, chains = len(nodes) - 1, []
        for bottom in ("u", "v"):
            nodes.append(["atom", bottom])
            for _ in range(sys.getrecursionlimit() + 100):
                nodes.append(["pair", len(nodes) - 1, partner])
            chains.append(len(nodes) - 1)
        data["src"] = chains
        with pytest.raises(ParseError, match="nested too deeply"):
            jsonio.poly_from_json(data)
        bad = tmp_path / "deep.json"
        bad.write_text(json.dumps(data))
        code, _, err = run(capsys, "decode", str(bad))
        assert code == 2
        assert "nested too deeply" in err and "Traceback" not in err

    def test_deeply_nested_text(self, capsys, tmp_path):
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 100_000 + "]" * 100_000)
        code, _, err = run(capsys, "decode", str(bad))
        assert code == 2
        assert "nested too deeply" in err and "Traceback" not in err


class TestReaderRejectsV2:
    """Malformed version-2 files exit 2, never with a traceback."""

    def test_written_file_is_version_2(self, capsys, tmp_path):
        _, data = _encoded(capsys, tmp_path)
        assert data["version"] == 2
        assert sorted(n[0] for n in data["nodes"]) == ["atom"] * 7
        assert _decodes_to(capsys, tmp_path, data) == "x + x^2"

    @pytest.mark.parametrize("bad_map", [5, {"a": "b"}, "ab", None])
    def test_map_not_an_array(self, capsys, tmp_path, bad_map):
        _, data = _encoded(capsys, tmp_path)
        data["p2"]["map"] = bad_map
        assert "map must be an array" in _decode_fails(capsys, tmp_path, data)

    @pytest.mark.parametrize("name", ["src", "A", "B", "tgt"])
    def test_set_that_disagrees_with_the_legs(self, capsys, tmp_path, name):
        _, data = _encoded(capsys, tmp_path)
        data[name] = data[name][:-1]
        err = _decode_fails(capsys, tmp_path, data)
        assert f"{name} does not match" in err

    def test_inconsistent_sets_from_the_report(self, capsys, tmp_path):
        _, data = _encoded(capsys, tmp_path)
        data["A"], data["src"] = data["A"][:1], []
        _decode_fails(capsys, tmp_path, data)

    def test_reordered_sets_still_load(self, capsys, tmp_path):
        _, data = _encoded(capsys, tmp_path)
        written = jsonio.poly_from_json(data)
        data["A"] = data["A"][::-1]
        assert _decodes_to(capsys, tmp_path, data) == "x + x^2"
        p2 = data["p2"]
        p2["dom"], p2["map"] = p2["dom"][::-1], p2["map"][::-1]
        p2["cod"] = p2["cod"][::-1]
        p2["map"] = [len(p2["cod"]) - 1 - j for j in p2["map"]]
        assert _decodes_to(capsys, tmp_path, data) == "x + x^2"
        assert jsonio.poly_from_json(data) == written

    def test_duplicated_domain_element(self, capsys, tmp_path):
        _, data = _encoded(capsys, tmp_path)
        data["p1"]["dom"].append(data["p1"]["dom"][0])
        data["p1"]["map"].append(0)
        assert "duplicate element" in _decode_fails(capsys, tmp_path, data)

    def test_truncated_cod(self, capsys, tmp_path):
        _, data = _encoded(capsys, tmp_path)
        data["p2"]["cod"] = data["p2"]["cod"][:1]
        err = _decode_fails(capsys, tmp_path, data)
        assert "positions in cod" in err

    @pytest.mark.parametrize("node_id", [-1, 7, 99, 1.0, True, "0", None])
    def test_node_id_out_of_range(self, capsys, tmp_path, node_id):
        _, data = _encoded(capsys, tmp_path)
        data["A"][0] = node_id
        assert "node id" in _decode_fails(capsys, tmp_path, data)

    @pytest.mark.parametrize("node", [["pair", 7, 0], ["pair", 0, 7],
                                      ["pair", -1, 0], ["sect", [[0, 7]]],
                                      ["sect", [[8, 0]]]])
    def test_node_refers_forward(self, capsys, tmp_path, node):
        _, data = _encoded(capsys, tmp_path)
        data["nodes"].append(node)
        assert "node id" in _decode_fails(capsys, tmp_path, data)

    @pytest.mark.parametrize("node", [["tuple", 0, 0], ["atom", 5], ["atom"],
                                      ["pair", 0], [], "x", ["sect", [[0]]]])
    def test_unknown_node(self, capsys, tmp_path, node):
        _, data = _encoded(capsys, tmp_path)
        data["nodes"].append(node)
        _decode_fails(capsys, tmp_path, data)

    @pytest.mark.parametrize("version", [1, 3, "2", 2.0, None])
    def test_unknown_version(self, capsys, tmp_path, version):
        _, data = _encoded(capsys, tmp_path)
        data["version"] = version
        assert "unknown version" in _decode_fails(capsys, tmp_path, data)

    @pytest.mark.parametrize("entry", [True, 0.0, "0", None, [0]])
    def test_map_entry_not_an_int(self, capsys, tmp_path, entry):
        _, data = _encoded(capsys, tmp_path)
        data["p1"]["map"][0] = entry
        assert "positions in cod" in _decode_fails(capsys, tmp_path, data)

    @pytest.mark.parametrize("entry", [-1, 1])
    def test_map_entry_outside_cod(self, capsys, tmp_path, entry):
        _, data = _encoded(capsys, tmp_path)
        data["p1"]["map"][0] = entry
        assert "positions in cod" in _decode_fails(capsys, tmp_path, data)

    @pytest.mark.parametrize("change", [-1, 1])
    def test_map_length_differs_from_dom(self, capsys, tmp_path, change):
        _, data = _encoded(capsys, tmp_path)
        m = data["p2"]["map"]
        data["p2"]["map"] = m[:-1] if change < 0 else m + [0]
        assert "differ in length" in _decode_fails(capsys, tmp_path, data)


class TestDeeplyNestedElements:
    """Elements nested deeper than the recursion limit are written too."""

    def _deep(self, capsys, tmp_path, depth=100_000):
        _, data = _encoded(capsys, tmp_path)
        nodes = data["nodes"]
        inner = nodes.index(["atom", "m0.u0"])
        nodes.append(["atom", "w"])
        partner, cur = len(nodes) - 1, inner
        for _ in range(depth):
            nodes.append(["pair", cur, partner])
            cur = len(nodes) - 1
        for ids in (data["A"], data["p1"]["dom"], data["p2"]["dom"]):
            ids[ids.index(inner)] = cur
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(data))
        return path

    def test_compose_then_decode(self, capsys, tmp_path):
        deep = self._deep(capsys, tmp_path)
        out = tmp_path / "comp.json"
        code, _, err = run(capsys, "compose", str(deep), "-o", str(out))
        assert code == 0, err
        code, stdout, _ = run(capsys, "decode", str(out))
        assert code == 0
        assert json.loads(stdout)["text"] == "x + x^2"

    def test_eval_trace(self, capsys, tmp_path):
        deep = self._deep(capsys, tmp_path)
        code, out, err = run(capsys, "eval", str(deep), "--assign", "x=2",
                             "--trace")
        assert code == 0, err
        data = json.loads(out)
        assert data["counts"] == {"out1": 6} and "C3" in data["trace"]


class TestCompose:
    def test_output_is_json_dumps_of_the_composite(self, capsys, tmp_path):
        f1, f2 = tmp_path / "p.json", tmp_path / "q.json"
        run(capsys, "encode", "x^2 + x", "--in", "x", "--out", "y",
            "-o", str(f1))
        run(capsys, "encode", "y^2 + y + 1", "--in", "y", "--out", "z",
            "-o", str(f2))
        out = tmp_path / "comp.json"
        code, _, _ = run(capsys, "compose", str(f1), str(f2), "-o", str(out))
        assert code == 0
        links = [jsonio.poly_from_json(json.loads(f.read_text()))
                 for f in (f1, f2)]
        expected = json.dumps(jsonio.poly_to_json(compose_seq(links)),
                              indent=2, sort_keys=True) + "\n"
        assert out.read_text() == expected
        code, stdout, _ = run(capsys, "compose", str(f1), str(f2))
        assert code == 0 and stdout == expected

    def test_substitution_pipeline(self, capsys, tmp_path):
        f1 = tmp_path / "sq.json"
        f2 = tmp_path / "cube.json"
        f3 = tmp_path / "comp.json"
        run(capsys, "encode", "x^2", "--in", "x", "--out", "y",
            "-o", str(f1))
        run(capsys, "encode", "y^3 + 1", "--in", "y", "--out", "z",
            "-o", str(f2))
        code, _, _ = run(capsys, "compose", str(f1), str(f2), "-o", str(f3))
        assert code == 0
        code, out, _ = run(capsys, "decode", str(f3))
        assert json.loads(out)["text"] == "1 + x^6"

    def test_single_file_unchanged(self, capsys, tmp_path):
        f1 = tmp_path / "p.json"
        run(capsys, "encode", "x^2 + x", "--in", "x", "-o", str(f1))
        code, out, _ = run(capsys, "compose", str(f1))
        assert code == 0
        assert json.loads(out) == json.loads(f1.read_text())

    def test_boundary_mismatch_exits_3(self, capsys, tmp_path):
        f1 = tmp_path / "p.json"
        run(capsys, "encode", "x^2", "--in", "x", "-o", str(f1))
        code, _, err = run(capsys, "compose", str(f1), str(f1))
        assert code == 3
        assert "composition error" in err


class TestEval:
    def test_worked_example(self, capsys, tmp_path):
        f1 = tmp_path / "p.json"
        run(capsys, "encode", EXPR, "--in", "w,x,y,z", "-o", str(f1))
        code, out, _ = run(capsys, "eval", str(f1), "--assign",
                           "x=2,y=3,z=5,w=7")
        assert code == 0
        assert json.loads(out)["counts"] == {"out1": 26, "out2": 63}

    def test_identity_echoes(self, capsys, tmp_path):
        f1 = tmp_path / "p.json"
        run(capsys, "encode", "u ; v", "--in", "u,v", "--out", "u,v",
            "-o", str(f1))
        code, out, _ = run(capsys, "eval", str(f1), "--assign", "u=3,v=4")
        assert code == 0
        assert json.loads(out)["counts"] == {"u": 3, "v": 4}

    def test_missing_variable_exits_4(self, capsys, tmp_path):
        f1 = tmp_path / "p.json"
        run(capsys, "encode", "x", "--in", "x", "-o", str(f1))
        code, _, err = run(capsys, "eval", str(f1), "--assign", "y=1")
        assert code == 4
        assert "evaluation error" in err

    @pytest.mark.parametrize("assign, says", [
        ("x", "bad assignment entry"),
        ("x=two", "not a natural number"),
        ("x=1_0", "not a natural number"),
        ("x=\u0663", "not a natural number"),
        ("x=+3", "not a natural number"),
        ("x=-1", "must not be negative"),
        ("x=1,x=3", "assigned twice"),
        ("=5", "bad assignment entry")])
    def test_malformed_assignment_exits_4(self, capsys, tmp_path, assign,
                                          says):
        f1 = tmp_path / "p.json"
        run(capsys, "encode", "x", "--in", "x", "-o", str(f1))
        code, out, err = run(capsys, "eval", str(f1), "--assign", assign)
        assert code == 4 and out == ""
        assert err.startswith("evaluation error") and says in err
        assert "Traceback" not in err

    def test_unknown_variable_is_ignored(self, capsys, tmp_path):
        f1 = tmp_path / "p.json"
        run(capsys, "encode", "x^2", "--in", "x", "-o", str(f1))
        code, out, _ = run(capsys, "eval", str(f1), "--assign", "x=3")
        code2, out2, _ = run(capsys, "eval", str(f1), "--assign", "x=3,v=7")
        assert code == code2 == 0 and out2 == out
        assert list(json.loads(out)["counts"].values()) == [9]

    def test_non_atom_target_exits_4(self, capsys, tmp_path):
        from polyfin.finset import Atom, FinFn, FinSetObj, Pair, mk_finset
        from polyfin.poly import mk_poly
        a, b = mk_finset(["a"]), mk_finset(["b"])
        src = mk_finset(["x"])
        tgt = FinSetObj([Pair(Atom("o"), Atom("1"))])
        p = mk_poly(FinFn(a, src, idx=[0]), FinFn(a, b, idx=[0]),
                    FinFn(b, tgt, idx=[0]))
        f1 = tmp_path / "p.json"
        f1.write_text(json.dumps(jsonio.poly_to_json(p)), encoding="utf-8")
        code, out, err = run(capsys, "eval", str(f1), "--assign", "x=2")
        assert code == 4 and out == ""
        assert "evaluation error" in err and "not an atom" in err

    def test_counting_builds_no_stage_carrier(self, capsys, tmp_path,
                                              monkeypatch):
        import polyfin.symbolic
        traces = []

        def keep_trace(p, x):
            out, trace = eval_obj(p, x)
            traces.append(trace)
            return out, trace

        monkeypatch.setattr(polyfin.symbolic, "eval_obj", keep_trace)
        f1 = tmp_path / "p.json"
        run(capsys, "encode", EXPR, "--in", "w,x,y,z", "-o", str(f1))
        # The file's sets are read lazily: evaluation builds its src and
        # tgt, which name the variables, and nothing else.
        boundary = [tuple(map(Atom, ("out1", "out2"))),
                    tuple(map(Atom, "wxyz"))]
        with recorded_builds() as built:
            code, out, _ = run(capsys, "eval", str(f1), "--assign",
                               "w=2,x=2,y=3,z=2")
        assert code == 0
        assert json.loads(out)["counts"] == {"out1": 26, "out2": 27}
        assert sorted(built, key=len) == boundary
        # The writer names the stage carriers' elements from their
        # recipes, so writing the trace builds none of them either.
        with recorded_builds() as built:
            code, traced, _ = run(capsys, "eval", str(f1), "--assign",
                                  "w=2,x=2,y=3,z=2", "--trace")
        assert code == 0
        assert json.loads(traced)["counts"] == {"out1": 26, "out2": 27}
        assert sorted(built, key=len) == boundary
        # The recorder does see a build: reading a carrier makes one.
        stages = traces[-1]
        with recorded_builds() as built:
            elements = stages.dpb.X.elements
        assert len(built) >= 1 and built[-1] is elements

    @pytest.mark.parametrize("flags, dpbs", [([], 0), (["--trace"], 1)])
    def test_one_pi_per_evaluation(self, capsys, tmp_path, monkeypatch,
                                   flags, dpbs):
        # eval_obj computes sigma pi delta; the distributivity pullback is
        # built only when --trace reads it, and from the pi already built.
        import polyfin.slices
        import polyfin.symbolic
        calls = Counter()

        def count_calls(module, name):
            real = getattr(module, name)

            def counted(*args):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(module, name, counted)

        count_calls(polyfin.symbolic, "eval_obj")
        for name in ("pi", "dist_pullback", "_dist_pullback_over"):
            count_calls(polyfin.slices, name)
        f1 = tmp_path / "p.json"
        run(capsys, "encode", EXPR, "--in", "w,x,y,z", "-o", str(f1))
        code, out, _ = run(capsys, "eval", str(f1), "--assign",
                           "w=2,x=2,y=3,z=2", *flags)
        assert code == 0
        assert json.loads(out)["counts"] == {"out1": 26, "out2": 27}
        assert calls == Counter(eval_obj=1, pi=1, _dist_pullback_over=dpbs)

    def test_trace_included(self, capsys, tmp_path):
        f1 = tmp_path / "p.json"
        run(capsys, "encode", "x^2", "--in", "x", "-o", str(f1))
        code, out, _ = run(capsys, "eval", str(f1), "--assign", "x=2",
                           "--trace")
        assert code == 0
        data = json.loads(out)
        assert "trace" in data and "C3" in data["trace"]


class TestCheck:
    def test_single_law_passes(self, capsys):
        code, out, _ = run(capsys, "check", "--law", "units", "--seed", "3",
                           "--cases", "20")
        assert code == 0
        data = json.loads(out)
        assert data["failures_total"] == 0

    def test_degenerate_size(self, capsys):
        code, out, _ = run(capsys, "check", "--law", "delta-criterion",
                           "--size", "1", "--cases", "10")
        assert code == 0

    def test_unknown_law(self, capsys):
        code, _, err = run(capsys, "check", "--law", "nonsense")
        assert code == 2

    @pytest.mark.parametrize("flag, value, low", [("--size", "0", 1),
                                                  ("--size", "-3", 1),
                                                  ("--cases", "-1", 0)])
    def test_bad_size_or_count_exits_2_without_a_report(
            self, capsys, tmp_path, flag, value, low):
        report = tmp_path / "report.json"
        with pytest.raises(SystemExit) as excinfo:
            main(["check", "--law", "units", flag, value, "-o", str(report)])
        captured = capsys.readouterr()
        assert excinfo.value.code == 2
        assert captured.out == "" and not report.exists()
        assert "Traceback" not in captured.err
        assert captured.err.splitlines()[-1] == (
            f"polyfin check: error: argument {flag}: "
            f"must be at least {low}, got {value}")

    def test_determinism(self, capsys):
        argv = ["check", "--law", "roundtrip", "--seed", "11",
                "--cases", "25"]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        strip = lambda s: re.sub(r'"wall_time_s": [0-9.e-]+', "T", s)
        assert strip(out1) == strip(out2)

    def test_paranoid_mode(self, capsys):
        # Every run counts its distributivity-pullback mediators, so there
        # is no mode to switch on and the old flag is an unknown argument.
        with pytest.raises(SystemExit) as excinfo:
            main(["check", "--law", "units", "--cases", "3", "--paranoid"])
        captured = capsys.readouterr()
        assert excinfo.value.code == 2 and captured.out == ""
        assert "Traceback" not in captured.err
        assert captured.err.splitlines()[-1] == (
            "polyfin: error: unrecognized arguments: --paranoid")

    def test_paranoid_mode_changes_no_output(self, capsys, monkeypatch):
        # The mediator count that --paranoid used to switch on now runs on
        # every comparison; the report must equal one made without it.
        import polyfin.slices
        calls = []
        check = polyfin.slices._assert_unique_dpb_mediator

        def counted(*args):
            calls.append(1)
            return check(*args)

        argv = ["check", "--law", "all", "--seed", "42", "--cases", "3",
                "--size", "2"]
        monkeypatch.setattr(polyfin.slices, "_assert_unique_dpb_mediator",
                            counted)
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == "" and calls
        monkeypatch.setattr(polyfin.slices, "_assert_unique_dpb_mediator",
                            lambda *args: None)
        _, plain, plain_err = run(capsys, *argv)
        assert plain_err == ""
        strip = lambda s: re.sub(r'"wall_time_s": [0-9.e-]+', "T", s)
        assert strip(out) == strip(plain)

    def test_all_laws_smoke(self, capsys):
        code, out, _ = run(capsys, "check", "--law", "all", "--seed", "5",
                           "--cases", "2", "--size", "2")
        assert code == 0
        data = json.loads(out)
        assert len(data["reports"]) == 21
        assert data["failures_total"] == 0

    def test_failures_give_exit_1(self, capsys, monkeypatch):
        import polyfin.cli
        from polyfin.laws import LawReport

        def failing_run(names, cfg):
            return [LawReport(law=n, cases=1,
                              failures=[{"case": 0, "detail": {}}])
                    for n in names]

        monkeypatch.setattr(polyfin.cli, "run_laws", failing_run)
        code, out, _ = run(capsys, "check", "--law", "units")
        assert code == 1
        assert json.loads(out)["failures_total"] == 1


class TestListLaws:
    def test_lists_all_21(self, capsys):
        code, out, _ = run(capsys, "list-laws")
        assert code == 0
        data = json.loads(out)
        assert len(data) == 21
        for name in ("adjunctions", "delta-criterion", "comp-cancel", "cube",
                     "sections", "units", "associativity", "pentagon",
                     "counits", "spans", "lft-rgt", "projections",
                     "hom-pullback", "functor-laws", "coherence",
                     "cartesian-image", "faithful", "conservative",
                     "oracle-agreement", "roundtrip", "substitution"):
            assert name in data


def _exit(capsys, parse, argv):
    """Exit code, stdout and stderr of parse(argv), which must exit."""
    with pytest.raises(SystemExit) as excinfo:
        parse(argv)
    captured = capsys.readouterr()
    return excinfo.value.code, captured.out, captured.err


class TestParsers:
    """A run builds the named command's parser alone; it must print what
    build_parser() does.  Compared at run time, since argparse's text
    differs between Python versions."""

    @pytest.mark.parametrize("name", [c[0] for c in cli._COMMANDS])
    def test_command_parser_matches_the_subparser(self, name):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        alone = cli._command_parser(name)
        assert alone.format_help() == sub.choices[name].format_help()
        assert alone.format_usage() == sub.choices[name].format_usage()

    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["ev"], ["eval"], ["eval", "-h"],
        ["eval", "f", "--assign"], ["eval", "--", "-x", "--assign", "x=1"],
        ["check", "--size", "0"], ["check", "--paranoid"],
        ["compose"], ["encode", "--in"], ["list-laws", "extra"],
        ["list-laws", "-h"]])
    def test_help_usage_and_errors_match_the_full_parser(self, capsys,
                                                          argv):
        assert _exit(capsys, main, argv) == _exit(
            capsys, lambda a: cli.build_parser().parse_args(a), argv)

    @pytest.fixture
    def built(self, monkeypatch):
        """The prog of every ArgumentParser built, in order."""
        progs = []
        init = argparse.ArgumentParser.__init__

        def recording(parser, *args, **kwargs):
            init(parser, *args, **kwargs)
            progs.append(parser.prog)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", recording)
        return progs

    def test_a_well_formed_run_builds_one_parser(self, capsys, tmp_path,
                                                 built):
        path = tmp_path / "p.json"
        run(capsys, "encode", EXPR, "--in", "w,x,y,z", "-o", str(path))
        code, out, _ = run(capsys, "eval", str(path), "--assign",
                           "w=1,x=2,y=3,z=4", "--trace")
        assert code == 0 and json.loads(out)["counts"]
        assert built == ["polyfin encode", "polyfin eval"]

    def test_leftover_arguments_reach_the_full_parser(self, capsys, built):
        code, _, err = _exit(capsys, main, ["check", "--paranoid"])
        assert code == 2
        assert err.splitlines()[-1] == (
            "polyfin: error: unrecognized arguments: --paranoid")
        assert built[:2] == ["polyfin check", "polyfin"]

    def test_handlers_are_bound_when_the_parser_is_built(self, capsys,
                                                         monkeypatch):
        monkeypatch.setattr(cli, "cmd_list_laws", lambda args: 7)
        assert run(capsys, "list-laws") == (7, "", "")

    def test_python_m_polyfin(self):
        proc = subprocess.run([sys.executable, "-m", "polyfin", "list-laws"],
                              env=_child_env(), capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0 and proc.stderr == ""
        assert json.loads(proc.stdout) == {
            name: desc for name, (desc, _) in LAWS.items()}
