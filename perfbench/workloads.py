"""The four benchmark workloads.

Each workload makes its inputs from the seed in ``setup``, runs one
operation in ``run`` (the only code inside the timed region), and checks
the operation's output against an oracle in ``check``, outside the timed
region.  ``check`` returns the sizes of what the operation built.

Why each workload is in the benchmark:

* ``eval-worked``: evaluation (pullback, then dependent product, then
  post-composition) is the paper's central computation; its time goes to
  large dependent-product carriers, and it never touches composition.
* ``compose-chain``: a four-link composite runs the terminal-tower stages
  and subdivided-composite validation at large sizes, with no JSON and no
  mediation.
* ``compose-io``: the README pipeline ``compose`` then ``decode`` through
  the command line, where JSON writing and reading dominate and the
  composite itself is small.
* ``check-laws``: the 21-law suite runs thousands of tiny instances, so it
  measures per-call overhead, mediation and associators, and shows the
  set-up cost of any index or cache that helps the large-set workloads.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from polyfin import cli, jsonio
from polyfin.finset import Atom, FinFn, FinSetObj
from polyfin.poly import Polynomial, compose_seq, mk_poly
from polyfin.symbolic import (
    SymPoly,
    decode,
    encode,
    eval_sym,
    parse_poly,
    substitute,
)

WORKED_TEXT = "x^3y + 2 ; 3x^2z + y"
WORKED_VARS = ("w", "x", "y", "z")
BAND = (8, 9, 10)
CHAIN_LINKS = ("x^2+x", "y^2+1", "x^2+x", "y^2+1")
IO_LINKS = ("y^2+y+1", "x^2+x", "y^2+y+1")
LAW_SEED = 42
LAW_CASES = 10
LAW_SIZE = 3


def _fresh_token(rng: random.Random, prefix: str, used: set[str]) -> str:
    while True:
        token = f"{prefix}{rng.getrandbits(40):010x}"
        if token not in used:
            used.add(token)
            return token


def _relabel_middle(p: Polynomial, rng: random.Random) -> Polynomial:
    """p with every middle atom renamed through a seeded bijection."""
    used: set[str] = set()
    ren = {e: Atom(_fresh_token(rng, "m", used))
           for e in list(p.mid_src) + list(p.mid_tgt)}
    a = FinSetObj(ren[e] for e in p.mid_src)
    b = FinSetObj(ren[e] for e in p.mid_tgt)
    return mk_poly(FinFn(a, p.src, [(ren[e], v) for e, v in p.p1.graph]),
                   FinFn(a, b, [(ren[e], ren[v]) for e, v in p.p2.graph]),
                   FinFn(b, p.tgt, [(ren[e], v) for e, v in p.p3.graph]))


def relabelled_chain(texts: tuple[str, ...], rng: random.Random
                     ) -> tuple[list[Polynomial], list[SymPoly]]:
    """Alternating x -> y, y -> x links with every atom renamed by rng.

    The two boundary variables get one seeded name each, shared by all
    links; each link's middle atoms get their own seeded names.  Sizes are
    unchanged; sort orders and hash values are not.
    """
    used: set[str] = set()
    names = {v: _fresh_token(rng, "v", used) for v in ("x", "y")}
    links, syms = [], []
    for text in texts:
        src = "x" if "x" in text else "y"
        tgt = "y" if src == "x" else "x"
        parsed = parse_poly(text, in_vars=[src], out_names=[tgt])
        sym = SymPoly((names[src],), (names[tgt],), {names[tgt]: tuple(
            tuple(names[v] for v in mono) for mono in parsed.monomials[tgt])})
        syms.append(sym)
        links.append(_relabel_middle(encode(sym), rng))
    return links, syms


def chain_oracle(syms: list[SymPoly]) -> SymPoly:
    """Iterated substitution: the last link after ... after the first."""
    expected = syms[0]
    for q in syms[1:]:
        expected = substitute(q, expected)
    return expected


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(f"perfbench:{self.name}:{seed}")

    def setup(self) -> None:
        """Make the inputs; runs before the warm-up operation."""

    def warm_input(self):
        """Input of the warm-up operation that ends the set-up."""
        return self.next_input()

    def next_input(self):
        return None

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, result) -> dict:
        """Raise CheckFailed on a wrong output; return the sizes built."""
        raise NotImplementedError

    def sizes(self) -> dict:
        """Input sizes for the run record."""
        return {}


class CheckFailed(Exception):
    pass


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


class EvalWorked(Workload):
    """``polyfin eval`` of the worked example at seeded assignments."""

    name = "eval-worked"

    def setup(self) -> None:
        self.poly_path = self.workdir / "worked.json"
        self.out_path = self.workdir / "counts.json"
        rc = cli.main(["encode", WORKED_TEXT, "--in", ",".join(WORKED_VARS),
                       "-o", str(self.poly_path)])
        _expect(rc == 0, f"encode exited {rc}")
        self.sym = parse_poly(WORKED_TEXT, in_vars=list(WORKED_VARS))
        self._queue: list[dict[str, int]] = []

    def warm_input(self) -> dict[str, int]:
        return {v: BAND[1] for v in WORKED_VARS}

    def next_input(self) -> dict[str, int]:
        # Output size grows like x^3*y, so independent draws would make a
        # run's median depend on the seed more than on the program.  Each
        # block of nine operations is one Graeco-Latin square over the
        # band (every (x, y) pair once, z and w each value three times),
        # cut into three transversals in which x, y and z each take every
        # value once.  Any prefix of the sequence is then within two
        # operations of balanced.  The seed orders the transversals and
        # the operations within each.
        if not self._queue:
            triples = [[(i, (i + t) % 3) for i in range(3)] for t in range(3)]
            self.rng.shuffle(triples)
            for triple in triples:
                self.rng.shuffle(triple)
            self._queue = [{"w": BAND[(i + 2 * j) % 3], "x": BAND[i],
                            "y": BAND[j], "z": BAND[(i + j) % 3]}
                           for triple in triples for i, j in triple]
        return self._queue.pop(0)

    def run(self, inp):
        assign = ",".join(f"{k}={v}" for k, v in sorted(inp.items()))
        return cli.main(["eval", str(self.poly_path), "--assign", assign,
                         "-o", str(self.out_path)])

    def check(self, inp, result) -> dict:
        _expect(result == 0, f"eval exited {result}")
        out = json.loads(self.out_path.read_text(encoding="utf-8"))
        counts = out["counts"]
        _expect(counts == eval_sym(self.sym, inp),
                f"counts {counts} differ from arithmetic at {inp}")
        return {"elems": sum(counts.values())}

    def sizes(self) -> dict:
        return {"band": list(BAND), "text": WORKED_TEXT}


class ComposeChain(Workload):
    """Library ``compose_seq`` on four relabelled quadratic links."""

    name = "compose-chain"

    def setup(self) -> None:
        self.links, syms = relabelled_chain(CHAIN_LINKS, self.rng)
        self.expected = chain_oracle(syms)

    def run(self, inp):
        return compose_seq(self.links)

    def check(self, inp, result) -> dict:
        _expect(decode(result) == self.expected,
                "decoded composite differs from iterated substitution")
        a, b = len(result.mid_src), len(result.mid_tgt)
        return {"A": a, "B": b, "elems": a + b}

    def sizes(self) -> dict:
        return {"links": list(CHAIN_LINKS)}


class ComposeIO(Workload):
    """``polyfin compose a b c -o out`` then ``polyfin decode out``."""

    name = "compose-io"

    def setup(self) -> None:
        links, syms = relabelled_chain(IO_LINKS, self.rng)
        self.links = links
        self.expected = chain_oracle(syms)
        self.paths = []
        for i, p in enumerate(links):
            path = self.workdir / f"link{i}.json"
            path.write_text(json.dumps(jsonio.poly_to_json(p)),
                            encoding="utf-8")
            self.paths.append(str(path))
        self.out_path = self.workdir / "composite.json"
        self.decoded_path = self.workdir / "decoded.json"
        self._readback: dict[str, bool] = {}
        self._composite = None

    def run(self, inp):
        rc = cli.main(["compose", *self.paths, "-o", str(self.out_path)])
        if rc != 0:
            return rc, None
        return rc, cli.main(["decode", str(self.out_path),
                             "-o", str(self.decoded_path)])

    def check(self, inp, result) -> dict:
        rc_compose, rc_decode = result
        _expect(rc_compose == 0, f"compose exited {rc_compose}")
        _expect(rc_decode == 0, f"decode exited {rc_decode}")
        dec = json.loads(self.decoded_path.read_text(encoding="utf-8"))
        got = parse_poly(dec["text"], in_vars=dec["in_vars"],
                         out_names=dec["out_vars"])
        _expect(got == self.expected,
                "decoded composite differs from iterated substitution")
        raw = self.out_path.read_bytes()
        digest = hashlib.sha256(raw).hexdigest()
        if digest not in self._readback:
            if self._composite is None:
                self._composite = compose_seq(self.links)
            back = jsonio.poly_from_json(json.loads(raw))
            self._readback[digest] = back != self._composite
        a, b = len(self._composite.mid_src), len(self._composite.mid_tgt)
        return {"A": a, "B": b, "elems": a + b, "json_bytes": len(raw),
                "readback_mismatch": int(self._readback[digest])}

    def sizes(self) -> dict:
        return {"links": list(IO_LINKS)}


class CheckLaws(Workload):
    """``polyfin check --law all``: one pass over all 21 laws.

    The law seed is the reference seed 42 whatever the benchmark seed, so
    every run draws the same instances: the first LAW_CASES cases of each
    law in the reference run ``--seed 42 --size 3 --cases 100``.  Law
    instance cost is heavy-tailed across seeds: at 10 cases a pass took
    1.0-7.9 s over seeds 1-40 on a 2-core machine, and seed 10 draws a
    pentagon instance that ran for over four minutes.  A seed-driven law
    seed would make both the median and the time limit of a run a matter
    of luck.
    """

    name = "check-laws"

    def setup(self) -> None:
        self.out_path = self.workdir / "laws.json"
        self.reference = None

    def run(self, inp):
        return cli.main(["check", "--law", "all", "--seed", str(LAW_SEED),
                         "--size", str(LAW_SIZE), "--cases", str(LAW_CASES),
                         "-o", str(self.out_path)])

    def check(self, inp, result) -> dict:
        _expect(result == 0, f"check exited {result}")
        report = json.loads(self.out_path.read_text(encoding="utf-8"))
        _expect(report["failures_total"] == 0,
                f"{report['failures_total']} law failures")
        for law in report["reports"]:
            law.pop("wall_time_s", None)
        if self.reference is None:
            self.reference = report
        _expect(report == self.reference,
                "a repeated pass gave a different report")
        cases = sum(law["cases"] for law in report["reports"])
        return {"cases": cases}

    def sizes(self) -> dict:
        return {"law_seed": LAW_SEED, "cases_per_law": LAW_CASES,
                "size": LAW_SIZE}


WORKLOADS = {cls.name: cls for cls in (EvalWorked, ComposeChain, ComposeIO,
                                       CheckLaws)}
