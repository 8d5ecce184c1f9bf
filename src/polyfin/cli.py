"""Command-line interface: encode, decode, compose, eval, check, list-laws.

All I/O is JSON (sorted keys) so runs with the same seed and configuration
are byte-identical apart from the reported wall time.  Exit codes: 0 on
success, 1 when a law run found failures, 2 for text or JSON parse
problems (an input file that cannot be read or is not UTF-8 included) and
for an output file that cannot be written, 3 for composition boundary
mismatches, 4 for bad evaluation input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import jsonio
from .errors import (
    IncompleteAssignment,
    NotComposable,
    NotNameable,
    OutputError,
    ParseError,
    PolyfinError,
)
from .gen import InstanceGenConfig
from .laws import LAWS, run_laws
from .poly import compose_seq
from .symbolic import decode, encode, eval_with_trace, parse_poly


def _emit(data, out_path: str | None) -> None:
    """Write json.dumps(data, indent=2, sort_keys=True) and a newline."""
    if out_path and out_path != "-":
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                json.dump(data, fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError as exc:
            raise OutputError(f"cannot write {out_path}: {exc}") from exc
    else:
        try:
            json.dump(data, sys.stdout, indent=2, sort_keys=True)
            sys.stdout.write("\n")
            sys.stdout.flush()
        except OSError as exc:
            # What is still buffered would fail again in the flush at exit
            # (BrokenPipeError on a closed pipe): send it to devnull.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise OutputError(f"cannot write <stdout>: {exc}") from exc


def _read_json(path: str):
    try:
        if path == "-":
            # Decode the bytes strictly: under a C locale the text stream
            # would pass undecodable bytes through as surrogates.
            raw = getattr(sys.stdin, "buffer", None)
            return json.loads(raw.read().decode("utf-8") if raw
                              else sys.stdin.read())
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ParseError(f"cannot read {path}: {exc}", 0) from exc
    except RecursionError:
        raise ParseError(f"cannot read {path}: nested too deeply", 0) from None


def _split_csv(text: str | None) -> list[str] | None:
    if text is None:
        return None
    return [part.strip() for part in text.split(",") if part.strip()]


def cmd_encode(args) -> int:
    s = parse_poly(args.text, in_vars=_split_csv(args.in_vars),
                   out_names=_split_csv(args.out_names))
    _emit(jsonio.poly_to_json(encode(s)), args.output)
    return 0


def cmd_decode(args) -> int:
    p = jsonio.poly_from_json(_read_json(args.file))
    s = decode(p)
    _emit({"in_vars": list(s.in_vars), "out_vars": list(s.out_vars),
           "text": s.render()}, args.output)
    return 0


def cmd_compose(args) -> int:
    polys = [jsonio.poly_from_json(_read_json(f)) for f in args.files]
    _emit(jsonio.poly_to_json(compose_seq(polys)), args.output)
    return 0


def _parse_assignment(text: str) -> dict[str, int]:
    out = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        key, eq, value = item.partition("=")
        key = key.strip()
        if not (eq and key):
            raise IncompleteAssignment(f"bad assignment entry {item!r}")
        if key in out:
            raise IncompleteAssignment(f"{key!r} is assigned twice")
        value = value.strip()
        negative = value.startswith("-")
        digits = value[1:] if negative else value
        # int() would also take "+3", "1_0" and non-ASCII digits.
        if not (digits.isascii() and digits.isdigit()):
            raise IncompleteAssignment(
                f"value for {key!r} is not a natural number")
        if negative:
            raise IncompleteAssignment(
                f"value for {key!r} must not be negative")
        try:
            out[key] = int(digits)
        except ValueError:  # more digits than int() converts
            raise IncompleteAssignment(
                f"value for {key!r} is not a natural number") from None
    return out


def cmd_eval(args) -> int:
    p = jsonio.poly_from_json(_read_json(args.file))
    counts, trace = eval_with_trace(p, _parse_assignment(args.assign))
    payload: dict = {"counts": counts}
    if args.trace:
        payload["trace"] = jsonio.eval_trace_to_json(trace)
    _emit(payload, args.output)
    return 0


def cmd_check(args) -> int:
    names = list(LAWS) if args.law == "all" else [args.law]
    for name in names:
        if name not in LAWS:
            sys.stderr.write(f"unknown law {name!r}; see list-laws\n")
            return 2
    cfg = InstanceGenConfig(seed=args.seed, max_set_size=args.size,
                            cases=args.cases)
    reports = run_laws(names, cfg)
    failures = sum(len(r.failures) for r in reports)
    _emit({"config": {"seed": cfg.seed, "size": cfg.max_set_size,
                      "cases": cfg.cases},
           "reports": [r.to_json() for r in reports],
           "failures_total": failures}, args.output)
    return 0 if failures == 0 else 1


def _at_least(low: int):
    """argparse type: an int no smaller than low."""
    def natural(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}")
        return value
    return natural


def cmd_list_laws(args) -> int:
    _emit({name: desc for name, (desc, _) in LAWS.items()}, args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyfin",
        description="polynomial diagrams over finite sets: encode, compose, "
                    "evaluate and law-check")
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="encode a polynomial expression")
    enc.add_argument("text")
    enc.add_argument("--in", dest="in_vars", default=None,
                     help="comma-separated input variables")
    enc.add_argument("--out", dest="out_names", default=None,
                     help="comma-separated output names")
    enc.add_argument("-o", "--output", default=None)
    enc.set_defaults(func=cmd_encode)

    dec = sub.add_parser("decode", help="decode a diagram back to text")
    dec.add_argument("file")
    dec.add_argument("-o", "--output", default=None)
    dec.set_defaults(func=cmd_decode)

    comp = sub.add_parser("compose", help="compose diagram files in order")
    comp.add_argument("files", nargs="+")
    comp.add_argument("-o", "--output", default=None)
    comp.set_defaults(func=cmd_compose)

    ev = sub.add_parser("eval", help="evaluate a diagram on fiber sizes")
    ev.add_argument("file")
    ev.add_argument("--assign", required=True,
                    help="comma-separated var=value pairs")
    ev.add_argument("--trace", action="store_true",
                    help="include the staged evaluation data")
    ev.add_argument("-o", "--output", default=None)
    ev.set_defaults(func=cmd_eval)

    chk = sub.add_parser("check", help="run law checks with seeded instances")
    chk.add_argument("--law", default="all")
    chk.add_argument("--seed", type=int, default=0)
    chk.add_argument("--size", type=_at_least(1), default=3)
    chk.add_argument("--cases", type=_at_least(0), default=50)
    chk.add_argument("-o", "--output", default=None)
    chk.set_defaults(func=cmd_check)

    lst = sub.add_parser("list-laws", help="print the law registry")
    lst.add_argument("-o", "--output", default=None)
    lst.set_defaults(func=cmd_list_laws)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 2
    except OutputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except NotComposable as exc:
        sys.stderr.write(f"composition error: {exc}\n")
        return 3
    except (IncompleteAssignment, NotNameable) as exc:
        sys.stderr.write(f"evaluation error: {exc}\n")
        return 4
    except PolyfinError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
