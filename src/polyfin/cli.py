"""Command-line interface: encode, decode, compose, eval, check, list-laws.

All I/O is JSON (sorted keys) so runs with the same seed and configuration
are byte-identical apart from the reported wall time.  Exit codes: 0 on
success, 1 when a law run found failures, 2 for text or JSON parse
problems (an input file that cannot be read or is not UTF-8 included) and
for an output file that cannot be written, 3 for composition boundary
mismatches, 4 for bad evaluation input.

Each run builds one parser: that of the command its first argument names.
The full parser, every command under one usage line, is built only for
top-level help, a missing or unknown command and arguments the command
does not take, so it alone prints those usage and error texts.  Run it as
``polyfin`` or ``python -m polyfin``.
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
    """Write json.dumps(data, indent=2, sort_keys=True) and a newline, as
    one string (jsonio.to_text) in one write."""
    text = jsonio.to_text(data) + "\n"
    if out_path and out_path != "-":
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise OutputError(f"cannot write {out_path}: {exc}") from exc
    else:
        try:
            sys.stdout.write(text)
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


def _encode_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("text")
    parser.add_argument("--in", dest="in_vars", default=None,
                        help="comma-separated input variables")
    parser.add_argument("--out", dest="out_names", default=None,
                        help="comma-separated output names")


def _decode_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("file")


def _compose_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("files", nargs="+")


def _eval_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("file")
    parser.add_argument("--assign", required=True,
                        help="comma-separated var=value pairs")
    parser.add_argument("--trace", action="store_true",
                        help="include the staged evaluation data")


def _check_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--law", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", type=_at_least(1), default=3)
    parser.add_argument("--cases", type=_at_least(0), default=50)


# Each command: its name, its help line, what adds its arguments (every
# command also takes -o/--output, added last) and the name of its handler.
_COMMANDS = (
    ("encode", "encode a polynomial expression", _encode_arguments,
     "cmd_encode"),
    ("decode", "decode a diagram back to text", _decode_arguments,
     "cmd_decode"),
    ("compose", "compose diagram files in order", _compose_arguments,
     "cmd_compose"),
    ("eval", "evaluate a diagram on fiber sizes", _eval_arguments,
     "cmd_eval"),
    ("check", "run law checks with seeded instances", _check_arguments,
     "cmd_check"),
    ("list-laws", "print the law registry", lambda parser: None,
     "cmd_list_laws"),
)


def _add_command(parser: argparse.ArgumentParser, add_arguments,
                 handler: str) -> argparse.ArgumentParser:
    add_arguments(parser)
    parser.add_argument("-o", "--output", default=None)
    # Looked up as each parser is built, so a replaced cmd_* is the one run.
    parser.set_defaults(func=globals()[handler])
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, under one polyfin usage line."""
    parser = argparse.ArgumentParser(
        prog="polyfin",
        description="polynomial diagrams over finite sets: encode, compose, "
                    "evaluate and law-check")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, add_arguments, handler in _COMMANDS:
        _add_command(sub.add_parser(name, help=help_text), add_arguments,
                     handler)
    return parser


def _command_parser(name: str) -> argparse.ArgumentParser | None:
    """The parser of the command called name alone, or None if there is no
    such command.  Its help and usage are those of build_parser's
    subparser for the command."""
    for command, _, add_arguments, handler in _COMMANDS:
        if command == name:
            return _add_command(
                argparse.ArgumentParser(prog=f"polyfin {name}"),
                add_arguments, handler)
    return None


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = _command_parser(argv[0]) if argv else None
    if parser is not None:
        args, rest = parser.parse_known_args(argv[1:])
        if not rest:
            return args
    # Top-level help, a missing or unknown command and arguments the command
    # does not take: the full parser prints its usage and error text.
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(list(sys.argv[1:] if argv is None else argv))
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
