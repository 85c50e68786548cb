"""Command-line front end.

Every command is a thin adapter over one library operation: it reads JSON
(or an inline catalog name), runs the operation, and prints the
operation's own JSON serialization on stdout.  Diagnostics go to stderr.

Exit codes: 0 success / checked true, 1 checked false / no witness,
2 usage or input error, 3 inconclusive only.

Inputs that take an algebra accept either a path to an msc JSON document
or an inline catalog name with optional parameters, e.g.  "Cstar" or
"A4(a1=1,b2=-1)".
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from json.encoder import encode_basestring_ascii

from . import catalog as cat
from . import ring as rg
from .identities import assoc_report
from .iso import iso_report
from .generate import generate_nary
from .msc import Msc, msc_from_doc, msc_to_doc
from .polysolve import certify_expressibility

_INLINE_RE = re.compile(r"([A-Za-z]\w*)(?:\((.*)\))?\Z")


def _json(value, indent="\n") -> str:
    """The text of json.dumps(value, indent=2, sort_keys=True) for reports:
    dicts with string keys, lists, tuples, strings, ints, bools and None
    (anything else raises TypeError).  json.dumps with an indent runs the
    pure-Python encoder, slower than this and with a larger chunk list."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        body = [f"{encode_basestring_ascii(k)}: {_json(v, inner)}"
                for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(body) + indent + "}" if body else "{}"
    if isinstance(value, (list, tuple)):
        body = [_json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(body) + indent + "]" if body else "[]"
    raise TypeError(f"a report cannot hold {type(value).__name__}")


def _emit(doc) -> None:
    sys.stdout.write(_json(doc) + "\n")


def _diag(message: str) -> None:
    sys.stderr.write(f"trialg: {message}\n")


def _parse_params(text: str) -> dict:
    assignment = {}
    if not text:
        return assignment
    for item in text.split(","):
        if "=" not in item:
            raise ValueError(f"bad parameter {item!r}; expected name=value")
        name, value = (part.strip() for part in item.split("=", 1))
        if name in assignment:
            raise ValueError(f"parameter {name!r} given more than once")
        assignment[name] = rg.parse_scalar(value, rg.QQ)
    return assignment


def _load_algebra(source: str | None, params: str | None = None) -> Msc:
    """A path to an msc document, or an inline catalog name with params."""
    if not source:
        raise ValueError("an algebra is required: give --input PATH or --name NAME")
    if os.path.isfile(source):
        if params:
            raise ValueError("--params only applies to catalog names")
        with open(source, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except RecursionError:
                raise ValueError(f"{source}: JSON nested too deeply") from None
        return msc_from_doc(doc)
    m = _INLINE_RE.match(source)
    if m and m.group(1) in cat.FAMILIES:
        inline = m.group(2)
        if inline and params:
            raise ValueError("parameters given both inline and via --params")
        text = inline if inline else params
        assignment = _parse_params(text) if text else None
        return cat.catalog_get(m.group(1), assignment)
    raise ValueError(f"no such file or catalog name: {source!r}")


def _parse_primes(text: str, allow_empty: bool = False):
    primes = []
    for item in filter(str.strip, text.split(",")):
        try:
            primes.append(int(item))
        except ValueError:  # not an integer, or more digits than the interpreter converts
            raise ValueError(f"bad prime {rg._excerpt(item)}: expected an integer of at most "
                             f"{sys.get_int_max_str_digits()} digits") from None
    if not primes and not allow_empty:
        raise ValueError("empty prime list")
    for p in primes:
        if not rg.is_prime(p):
            raise ValueError(f"{p} is not prime")
    return tuple(primes)


def _parse_grid(text: str):
    grid = [rg.parse_scalar(x.strip(), rg.QQ).v for x in text.split(",") if x.strip()]
    if not grid:
        raise ValueError("empty grid")
    return grid


def _cmd_generate(args) -> int:
    M = _load_algebra(args.input or args.name, args.params)
    out = generate_nary(M, args.arity)
    _emit(msc_to_doc(out))
    return 0


def _cmd_assoc(args) -> int:
    A = _load_algebra(args.input or args.name, args.params)
    report = assoc_report(A)
    _emit(report.to_doc())
    return 0 if report.verdict else 1


def _cmd_iso(args) -> int:
    A = _load_algebra(args.a, args.params_a)
    B = _load_algebra(args.b, args.params_b)
    doc = iso_report(A, B, args.prime, find_all=args.all)
    _emit(doc)
    return 0 if doc["witness_count"] else 1


def _cmd_express(args) -> int:
    C = _load_algebra(args.input or args.name, args.params)
    caps = {"max_pairs": args.max_pairs, "max_degree": args.max_degree}
    outcome = certify_expressibility(
        C, primes=_parse_primes(args.primes, allow_empty=True), caps=caps,
        groebner=args.groebner,
    )
    _emit(outcome.to_doc())
    if outcome.status == "witness":
        return 0
    if outcome.status in ("no_solution_mod_p", "certified_empty_over_closure"):
        return 1
    return 3


def _cmd_catalog(args) -> int:
    if args.name:
        assignment = _parse_params(args.params) if args.params else None
        _emit(msc_to_doc(cat.catalog_get(args.name, assignment)))
    else:
        _emit(cat.catalog_dump())
    return 0


def _cmd_table1_verify(args) -> int:
    report = cat.table1_verify()
    _emit(report.to_doc())
    return 0 if report.clean else 1


def _cmd_totassoc_scan(args) -> int:
    grid = _parse_grid(args.grid) if args.grid is not None else None
    points = cat.totassoc_scan(args.family, grid)
    text = lambda q: str(rg.from_fraction(rg.QQ, q))  # RingElem names the digit limit
    _emit({
        "family": args.family,
        "grid": [text(x) for x in (grid or cat.DEFAULT_SCAN_GRID)],
        "points": [[text(x) for x in t] for t in points],
    })
    return 0


def _cmd_paper_replay(args) -> int:
    caps = {"max_pairs": args.max_pairs, "max_degree": args.max_degree}
    report = cat.paper_replay(
        primes=_parse_primes(args.primes),
        collision_primes=_parse_primes(args.collision_primes),
        caps=caps, groebner=args.groebner,
    )
    text = _json(report.to_doc()) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        _diag(f"report written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0 if report.clean else 1


def _add_algebra_input(sub):
    sub.add_argument("--input", help="path to an msc JSON document")
    sub.add_argument("--name", help="catalog name, e.g. A4 or Cstar")
    sub.add_argument("--params", help="comma-separated name=value parameters")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trialg",
        description="Exact computations with 2-dimensional binary and ternary "
                    "algebras given by matrices of structure constants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="n-ary algebra generated by a binary one")
    _add_algebra_input(p)
    p.add_argument("--arity", type=int, default=3)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("assoc", help="associativity report (arity 2 or 3)")
    _add_algebra_input(p)
    p.set_defaults(fn=_cmd_assoc)

    p = sub.add_parser("iso", help="search GL(m, GF(p)) for an isomorphism")
    p.add_argument("--a", required=True, help="path or catalog name")
    p.add_argument("--b", required=True, help="path or catalog name")
    p.add_argument("--params-a", help="parameters for --a when it is a name")
    p.add_argument("--params-b", help="parameters for --b when it is a name")
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--all", action="store_true",
                   help="collect every witness instead of stopping at the first")
    p.set_defaults(fn=_cmd_iso)

    p = sub.add_parser("express", help="decide whether a ternary algebra is generated")
    _add_algebra_input(p)
    p.add_argument("--primes", default="5,7")
    p.add_argument("--groebner", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--max-pairs", type=int, default=20000)
    p.add_argument("--max-degree", type=int, default=12)
    p.set_defaults(fn=_cmd_express)

    p = sub.add_parser("catalog", help="dump the catalog or one entry")
    p.add_argument("--name")
    p.add_argument("--params")
    p.set_defaults(fn=_cmd_catalog)

    p = sub.add_parser("table1-verify", help="recompute every generated-table row")
    p.set_defaults(fn=_cmd_table1_verify)

    p = sub.add_parser("totassoc-scan", help="scan a ternary family for total associativity")
    p.add_argument("--family", required=True)
    p.add_argument("--grid", help="comma-separated rationals, one shared axis")
    p.set_defaults(fn=_cmd_totassoc_scan)

    p = sub.add_parser("paper-replay", help="replay every documented claim")
    p.add_argument("--out", help="write the report to this path")
    p.add_argument("--primes", default="5,7")
    p.add_argument("--collision-primes", default="5,7,11")
    p.add_argument("--groebner", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--max-pairs", type=int, default=20000)
    p.add_argument("--max-degree", type=int, default=12)
    p.set_defaults(fn=_cmd_paper_replay)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        if [] in vars(args).values():  # argparse before Python 3.13 reads a value "--" as []
            raise ValueError("'--' is not a value for any option")
        return args.fn(args)
    except (ValueError, OSError, ZeroDivisionError, json.JSONDecodeError) as exc:
        _diag(str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
