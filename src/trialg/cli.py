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
import contextlib
import json
import os
import re
import sys
import warnings
from json.encoder import encode_basestring_ascii

# Only the standard library here: each command imports the modules it runs.

_INLINE_RE = re.compile(r"([A-Za-z]\w*)(?:\((.*)\))?\Z")


# scalar encoders by exact type; bool has its own entry, so it never reads as int
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _json(value, indent="\n") -> str:
    """The text of json.dumps(value, indent=2, sort_keys=True) for reports:
    dicts with string keys, lists, tuples, strings, ints, bools and None
    (anything else raises TypeError).  json.dumps with an indent runs the
    pure-Python encoder, slower than this and with a larger chunk list.

    Scalars are encoded through _SCALARS, inline in the loop over their
    dict or list; subclasses of str, int, dict, list and tuple take the
    isinstance path."""
    scalar = _SCALARS.get
    encode = scalar(type(value))
    if encode is not None:
        return encode(value)
    inner = indent + "  "
    body = []
    if isinstance(value, dict):
        for k in sorted(value):
            v = value[k]
            encode = scalar(type(v))
            text = encode(v) if encode else _json(v, inner)
            body.append(f"{encode_basestring_ascii(k)}: {text}")
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        for v in value:
            encode = scalar(type(v))
            body.append(encode(v) if encode else _json(v, inner))
        brackets = "[]"
    elif isinstance(value, str):
        return encode_basestring_ascii(value)
    elif isinstance(value, int):
        return int.__repr__(value)
    else:
        raise TypeError(f"a report cannot hold {type(value).__name__}")
    if not body:
        return brackets
    return brackets[0] + inner + ("," + inner).join(body) + indent + brackets[1]


def _emit(doc) -> None:
    sys.stdout.write(_json(doc) + "\n")


def _diag(message: str) -> None:
    sys.stderr.write(f"trialg: {message}\n")


@contextlib.contextmanager
def _warnings_as_diagnostics():
    """Library warnings (weak evidence at p = 2 or 3) as diagnostics, each message once."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            yield
        finally:
            for message in dict.fromkeys(str(w.message) for w in caught):
                _diag(message)


def _parse_params(text: str) -> dict:
    from . import ring as rg

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


def _load_algebra(source: str | None, params: str | None = None):
    """The Msc in the msc document at a path, or the catalog algebra named
    inline, with params."""
    if not source:
        raise ValueError("an algebra is required: give --input PATH or --name NAME")
    if os.path.isfile(source):
        from .msc import msc_from_doc

        if params:
            raise ValueError("--params only applies to catalog names")
        with open(source, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except RecursionError:
                raise ValueError(f"{source}: JSON nested too deeply") from None
        return msc_from_doc(doc)
    M = _catalog_algebra(source, params)
    if M is None:
        raise ValueError(f"no such file or catalog name: {source!r}")
    return M


def _catalog_algebra(source: str, params: str | None):
    """The catalog algebra named by ``source``, a bare name with --params
    or the inline form "A4(a1=1,b2=-1)"; None when no catalog name fits."""
    m = _INLINE_RE.match(source)
    if not m:
        return None
    from . import catalog as cat

    if m.group(1) not in cat.FAMILIES:
        return None
    inline = m.group(2)
    if inline and params:
        raise ValueError("parameters given both inline and via --params")
    text = inline if inline else params
    return cat.catalog_get(m.group(1), _parse_params(text) if text else None)


def _parse_primes(text: str | None, default: tuple, allow_empty: bool = False):
    """The primes of a comma-separated option value, or ``default`` when the
    option is not given."""
    from . import ring as rg

    if text is None:
        return default
    primes = []
    for item in filter(str.strip, text.split(",")):
        try:
            primes.append(int(item))
        except ValueError:  # not an integer, or more digits than the interpreter converts
            raise ValueError(f"bad prime {rg._excerpt(item)}: expected an integer of at most "
                             f"{sys.get_int_max_str_digits()} digits") from None
    return rg._distinct_primes(primes, allow_empty)


def _parse_grid(text: str):
    from . import ring as rg

    grid = [rg.parse_scalar(x.strip(), rg.QQ).v for x in text.split(",") if x.strip()]
    if not grid:
        raise ValueError("empty grid")
    return grid


def _cmd_generate(args) -> int:
    from .generate import generate_nary
    from .msc import msc_to_doc

    M = _load_algebra(args.input or args.name, args.params)
    _emit(msc_to_doc(generate_nary(M, args.arity)))
    return 0


def _cmd_assoc(args) -> int:
    from .identities import assoc_report

    A = _load_algebra(args.input or args.name, args.params)
    report = assoc_report(A)
    _emit(report.to_doc())
    return 0 if report.verdict else 1


def _cmd_iso(args) -> int:
    from .iso import iso_report

    A = _load_algebra(args.a, args.params_a)
    B = _load_algebra(args.b, args.params_b)
    with _warnings_as_diagnostics():
        doc = iso_report(A, B, args.prime, find_all=args.all)
    _emit(doc)
    return 0 if doc["witness_count"] else 1


def _cmd_express(args) -> int:
    from .polysolve import DEFAULT_PRIMES, certify_expressibility

    C = _load_algebra(args.input or args.name, args.params)
    outcome = certify_expressibility(
        C, primes=_parse_primes(args.primes, DEFAULT_PRIMES, allow_empty=True),
        caps=_solver_caps(args), groebner=args.groebner,
    )
    _emit(outcome.to_doc())
    if outcome.status == "witness":
        return 0
    if outcome.status in ("no_solution_mod_p", "certified_empty_over_closure"):
        return 1
    return 3


def _cmd_catalog(args) -> int:
    from . import catalog as cat
    from .msc import msc_to_doc

    if args.name:
        M = _catalog_algebra(args.name, args.params)
        if M is None:
            raise ValueError(f"unknown catalog name {args.name!r}")
        _emit(msc_to_doc(M))
    elif args.params:
        raise ValueError("--params only applies with --name")
    else:
        _emit(cat.catalog_dump())
    return 0


def _cmd_table1_verify(args) -> int:
    from . import catalog as cat

    report = cat.table1_verify()
    _emit(report.to_doc())
    return 0 if report.clean else 1


def _cmd_totassoc_scan(args) -> int:
    from . import catalog as cat
    from . import ring as rg

    grid = _parse_grid(args.grid) if args.grid is not None else None
    points = cat.totassoc_scan(args.family, grid)
    _emit({
        "family": args.family,
        "grid": rg._rational_texts(grid or cat.DEFAULT_SCAN_GRID),
        "points": [rg._rational_texts(t) for t in points],
    })
    return 0


def _cmd_paper_replay(args) -> int:
    from . import catalog as cat
    from .iso import DEFAULT_EVIDENCE_PRIMES
    from .polysolve import DEFAULT_PRIMES

    with _warnings_as_diagnostics():
        report = cat.paper_replay(
            primes=_parse_primes(args.primes, DEFAULT_PRIMES),
            collision_primes=_parse_primes(args.collision_primes, DEFAULT_EVIDENCE_PRIMES),
            caps=_solver_caps(args), groebner=args.groebner,
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


def _add_generate_options(sub):
    _add_algebra_input(sub)
    sub.add_argument("--arity", type=int, default=3)


def _add_iso_options(sub):
    sub.add_argument("--a", required=True, help="path or catalog name")
    sub.add_argument("--b", required=True, help="path or catalog name")
    sub.add_argument("--params-a", help="parameters for --a when it is a name")
    sub.add_argument("--params-b", help="parameters for --b when it is a name")
    sub.add_argument("--prime", type=int, required=True)
    sub.add_argument("--all", action="store_true",
                     help="collect every witness instead of stopping at the first")


def _add_solver_options(sub):
    # the primes and caps default to None: the command fills in
    # polysolve.DEFAULT_PRIMES, and buchberger DEFAULT_CAPS, for those not given
    sub.add_argument("--primes")
    sub.add_argument("--groebner", action=argparse.BooleanOptionalAction, default=True)
    sub.add_argument("--max-pairs", type=int)
    sub.add_argument("--max-degree", type=int)


def _add_express_options(sub):
    _add_algebra_input(sub)
    _add_solver_options(sub)


def _add_catalog_options(sub):
    sub.add_argument("--name")
    sub.add_argument("--params")


def _add_totassoc_scan_options(sub):
    sub.add_argument("--family", required=True)
    sub.add_argument("--grid", help="comma-separated rationals, one shared axis")


def _add_paper_replay_options(sub):
    sub.add_argument("--out", help="write the report to this path")
    # None: the command fills in iso.DEFAULT_EVIDENCE_PRIMES
    sub.add_argument("--collision-primes")
    _add_solver_options(sub)


def _solver_caps(args) -> dict:
    """The Groebner caps given on the command line, refused before any work
    when buchberger would refuse them."""
    from .polysolve import _check_caps

    caps = {"max_pairs": args.max_pairs, "max_degree": args.max_degree}
    caps = {key: value for key, value in caps.items() if value is not None}
    _check_caps(caps)
    return caps


# name -> (help, adds the options, runs the command), in --help order
COMMANDS = {
    "generate": ("n-ary algebra generated by a binary one", _add_generate_options,
                 _cmd_generate),
    "assoc": ("associativity report (arity 2 or 3)", _add_algebra_input, _cmd_assoc),
    "iso": ("search GL(m, GF(p)) for an isomorphism", _add_iso_options, _cmd_iso),
    "express": ("decide whether an algebra is generated by a binary one",
                _add_express_options, _cmd_express),
    "catalog": ("dump the catalog or one entry", _add_catalog_options, _cmd_catalog),
    "table1-verify": ("recompute every generated-table row", lambda sub: None,
                      _cmd_table1_verify),
    "totassoc-scan": ("scan a ternary family for total associativity",
                      _add_totassoc_scan_options, _cmd_totassoc_scan),
    "paper-replay": ("replay every documented claim", _add_paper_replay_options,
                     _cmd_paper_replay),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser: every subcommand, or only ``command``'s.  Both parse
    an argument list that starts with ``command`` alike, and print the same
    help, usage lines and errors for it."""
    parser = argparse.ArgumentParser(
        prog="trialg",
        description="Exact computations with 2-dimensional binary and ternary "
                    "algebras given by matrices of structure constants.",
    )
    if command is None:
        names = list(COMMANDS)
        sub = parser.add_subparsers(dest="command", required=True)
    else:
        # the metavar keeps the full usage line, which argparse prints with
        # errors such as unrecognized arguments; the full parser goes
        # without, as the metavar would rename "argument command" in its errors
        names = [command]
        sub = parser.add_subparsers(dest="command", required=True,
                                    metavar="{" + ",".join(COMMANDS) + "}")
    for name in names:
        help_text, add_options, handler = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_options(p)
        p.set_defaults(fn=handler)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
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
