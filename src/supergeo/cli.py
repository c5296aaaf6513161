"""Command-line driver: every verification as a subcommand.

Exit codes: 0 = pass / value computed, 1 = verification failure, 2 = usage
error.  Reports are deterministic: sorted JSON keys, canonical "p/q" rational
strings, exact arithmetic throughout.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from . import __version__
from .superalg import ParseError, SuperError, _tokenize, format_elem, int_digit_limit, parse, printable, truncate_J
from .atlas import (
    CHARTS,
    CYCLIC,
    HOM,
    MatrixCocycle,
    check_cocycle_loop,
    is_calabi_yau,
    reduced_transition,
    standard_chart,
    transition_berezinian,
)
from .cech import (
    basis_top,
    bott,
    h_line,
    h1_tangent,
    h1_tangent_bott,
    monomial_str,
    obstruction_delta,
    omega_cocycle_sum,
    picard_delta,
)
from .families import (
    atlas_equal,
    build_decomposable,
    build_generic,
    build_omega1,
    build_pi_plane,
    normal_forms,
    sym_restricted_rank,
)
from .selfcheck import DEFAULT_CASES, DEFAULT_SEED, MAX_CASES, run_all

_NAMED_FAMILIES = {"decomposable": build_decomposable, "omega1": build_omega1}
FAMILIES = (*_NAMED_FAMILIES, "pi-plane", "generic")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    hint = ""  # added to a missing-argument error of this (sub)parser

    def error(self, message):  # keep exit-code control in run()
        if self.hint and message.startswith("the following arguments are required"):
            message = f"{message}; {self.hint}"
        raise UsageError(message)


def _ascii(text: str) -> str:
    """Numeric option text, refused unless ASCII: int() and Fraction() also read
    other scripts' digits, such as "٣" or "１", but `parse` reads only 0-9."""
    if not text.isascii():
        raise UsageError(f"numbers are written in ASCII digits, got {text!r}")
    return text


def _int(text: str) -> int:
    """The type of every integer option."""
    return int(_ascii(text))


_int.__name__ = "int"  # argparse names the type in "invalid int value: ..."


_DIGITS = r"(?:\d+(?:_\d+)*)"  # "_" only between two digits
_RATIONAL = re.compile(  # the text of --lambda and --bind, with no space around "/"
    rf"\s*[-+]?(?=\.?\d){_DIGITS}?(?:/{_DIGITS}|(?:\.{_DIGITS}?)?(?:[eE](?P<exp>[-+]?{_DIGITS}))?)\s*"
)


def _fraction(text: str) -> Fraction:
    """A rational from CLI text, refusing one too large to print in a report."""
    _ascii(text)
    limit = int_digit_limit()
    m = _RATIONAL.fullmatch(text)
    if m is None:
        raise UsageError(f"not a rational number: {text!r}")
    exp = (m["exp"] or "0").replace("_", "")
    # checked before Fraction() spends its time on 10**exponent; lengths first,
    # as int() of a long digit string is slow, or refused
    if len(exp) > limit or abs(int(exp)) > limit:
        raise UsageError(f"exponent of {text!r} exceeds the bound {limit}")
    try:
        value = Fraction(text.replace("_", ""))
    except ZeroDivisionError:
        raise UsageError(f"not a rational number: {text!r}") from None
    except ValueError:  # a digit string longer than int() reads
        value = None
    if value is None or not printable(value):
        raise UsageError(f"{text!r} has more than {limit} digits in its numerator or denominator")
    return value


def _printed(value: int) -> int:
    """A reported integer, refusing one too large to print."""
    if not printable(value):
        raise UsageError(f"the result has more than {int_digit_limit()} digits")
    return value


def _pair_str(pair) -> str:
    return f"{pair[0]}<-{pair[1]}"


def _get_atlas(args):
    family, path = args.family, args.matrix_json
    if path is not None and family != "generic":
        raise UsageError(f"--matrix-json is read only with --family generic, not --family {family}")
    lam = _fraction(args.lam)
    if family in _NAMED_FAMILIES:
        return _NAMED_FAMILIES[family](lam), lam
    if family == "pi-plane":
        if lam != 1:
            raise UsageError("the pi-plane atlas is the lambda = 1 member; use --lambda 1")
        return build_pi_plane(), lam
    if not path:
        raise UsageError("--matrix-json FILE is required with --family generic")
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: not valid JSON: {exc}") from None
    except RecursionError:
        raise UsageError(f"{path}: JSON nested too deeply to read") from None
    matrices = data.get("matrices") if isinstance(data, dict) else None
    if not isinstance(matrices, dict):
        raise UsageError(f'{path}: expected a JSON object with a "matrices" object')
    mats = {}
    for key, rows in matrices.items():
        pair = _overlap_key(path, key)
        if not (
            isinstance(rows, list)
            and all(isinstance(row, list) and all(isinstance(txt, str) for txt in row) for row in rows)
        ):
            raise UsageError(f"{path}: matrices[{key!r}] is not a list of lists of expression strings")
        table = standard_chart(pair[1])
        mats[pair] = [[_entry(path, key, r, c, txt, table) for c, txt in enumerate(row)] for r, row in enumerate(rows)]
    for pair in CYCLIC:
        if pair not in mats:
            raise UsageError(f"{path}: matrices key {_pair_str(pair)!r} is missing")
    return build_generic(MatrixCocycle(mats), lam), lam


def _entry(path: str, key: str, r: int, c: int, txt: str, table):
    """Entry [r][c] of grid `key`, parsed over `table`; text that does not parse is a usage error."""
    try:
        return parse(txt, table)
    except ParseError as exc:
        raise UsageError(f"{path}: matrices[{key!r}][{r}][{c}]: {exc}") from None


def _overlap_key(path: str, key: str) -> tuple[int, int]:
    """The (i, j) of a matrices key "i<-j", which must be a cyclic overlap."""
    tgt_s, _, src_s = key.partition("<-")  # no arrow leaves src_s empty
    try:
        pair = int(tgt_s), int(src_s)
    except ValueError:
        raise UsageError(f'{path}: matrices key {key!r} is not "i<-j" with integer chart indices') from None
    if pair not in CYCLIC or key != _pair_str(pair):  # "00<-1" would overwrite "0<-1"
        overlaps = ", ".join(repr(_pair_str(p)) for p in CYCLIC)
        raise UsageError(f"{path}: matrices key {key!r} is not one of the overlaps {overlaps}")
    return pair


def _class_details(cls) -> dict:
    return {"class": cls.to_dict(), "is_zero": cls.is_zero(), "bundle": f"O({cls.k})", "degree": cls.q}


# -- subcommand bodies: return (outcome, details) -----------------------------


def _cmd_cohomology(args):
    dim = _printed(h_line(args.n, args.k, args.q))
    details = {"dim": dim}
    if args.q == args.n:
        details["basis"] = [monomial_str(m) for m in basis_top(args.n, args.k)]
    return "value", details


def _cmd_bott(args):
    return "value", {"dim": _printed(bott(args.n, args.p, args.k, args.q))}


def _cmd_h1_tangent(args):
    euler = h1_tangent(args.n, args.k)
    via_bott = h1_tangent_bott(args.n, args.k)
    details = {"dim": euler, "dim_bott_serre": via_bott, "agree": euler == via_bott}
    return ("value" if euler == via_bott else "fail"), details


def _verify_atlas(atlas, args):
    loop = check_cocycle_loop(atlas)
    mismatches = []
    for pair in CYCLIC:
        f = atlas.map(*pair)
        for name, want in reduced_transition(pair).items():
            if truncate_J(f.assignment[name], 2) != want:
                mismatches.append(f"{_pair_str(pair)}:{name}")
    details = {
        "loop_ok": loop.ok,
        "loop_residuals": loop.nonzero(),
        "reduced_ok": not mismatches,
        "reduced_mismatches": mismatches,
        "notes": list(atlas.notes),
    }
    return ("pass" if loop.ok and not mismatches else "fail"), details


def _berezinian(atlas, args):
    pair = tuple(args.pair)
    if pair not in CYCLIC:
        raise UsageError(f"--pair must be one of {[f'{i} {j}' for i, j in CYCLIC]}")
    raw = transition_berezinian(atlas.map(*pair))
    details = {
        "pair": _pair_str(pair),
        "value": format_elem(normal_forms(atlas, {pair: raw})[pair]),
        "raw_value": format_elem(raw),
    }
    return "value", details


def _calabi_yau(atlas, args):
    rep = is_calabi_yau(atlas)
    normal = normal_forms(atlas, {p: rep.berezinians[p] for p in CYCLIC})
    details = {
        "flag": rep.ok,
        "berezinians": {_pair_str(k): format_elem(v) for k, v in rep.berezinians.items()},
        "normal_form": {_pair_str(p): format_elem(v) for p, v in normal.items()},
    }
    return ("pass" if rep.ok else "fail"), details


def _obstruction(atlas, args):
    cls = obstruction_delta(atlas)
    return "value", _class_details(cls)


def _picard_chase(atlas, args):
    cls = picard_delta(atlas)
    details = _class_details(cls)
    details["branch"] = "projected/split" if cls.is_zero() else "non-projected"
    return "value", details


def _omega_cocycle(atlas, args):
    total = omega_cocycle_sum(atlas)
    nonzero = {k: format_elem(v) for k, v in total.items() if not v.is_zero()}
    details = {"zero_sum": not nonzero, "residuals": nonzero}
    return ("pass" if not nonzero else "fail"), details


# name -> (help text, body (atlas, args) -> (outcome, details)), in help order
ATLAS_COMMANDS = {
    "verify-atlas": ("loop identity + reduced-part check", _verify_atlas),
    "berezinian": ("Berezinian of one overlap Jacobian", _berezinian),
    "calabi-yau": ("constancy of all transition Berezinians", _calabi_yau),
    "obstruction": ("obstruction class in H^2(O(-3))", _obstruction),
    "picard-chase": ("even-Picard connecting map on the degree-1 lift", _picard_chase),
    "omega-cocycle": ("chart-0 sum of the deformation derivations", _omega_cocycle),
}


def _cmd_atlas(args):
    atlas, lam = _get_atlas(args)
    outcome, details = ATLAS_COMMANDS[args.command][1](atlas, args)
    return outcome, {**details, "lambda": str(lam)}


def _cmd_pi_plane_compare(args):
    pi = build_pi_plane()
    om = build_omega1(Fraction(1))
    equal = atlas_equal(pi, om)
    details = {
        "equal": equal,
        "assignments_checked": sum(len(f.assignment) for f in pi.maps.values()),
    }
    return ("pass" if equal else "fail"), details


def _cmd_sym_rank(args):
    even, odd = map(_printed, sym_restricted_rank(args.k))
    return "value", {"k": args.k, "even": even, "odd": odd}


_PARSE_TABLES = {**{str(i): standard_chart(i) for i in CHARTS}, "hom": HOM}


def _cmd_parse(args):
    table = _PARSE_TABLES[args.table]
    bindings = {}
    for item in args.bind or ():
        if "=" not in item:
            raise UsageError(f"--bind needs NAME=VALUE, got {item!r}")
        name, _, value = item.partition("=")
        try:  # the grammar's own identifier rule: all of NAME is one identifier token
            identifier = _tokenize(name)[:-1] == [("ident", name, 0)]
        except ParseError:  # a character that starts no token
            identifier = False
        if not identifier:
            raise UsageError(f"--bind {item!r}: {name!r} is not an identifier")
        if name in table.names:  # the expression would read the variable, not the binding
            raise UsageError(f"--bind {item!r}: {name} is a variable of table {args.table}")
        if name in bindings:
            raise UsageError(f"--bind {item!r}: {name} is already bound")
        bindings[name] = _fraction(value)
    elem = parse(args.expr, table, bindings)
    canonical = format_elem(elem)
    details = {
        "input": args.expr,
        "canonical": canonical,
        "roundtrip_ok": parse(canonical, table) == elem,
        "even": elem.is_even(),
        "odd": elem.is_odd(),
    }
    return "value", details


def _seed() -> int:
    """The selftest seed: SUPERGEO_SEED, read as an integer option is, else the default."""
    text = os.environ.get("SUPERGEO_SEED")
    if text is None:
        return DEFAULT_SEED
    try:
        return _int(text)
    except (UsageError, ValueError):  # ValueError: not a number, or over int()'s digit limit
        raise UsageError(f"SUPERGEO_SEED must be an integer in ASCII digits, got {text!r}") from None


def _cmd_selftest(args):
    rep = run_all(seed=_seed(), total_cases=args.cases)
    return ("pass" if rep["ok"] else "fail"), rep


def _build_parser() -> _Parser:
    parser = _Parser(prog="supergeo", description=__doc__)
    parser.add_argument("--version", action="version", version=f"supergeo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        p.add_argument("--json", action="store_true", help="emit the JSON report")
        return p

    p = add("cohomology", _cmd_cohomology, "dim (and top-degree basis) of H^q(P^n, O(k))")
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--k", type=_int, required=True)
    p.add_argument("--q", type=_int, required=True)

    p = add("bott", _cmd_bott, "dim H^q(P^n, Omega^p(k)) by the Bott formula")
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--p", type=_int, required=True)
    p.add_argument("--k", type=_int, required=True)
    p.add_argument("--q", type=_int, required=True)

    p = add("h1-tangent", _cmd_h1_tangent, "dim H^1(P^n, T(k)) two independent ways")
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--k", type=_int, required=True)

    for name, (help_text, _) in ATLAS_COMMANDS.items():
        p = add(name, _cmd_atlas, help_text)
        p.add_argument("--family", choices=FAMILIES, required=True)
        p.add_argument("--lambda", dest="lam", default="1", metavar="RATIONAL")
        p.add_argument("--matrix-json", dest="matrix_json", metavar="FILE",
                       help="matrix cocycle JSON (with --family generic)")
    sub.choices["berezinian"].add_argument("--pair", type=_int, nargs=2, required=True, metavar=("I", "J"))

    add("pi-plane-compare", _cmd_pi_plane_compare, "big-cell atlas vs the lambda=1 cotangent family")

    p = add("sym-rank", _cmd_sym_rank, "even|odd rank of the restricted symmetric power")
    p.add_argument("--k", type=_int, required=True)

    p = add("parse", _cmd_parse, "canonicalize an expression (grammar round trip)")
    p.add_argument("expr", help="expression text; put -- before one that starts with '-'")
    # argparse reads "-z10" as an unknown option and then misses expr
    p.hint = "put -- before an expression that starts with '-', as in: supergeo parse -- -z10"
    p.add_argument("--table", choices=sorted(_PARSE_TABLES), default="0")
    p.add_argument("--bind", action="append", metavar="NAME=VALUE")

    p = add("selftest", _cmd_selftest, "seeded randomized property suite")
    p.add_argument(
        "--cases", type=_int, default=None, help=f"total case budget (default {DEFAULT_CASES}, at most {MAX_CASES})"
    )

    return parser


def run(argv, on_parse=None) -> tuple[int, dict]:
    """Execute argv; return (exit_code, report).

    `on_parse`, when given, is called with the parsed arguments once argv parses.
    """
    parser = _build_parser()
    report = {"version": __version__, "exact": True}
    try:
        args = parser.parse_args(argv)
        if on_parse is not None:
            on_parse(args)
        report["command"] = args.command
        report["inputs"] = {
            k: v for k, v in sorted(vars(args).items()) if k not in ("fn", "json", "command") and v is not None
        }
        outcome, details = args.fn(args)
    except UsageError as exc:
        report.update(outcome="usage-error", details={"error": str(exc)})
        return 2, report
    except SuperError as exc:  # verification failures: rejected cocycles etc.
        report.update(outcome="fail", details={"error": str(exc)})
        return 1, report
    except ValueError as exc:  # domain errors: bad n/p/q ranges etc.
        report.update(outcome="usage-error", details={"error": str(exc)})
        return 2, report
    report["outcome"] = outcome
    report["details"] = details
    return (0 if outcome in ("pass", "value") else 1), report


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parsed = []
    code, report = run(argv, parsed.append)
    if parsed:  # argv parsed: follow the parsed flag, abbreviated or not
        as_json = parsed[0].json
    else:  # look for the flag among the options, before any "--"
        as_json = "--json" in (argv[: argv.index("--")] if "--" in argv else argv)
    if as_json:
        print(json.dumps(report, sort_keys=True))
    else:
        _print_text(report, file=sys.stderr if code == 2 else sys.stdout)
    return code


def _print_text(report: dict, file=sys.stdout) -> None:
    head = f"{report.get('command', 'supergeo')}: {report.get('outcome', '?')}"
    print(head, file=file)
    details = report.get("details", {})
    for key in sorted(details):
        print(f"  {key}: {json.dumps(details[key], sort_keys=True)}", file=file)


if __name__ == "__main__":
    sys.exit(main())
