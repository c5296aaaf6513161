"""Seeded inputs and report checks for the four benchmark workloads.

Every operation ("op") is one `supergeo.cli.run(argv)` call.  Ops come in
decks: one deck holds every op kind of a workload once, in a seeded order,
with seeded parameters.  Dealing whole decks keeps the op mix of a run fixed,
so two seeds differ in the inputs, not in how much of each kind they run.
The first DIGEST_DECKS decks of a seed are the fixed op list that the
determinism digest covers; the traced run covers the first deck.

This module uses only the standard library; it never imports supergeo, so the
inputs do not depend on the code under test.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

WORKLOADS = ("selftest", "atlas", "grammar", "cohomology")

# Op size of the selftest workload: 1/100 of the default 13 600-case budget,
# with the same per-property mix (supergeo.selfcheck.BUDGET scaled by 1/100).
SELFTEST_CASES = 136
SELFTEST_DECK = 8
# The determinism digest covers the reports of this many decks.
DIGEST_DECKS = 3

# The first, untimed op of each fresh interpreter (the end of set-up).  It is
# the same for every seed; run.py sets SUPERGEO_SEED=1 for it.
WARMUP = {
    "selftest": ("selftest", "--json", "--cases", str(SELFTEST_CASES)),
    "atlas": ("omega-cocycle", "--family", "omega1", "--lambda=3/2"),
    "grammar": ("parse", "z10^64 + 3/2*z20*t10 - t20*(z10 - 1)", "--table", "0"),
    "cohomology": ("h1-tangent", "--n", "2", "--k=-8"),
}

GENERATOR = "X0^-1*X1^-1*X2^-1"
NF_MINUS_ONE = {"0<-1": "-1", "1<-2": "-1", "2<-0": "-1"}


@dataclass(frozen=True)
class Op:
    """One CLI call and what its report must say."""

    kind: str
    argv: tuple[str, ...]
    expect: dict = field(default_factory=dict, hash=False, compare=False)
    env: dict = field(default_factory=dict, hash=False, compare=False)


# -- input files ----------------------------------------------------------------

# Matrix cocycles for --family generic (the cotangent and split cocycles).
GENERIC_COCYCLES = {
    "cotangent": {
        "0<-1": [["-1/z11^2", "0"], ["-z21/z11^2", "1/z11"]],
        "1<-2": [["1/z22", "-z12/z22^2"], ["0", "-1/z22^2"]],
        "2<-0": [["0", "-1/z20^2"], ["1/z20", "-z10/z20^2"]],
    },
    "decomposable": {
        "0<-1": [["1/z11", "0"], ["0", "1/z11^2"]],
        "1<-2": [["1/z22", "0"], ["0", "1/z22^2"]],
        "2<-0": [["1/z20", "0"], ["0", "1/z20^2"]],
    },
}

# Negative controls: cocycles whose determinants have twist -2, not -3.
TWIST_MINUS_TWO = {
    "twist2-scalar": {
        "0<-1": [["1/z11", "0"], ["0", "1/z11"]],
        "1<-2": [["1/z22", "0"], ["0", "1/z22"]],
        "2<-0": [["1/z20", "0"], ["0", "1/z20"]],
    },
    "twist2-first": {
        "0<-1": [["1/z11^2", "0"], ["0", "1"]],
        "1<-2": [["1/z22^2", "0"], ["0", "1"]],
        "2<-0": [["1/z20^2", "0"], ["0", "1"]],
    },
    "twist2-second": {
        "0<-1": [["1", "0"], ["0", "1/z11^2"]],
        "1<-2": [["1", "0"], ["0", "1/z22^2"]],
        "2<-0": [["1", "0"], ["0", "1/z20^2"]],
    },
}

# A matrix JSON that lacks the "matrices" key.  The CLI should give a usage
# error (exit 2); at the time this benchmark was written it raised KeyError.
NO_MATRICES = "no-matrices"


def input_paths(workdir: str) -> dict[str, str]:
    names = (*GENERIC_COCYCLES, *TWIST_MINUS_TWO, NO_MATRICES)
    return {name: os.path.join(workdir, f"{name}.json") for name in names}


def write_inputs(workdir: str) -> dict[str, str]:
    """Write every matrix JSON file the workloads use; return name -> path."""
    paths = input_paths(workdir)
    docs = {name: {"matrices": mats} for name, mats in {**GENERIC_COCYCLES, **TWIST_MINUS_TWO}.items()}
    docs[NO_MATRICES] = {"cocycle": GENERIC_COCYCLES["cotangent"]}
    for name, doc in docs.items():
        with open(paths[name], "w") as fh:
            json.dump(doc, fh, sort_keys=True)
    return paths


def no_matrices_probe(files: dict[str, str]) -> Op:
    return Op(
        "control/no-matrices",
        ("verify-atlas", "--family", "generic", f"--matrix-json={files[NO_MATRICES]}"),
    )


# -- decks ----------------------------------------------------------------------


def _rational(rng: random.Random) -> Fraction:
    if rng.random() < 0.5:
        return Fraction(rng.randint(-4, 4))
    return Fraction(rng.choice([n for n in range(-9, 10) if n]), rng.randint(2, 9))


def _selftest_deck(rng, files):
    deck = []
    for _ in range(SELFTEST_DECK):
        seed = str(rng.randrange(1, 2**31))
        argv = ("selftest", "--json", "--cases", str(SELFTEST_CASES))
        deck.append(Op("selftest", argv, {"seed": int(seed)}, {"SUPERGEO_SEED": seed}))
    return deck


ATLAS_REPORTS = ("verify-atlas", "berezinian", "calabi-yau", "obstruction", "picard-chase", "omega-cocycle")
ATLAS_FAMILIES = ("decomposable", "omega1", "pi-plane", "generic:cotangent", "generic:decomposable")
PAIRS = ((0, 1), (1, 2), (2, 0))


def _atlas_deck(rng, files):
    deck = []
    for fam in ATLAS_FAMILIES:
        for report in ATLAS_REPORTS:
            lam = Fraction(1) if fam == "pi-plane" else _rational(rng)
            family, _, cocycle = fam.partition(":")
            argv = [report, "--family", family, f"--lambda={lam}"]
            if cocycle:
                argv.append(f"--matrix-json={files[cocycle]}")
            expect = {"lambda": lam}
            if report == "berezinian":
                pair = rng.choice(PAIRS)
                argv += ["--pair", str(pair[0]), str(pair[1])]
                expect["pair"] = f"{pair[0]}<-{pair[1]}"
            deck.append(Op(f"{report}/{fam}", tuple(argv), expect))
    deck.append(Op("pi-plane-compare", ("pi-plane-compare",), {}))
    control = rng.choice(sorted(TWIST_MINUS_TWO))
    report = rng.choice(("verify-atlas", "calabi-yau", "obstruction", "omega-cocycle"))
    argv = (report, "--family", "generic", f"--lambda={_rational(rng)}", f"--matrix-json={files[control]}")
    deck.append(Op("control/twist-2", argv, {}))
    rng.shuffle(deck)
    return deck


PARSE_TABLES = {
    "0": (("z10", "z20"), ("t10", "t20")),
    "1": (("z11", "z21"), ("t11", "t21")),
    "2": (("z12", "z22"), ("t12", "t22")),
    "hom": (("X0", "X1", "X2"), ()),
}
BIG_POWERS = (16, 256, 2048)


def _coeff(rng) -> str:
    num = rng.randint(1, 9)
    return str(num) if rng.random() < 0.6 else f"{num}/{rng.randint(2, 9)}"


def _power(rng, var, top=3) -> str:
    e = rng.choice([e for e in range(-top, top + 1) if e])
    return var if e == 1 else f"{var}^{e}"


def _monomial(rng, table) -> str:
    even, odd = PARSE_TABLES[table]
    factors = [_power(rng, v) for v in even if rng.random() < 0.7]
    factors += [t for t in odd if rng.random() < 0.4]
    return "*".join(factors) if factors else "1"


def _term(rng, table) -> str:
    return f"{_coeff(rng)}*{_monomial(rng, table)}"


def _sum(rng, table, n) -> str:
    out = _term(rng, table)
    for _ in range(n - 1):
        out += rng.choice((" + ", " - ")) + _term(rng, table)
    return out


def _unit(rng, table) -> str:
    even, odd = PARSE_TABLES[table]
    body = f"{_coeff(rng)}*{_power(rng, rng.choice(even))}"
    if odd:
        return f"{body} + {_coeff(rng)}*{odd[0]}*{odd[1]}"
    return body


def _nested(rng, table, depth) -> str:
    if depth == 0:
        return _sum(rng, table, 3)
    return f"({_nested(rng, table, depth - 1)})*({_sum(rng, table, 2)}) + {_term(rng, table)}"


def _grammar_text(kind, rng, table):
    """(text, bindings) for one parse op of the given kind."""
    even, _ = PARSE_TABLES[table]
    if kind == "long-sum":
        return _sum(rng, table, 48), {}
    if kind == "nested":
        return _nested(rng, table, 4), {}
    if kind == "division":
        parts = [f"({_sum(rng, table, 4)})/({_unit(rng, table)})" for _ in range(4)]
        return " + ".join(parts), {}
    if kind == "bindings":
        binds = {name: _rational(rng) for name in ("a", "b", "lam")}
        pieces = [f"{rng.choice(sorted(binds))}^{rng.randint(1, 3)}*{_term(rng, table)}" for _ in range(16)]
        return " + ".join(pieces) + f" - lam*({_sum(rng, table, 4)})", binds
    if kind == "chain":
        return "*".join(_power(rng, rng.choice(even)) for _ in range(40)) + f"*{_coeff(rng)}", {}
    raise ValueError(kind)


MALFORMED = ("trailing-op", "open-paren", "bad-char", "unknown-ident", "non-unit-division")


def _malformed(rng, table) -> str:
    even, _ = PARSE_TABLES[table]
    text = _sum(rng, table, 6)
    how = rng.choice(MALFORMED)
    if how == "trailing-op":
        return text + " +"
    if how == "open-paren":
        return f"({text}"
    if how == "bad-char":
        return text + " $ 1"
    if how == "unknown-ident":
        return f"{text} + 2*q9"
    return f"({text})/({even[0]} + {even[1]})"


def _grammar_deck(rng, files):
    deck = []
    for kind in ("long-sum", "nested", "division", "bindings", "chain"):
        table = rng.choice(sorted(PARSE_TABLES))
        text, binds = _grammar_text(kind, rng, table)
        argv = ["parse", text, "--table", table]
        for name, value in sorted(binds.items()):
            argv += ["--bind", f"{name}={value}"]
        deck.append(Op(f"parse/{kind}", tuple(argv), {"input": text}))
    for e in BIG_POWERS:
        table = rng.choice(sorted(PARSE_TABLES))
        var = rng.choice(PARSE_TABLES[table][0])
        e = e if rng.random() < 0.75 else -e
        text = f"{var}^{e}"
        deck.append(Op(f"parse/power-{abs(e)}", ("parse", text, "--table", table), {"input": text, "canonical": text}))
    table = rng.choice(("0", "1", "2"))
    deck.append(Op("control/malformed", ("parse", _malformed(rng, table), "--table", table), {}))
    rng.shuffle(deck)
    return deck


H1_LADDER = ((-20, -20), (-17, -15), (-13, -11), (-9, -7), (-5, -3), (-2, 6))


def _cohomology_deck(rng, files):
    deck = []
    for _ in range(6):
        n = rng.randint(1, 3)
        q = rng.choice((0, n, n, rng.randint(0, n)))
        k = rng.randint(-20, 12)
        deck.append(Op("cohomology", ("cohomology", "--n", str(n), f"--k={k}", "--q", str(q)), {"n": n, "k": k, "q": q}))
    for _ in range(6):
        n = rng.randint(1, 3)
        p, q, k = rng.randint(0, n), rng.choice((0, n, rng.randint(0, n))), rng.randint(-12, 12)
        argv = ("bott", "--n", str(n), "--p", str(p), f"--k={k}", "--q", str(q))
        deck.append(Op("bott", argv, {"n": n, "p": p, "k": k, "q": q}))
    for _ in range(4):
        k = rng.randint(1, 40)
        deck.append(Op("sym-rank", ("sym-rank", "--k", str(k)), {"k": k}))
    for n in (1, 3):
        deck.append(Op("h1-tangent/trivial", ("h1-tangent", "--n", str(n), f"--k={rng.randint(-20, 6)}"), {}))
    for lo, hi in H1_LADDER:
        k = rng.randint(lo, hi)
        deck.append(Op(f"h1-tangent/k{lo}", ("h1-tangent", "--n", "2", f"--k={k}"), {}))
    rng.shuffle(deck)
    return deck


_DECKS = {
    "selftest": _selftest_deck,
    "atlas": _atlas_deck,
    "grammar": _grammar_deck,
    "cohomology": _cohomology_deck,
}


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def stream(workload: str, seed: int, files: dict[str, str]):
    """Yield the workload's ops for this seed, deck after deck, forever."""
    rng = _rng(workload, seed)
    while True:
        yield from _DECKS[workload](rng, files)


def first_deck(workload: str, seed: int, files: dict[str, str]) -> list[Op]:
    return _DECKS[workload](_rng(workload, seed), files)


# -- checks ---------------------------------------------------------------------


def _h_line(n, k, q):
    if q == 0:
        return comb(n + k, n) if k >= 0 else 0
    if q == n:
        return comb(-k - 1, n) if k <= -n - 1 else 0
    return 0


def _bott(n, p, k, q):
    if q == p and k == 0:
        return 1
    if q == 0 and k > p:
        return comb(k + n - p, k) * comb(k - 1, p)
    if q == n and k < p - n:
        return comb(-k + p, -k) * comb(-k - 1, n - p)
    return 0


def _want(cond: bool, why: str, problems: list[str]) -> None:
    if not cond:
        problems.append(why)


def judge(op: Op, code, report, error) -> list[str]:
    """Problems with one op's outcome; `error` is what it raised, if anything."""
    if error is not None:
        return [f"raised {error}"]
    return check(op, code, report)


def check(op: Op, code, report) -> list[str]:
    """Every way the report of `op` deviates from what the paper fixes."""
    p: list[str] = []
    x = op.expect
    details = report.get("details", {})
    head = op.kind.split("/")[0]
    if head == "control":
        if op.kind == "control/no-matrices":
            _want(code == 2 and report.get("outcome") == "usage-error", "missing 'matrices' must give exit 2", p)
        elif op.kind == "control/twist-2":
            _want(code == 1, f"twist -2 cocycle must give exit 1, got {code}", p)
            _want("det twist -2" in str(details.get("error")), "twist -2 error message", p)
        else:
            _want(code == 1 and report.get("outcome") == "fail", f"malformed text must give exit 1, got {code}", p)
        return p
    _want(code == 0, f"exit code {code}", p)
    if "lambda" in x:
        lam = x["lambda"]
        _want(details.get("lambda") == str(lam), "lambda echoed", p)
    if head == "verify-atlas":
        _want(details.get("loop_ok") is True and details.get("loop_residuals") == {}, "loop_ok", p)
        _want(details.get("reduced_ok") is True, "reduced_ok", p)
    elif head == "berezinian":
        _want(details.get("pair") == x["pair"], "pair echoed", p)
        _want(details.get("value") == "-1", "normal-form Berezinian is -1", p)
    elif head == "calabi-yau":
        _want(details.get("flag") is True, "Calabi-Yau flag", p)
        _want(details.get("normal_form") == NF_MINUS_ONE, "normal-form Berezinian is -1 on every overlap", p)
    elif head in ("obstruction", "picard-chase"):
        want = {GENERATOR: str(lam)} if lam else {}
        _want(details.get("class") == want, f"class is {want}", p)
        _want(details.get("is_zero") is (not lam), "is_zero", p)
        if head == "picard-chase":
            _want(details.get("branch") == ("non-projected" if lam else "projected/split"), "branch", p)
    elif head == "omega-cocycle":
        _want(details.get("zero_sum") is True and details.get("residuals") == {}, "zero_sum", p)
    elif head == "pi-plane-compare":
        _want(details.get("equal") is True, "pi-plane equals omega1 at lambda 1", p)
    elif head == "parse":
        _want(details.get("input") == x["input"], "input echoed", p)
        _want(details.get("roundtrip_ok") is True, "roundtrip_ok", p)
        if "canonical" in x:
            _want(details.get("canonical") == x["canonical"], f"canonical is {x['canonical']}", p)
    elif head == "selftest":
        _want(details.get("ok") is True, "selftest ok", p)
        _want(details.get("seed") == x["seed"], "seed taken from SUPERGEO_SEED", p)
        _want(details.get("total_cases") == SELFTEST_CASES, f"{SELFTEST_CASES} cases", p)
    elif head == "cohomology":
        n, k, q = x["n"], x["k"], x["q"]
        _want(details.get("dim") == _h_line(n, k, q), "dim matches the monomial count", p)
        if q == n:
            _want(len(details.get("basis", ())) == details.get("dim"), "dim equals basis length", p)
    elif head == "bott":
        _want(details.get("dim") == _bott(x["n"], x["p"], x["k"], x["q"]), "dim matches the Bott formula", p)
    elif head == "h1-tangent":
        _want(details.get("agree") is True and details.get("dim") == details.get("dim_bott_serre"), "agree", p)
    elif head == "sym-rank":
        _want(details.get("even") == details.get("odd") == 2 * x["k"], "rank 2k|2k", p)
    else:
        p.append(f"no check for op kind {op.kind}")
    return p


def digest_line(code, report, error=None) -> str:
    """Canonical text of one report, without timing fields or temporary input paths."""
    if error is not None:
        return f"raised\t{error}\n"
    report = json.loads(json.dumps(report))
    report.get("details", {}).pop("elapsed_seconds", None)
    inputs = report.get("inputs", {})
    if "matrix_json" in inputs:
        inputs["matrix_json"] = os.path.basename(inputs["matrix_json"])
    return f"{code}\t{json.dumps(report, sort_keys=True)}\n"
