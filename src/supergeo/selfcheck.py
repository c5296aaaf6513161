"""Seeded randomized property suite.

Checks the algebraic laws the rest of the package leans on: supercommutativity,
associativity, the graded Leibniz rule, invert_unit round trips, Berezinian
multiplicativity on random 2|2 supermatrices with nilpotent perturbations, and
the Serre-duality / Euler-characteristic identities of the line-bundle
dimension formulas.  Everything is exact, so a single failing case is a bug;
failing inputs are reported verbatim.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from .superalg import (
    SuperElem,
    VarTable,
    deriv_even,
    deriv_odd_left,
    format_elem,
    invert_unit,
)
from .supermat import SuperMatrix, berezinian, matmul
from .cech import euler_char, h_line, serre_dual_params

TABLE = VarTable(even=("z1", "z2"), odd=("t1", "t2"))

DEFAULT_SEED = 7152026

# cases per property at --cases 13600 (the default budget)
BUDGET = {
    "supercommutativity": 3000,
    "associativity": 2000,
    "leibniz": 2000,
    "invert_unit": 2000,
    "berezinian_mult": 600,
    "serre_duality": 2000,
    "euler_characteristic": 2000,
}


def _random_term(rng: random.Random, parity=None) -> SuperElem:
    exps = (rng.randint(-3, 3), rng.randint(-3, 3))
    masks = [0, 1, 2, 3]
    if parity == 0:
        masks = [0, 3]
    elif parity == 1:
        masks = [1, 2]
    mask = rng.choice(masks)
    num = rng.choice([n for n in range(-5, 6) if n])
    den = rng.randint(1, 3)
    return SuperElem(TABLE, {(exps, mask): Fraction(num, den)})


def random_elem(rng: random.Random, parity=None, max_terms=4) -> SuperElem:
    out = SuperElem.zero(TABLE)
    for _ in range(rng.randint(1, max_terms)):
        out = out + _random_term(rng, parity)
    return out


def random_unit(rng: random.Random, parity=None) -> SuperElem:
    num = rng.choice([n for n in range(-5, 6) if n])
    body = SuperElem(
        TABLE, {((rng.randint(-3, 3), rng.randint(-3, 3)), 0): Fraction(num, rng.randint(1, 3))}
    )
    nil = SuperElem.zero(TABLE)
    for _ in range(rng.randint(0, 2)):
        term = _random_term(rng, parity)
        nil = nil + (term - term.body())  # keep only the odd-factor part
    return body + nil


def random_supermatrix(rng: random.Random) -> SuperMatrix:
    """Invertible random 2|2 supermatrix: unit diagonals, nilpotent noise."""

    def even_block():
        g = [[SuperElem.zero(TABLE) for _ in range(2)] for _ in range(2)]
        for i in range(2):
            g[i][i] = random_unit(rng, parity=0)
        for i in range(2):
            for j in range(2):
                if i != j and rng.random() < 0.5:
                    e = random_elem(rng, parity=0, max_terms=2)
                    g[i][j] = e - e.body()  # strictly nilpotent off-diagonal
        return g

    def odd_block():
        return [
            [
                random_elem(rng, parity=1, max_terms=2) if rng.random() < 0.7 else SuperElem.zero(TABLE)
                for _ in range(2)
            ]
            for _ in range(2)
        ]

    return SuperMatrix(TABLE, even_block(), odd_block(), odd_block(), even_block())


class PropertyResult:
    """One property's case count and its first few failures."""

    __slots__ = ("name", "cases", "failures")

    def __init__(self, name: str, cases: int, failures: list | None = None):
        self.name = name
        self.cases = cases
        self.failures = [] if failures is None else failures

    @property
    def ok(self) -> bool:
        return not self.failures


def _record(result: PropertyResult, *items):
    if len(result.failures) < 3:
        result.failures.append(" ; ".join(items))


def check_supercommutativity(rng, cases) -> PropertyResult:
    res = PropertyResult("supercommutativity", cases)
    for _ in range(cases):
        pa, pb = rng.randint(0, 1), rng.randint(0, 1)
        a, b = random_elem(rng, pa), random_elem(rng, pb)
        sign = -1 if (pa and pb) else 1
        if a * b != (b * a) * sign:
            _record(res, format_elem(a), format_elem(b))
    return res


def check_associativity(rng, cases) -> PropertyResult:
    res = PropertyResult("associativity", cases)
    for _ in range(cases):
        a, b, c = (random_elem(rng) for _ in range(3))
        if (a * b) * c != a * (b * c):
            _record(res, format_elem(a), format_elem(b), format_elem(c))
    return res


def check_leibniz(rng, cases) -> PropertyResult:
    res = PropertyResult("leibniz", cases)
    for n in range(cases):
        pa = rng.randint(0, 1)
        a, b = random_elem(rng, pa), random_elem(rng)
        if n % 2 == 0:
            v = rng.choice(TABLE.even)
            lhs = deriv_even(a * b, v)
            rhs = deriv_even(a, v) * b + a * deriv_even(b, v)
        else:
            t = rng.choice(TABLE.odd)
            lhs = deriv_odd_left(a * b, t)
            sign = -1 if pa else 1
            rhs = deriv_odd_left(a, t) * b + a * deriv_odd_left(b, t) * sign
        if lhs != rhs:
            _record(res, format_elem(a), format_elem(b))
    return res


def check_invert_unit(rng, cases) -> PropertyResult:
    res = PropertyResult("invert_unit", cases)
    one = SuperElem.one(TABLE)
    for _ in range(cases):
        u = random_unit(rng)
        inv = invert_unit(u)
        if u * inv != one or inv * u != one or invert_unit(inv) != u:
            _record(res, format_elem(u))
    return res


def check_berezinian_mult(rng, cases) -> PropertyResult:
    res = PropertyResult("berezinian_mult", cases)
    for _ in range(cases):
        x, y = random_supermatrix(rng), random_supermatrix(rng)
        if berezinian(matmul(x, y)) != berezinian(x) * berezinian(y):
            _record(res, repr(x), repr(y))
    return res


def check_serre_duality(rng, cases) -> PropertyResult:
    res = PropertyResult("serre_duality", cases)
    for _ in range(cases):
        n = rng.randint(1, 3)
        k = rng.randint(-12, 12)
        q = rng.randint(0, n)
        if h_line(n, k, q) != h_line(*serre_dual_params(n, k, q)):
            _record(res, f"n={n} k={k} q={q}")
    return res


def check_euler_characteristic(rng, cases) -> PropertyResult:
    res = PropertyResult("euler_characteristic", cases)
    for _ in range(cases):
        n = rng.randint(1, 3)
        k = rng.randint(-12, 12)
        chi = sum((-1) ** q * h_line(n, k, q) for q in range(n + 1))
        if chi != euler_char(n, k):
            _record(res, f"n={n} k={k}")
    return res


CHECKS = {
    "supercommutativity": check_supercommutativity,
    "associativity": check_associativity,
    "leibniz": check_leibniz,
    "invert_unit": check_invert_unit,
    "berezinian_mult": check_berezinian_mult,
    "serre_duality": check_serre_duality,
    "euler_characteristic": check_euler_characteristic,
}


def run_all(seed: int = DEFAULT_SEED, total_cases: int | None = None) -> dict:
    """Run every property with a deterministic per-property RNG stream.

    `total_cases` (at least 1) rescales the default budget proportionally,
    keeping at least one case per property.  Returns a JSON-ready report.
    """
    if total_cases is not None and total_cases < 1:
        raise ValueError(f"the case budget must be at least 1, got {total_cases}")
    budget_total = sum(BUDGET.values())
    scale = 1.0 if total_cases is None else total_cases / budget_total
    t0 = time.monotonic()
    results = []
    for name, fn in CHECKS.items():
        cases = max(1, round(BUDGET[name] * scale))
        rng = random.Random(f"{seed}:{name}")
        results.append(fn(rng, cases))
    elapsed = time.monotonic() - t0
    return {
        "seed": seed,
        "total_cases": sum(r.cases for r in results),
        "elapsed_seconds": round(elapsed, 3),
        "ok": all(r.ok for r in results),
        "properties": [
            {"name": r.name, "cases": r.cases, "failures": list(r.failures)}
            for r in results
        ],
    }
