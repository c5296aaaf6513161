"""Seeded randomized property suite.

Checks the algebraic laws the rest of the package leans on: supercommutativity,
associativity, the graded Leibniz rule, invert_unit round trips, Berezinian
multiplicativity on random 2|2 supermatrices with nilpotent perturbations, and
the Serre-duality / Euler-characteristic identities of the line-bundle
dimension formulas.  Everything is exact, so a single failing case is a bug;
failing inputs are reported verbatim.

Each property's inputs depend only on the seed and the property name: they are
drawn in a fixed order from that property's own random stream.  A generator
change that alters one draw, its order or the element built from it changes
the cases the whole suite runs; tests/test_selfcheck.py pins the generated
cases with a digest.
"""

from __future__ import annotations

import random
import time

from .superalg import (
    SuperElem,
    VarTable,
    _reduce,
    deriv_even,
    deriv_odd_left,
    format_elem,
    invert_unit,
)
from .supermat import SuperMatrix, berezinian, matmul
from .cech import euler_char, h_line, serre_dual_params

TABLE = VarTable(even=("z1", "z2"), odd=("t1", "t2"))

DEFAULT_SEED = 7152026

# Largest total case budget run_all accepts, about 74 times the default: a
# larger one would run for hours, and one past float range cannot be scaled.
MAX_CASES = 10**6

# cases per property at the default budget, DEFAULT_CASES
BUDGET = {
    "supercommutativity": 3000,
    "associativity": 2000,
    "leibniz": 2000,
    "invert_unit": 2000,
    "berezinian_mult": 600,
    "serre_duality": 2000,
    "euler_characteristic": 2000,
}
DEFAULT_CASES = sum(BUDGET.values())


# What a term draws from: its nonzero numerators, and its odd masks by parity
# (None: any; 0: even, no or both odd variables; 1: exactly one odd variable).
# A coefficient num/den (den 1 to 3) is built over the shared denominator DEN,
# as the numerator SCALED[num, den] = num * DEN / den, read from a table built
# once.  The generators call rng.randrange(a, b + 1), which is all that
# rng.randint(a, b) does, so they draw the same stream with one call less.
NUMERATORS = tuple(n for n in range(-5, 6) if n)
MASKS = {None: (0, 1, 2, 3), 0: (0, 3), 1: (1, 2)}
DEN = 6
SCALED = {(n, d): n * (DEN // d) for n in NUMERATORS for d in (1, 2, 3)}


def _random_terms(rng: random.Random, count: int, parity=None) -> dict:
    """The numerators over DEN of a sum of `count` random terms, built in place.

    Each term draws its two exponents, its mask, its numerator and its
    denominator, in that order; a key that cancels drops out.  The dict is not
    reduced: its numerators may share a factor with DEN.
    """
    randrange, choice, masks = rng.randrange, rng.choice, MASKS[parity]
    terms = {}
    for _ in range(count):
        key = ((randrange(-3, 4), randrange(-3, 4)), choice(masks))
        c = terms.get(key, 0) + SCALED[choice(NUMERATORS), randrange(1, 4)]
        if c:
            terms[key] = c
        else:
            del terms[key]
    return terms


def _odd_part(terms: dict) -> dict:
    """The terms with an odd factor: the strictly nilpotent part."""
    return {k: c for k, c in terms.items() if k[1]}


def random_elem(rng: random.Random, parity=None, max_terms=4) -> SuperElem:
    return _reduce(TABLE, _random_terms(rng, rng.randrange(1, max_terms + 1), parity), DEN)


def random_unit(rng: random.Random, parity=None) -> SuperElem:
    randrange = rng.randrange
    num = rng.choice(NUMERATORS)
    body = {((randrange(-3, 4), randrange(-3, 4)), 0): SCALED[num, randrange(1, 4)]}
    # the body key has mask 0 and no odd-part key does, so the union adds
    return _reduce(TABLE, body | _odd_part(_random_terms(rng, randrange(0, 3), parity)), DEN)


def random_supermatrix(rng: random.Random) -> SuperMatrix:
    """Invertible random 2|2 supermatrix: unit diagonals, nilpotent noise."""

    def even_block():
        g = [[SuperElem.zero(TABLE) for _ in range(2)] for _ in range(2)]
        for i in range(2):
            g[i][i] = random_unit(rng, parity=0)
        for i in range(2):
            for j in range(2):
                if i != j and rng.random() < 0.5:  # the draws of random_elem(rng, 0, max_terms=2)
                    terms = _random_terms(rng, rng.randrange(1, 3), parity=0)
                    g[i][j] = _reduce(TABLE, _odd_part(terms), DEN)  # strictly nilpotent off-diagonal
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


def check_supercommutativity(rng, cases):
    for _ in range(cases):
        pa, pb = rng.randint(0, 1), rng.randint(0, 1)
        a, b = random_elem(rng, pa), random_elem(rng, pb)
        sign = -1 if (pa and pb) else 1
        if a * b != (b * a) * sign:
            yield format_elem(a), format_elem(b)


def check_associativity(rng, cases):
    for _ in range(cases):
        a, b, c = (random_elem(rng) for _ in range(3))
        if (a * b) * c != a * (b * c):
            yield format_elem(a), format_elem(b), format_elem(c)


def check_leibniz(rng, cases):
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
            yield format_elem(a), format_elem(b)


def check_invert_unit(rng, cases):
    one = SuperElem.one(TABLE)
    for _ in range(cases):
        u = random_unit(rng)
        inv = invert_unit(u)
        if u * inv != one or inv * u != one or invert_unit(inv) != u:
            yield (format_elem(u),)


def check_berezinian_mult(rng, cases):
    for _ in range(cases):
        x, y = random_supermatrix(rng), random_supermatrix(rng)
        if berezinian(matmul(x, y)) != berezinian(x) * berezinian(y):
            yield repr(x), repr(y)


def check_serre_duality(rng, cases):
    for _ in range(cases):
        n = rng.randint(1, 3)
        k = rng.randint(-12, 12)
        q = rng.randint(0, n)
        if h_line(n, k, q) != h_line(*serre_dual_params(n, k, q)):
            yield (f"n={n} k={k} q={q}",)


def check_euler_characteristic(rng, cases):
    for _ in range(cases):
        n = rng.randint(1, 3)
        k = rng.randint(-12, 12)
        chi = sum((-1) ** q * h_line(n, k, q) for q in range(n + 1))
        if chi != euler_char(n, k):
            yield (f"n={n} k={k}",)


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

    `total_cases` (1 to MAX_CASES, default DEFAULT_CASES) rescales the default
    budget proportionally, keeping at least one case per property.  Each check
    runs all its cases and yields the inputs of every failing one; the
    JSON-ready report keeps the first three.
    """
    total_cases = DEFAULT_CASES if total_cases is None else total_cases
    if total_cases < 1:
        raise ValueError(f"the case budget must be at least 1, got {total_cases}")
    if total_cases > MAX_CASES:
        raise ValueError(f"the case budget must be at most {MAX_CASES}, got {total_cases}")
    scale = total_cases / DEFAULT_CASES
    t0 = time.monotonic()
    properties = []
    for name, fn in CHECKS.items():
        cases = max(1, round(BUDGET[name] * scale))
        failures = [" ; ".join(t) for t in fn(random.Random(f"{seed}:{name}"), cases)]
        properties.append({"name": name, "cases": cases, "failures": failures[:3]})
    elapsed = time.monotonic() - t0
    return {
        "seed": seed,
        "total_cases": sum(p["cases"] for p in properties),
        "elapsed_seconds": round(elapsed, 3),
        "ok": not any(p["failures"] for p in properties),
        "properties": properties,
    }
