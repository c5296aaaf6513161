"""The seeded randomized property suite behind the selftest command."""

import hashlib
import json
import random
from fractions import Fraction
from math import gcd

from supergeo import cli, selfcheck
from supergeo.selfcheck import (
    BUDGET,
    DEFAULT_SEED,
    random_elem,
    random_supermatrix,
    random_unit,
    run_all,
)
from supergeo.superalg import format_elem
from supergeo.supermat import matmul


def assert_canonical(e):
    """Every key is ((e1, e2), mask) with exponents in [-3, 3] and a 2-odd-variable
    mask, every coefficient is a nonzero Fraction, and the numerators are
    nonzero ints over a denominator that divides 6 and shares no factor with
    all of them."""
    for key, c in e.terms.items():
        exps, mask = key
        assert len(exps) == 2 and all(type(x) is int and -3 <= x <= 3 for x in exps), key
        assert type(mask) is int and 0 <= mask < 4, key
        assert type(c) is Fraction and c != 0, (key, c)
    nums = list(e._num.values())
    assert all(type(n) is int and n != 0 for n in nums)
    assert type(e._den) is int and 6 % e._den == 0 and gcd(e._den, *nums) == 1


def test_generators_respect_parity():
    rng = random.Random(3)
    for _ in range(50):
        elems = [random_elem(rng), random_elem(rng, parity=0), random_elem(rng, parity=1)]
        assert elems[1].is_even()
        assert elems[2].is_odd()
        units = [random_unit(rng), random_unit(rng, parity=0)]
        assert units[1].is_even()
        for u in units:
            assert [mask for _, mask in u.terms].count(0) == 1
        m = random_supermatrix(rng)  # construction itself asserts block parity
        for e in elems + units + [x for block in (m.A, m.B, m.C, m.D) for row in block for x in row]:
            assert_canonical(e)


def test_run_all_small_budget_passes():
    rep = run_all(seed=11, total_cases=350)
    assert rep["ok"] is True
    assert {p["name"] for p in rep["properties"]} == set(BUDGET)
    assert all(p["failures"] == [] for p in rep["properties"])


def test_run_all_is_deterministic():
    a = run_all(seed=DEFAULT_SEED, total_cases=350)
    b = run_all(seed=DEFAULT_SEED, total_cases=350)
    a.pop("elapsed_seconds")
    b.pop("elapsed_seconds")
    assert a == b


# The sha256 of 200 rounds of generator output at the default seed: every draw
# of random_elem, random_unit and random_supermatrix, in order.  A generator
# change that alters one draw changes the cases the suite runs, and this digest.
GENERATED_CASES_SHA256 = "71626152535692b7cb11dbea6e9516ee7f16afe33c5f89bf4f8f8d41882a4cef"


def test_generated_cases_are_pinned():
    rng = random.Random(DEFAULT_SEED)
    h = hashlib.sha256()
    for _ in range(200):
        out = [format_elem(random_elem(rng, p)) for p in (None, 0, 1)]
        out += [format_elem(random_unit(rng, p)) for p in (None, 0)]
        out.append(repr(random_supermatrix(rng)))
        for text in out:
            h.update(f"{text}\n".encode())
    assert h.hexdigest() == GENERATED_CASES_SHA256


# The sha256 of the `selftest --cases 350` report at the default seed, with the
# wall time removed.  A passing report lists no inputs, so this pins the case
# counts, the property order, the verdicts and the report's layout, not the
# cases themselves; GENERATED_CASES_SHA256 pins those.
SELFTEST_350_SHA256 = "a12003b2e573154466da3c7848b6160925df4b3a6eff1695c6c60a766c159302"


def test_selftest_report_bytes_are_pinned(monkeypatch):
    monkeypatch.delenv("SUPERGEO_SEED", raising=False)
    code, rep = cli.run(["selftest", "--cases", "350"])
    assert code == 0
    rep["details"].pop("elapsed_seconds")
    digest = hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest()
    assert digest == SELFTEST_350_SHA256


def test_a_broken_law_is_reported_with_its_inputs(monkeypatch):
    # the top-left entry of the even block is not multiplicative under matmul
    monkeypatch.delenv("SUPERGEO_SEED", raising=False)
    monkeypatch.setattr(selfcheck, "berezinian", lambda x: x.A[0][0])
    code, rep = cli.run(["selftest", "--cases", "700"])
    assert (code, rep["outcome"], rep["details"]["ok"]) == (1, "fail", False)
    props = {p["name"]: p for p in rep["details"]["properties"]}
    assert list(props) == list(BUDGET)
    rng = random.Random(f"{DEFAULT_SEED}:berezinian_mult")
    pairs = [(random_supermatrix(rng), random_supermatrix(rng)) for _ in range(31)]
    expected = [
        f"{x!r} ; {y!r}" for x, y in pairs if matmul(x, y).A[0][0] != x.A[0][0] * y.A[0][0]
    ][:3]
    assert props["berezinian_mult"]["cases"] == 31
    assert props["berezinian_mult"]["failures"] == expected
    assert len(expected) == 3
    assert all(p["failures"] == [] for name, p in props.items() if name != "berezinian_mult")
